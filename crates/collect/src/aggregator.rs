//! The mid-tier aggregation role: tree-structured collection.
//!
//! An [`Aggregator`] accepts N downstream nodes (router agents or other
//! aggregators) on the same event-driven engine as the root collector,
//! aligns their snapshots on the same bounded-reorder-window +
//! straggler-quorum machinery ([`crate::align`]), COMBINEs them — gated
//! on the record-plane config fingerprint — and re-emits **one** summed
//! [`IntervalSnapshot`] upstream through the same retry/backoff/backlog
//! shipping path the router agents use ([`crate::ship`]). Because sketch
//! summation is associative and commutative (linearity), the root's
//! detection over a tree of aggregators is bit-identical to a flat run
//! where every agent connects to the root directly; the tree only
//! multiplies fan-in.
//!
//! # Gap semantics
//!
//! When no child reports an interval, the aggregator forwards *nothing*
//! for it — never an all-zero snapshot, which would be summed upstream as
//! a real observation, drag the EWMA baseline toward zero, and cause
//! spurious alerts on recovery (the PR 5 regression, now per tier). The
//! upstream tier's own straggler/gap machinery notices the hole and
//! degrades exactly as if that subtree were a single silent router.
//!
//! # Durability
//!
//! An aggregator's durable state is precisely an agent checkpoint: its
//! node id, the next interval its aligner will flush, and the encoded
//! frames still owed upstream. It reuses the `"HFA1"` container verbatim,
//! so a killed mid-tier node resumes with its numbering and backlog
//! intact and the tiers above and below reconverge on their own.

use crate::align::{AlignPolicy, Flush, FlushKind, IntervalAligner, OfferOutcome};
use crate::checkpoint::{self, CheckpointError};
use crate::collector::{CheckpointPolicy, CollectorTelemetry};
use crate::engine::{EngineConfig, EngineHandle, Event, PollEngine};
use crate::observer::CollectObserver;
use crate::ship::{ShipConfig, Shipper};
use crate::wire::{self, WireError};
use crate::{AgentStats, CollectError};
use hifind::{HiFindConfig, IntervalSnapshot};
use hifind_telemetry::{Counter, Registry, TelemetryError};
use serde::Serialize;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mid-tier policy knobs. The alignment half mirrors
/// [`crate::CollectorConfig`]; the shipping half mirrors
/// [`crate::AgentConfig`] — an aggregator is both at once.
#[derive(Clone)]
pub struct AggregatorConfig {
    /// This node's id in the frame headers it emits upstream.
    pub node_id: u32,
    /// Downstream nodes expected to report each interval (the tier's
    /// quorum).
    pub expected_children: usize,
    /// How long to hold an incomplete interval open before forwarding on
    /// quorum.
    pub straggler_deadline: Duration,
    /// Maximum intervals held pending at once.
    pub reorder_window: u64,
    /// Per-frame payload cap handed to the wire layer.
    pub max_payload_bytes: u32,
    /// After every expected child has connected and all have
    /// disconnected, how long to wait for reconnects before finishing.
    pub linger: Duration,
    /// Periodic durable-state checkpointing (plus one final write at run
    /// end). Write failures are counted, never fatal.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume interval numbering and the unshipped backlog from this
    /// checkpoint file at startup.
    pub resume_from: Option<PathBuf>,
    /// Hooks invoked at tier transitions (snapshot forwarded, tier gap,
    /// frame rejection, checkpoint write/resume, upstream reconnect).
    pub observer: Option<Arc<dyn CollectObserver>>,
    /// Upstream shipping policy (backlog, attempts, backoff, timeouts).
    pub ship: ShipConfig,
}

impl std::fmt::Debug for AggregatorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregatorConfig")
            .field("node_id", &self.node_id)
            .field("expected_children", &self.expected_children)
            .field("straggler_deadline", &self.straggler_deadline)
            .field("reorder_window", &self.reorder_window)
            .field("max_payload_bytes", &self.max_payload_bytes)
            .field("linger", &self.linger)
            .field("checkpoint", &self.checkpoint)
            .field("resume_from", &self.resume_from)
            .field("observer", &self.observer.as_ref().map(|_| "Some(..)"))
            .field("ship", &self.ship)
            .finish()
    }
}

impl AggregatorConfig {
    /// Sensible defaults for a node expecting `expected_children`
    /// downstream reporters.
    pub fn new(node_id: u32, expected_children: usize) -> Self {
        AggregatorConfig {
            node_id,
            expected_children: expected_children.max(1),
            straggler_deadline: Duration::from_secs(2),
            reorder_window: 8,
            max_payload_bytes: wire::DEFAULT_MAX_PAYLOAD,
            linger: Duration::from_millis(400),
            checkpoint: None,
            resume_from: None,
            observer: None,
            ship: ShipConfig::default(),
        }
    }
}

/// What one aggregation run saw and forwarded.
#[derive(Clone, Debug, Default, Serialize)]
pub struct AggregatorReport {
    /// This node's id.
    pub node_id: u32,
    /// Summed snapshots forwarded upstream.
    pub intervals_forwarded: u64,
    /// Forwarded intervals with every expected child reporting.
    pub complete_intervals: u64,
    /// Forwarded on quorum after the straggler deadline.
    pub partial_intervals: u64,
    /// Intervals no child reported: nothing was forwarded, the upstream
    /// tier synthesizes the gap.
    pub gap_intervals: u64,
    /// Missing child-interval contributions across partial intervals.
    pub straggler_slots: u64,
    /// Valid child frames combined into intervals.
    pub frames_received: u64,
    /// Child frames dropped as late or duplicate.
    pub frames_late: u64,
    /// Child frames rejected for wire/codec/fingerprint violations.
    pub frames_rejected: u64,
    /// Accepted v2 keyframes from children.
    pub frames_v2_keyframes: u64,
    /// Accepted v2 delta frames from children.
    pub frames_v2_deltas: u64,
    /// Payload + header bytes of valid child frames.
    pub bytes_received: u64,
    /// Distinct child ids that contributed at least one valid frame.
    pub children_seen: Vec<u32>,
    /// Checkpoints successfully written this run.
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed (the run continues regardless).
    pub checkpoint_errors: u64,
    /// Interval the run resumed at, when started with
    /// [`AggregatorConfig::resume_from`].
    pub resumed_at_interval: Option<u64>,
    /// Upstream shipping counters (the same shape agents report).
    pub ship: AgentStats,
    /// Frames still owed upstream when the run ended (they were also
    /// captured in the final checkpoint, when one is configured).
    pub frames_unshipped: u64,
}

/// Aggregator-specific metrics on top of the shared collection-tier set.
struct AggregatorTelemetry {
    base: CollectorTelemetry,
    forwarded: Arc<Counter>,
    tier_gaps: Arc<Counter>,
}

impl AggregatorTelemetry {
    fn new(registry: &Registry) -> Result<Self, TelemetryError> {
        Ok(AggregatorTelemetry {
            base: CollectorTelemetry::new(registry)?,
            forwarded: registry.counter(
                "hifind_collect_forwarded_total",
                "Summed interval snapshots forwarded upstream by this tier",
            )?,
            tier_gaps: registry.counter(
                "hifind_collect_tier_gaps_total",
                "Intervals this tier forwarded nothing for (no child reported)",
            )?,
        })
    }
}

/// The mid-tier daemon. [`Aggregator::bind`] starts it; the returned
/// [`AggregatorHandle`] stops or awaits it.
pub struct Aggregator;

impl Aggregator {
    /// Binds `listen`, starts the engine and merger threads, and ships
    /// summed snapshots to `upstream` (a collector or another
    /// aggregator).
    ///
    /// # Errors
    ///
    /// Fails on bind errors, invalid `cfg`, unreadable/mismatched resume
    /// checkpoints, or (when `registry` is given) metric registration
    /// clashes.
    pub fn bind(
        listen: impl ToSocketAddrs,
        upstream: impl Into<String>,
        cfg: HiFindConfig,
        agg_cfg: AggregatorConfig,
        registry: Option<Registry>,
    ) -> Result<AggregatorHandle, CollectError> {
        let telemetry = registry
            .as_ref()
            .map(AggregatorTelemetry::new)
            .transpose()?;
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Same bound and rationale as the root collector: a merger that
        // falls behind blocks the engine, pushing backpressure onto TCP.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Event>(32);
        let engine_cfg = EngineConfig {
            max_payload: agg_cfg.max_payload_bytes,
            tick: Duration::from_millis(50),
        };
        // Built before the engine starts, so a failed resume leaves no
        // thread behind.
        let mut merger = Merger::new(upstream.into(), cfg, agg_cfg, telemetry)?;
        let engine = PollEngine::spawn(listener, tx, Arc::clone(&shutdown), engine_cfg)?;
        let merger = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || merger.run(rx, shutdown))
        };
        Ok(AggregatorHandle {
            local_addr,
            shutdown,
            engine,
            merger,
        })
    }
}

/// A running aggregator.
pub struct AggregatorHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    engine: EngineHandle,
    merger: JoinHandle<AggregatorReport>,
}

impl AggregatorHandle {
    /// The bound downstream-facing address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals shutdown and returns the report once both threads exit.
    /// Pending intervals are forwarded (partial where needed) first.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if an aggregator thread died.
    pub fn stop(self) -> Result<AggregatorReport, CollectError> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.wake();
        self.join()
    }

    /// Waits for the natural end of the run: every expected child has
    /// connected, all have disconnected, and the linger window has passed
    /// with no reconnects.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if an aggregator thread died.
    pub fn wait(self) -> Result<AggregatorReport, CollectError> {
        self.join()
    }

    fn join(self) -> Result<AggregatorReport, CollectError> {
        let merger_outcome = self.merger.join();
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.wake();
        let engine_outcome = self.engine.join();
        let report = merger_outcome.map_err(|_| CollectError::WorkerPanic("merger"))?;
        engine_outcome?;
        Ok(report)
    }
}

struct Merger {
    cfg: AggregatorConfig,
    fingerprint: u64,
    aligner: IntervalAligner,
    shipper: Shipper,
    report: AggregatorReport,
    telemetry: Option<AggregatorTelemetry>,
    live_connections: usize,
    ever_connected: usize,
    last_disconnect: Option<Instant>,
}

impl Merger {
    fn new(
        upstream: String,
        cfg: HiFindConfig,
        agg_cfg: AggregatorConfig,
        telemetry: Option<AggregatorTelemetry>,
    ) -> Result<Self, CollectError> {
        let mut report = AggregatorReport {
            node_id: agg_cfg.node_id,
            ..AggregatorReport::default()
        };
        let mut shipper = Shipper::new(upstream, agg_cfg.node_id, agg_cfg.ship.clone());
        if let Some(obs) = &agg_cfg.observer {
            shipper.set_observer(Arc::clone(obs));
        }
        let mut start_interval = 0;
        if let Some(path) = &agg_cfg.resume_from {
            let ckpt = checkpoint::read_agent_checkpoint(path)?;
            let expected = cfg.fingerprint();
            if ckpt.fingerprint != expected {
                return Err(CollectError::Checkpoint(
                    CheckpointError::FingerprintMismatch {
                        expected,
                        got: ckpt.fingerprint,
                    },
                ));
            }
            if ckpt.router_id != agg_cfg.node_id {
                return Err(CollectError::Checkpoint(CheckpointError::Invalid {
                    at: "node_id",
                    detail: format!(
                        "checkpoint is for node {}, aggregator configured as node {}",
                        ckpt.router_id, agg_cfg.node_id
                    ),
                }));
            }
            start_interval = ckpt.interval;
            shipper.restore_backlog(&ckpt.backlog);
            report.resumed_at_interval = Some(ckpt.interval);
            if let Some(t) = &telemetry {
                t.base.checkpoint_resumed.inc();
            }
            if let Some(obs) = &agg_cfg.observer {
                obs.resumed(ckpt.interval, path);
            }
        }
        let aligner = IntervalAligner::new(
            AlignPolicy {
                expected: agg_cfg.expected_children,
                straggler_deadline: agg_cfg.straggler_deadline,
                reorder_window: agg_cfg.reorder_window,
            },
            start_interval,
        );
        Ok(Merger {
            fingerprint: cfg.fingerprint(),
            cfg: agg_cfg,
            aligner,
            shipper,
            report,
            telemetry,
            live_connections: 0,
            ever_connected: 0,
            last_disconnect: None,
        })
    }

    fn run(&mut self, rx: Receiver<Event>, shutdown: Arc<AtomicBool>) -> AggregatorReport {
        // Capped like the collector's tick: a long straggler deadline
        // must not delay noticing natural finish by minutes.
        let tick = (self.cfg.straggler_deadline / 4)
            .clamp(Duration::from_millis(10), Duration::from_secs(1));
        loop {
            match rx.recv_timeout(tick) {
                Ok(event) => self.handle(event),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.flush_ready(false);
            if shutdown.load(Ordering::SeqCst) || self.finished() {
                break;
            }
        }
        // Drain whatever the engine already decoded, then forward every
        // pending interval — partial or not, the tier never hangs.
        while let Ok(event) = rx.try_recv() {
            self.handle(event);
        }
        self.flush_ready(true);
        // One last push at whatever is still owed upstream, then persist
        // the remainder so a restart re-ships exactly that.
        let _ = self.shipper.flush();
        self.maybe_checkpoint(true);
        self.report.ship = self.shipper.stats().clone();
        self.report.frames_unshipped =
            u64::try_from(self.shipper.backlog_len()).unwrap_or(u64::MAX);
        std::mem::take(&mut self.report)
    }

    /// Natural end of a run: the full child fleet connected at some
    /// point, all of it left, and nobody reconnected for a linger window.
    fn finished(&self) -> bool {
        self.live_connections == 0
            && self.ever_connected >= self.cfg.expected_children
            && self
                .last_disconnect
                .is_some_and(|t| t.elapsed() >= self.cfg.linger)
    }

    /// Writes a checkpoint if the policy says one is due (`force` writes
    /// whenever a policy exists). Failures are counted and logged; the
    /// run always continues.
    fn maybe_checkpoint(&mut self, force: bool) {
        let Some(policy) = &self.cfg.checkpoint else {
            return;
        };
        let next_interval = self.aligner.next_interval();
        let due = force
            || (policy.every_intervals > 0 && next_interval.is_multiple_of(policy.every_intervals));
        if !due {
            return;
        }
        let ckpt = checkpoint::AgentCheckpoint {
            fingerprint: self.fingerprint,
            router_id: self.cfg.node_id,
            interval: next_interval,
            backlog: self.shipper.backlog_frames(),
        };
        match checkpoint::write_agent_checkpoint(&policy.path, &ckpt) {
            Ok(()) => {
                self.report.checkpoints_written += 1;
                if let Some(t) = &self.telemetry {
                    t.base.checkpoint_written.inc();
                    t.base
                        .checkpoint_last_interval
                        .set(i64::try_from(next_interval).unwrap_or(i64::MAX));
                }
                if let Some(obs) = &self.cfg.observer {
                    obs.checkpoint_written(next_interval, &policy.path);
                }
            }
            Err(e) => {
                eprintln!("[hifind-aggregate] checkpoint write failed: {e}");
                self.report.checkpoint_errors += 1;
                if let Some(t) = &self.telemetry {
                    t.base.checkpoint_write_errors.inc();
                }
            }
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Connected => {
                self.live_connections += 1;
                self.ever_connected += 1;
                if let Some(t) = &self.telemetry {
                    t.base
                        .routers_connected
                        .set(i64::try_from(self.live_connections).unwrap_or(i64::MAX));
                }
            }
            Event::Disconnected => {
                self.live_connections = self.live_connections.saturating_sub(1);
                if self.live_connections == 0 {
                    self.last_disconnect = Some(Instant::now());
                }
                if let Some(t) = &self.telemetry {
                    t.base
                        .routers_connected
                        .set(i64::try_from(self.live_connections).unwrap_or(i64::MAX));
                }
            }
            Event::Rejected(err) => self.reject(err),
            Event::Frame {
                router_id,
                interval,
                snapshot,
                frame_bytes,
                delta,
            } => self.handle_frame(router_id, interval, *snapshot, frame_bytes, delta),
        }
    }

    /// A typed, counted rejection — mismatched children are surfaced
    /// through the report, telemetry, and observer, never silently
    /// dropped (and certainly never merged).
    fn reject(&mut self, err: WireError) {
        eprintln!("[hifind-aggregate] rejected frame: {err}");
        self.report.frames_rejected += 1;
        if let Some(t) = &self.telemetry {
            t.base.frames_rejected.inc();
        }
        if let Some(obs) = &self.cfg.observer {
            obs.frame_rejected(&err);
        }
    }

    fn handle_frame(
        &mut self,
        child_id: u32,
        interval: u64,
        snapshot: IntervalSnapshot,
        frame_bytes: u64,
        delta: bool,
    ) {
        if snapshot.fingerprint != self.fingerprint {
            // A child recording under different seeds or shapes cannot be
            // combined; COMBINE is gated on the config fingerprint at
            // every tier, not just the root.
            self.reject(WireError::FingerprintMismatch {
                header: self.fingerprint,
                payload: snapshot.fingerprint,
            });
            return;
        }
        let combine_start = Instant::now();
        match self.aligner.offer(child_id, interval, snapshot) {
            OfferOutcome::Accepted => {
                self.report.frames_received += 1;
                self.report.bytes_received += frame_bytes;
                if delta {
                    self.report.frames_v2_deltas += 1;
                } else {
                    self.report.frames_v2_keyframes += 1;
                }
                if !self.report.children_seen.contains(&child_id) {
                    self.report.children_seen.push(child_id);
                }
                if let Some(t) = &self.telemetry {
                    t.base.frames_received.inc();
                    t.base.bytes_received.add(frame_bytes);
                    if delta {
                        t.base.frames_v2_deltas.inc();
                    } else {
                        t.base.frames_v2_keyframes.inc();
                    }
                    t.base
                        .combine_seconds
                        .observe_duration(combine_start.elapsed());
                }
            }
            OfferOutcome::Late | OfferOutcome::Duplicate => {
                self.report.frames_late += 1;
                if let Some(t) = &self.telemetry {
                    t.base.frames_late.inc();
                }
            }
            OfferOutcome::CombineFailed => {
                // Unreachable given the fingerprint gate, but a counted
                // rejection beats a poisoned aggregate.
                self.report.frames_rejected += 1;
                if let Some(t) = &self.telemetry {
                    t.base.frames_rejected.inc();
                }
            }
        }
    }

    /// Forwards every interval the aligner deems ready; with `drain`
    /// forwards everything pending.
    fn flush_ready(&mut self, drain: bool) {
        while let Some(flush) = self.aligner.pop_ready(drain) {
            match &flush.kind {
                FlushKind::Complete => self.report.complete_intervals += 1,
                FlushKind::Partial { missing } => {
                    self.report.partial_intervals += 1;
                    self.report.straggler_slots += missing;
                    if let Some(t) = &self.telemetry {
                        t.base.straggler_slots.add(*missing);
                    }
                }
                FlushKind::Gap => {
                    let slots = u64::try_from(self.cfg.expected_children).unwrap_or(u64::MAX);
                    self.report.gap_intervals += 1;
                    self.report.straggler_slots += slots;
                    if let Some(t) = &self.telemetry {
                        t.base.straggler_slots.add(slots);
                        t.tier_gaps.inc();
                    }
                }
            }
            self.forward(flush);
            self.maybe_checkpoint(false);
        }
    }

    fn forward(&mut self, flush: Flush) {
        let Some((combined, contributors)) = flush.payload else {
            // A gap forwards NOTHING. An all-zero snapshot would be
            // summed upstream as a genuine observation and drag the
            // forecast baseline down; silence lets the upstream tier's
            // own straggler/gap machinery classify the hole correctly.
            if let Some(obs) = &self.cfg.observer {
                obs.tier_gap(self.cfg.node_id, flush.interval);
            }
            return;
        };
        // The shipper re-encodes the sum against its own delta chain with
        // the upstream peer and counts an unframeable sum as a dropped
        // interval itself.
        let _ = self.shipper.ship_snapshot(flush.interval, &combined);
        self.report.intervals_forwarded += 1;
        if let Some(t) = &self.telemetry {
            t.forwarded.inc();
        }
        if let Some(obs) = &self.cfg.observer {
            obs.snapshot_forwarded(
                self.cfg.node_id,
                flush.interval,
                &combined,
                contributors,
                self.cfg.expected_children,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentConfig, RouterAgent};
    use crate::collector::{Collector, CollectorConfig};
    use hifind_flow::Packet;

    /// Two agents → one aggregator → root expecting one reporter: the
    /// root must see exactly the aggregator's node id and the combined
    /// frame count.
    #[test]
    fn two_agents_through_one_aggregator_round_trip() {
        let cfg = HiFindConfig::small(21);
        let mut root_cfg = CollectorConfig::new(1);
        root_cfg.straggler_deadline = Duration::from_secs(60);
        root_cfg.reorder_window = 64;
        let root = Collector::bind("127.0.0.1:0", cfg, root_cfg, None).expect("bind root");
        let mut agg_cfg = AggregatorConfig::new(500, 2);
        agg_cfg.straggler_deadline = Duration::from_secs(60);
        agg_cfg.reorder_window = 64;
        agg_cfg.linger = Duration::from_millis(100);
        let agg = Aggregator::bind(
            "127.0.0.1:0",
            root.local_addr().to_string(),
            cfg,
            agg_cfg,
            None,
        )
        .expect("bind aggregator");
        let agg_addr = agg.local_addr().to_string();
        for child in 0..2u32 {
            let mut agent =
                RouterAgent::new(agg_addr.clone(), &cfg, AgentConfig::new(child)).unwrap();
            for iv in 0..3u64 {
                for i in 0..20u8 {
                    agent.record(&Packet::syn(
                        iv,
                        [10, child as u8, 0, i].into(),
                        2000,
                        [129, 105, 0, 1].into(),
                        80,
                    ));
                }
                agent.end_interval();
            }
            agent.finish();
        }
        let agg_report = agg.wait().expect("aggregator threads");
        assert_eq!(agg_report.node_id, 500);
        assert_eq!(agg_report.frames_received, 6);
        assert_eq!(agg_report.intervals_forwarded, 3);
        assert_eq!(agg_report.complete_intervals, 3);
        assert_eq!(agg_report.gap_intervals, 0);
        assert_eq!(agg_report.frames_unshipped, 0);
        let mut children = agg_report.children_seen.clone();
        children.sort_unstable();
        assert_eq!(children, vec![0, 1]);
        let root_report = root.wait().expect("collector threads");
        assert_eq!(root_report.frames_received, 3);
        assert_eq!(root_report.complete_intervals, 3);
        assert_eq!(root_report.routers_seen, vec![500]);
    }

    /// A mis-seeded child at an interior tier is rejected with a typed,
    /// counted error — not silently dropped, and never merged.
    #[test]
    fn interior_fingerprint_mismatch_is_typed_and_counted() {
        let cfg = HiFindConfig::small(22);
        let rogue_cfg = HiFindConfig::small(23);
        let mut root_cfg = CollectorConfig::new(1);
        root_cfg.straggler_deadline = Duration::from_secs(60);
        let root = Collector::bind("127.0.0.1:0", cfg, root_cfg, None).expect("bind root");
        let registry = Registry::new();
        let mut agg_cfg = AggregatorConfig::new(7, 2);
        agg_cfg.straggler_deadline = Duration::from_secs(60);
        agg_cfg.linger = Duration::from_millis(100);
        let agg = Aggregator::bind(
            "127.0.0.1:0",
            root.local_addr().to_string(),
            cfg,
            agg_cfg,
            Some(registry.clone()),
        )
        .expect("bind aggregator");
        let agg_addr = agg.local_addr().to_string();
        let mut good = RouterAgent::new(agg_addr.clone(), &cfg, AgentConfig::new(1)).unwrap();
        good.end_interval();
        good.finish();
        // The rogue frame is internally consistent (header fingerprint ==
        // payload fingerprint), so the wire layer passes it and the
        // MERGER must reject it on the tier's own fingerprint gate.
        let mut rogue = RouterAgent::new(agg_addr, &rogue_cfg, AgentConfig::new(2)).unwrap();
        rogue.end_interval();
        rogue.finish();
        let report = agg.wait().expect("aggregator threads");
        assert_eq!(report.frames_rejected, 1, "typed rejection is counted");
        assert_eq!(report.frames_received, 1);
        assert_eq!(report.children_seen, vec![1], "rogue never contributes");
        assert_eq!(report.partial_intervals, 1, "good child still forwards");
        let rejected = registry
            .snapshot()
            .get("hifind_collect_frames_rejected_total")
            .and_then(|m| match m {
                hifind_telemetry::registry::MetricValue::Counter { value } => Some(*value),
                _ => None,
            });
        assert_eq!(rejected, Some(1), "rejection reaches telemetry");
        let root_report = root.wait().expect("collector threads");
        assert_eq!(root_report.frames_received, 1, "partial sum still arrives");
    }
}
