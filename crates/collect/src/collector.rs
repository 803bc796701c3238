//! The central collection site: an event-driven connection engine and the
//! interval aligner that feeds [`DetectionCore`].
//!
//! # Threading
//!
//! * **engine** (one thread, [`crate::engine`]) — a readiness-driven poll
//!   loop over the listener, a wakeup pipe, and every downstream
//!   connection; per-connection buffers and frame state machines slice
//!   out complete frames, validate them ([`crate::wire`]), and forward
//!   decoded snapshots over a bounded channel — TCP backpressure, not
//!   unbounded queueing, absorbs a router that outpaces detection. No
//!   thread is spawned per connection, so fan-in scales to hundreds of
//!   routers per node.
//! * **aligner** — owns the [`DetectionCore`]. Frames for the same
//!   interval are combined *incrementally on arrival* (one accumulated
//!   snapshot per pending interval, never a list), so collector memory is
//!   bounded by the reorder window, not by router count. The alignment
//!   policy itself lives in [`crate::align`], shared with the mid-tier
//!   [`crate::aggregator`] so every tier degrades identically.
//!
//! # Graceful degradation
//!
//! The aligner never waits indefinitely for anyone. An interval flushes as
//! soon as every expected router reported; otherwise after
//! [`CollectorConfig::straggler_deadline`] it flushes with whatever quorum
//! arrived and the missing contributions are counted. An interval no
//! router reported (a gap while later intervals stream in) advances the
//! grid via [`DetectionCore::process_gap`]. A crashed router therefore
//! costs observability of its traffic slice — never liveness of the
//! pipeline.

use crate::align::{AlignPolicy, Flush, FlushKind, IntervalAligner, OfferOutcome};
use crate::checkpoint;
use crate::engine::{EngineConfig, EngineHandle, Event, PollEngine};
use crate::observer::CollectObserver;
use crate::wire::{self, WireError};
use crate::CollectError;
use hifind::pipeline::DetectionCore;
use hifind::report::AlertLog;
use hifind::{HiFindConfig, IntervalSnapshot};
use hifind_telemetry::{exponential_buckets, Counter, Gauge, Histogram, Registry, TelemetryError};
use serde::Serialize;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When and where the aligner persists its detection state.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint file, overwritten atomically on every write.
    pub path: PathBuf,
    /// Write after every N flushed intervals (`0` = only at run end).
    pub every_intervals: u64,
}

impl CheckpointPolicy {
    /// Checkpoints to `path` every 8 flushed intervals.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every_intervals: 8,
        }
    }
}

/// Collection-site policy knobs.
#[derive(Clone)]
pub struct CollectorConfig {
    /// Routers expected to report each interval. Detection flushes early
    /// when all of them did; the deadline below covers the rest.
    pub expected_routers: usize,
    /// How long to hold an incomplete interval open once it has any data
    /// (or once later intervals prove it was skipped) before flushing on
    /// quorum.
    pub straggler_deadline: Duration,
    /// Maximum intervals held pending at once; beyond this the oldest is
    /// force-flushed regardless of deadline (bounds memory under heavy
    /// inter-router skew).
    pub reorder_window: u64,
    /// Per-frame payload cap handed to the wire layer.
    pub max_payload_bytes: u32,
    /// After every expected router has connected and all have
    /// disconnected, how long to wait for reconnects before finishing.
    pub linger: Duration,
    /// Periodic detection-state checkpointing (plus one final write at run
    /// end). Write failures are counted, never fatal.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume detection state from this checkpoint file at startup. A
    /// missing, corrupt, or mis-fingerprinted file fails
    /// [`Collector::bind`] with a typed error rather than silently
    /// starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Hooks invoked at collection-plane transitions (interval close, gap
    /// synthesis, checkpoint write/resume, frame rejection); `None`
    /// observes nothing. Callbacks run inline on the aligner thread, so
    /// they must stay cheap.
    pub observer: Option<Arc<dyn CollectObserver>>,
}

impl std::fmt::Debug for CollectorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorConfig")
            .field("expected_routers", &self.expected_routers)
            .field("straggler_deadline", &self.straggler_deadline)
            .field("reorder_window", &self.reorder_window)
            .field("max_payload_bytes", &self.max_payload_bytes)
            .field("linger", &self.linger)
            .field("checkpoint", &self.checkpoint)
            .field("resume_from", &self.resume_from)
            .field("observer", &self.observer.as_ref().map(|_| "Some(..)"))
            .finish()
    }
}

impl CollectorConfig {
    /// Sensible defaults for `expected_routers` reporters.
    pub fn new(expected_routers: usize) -> Self {
        CollectorConfig {
            expected_routers: expected_routers.max(1),
            straggler_deadline: Duration::from_secs(2),
            reorder_window: 8,
            max_payload_bytes: wire::DEFAULT_MAX_PAYLOAD,
            linger: Duration::from_millis(400),
            checkpoint: None,
            resume_from: None,
            observer: None,
        }
    }
}

/// What one collection run saw and decided.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CollectionReport {
    /// Intervals fed to the detection pipeline.
    pub intervals_flushed: u64,
    /// Intervals with every expected router reporting.
    pub complete_intervals: u64,
    /// Intervals flushed on quorum after the straggler deadline.
    pub partial_intervals: u64,
    /// Intervals no router reported (synthesized as all-zero).
    pub gap_intervals: u64,
    /// Missing router-interval contributions across partial intervals.
    pub straggler_slots: u64,
    /// Valid frames combined into intervals.
    pub frames_received: u64,
    /// Frames for intervals already flushed, and duplicate
    /// router-interval frames (both dropped).
    pub frames_late: u64,
    /// Frames rejected for wire/codec/fingerprint violations.
    pub frames_rejected: u64,
    /// Payload + header bytes of valid frames.
    pub bytes_received: u64,
    /// Valid v2 keyframes.
    pub frames_v2_keyframes: u64,
    /// Valid v2 delta frames.
    pub frames_v2_deltas: u64,
    /// Distinct router ids that contributed at least one valid frame.
    pub routers_seen: Vec<u32>,
    /// Checkpoints successfully written this run.
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed (the run continues regardless).
    pub checkpoint_errors: u64,
    /// Interval the run resumed at, when started with
    /// [`CollectorConfig::resume_from`].
    pub resumed_at_interval: Option<u64>,
    /// The full alert log of the aggregated detection run.
    pub log: AlertLog,
}

/// Best-effort collection-tier metrics (`hifind_collect_*`), shared with
/// the mid-tier aggregator so every tier exports the same series.
pub(crate) struct CollectorTelemetry {
    pub(crate) routers_connected: Arc<Gauge>,
    pub(crate) frames_received: Arc<Counter>,
    pub(crate) frames_late: Arc<Counter>,
    pub(crate) frames_rejected: Arc<Counter>,
    pub(crate) straggler_slots: Arc<Counter>,
    pub(crate) bytes_received: Arc<Counter>,
    pub(crate) frames_v2_keyframes: Arc<Counter>,
    pub(crate) frames_v2_deltas: Arc<Counter>,
    pub(crate) combine_seconds: Arc<Histogram>,
    pub(crate) checkpoint_written: Arc<Counter>,
    pub(crate) checkpoint_write_errors: Arc<Counter>,
    pub(crate) checkpoint_resumed: Arc<Counter>,
    pub(crate) checkpoint_last_interval: Arc<Gauge>,
}

impl CollectorTelemetry {
    pub(crate) fn new(registry: &Registry) -> Result<Self, TelemetryError> {
        Ok(CollectorTelemetry {
            routers_connected: registry.gauge(
                "hifind_collect_routers_connected",
                "Router agent connections currently open",
            )?,
            frames_received: registry.counter(
                "hifind_collect_frames_received_total",
                "Valid snapshot frames combined into intervals",
            )?,
            frames_late: registry.counter(
                "hifind_collect_frames_late_total",
                "Frames dropped as late or duplicate",
            )?,
            frames_rejected: registry.counter(
                "hifind_collect_frames_rejected_total",
                "Frames rejected for wire, codec or fingerprint violations",
            )?,
            straggler_slots: registry.counter(
                "hifind_collect_straggler_slots_total",
                "Missing router-interval contributions at flush time",
            )?,
            bytes_received: registry.counter(
                "hifind_collect_bytes_received_total",
                "Bytes of valid frames received",
            )?,
            frames_v2_keyframes: registry.counter(
                "hifind_collect_frames_v2_keyframes_total",
                "Valid codec-v2 keyframes received",
            )?,
            frames_v2_deltas: registry.counter(
                "hifind_collect_frames_v2_deltas_total",
                "Valid codec-v2 delta frames received",
            )?,
            combine_seconds: registry.histogram(
                "hifind_collect_combine_seconds",
                "Latency of combining one router snapshot into its interval",
                exponential_buckets(1e-6, 4.0, 11),
            )?,
            checkpoint_written: registry.counter(
                "hifind_checkpoint_written_total",
                "Detection-state checkpoints written successfully",
            )?,
            checkpoint_write_errors: registry.counter(
                "hifind_checkpoint_write_errors_total",
                "Detection-state checkpoint writes that failed",
            )?,
            checkpoint_resumed: registry.counter(
                "hifind_checkpoint_resumed_total",
                "Collector starts that resumed from a checkpoint",
            )?,
            checkpoint_last_interval: registry.gauge(
                "hifind_checkpoint_last_interval",
                "Interval count covered by the most recent checkpoint",
            )?,
        })
    }
}

/// The collection daemon. [`Collector::bind`] starts it; the returned
/// [`CollectorHandle`] stops or awaits it.
pub struct Collector;

impl Collector {
    /// Binds `addr` and starts the engine and aligner threads.
    ///
    /// # Errors
    ///
    /// Fails on bind errors, invalid `cfg`, or (when `registry` is given)
    /// metric registration clashes.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: HiFindConfig,
        collector_cfg: CollectorConfig,
        registry: Option<Registry>,
    ) -> Result<CollectorHandle, CollectError> {
        let telemetry = registry.as_ref().map(CollectorTelemetry::new).transpose()?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // A small bound: the engine blocks — and thus stops reading its
        // sockets — when detection falls behind, pushing the backpressure
        // onto TCP instead of collector memory.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Event>(32);
        let engine_cfg = EngineConfig {
            max_payload: collector_cfg.max_payload_bytes,
            tick: Duration::from_millis(50),
        };
        // Built before the engine starts, so a failed resume leaves no
        // thread behind.
        let mut aligner = Aligner::new(cfg, collector_cfg, telemetry)?;
        let engine = PollEngine::spawn(listener, tx, Arc::clone(&shutdown), engine_cfg)?;
        let aligner = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || aligner.run(rx, shutdown))
        };
        Ok(CollectorHandle {
            local_addr,
            shutdown,
            engine,
            aligner,
        })
    }
}

/// A running collector.
pub struct CollectorHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    engine: EngineHandle,
    aligner: JoinHandle<CollectionReport>,
}

impl CollectorHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals shutdown and returns the report once both threads exit.
    /// Pending intervals are flushed (partial where needed) first. The
    /// engine's wakeup pipe makes the stop prompt — no waiting out an
    /// accept or read timeout tick.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if a collector thread died; the run's
    /// report is lost with it.
    pub fn stop(self) -> Result<CollectionReport, CollectError> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.wake();
        self.join()
    }

    /// Waits for the natural end of the run: every expected router has
    /// connected, all have disconnected, and the linger window has passed
    /// with no reconnects.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if a collector thread died; the run's
    /// report is lost with it.
    pub fn wait(self) -> Result<CollectionReport, CollectError> {
        self.join()
    }

    fn join(self) -> Result<CollectionReport, CollectError> {
        let aligner_outcome = self.aligner.join();
        // The aligner is done (or dead); release the engine either way so
        // a worker panic cannot leak a spinning poll loop.
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.wake();
        let engine_outcome = self.engine.join();
        let report = aligner_outcome.map_err(|_| CollectError::WorkerPanic("aligner"))?;
        engine_outcome?;
        Ok(report)
    }
}

struct Aligner {
    core: DetectionCore,
    cfg: CollectorConfig,
    fingerprint: u64,
    aligner: IntervalAligner,
    report: CollectionReport,
    telemetry: Option<CollectorTelemetry>,
    live_connections: usize,
    ever_connected: usize,
    last_disconnect: Option<Instant>,
}

impl Aligner {
    fn new(
        cfg: HiFindConfig,
        collector_cfg: CollectorConfig,
        telemetry: Option<CollectorTelemetry>,
    ) -> Result<Self, CollectError> {
        let mut report = CollectionReport::default();
        let core = match &collector_cfg.resume_from {
            Some(path) => {
                let ckpt = checkpoint::read_core_checkpoint(path)?;
                let core = DetectionCore::restore(cfg, &ckpt)?;
                report.resumed_at_interval = Some(core.intervals_processed());
                if let Some(t) = &telemetry {
                    t.checkpoint_resumed.inc();
                }
                if let Some(obs) = &collector_cfg.observer {
                    obs.resumed(core.intervals_processed(), path);
                }
                core
            }
            None => DetectionCore::new(cfg)?,
        };
        let aligner = IntervalAligner::new(
            AlignPolicy {
                expected: collector_cfg.expected_routers,
                straggler_deadline: collector_cfg.straggler_deadline,
                reorder_window: collector_cfg.reorder_window,
            },
            core.intervals_processed(),
        );
        Ok(Aligner {
            fingerprint: cfg.fingerprint(),
            core,
            cfg: collector_cfg,
            aligner,
            report,
            telemetry,
            live_connections: 0,
            ever_connected: 0,
            last_disconnect: None,
        })
    }

    fn run(&mut self, rx: Receiver<Event>, shutdown: Arc<AtomicBool>) -> CollectionReport {
        // The tick bounds two latencies while the channel is quiet:
        // noticing a straggler deadline and noticing natural finish
        // (everyone disconnected + linger). Cap it so a long straggler
        // deadline cannot leave a finished run parked for minutes.
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
        // Drain whatever the engine already decoded, then flush every
        // pending interval — partial or not, detection never hangs.
        while let Ok(event) = rx.try_recv() {
            self.handle(event);
        }
        self.flush_ready(true);
        self.report.log = self.core.log().clone();
        // One final checkpoint so a clean shutdown is always resumable
        // from its very last interval.
        self.maybe_checkpoint(true);
        std::mem::take(&mut self.report)
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
        match checkpoint::write_core_checkpoint(&policy.path, &self.core.checkpoint()) {
            Ok(()) => {
                self.report.checkpoints_written += 1;
                if let Some(t) = &self.telemetry {
                    t.checkpoint_written.inc();
                    t.checkpoint_last_interval
                        .set(i64::try_from(next_interval).unwrap_or(i64::MAX));
                }
                if let Some(obs) = &self.cfg.observer {
                    obs.checkpoint_written(next_interval, &policy.path);
                }
            }
            Err(e) => {
                eprintln!("[hifind-collect] checkpoint write failed: {e}");
                self.report.checkpoint_errors += 1;
                if let Some(t) = &self.telemetry {
                    t.checkpoint_write_errors.inc();
                }
            }
        }
    }

    /// Natural end of a run: the full fleet connected at some point, all
    /// of it left, and nobody reconnected for a linger window.
    fn finished(&self) -> bool {
        self.live_connections == 0
            && self.ever_connected >= self.cfg.expected_routers
            && self
                .last_disconnect
                .is_some_and(|t| t.elapsed() >= self.cfg.linger)
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Connected => {
                self.live_connections += 1;
                self.ever_connected += 1;
                if let Some(t) = &self.telemetry {
                    t.routers_connected.set(self.live_connections as i64);
                }
            }
            Event::Disconnected => {
                self.live_connections = self.live_connections.saturating_sub(1);
                if self.live_connections == 0 {
                    self.last_disconnect = Some(Instant::now());
                }
                if let Some(t) = &self.telemetry {
                    t.routers_connected.set(self.live_connections as i64);
                }
            }
            Event::Rejected(err) => {
                eprintln!("[hifind-collect] rejected frame: {err}");
                self.report.frames_rejected += 1;
                if let Some(t) = &self.telemetry {
                    t.frames_rejected.inc();
                }
                if let Some(obs) = &self.cfg.observer {
                    obs.frame_rejected(&err);
                }
            }
            Event::Frame {
                router_id,
                interval,
                snapshot,
                frame_bytes,
                delta,
            } => self.handle_frame(router_id, interval, *snapshot, frame_bytes, delta),
        }
    }

    fn handle_frame(
        &mut self,
        router_id: u32,
        interval: u64,
        snapshot: IntervalSnapshot,
        frame_bytes: u64,
        delta: bool,
    ) {
        if snapshot.fingerprint != self.fingerprint {
            // A router recording under different seeds or shapes: its
            // counters are meaningless here, reject them all.
            self.report.frames_rejected += 1;
            if let Some(t) = &self.telemetry {
                t.frames_rejected.inc();
            }
            if let Some(obs) = &self.cfg.observer {
                obs.frame_rejected(&WireError::FingerprintMismatch {
                    header: self.fingerprint,
                    payload: snapshot.fingerprint,
                });
            }
            return;
        }
        let combine_start = Instant::now();
        match self.aligner.offer(router_id, interval, snapshot) {
            OfferOutcome::Accepted => {
                self.report.frames_received += 1;
                self.report.bytes_received += frame_bytes;
                if delta {
                    self.report.frames_v2_deltas += 1;
                } else {
                    self.report.frames_v2_keyframes += 1;
                }
                if !self.report.routers_seen.contains(&router_id) {
                    self.report.routers_seen.push(router_id);
                }
                if let Some(t) = &self.telemetry {
                    t.frames_received.inc();
                    t.bytes_received.add(frame_bytes);
                    if delta {
                        t.frames_v2_deltas.inc();
                    } else {
                        t.frames_v2_keyframes.inc();
                    }
                    t.combine_seconds.observe_duration(combine_start.elapsed());
                }
            }
            OfferOutcome::Late | OfferOutcome::Duplicate => self.late_frame(),
            OfferOutcome::CombineFailed => {
                // Unreachable given the fingerprint gate, but a typed
                // rejection beats a poisoned aggregate.
                self.report.frames_rejected += 1;
                if let Some(t) = &self.telemetry {
                    t.frames_rejected.inc();
                }
            }
        }
    }

    fn late_frame(&mut self) {
        self.report.frames_late += 1;
        if let Some(t) = &self.telemetry {
            t.frames_late.inc();
        }
    }

    /// Flushes every interval the aligner deems ready; with `drain`
    /// flushes everything pending.
    fn flush_ready(&mut self, drain: bool) {
        while let Some(flush) = self.aligner.pop_ready(drain) {
            self.report.intervals_flushed += 1;
            match &flush.kind {
                FlushKind::Complete => self.report.complete_intervals += 1,
                FlushKind::Partial { missing } => {
                    self.report.partial_intervals += 1;
                    self.report.straggler_slots += missing;
                    if let Some(t) = &self.telemetry {
                        t.straggler_slots.add(*missing);
                    }
                }
                FlushKind::Gap => {
                    self.report.gap_intervals += 1;
                    self.report.straggler_slots += self.cfg.expected_routers as u64;
                    if let Some(t) = &self.telemetry {
                        t.straggler_slots.add(self.cfg.expected_routers as u64);
                    }
                }
            }
            self.process_flush(&flush);
            self.maybe_checkpoint(false);
        }
    }

    fn process_flush(&mut self, flush: &Flush) {
        match &flush.payload {
            Some((combined, contributors)) => {
                let outcome = self.core.process_snapshot(combined);
                if let Some(obs) = &self.cfg.observer {
                    obs.interval_closed(
                        flush.interval,
                        combined,
                        &outcome,
                        *contributors,
                        self.cfg.expected_routers,
                    );
                }
            }
            None => {
                // No observation exists for this interval. Advancing the
                // interval counter without stepping the forecasters keeps
                // the EWMA baseline frozen at its pre-outage value —
                // synthesizing an all-zero snapshot here would drag the
                // forecast toward zero and spike the error on the first
                // real interval after the outage (spurious alerts on
                // resume).
                let outcome = self.core.process_gap();
                if let Some(obs) = &self.cfg.observer {
                    obs.gap_synthesized(flush.interval, &outcome);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentConfig, RouterAgent};
    use hifind_flow::Packet;
    use std::net::TcpStream;

    fn local_collector(
        cfg: HiFindConfig,
        ccfg: CollectorConfig,
        registry: Option<Registry>,
    ) -> CollectorHandle {
        Collector::bind("127.0.0.1:0", cfg, ccfg, registry).expect("bind loopback")
    }

    #[test]
    fn single_agent_round_trip() {
        let cfg = HiFindConfig::small(11);
        let handle = local_collector(cfg, CollectorConfig::new(1), None);
        let addr = handle.local_addr().to_string();
        let mut agent = RouterAgent::new(addr, &cfg, AgentConfig::new(1)).unwrap();
        for iv in 0..3u64 {
            for i in 0..50u32 {
                agent.record(&Packet::syn(
                    iv,
                    [10, 0, 0, i as u8].into(),
                    2000,
                    [129, 105, 0, 1].into(),
                    80,
                ));
            }
            agent.end_interval();
        }
        agent.finish();
        let report = handle.wait().expect("collector threads");
        assert_eq!(report.frames_received, 3);
        assert_eq!(report.intervals_flushed, 3);
        assert_eq!(report.complete_intervals, 3);
        assert_eq!(report.partial_intervals, 0);
        assert_eq!(report.routers_seen, vec![1]);
        assert!(report.bytes_received > 0);
    }

    #[test]
    fn mis_seeded_router_is_rejected_not_combined() {
        let cfg = HiFindConfig::small(12);
        let rogue_cfg = HiFindConfig::small(13);
        let handle = local_collector(cfg, CollectorConfig::new(1), None);
        let addr = handle.local_addr().to_string();
        let mut rogue = RouterAgent::new(addr, &rogue_cfg, AgentConfig::new(9)).unwrap();
        rogue.end_interval();
        rogue.finish();
        let report = handle.wait().expect("collector threads");
        assert_eq!(report.frames_received, 0);
        assert_eq!(report.frames_rejected, 1);
        assert!(report.routers_seen.is_empty());
    }

    #[test]
    fn stop_flushes_pending_intervals() {
        let cfg = HiFindConfig::small(14);
        let mut ccfg = CollectorConfig::new(2);
        ccfg.straggler_deadline = Duration::from_secs(60); // never expires
        let handle = local_collector(cfg, ccfg, None);
        let addr = handle.local_addr().to_string();
        // Only one of the two expected routers ever reports.
        let mut agent = RouterAgent::new(addr, &cfg, AgentConfig::new(1)).unwrap();
        agent.end_interval();
        agent.finish();
        std::thread::sleep(Duration::from_millis(150));
        let report = handle.stop().expect("collector threads");
        assert_eq!(report.intervals_flushed, 1);
        assert_eq!(report.partial_intervals, 1);
        assert_eq!(report.straggler_slots, 1);
    }

    #[test]
    fn stop_is_prompt_even_with_an_idle_connection_open() {
        let cfg = HiFindConfig::small(15);
        let mut ccfg = CollectorConfig::new(2);
        // Long deadlines everywhere: only the wakeup pipe can explain a
        // fast stop.
        ccfg.straggler_deadline = Duration::from_secs(60);
        ccfg.linger = Duration::from_secs(60);
        let handle = local_collector(cfg, ccfg, None);
        let idle = TcpStream::connect(handle.local_addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        let report = handle.stop().expect("collector threads");
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "stop took {:?}; the engine wakeup is not prompt",
            start.elapsed()
        );
        assert_eq!(report.intervals_flushed, 0);
        drop(idle);
    }
}
