//! The collection-tree system under test (`collect_tree`): two
//! `RouterAgent`s → one `Aggregator` (quorum 2) → one `Collector`, over
//! loopback with codec v2 negotiated, driven closed-loop from one thread.

use crate::spans::Tracer;
use hifind::{HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_collect::codec_v2::{ChainStore, SnapshotEncoder};
use hifind_collect::{
    AgentConfig, AgentStats, Aggregator, AggregatorConfig, AggregatorHandle, AggregatorReport,
    CollectObserver, CollectionReport, Collector, CollectorConfig, CollectorHandle, RouterAgent,
};
use hifind_flow::{Packet, Trace};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Agents in the tree (one replay thread feeds both).
pub const AGENTS: usize = 2;

/// How long the replay thread waits for one interval's outcome before it counts
/// the interval as failed and abandons the replay.
const OUTCOME_TIMEOUT: Duration = Duration::from_secs(60);

/// A collection-plane transition, stamped where the callback ran. Failed
/// frames and partial or gap intervals are read from the nodes' reports.
enum Event {
    Forwarded {
        interval: u64,
        at: Instant,
    },
    Closed {
        interval: u64,
        at: Instant,
        snapshot: Option<Box<IntervalSnapshot>>,
    },
}

/// Forwards the two timing callbacks to the replay thread.
struct Observer {
    tx: Sender<Event>,
    keep_snapshots: bool,
}

impl Observer {
    fn send(&self, event: Event) {
        // The replay thread outlives every tree it builds; a closed channel only
        // means the replay was abandoned, and the event is moot.
        let _ = self.tx.send(event);
    }
}

impl CollectObserver for Observer {
    fn interval_closed(
        &self,
        interval: u64,
        snapshot: &IntervalSnapshot,
        _outcome: &hifind::IntervalOutcome,
        _contributors: usize,
        _expected: usize,
    ) {
        let at = Instant::now();
        let snapshot = self.keep_snapshots.then(|| Box::new(snapshot.clone()));
        self.send(Event::Closed {
            interval,
            at,
            snapshot,
        });
    }

    fn snapshot_forwarded(
        &self,
        _node_id: u32,
        interval: u64,
        _snapshot: &IntervalSnapshot,
        _contributors: usize,
        _expected: usize,
    ) {
        self.send(Event::Forwarded {
            interval,
            at: Instant::now(),
        });
    }
}

/// A built tree: collector, aggregator, and the agents dialing it.
pub struct Tree {
    collector: CollectorHandle,
    aggregator: AggregatorHandle,
    agents: Vec<RouterAgent>,
    events: Receiver<Event>,
}

/// Builds the tree on loopback ports, timing the whole set-up. No
/// connection exists yet: each agent connects and negotiates its codec on
/// its first `end_interval`.
pub fn build(cfg: HiFindConfig, keep_snapshots: bool) -> (Tree, f64) {
    let (tx, events) = channel();
    let observer: Arc<dyn CollectObserver> = Arc::new(Observer { tx, keep_snapshots });
    let t0 = Instant::now();
    let mut collector_cfg = CollectorConfig::new(1);
    collector_cfg.straggler_deadline = OUTCOME_TIMEOUT;
    collector_cfg.reorder_window = 64;
    collector_cfg.observer = Some(Arc::clone(&observer));
    let collector = Collector::bind("127.0.0.1:0", cfg, collector_cfg, None)
        .expect("bind the collector on loopback");
    let mut agg_cfg = AggregatorConfig::new(100, AGENTS);
    agg_cfg.straggler_deadline = OUTCOME_TIMEOUT;
    agg_cfg.reorder_window = 64;
    agg_cfg.observer = Some(observer);
    let aggregator = Aggregator::bind(
        "127.0.0.1:0",
        collector.local_addr().to_string(),
        cfg,
        agg_cfg,
        None,
    )
    .expect("bind the aggregator on loopback");
    let agg_addr = aggregator.local_addr().to_string();
    let agents = (0..AGENTS as u32)
        .map(|id| {
            RouterAgent::new(agg_addr.clone(), &cfg, AgentConfig::new(id))
                .expect("the paper configuration is valid")
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    (
        Tree {
            collector,
            aggregator,
            agents,
            events,
        },
        setup_s,
    )
}

impl Tree {
    /// Stops every node and returns their reports.
    fn shut_down(self) -> (Vec<AgentStats>, AggregatorReport, CollectionReport) {
        let stats = self.agents.into_iter().map(RouterAgent::finish).collect();
        let agg = self
            .aggregator
            .stop()
            .expect("aggregator threads exit cleanly");
        let col = self
            .collector
            .stop()
            .expect("collector threads exit cleanly");
        (stats, agg, col)
    }
}

/// Builds a tree and tears it down unused (an extra set-up sample).
pub fn setup_only(cfg: HiFindConfig) -> f64 {
    let (tree, setup_s) = build(cfg, false);
    drop(tree.shut_down());
    setup_s
}

/// The packets of `part` inside `[lo, hi)` (parts are time ordered).
fn window(part: &[Packet], lo: u64, hi: u64) -> &[Packet] {
    let a = part.partition_point(|p| p.ts_ms < lo);
    let b = part.partition_point(|p| p.ts_ms < hi);
    &part[a..b]
}

fn maybe_span<R>(
    tracer: &mut Option<&mut Tracer>,
    layer: &'static str,
    interval: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(layer, interval, f),
        None => f(),
    }
}

/// One replay of the split trace through a fresh tree.
pub struct TreeReplay {
    /// First record call to the collector's last `interval_closed`.
    pub wall_s: f64,
    /// First record call to the end of the replay loop (the traced wall).
    pub loop_s: f64,
    pub intervals: u64,
    pub close_to_alert_ms: Vec<f64>,
    /// Later agent close → aggregator forward, per interval.
    pub aggregator_wait_ms: Vec<f64>,
    /// Aggregator forward → collector close, per interval.
    pub collector_wait_ms: Vec<f64>,
    /// Wall time of each agent's first `end_interval` (connect + codec
    /// hello + first frame), summed over agents.
    pub connect_ms: f64,
    /// Intervals whose outcome never arrived.
    pub timeouts: u64,
    pub agents: Vec<AgentStats>,
    pub aggregator: AggregatorReport,
    pub collector: CollectionReport,
}

impl TreeReplay {
    /// Failed operations: diverging intervals are counted by the caller.
    pub fn failures(&self) -> u64 {
        let (agg, col) = (&self.aggregator, &self.collector);
        let send: u64 = self
            .agents
            .iter()
            .chain([&agg.ship])
            .map(|s| {
                s.send_failures
                    + s.frames_dropped
                    + s.frames_enqueued.saturating_sub(s.frames_shipped)
            })
            .sum();
        self.timeouts
            + send
            + agg.frames_late
            + agg.frames_rejected
            + agg.partial_intervals
            + agg.gap_intervals
            + col.frames_late
            + col.frames_rejected
            + col.partial_intervals
            + col.gap_intervals
    }

    /// Attempted operations: agent frames, forwarded frames, intervals.
    pub fn attempted(&self) -> u64 {
        let frames: u64 = self.agents.iter().map(|s| s.frames_enqueued).sum();
        frames + self.aggregator.ship.frames_enqueued + self.intervals
    }

    /// Framed bytes the agents shipped, per agent-interval.
    pub fn wire_bytes_per_interval(&self) -> f64 {
        let bytes: u64 = self.agents.iter().map(|s| s.bytes_shipped).sum();
        bytes as f64 / (self.agents.len() as u64 * self.intervals).max(1) as f64
    }
}

/// Replays `parts` (one per agent) over the trace's interval `windows`:
/// every agent records its share of interval *i* and ends it, and the
/// replay thread waits for the collector's outcome of *i* before sending *i + 1*.
/// With a tracer, the replay thread's calls are spanned; with `on_delivered`,
/// each snapshot the collector delivered to detection is handed to it on
/// the replay thread, while the tree waits for the next interval.
pub fn replay(
    cfg: HiFindConfig,
    windows: &[(u64, u64)],
    parts: &[Trace],
    mut tracer: Option<&mut Tracer>,
    mut on_delivered: Option<&mut dyn FnMut(&IntervalSnapshot)>,
) -> TreeReplay {
    let (mut tree, _) = build(cfg, on_delivered.is_some());
    let mut forwarded_at: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut out = TreeReplay {
        wall_s: 0.0,
        loop_s: 0.0,
        intervals: windows.len() as u64,
        close_to_alert_ms: Vec::new(),
        aggregator_wait_ms: Vec::new(),
        collector_wait_ms: Vec::new(),
        connect_ms: 0.0,
        timeouts: 0,
        agents: Vec::new(),
        aggregator: AggregatorReport::default(),
        collector: CollectionReport::default(),
    };
    let start = Instant::now();
    let mut last_outcome = start;
    for (i, &(lo, hi)) in (0u64..).zip(windows) {
        for (agent, part) in tree.agents.iter_mut().zip(parts) {
            let packets = window(part.as_slice(), lo, hi);
            maybe_span(&mut tracer, "agent.record", i, || {
                for p in packets {
                    agent.record(p);
                }
            });
        }
        let mut close = Instant::now();
        for agent in &mut tree.agents {
            close = Instant::now();
            let t0 = close;
            maybe_span(&mut tracer, "agent.end_interval", i, || {
                agent.end_interval()
            });
            if i == 0 {
                out.connect_ms += t0.elapsed().as_secs_f64() * 1e3;
            }
        }
        let deadline = close + OUTCOME_TIMEOUT;
        let closed = maybe_span(&mut tracer, "alert_wait", i, || loop {
            let now = Instant::now();
            let left = deadline.checked_duration_since(now)?;
            match tree.events.recv_timeout(left) {
                Ok(Event::Closed {
                    interval,
                    at,
                    snapshot,
                }) => {
                    if let (Some(f), Some(s)) = (on_delivered.as_mut(), snapshot) {
                        f(&s);
                    }
                    if interval == i {
                        return Some(at);
                    }
                }
                Ok(Event::Forwarded { interval, at }) => {
                    forwarded_at.insert(interval, at);
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return None,
            }
        });
        let Some(closed_at) = closed else {
            out.timeouts += out.intervals - i;
            break;
        };
        last_outcome = closed_at;
        out.close_to_alert_ms
            .push(closed_at.saturating_duration_since(close).as_secs_f64() * 1e3);
        if let Some(&fwd) = forwarded_at.get(&i) {
            out.aggregator_wait_ms
                .push(fwd.saturating_duration_since(close).as_secs_f64() * 1e3);
            out.collector_wait_ms
                .push(closed_at.saturating_duration_since(fwd).as_secs_f64() * 1e3);
        }
    }
    out.loop_s = start.elapsed().as_secs_f64();
    out.wall_s = last_outcome.duration_since(start).as_secs_f64();
    let (agents, aggregator, collector) = tree.shut_down();
    out.agents = agents;
    out.aggregator = aggregator;
    out.collector = collector;
    out
}

/// Codec v2 work for the agents' snapshots, re-encoded outside the run.
#[derive(Clone, Debug, Default)]
pub struct CodecProbe {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub raw_bytes: u64,
    pub encoded_bytes: u64,
    pub keyframes: u64,
    pub deltas: u64,
    /// Decoded snapshots that differ from the encoded one.
    pub mismatches: u64,
}

/// Records each agent's share per interval, then encodes the snapshots
/// with `SnapshotEncoder` (each interval acked before the next, as the
/// closed loop allows) and decodes them through a `ChainStore`, adding
/// the work to `probe`.
pub fn codec_probe(
    cfg: HiFindConfig,
    windows: &[(u64, u64)],
    parts: &[Trace],
    probe: &mut CodecProbe,
) {
    let mut store = ChainStore::new();
    for (router, part) in (0u32..).zip(parts) {
        let mut recorder = SketchRecorder::new(&cfg).expect("the paper configuration is valid");
        let mut encoder = SnapshotEncoder::default();
        for (i, &(lo, hi)) in (0u64..).zip(windows) {
            recorder.record_all(window(part.as_slice(), lo, hi));
            let snapshot = recorder.take_snapshot();
            let t0 = Instant::now();
            let encoded = encoder.encode(i, &snapshot, i.checked_sub(1));
            probe.encode_ns += t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let decoded = store.decode(router, i, &encoded.payload);
            probe.decode_ns += t0.elapsed().as_nanos() as u64;
            probe.raw_bytes += snapshot.wire_size_bytes() as u64;
            probe.encoded_bytes += encoded.payload.len() as u64;
            if encoded.is_delta {
                probe.deltas += 1;
            } else {
                probe.keyframes += 1;
            }
            if decoded.map_or(true, |d| d.snapshot != snapshot) {
                probe.mismatches += 1;
            }
        }
    }
}
