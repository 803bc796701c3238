//! End-to-end networked collection over real loopback TCP.
//!
//! The paper's §5.3.2 claim, operationalised: three router agents, each
//! seeing a per-packet split of the same NU-like trace, ship their sketch
//! snapshots over TCP to one collector — and the aggregate detection is
//! alert-for-alert identical to a single router that saw everything. A
//! second test kills one agent mid-run and checks the collector degrades
//! to quorum detection instead of stalling. The rest cover the codec v2
//! session: acks promote it to deltas, and a frame of the retired
//! version-1 format is rejected without disturbing a v2 router.

use hifind::report::Phase;
use hifind::{HiFind, HiFindConfig, SketchRecorder};
use hifind_collect::{
    AgentConfig, CollectObserver, Collector, CollectorConfig, RouterAgent, WireError,
};
use hifind_flow::{Ip4, Packet, Trace};
use hifind_telemetry::registry::MetricValue;
use hifind_telemetry::Registry;
use hifind_trafficgen::{presets, split_per_packet};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Buckets `part`'s packets into the merged trace's interval grid, so
/// every router ends exactly `n` intervals in lockstep — window `i`
/// always means the same wall-clock slice on every router.
fn global_windows(part: &Trace, interval_ms: u64, base: u64, n: usize) -> Vec<Vec<Packet>> {
    let mut windows = vec![Vec::new(); n];
    for p in part.iter() {
        let idx = (p.ts_ms / interval_ms - base) as usize;
        windows[idx].push(*p);
    }
    windows
}

type AlertIdentity = (
    hifind::report::AlertKind,
    Option<u32>,
    Option<u32>,
    Option<u16>,
);

fn alert_identities(log: &hifind::report::AlertLog, phase: Phase) -> Vec<AlertIdentity> {
    let mut ids: Vec<_> = log.alerts(phase).iter().map(|a| a.identity()).collect();
    ids.sort();
    ids
}

fn counter(registry: &Registry, name: &str) -> u64 {
    match registry
        .snapshot()
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
    {
        MetricValue::Counter { value } => value,
        ref other => panic!("{name}: expected counter, got {other:?}"),
    }
}

#[test]
fn three_agents_over_tcp_equal_single_router() {
    let seed = 2026;
    // CI-sized sketches (identical semantics to paper-scale), and a
    // sensitive threshold so the scaled-down trace still raises alerts —
    // identical detection with zero alerts on both sides would be a
    // vacuous pass. Paper-length intervals keep the interval count (and
    // so the number of inference runs) small.
    let mut cfg = HiFindConfig::small(seed);
    cfg.interval_ms = 60_000;
    cfg.threshold_per_sec = 0.25;
    let (trace, _) = presets::nu_like(seed).scaled(0.05).generate();
    assert!(!trace.is_empty());

    // Reference: one router saw all traffic.
    let mut single = HiFind::new(cfg).expect("paper config");
    let single_log = single.run_trace(&trace);

    // Networked: the same packets split per packet across three agents.
    let base = trace.iter().next().unwrap().ts_ms / cfg.interval_ms;
    let last = trace.iter().last().unwrap().ts_ms / cfg.interval_ms;
    let n = (last - base + 1) as usize;
    let registry = Registry::new();
    // This test is about alignment identity, not deadline policy: a huge
    // straggler deadline means a slow CI box can never force a partial
    // flush and turn the assertions flaky.
    let mut ccfg = CollectorConfig::new(3);
    ccfg.straggler_deadline = Duration::from_secs(60);
    let handle =
        Collector::bind("127.0.0.1:0", cfg, ccfg, Some(registry.clone())).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    // Real routers tick intervals off the same wall clock; the barrier
    // models that, keeping inter-agent skew under the reorder window.
    let tick = std::sync::Arc::new(std::sync::Barrier::new(3));
    let agents: Vec<_> = split_per_packet(&trace, 3, seed ^ 0x60D)
        .iter()
        .enumerate()
        .map(|(id, part)| {
            let windows = global_windows(part, cfg.interval_ms, base, n);
            let addr = addr.clone();
            let tick = std::sync::Arc::clone(&tick);
            std::thread::spawn(move || {
                let mut agent =
                    RouterAgent::new(addr, &cfg, AgentConfig::new(id as u32)).expect("config");
                for window in &windows {
                    tick.wait();
                    for p in window {
                        agent.record(p);
                    }
                    agent.end_interval();
                }
                agent.finish()
            })
        })
        .collect();
    for agent in agents {
        let stats = agent.join().expect("agent thread");
        assert_eq!(stats.frames_shipped, n as u64, "every interval shipped");
        assert_eq!(stats.frames_dropped, 0);
    }
    let report = handle.wait().expect("collector threads");

    // Every interval aligned and complete; nothing late, lost or partial.
    assert_eq!(report.intervals_flushed, n as u64, "{report:?}");
    assert_eq!(report.complete_intervals, n as u64, "{report:?}");
    assert_eq!(report.partial_intervals, 0);
    assert_eq!(report.gap_intervals, 0);
    assert_eq!(report.frames_received, 3 * n as u64);
    assert_eq!(report.frames_late, 0);
    assert_eq!(report.frames_rejected, 0);
    assert_eq!(report.straggler_slots, 0);
    let mut routers = report.routers_seen.clone();
    routers.sort_unstable();
    assert_eq!(routers, vec![0, 1, 2]);

    // The §5.3.2 equivalence, now across real sockets: identical alerts
    // at every phase of the pipeline.
    for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
        assert_eq!(
            alert_identities(&single_log, phase),
            alert_identities(&report.log, phase),
            "phase {phase:?} diverged between single-router and networked runs"
        );
    }
    assert!(
        !alert_identities(&single_log, Phase::Raw).is_empty(),
        "trace must actually trigger detection for the equivalence to mean anything"
    );

    // Telemetry saw the run too.
    assert_eq!(
        counter(&registry, "hifind_collect_frames_received_total"),
        3 * n as u64
    );
    assert!(counter(&registry, "hifind_collect_bytes_received_total") > 0);
    assert_eq!(
        counter(&registry, "hifind_collect_frames_rejected_total"),
        0
    );
}

/// A compact five-interval trace: two benign intervals establish the
/// forecast baseline, then a SYN flood loud enough that two of three
/// routers still carry it far over the threshold.
fn flood_trace(cfg: &HiFindConfig) -> Trace {
    let mut t = Trace::new();
    let victim: Ip4 = [129, 105, 0, 1].into();
    for iv in 0..5u64 {
        let b = iv * cfg.interval_ms;
        for i in 0..30u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            t.push(Packet::syn(b + u64::from(i) * 7, c, 4000, victim, 80));
            t.push(Packet::syn_ack(
                b + u64::from(i) * 7 + 1,
                c,
                4000,
                victim,
                80,
            ));
        }
        if iv >= 2 {
            for i in 0..400u32 {
                t.push(Packet::syn(
                    b + 300 + u64::from(i),
                    Ip4::new(0x5100_0000 + i),
                    2000,
                    victim,
                    80,
                ));
            }
        }
    }
    t.sort_by_time();
    t
}

#[test]
fn dead_agent_degrades_to_quorum_instead_of_stalling() {
    let seed = 77;
    let cfg = HiFindConfig::small(seed);
    let trace = flood_trace(&cfg);
    let mut ccfg = CollectorConfig::new(3);
    ccfg.straggler_deadline = Duration::from_millis(300);
    ccfg.linger = Duration::from_millis(200);
    let registry = Registry::new();
    let handle =
        Collector::bind("127.0.0.1:0", cfg, ccfg, Some(registry.clone())).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    let parts = split_per_packet(&trace, 3, seed);
    let windows: Vec<_> = parts
        .iter()
        .map(|p| global_windows(p, cfg.interval_ms, 0, 5))
        .collect();
    let threads: Vec<_> = windows
        .into_iter()
        .enumerate()
        .map(|(id, windows)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut agent =
                    RouterAgent::new(addr, &cfg, AgentConfig::new(id as u32)).expect("config");
                for (iv, window) in windows.iter().enumerate() {
                    // Router 2 dies after shipping two intervals: its
                    // socket drops and it never reports again.
                    if id == 2 && iv >= 2 {
                        return agent.finish();
                    }
                    for p in window {
                        agent.record(p);
                    }
                    agent.end_interval();
                }
                agent.finish()
            })
        })
        .collect();
    for t in threads {
        t.join().expect("agent thread");
    }

    // This join is itself the liveness assertion: a collector that waited
    // forever for router 2 would hang the test (CI enforces a timeout).
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.intervals_flushed, 5, "all intervals still detected");
    assert_eq!(report.complete_intervals, 2);
    assert_eq!(
        report.partial_intervals, 3,
        "quorum detection after deadline"
    );
    assert_eq!(
        report.straggler_slots, 3,
        "one missing router × 3 intervals"
    );
    assert_eq!(report.frames_received, 2 * 5 + 2);
    // Telemetry exposes the degradation for operators.
    assert_eq!(
        counter(&registry, "hifind_collect_straggler_slots_total"),
        3
    );
    // And the pipeline kept emitting: the flood is loud enough that two
    // of three routers still carry it over the threshold.
    assert!(
        report
            .log
            .count(Phase::Final, hifind::report::AlertKind::SynFlooding)
            >= 1,
        "quorum view must still detect the flood: {:?}",
        report.log
    );
}

/// A v2 session on loopback actually reaches the delta steady state:
/// frames flow, acks flow back, and the encoder starts emitting deltas.
#[test]
fn v2_session_reaches_delta_steady_state() {
    let cfg = HiFindConfig::small(62);
    let mut ccfg = CollectorConfig::new(1);
    ccfg.straggler_deadline = Duration::from_secs(30);
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut agent = RouterAgent::new(addr, &cfg, AgentConfig::new(0)).expect("config");
    let victim: Ip4 = [129, 105, 0, 1].into();
    // A warm first interval populates the cumulative service Bloom — the
    // state whose unchanged bulk is exactly what deltas elide.
    for i in 0..200u32 {
        let server = Ip4::new(0x8169_0000 + i);
        let c: Ip4 = [9, 9, (i % 50) as u8, 1].into();
        agent.record(&Packet::syn(0, c, 4000, server, 80));
        agent.record(&Packet::syn_ack(1, c, 4000, server, 80));
    }
    agent.end_interval();
    let mut deltas_seen = false;
    for iv in 1..30u64 {
        for i in 0..20u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            agent.record(&Packet::syn(iv * cfg.interval_ms, c, 4000, victim, 80));
        }
        agent.end_interval();
        if agent.stats().frames_v2_deltas > 0 {
            deltas_seen = true;
            break;
        }
        // Give the collector's ack a moment to cross the loopback.
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        deltas_seen,
        "acks never promoted the session to deltas: {:?}",
        agent.stats()
    );
    let stats = agent.finish();
    assert!(
        stats.frames_v2_keyframes >= 1,
        "the chain starts on a keyframe"
    );
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_rejected, 0);
    assert!(report.frames_v2_deltas >= 1, "{report:?}");
    assert_eq!(
        report.frames_v2_deltas + report.frames_v2_keyframes,
        report.frames_received
    );
}

/// Counts the frame rejections a collector reports, by kind.
#[derive(Default)]
struct RejectionCounter {
    version_1: AtomicU64,
    other: AtomicU64,
}

impl CollectObserver for RejectionCounter {
    fn frame_rejected(&self, error: &WireError) {
        let slot = match error {
            WireError::UnsupportedVersion(1) => &self.version_1,
            _ => &self.other,
        };
        slot.fetch_add(1, Ordering::SeqCst);
    }
}

/// A frame of the retired version-1 format (dense payload, reserved
/// zero bytes where the codec id now sits) is refused as an unsupported
/// version and counted, while a v2 router on the same collector still
/// gets every interval through complete.
#[test]
fn version_1_frame_is_rejected_while_a_v2_router_completes() {
    let cfg = HiFindConfig::small(65);
    let observer = Arc::new(RejectionCounter::default());
    let mut ccfg = CollectorConfig::new(1);
    ccfg.straggler_deadline = Duration::from_secs(30);
    ccfg.observer = Some(Arc::clone(&observer) as Arc<dyn CollectObserver>);
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("bind");
    let addr = handle.local_addr().to_string();

    let mut rec = SketchRecorder::new(&cfg).expect("config");
    rec.record(&Packet::syn(
        0,
        [9, 9, 9, 1].into(),
        4000,
        [129, 105, 0, 1].into(),
        80,
    ));
    let snap = rec.take_snapshot();
    let payload = hifind_collect::codec::encode_snapshot(&snap);
    let mut v1_frame = Vec::new();
    v1_frame.extend_from_slice(&hifind_collect::wire::MAGIC);
    v1_frame.extend_from_slice(&1u16.to_le_bytes());
    v1_frame.extend_from_slice(&0u16.to_le_bytes());
    v1_frame.extend_from_slice(&7u32.to_le_bytes());
    v1_frame.extend_from_slice(&0u64.to_le_bytes());
    v1_frame.extend_from_slice(&snap.fingerprint.to_le_bytes());
    v1_frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v1_frame.extend_from_slice(&hifind_collect::wire::crc32(&payload).to_le_bytes());
    v1_frame.extend_from_slice(&payload);

    let mut agent = RouterAgent::new(addr.clone(), &cfg, AgentConfig::new(0)).expect("config");
    let victim: Ip4 = [129, 105, 0, 1].into();
    for iv in 0..5u64 {
        for i in 0..20u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            agent.record(&Packet::syn(iv * cfg.interval_ms, c, 4000, victim, 80));
        }
        agent.end_interval();
        // Mid-run, while the v2 router's connection is open, a version-1
        // sender connects, ships one frame and leaves.
        if iv == 1 {
            let mut legacy = std::net::TcpStream::connect(&addr).expect("connect");
            // The collector drops the connection on the header alone, so
            // the tail of the write may meet a reset; that is not a failure.
            let _ = legacy.write_all(&v1_frame);
        }
    }
    let stats = agent.finish();
    assert_eq!(stats.frames_shipped, 5);
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_rejected, 1, "{report:?}");
    assert_eq!(observer.version_1.load(Ordering::SeqCst), 1);
    assert_eq!(observer.other.load(Ordering::SeqCst), 0);
    assert_eq!(report.frames_received, 5);
    assert_eq!(report.complete_intervals, 5);
    assert_eq!(report.routers_seen, vec![0]);
}
