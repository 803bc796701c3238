//! **§5.3.2** — aggregated detection over multiple routers under
//! per-packet load balancing (paper Figure 3).
//!
//! The trace is split per packet across three routers, so each connection's
//! SYN and SYN/ACK traverse different routers with probability 2/3. HiFIND
//! combines the routers' sketches (linearity) and detects on the aggregate
//! — identical results to the single-router run. TRW applied per router
//! with summed results degrades: successes and failures of the same source
//! are scattered, producing both false positives and false negatives.
//!
//! Run: `cargo run --release -p hifind-bench --bin multi_router`

use hifind::{HiFind, HiFindAggregator, HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_baselines::{Trw, TrwConfig};
use hifind_bench::harness::{scale, section, seed, write_json};
use hifind_collect::codec_v2::SnapshotEncoder;
use hifind_collect::{codec, wire, AgentConfig, Collector, CollectorConfig, RouterAgent};
use hifind_flow::{Ip4, Packet, Trace};
use hifind_trafficgen::{presets, split_per_packet};
use serde::Serialize;
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Snapshot shipping cost: raw in-memory counter size vs the varint-framed
/// bytes that actually cross the wire, per codec.
#[derive(Serialize)]
struct WireStats {
    snapshots: u64,
    raw_bytes_total: u64,
    framed_bytes_total: u64,
    raw_bytes_per_interval: u64,
    framed_bytes_per_interval: u64,
    compression_ratio: f64,
    v2: WireV2Stats,
}

/// Codec v2 (sparse grids + acked-baseline deltas) over the same
/// snapshots, with every prior interval assumed acked — the steady state
/// a healthy session converges to.
#[derive(Serialize)]
struct WireV2Stats {
    framed_bytes_total: u64,
    framed_bytes_per_interval: u64,
    keyframes: u64,
    deltas: u64,
    /// Median framed bytes of one router's interval, first interval
    /// (cold keyframe) excluded.
    steady_state_router_bytes_median: u64,
    /// Same median for v1 frames, for an apples-to-apples ratio.
    v1_steady_state_router_bytes_median: u64,
    /// v1 ÷ v2 steady-state medians: how much smaller a steady-state v2
    /// interval is than the v1 frame carrying identical information.
    v1_over_v2_steady_state: f64,
    /// The same comparison over benign background traffic only — the
    /// no-attack steady state a deployed agent spends most of its life in.
    no_attack: CodecCost,
    /// No-attack again but on a near-idle edge link (1 conn/s): the
    /// quiet-hours regime where sparse grids and bloom-eliding deltas
    /// pay off hardest.
    no_attack_idle: CodecCost,
}

/// v1-vs-v2 wire cost for one trace split per packet across 3 routers,
/// every prior interval assumed acked.
#[derive(Serialize)]
struct CodecCost {
    intervals: u64,
    keyframes: u64,
    deltas: u64,
    v1_router_bytes_median: u64,
    v2_router_bytes_median: u64,
    v1_over_v2: f64,
}

/// End-to-end loopback collection: 3 TCP agents → collector → detection.
#[derive(Serialize)]
struct LoopbackStats {
    elapsed_ms: u64,
    frames: u64,
    bytes: u64,
    frames_v2_keyframes: u64,
    frames_v2_deltas: u64,
    frames_per_sec: f64,
    mbytes_per_sec: f64,
    identical_to_single: bool,
}

#[derive(Serialize)]
struct MultiRouter {
    single_final: usize,
    aggregated_final: usize,
    identical: bool,
    trw_single: usize,
    trw_split_union: usize,
    trw_missed_vs_single: usize,
    trw_extra_vs_single: usize,
    wire: WireStats,
    loopback: LoopbackStats,
}

fn main() {
    let scenario = presets::nu_like(seed()).scaled(scale());
    eprintln!("[multi_router] generating NU-like...");
    let (trace, _) = scenario.generate();
    let cfg = HiFindConfig::paper(seed());
    let parts = split_per_packet(&trace, 3, seed() ^ 0x60D);

    // HiFIND single-router reference.
    let mut single = HiFind::new(cfg).expect("paper config");
    let single_log = single.run_trace(&trace);

    // HiFIND distributed: per-router recorders + central aggregation.
    let mut routers: Vec<SketchRecorder> = (0..3)
        .map(|_| SketchRecorder::new(&cfg).expect("paper config"))
        .collect();
    let mut site = HiFindAggregator::new(cfg).expect("paper config");
    let windows: Vec<Vec<_>> = parts
        .iter()
        .map(|t| t.intervals(cfg.interval_ms).collect())
        .collect();
    let intervals = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut raw_bytes_total = 0u64;
    let mut framed_bytes_total = 0u64;
    let mut snapshots = 0u64;
    // Codec v2 runs alongside v1 over the identical snapshots. Every
    // prior interval is assumed acked, which is the steady state a
    // healthy session converges to and the best case for deltas.
    let mut v2_encoders: Vec<SnapshotEncoder> = (0..routers.len())
        .map(|_| SnapshotEncoder::default())
        .collect();
    let mut v2_framed_bytes_total = 0u64;
    let mut v2_keyframes = 0u64;
    let mut v2_deltas = 0u64;
    let mut v1_steady_sizes: Vec<u64> = Vec::new();
    let mut v2_steady_sizes: Vec<u64> = Vec::new();
    for iv in 0..intervals {
        let mut snaps = Vec::new();
        for (router, wins) in routers.iter_mut().zip(&windows) {
            if let Some(w) = wins.get(iv) {
                for p in w.packets {
                    router.record(p);
                }
            }
            snaps.push(router.take_snapshot());
        }
        for (router_id, snap) in snaps.iter().enumerate() {
            raw_bytes_total += snap.wire_size_bytes() as u64;
            let v1_len = dense_frame_len(snap);
            framed_bytes_total += v1_len;
            let acked = (iv > 0).then(|| iv as u64 - 1);
            let enc = v2_encoders[router_id].encode(iv as u64, snap, acked);
            let v2_len =
                wire::encode_frame_v2(router_id as u32, iv as u64, snap.fingerprint, &enc.payload)
                    .expect("payload fits a frame")
                    .len() as u64;
            v2_framed_bytes_total += v2_len;
            if enc.is_delta {
                v2_deltas += 1;
            } else {
                v2_keyframes += 1;
            }
            if iv > 0 {
                v1_steady_sizes.push(v1_len);
                v2_steady_sizes.push(v2_len);
            }
            snapshots += 1;
        }
        site.process_interval(&snaps).expect("same configuration");
    }

    let s: BTreeSet<_> = single_log
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();
    let a: BTreeSet<_> = site
        .log()
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();

    // TRW: whole-trace reference vs per-router detection summed up.
    eprintln!("[multi_router] running TRW (single + per-router)...");
    let (trw_single, _) = Trw::detect(&trace, TrwConfig::default());
    let trw_single: BTreeSet<Ip4> = trw_single.into_iter().map(|al| al.source).collect();
    let mut trw_union: BTreeSet<Ip4> = BTreeSet::new();
    for part in &parts {
        let (alerts, _) = Trw::detect(part, TrwConfig::default());
        trw_union.extend(alerts.into_iter().map(|al| al.source));
    }

    section("§5.3.2: aggregated detection over 3 routers (per-packet load balancing)");
    println!("HiFIND single router:      {} final alerts", s.len());
    println!(
        "HiFIND aggregated sketches: {} final alerts → identical: {}",
        a.len(),
        s == a
    );
    println!();
    println!("TRW on the undivided trace: {} scanners", trw_single.len());
    println!(
        "TRW per-router, summed:     {} scanners ({} missed vs single, {} extra)",
        trw_union.len(),
        trw_single.difference(&trw_union).count(),
        trw_union.difference(&trw_single).count()
    );
    println!(
        "\npaper claim: HiFIND aggregate ≡ single router; TRW per-router has high\n\
         false positives/negatives because SYN and SYN/ACK of one connection are\n\
         seen by different routers (a SYN without its SYN/ACK looks like a failure)."
    );

    // No-attack steady state: same background profile, zero attack
    // events. This is the regime the ≥50× shipping-cost reduction is
    // claimed for — quiet grids stay sparse and deltas elide the bloom.
    eprintln!("[multi_router] measuring no-attack codec cost...");
    let mut quiet = presets::nu_like(seed()).scaled(scale());
    quiet.events.clear();
    quiet.name = "nu-like-background".into();
    let (quiet_trace, _) = quiet.generate();
    let no_attack = codec_cost(&cfg, &quiet_trace);
    let mut idle = presets::nu_like(seed()).scaled(scale());
    idle.events.clear();
    idle.background.connections_per_sec = 1.0;
    idle.name = "idle-background".into();
    let (idle_trace, _) = idle.generate();
    let no_attack_idle = codec_cost(&cfg, &idle_trace);

    let per_iv = intervals.max(1) as u64;
    let v1_median = median(&mut v1_steady_sizes);
    let v2_median = median(&mut v2_steady_sizes);
    let wire_stats = WireStats {
        snapshots,
        raw_bytes_total,
        framed_bytes_total,
        raw_bytes_per_interval: raw_bytes_total / per_iv,
        framed_bytes_per_interval: framed_bytes_total / per_iv,
        compression_ratio: raw_bytes_total as f64 / framed_bytes_total.max(1) as f64,
        v2: WireV2Stats {
            framed_bytes_total: v2_framed_bytes_total,
            framed_bytes_per_interval: v2_framed_bytes_total / per_iv,
            keyframes: v2_keyframes,
            deltas: v2_deltas,
            steady_state_router_bytes_median: v2_median,
            v1_steady_state_router_bytes_median: v1_median,
            v1_over_v2_steady_state: v1_median as f64 / v2_median.max(1) as f64,
            no_attack,
            no_attack_idle,
        },
    };
    section("wire cost: raw snapshot vs varint-framed bytes, per codec");
    println!(
        "{} snapshots over {} intervals: {} raw bytes → {} framed v1 ({}x smaller)",
        wire_stats.snapshots,
        intervals,
        wire_stats.raw_bytes_total,
        wire_stats.framed_bytes_total,
        wire_stats.compression_ratio.round()
    );
    println!(
        "per interval (all 3 routers): {} raw → {} framed v1 → {} framed v2",
        wire_stats.raw_bytes_per_interval,
        wire_stats.framed_bytes_per_interval,
        wire_stats.v2.framed_bytes_per_interval
    );
    println!(
        "codec v2 (acked steady state): {} keyframes + {} deltas, \
         per-router interval median {} bytes vs {} for v1 → {:.0}x smaller",
        wire_stats.v2.keyframes,
        wire_stats.v2.deltas,
        wire_stats.v2.steady_state_router_bytes_median,
        wire_stats.v2.v1_steady_state_router_bytes_median,
        wire_stats.v2.v1_over_v2_steady_state
    );
    println!(
        "codec v2, no-attack steady state: {} keyframes + {} deltas over {} intervals, \
         per-router interval median {} bytes vs {} for v1 → {:.0}x smaller",
        wire_stats.v2.no_attack.keyframes,
        wire_stats.v2.no_attack.deltas,
        wire_stats.v2.no_attack.intervals,
        wire_stats.v2.no_attack.v2_router_bytes_median,
        wire_stats.v2.no_attack.v1_router_bytes_median,
        wire_stats.v2.no_attack.v1_over_v2
    );
    println!(
        "codec v2, idle link (1 conn/s):   {} keyframes + {} deltas over {} intervals, \
         per-router interval median {} bytes vs {} for v1 → {:.0}x smaller",
        wire_stats.v2.no_attack_idle.keyframes,
        wire_stats.v2.no_attack_idle.deltas,
        wire_stats.v2.no_attack_idle.intervals,
        wire_stats.v2.no_attack_idle.v2_router_bytes_median,
        wire_stats.v2.no_attack_idle.v1_router_bytes_median,
        wire_stats.v2.no_attack_idle.v1_over_v2
    );

    eprintln!("[multi_router] running loopback TCP collection...");
    let loopback = run_loopback(cfg, &windows_owned(&windows), intervals, &s);
    section("end-to-end loopback collection (3 TCP agents → collector → detection)");
    println!(
        "{} frames ({} v2 keyframes, {} v2 deltas) / {} bytes in {} ms → \
         {:.1} frames/s, {:.1} MB/s, identical: {}",
        loopback.frames,
        loopback.frames_v2_keyframes,
        loopback.frames_v2_deltas,
        loopback.bytes,
        loopback.elapsed_ms,
        loopback.frames_per_sec,
        loopback.mbytes_per_sec,
        loopback.identical_to_single
    );

    write_json(
        "BENCH_multi_router",
        &MultiRouter {
            single_final: s.len(),
            aggregated_final: a.len(),
            identical: s == a,
            trw_single: trw_single.len(),
            trw_split_union: trw_union.len(),
            trw_missed_vs_single: trw_single.difference(&trw_union).count(),
            trw_extra_vs_single: trw_union.difference(&trw_single).count(),
            wire: wire_stats,
            loopback,
        },
    );
}

/// Bytes of `snap` as a frame of the retired dense (v1) format: the
/// frame header plus the dense [`codec`] payload. The v1 baseline of
/// every ratio this bench reports.
fn dense_frame_len(snap: &IntervalSnapshot) -> u64 {
    (wire::HEADER_LEN + codec::encode_snapshot(snap).len()) as u64
}

/// Measures both codecs over one trace split per packet across three
/// routers, with every prior interval assumed acked (healthy session).
/// The first interval — the unavoidable cold keyframe — is excluded
/// from the medians.
fn codec_cost(cfg: &HiFindConfig, trace: &Trace) -> CodecCost {
    let parts = split_per_packet(trace, 3, seed() ^ 0xC0DEC);
    let mut routers: Vec<SketchRecorder> = (0..3)
        .map(|_| SketchRecorder::new(cfg).expect("paper config"))
        .collect();
    let windows: Vec<Vec<_>> = parts
        .iter()
        .map(|t| t.intervals(cfg.interval_ms).collect())
        .collect();
    let intervals = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut encoders: Vec<SnapshotEncoder> = (0..routers.len())
        .map(|_| SnapshotEncoder::default())
        .collect();
    let (mut keyframes, mut deltas) = (0u64, 0u64);
    let mut v1_sizes: Vec<u64> = Vec::new();
    let mut v2_sizes: Vec<u64> = Vec::new();
    for iv in 0..intervals {
        for (router_id, (router, wins)) in routers.iter_mut().zip(&windows).enumerate() {
            if let Some(w) = wins.get(iv) {
                for p in w.packets {
                    router.record(p);
                }
            }
            let snap = router.take_snapshot();
            let v1_len = dense_frame_len(&snap);
            let acked = (iv > 0).then(|| iv as u64 - 1);
            let enc = encoders[router_id].encode(iv as u64, &snap, acked);
            let v2_len =
                wire::encode_frame_v2(router_id as u32, iv as u64, snap.fingerprint, &enc.payload)
                    .expect("payload fits a frame")
                    .len() as u64;
            if enc.is_delta {
                deltas += 1;
            } else {
                keyframes += 1;
            }
            if iv > 0 {
                v1_sizes.push(v1_len);
                v2_sizes.push(v2_len);
            }
        }
    }
    let v1_median = median(&mut v1_sizes);
    let v2_median = median(&mut v2_sizes);
    CodecCost {
        intervals: intervals as u64,
        keyframes,
        deltas,
        v1_router_bytes_median: v1_median,
        v2_router_bytes_median: v2_median,
        v1_over_v2: v1_median as f64 / v2_median.max(1) as f64,
    }
}

/// Median of the sample set (sorts in place); 0 for an empty set.
fn median(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

type AlertIdentity = (
    hifind::report::AlertKind,
    Option<u32>,
    Option<u32>,
    Option<u16>,
);

/// Copies the borrowed per-router interval windows into owned packet
/// vectors the agent threads can take with them.
fn windows_owned(windows: &[Vec<hifind_flow::IntervalIter<'_>>]) -> Vec<Vec<Vec<Packet>>> {
    windows
        .iter()
        .map(|wins| wins.iter().map(|w| w.packets.to_vec()).collect())
        .collect()
}

/// Replays the same per-router windows over real loopback TCP and times
/// the whole collection path: encode → ship → align → combine → detect.
fn run_loopback(
    cfg: HiFindConfig,
    windows: &[Vec<Vec<Packet>>],
    intervals: usize,
    single_identities: &BTreeSet<AlertIdentity>,
) -> LoopbackStats {
    let mut ccfg = CollectorConfig::new(windows.len());
    // The bench measures throughput, not degradation policy: no deadline
    // or window pressure should ever force a partial flush here.
    ccfg.straggler_deadline = Duration::from_secs(600);
    ccfg.reorder_window = intervals as u64 + 1;
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("bind loopback collector");
    let addr = handle.local_addr().to_string();
    let start = Instant::now();
    let tick = Arc::new(Barrier::new(windows.len()));
    let agents: Vec<_> = windows
        .iter()
        .cloned()
        .enumerate()
        .map(|(id, wins)| {
            let addr = addr.clone();
            let tick = Arc::clone(&tick);
            std::thread::spawn(move || {
                let mut agent =
                    RouterAgent::new(addr, &cfg, AgentConfig::new(id as u32)).expect("config");
                for iv in 0..intervals {
                    tick.wait();
                    if let Some(w) = wins.get(iv) {
                        for p in w {
                            agent.record(p);
                        }
                    }
                    agent.end_interval();
                }
                agent.finish()
            })
        })
        .collect();
    for agent in agents {
        agent.join().expect("agent thread");
    }
    let report = handle.wait().expect("collector threads");
    let elapsed = start.elapsed();
    let networked: BTreeSet<AlertIdentity> = report
        .log
        .final_alerts()
        .iter()
        .map(|al| al.identity())
        .collect();
    LoopbackStats {
        elapsed_ms: elapsed.as_millis() as u64,
        frames: report.frames_received,
        bytes: report.bytes_received,
        frames_v2_keyframes: report.frames_v2_keyframes,
        frames_v2_deltas: report.frames_v2_deltas,
        frames_per_sec: report.frames_received as f64 / elapsed.as_secs_f64(),
        mbytes_per_sec: report.bytes_received as f64 / elapsed.as_secs_f64() / 1e6,
        identical_to_single: &networked == single_identities,
    }
}
