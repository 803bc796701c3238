//! HiFIND end-to-end benchmark.
//!
//! ```text
//! hifind-perfbench --workload <nu_campus|dos_smokescreen|collect_tree>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--out-dir <dir>]
//! hifind-perfbench --self-check
//! ```
//!
//! Generates the workload's traces from `--seed` (timed apart, never part
//! of a metric) and their reference alerts with single-process
//! `HiFind::run_trace`, then replays the traces closed-loop through the
//! system under test for `--seconds`. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! replays and reports the per-layer breakdown. Every replay's alerts are
//! checked against the reference. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/README.md` defines the workloads and the metrics.

mod check;
mod host;
mod single;
mod spans;
mod stats;
mod tree;

use hifind::{AlertLog, DetectionCore, HiFindConfig};
use hifind_flow::Trace;
use hifind_trafficgen::{presets, split_per_packet, Scenario};
use spans::Tracer;
use stats::{max, median, obj, text, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Record-plane seed of the system under test (the CLI's default); the
/// workload seed only shapes the traffic.
const CONFIG_SEED: u64 = 7;

/// Seed of the preset's event list (who attacks whom, when, how hard).
/// The workload seed drives the packet generator, so every seed replays
/// the same attacks with different packets and background traffic.
const EVENT_SEED: u64 = 1;

/// Traces per run, each from its own seed derived from `--seed`. How much
/// work INFERENCE does depends on the background noise around the attack
/// onsets, so one round replays all of them and reports their sum.
const TRACES_PER_RUN: u64 = 4;

/// Extra builds of the system per run, so `setup_s` is a median of many.
const SETUP_SAMPLES: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Single,
    Tree,
}

struct Workload {
    name: &'static str,
    kind: Kind,
    preset: fn(u64) -> Scenario,
    /// `Scenario::scaled` factor of a measured run.
    scale: f64,
    /// Scale of the `--self-check` run.
    check_scale: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "nu_campus",
        kind: Kind::Single,
        preset: presets::nu_like,
        scale: 0.2,
        check_scale: 0.02,
    },
    Workload {
        name: "dos_smokescreen",
        kind: Kind::Single,
        preset: presets::dos_resilience,
        scale: 1.0,
        check_scale: 0.05,
    },
    Workload {
        name: "collect_tree",
        kind: Kind::Tree,
        preset: presets::dos_resilience,
        scale: 1.0,
        check_scale: 0.05,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: None,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid value for {flag}: {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One generated trace and its reference alerts. The system under test
/// only ever sees the packets.
struct Input {
    /// The trace; emptied for the tree once split, to halve its memory.
    trace: Trace,
    packets: usize,
    /// Per-agent shares for the tree (`split_per_packet`), else empty.
    parts: Vec<Trace>,
    /// `[start, end)` of every detection interval, in milliseconds.
    windows: Vec<(u64, u64)>,
    intervals: u64,
    reference: AlertLog,
}

/// SplitMix64 finaliser: the seed of trace `k` of a run seeded `seed`.
fn trace_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(TRACES_PER_RUN)
        .wrapping_add(k)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn prepare(w: &Workload, seed: u64, scale: f64, traces: u64, cfg: HiFindConfig) -> Vec<Input> {
    (0..traces)
        .map(|k| {
            let t0 = Instant::now();
            // The attacks come from the preset alone; the seed draws the
            // benign background they hide in.
            let preset = (w.preset)(EVENT_SEED).scaled(scale);
            let mut attacks = preset.clone();
            attacks.background.connections_per_sec = 0.0;
            let mut background = preset;
            background.events.clear();
            background.seed = trace_seed(seed, k);
            let (mut trace, _truth) = attacks.generate();
            trace.merge(&background.generate().0);
            let parts = match w.kind {
                Kind::Single => Vec::new(),
                Kind::Tree => split_per_packet(&trace, tree::AGENTS, background.seed),
            };
            let windows: Vec<(u64, u64)> = trace
                .intervals(cfg.interval_ms)
                .map(|w| (w.start_ms, w.end_ms))
                .collect();
            let intervals = windows.len() as u64;
            let generated_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let reference = check::reference(cfg, &trace);
            println!(
                "# trace {k}: {} packets, {intervals} intervals, generated in {generated_s:.3} s; \
                 reference HiFind::run_trace: {} final alerts in {:.3} s (neither measured)",
                trace.len(),
                reference.final_alerts().len(),
                t0.elapsed().as_secs_f64(),
            );
            let packets = trace.len();
            if w.kind == Kind::Tree {
                trace = Trace::new();
            }
            Input {
                trace,
                packets,
                parts,
                windows,
                intervals,
                reference,
            }
        })
        .collect()
}

/// Metrics, failure counts, and the lines explaining them.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Failed checks that are not operations of the system under test
    /// (the traced composition, the re-runs, the codec probe).
    check_failures: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        if note.is_empty() {
            println!("{name} = {value} {unit}");
        } else {
            println!("{name} = {value} {unit}  ({note})");
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one replay's intervals, failing those whose alerts diverge.
    fn check_log(&mut self, input: &Input, log: &AlertLog) -> u64 {
        let diverging = check::diverging_intervals(&input.reference, log);
        self.count(input.intervals, diverging);
        diverging
    }

    fn require(&mut self, ok: bool, what: String) {
        if !ok {
            println!("CHECK FAILED: {what}");
            self.check_failures.push(what);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line; fails on a non-finite metric (a benchmark bug).
    fn result_line(&self) -> Result<String, serde_json::Error> {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    obj([("value", Value::Float(*v)), ("unit", text(*u))]),
                )
            })
            .collect();
        serde_json::to_string(&obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted.max(1))),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]))
    }
}

/// Runs `round` at least once, and again while another round of average
/// length still fits in `seconds`.
fn rounds<T>(seconds: f64, mut round: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![round()];
    loop {
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / out.len() as f64 > seconds {
            return out;
        }
        out.push(round());
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// What one untraced round (every trace replayed once) measured.
#[derive(Default)]
struct Round {
    wall_s: f64,
    packets: u64,
    /// Per trace, in order: each interval's close-to-alert time.
    close_to_alert_ms: Vec<Vec<f64>>,
}

impl Round {
    fn add(&mut self, wall_s: f64, packets: usize, close_to_alert_ms: &[f64]) {
        self.wall_s += wall_s;
        self.packets += packets as u64;
        self.close_to_alert_ms.push(close_to_alert_ms.to_vec());
        println!(
            "# replay: {:.0} pkt/s, slowest interval {:.3} ms",
            packets as f64 / wall_s,
            max(close_to_alert_ms)
        );
    }

    fn pooled(&self) -> Vec<f64> {
        self.close_to_alert_ms.concat()
    }
}

/// Each trace's slowest interval, where an interval's time is its median
/// over the rounds: the work of an interval is the same in every round, so
/// the median strips one-off stalls of the host. One value per trace.
fn slowest_intervals(rounds: &[Round]) -> Vec<f64> {
    (0..rounds[0].close_to_alert_ms.len())
        .map(|k| {
            let intervals = rounds[0].close_to_alert_ms[k].len();
            let medians: Vec<f64> = (0..intervals)
                .map(|i| {
                    let samples: Vec<f64> = rounds
                        .iter()
                        .filter_map(|r| r.close_to_alert_ms[k].get(i).copied())
                        .collect();
                    median(&samples)
                })
                .collect();
            max(&medians)
        })
        .collect()
}

/// The end-to-end metrics, common to both system shapes.
fn put_end_to_end(report: &mut Report, setups: &[f64], rounds: &[Round]) {
    let pps: Vec<f64> = rounds.iter().map(|r| r.packets as f64 / r.wall_s).collect();
    let pooled: Vec<f64> = rounds.iter().flat_map(Round::pooled).collect();
    let slowest = slowest_intervals(rounds);
    let n = rounds.len();
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "# round {i}: {:.0} pkt/s, close-to-alert p50 {:.3} ms, max {:.3} ms",
            pps[i],
            median(&r.pooled()),
            max(&r.pooled())
        );
    }
    report.put(
        "setup_s",
        median(setups),
        "s",
        &format!("median of {} builds", setups.len()),
    );
    report.put(
        "pipeline_pps",
        median(&pps),
        "pkt/s",
        &format!("median of {n} rounds of {} packets", rounds[0].packets),
    );
    report.put(
        "close_to_alert_ms_p50",
        median(&pooled),
        "ms",
        &format!("median of n={} intervals", pooled.len()),
    );
    report.put(
        "close_to_alert_ms_max",
        median(&slowest),
        "ms",
        &format!(
            "median over n={} traces of each trace's slowest interval, \
             each interval taken as its median over {n} rounds",
            slowest.len()
        ),
    );
    let rss = host::peak_rss_mb().unwrap_or(0.0);
    report.put("peak_rss_mb", rss, "MiB", "VmHWM since generation");
}

/// Every per-layer metric, in one fixed order, with its unit. Layers a
/// workload does not exercise read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.sut_build_ms", "ms"),
    ("setup.connect_ms", "ms"),
    ("recorder.packets", "count"),
    ("recorder.wall_ms", "ms"),
    ("recorder.cpu_ms", "ms"),
    ("recorder.ns_per_pkt", "ns"),
    ("snapshot.wall_ms", "ms"),
    ("snapshot.ms_p50", "ms"),
    ("forecast.wall_ms", "ms"),
    ("forecast.ms_p50", "ms"),
    ("detect.wall_ms", "ms"),
    ("detect.cpu_ms", "ms"),
    ("detect.ms_max", "ms"),
    ("infer.dip_dport.wall_ms", "ms"),
    ("infer.dip_dport.candidates", "count"),
    ("infer.dip_dport.heavy_buckets_max", "count"),
    ("infer.dip_dport.keys", "count"),
    ("infer.dip_dport.useful_ratio", "ratio"),
    ("infer.dip_dport.truncated", "count"),
    ("infer.dip_dport.rejected_verifier", "count"),
    ("infer.sip_dip.wall_ms", "ms"),
    ("infer.sip_dip.candidates", "count"),
    ("infer.sip_dip.heavy_buckets_max", "count"),
    ("infer.sip_dip.keys", "count"),
    ("infer.sip_dip.useful_ratio", "ratio"),
    ("infer.sip_dip.truncated", "count"),
    ("infer.sip_dip.rejected_verifier", "count"),
    ("infer.sip_dport.wall_ms", "ms"),
    ("infer.sip_dport.candidates", "count"),
    ("infer.sip_dport.heavy_buckets_max", "count"),
    ("infer.sip_dport.keys", "count"),
    ("infer.sip_dport.useful_ratio", "ratio"),
    ("infer.sip_dport.truncated", "count"),
    ("infer.sip_dport.rejected_verifier", "count"),
    ("classify.wall_ms", "ms"),
    ("classify.in", "count"),
    ("classify.out", "count"),
    ("fp_filter.wall_ms", "ms"),
    ("fp_filter.in", "count"),
    ("fp_filter.out", "count"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.raw_bytes", "B"),
    ("codec.encoded_bytes", "B"),
    ("codec.keyframes", "count"),
    ("codec.deltas", "count"),
    ("agent.record_wall_ms", "ms"),
    ("agent.record_cpu_ms", "ms"),
    ("agent.end_interval_wall_ms", "ms"),
    ("agent.end_interval_cpu_ms", "ms"),
    ("agent.bytes_shipped", "B"),
    ("agent.send_failures", "count"),
    ("agent.reconnects", "count"),
    ("agent.wire_bytes_per_interval", "B"),
    ("alert_wait.wall_ms", "ms"),
    ("aggregator.wait_ms_p50", "ms"),
    ("aggregator.frames_late", "count"),
    ("aggregator.frames_rejected", "count"),
    ("aggregator.partial_intervals", "count"),
    ("collector.wait_ms_p50", "ms"),
    ("collector.detect_ms", "ms"),
    ("collector.bytes_received", "B"),
    ("collector.partial_intervals", "count"),
    ("collector.gap_intervals", "count"),
    ("other.wall_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("failed_frac", "ratio"),
];

/// Per-layer values of one traced round, by metric name.
type Layers = Vec<(String, f64)>;

fn push(layers: &mut Layers, name: &str, value: f64) {
    layers.push((name.to_string(), value));
}

/// The layers [`single::Pieces`] measures: forecast through fp_filter,
/// the guards' candidate counts, and the INFERENCE probe.
fn detection_layers(l: &mut Layers, t: &Tracer, pieces: &single::Pieces) {
    push(l, "forecast.wall_ms", t.wall_ms("forecast"));
    push(l, "forecast.ms_p50", t.p50_ms("forecast"));
    push(l, "detect.wall_ms", t.wall_ms("detect"));
    push(l, "detect.cpu_ms", t.cpu_ms("detect"));
    push(l, "detect.ms_max", t.max_ms("detect"));
    push(l, "classify.wall_ms", t.wall_ms("classify"));
    push(l, "classify.in", pieces.guards.classify_in as f64);
    push(l, "classify.out", pieces.guards.classify_out as f64);
    push(l, "fp_filter.wall_ms", t.wall_ms("fp_filter"));
    push(l, "fp_filter.in", pieces.guards.fp_filter_in as f64);
    push(l, "fp_filter.out", pieces.guards.fp_filter_out as f64);
    for (name, t) in single::INFER_NAMES.iter().zip(&pieces.probe.totals) {
        let useful = t.keys as f64 / t.candidates.max(1) as f64;
        push(l, &format!("infer.{name}.wall_ms"), t.wall_ns as f64 / 1e6);
        push(l, &format!("infer.{name}.candidates"), t.candidates as f64);
        push(
            l,
            &format!("infer.{name}.heavy_buckets_max"),
            t.heavy_buckets_max as f64,
        );
        push(l, &format!("infer.{name}.keys"), t.keys as f64);
        push(l, &format!("infer.{name}.useful_ratio"), useful);
        push(l, &format!("infer.{name}.truncated"), t.truncated as f64);
        push(
            l,
            &format!("infer.{name}.rejected_verifier"),
            t.rejected_verifier as f64,
        );
    }
}

/// The traced-wall accounting: `other` is what the replay thread did
/// outside every span, and the overhead is traced minus untraced wall.
fn wall_layers(l: &mut Layers, t: &Tracer, thread_layers: &[&str], traced_s: f64, untraced_s: f64) {
    let busy: f64 = thread_layers.iter().map(|n| t.wall_ms(n)).sum();
    push(l, "other.wall_ms", ms(traced_s) - busy);
    push(l, "trace.wall_ms", ms(traced_s));
    push(l, "trace.untraced_wall_ms", ms(untraced_s));
    push(l, "trace.overhead_ms", ms(traced_s - untraced_s));
}

/// Puts every [`PER_LAYER`] metric: the median over traced rounds, or 0
/// for layers the workload does not exercise.
fn put_layers(report: &mut Report, rounds: &[Layers]) {
    for (name, unit) in PER_LAYER {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|l| l.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        if *name == "failed_frac" {
            let note = format!("{}/{}", report.failed, report.attempted);
            report.put(name, report.failed_frac(), unit, &note);
        } else if values.is_empty() {
            report.put(name, 0.0, unit, "not exercised by this workload");
        } else {
            report.put(name, median(&values), unit, "");
        }
    }
}

/// Prints how the replay thread's traced wall time splits into each
/// layer's self time plus `other`, and names the largest layer.
fn print_breakdown(l: &Layers, t: &Tracer, thread_layers: &[&str]) {
    let get = |n: &str| l.iter().find(|(k, _)| k == n).map_or(0.0, |(_, v)| *v);
    let wall = get("trace.wall_ms");
    println!("# traced wall {wall:.3} ms = self times of the replay thread's layers + other:");
    let mut largest = ("", f64::MIN);
    for n in thread_layers {
        let v = t.wall_ms(n);
        println!("#   {n:<20} {v:>12.3} ms  {:>5.1}%", 100.0 * v / wall);
        if v > largest.1 {
            largest = (n, v);
        }
    }
    let other = get("other.wall_ms");
    println!(
        "#   {:<20} {other:>12.3} ms  {:>5.1}%",
        "other",
        100.0 * other / wall
    );
    println!(
        "# largest layer: {}; tracing overhead {:.3} ms over an untraced {:.3} ms",
        largest.0,
        get("trace.overhead_ms"),
        get("trace.untraced_wall_ms")
    );
}

fn run_single(
    cfg: HiFindConfig,
    setups: &[f64],
    inputs: &[Input],
    args: &Args,
    report: &mut Report,
    spans_out: &mut Vec<Tracer>,
) {
    if !args.trace {
        let measured = rounds(args.seconds, || {
            let mut round = Round::default();
            for input in inputs {
                let r = single::replay(cfg, &input.trace);
                report.check_log(input, &r.log);
                round.add(r.wall_s, input.packets, &r.close_to_alert_ms);
            }
            round
        });
        put_end_to_end(report, setups, &measured);
        return;
    }
    let thread_layers = [
        "recorder",
        "snapshot",
        "forecast",
        "detect",
        "classify",
        "fp_filter",
    ];
    let traced = rounds(args.seconds, || {
        let mut tracer = Tracer::new();
        let mut pieces = single::Pieces::new(cfg);
        let (mut untraced_s, mut traced_s, mut base, mut packets) = (0.0, 0.0, 0, 0);
        for input in inputs {
            let plain = single::replay(cfg, &input.trace);
            report.check_log(input, &plain.log);
            untraced_s += plain.wall_s;
            tracer.set_base(base);
            let (wall_s, log) = single::traced_replay(&input.trace, &mut pieces, &mut tracer);
            let diverging = report.check_log(input, &log);
            report.require(
                diverging == 0,
                format!("traced composition diverges in {diverging} intervals"),
            );
            traced_s += wall_s;
            base += input.intervals;
            packets += input.packets as u64;
        }
        let t = &tracer;
        let mut l = Layers::new();
        push(&mut l, "setup.sut_build_ms", ms(median(setups)));
        push(&mut l, "recorder.packets", packets as f64);
        push(&mut l, "recorder.wall_ms", t.wall_ms("recorder"));
        push(&mut l, "recorder.cpu_ms", t.cpu_ms("recorder"));
        let ns_per_pkt = t.wall_ms("recorder") * 1e6 / packets.max(1) as f64;
        push(&mut l, "recorder.ns_per_pkt", ns_per_pkt);
        push(&mut l, "snapshot.wall_ms", t.wall_ms("snapshot"));
        push(&mut l, "snapshot.ms_p50", t.p50_ms("snapshot"));
        detection_layers(&mut l, t, &pieces);
        wall_layers(&mut l, t, &thread_layers, traced_s, untraced_s);
        (l, tracer)
    });
    let (layers, tracers): (Vec<Layers>, Vec<Tracer>) = traced.into_iter().unzip();
    let mid = layers.len() / 2;
    print_breakdown(&layers[mid], &tracers[mid], &thread_layers);
    put_layers(report, &layers);
    spans_out.extend(tracers);
}

/// Counts one tree replay's operations and prints its collection summary.
fn account_tree(report: &mut Report, input: &Input, r: &tree::TreeReplay) {
    let diverging = check::diverging_intervals(&input.reference, &r.collector.log);
    report.count(r.attempted(), r.failures() + diverging);
    println!(
        "# tree replay: {} intervals, {diverging} diverging, {} failed operations, \
         {:.1} wire B per agent-interval, v2 keyframes/deltas {}/{}",
        r.intervals,
        r.failures(),
        r.wire_bytes_per_interval(),
        r.agents.iter().map(|s| s.frames_v2_keyframes).sum::<u64>(),
        r.agents.iter().map(|s| s.frames_v2_deltas).sum::<u64>(),
    );
}

fn run_tree(
    cfg: HiFindConfig,
    setups: &[f64],
    inputs: &[Input],
    args: &Args,
    report: &mut Report,
    spans_out: &mut Vec<Tracer>,
) {
    if !args.trace {
        let measured = rounds(args.seconds, || {
            let mut round = Round::default();
            for input in inputs {
                let r = tree::replay(cfg, &input.windows, &input.parts, None, None);
                account_tree(report, input, &r);
                round.add(r.wall_s, input.packets, &r.close_to_alert_ms);
            }
            round
        });
        put_end_to_end(report, setups, &measured);
        return;
    }
    let mut codec = tree::CodecProbe::default();
    for input in inputs {
        tree::codec_probe(cfg, &input.windows, &input.parts, &mut codec);
    }
    report.require(
        codec.mismatches == 0,
        format!(
            "codec probe: {} snapshots did not round-trip",
            codec.mismatches
        ),
    );
    let thread_layers = ["agent.record", "agent.end_interval", "alert_wait"];
    let traced = rounds(args.seconds, || {
        let mut tracer = Tracer::new();
        let mut post = Tracer::new();
        let mut pieces = single::Pieces::new(cfg);
        let (mut untraced_s, mut traced_s, mut detect_s, mut base) = (0.0, 0.0, 0.0, 0);
        let (mut agg_wait, mut col_wait, mut connect_ms) = (Vec::new(), Vec::new(), 0.0);
        let mut replays = Vec::new();
        for input in inputs {
            let plain = tree::replay(cfg, &input.windows, &input.parts, None, None);
            account_tree(report, input, &plain);
            untraced_s += plain.loop_s;
            tracer.set_base(base);
            let r = tree::replay(cfg, &input.windows, &input.parts, Some(&mut tracer), None);
            account_tree(report, input, &r);
            traced_s += r.loop_s;
            // A third replay re-runs the collector's detection on each
            // snapshot it delivered, while the tree waits: once through a
            // fresh DetectionCore (its time), once through the traced pieces
            // (its per-layer split). Copying the snapshots out of the
            // collector would inflate the traced replay, so it is not there.
            let mut core = DetectionCore::new(cfg).expect("the paper configuration is valid");
            post.set_base(base);
            pieces.restart();
            let mut rerun = |s: &hifind::IntervalSnapshot| {
                let t0 = Instant::now();
                std::hint::black_box(core.process_snapshot(s));
                detect_s += t0.elapsed().as_secs_f64();
                pieces.process(s, &mut post);
            };
            let capture = tree::replay(cfg, &input.windows, &input.parts, None, Some(&mut rerun));
            account_tree(report, input, &capture);
            for (what, log) in [
                ("DetectionCore", core.log().clone()),
                ("pieces", pieces.restart()),
            ] {
                let diverging = check::diverging_intervals(&input.reference, &log);
                report.require(
                    diverging == 0,
                    format!("delivered snapshots through {what} diverge in {diverging} intervals"),
                );
            }
            agg_wait.extend_from_slice(&r.aggregator_wait_ms);
            col_wait.extend_from_slice(&r.collector_wait_ms);
            connect_ms += r.connect_ms;
            base += input.intervals;
            replays.push(r);
        }
        let t = &tracer;
        let sum = |f: fn(&tree::TreeReplay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
        let agents = |f: fn(&hifind_collect::AgentStats) -> u64| {
            replays
                .iter()
                .flat_map(|r| r.agents.iter().map(f))
                .sum::<u64>() as f64
        };
        let agent_intervals = sum(|r| r.intervals) * tree::AGENTS as f64;
        let mut l = Layers::new();
        push(&mut l, "setup.sut_build_ms", ms(median(setups)));
        push(&mut l, "setup.connect_ms", connect_ms / inputs.len() as f64);
        push(&mut l, "codec.encode_ms", codec.encode_ns as f64 / 1e6);
        push(&mut l, "codec.decode_ms", codec.decode_ns as f64 / 1e6);
        push(&mut l, "codec.raw_bytes", codec.raw_bytes as f64);
        push(&mut l, "codec.encoded_bytes", codec.encoded_bytes as f64);
        push(&mut l, "codec.keyframes", codec.keyframes as f64);
        push(&mut l, "codec.deltas", codec.deltas as f64);
        push(&mut l, "agent.record_wall_ms", t.wall_ms("agent.record"));
        push(&mut l, "agent.record_cpu_ms", t.cpu_ms("agent.record"));
        push(
            &mut l,
            "agent.end_interval_wall_ms",
            t.wall_ms("agent.end_interval"),
        );
        push(
            &mut l,
            "agent.end_interval_cpu_ms",
            t.cpu_ms("agent.end_interval"),
        );
        push(&mut l, "agent.bytes_shipped", agents(|s| s.bytes_shipped));
        push(&mut l, "agent.send_failures", agents(|s| s.send_failures));
        push(&mut l, "agent.reconnects", agents(|s| s.reconnects));
        let wire = agents(|s| s.bytes_shipped) / agent_intervals.max(1.0);
        push(&mut l, "agent.wire_bytes_per_interval", wire);
        push(&mut l, "alert_wait.wall_ms", t.wall_ms("alert_wait"));
        push(&mut l, "aggregator.wait_ms_p50", median(&agg_wait));
        push(
            &mut l,
            "aggregator.frames_late",
            sum(|r| r.aggregator.frames_late),
        );
        push(
            &mut l,
            "aggregator.frames_rejected",
            sum(|r| r.aggregator.frames_rejected),
        );
        let partial = sum(|r| r.aggregator.partial_intervals);
        push(&mut l, "aggregator.partial_intervals", partial);
        push(&mut l, "collector.wait_ms_p50", median(&col_wait));
        push(&mut l, "collector.detect_ms", ms(detect_s));
        push(
            &mut l,
            "collector.bytes_received",
            sum(|r| r.collector.bytes_received),
        );
        let partial = sum(|r| r.collector.partial_intervals);
        push(&mut l, "collector.partial_intervals", partial);
        push(
            &mut l,
            "collector.gap_intervals",
            sum(|r| r.collector.gap_intervals),
        );
        detection_layers(&mut l, &post, &pieces);
        wall_layers(&mut l, t, &thread_layers, traced_s, untraced_s);
        (l, tracer)
    });
    let (layers, tracers): (Vec<Layers>, Vec<Tracer>) = traced.into_iter().unzip();
    let mid = layers.len() / 2;
    print_breakdown(&layers[mid], &tracers[mid], &thread_layers);
    put_layers(report, &layers);
    spans_out.extend(tracers);
}

/// Runs one workload and returns its report; the spans of traced rounds
/// go to `spans_out`.
fn run(w: &Workload, args: &Args, scale: f64, traces: u64, spans_out: &mut Vec<Tracer>) -> Report {
    let cfg = HiFindConfig::paper(CONFIG_SEED);
    println!(
        "# workload {}: seed {}, scale {scale}, {traces} traces per round",
        w.name, args.seed
    );
    // Set-up is timed first, while the allocator's state is the same in
    // every run: how long zeroed allocations take depends on whether they
    // reuse freed memory.
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| match w.kind {
            Kind::Single => single::build(cfg).1,
            Kind::Tree => tree::setup_only(cfg),
        })
        .collect();
    let inputs = prepare(w, args.seed, scale, traces, cfg);
    if !host::reset_peak_rss() {
        println!("# note: /proc/self/clear_refs is not writable; peak RSS includes generation");
    }
    let mut report = Report::default();
    match w.kind {
        Kind::Single => run_single(cfg, &setups, &inputs, args, &mut report, spans_out),
        Kind::Tree => run_tree(cfg, &setups, &inputs, args, &mut report, spans_out),
    }
    println!(
        "# failed_frac = {} ({}/{} operations), correct = {}",
        report.failed_frac(),
        report.failed,
        report.attempted,
        report.correct()
    );
    report
}

fn write_spans(
    dir: &std::path::Path,
    name: &str,
    seed: u64,
    spans: &[Tracer],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
    let mut file = std::fs::File::create(&path)?;
    for (round, tracer) in spans.iter().enumerate() {
        tracer.write_jsonl(&mut file, round)?;
    }
    Ok(path)
}

/// Runs every workload at a tiny scale, one trace, one untraced and one
/// traced round each. Fails only on diverging alerts or a failed operation, never on
/// timing.
fn self_check() -> i32 {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: w.name.into(),
                seed: 3,
                seconds: 0.0,
                trace,
                out_dir: None,
                self_check: true,
            };
            let report = run(w, &args, w.check_scale, 1, &mut Vec::new());
            let verdict = if report.correct() { "ok" } else { "FAILED" };
            println!(
                "self-check {} --trace {}: {verdict} ({} of {} operations failed)",
                w.name, trace as u8, report.failed, report.attempted
            );
            ok &= report.correct();
        }
    }
    i32::from(!ok)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hifind-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = serde_json::to_string(&host::stamp()).unwrap_or_default();
    println!("# host {stamp}");
    if args.self_check {
        std::process::exit(self_check());
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "hifind-perfbench: unknown workload {:?}, expected one of {names:?}",
            args.workload
        );
        std::process::exit(2);
    };
    let mut spans = Vec::new();
    let report = run(w, &args, w.scale, TRACES_PER_RUN, &mut spans);
    if let (Some(dir), false) = (&args.out_dir, spans.is_empty()) {
        match write_spans(dir, w.name, args.seed, &spans) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans: {e}"),
        }
    }
    match report.result_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("hifind-perfbench: cannot write the result: {e}");
            std::process::exit(1);
        }
    }
    if !report.correct() {
        std::process::exit(1);
    }
}
