//! The single-process system under test (`nu_campus`, `dos_smokescreen`):
//! one `HiFind`, driven closed-loop one interval at a time, and its traced
//! twin composed from the public pieces `HiFind` wires together.

use crate::spans::Tracer;
use hifind::classify::classify;
use hifind::detector::{Detector, ErrorGrids};
use hifind::fp_filter::FloodFpFilter;
use hifind::{AlertLog, HiFind, HiFindConfig, IntervalSnapshot, Phase, SketchRecorder};
use hifind_flow::Trace;
use hifind_forecast::{ErrorStats, GridEwma, GridForecaster};
use hifind_sketch::ReversibleSketch;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One untraced replay of a whole trace.
pub struct Replay {
    pub wall_s: f64,
    pub close_to_alert_ms: Vec<f64>,
    pub log: AlertLog,
}

/// Times `HiFind::new`, the system's set-up.
pub fn build(cfg: HiFindConfig) -> (HiFind, f64) {
    let t0 = Instant::now();
    let ids = HiFind::new(cfg).expect("the paper configuration is valid");
    (ids, t0.elapsed().as_secs_f64())
}

/// Replays `trace` through a fresh `HiFind`: records each interval's
/// packets, ends the interval, and waits for its outcome before the next.
pub fn replay(cfg: HiFindConfig, trace: &Trace) -> Replay {
    let (mut ids, _) = build(cfg);
    let mut close_to_alert_ms = Vec::new();
    let start = Instant::now();
    for window in trace.intervals(cfg.interval_ms) {
        ids.record_all(window.packets);
        let close = Instant::now();
        black_box(ids.end_interval());
        close_to_alert_ms.push(close.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = start.elapsed().as_secs_f64();
    Replay {
        wall_s,
        close_to_alert_ms,
        log: ids.log().clone(),
    }
}

/// Totals of the INFERENCE probe for one reversible sketch.
#[derive(Clone, Debug, Default)]
pub struct InferTotals {
    pub wall_ns: u64,
    pub candidates: u64,
    pub heavy_buckets_max: usize,
    pub keys: u64,
    pub truncated: u64,
    pub rejected_verifier: u64,
}

/// Re-runs `ReversibleSketch::infer_grid` on each interval's forecast-error
/// grids, outside the timed spans, to count the work INFERENCE does.
pub struct InferProbe {
    refs: [ReversibleSketch; 3],
    cfg: HiFindConfig,
    /// Step order of `Detector::detect`: `{DIP,Dport}`, `{SIP,DIP}`,
    /// `{SIP,Dport}`.
    pub totals: [InferTotals; 3],
}

/// Probe names, in [`InferProbe::totals`] order.
pub const INFER_NAMES: [&str; 3] = ["dip_dport", "sip_dip", "sip_dport"];

impl InferProbe {
    pub fn new(cfg: HiFindConfig) -> Self {
        let rs = |c| ReversibleSketch::new(c).expect("the paper configuration is valid");
        InferProbe {
            refs: [
                rs(cfg.rs_dip_dport_config()),
                rs(cfg.rs_sip_dip_config()),
                rs(cfg.rs_sip_dport_config()),
            ],
            cfg,
            totals: Default::default(),
        }
    }

    fn run(&mut self, grids: &ErrorGrids) {
        let pairs = [
            (&grids.rs_dip_dport, &grids.rs_dip_dport_verifier),
            (&grids.rs_sip_dip, &grids.rs_sip_dip_verifier),
            (&grids.rs_sip_dport, &grids.rs_sip_dport_verifier),
        ];
        let threshold = self.cfg.interval_threshold();
        for ((sketch, (grid, verifier)), totals) in
            self.refs.iter().zip(pairs).zip(&mut self.totals)
        {
            let t0 = Instant::now();
            let result = sketch.infer_grid(grid, Some(verifier), threshold, &self.cfg.infer);
            totals.wall_ns += t0.elapsed().as_nanos() as u64;
            let stats = &result.stats;
            totals.candidates += stats.candidates_explored;
            let heavy = stats.heavy_buckets.iter().copied().max().unwrap_or(0);
            totals.heavy_buckets_max = totals.heavy_buckets_max.max(heavy);
            totals.keys += result.keys.len() as u64;
            totals.truncated += u64::from(stats.truncated);
            totals.rejected_verifier += stats.rejected_by_verifier as u64;
        }
    }
}

/// Candidate counts through the two guard phases.
#[derive(Clone, Debug, Default)]
pub struct GuardCounts {
    pub classify_in: u64,
    pub classify_out: u64,
    pub fp_filter_in: u64,
    pub fp_filter_out: u64,
}

/// `DetectionCore::process_snapshot`, composed from its public pieces with
/// a span around each: forecast, detect, classify, fp_filter. Also runs
/// the INFERENCE probe and counts candidates through the guards.
pub struct Pieces {
    detector: Detector,
    forecasters: [GridEwma; 6],
    flood_filter: FloodFpFilter,
    log: AlertLog,
    interval: u64,
    cfg: HiFindConfig,
    pub probe: InferProbe,
    pub guards: GuardCounts,
    /// Time spent in the INFERENCE probe, excluded from every figure.
    pub probe_time: Duration,
}

impl Pieces {
    pub fn new(cfg: HiFindConfig) -> Self {
        Pieces {
            detector: Detector::new(&cfg).expect("the paper configuration is valid"),
            forecasters: std::array::from_fn(|_| GridEwma::new(cfg.ewma_alpha)),
            flood_filter: FloodFpFilter::new(),
            log: AlertLog::new(),
            interval: 0,
            cfg,
            probe: InferProbe::new(cfg),
            guards: GuardCounts::default(),
            probe_time: Duration::ZERO,
        }
    }

    /// Starts over on a new trace: fresh detection state, while the probe
    /// and guard counts keep accumulating. Returns the finished log.
    pub fn restart(&mut self) -> AlertLog {
        self.forecasters = std::array::from_fn(|_| GridEwma::new(self.cfg.ewma_alpha));
        self.flood_filter = FloodFpFilter::new();
        self.interval = 0;
        std::mem::take(&mut self.log)
    }

    /// Detects on one interval's snapshot, in the order and with the
    /// bookkeeping of `DetectionCore::process_snapshot`.
    pub fn process(&mut self, snapshot: &IntervalSnapshot, tracer: &mut Tracer) {
        let interval = self.interval;
        self.interval += 1;
        let fc = &mut self.forecasters;
        let grids = tracer.span("forecast", interval, || {
            let errors = [
                fc[0].step(&snapshot.rs_sip_dport),
                fc[1].step(&snapshot.rs_sip_dport_verifier),
                fc[2].step(&snapshot.rs_dip_dport),
                fc[3].step(&snapshot.rs_dip_dport_verifier),
                fc[4].step(&snapshot.rs_sip_dip),
                fc[5].step(&snapshot.rs_sip_dip_verifier),
            ];
            let [Some(rs_sip_dport), Some(rs_sip_dport_verifier), Some(rs_dip_dport), Some(rs_dip_dport_verifier), Some(rs_sip_dip), Some(rs_sip_dip_verifier)] =
                errors
            else {
                return None;
            };
            let grids = ErrorGrids {
                rs_sip_dport,
                rs_sip_dport_verifier,
                rs_dip_dport,
                rs_dip_dport_verifier,
                rs_sip_dip,
                rs_sip_dip_verifier,
            };
            // The error magnitudes `DetectionCore` measures for its reports.
            black_box([
                ErrorStats::measure(&grids.rs_sip_dport),
                ErrorStats::measure(&grids.rs_dip_dport),
                ErrorStats::measure(&grids.rs_sip_dip),
            ]);
            Some(grids)
        });
        // Warm-up interval: no forecast yet.
        let Some(grids) = grids else { return };

        let detector = &self.detector;
        let raw = tracer.span("detect", interval, || detector.detect(interval, &grids));
        for a in raw.all() {
            self.log.record(Phase::Raw, *a);
        }

        let probe_start = Instant::now();
        self.probe.run(&grids);
        self.probe_time += probe_start.elapsed();

        let classified = tracer.span("classify", interval, || classify(detector, snapshot, &raw));
        self.guards.classify_in += raw.all().count() as u64;
        for a in classified
            .floodings
            .iter()
            .chain(&classified.vscans)
            .chain(&classified.hscans)
        {
            self.log.record(Phase::AfterClassification, *a);
        }

        let flood_filter = &mut self.flood_filter;
        let filtered = tracer.span("fp_filter", interval, || {
            flood_filter.filter(detector, snapshot, interval, &classified.floodings)
        });
        let fin = filtered
            .confirmed
            .iter()
            .chain(&classified.vscans)
            .chain(&classified.hscans);
        let mut survivors = 0;
        for a in fin {
            self.log.record(Phase::Final, *a);
            survivors += 1;
        }
        self.guards.classify_out +=
            (classified.floodings.len() + classified.vscans.len() + classified.hscans.len()) as u64;
        self.guards.fp_filter_in += classified.floodings.len() as u64;
        self.guards.fp_filter_out += filtered.confirmed.len() as u64;
        black_box(survivors);
    }
}

/// One traced replay: the same closed loop as [`replay`], through a
/// `SketchRecorder` and `pieces` (restarted first), with a span around
/// every layer call. Returns the wall time from the first record call to
/// the last outcome, minus the INFERENCE probe, and the alert log.
pub fn traced_replay(trace: &Trace, pieces: &mut Pieces, tracer: &mut Tracer) -> (f64, AlertLog) {
    let cfg = pieces.cfg;
    let mut recorder = SketchRecorder::new(&cfg).expect("the paper configuration is valid");
    pieces.restart();
    let probe_before = pieces.probe_time;
    let start = Instant::now();
    for (interval, window) in (0u64..).zip(trace.intervals(cfg.interval_ms)) {
        tracer.span("recorder", interval, || recorder.record_all(window.packets));
        let snapshot = tracer.span("snapshot", interval, || recorder.take_snapshot());
        pieces.process(&snapshot, tracer);
    }
    let wall = start.elapsed() - (pieces.probe_time - probe_before);
    (wall.as_secs_f64(), pieces.restart())
}
