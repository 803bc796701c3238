//! In-memory spans recorded around the calls the benchmark makes into
//! each layer's public functions.
//!
//! A span records wall time and the calling thread's CPU time, so a
//! layer's waiting time is `wall - cpu`. Spans carry the interval index as
//! their request id. The benchmark's spans never nest, so a layer's summed
//! span wall time is its self time, and whatever the replay thread did
//! outside every span is reported as `other`.

use crate::host::thread_cpu_ns;
use crate::stats::{self, obj, text, Value};
use std::io::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub interval: u64,
    pub start_ns: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Collects spans relative to its creation instant.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Added to every interval index, so the replays of several traces
    /// can share one tracer without their intervals colliding.
    base: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            base: 0,
        }
    }

    /// Offsets the interval index of every later span by `base`.
    pub fn set_base(&mut self, base: u64) {
        self.base = base;
    }

    /// Runs `f` inside a span of `layer` for `interval`.
    pub fn span<R>(&mut self, layer: &'static str, interval: u64, f: impl FnOnce() -> R) -> R {
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        let out = f();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
        self.spans.push(Span {
            layer,
            interval: self.base + interval,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            wall_ns,
            cpu_ns,
        });
        out
    }

    /// Summed wall time of `layer`, in milliseconds.
    pub fn wall_ms(&self, layer: &str) -> f64 {
        self.of(layer).map(|s| s.wall_ns as f64).sum::<f64>() / 1e6
    }

    /// Summed thread-CPU time of `layer`, in milliseconds.
    pub fn cpu_ms(&self, layer: &str) -> f64 {
        self.of(layer).map(|s| s.cpu_ns as f64).sum::<f64>() / 1e6
    }

    /// Per-interval wall time of `layer` (spans of one interval summed),
    /// in milliseconds, in interval order.
    pub fn per_interval_ms(&self, layer: &str) -> Vec<f64> {
        let mut by_interval = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.of(layer) {
            *by_interval.entry(s.interval).or_default() += s.wall_ns as f64 / 1e6;
        }
        by_interval.into_values().collect()
    }

    /// Median per-interval wall time of `layer`, in milliseconds.
    pub fn p50_ms(&self, layer: &str) -> f64 {
        stats::median(&self.per_interval_ms(layer))
    }

    /// Slowest interval of `layer`, in milliseconds.
    pub fn max_ms(&self, layer: &str) -> f64 {
        stats::max(&self.per_interval_ms(layer))
    }

    fn of<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.layer == layer)
    }

    /// Appends every span as one JSON line tagged with its `round`.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write, round: usize) -> std::io::Result<()> {
        let mut buf = std::io::BufWriter::new(out);
        for s in &self.spans {
            let line = obj([
                ("round", Value::UInt(round as u64)),
                ("layer", text(s.layer)),
                ("interval", Value::UInt(s.interval)),
                ("start_ns", Value::UInt(s.start_ns)),
                ("wall_ns", Value::UInt(s.wall_ns)),
                ("cpu_ns", Value::UInt(s.cpu_ns)),
            ]);
            let line = serde_json::to_string(&line).map_err(std::io::Error::other)?;
            writeln!(buf, "{line}")?;
        }
        buf.flush()
    }
}
