//! The correctness gate: every run's alerts must equal those of
//! single-process `HiFind::run_trace` on the same trace, interval by
//! interval.

use hifind::{Alert, AlertLog, HiFind, HiFindConfig, Phase};
use hifind_flow::Trace;
use std::collections::BTreeMap;

const PHASES: [Phase; 3] = [Phase::Raw, Phase::AfterClassification, Phase::Final];

/// The reference alert log: single-process [`HiFind::run_trace`].
pub fn reference(cfg: HiFindConfig, trace: &Trace) -> AlertLog {
    HiFind::new(cfg)
        .expect("the paper configuration is valid")
        .run_trace(trace)
}

/// Intervals whose alerts differ between `reference` and `got`, at any
/// phase. Each log keeps an alert at the interval it first fired in, so
/// grouping by that interval compares the two runs interval by interval.
pub fn diverging_intervals(reference: &AlertLog, got: &AlertLog) -> u64 {
    type PerPhase = Vec<(Phase, Alert)>;
    let mut by_interval: BTreeMap<u64, (PerPhase, PerPhase)> = BTreeMap::new();
    for phase in PHASES {
        for a in reference.alerts(phase) {
            by_interval
                .entry(a.interval)
                .or_default()
                .0
                .push((phase, *a));
        }
        for a in got.alerts(phase) {
            by_interval
                .entry(a.interval)
                .or_default()
                .1
                .push((phase, *a));
        }
    }
    by_interval.values().filter(|(r, g)| r != g).count() as u64
}
