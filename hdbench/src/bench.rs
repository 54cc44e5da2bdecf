//! What every workload shares: its context, the result of one measured
//! pass, and the metric tables.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::stats::{median, Latency, TooFewSamples};
use crate::trace::{StageTable, Tracer};

/// What a workload runs with.
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// How long the measured phase runs.
    pub measure: Duration,
    /// Generator threads, connections and program threads.
    pub nproc: usize,
    /// Working directory inside the checkout (WALs).
    pub work: PathBuf,
    /// Span recorder (disabled in untraced passes).
    pub tracer: &'a Tracer,
}

/// The end-to-end metrics of one pass.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Peak resident set at the end of the pass, MB.
    pub peak_rss_mb: f64,
    /// The workload's headline rate, per s.
    pub throughput: f64,
    /// The workload's per-request latency, ms.
    pub latency: Latency,
}

/// End-to-end metric names and units, in output order. The latency
/// tail (p90, p99) does not repeat within any allowed bound on a shared
/// 2-core host, so it is reported per layer instead.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

impl EndToEnd {
    /// Values in [`END_TO_END`] order.
    pub fn values(&self) -> [f64; 4] {
        [
            self.setup_s,
            self.peak_rss_mb,
            self.throughput,
            self.latency.p50.value,
        ]
    }
}

/// One measured pass of a workload.
pub struct Pass {
    /// End-to-end metrics.
    pub e2e: EndToEnd,
    /// Per-layer metrics this workload measures (the rest read 0).
    pub layer: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: refusals left unanswered, errors, wrong
    /// answers and failed checks.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Stage table of a traced pass.
    pub stage: Option<StageTable>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Pass {
    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Runs `setup` `repeats` times, tearing down (untimed) all but the
/// last result, and returns the last with the median set-up time in
/// seconds. Only the program's own set-up work belongs in `setup`:
/// inputs are generated before, outside the timed region.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    assert!(repeats > 0, "at least one set-up");
    let mut times = Vec::with_capacity(repeats);
    for i in 0..repeats {
        let start = Instant::now();
        let value = setup(i)?;
        times.push(start.elapsed().as_secs_f64());
        if i + 1 == repeats {
            return Ok((value, median(&times)));
        }
        teardown(value)?;
    }
    unreachable!("repeats is positive")
}

/// Reads the latency percentiles, naming the distribution when it is too
/// small.
pub fn latency(what: &str, samples: &[f64]) -> Result<Latency, String> {
    Latency::of(samples).map_err(|e: TooFewSamples| format!("{what}: {e}"))
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
