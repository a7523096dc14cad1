//! Summary statistics and the result line: percentiles with a tail-sample
//! floor, failure accounting, and metric-name validation.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a tail figure resting on fewer samples is mostly noise.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples for which [`percentile`] reports `p`.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| rank(n, p) + MIN_BEYOND <= n).expect("some sample count suffices")
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank(sorted.len(), p);
    (sorted.len() >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `samples` (the mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Operations attempted and failed. A failed operation is one the program
/// answered with an error (or, for a replay, a divergence); it is never
/// retried under another seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `count` operations, all of which succeeded or all failed.
    pub fn record(&mut self, count: u64, failed: bool) {
        self.attempted += count;
        if failed {
            self.failed += count;
        }
    }

    pub fn finished(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
/// Panics on an invalid name or unit, or a non-finite value — a bug in
/// this benchmark, never in the program measured.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "invalid unit {:?}", m.unit);
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // Nearest rank 90 of 100: exactly ten samples (91..=100) beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 90.0), Some(900.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_share_counts_whole_batches() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_share(), 0.0);
        tally.record(1, false);
        tally.record(1, true);
        // A failing sweep batch fails every home in it.
        tally.record(512, true);
        tally.record(512, false);
        assert_eq!(tally, Tally { attempted: 1026, failed: 513 });
        assert_eq!(tally.finished(), 513);
        assert_eq!(tally.failed_share(), 0.5);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in
            ["campaigns_per_s", "fuzzer.ns_per_packet", "trace_format.bytes_per_event", "9a-b"]
        {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "-lead", "has space", "semi;colon", "ü", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "ratio", "MiB", "%"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            Tally { attempted: 3, failed: 1 },
            &[Metric::new("setup_s", 0.25, "s"), Metric::new("peak_rss_mib", 12.0, "MiB")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mib\": {\"value\": 12, \"unit\": \"MiB\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn result_line_rejects_bad_names() {
        result_line(true, Tally::default(), &[Metric::new("bad name", 1.0, "s")]);
    }
}
