//! Percentiles on raw samples, process memory, and the result line.

use std::fmt::Write as _;

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of an ascending sample:
/// the smallest value with at least `⌈q·n⌉` samples at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median of a sample (nearest rank; sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5).unwrap_or(0.0)
}

/// A latency sample: raw values in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

impl Sample {
    /// Records one value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Moves every value of `other` in.
    pub fn extend(&mut self, other: Sample) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The nearest-rank `q`-quantile (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.values, q).unwrap_or(0.0)
    }
}

/// The nearest-rank `q`-quantile of unsorted values (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q).unwrap_or(0.0)
}

/// One time window of a timed phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Median read latency, ms, as measured.
    pub p50: f64,
    /// 99th-percentile read latency, ms, as measured.
    pub p99: f64,
    /// Completed reads per second, as measured.
    pub qps: f64,
    /// The host factor nearest the window's middle
    /// ([`crate::calib::factor_at`]).
    pub factor: f64,
}

/// Read latency and throughput of a timed phase, per equal time
/// window, so that a figure can be the median over windows: a burst
/// of outside load then moves one or two windows, not the figure.
#[derive(Clone, Debug)]
pub struct Windowed {
    /// The windows, in time order.
    pub windows: Vec<Window>,
}

impl Windowed {
    /// Splits `reads` — (completion time s, latency ms) pairs of a
    /// phase that lasted `seconds` — into `count` equal windows, each
    /// with the host factor of `host` (`(time s, factor)` samples)
    /// nearest its middle. A read completing after the last window's
    /// end counts in it.
    pub fn of(reads: &[(f64, f64)], seconds: f64, count: usize, host: &[(f64, f64)]) -> Windowed {
        let count = count.max(1);
        let width = seconds / count as f64;
        let mut samples = vec![Sample::default(); count];
        for &(at, millis) in reads {
            let w = ((at / width) as usize).min(count - 1);
            samples[w].push(millis);
        }
        let windows = samples
            .iter_mut()
            .enumerate()
            .map(|(w, s)| Window {
                p50: s.quantile(0.50),
                p99: s.quantile(0.99),
                qps: s.len() as f64 / width,
                factor: crate::calib::factor_at(host, (w as f64 + 0.5) * width),
            })
            .collect();
        Windowed { windows }
    }

    /// Medians over windows of (p50 ms, p99 ms, reads/s) as measured.
    pub fn measured(&self) -> (f64, f64, f64) {
        self.medians(|_| 1.0)
    }

    /// Medians over windows of (p50 ms, p99 ms, reads/s) at the
    /// reference speed: each window's latencies divided by its host
    /// factor, its throughput multiplied by it.
    pub fn at_reference(&self) -> (f64, f64, f64) {
        self.medians(|w| w.factor)
    }

    fn medians(&self, factor: impl Fn(&Window) -> f64) -> (f64, f64, f64) {
        let pick =
            |f: &dyn Fn(&Window) -> f64| median(&self.windows.iter().map(f).collect::<Vec<_>>());
        (pick(&|w| w.p50 / factor(w)), pick(&|w| w.p99 / factor(w)), pick(&|w| w.qps * factor(w)))
    }
}

/// The `q`-quantile of write latencies — (acknowledged at s, latency
/// ms) pairs — each divided by the host factor of `host` nearest it;
/// with `host` empty, as measured.
pub fn writes_at_reference(writes: &[(f64, f64)], host: &[(f64, f64)], q: f64) -> f64 {
    let adjusted: Vec<f64> =
        writes.iter().map(|&(at, millis)| millis / crate::calib::factor_at(host, at)).collect();
    quantile(&adjusted, q)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("malformed VmHWM line `{line}`: {e}"))?;
    Ok(kib / 1024.0)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples stand behind it (printed, not exported).
    pub samples: usize,
}

/// The run's outcome: the JSON object of the result line.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// `false` on any mismatch of a served answer.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (error frames, socket errors, timeouts,
    /// mismatches).
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

/// Shortest round-trip text of a finite number (non-finite values,
/// which JSON cannot carry, print as 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

impl Outcome {
    /// The one-line JSON object `{"correct", "attempted", "failed",
    /// "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable lines: every metric with unit and sample count.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for m in &self.metrics {
            let _ =
                writeln!(out, "  {:<36} {:>14.4} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>14.4} {:<6} ({} of {} operations)",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_raw_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50.0));
        assert_eq!(percentile(&sorted, 0.95), Some(95.0));
        assert_eq!(percentile(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.001), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        // Ten samples: p50 is the 5th, p99 rounds up to the 10th.
        let ten: Vec<f64> = (1..=10).map(|v| f64::from(v) * 0.5).collect();
        assert_eq!(percentile(&ten, 0.5), Some(2.5));
        assert_eq!(percentile(&ten, 0.99), Some(5.0));
        // Not a histogram bound: an arbitrary raw value comes back
        // exactly.
        assert_eq!(percentile(&[0.013_37, 0.2, 3.0], 0.34), Some(0.2));
    }

    #[test]
    fn sample_sorts_lazily_and_median_ignores_order() {
        let mut s = Sample::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), 3.0);
        s.push(0.5);
        assert_eq!(s.quantile(0.0001), 0.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn windowed_figures_are_medians_over_windows() {
        // Four 1-second windows; the third is slow and sparse.
        let mut reads = Vec::new();
        for (w, (count, millis)) in
            [(10, 1.0), (12, 1.5), (2, 40.0), (11, 1.2)].into_iter().enumerate()
        {
            for i in 0..count {
                reads.push((w as f64 + i as f64 / 20.0, millis));
            }
        }
        // A straggler completing after the deadline lands in the last
        // window.
        reads.push((4.2, 1.2));
        let w = Windowed::of(&reads, 4.0, 4, &[]);
        assert_eq!(w.windows.len(), 4);
        assert_eq!(w.windows[3].qps, 12.0);
        assert_eq!(w.measured(), (1.2, 1.2, 10.0));
        assert_eq!(w.at_reference(), (1.2, 1.2, 10.0));
    }

    #[test]
    fn reference_speed_divides_latency_and_multiplies_throughput() {
        let reads: Vec<(f64, f64)> = (0..40).map(|i| (f64::from(i) / 10.0, 3.0)).collect();
        // The host ran at half speed for the whole phase.
        let host = [(0.5, 2.0), (1.5, 2.0), (2.5, 2.0), (3.5, 2.0)];
        let w = Windowed::of(&reads, 4.0, 4, &host);
        assert_eq!(w.measured(), (3.0, 3.0, 10.0));
        assert_eq!(w.at_reference(), (1.5, 1.5, 20.0));
        let writes = [(0.4, 30.0), (1.4, 50.0), (3.9, 40.0)];
        assert_eq!(writes_at_reference(&writes, &host, 0.5), 20.0);
        assert_eq!(writes_at_reference(&writes, &[], 1.0), 50.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "setup_s".into(), unit: "s", value: 0.8127, samples: 3 }],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
