//! The benchmark's own statistics: percentiles, the tail choice, failure
//! accounting and per-operation memory growth.

/// The `p`-quantile (0..=1) of `sorted` by nearest rank on `(n-1)·p`.
/// `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of an unsorted sample (a copy is sorted).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples, with
/// the percentile taken by [`quantile`]'s rank.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    if n == 0 {
        return 0;
    }
    let idx = ((n - 1) as f64 * f64::from(pct) / 100.0).round() as usize;
    n - 1 - idx
}

/// The highest of p99/p95/p90 that leaves at least ten samples beyond it
/// when `n` samples are expected, or `None` when even p90 does not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99, 95, 90]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Hypervisor steal (ticks) in each of `windows` equal windows of
/// `[0, span_s)`, from `(second, cumulative steal ticks)` samples taken
/// during the phase. A boundary reads the last sample at or before it.
pub fn window_steal(samples: &[(f64, u64)], span_s: f64, windows: usize) -> Vec<u64> {
    let at = |t: f64| -> u64 {
        samples
            .iter()
            .rev()
            .find(|s| s.0 <= t)
            .or(samples.first())
            .map_or(0, |s| s.1)
    };
    (0..windows)
        .map(|w| {
            let lo = span_s * w as f64 / windows as f64;
            let hi = span_s * (w + 1) as f64 / windows as f64;
            at(hi).saturating_sub(at(lo))
        })
        .collect()
}

/// Mark the `keep` windows with the least steal (earlier windows win
/// ties), so every run is measured over the same length of time.
pub fn quietest(steal: &[u64], keep: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&w| (steal[w], w));
    let mut kept = vec![false; steal.len()];
    for &w in order.iter().take(keep) {
        kept[w] = true;
    }
    kept
}

/// End-to-end figures of the samples that completed in kept windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Figures {
    /// Completions per second of kept time.
    pub ops_per_s: f64,
    /// Median latency, in the samples' unit.
    pub p50: f64,
    /// The `tail` quantile of latency, in the samples' unit.
    pub tail: f64,
    /// Flops per second of kept time.
    pub flops_per_s: f64,
    /// Samples in the kept windows.
    pub samples: usize,
}

/// Split `[0, span_s)` into `kept.len()` equal windows and pool every
/// `(completion second, latency, flops)` sample that completed in a kept
/// window.
pub fn figures(done: &[(f64, f64, f64)], span_s: f64, kept: &[bool], tail: f64) -> Figures {
    let windows = kept.len();
    let width = span_s / windows as f64;
    let mut lat = Vec::new();
    let mut flops = 0.0;
    for &(t, us, f) in done {
        let w = ((t / width) as usize).min(windows - 1);
        if kept[w] {
            lat.push(us);
            flops += f;
        }
    }
    lat.sort_by(f64::total_cmp);
    let secs = width * kept.iter().filter(|k| **k).count() as f64;
    let q = |p: f64| {
        if lat.is_empty() {
            f64::NAN
        } else {
            quantile(&lat, p)
        }
    };
    Figures {
        ops_per_s: lat.len() as f64 / secs,
        p50: q(0.5),
        tail: q(tail),
        flops_per_s: flops / secs,
        samples: lat.len(),
    }
}

/// Outcome counts of one phase. A refusal (backpressure) and a wrong
/// answer both count as failed, exactly like a typed error.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that returned a typed error.
    pub errors: u64,
    /// Operations the server refused with backpressure.
    pub refused: u64,
    /// Operations that returned an answer the oracle rejected.
    pub wrong: u64,
}

impl Tally {
    /// Every operation that did not deliver a verified answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.wrong
    }

    /// Operations that delivered a verified answer.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// Share of attempted operations that failed (0 when none attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Fold another phase's counts into this one.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.refused += o.refused;
        self.wrong += o.wrong;
    }
}

/// Resident-set growth over a phase, per completed operation, in KB.
/// Operations that failed are not in the denominator: memory they pinned
/// is charged to the work that succeeded.
pub fn rss_kb_per_op(rss_before_kb: u64, rss_after_kb: u64, completed: u64) -> f64 {
    (rss_after_kb as f64 - rss_before_kb as f64) / completed.max(1) as f64
}

/// `VmRSS` and `VmHWM` of this process, in KB, from `/proc/self/status`.
pub fn rss_hwm_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Ticks (1/100 s) the hypervisor has taken from all of this machine's
/// CPUs since boot: the `steal` column of `/proc/stat`.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// An integer field of a one-line stats JSON, taken at the first
/// occurrence of `"key":` at or after byte `from`.
pub fn json_num(json: &str, key: &str, from: usize) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json[from..].find(&pat)? + from + pat.len();
    let digits: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5000), Some(99));
        // 952 samples: the p99 rank is 941, leaving 10 beyond; one fewer
        // sample leaves 9, so p95 is the highest the sample supports.
        assert_eq!(samples_beyond(952, 99), 10);
        assert_eq!(tail_percentile(952), Some(99));
        assert_eq!(samples_beyond(951, 99), 9);
        assert_eq!(tail_percentile(951), Some(95));
        assert_eq!(tail_percentile(192), Some(95));
        assert_eq!(tail_percentile(191), Some(90));
        assert_eq!(samples_beyond(97, 90), 10);
        assert_eq!(tail_percentile(97), Some(90));
        assert_eq!(tail_percentile(96), None);
        assert_eq!(tail_percentile(0), None);
        // Every choice the function makes really has ten samples beyond.
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn steal_is_split_at_window_boundaries() {
        // Cumulative ticks sampled every half second over 4 s.
        let samples: Vec<(f64, u64)> = [0, 0, 1, 1, 5, 9, 9, 9, 9]
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as f64 * 0.5, 100 + s))
            .collect();
        assert_eq!(window_steal(&samples, 4.0, 4), vec![1, 4, 4, 0]);
        // Before the first sample, the first sample stands in.
        assert_eq!(window_steal(&samples[2..], 4.0, 2), vec![4, 4]);
        assert_eq!(window_steal(&[], 4.0, 2), vec![0, 0]);
    }

    #[test]
    fn the_quietest_windows_are_kept_and_ties_go_to_the_earlier() {
        assert_eq!(
            quietest(&[5, 0, 9, 0, 1, 0], 3),
            vec![false, true, false, true, false, true]
        );
        assert_eq!(quietest(&[0, 0, 0, 0], 2), vec![true, true, false, false]);
    }

    #[test]
    fn figures_pool_the_samples_of_kept_windows() {
        // Four one-second windows; the second is stalled and dropped.
        let mut done = Vec::new();
        for w in 0..4 {
            let n = if w == 1 { 2 } else { 10 };
            for i in 0..n {
                let lat = if w == 1 { 900.0 } else { 100.0 + i as f64 };
                done.push((w as f64 + (i as f64 + 0.5) / n as f64, lat, 2.0));
            }
        }
        let f = figures(&done, 4.0, &[true, false, true, true], 0.9);
        assert_eq!(f.samples, 30);
        assert_eq!(f.ops_per_s, 10.0);
        assert_eq!(f.flops_per_s, 20.0);
        assert_eq!(f.p50, 105.0);
        assert_eq!(f.tail, 108.0);
        // A sample completing at the very end lands in the last window.
        let edge = figures(&[(4.0, 5.0, 1.0)], 4.0, &[false, true], 0.5);
        assert_eq!(edge.p50, 5.0);
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn refusals_and_wrong_answers_count_as_failed() {
        let t = Tally {
            attempted: 100,
            errors: 1,
            refused: 2,
            wrong: 3,
        };
        assert_eq!(t.failed(), 6);
        assert_eq!(t.completed(), 94);
        assert!((t.failed_frac() - 0.06).abs() < 1e-15);
        let mut sum = Tally::default();
        assert_eq!(sum.failed_frac(), 0.0);
        sum.add(&t);
        sum.add(&Tally {
            attempted: 100,
            ..Tally::default()
        });
        assert_eq!(sum.attempted, 200);
        assert!((sum.failed_frac() - 0.03).abs() < 1e-15);
    }

    #[test]
    fn rss_growth_is_normalised_by_completed_operations() {
        assert_eq!(rss_kb_per_op(1000, 9000, 1000), 8.0);
        // Twice the throughput with the same retention per job reads the
        // same per-op figure.
        assert_eq!(rss_kb_per_op(1000, 17000, 2000), 8.0);
        // Shrinkage is reported as such, and zero completions never divide
        // by zero.
        assert_eq!(rss_kb_per_op(5000, 4000, 100), -10.0);
        assert_eq!(rss_kb_per_op(0, 10, 0), 10.0);
    }

    #[test]
    fn json_fields_are_found_after_an_offset() {
        let s = r#"{"jobs_done":12,"store":{"hits":3,"bytes":4096},"nodes":[{"jobs_done":7}]}"#;
        assert_eq!(json_num(s, "jobs_done", 0), Some(12.0));
        assert_eq!(json_num(s, "hits", 0), Some(3.0));
        let nodes = s.find("\"nodes\"").unwrap();
        assert_eq!(json_num(s, "jobs_done", nodes), Some(7.0));
        assert_eq!(json_num(s, "missing", 0), None);
    }
}
