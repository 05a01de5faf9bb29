//! Order statistics and the metric record every workload reports.

/// Type-7 quantile (linear interpolation between order statistics), the
/// rule `gssl_stats` and Python's `statistics.quantiles(method="inclusive")`
/// use. `q` is in `[0, 1]`; an empty sample yields `NaN`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One reported number. `derived` marks a per-layer value that is not the
/// span of a call inside the pipeline: either a layer's public entry point
/// timed on the same inputs outside the pipeline, or a difference of spans.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub derived: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            derived: false,
        }
    }

    pub fn derived(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            derived: true,
            ..Metric::new(name, value, unit)
        }
    }
}

/// What one workload run produced: operation counts, named output checks
/// and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records an output check; a failing check also counts as a failed
    /// operation.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name, ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_type_7() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }
}
