//! Order statistics over recorded samples, and the server's exported
//! histograms read back from its Prometheus text.

use std::collections::BTreeMap;

/// Nearest-rank `q`-quantile of an ascending slice; 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One fixed-bucket latency histogram as the server exports it.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Finite upper bucket bounds, microseconds, ascending.
    bounds_us: Vec<f64>,
    /// Observations per finite bucket (not cumulative).
    counts: Vec<u64>,
    /// Total observations, the `+Inf` overflow included.
    pub count: u64,
    /// Sum of all observations, microseconds.
    sum_us: f64,
}

impl Hist {
    /// The observations recorded after `earlier` was taken (histograms
    /// only grow, so the bucket-wise difference is exact).
    pub fn since(&self, earlier: &Hist) -> Hist {
        let counts = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &n)| n.saturating_sub(earlier.counts.get(i).copied().unwrap_or(0)))
            .collect();
        Hist {
            bounds_us: self.bounds_us.clone(),
            counts,
            count: self.count.saturating_sub(earlier.count),
            sum_us: (self.sum_us - earlier.sum_us).max(0.0),
        }
    }

    /// Mean observation, microseconds (exact: from the exported sum).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// The `q`-quantile in microseconds, interpolated inside the bucket
    /// holding the target rank — the estimator the server's own registry
    /// uses, so these figures agree with what `monityre obs` shows.
    /// Overflow observations report the largest finite bound.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds_us.is_empty() {
            return 0.0;
        }
        let target = (self.count as f64 * q).max(1.0);
        let mut seen = 0.0;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n as f64;
            if next >= target {
                let hi = self.bounds_us[idx];
                let lo = if idx == 0 {
                    0.0
                } else {
                    self.bounds_us[idx - 1]
                };
                return lo + (hi - lo) * (target - seen) / n as f64;
            }
            seen = next;
        }
        self.bounds_us[self.bounds_us.len() - 1]
    }
}

/// The histograms of a parsed Prometheus exposition, keyed by their
/// exported (sanitized) names.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    hists: BTreeMap<String, Hist>,
}

/// The exported name of a registry metric: `monityre_` + the name with
/// every character outside `[A-Za-z0-9_]` replaced by `_`.
fn exported(name: &str) -> String {
    let body: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("monityre_{body}")
}

impl Exposition {
    /// Parses the text of the `metrics` op (counters and gauges are
    /// skipped).
    pub fn parse(text: &str) -> Exposition {
        let mut out = Exposition::default();
        let mut cumulative: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            // Drop an OpenMetrics exemplar suffix before splitting.
            let line = line.split(" # ").next().unwrap_or(line);
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((name, rest)) = key.split_once("_seconds_bucket{le=\"") {
                let le = rest.trim_end_matches("\"}");
                if let Ok(le_s) = le.parse::<f64>() {
                    cumulative
                        .entry(name.to_owned())
                        .or_default()
                        .push((le_s * 1e6, value as u64));
                }
            } else if let Some(name) = key.strip_suffix("_seconds_sum") {
                out.hists.entry(name.to_owned()).or_default().sum_us = value * 1e6;
            } else if let Some(name) = key.strip_suffix("_seconds_count") {
                out.hists.entry(name.to_owned()).or_default().count = value as u64;
            }
        }
        for (name, mut buckets) in cumulative {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let hist = out.hists.entry(name).or_default();
            let mut previous = 0;
            for (le_us, total) in buckets {
                hist.bounds_us.push(le_us);
                hist.counts.push(total.saturating_sub(previous));
                previous = total;
            }
        }
        out
    }

    /// The histogram registered as `name` (empty when never recorded).
    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(&exported(name)).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn exposition_round_trips_the_registry_estimator() {
        let registry = monityre_obs::Registry::new();
        let hist = registry.histogram("serve.queue_wait");
        for us in [15, 15, 30, 70, 700, 4_000] {
            hist.record(std::time::Duration::from_micros(us));
        }
        let snapshot = registry.snapshot();
        let parsed = Exposition::parse(&snapshot.to_prometheus());
        let ours = parsed.hist("serve.queue_wait");
        let theirs = &snapshot.histograms[0];
        assert_eq!(ours.count, 6);
        assert!((ours.quantile_us(0.5) - theirs.p50_us).abs() < 1e-9);
        assert!((ours.quantile_us(0.99) - theirs.p99_us).abs() < 1e-9);
        assert!((ours.mean_us() - 4_830.0 / 6.0).abs() < 1e-6);
        let later = ours.since(&Hist::default());
        assert_eq!(later.count, 6);
    }
}
