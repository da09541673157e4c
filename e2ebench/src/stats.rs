//! Order statistics over latency samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it. No
/// interpolation, so every reported percentile is a latency that really
/// occurred. An empty sample yields `NaN`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (`percentile(samples, 0.5)`).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The arithmetic mean; `0.0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// One timed operation of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// The window the operation started in.
    pub window: usize,
    /// Its latency (µs).
    pub latency_us: f64,
    /// The loop time it accounts for (s): its latency plus that of the
    /// untimed requests riding along with it.
    pub busy_s: f64,
    /// The host-scale factor taken right before it (`host::scale_now`);
    /// 1 for an operation whose time a timer sets rather than the CPU.
    pub scale: f64,
}

/// A run's typical window: the medians, over its full windows, of each
/// window's throughput and latency percentiles, host-scaled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Typical {
    /// Median of the windows' operations per busy second.
    pub ops_per_s: f64,
    /// Median of the windows' median latencies (µs).
    pub p50_us: f64,
    /// Median of the windows' 90th-percentile latencies (µs).
    pub p90_us: f64,
    /// Full windows the medians are taken over.
    pub windows: usize,
}

/// Groups `ops` by window and takes the median of every per-window
/// figure. Windows holding fewer than half the operations of the fullest
/// one (the run's cut-off tail) are skipped.
///
/// Each operation counts at its host-scaled latency and loop time
/// (times its `scale`), which takes out most of the host's swings in
/// speed; the median window then drops the seconds the scaling missed.
pub fn typical_window(ops: &[Op]) -> Typical {
    let mut windows: std::collections::BTreeMap<usize, Vec<Op>> = Default::default();
    for op in ops {
        windows.entry(op.window).or_default().push(*op);
    }
    let fullest = windows.values().map(Vec::len).max().unwrap_or(0);
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    for window in windows.values().filter(|w| 2 * w.len() >= fullest) {
        let latencies: Vec<f64> = window.iter().map(|op| op.latency_us * op.scale).collect();
        let busy_s: f64 = window.iter().map(|op| op.busy_s * op.scale).sum();
        rates.push(window.len() as f64 / busy_s);
        p50s.push(median(&latencies));
        p90s.push(percentile(&latencies, 0.9));
    }
    Typical {
        ops_per_s: median(&rates),
        p50_us: median(&p50s),
        p90_us: median(&p90s),
        windows: rates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_typical_full_window_is_reported() {
        let op = |window, latency_us: f64| Op {
            window,
            latency_us,
            busy_s: latency_us / 1e6,
            scale: 1.0,
        };
        let mut ops = Vec::new();
        for (window, latency) in [(0, 10.0), (1, 30.0), (2, 20.0)] {
            for k in 0..10 {
                ops.push(op(window, latency + f64::from(k)));
            }
        }
        // A cut-off tail is skipped, however fast.
        ops.push(op(3, 1.0));
        let typical = typical_window(&ops);
        assert_eq!(typical.windows, 3);
        assert_eq!((typical.p50_us, typical.p90_us), (24.0, 28.0));
        assert!((typical.ops_per_s - 1e6 / 24.5).abs() < 1e-6);
        assert!(typical_window(&[]).p50_us.is_nan());

        // A host twice as slow, measured so, reads the same.
        let slow: Vec<Op> = ops
            .iter()
            .map(|o| Op {
                latency_us: 2.0 * o.latency_us,
                busy_s: 2.0 * o.busy_s,
                scale: 0.5,
                ..*o
            })
            .collect();
        assert_eq!(typical_window(&slow), typical);
    }

    #[test]
    fn mean_of_known_vectors() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
