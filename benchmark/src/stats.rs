//! Pass-time statistics.
//!
//! On a shared virtual machine the same pass runs at one of two speeds
//! (about 1.45x apart), and the share of fast passes drifts from minute to
//! minute. A run therefore times many short passes and derives its rate
//! from the fastest one: one fast pass in a run is enough to pin it,
//! whatever the fast share, while the median flips between the two speeds
//! as the share crosses one half. The quartiles and the fast/slow split are
//! printed beside the result so a reader can see the modes.

/// Passes within this factor of the fastest one count as "fast". The two
/// host speeds sit about 1.45x apart, so the cut falls between them.
pub const FAST_CUT: f64 = 1.2;

/// Summary of one run's pass times, in seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct PassStats {
    /// Number of passes timed.
    pub passes: usize,
    /// Fastest pass.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Slowest pass.
    pub max: f64,
    /// Passes within [`FAST_CUT`] of the fastest.
    pub fast: usize,
}

impl PassStats {
    /// Summarizes `times` (seconds); `None` when empty.
    pub fn of(times: &[f64]) -> Option<PassStats> {
        if times.is_empty() {
            return None;
        }
        let mut sorted = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        let min = sorted[0];
        Some(PassStats {
            passes: sorted.len(),
            min,
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            fast: sorted.iter().filter(|&&t| t <= FAST_CUT * min).count(),
        })
    }

    /// One line for the run log.
    pub fn describe(&self) -> String {
        format!(
            "{} samples, s: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}; \
             fast/slow split {}/{} (fast = within {FAST_CUT}x of min)",
            self.passes,
            self.min,
            self.q1,
            self.median,
            self.q3,
            self.max,
            self.fast,
            self.passes - self.fast
        )
    }
}

/// Linear-interpolation quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample (`0.0` when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_split() {
        let s = PassStats::of(&[1.0, 1.5, 1.1, 1.45, 1.5]).unwrap();
        assert_eq!(s.passes, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 1.45);
        assert_eq!(s.max, 1.5);
        assert_eq!(s.fast, 2);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!(PassStats::of(&[]).is_none());
    }
}
