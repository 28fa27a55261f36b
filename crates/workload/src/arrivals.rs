//! Release-date (arrival) processes.
//!
//! The paper "sends one thousand tasks" without stating release dates; we
//! support the two natural readings plus a Poisson stream (ablation A3,
//! `ms-lab ablation-arrivals`, compares them on Figure 1(d)):
//!
//! * [`ArrivalProcess::AllAtZero`] — a bag of tasks, the regime of the
//!   bag-of-tasks applications the introduction cites; used for Figure 1;
//! * [`ArrivalProcess::UniformStream`] — deterministic inter-arrival gap
//!   targeting a platform load `ρ` (fraction of the platform's steady-state
//!   throughput); used for Figure 2 where flow-time robustness is only
//!   meaningful when flows are arrival-bound;
//! * [`ArrivalProcess::Poisson`] — exponential gaps at load `ρ`, for the
//!   arrival-regime ablation (A3).

use mss_core::{Platform, TaskArrival};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How task release dates are generated.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ArrivalProcess {
    /// Every task released at `t = 0`.
    AllAtZero,
    /// Constant inter-arrival gap `1 / (ρ · system_throughput)`.
    UniformStream {
        /// Target load `ρ` (1.0 saturates the platform).
        load: f64,
    },
    /// Exponential inter-arrival gaps with the same mean as `UniformStream`.
    Poisson {
        /// Target load `ρ`.
        load: f64,
    },
}

impl ArrivalProcess {
    /// Generates `n` nominal-size tasks on `platform`, reproducibly.
    pub fn generate(self, n: usize, platform: &Platform, seed: u64) -> Vec<TaskArrival> {
        match self {
            ArrivalProcess::AllAtZero => mss_core::bag_of_tasks(n),
            ArrivalProcess::UniformStream { load } => {
                let gap = Self::gap(load, platform);
                (0..n).map(|i| TaskArrival::at(i as f64 * gap)).collect()
            }
            ArrivalProcess::Poisson { load } => {
                let gap = Self::gap(load, platform);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut t = 0.0;
                (0..n)
                    .map(|_| {
                        // Inverse-CDF exponential with mean `gap`.
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        t += -gap * u.ln();
                        TaskArrival::at(t)
                    })
                    .collect()
            }
        }
    }

    /// Mean inter-arrival gap for a target load (also used by
    /// `GeneratedSource` to replay the same process lazily).
    pub(crate) fn gap(load: f64, platform: &Platform) -> f64 {
        assert!(load > 0.0, "load must be positive");
        1.0 / (load * platform.system_throughput())
    }

    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            ArrivalProcess::AllAtZero => "bag(t=0)".into(),
            ArrivalProcess::UniformStream { load } => format!("stream(ρ={load})"),
            ArrivalProcess::Poisson { load } => format!("poisson(ρ={load})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_core::Time;

    fn platform() -> Platform {
        Platform::from_vectors(&[0.5, 0.5], &[2.0, 2.0])
    }

    #[test]
    fn bag_releases_at_zero() {
        let tasks = ArrivalProcess::AllAtZero.generate(5, &platform(), 0);
        assert!(tasks.iter().all(|t| t.release == Time::ZERO));
    }

    #[test]
    fn uniform_stream_targets_load() {
        // system throughput = min(2/2, 1/0.5) = 1 task/s; ρ = 0.5 → gap 2 s.
        let tasks = ArrivalProcess::UniformStream { load: 0.5 }.generate(4, &platform(), 0);
        let releases: Vec<f64> = tasks.iter().map(|t| t.release.as_f64()).collect();
        assert_eq!(releases, vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn poisson_is_reproducible_and_increasing() {
        let a = ArrivalProcess::Poisson { load: 0.9 }.generate(20, &platform(), 11);
        let b = ArrivalProcess::Poisson { load: 0.9 }.generate(20, &platform(), 11);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].release <= w[1].release));
        // Mean gap should be in the right ballpark (1/0.9 ≈ 1.11 s).
        let total = a.last().unwrap().release.as_f64();
        let mean_gap = total / 19.0;
        assert!((0.3..4.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn labels() {
        assert_eq!(ArrivalProcess::AllAtZero.label(), "bag(t=0)");
        assert_eq!(
            ArrivalProcess::UniformStream { load: 0.9 }.label(),
            "stream(ρ=0.9)"
        );
    }
}
