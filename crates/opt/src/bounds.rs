//! Cheap, certified lower bounds on the offline optimum.
//!
//! Used where the exhaustive optimizer is too expensive (experiment-sized
//! instances): the lab reports measured objective values next to these
//! bounds, and property tests check `LB ≤ OPT` on small instances.

use crate::schedule::Instance;

/// Lower bound on the optimal makespan of `inst`:
///
/// * **per-task**: some task must be fully handled:
///   `max_i (r_i + min_j (c_j + p_j))`;
/// * **one-port**: order releases increasingly; among any `k` last-released
///   tasks, the first of their sends cannot start before `r_{(n-k)}` and the
///   `k` sends serialize at `min_j c_j` each, and the last of them still
///   computes for at least `min_j p_j`:
///   `max_k (r_{(n-k)} + k·min_c + min_p)`;
/// * **work**: even with perfect load balance the total computation takes
///   `n / Σ(1/p_j)`, and no computation starts before `min_c`:
///   `min_c + n / Σ(1/p_j)` (tasks are unit-size and slaves serial).
pub fn makespan_lower_bound(inst: &Instance<f64>) -> f64 {
    inst.check();
    let n = inst.num_tasks();
    if n == 0 {
        return 0.0;
    }
    let min_c = inst.c.iter().copied().fold(f64::INFINITY, f64::min);
    let min_p = inst.p.iter().copied().fold(f64::INFINITY, f64::min);
    let min_cp = inst
        .c
        .iter()
        .zip(&inst.p)
        .map(|(&c, &p)| c + p)
        .fold(f64::INFINITY, f64::min);

    let mut sorted = inst.r.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let per_task = sorted.last().unwrap() + min_cp;

    let mut one_port: f64 = 0.0;
    for k in 1..=n {
        let tail_start = sorted[n - k];
        one_port = one_port.max(tail_start + k as f64 * min_c + min_p);
    }

    let throughput: f64 = inst.p.iter().map(|&p| 1.0 / p).sum();
    let work = sorted[0] + min_c + n as f64 / throughput;

    per_task.max(one_port).max(work)
}

/// Lower bound on the optimal max-flow: every task spends at least
/// `min_j (c_j + p_j)` in the system.
pub fn max_flow_lower_bound(inst: &Instance<f64>) -> f64 {
    if inst.num_tasks() == 0 {
        return 0.0;
    }
    inst.c
        .iter()
        .zip(&inst.p)
        .map(|(&c, &p)| c + p)
        .fold(f64::INFINITY, f64::min)
}

/// Lower bound on the optimal sum-flow: `n · min_j (c_j + p_j)` plus the
/// serialization of sends — when `k` tasks are released simultaneously, the
/// `i`-th of them (any order) waits at least `(i−1)·min_c` before its send
/// completes. We use the conservative simultaneous-release term only for
/// tasks sharing a release time.
pub fn sum_flow_lower_bound(inst: &Instance<f64>) -> f64 {
    let n = inst.num_tasks();
    if n == 0 {
        return 0.0;
    }
    let min_c = inst.c.iter().copied().fold(f64::INFINITY, f64::min);
    let min_cp = inst
        .c
        .iter()
        .zip(&inst.p)
        .map(|(&c, &p)| c + p)
        .fold(f64::INFINITY, f64::min);

    let base = n as f64 * min_cp;

    // Group identical release times; the i-th of a k-group adds (i-1)·min_c.
    let mut sorted = inst.r.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut extra = 0.0;
    let mut group = 1usize;
    for w in sorted.windows(2) {
        if (w[1] - w[0]).abs() < 1e-12 {
            extra += group as f64 * min_c;
            group += 1;
        } else {
            group = 1;
        }
    }
    base + extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::best_f64;
    use crate::schedule::Goal;

    fn instances() -> Vec<Instance<f64>> {
        vec![
            Instance {
                c: vec![1.0, 1.0],
                p: vec![3.0, 7.0],
                r: vec![0.0, 1.0, 2.0],
            },
            Instance {
                c: vec![1.0, 2.0],
                p: vec![3.0, 3.0],
                r: vec![0.0, 2.0, 2.0, 2.0],
            },
            Instance {
                c: vec![0.3, 0.8, 0.5],
                p: vec![1.5, 0.9, 2.2],
                r: vec![0.0, 0.0, 0.4, 1.1],
            },
            Instance {
                c: vec![0.5],
                p: vec![2.0],
                r: vec![0.0, 0.0, 0.0, 0.0, 0.0],
            },
        ]
    }

    #[test]
    fn bounds_never_exceed_exhaustive_optimum() {
        for inst in instances() {
            let mk = best_f64(&inst, Goal::Makespan).value;
            let mf = best_f64(&inst, Goal::MaxFlow).value;
            let sf = best_f64(&inst, Goal::SumFlow).value;
            assert!(
                makespan_lower_bound(&inst) <= mk + 1e-9,
                "makespan LB {} > OPT {mk}",
                makespan_lower_bound(&inst)
            );
            assert!(max_flow_lower_bound(&inst) <= mf + 1e-9);
            assert!(sum_flow_lower_bound(&inst) <= sf + 1e-9);
        }
    }

    #[test]
    fn one_port_term_bites() {
        // 5 tasks at t=0 on one slave with c=1, p=0.1: the port serializes:
        // LB ≥ 5·1 + 0.1.
        let inst = Instance {
            c: vec![1.0],
            p: vec![0.1],
            r: vec![0.0; 5],
        };
        assert!(makespan_lower_bound(&inst) >= 5.1 - 1e-12);
    }

    #[test]
    fn work_term_bites() {
        // 8 tasks, two slaves p = 2 → ≥ 8/(1) = 8 seconds of balanced work.
        let inst = Instance {
            c: vec![0.01, 0.01],
            p: vec![2.0, 2.0],
            r: vec![0.0; 8],
        };
        assert!(makespan_lower_bound(&inst) >= 8.0);
    }

    #[test]
    fn empty_instances_are_zero() {
        let inst = Instance {
            c: vec![1.0],
            p: vec![1.0],
            r: vec![],
        };
        assert_eq!(makespan_lower_bound(&inst), 0.0);
        assert_eq!(max_flow_lower_bound(&inst), 0.0);
        assert_eq!(sum_flow_lower_bound(&inst), 0.0);
    }
}
