//! Cross-heuristic property tests: every algorithm of the paper produces a
//! valid, complete, deterministic schedule on arbitrary instances, and the
//! structural relationships the paper relies on hold.

use mss_core::{bag_of_tasks, simulate, validate, Algorithm, Platform, SimConfig, TaskArrival};
use mss_sim::Time;
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    // The paper's ranges: c ∈ [0.01, 1], p ∈ [0.1, 8], m up to 5.
    proptest::collection::vec((0.01f64..1.0, 0.1f64..8.0), 1..6).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

fn arb_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec(0.0f64..30.0, 1..30).prop_map(|mut rs| {
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rs.into_iter().map(TaskArrival::at).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_produce_valid_traces(platform in arb_platform(), tasks in arb_tasks()) {
        let cfg = SimConfig::with_horizon(tasks.len());
        for a in Algorithm::ALL {
            let trace = simulate(&platform, &tasks, &cfg, &mut a.build())
                .unwrap_or_else(|e| panic!("{a} failed: {e}"));
            let violations = validate(&trace, &platform);
            prop_assert!(violations.is_empty(), "{}: {:?}", a, violations);
            prop_assert_eq!(trace.len(), tasks.len());
        }
    }

    #[test]
    fn all_algorithms_are_deterministic(platform in arb_platform(), tasks in arb_tasks()) {
        let cfg = SimConfig::with_horizon(tasks.len());
        for a in Algorithm::ALL {
            let t1 = simulate(&platform, &tasks, &cfg, &mut a.build()).unwrap();
            let t2 = simulate(&platform, &tasks, &cfg, &mut a.build()).unwrap();
            prop_assert_eq!(t1, t2, "{} not replayable", a);
        }
    }

    #[test]
    fn rr_variants_coincide_on_fully_homogeneous(
        m in 1usize..6, c in 0.01f64..1.0, p in 0.1f64..8.0, n in 1usize..40
    ) {
        // With a single (c, p) all three orderings are the identity, so the
        // three RR variants must produce identical traces.
        let platform = Platform::homogeneous(m, c, p);
        let tasks = bag_of_tasks(n);
        let cfg = SimConfig::with_horizon(n);
        let rr = simulate(&platform, &tasks, &cfg, &mut Algorithm::RoundRobin.build()).unwrap();
        let rrc = simulate(&platform, &tasks, &cfg, &mut Algorithm::RoundRobinComm.build()).unwrap();
        let rrp = simulate(&platform, &tasks, &cfg, &mut Algorithm::RoundRobinProc.build()).unwrap();
        prop_assert_eq!(&rr, &rrc);
        prop_assert_eq!(&rr, &rrp);
    }

    #[test]
    fn statics_beat_srpt_on_homogeneous_bags(
        m in 2usize..6, c in 0.05f64..0.5, pmul in 4.0f64..10.0, n in 20usize..60
    ) {
        // Figure 1(a): on homogeneous platforms with p > m·c (compute-bound)
        // the pipelining statics beat SRPT on makespan. The flooding
        // planners (LS, SLJF, SLJFWC — provably optimal here) win strictly;
        // the buffer-bounded RR family can pay a one-task end-game penalty
        // on *small* bags (proptest found n = 20, m = 5, where RR trails
        // SRPT by ~1 %), so it gets a matching tolerance — at the paper's
        // n = 1000 the gap vanishes (`tests/paper_claims.rs::
        // fig1a_statics_equal_and_beat_srpt` asserts a clear win there).
        let p = c * pmul * m as f64;
        let platform = Platform::homogeneous(m, c, p);
        let tasks = bag_of_tasks(n);
        let cfg = SimConfig::with_horizon(n);
        let srpt = simulate(&platform, &tasks, &cfg, &mut Algorithm::Srpt.build()).unwrap();
        for a in [Algorithm::ListScheduling, Algorithm::Sljf, Algorithm::Sljfwc] {
            let t = simulate(&platform, &tasks, &cfg, &mut a.build()).unwrap();
            prop_assert!(
                t.makespan() < srpt.makespan() + 1e-9,
                "{} makespan {} vs SRPT {}", a, t.makespan(), srpt.makespan()
            );
        }
        let rr = simulate(&platform, &tasks, &cfg, &mut Algorithm::RoundRobin.build()).unwrap();
        prop_assert!(
            rr.makespan() < srpt.makespan() * (1.0 + p / (n as f64 * p / m as f64)),
            "RR makespan {} vs SRPT {} beyond the end-game allowance",
            rr.makespan(), srpt.makespan()
        );
    }

    #[test]
    fn makespan_never_below_trivial_lower_bounds(
        platform in arb_platform(), n in 1usize..30
    ) {
        // Any schedule: the k-th send cannot complete before k·min_c, and
        // every task needs c_j + p_j somewhere, so
        // makespan >= max(n·min_c, min_j(c_j + p_j)).
        let tasks = bag_of_tasks(n);
        let cfg = SimConfig::with_horizon(n);
        let min_c = platform.iter().map(|(_, s)| s.c).fold(f64::INFINITY, f64::min);
        let min_cp = platform.iter().map(|(_, s)| s.c + s.p).fold(f64::INFINITY, f64::min);
        let lb = (n as f64 * min_c).max(min_cp);
        for a in Algorithm::ALL {
            let t = simulate(&platform, &tasks, &cfg, &mut a.build()).unwrap();
            prop_assert!(
                t.makespan() >= lb - 1e-9,
                "{} beat the physical lower bound: {} < {}", a, t.makespan(), lb
            );
        }
    }

    #[test]
    fn flows_dominated_by_makespan_for_bags(platform in arb_platform(), n in 1usize..20) {
        // With all releases at 0: max-flow == makespan and
        // sum-flow <= n · makespan.
        let tasks = bag_of_tasks(n);
        let cfg = SimConfig::with_horizon(n);
        for a in Algorithm::ALL {
            let t = simulate(&platform, &tasks, &cfg, &mut a.build()).unwrap();
            prop_assert!((t.max_flow() - t.makespan()).abs() < 1e-9);
            prop_assert!(t.sum_flow() <= n as f64 * t.makespan() + 1e-6);
        }
    }

    #[test]
    fn srpt_tasks_start_on_receipt(platform in arb_platform(), tasks in arb_tasks()) {
        // SRPT's defining property: it only targets idle slaves, so every
        // task starts computing the moment it is fully received.
        let cfg = SimConfig::default();
        let trace = simulate(&platform, &tasks, &cfg, &mut Algorithm::Srpt.build()).unwrap();
        for r in trace.records() {
            prop_assert!(Time::approx_eq(r.compute_start, r.send_end));
        }
    }
}
