//! The catalogue of the paper's seven on-line algorithms (§4.1).
//!
//! An algorithm's discriminant is its paper figure index minus one, and
//! its display name is one `match` arm; a unit test pins both against the
//! built scheduler instances so they can never drift apart. What a
//! scheduler promises the engine (`poll_driven`, `min_tier`) is asked of
//! the built instance.

use crate::heuristics::{ListScheduling, Planned, RoundRobin, Srpt};
use mss_sim::OnlineScheduler;
use std::fmt;

/// One of the seven algorithms compared in the paper's experiments, in the
/// order of its figures (1 = SRPT … 7 = SLJFWC).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// Dynamic baseline: fastest free slave, no queueing.
    Srpt,
    /// List Scheduling: eager earliest-estimated-completion.
    ListScheduling,
    /// Round Robin ordered by `p_j + c_j`.
    RoundRobin,
    /// Round Robin ordered by `c_j`.
    RoundRobinComm,
    /// Round Robin ordered by `p_j`.
    RoundRobinProc,
    /// Scheduling the Last Job First.
    Sljf,
    /// Scheduling the Last Job First With Communication.
    Sljfwc,
}

impl Algorithm {
    /// All seven, in the paper's figure order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Srpt,
        Algorithm::ListScheduling,
        Algorithm::RoundRobin,
        Algorithm::RoundRobinComm,
        Algorithm::RoundRobinProc,
        Algorithm::Sljf,
        Algorithm::Sljfwc,
    ];

    /// The algorithm's display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Srpt => "SRPT",
            Algorithm::ListScheduling => "LS",
            Algorithm::RoundRobin => "RR",
            Algorithm::RoundRobinComm => "RRC",
            Algorithm::RoundRobinProc => "RRP",
            Algorithm::Sljf => "SLJF",
            Algorithm::Sljfwc => "SLJFWC",
        }
    }

    /// Its 1-based index in the paper's figures (`self as usize + 1`).
    pub fn figure_index(self) -> usize {
        self as usize + 1
    }

    /// Builds a fresh scheduler instance. Every instance is deterministic
    /// and independent, so adversary games can replay runs from scratch.
    pub fn build(self) -> Box<dyn OnlineScheduler> {
        match self {
            Algorithm::Srpt => Box::new(Srpt::new()),
            Algorithm::ListScheduling => Box::new(ListScheduling),
            Algorithm::RoundRobin => Box::new(RoundRobin::rr()),
            Algorithm::RoundRobinComm => Box::new(RoundRobin::rrc()),
            Algorithm::RoundRobinProc => Box::new(RoundRobin::rrp()),
            Algorithm::Sljf => Box::new(Planned::sljf()),
            Algorithm::Sljfwc => Box::new(Planned::sljfwc()),
        }
    }

    /// Parses a paper name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::{bag_of_tasks, simulate, validate, Platform, SimConfig};

    #[test]
    fn names_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(a.name()), Some(a));
            assert_eq!(Algorithm::from_name(&a.name().to_lowercase()), Some(a));
        }
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn figure_indices_are_1_to_7() {
        let idx: Vec<_> = Algorithm::ALL.iter().map(|a| a.figure_index()).collect();
        assert_eq!(idx, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn table_matches_built_schedulers() {
        // `ALL` lists the algorithms in figure order, and each name agrees
        // with what its built scheduler instance declares.
        for (i, a) in Algorithm::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "ALL must follow the discriminants");
            assert_eq!(a.figure_index(), i + 1);
            assert_eq!(a.build().name(), a.name());
        }
    }

    #[test]
    fn every_algorithm_completes_and_validates() {
        let pf = Platform::from_vectors(&[0.4, 1.0, 0.2], &[2.0, 5.0, 7.0]);
        let tasks = bag_of_tasks(25);
        for a in Algorithm::ALL {
            let mut sched = a.build();
            assert_eq!(sched.name(), a.name());
            let trace = simulate(
                &pf,
                &tasks,
                &SimConfig::with_horizon(tasks.len()),
                &mut sched,
            )
            .unwrap_or_else(|e| panic!("{a} failed: {e}"));
            let violations = validate(&trace, &pf);
            assert!(violations.is_empty(), "{a}: {violations:?}");
            assert_eq!(trace.len(), tasks.len());
        }
    }

    #[test]
    fn builds_are_independent() {
        // Two instances of the same planned algorithm must not share state.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let t1 = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut Algorithm::Sljf.build(),
        )
        .unwrap();
        let t2 = simulate(
            &pf,
            &bag_of_tasks(3),
            &SimConfig::default(),
            &mut Algorithm::Sljf.build(),
        )
        .unwrap();
        assert_eq!(t1, t2);
    }
}
