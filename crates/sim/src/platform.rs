//! The master–slave platform model.
//!
//! A platform is a master plus `m` slaves `P_1 … P_m`; slave `j` is fully
//! described by `c_j` (time for the master to push one unit-size task down
//! `j`'s link) and `p_j` (time for `j` to execute one unit-size task). The
//! master communicates under the **one-port model**: at most one send is in
//! flight at any instant (enforced by the engine, re-checked by the
//! validator).

use std::fmt;

/// Index of a slave processor (`P_{0} … P_{m−1}`; the paper numbers from 1).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct SlaveId(pub usize);

impl fmt::Debug for SlaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0 + 1)
    }
}

impl fmt::Display for SlaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0 + 1)
    }
}

/// One slave's characteristics for unit-size tasks.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SlaveSpec {
    /// Communication time: seconds for the master to send one task.
    pub c: f64,
    /// Computation time: seconds for the slave to execute one task.
    pub p: f64,
}

/// Which of the paper's platform classes a platform belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PlatformClass {
    /// All `c_j` equal and all `p_j` equal.
    Homogeneous,
    /// All `c_j` equal, heterogeneous `p_j` (paper §3.2).
    CommHomogeneous,
    /// All `p_j` equal, heterogeneous `c_j` (paper §3.3).
    CompHomogeneous,
    /// Both heterogeneous (paper §3.4).
    Heterogeneous,
}

impl fmt::Display for PlatformClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlatformClass::Homogeneous => "homogeneous",
            PlatformClass::CommHomogeneous => "communication-homogeneous",
            PlatformClass::CompHomogeneous => "computation-homogeneous",
            PlatformClass::Heterogeneous => "fully heterogeneous",
        };
        f.write_str(s)
    }
}

/// A master–slave platform: the ordered list of slave specs.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Platform {
    slaves: Vec<SlaveSpec>,
}

impl Platform {
    /// Builds a platform from per-slave specs.
    ///
    /// # Panics
    /// Panics if there is no slave or any `c_j`/`p_j` is not strictly
    /// positive and finite.
    pub fn new(slaves: Vec<SlaveSpec>) -> Self {
        assert!(
            !slaves.is_empty(),
            "Platform::new: at least one slave required"
        );
        for (j, s) in slaves.iter().enumerate() {
            assert!(
                s.c.is_finite() && s.c > 0.0 && s.p.is_finite() && s.p > 0.0,
                "Platform::new: slave {j} has non-positive or non-finite spec {s:?}"
            );
        }
        Platform { slaves }
    }

    /// Builds a platform from parallel `c` and `p` vectors.
    pub fn from_vectors(c: &[f64], p: &[f64]) -> Self {
        assert_eq!(c.len(), p.len(), "Platform::from_vectors: length mismatch");
        Platform::new(c.iter().zip(p).map(|(&c, &p)| SlaveSpec { c, p }).collect())
    }

    /// Builds a fully homogeneous platform of `m` identical slaves.
    pub fn homogeneous(m: usize, c: f64, p: f64) -> Self {
        Platform::new(vec![SlaveSpec { c, p }; m])
    }

    /// Number of slaves `m`.
    pub fn num_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// Communication time of slave `j`.
    pub fn c(&self, j: SlaveId) -> f64 {
        self.slaves[j.0].c
    }

    /// Computation time of slave `j`.
    pub fn p(&self, j: SlaveId) -> f64 {
        self.slaves[j.0].p
    }

    /// Spec of slave `j`.
    pub fn slave(&self, j: SlaveId) -> SlaveSpec {
        self.slaves[j.0]
    }

    /// Every slave's spec, in index order (the dense column one-pass
    /// decisions read).
    pub(crate) fn specs(&self) -> &[SlaveSpec] {
        &self.slaves
    }

    /// Iterates over `(SlaveId, SlaveSpec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlaveId, SlaveSpec)> + '_ {
        self.slaves
            .iter()
            .enumerate()
            .map(|(j, &s)| (SlaveId(j), s))
    }

    /// All slave ids, in index order.
    pub fn slave_ids(&self) -> impl Iterator<Item = SlaveId> {
        (0..self.num_slaves()).map(SlaveId)
    }

    /// Classifies the platform, treating values within `rel_eps` (relative)
    /// as equal.
    pub fn classify_with(&self, rel_eps: f64) -> PlatformClass {
        let close = |a: f64, b: f64| (a - b).abs() <= rel_eps * a.abs().max(b.abs());
        let c0 = self.slaves[0].c;
        let p0 = self.slaves[0].p;
        let comm_homog = self.slaves.iter().all(|s| close(s.c, c0));
        let comp_homog = self.slaves.iter().all(|s| close(s.p, p0));
        match (comm_homog, comp_homog) {
            (true, true) => PlatformClass::Homogeneous,
            (true, false) => PlatformClass::CommHomogeneous,
            (false, true) => PlatformClass::CompHomogeneous,
            (false, false) => PlatformClass::Heterogeneous,
        }
    }

    /// Classifies with the default tolerance (`1e-12` relative).
    pub fn classify(&self) -> PlatformClass {
        self.classify_with(1e-12)
    }

    /// Aggregate steady-state task throughput `Σ 1/p_j` (tasks per second),
    /// an upper bound that ignores communications.
    pub fn compute_throughput(&self) -> f64 {
        self.slaves.iter().map(|s| 1.0 / s.p).sum()
    }

    /// Steady-state throughput bound including the one-port constraint:
    /// `min(Σ 1/p_j, 1/min_j c_j)`. The master cannot push more than one task
    /// per `min c_j` seconds even with infinitely fast slaves.
    pub fn system_throughput(&self) -> f64 {
        let min_c = self
            .slaves
            .iter()
            .map(|s| s.c)
            .fold(f64::INFINITY, f64::min);
        self.compute_throughput().min(1.0 / min_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_all_classes() {
        let homog = Platform::homogeneous(3, 1.0, 4.0);
        assert_eq!(homog.classify(), PlatformClass::Homogeneous);

        let comm = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        assert_eq!(comm.classify(), PlatformClass::CommHomogeneous);

        let comp = Platform::from_vectors(&[1.0, 2.0], &[5.0, 5.0]);
        assert_eq!(comp.classify(), PlatformClass::CompHomogeneous);

        let het = Platform::from_vectors(&[1.0, 2.0], &[5.0, 6.0]);
        assert_eq!(het.classify(), PlatformClass::Heterogeneous);
    }

    #[test]
    fn accessors() {
        let pf = Platform::from_vectors(&[1.0, 2.0], &[3.0, 7.0]);
        assert_eq!(pf.num_slaves(), 2);
        assert_eq!(pf.c(SlaveId(1)), 2.0);
        assert_eq!(pf.p(SlaveId(0)), 3.0);
        assert_eq!(pf.slave_ids().count(), 2);
    }

    #[test]
    fn throughput_bounds() {
        let pf = Platform::from_vectors(&[0.5, 1.0], &[2.0, 2.0]);
        assert!((pf.compute_throughput() - 1.0).abs() < 1e-12);
        // One-port cap: 1 / 0.5 = 2 tasks/s > compute throughput 1.0.
        assert!((pf.system_throughput() - 1.0).abs() < 1e-12);

        let comm_bound = Platform::from_vectors(&[2.0, 2.0], &[1.0, 1.0]);
        assert!((comm_bound.system_throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one slave")]
    fn empty_platform_rejected() {
        let _ = Platform::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn non_positive_spec_rejected() {
        let _ = Platform::from_vectors(&[0.0], &[1.0]);
    }

    #[test]
    fn display_ids() {
        assert_eq!(SlaveId(0).to_string(), "P1");
        assert_eq!(format!("{:?}", SlaveId(2)), "P3");
    }
}
