//! Backward ("last job first") plan construction for SLJF and SLJFWC.
//!
//! The companion report the paper cites for these two algorithms (\[23\],
//! RR-2005-31) is not available; the constructions below follow the
//! description in the paper itself — "it calculates, before scheduling the
//! first task, the assignment of all tasks, starting with the last one" —
//! and are compared with the exhaustive optimum of `mss-opt` by ablation A2
//! (`ms-lab ablation-sljf`; see its row in `docs/PAPER_MAP.md`).
//!
//! * [`sljf_dispatch`] ignores communications (the algorithm is designed for
//!   communication-homogeneous platforms): it first chooses how many tasks
//!   each slave executes by assigning tasks *from the last to the first* to
//!   the slave minimizing the resulting computation tail, then releases the
//!   task slots in earliest-computation-deadline order.
//! * [`sljfwc_dispatch`] ("With Communication") plans on the time-reversed
//!   problem, where distributing tasks becomes *collecting* them: in
//!   reversed time each task is computed on its slave for `p_j` and then
//!   shipped back over the one-port link for `c_j`. A greedy that always
//!   gives the next reversed task to the slave completing its reverse
//!   shipment first yields a reversed schedule; flipping it produces the
//!   dispatch order for the original problem. On communication-homogeneous
//!   platforms this degenerates exactly to SLJF's plan.

use mss_sim::{Platform, SlaveId};

/// Reusable scratch state for the backward plan constructions.
///
/// Plan construction used to allocate four vectors per (re)plan — the
/// believed `c`/`p` rate snapshots, the per-slave counts, and the slot /
/// reverse-ready work arrays. A [`Planned`](super::Planned) scheduler now
/// owns one `PlanScratch` and replans into it, so a scheduler reused
/// across sweep cells (or replanning after drift) touches the allocator
/// only until the high-water capacity is reached. The arithmetic and
/// tie-breaking are unchanged — plans are bit-identical to the historical
/// allocating constructions, which survive below as thin wrappers.
#[derive(Clone, Debug, Default)]
pub struct PlanScratch {
    /// Communication rates the plan is built over (nominal or believed).
    c: Vec<f64>,
    /// Computation rates the plan is built over (nominal or believed).
    p: Vec<f64>,
    /// Backward-greedy tasks-per-slave counts.
    counts: Vec<usize>,
    /// SLJF slot keys `(i·p_j, j)` awaiting the deadline sort.
    slots: Vec<(f64, usize)>,
    /// SLJFWC reversed-time compute-ready instants.
    ready: Vec<f64>,
}

impl PlanScratch {
    /// Loads the rate snapshot the next plan will be built over.
    pub fn fill_rates<I: IntoIterator<Item = (f64, f64)>>(&mut self, rates: I) {
        self.c.clear();
        self.p.clear();
        for (c, p) in rates {
            self.c.push(c);
            self.p.push(p);
        }
    }

    /// Loads the platform's nominal rates.
    pub fn fill_nominal(&mut self, platform: &Platform) {
        self.fill_rates(platform.slave_ids().map(|j| (platform.c(j), platform.p(j))));
    }

    /// The backward greedy over `self.p`: assigns tasks, last first, to the
    /// slave minimizing `(count_j + 1)·p_j`, leaving the result in
    /// `self.counts`.
    fn backward_counts_inner(&mut self, n: usize) {
        let m = self.p.len();
        self.counts.clear();
        self.counts.resize(m, 0);
        let (counts, p) = (&mut self.counts, &self.p);
        for _ in 0..n {
            let j = (0..m)
                .min_by(|&a, &b| {
                    let ka = (counts[a] + 1) as f64 * p[a];
                    let kb = (counts[b] + 1) as f64 * p[b];
                    ka.total_cmp(&kb).then(a.cmp(&b))
                })
                .expect("at least one slave");
            counts[j] += 1;
        }
    }

    /// SLJF dispatch order into `out` (see [`sljf_dispatch`]).
    pub fn sljf_into(&mut self, n: usize, out: &mut Vec<SlaveId>) {
        self.backward_counts_inner(n);
        self.slots.clear();
        self.slots.reserve(n);
        for (j, &cnt) in self.counts.iter().enumerate() {
            let p = self.p[j];
            for i in 1..=cnt {
                self.slots.push((i as f64 * p, j));
            }
        }
        self.slots
            .sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        out.clear();
        out.extend(self.slots.iter().map(|&(_, j)| SlaveId(j)));
    }

    /// SLJFWC dispatch order into `out` (see [`sljfwc_dispatch`]).
    pub fn sljfwc_into(&mut self, n: usize, out: &mut Vec<SlaveId>) {
        let m = self.p.len();
        self.ready.clear();
        self.ready.resize(m, 0.0);
        let mut port = 0.0f64;
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            let (mut best_j, mut best_end) = (0usize, f64::INFINITY);
            for (j, &rj) in self.ready.iter().enumerate() {
                let end = (rj + self.p[j]).max(port) + self.c[j];
                let better = end < best_end - 1e-15
                    || ((end - best_end).abs() <= 1e-15 && self.c[j] < self.c[best_j]);
                if better {
                    best_j = j;
                    best_end = end;
                }
            }
            // Compute occupies the slave; the shipment only occupies the port.
            self.ready[best_j] += self.p[best_j];
            port = best_end;
            out.push(SlaveId(best_j));
        }
        out.reverse();
    }
}

/// How many tasks each slave executes under the backward greedy that
/// assigns tasks, last first, to the slave minimizing `(count_j + 1)·p_j`
/// (the optimal distribution of identical tasks over uniform machines when
/// communications are free).
pub fn backward_counts(platform: &Platform, n: usize) -> Vec<usize> {
    let mut scratch = PlanScratch::default();
    scratch.fill_nominal(platform);
    scratch.backward_counts_inner(n);
    scratch.counts
}

/// SLJF dispatch order: `result[k]` is the slave of the `k`-th task sent.
///
/// Slot `(j, i)` (the `i`-th-from-last task of slave `j`) must start
/// computing `i·p_j` before the common finish line, so slots are released in
/// decreasing `i·p_j` — the most constrained computation gets the earliest
/// communication.
pub fn sljf_dispatch(platform: &Platform, n: usize) -> Vec<SlaveId> {
    let mut scratch = PlanScratch::default();
    scratch.fill_nominal(platform);
    let mut out = Vec::new();
    scratch.sljf_into(n, &mut out);
    out
}

/// SLJFWC dispatch order via the time-reversed (collection) greedy.
///
/// In reversed time each task is *computed* on its slave for `p_j` and then
/// *shipped* back over the master's one-port link for `c_j`. As in the
/// paper's own schedules (e.g. the interval arithmetic of Theorem 4), a
/// slave may overlap communication with the computation of its next task —
/// only the master's port serializes. Reversed state: `ready[j]` is when
/// slave `j`'s compute unit frees, `port` when the master's reverse-port
/// frees. The greedy hands the next reversed task to the slave whose
/// reverse shipment `max(ready_j + p_j, port) + c_j` completes first and
/// charges only the computation to the slave. Reversing the resulting
/// sequence yields the original dispatch order.
pub fn sljfwc_dispatch(platform: &Platform, n: usize) -> Vec<SlaveId> {
    let mut scratch = PlanScratch::default();
    scratch.fill_nominal(platform);
    let mut out = Vec::new();
    scratch.sljfwc_into(n, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_sim::Platform;

    #[test]
    fn backward_counts_prefer_fast_slaves() {
        // p = (3, 7): for 3 tasks the greedy yields (2, 1) — the Theorem 1
        // platform, where the optimal schedule indeed runs two tasks on P1.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        assert_eq!(backward_counts(&pf, 3), vec![2, 1]);
        // A single task goes to the fastest slave ("the last job first").
        assert_eq!(backward_counts(&pf, 1), vec![1, 0]);
    }

    #[test]
    fn backward_counts_balance_equal_speeds() {
        let pf = Platform::homogeneous(3, 1.0, 5.0);
        assert_eq!(backward_counts(&pf, 7), vec![3, 2, 2]);
    }

    #[test]
    fn sljf_dispatch_sends_heaviest_backlog_first() {
        // Counts (2, 1) on p = (3, 7): slot keys P1: {3, 6}, P2: {7}.
        // Dispatch order: P2 (7), P1 (6), P1 (3).
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        let plan = sljf_dispatch(&pf, 3);
        assert_eq!(plan, vec![SlaveId(1), SlaveId(0), SlaveId(0)]);
    }

    #[test]
    fn sljfwc_matches_sljf_on_comm_homogeneous() {
        // The two constructions may break ties differently (e.g. counts
        // (7,2) vs (6,3) at n = 9 on p = (3,7)), but on a
        // communication-homogeneous platform they must achieve the same
        // makespan when the plan is executed eagerly.
        let pf = Platform::from_vectors(&[1.0, 1.0], &[3.0, 7.0]);
        for n in 1..12 {
            let eval = |plan: &[SlaveId]| {
                // Eager execution of a dispatch order: send k at k·c; each
                // slave computes FIFO back-to-back.
                let mut ready = vec![0.0f64; pf.num_slaves()];
                let mut makespan = 0.0f64;
                for (k, &j) in plan.iter().enumerate() {
                    let recv = (k + 1) as f64 * pf.c(j);
                    let start = ready[j.0].max(recv);
                    ready[j.0] = start + pf.p(j);
                    makespan = makespan.max(ready[j.0]);
                }
                makespan
            };
            let a = eval(&sljf_dispatch(&pf, n));
            let b = eval(&sljfwc_dispatch(&pf, n));
            assert!(
                (a - b).abs() < 1e-9,
                "makespans diverge at n = {n}: SLJF {a} vs SLJFWC {b}"
            );
        }
    }

    #[test]
    fn sljfwc_prefers_cheap_links_when_port_bound() {
        // p = 1 everywhere; c = (0.1, 2.0). The port is the bottleneck, so
        // the plan should route most tasks through the cheap link.
        let pf = Platform::from_vectors(&[0.1, 2.0], &[1.0, 1.0]);
        let plan = sljfwc_dispatch(&pf, 20);
        let cheap = plan.iter().filter(|j| j.0 == 0).count();
        assert!(cheap >= 15, "only {cheap}/20 tasks on the cheap link");
    }

    #[test]
    fn dispatch_lengths_match_n() {
        let pf = Platform::from_vectors(&[0.5, 1.0, 0.2], &[2.0, 3.0, 8.0]);
        for n in [0, 1, 5, 17] {
            assert_eq!(sljf_dispatch(&pf, n).len(), n);
            assert_eq!(sljfwc_dispatch(&pf, n).len(), n);
        }
    }

    #[test]
    fn theorem6_platform_dispatch() {
        // Thm 6 platform: c = (1, 2), p = 3. The proof's best schedule for
        // four tasks alternates P2, P1, P2, P1.
        let pf = Platform::from_vectors(&[1.0, 2.0], &[3.0, 3.0]);
        let plan = sljfwc_dispatch(&pf, 4);
        assert_eq!(
            plan,
            vec![SlaveId(1), SlaveId(0), SlaveId(1), SlaveId(0)],
            "expected the proof's alternating schedule"
        );
    }
}
