//! The scheduler and instance generators shared by the engine property
//! suites: `engine_properties.rs`, `probe_transparency.rs` and
//! `digest_props.rs`.

use mss_sim::{
    Decision, OnlineScheduler, Platform, SchedulerEvent, SimView, SlaveId, TaskArrival, Time,
};
use proptest::prelude::*;
use std::ops::Range;

/// A scheduler whose choices are driven by a pre-drawn pseudo-random tape,
/// but which always makes *valid* decisions (send some pending task to some
/// existing slave whenever the port is idle, sometimes idling or napping).
pub struct TapeScheduler {
    tape: Vec<u32>,
    pos: usize,
    naps: usize,
}

impl TapeScheduler {
    pub fn new(tape: Vec<u32>) -> Self {
        TapeScheduler {
            tape,
            pos: 0,
            naps: 0,
        }
    }

    fn draw(&mut self) -> u32 {
        let v = self.tape[self.pos % self.tape.len()];
        self.pos += 1;
        v
    }
}

impl OnlineScheduler for TapeScheduler {
    fn name(&self) -> String {
        "tape".into()
    }

    fn on_event(&mut self, view: &SimView<'_>, _e: SchedulerEvent) -> Decision {
        if !view.link_idle() || view.pending_tasks().is_empty() {
            return Decision::Idle;
        }
        let choice = self.draw();
        // Nap occasionally (at most a few times, to guarantee progress).
        if choice.is_multiple_of(7) && self.naps < 3 {
            self.naps += 1;
            return Decision::WakeAt(view.now() + 0.25);
        }
        let task = view.pending_tasks()[choice as usize % view.pending_tasks().len()];
        let slave = SlaveId(self.draw() as usize % view.num_slaves());
        Decision::Send { task, slave }
    }
}

/// A platform with a slave count drawn from `slaves`, each slave with
/// `c ∈ [0.01, 2)` and `p ∈ [0.1, 8)`.
pub fn arb_platform(slaves: Range<usize>) -> impl Strategy<Value = Platform> {
    proptest::collection::vec((0.01f64..2.0, 0.1f64..8.0), slaves).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

/// A size multiplier: exactly nominal about half the time, so events are
/// billed at their predicted instants (unless drift moves them), otherwise
/// perturbed by up to ±10 %.
fn arb_size() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), 0.9f64..1.1]
}

/// A task count drawn from `count`, released in `[0, 20)` and handed over
/// in release order (the engine takes a release-ordered stream).
pub fn arb_tasks(count: Range<usize>) -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((0.0f64..20.0, arb_size(), arb_size()), count).prop_map(|mut ts| {
        ts.sort_by(|a, b| a.0.total_cmp(&b.0));
        ts.into_iter()
            .map(|(r, sc, sp)| TaskArrival {
                release: Time::new(r),
                size_c: sc,
                size_p: sp,
            })
            .collect()
    })
}
