//! The instance generators shared by the decision-path property suites:
//! `kernel_equivalence.rs` and `ready_estimates.rs`.

use mss_core::{Platform, PlatformEvent, PlatformEventKind, TaskArrival, Time, Timeline};
use mss_sim::SlaveId;
use proptest::prelude::*;
use std::ops::Range;

pub fn arb_platform() -> impl Strategy<Value = Platform> {
    // 1..40 slaves spans both sides of every chunk boundary (8 lanes) and
    // forces non-trivial trees (padding leaves, single-leaf trees).
    proptest::collection::vec((0.01f64..2.0, 0.1f64..8.0), 1..40).prop_map(|specs| {
        let (c, p): (Vec<f64>, Vec<f64>) = specs.into_iter().unzip();
        Platform::from_vectors(&c, &p)
    })
}

/// A release in `[0, 25)`: on the integer grid about half the time, so
/// several tasks share an instant and their notifications form one batch.
fn arb_release() -> impl Strategy<Value = f64> {
    prop_oneof![(0u8..25).prop_map(f64::from), 0.0f64..25.0]
}

/// A size multiplier: exactly nominal about half the time, so events land
/// at their predicted instants, otherwise perturbed by up to ±10 %.
fn arb_size() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), 0.9f64..1.1]
}

pub fn arb_tasks() -> impl Strategy<Value = Vec<TaskArrival>> {
    proptest::collection::vec((arb_release(), arb_size(), arb_size()), 1..30).prop_map(|mut ts| {
        // The engine takes a release-ordered stream: the drawn tasks, in
        // release order.
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

/// One raw entry of a fault/drift plan; `kind_sel % 3` picks
/// crash-and-recover (0), link drift (1), or speed drift (2). The slave index is a
/// free selector, reduced modulo the platform size when the timeline is
/// materialized (the vendored proptest has no `prop_flat_map`, so the
/// plan cannot depend on the drawn platform).
pub type FaultPlanEntry = (u8, usize, f64, f64);

/// Up to four plan entries whose kinds are drawn from `kinds` (`0..3` for
/// every kind, `1..3` for drift alone).
pub fn arb_fault_plan(kinds: Range<u8>) -> impl Strategy<Value = Vec<FaultPlanEntry>> {
    proptest::collection::vec((kinds, 0usize..64, 0.0f64..30.0, 0.5f64..8.0), 0..4)
}

/// Materializes a plan against a concrete platform size. Crashes never
/// target slave 0 and always recover, so Redispatch-wrapped runs stay
/// live on any platform.
pub fn build_timeline(plan: &[FaultPlanEntry], m: usize) -> Timeline {
    let mut events = Vec::new();
    for &(kind_sel, slave_sel, t, x) in plan {
        match kind_sel % 3 {
            0 if m >= 2 => {
                let j = SlaveId(1 + slave_sel % (m - 1));
                events.push(PlatformEvent {
                    time: Time::new(t),
                    slave: j,
                    kind: PlatformEventKind::Fail,
                });
                events.push(PlatformEvent {
                    time: Time::new(t + x),
                    slave: j,
                    kind: PlatformEventKind::Recover,
                });
            }
            1 => events.push(PlatformEvent {
                time: Time::new(t),
                slave: SlaveId(slave_sel % m),
                kind: PlatformEventKind::SetLinkFactor(0.25 * x), // 0.125..2.0
            }),
            2 => events.push(PlatformEvent {
                time: Time::new(t),
                slave: SlaveId(slave_sel % m),
                kind: PlatformEventKind::SetSpeedFactor(0.25 * x),
            }),
            _ => {}
        }
    }
    Timeline::new(events)
}
