//! Instrumentation-transparency property tests: probes are observers only.
//!
//! ARCHITECTURE.md contract #11 in executable form — for arbitrary
//! instances (random platforms, task streams, fault/drift timelines,
//! every information tier) and an arbitrary well-formed scheduler, the
//! engine's result is *bit-identical* whether it runs uninstrumented,
//! with the explicit [`NoopProbe`], or with the heavyweight
//! `(RunCounters, TraceRecorder)` probe pair — including error cases
//! (step-budget aborts), which must abort at the identical step with the
//! identical message.

mod support;

use mss_sim::{
    InfoTier, NoopProbe, PlatformEvent, PlatformEventKind, RunCounters, SimConfig, SimWorkspace,
    Simulation, SlaveId, SliceSource, Time, Timeline, TraceRecorder,
};
use proptest::prelude::*;
use support::{arb_platform, arb_tasks, TapeScheduler};

fn arb_info() -> impl Strategy<Value = InfoTier> {
    prop_oneof![
        Just(InfoTier::Clairvoyant),
        Just(InfoTier::SpeedOblivious),
        Just(InfoTier::NonClairvoyant),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Uninstrumented, `NoopProbe`-instrumented, and fully instrumented
    /// runs of the identical scenario agree bit for bit — successes *and*
    /// errors — across fault/drift timelines and information tiers.
    #[test]
    fn probes_are_observationally_pure(
        platform in arb_platform(1..6),
        tasks in arb_tasks(1..25),
        tape in proptest::collection::vec(0u32..1000, 8..64),
        info in arb_info(),
        faults in proptest::collection::vec(
            (0usize..8, 0.0f64..25.0, 0.1f64..10.0, 0.25f64..3.0), 0..5),
    ) {
        let mut events = Vec::new();
        for &(j, at, up_after, factor) in &faults {
            events.push(PlatformEvent {
                time: Time::new(at),
                slave: SlaveId(j),
                kind: PlatformEventKind::Fail,
            });
            events.push(PlatformEvent {
                time: Time::new(at + up_after),
                slave: SlaveId(j),
                kind: PlatformEventKind::Recover,
            });
            events.push(PlatformEvent {
                time: Time::new(at / 2.0),
                slave: SlaveId(j),
                kind: PlatformEventKind::SetSpeedFactor(factor),
            });
        }
        let timeline = Timeline::new(events);
        // Tight budget: tape schedulers may gamble on down slaves forever,
        // so a fair share of cases exercises the *error* path — which must
        // be transparent too.
        let cfg = SimConfig { max_steps: 100_000, info, ..SimConfig::default() };

        let mut ws = SimWorkspace::new();
        let plain = Simulation::new(&platform, &cfg)
            .timeline(&timeline)
            .workspace(&mut ws)
            .trace(SliceSource::new(&tasks), &mut TapeScheduler::new(tape.clone()));
        let noop = Simulation::new(&platform, &cfg)
            .timeline(&timeline)
            .workspace(&mut ws)
            .probe(&mut NoopProbe)
            .trace(SliceSource::new(&tasks), &mut TapeScheduler::new(tape.clone()));
        let mut probe = (RunCounters::new(), TraceRecorder::new());
        let heavy = Simulation::new(&platform, &cfg)
            .timeline(&timeline)
            .workspace(&mut ws)
            .probe(&mut probe)
            .trace(SliceSource::new(&tasks), &mut TapeScheduler::new(tape));

        prop_assert_eq!(&plain, &noop);
        prop_assert_eq!(&plain, &heavy);

        // The heavy probe really observed the run it did not perturb.
        let (counters, recorder) = probe;
        if let Ok(trace) = &plain {
            prop_assert_eq!(counters.computes_completed as usize, trace.len());
            prop_assert_eq!(
                counters.sends_started,
                counters.sends_delivered + counters.sends_lost
            );
            let completed_computes = recorder
                .spans
                .iter()
                .filter(|s| s.kind == mss_sim::SpanKind::Compute && s.completed)
                .count();
            prop_assert_eq!(completed_computes, trace.len());
            prop_assert_eq!(counters.budget_aborts, 0);
        }
    }
}
