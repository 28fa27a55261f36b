//! Platform events: the dynamic-platform timeline the engine can consume.
//!
//! The paper's model is *static*: each slave's `(c_j, p_j)` is fixed for the
//! whole run. A [`Timeline`] relaxes that: it is a finite, time-ordered list
//! of [`PlatformEvent`]s — slave crashes, recoveries, and link/speed drift —
//! that the engine applies while simulating. The semantics are:
//!
//! * **[`PlatformEventKind::Fail`]** — the slave goes down. Every task
//!   outstanding on it (queued, computing, or mid-transfer towards it) is
//!   *lost*: it reappears in the master's pending queue and must be re-sent.
//!   A transfer in flight to the failing slave is aborted and the master's
//!   port frees immediately.
//! * **[`PlatformEventKind::Recover`]** — the slave comes back up, empty.
//!   Sends that complete while a slave is down are lost on arrival (the
//!   master may gamble on a recovery mid-transfer and win).
//! * **[`PlatformEventKind::SetLinkFactor`]** / **[`PlatformEventKind::SetSpeedFactor`]**
//!   — set the slave's *effective* `c_j` / `p_j` to `factor ×` its nominal
//!   value, for operations **starting from now on** (in-flight transfers and
//!   running computations keep the rate they started with). Factors are
//!   absolute, not compounding: a random-walk drift emits the walk's current
//!   position each step.
//!
//! Determinism: the engine streams timeline events in `(time, index)` order
//! and never puts them in its event heap; at an equal time they come after
//! task releases and before the engine's runtime events (send and
//! computation ends, wake-ups). So the `(time, insertion-seq)` processing
//! order — and therefore every trace — is a pure function of `(platform,
//! tasks, timeline, scheduler)`. An empty timeline leaves the engine's
//! behaviour bit-for-bit identical to the static model.

use crate::platform::SlaveId;
use crate::time::Time;

/// What happens to a slave at a timeline instant.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PlatformEventKind {
    /// The slave crashes; its in-flight and queued work is lost.
    Fail,
    /// The slave comes back up, empty.
    Recover,
    /// Effective `c_j` becomes `factor ×` nominal for future sends.
    SetLinkFactor(f64),
    /// Effective `p_j` becomes `factor ×` nominal for future computations.
    SetSpeedFactor(f64),
}

/// One scheduled change of the platform.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlatformEvent {
    /// When the change happens.
    pub time: Time,
    /// Which slave it affects.
    pub slave: SlaveId,
    /// What changes.
    pub kind: PlatformEventKind,
}

/// A finite, time-ordered platform-event script.
///
/// Construction sorts events stably by time, so simultaneous events keep
/// their insertion order — the same tie-break rule the engine applies.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Timeline {
    events: Vec<PlatformEvent>,
}

impl Timeline {
    /// The static (empty) timeline.
    pub const EMPTY: Timeline = Timeline { events: Vec::new() };

    /// Builds a timeline, stably sorting events by time.
    ///
    /// # Panics
    /// Panics if any event has a negative time or a non-positive /
    /// non-finite drift factor (always a bug in the producing generator).
    pub fn new(mut events: Vec<PlatformEvent>) -> Self {
        for e in &events {
            assert!(
                e.time >= Time::ZERO,
                "Timeline::new: event before t = 0: {e:?}"
            );
            if let PlatformEventKind::SetLinkFactor(f) | PlatformEventKind::SetSpeedFactor(f) =
                e.kind
            {
                assert!(
                    f.is_finite() && f > 0.0,
                    "Timeline::new: non-positive or non-finite drift factor: {e:?}"
                );
            }
        }
        events.sort_by_key(|e| e.time);
        Timeline { events }
    }

    /// The events, in time order.
    pub fn events(&self) -> &[PlatformEvent] {
        &self.events
    }

    /// `true` iff the timeline contains no event (the static model).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Per-slave downtime intervals `[start, end)` over `[0, until]`,
    /// suitable for [`render_with_downtime`](crate::render_with_downtime).
    ///
    /// A slave failed and never recovered is down until `until`; redundant
    /// `Fail`s/`Recover`s (already down / already up) are ignored, exactly
    /// as the engine ignores them.
    pub fn downtime_intervals(&self, num_slaves: usize, until: f64) -> Vec<Vec<(f64, f64)>> {
        let mut intervals = vec![Vec::new(); num_slaves];
        let mut down_since: Vec<Option<f64>> = vec![None; num_slaves];
        for e in &self.events {
            if e.slave.0 >= num_slaves {
                continue;
            }
            match e.kind {
                PlatformEventKind::Fail if down_since[e.slave.0].is_none() => {
                    down_since[e.slave.0] = Some(e.time.as_f64());
                }
                PlatformEventKind::Recover => {
                    if let Some(start) = down_since[e.slave.0].take() {
                        if e.time.as_f64() > start {
                            intervals[e.slave.0].push((start, e.time.as_f64()));
                        }
                    }
                }
                _ => {}
            }
        }
        for (j, since) in down_since.into_iter().enumerate() {
            if let Some(start) = since {
                if until > start {
                    intervals[j].push((start, until));
                }
            }
        }
        intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, slave: usize, kind: PlatformEventKind) -> PlatformEvent {
        PlatformEvent {
            time: Time::new(time),
            slave: SlaveId(slave),
            kind,
        }
    }

    #[test]
    fn sorts_stably_by_time() {
        let t = Timeline::new(vec![
            ev(5.0, 1, PlatformEventKind::Recover),
            ev(2.0, 0, PlatformEventKind::Fail),
            ev(5.0, 0, PlatformEventKind::Fail),
        ]);
        let times: Vec<f64> = t.events().iter().map(|e| e.time.as_f64()).collect();
        assert_eq!(times, vec![2.0, 5.0, 5.0]);
        // Ties keep insertion order: P2's recovery was inserted first.
        assert_eq!(t.events()[1].slave, SlaveId(1));
    }

    #[test]
    fn empty_is_static() {
        assert!(Timeline::EMPTY.is_empty());
        assert_eq!(Timeline::default(), Timeline::EMPTY);
        assert_eq!(Timeline::EMPTY.len(), 0);
    }

    #[test]
    fn downtime_intervals_pair_fail_and_recover() {
        let t = Timeline::new(vec![
            ev(1.0, 0, PlatformEventKind::Fail),
            ev(3.0, 0, PlatformEventKind::Recover),
            ev(2.0, 1, PlatformEventKind::Fail),
            ev(4.0, 0, PlatformEventKind::Fail), // never recovers
        ]);
        let d = t.downtime_intervals(2, 10.0);
        assert_eq!(d[0], vec![(1.0, 3.0), (4.0, 10.0)]);
        assert_eq!(d[1], vec![(2.0, 10.0)]);
    }

    #[test]
    fn redundant_events_ignored() {
        let t = Timeline::new(vec![
            ev(1.0, 0, PlatformEventKind::Fail),
            ev(2.0, 0, PlatformEventKind::Fail), // already down
            ev(3.0, 0, PlatformEventKind::Recover),
            ev(4.0, 0, PlatformEventKind::Recover), // already up
        ]);
        assert_eq!(t.downtime_intervals(1, 5.0)[0], vec![(1.0, 3.0)]);
    }

    #[test]
    fn round_trips_through_json() {
        let t = Timeline::new(vec![
            ev(1.0, 0, PlatformEventKind::SetSpeedFactor(1.5)),
            ev(2.0, 1, PlatformEventKind::Fail),
        ]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Timeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn rejects_bad_factor() {
        let _ = Timeline::new(vec![ev(1.0, 0, PlatformEventKind::SetLinkFactor(0.0))]);
    }
}
