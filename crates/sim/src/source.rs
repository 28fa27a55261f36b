//! The [`TaskSource`] trait: a pull-based, bounded-memory task stream —
//! the engine's only input.
//!
//! In the paper's on-line model the master learns of task `i` only at its
//! release `r_i`, so every run ([`crate::Simulation`]) *pulls* arrivals one
//! at a time from a `TaskSource` in release order. An instance that is
//! already in memory is pulled through [`SliceSource`]; an instance of a
//! million tasks never has to exist in memory at once — with
//! [`crate::Simulation::objectives`] the engine keeps a bounded window of
//! live task slots and recycles a slot once its record is finalized.
//!
//! Further implementations live in `mss-workload` (`GeneratedSource`,
//! `TraceSource`); this crate defines the contract the engine consumes,
//! mirroring how `PlatformStream` streams platforms.
//!
//! # Contract
//!
//! * **Valid, non-decreasing arrivals.** `next_task` must yield arrivals
//!   whose `release` times are finite, non-negative and non-decreasing —
//!   the stream *is* the release order — with finite, positive size
//!   multipliers. The engine checks every pulled arrival once and ends the
//!   run with [`SimError::InvalidTask`](crate::SimError::InvalidTask),
//!   naming the first offending task, on a violation (a decreasing release
//!   would silently reorder history, breaking determinism).
//! * **A failed pull ends the stream.** A source that reads its input as
//!   it is pulled (a trace file) may meet bad input mid-run. It then
//!   returns `None` and keeps the reason, located in its input, for
//!   [`TaskSource::error`]; the engine asks for it whenever `next_task`
//!   returns `None` and ends the run with `SimError::InvalidTask` naming
//!   the task it was pulling. A source that cannot fail keeps the
//!   provided `error`, which always answers `None`.
//! * **Seed-determinism.** Two sources constructed from the same inputs
//!   must yield the identical sequence; [`TaskSource::reset`] rewinds so
//!   the same source replays it. Replaying one instance under several
//!   schedulers relies on this to reset or re-instantiate the source per
//!   run instead of cloning streams.
//! * **Task identity.** The engine assigns dense [`TaskId`]s in pull
//!   order (`0, 1, 2, …`): a slice's task `i` is its `i`-th element.
//!
//! [`TaskId`]: crate::TaskId

use crate::task::TaskArrival;

/// A pull-based stream of task arrivals with non-decreasing release times.
///
/// See the [module docs](self) for the determinism contract.
///
/// # Examples
/// ```
/// use mss_sim::{TaskArrival, TaskSource};
///
/// /// `n` nominal tasks released at integer times 0, 1, 2, …
/// struct EverySecond { next: usize, n: usize }
/// impl TaskSource for EverySecond {
///     fn next_task(&mut self) -> Option<TaskArrival> {
///         (self.next < self.n).then(|| {
///             let t = TaskArrival::at(self.next as f64);
///             self.next += 1;
///             t
///         })
///     }
///     fn len_hint(&self) -> Option<usize> { Some(self.n) }
///     fn reset(&mut self) { self.next = 0; }
/// }
///
/// let mut s = EverySecond { next: 0, n: 3 };
/// assert_eq!(s.next_task().unwrap().release.as_f64(), 0.0);
/// assert_eq!(s.next_task().unwrap().release.as_f64(), 1.0);
/// s.reset();
/// assert_eq!(s.next_task().unwrap().release.as_f64(), 0.0);
/// ```
pub trait TaskSource {
    /// Pulls the next arrival; `None` once the stream is exhausted.
    /// Releases must be non-decreasing across the whole stream.
    fn next_task(&mut self) -> Option<TaskArrival>;

    /// Total number of tasks the stream will yield, when known up front
    /// (used for horizon hints and step budgets; `None` for open-ended
    /// streams).
    fn len_hint(&self) -> Option<usize>;

    /// Rewinds to the beginning; the replay must be identical to the
    /// first pass, element for element. Clears a stored [`error`].
    ///
    /// [`error`]: TaskSource::error
    fn reset(&mut self);

    /// Why the stream ended early, once `next_task` has returned `None`
    /// for a pull that failed: `None` for a stream that simply ran out.
    /// The reason locates the bad input (for a trace, its `file:line`).
    fn error(&self) -> Option<&str> {
        None
    }
}

/// A [`TaskSource`] over a borrowed, in-memory instance: how a task slice
/// reaches the engine. Task `i` is the slice's `i`-th element, so the
/// slice must already be in release order (the engine rejects a
/// decreasing release).
///
/// # Examples
/// ```
/// use mss_sim::{SliceSource, TaskArrival, TaskSource};
///
/// let tasks = [TaskArrival::at(0.0), TaskArrival::at(2.5)];
/// let mut s = SliceSource::new(&tasks);
/// assert_eq!(s.len_hint(), Some(2));
/// assert_eq!(s.next_task(), Some(tasks[0]));
/// assert_eq!(s.next_task(), Some(tasks[1]));
/// assert_eq!(s.next_task(), None);
/// s.reset();
/// assert_eq!(s.next_task(), Some(tasks[0]));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SliceSource<'a> {
    tasks: &'a [TaskArrival],
    cursor: usize,
}

impl<'a> SliceSource<'a> {
    /// A source yielding `tasks` in order.
    pub fn new(tasks: &'a [TaskArrival]) -> Self {
        SliceSource { tasks, cursor: 0 }
    }
}

impl TaskSource for SliceSource<'_> {
    #[inline]
    fn next_task(&mut self) -> Option<TaskArrival> {
        let t = self.tasks.get(self.cursor).copied()?;
        self.cursor += 1;
        Some(t)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.tasks.len())
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// A boxed source is a source (so heterogeneous sources can share a
/// collection without generics).
impl TaskSource for Box<dyn TaskSource + '_> {
    fn next_task(&mut self) -> Option<TaskArrival> {
        (**self).next_task()
    }
    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn error(&self) -> Option<&str> {
        (**self).error()
    }
}

/// A mutable reference forwards (so callers keep ownership while the
/// engine pulls).
impl<S: TaskSource + ?Sized> TaskSource for &mut S {
    fn next_task(&mut self) -> Option<TaskArrival> {
        (**self).next_task()
    }
    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn error(&self) -> Option<&str> {
        (**self).error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Two(usize);
    impl TaskSource for Two {
        fn next_task(&mut self) -> Option<TaskArrival> {
            (self.0 < 2).then(|| {
                let t = TaskArrival::at(self.0 as f64);
                self.0 += 1;
                t
            })
        }
        fn len_hint(&self) -> Option<usize> {
            Some(2)
        }
        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    /// A source whose pull fails.
    struct Broken;
    impl TaskSource for Broken {
        fn next_task(&mut self) -> Option<TaskArrival> {
            None
        }
        fn len_hint(&self) -> Option<usize> {
            Some(1)
        }
        fn reset(&mut self) {}
        fn error(&self) -> Option<&str> {
            Some("bad record in t.csv:2")
        }
    }

    #[test]
    fn slice_source_round_trips_and_resets() {
        let tasks = crate::task::released_at(&[0.0, 1.0, 2.5]);
        let mut s = SliceSource::new(&tasks);
        assert_eq!(s.len_hint(), Some(3));
        let drain =
            |s: &mut SliceSource<'_>| std::iter::from_fn(|| s.next_task()).collect::<Vec<_>>();
        assert_eq!(drain(&mut s), tasks);
        assert_eq!(s.next_task(), None);
        s.reset();
        assert_eq!(drain(&mut s), tasks);
    }

    #[test]
    fn boxed_and_borrowed_sources_forward() {
        let mut boxed: Box<dyn TaskSource> = Box::new(Two(0));
        assert_eq!(boxed.len_hint(), Some(2));
        assert!(boxed.next_task().is_some());
        boxed.reset();
        let mut count = 0;
        let by_ref = &mut boxed;
        while by_ref.next_task().is_some() {
            count += 1;
        }
        assert_eq!(count, 2);
        // `error` forwards through both wrappers.
        fn reason(source: impl TaskSource) -> Option<String> {
            source.error().map(str::to_owned)
        }
        assert_eq!(reason(&mut boxed), None);
        let mut broken: Box<dyn TaskSource> = Box::new(Broken);
        assert_eq!(
            reason(&mut broken).as_deref(),
            Some("bad record in t.csv:2")
        );
    }
}
