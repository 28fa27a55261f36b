//! The deterministic parallel executor.
//!
//! Cells of a sweep are embarrassingly parallel: each is a pure function of
//! its own spec and seeds, and every worker thread is identical. That is
//! the paper's master–slave problem with free communication, where List
//! Scheduling — give the next task to the first free worker — needs no
//! per-worker queues. The executor is greedy **LPT list scheduling**: every
//! item carries a cost estimate, items are sorted largest cost first (ties
//! broken by index), and each free worker takes the next item off one
//! shared cursor, so the big rocks start before the gravel and no worker
//! idles while an item is left.
//!
//! Scheduling only decides **who** computes a slot, never **what** ends up
//! in it: every result is written back to the slot of its original index
//! and aggregation downstream always reads slots in index order, so
//! **results are bit-identical for any thread count** (and any cost
//! model — costs steer placement, not content).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use when the caller does not care: the
/// machine's available parallelism, at most `cap`.
pub fn default_threads(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, cap.max(1))
}

/// Applies `f` to every item, possibly in parallel, and returns the results
/// in item order. `f(i, &items[i])` must be a pure function of its inputs
/// for the determinism guarantee to mean anything.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_costed(
        items,
        threads,
        |_, _| 1,
        || (),
        move |(), i, t| f(i, t),
        |()| (),
    )
    .0
}

/// [`parallel_map`] with a per-item **cost model**, per-worker scratch
/// state and a per-worker drain.
///
/// * `cost(i, &items[i])` estimates the relative work of item `i` (any
///   scale; the sweep uses estimated simulation events). Items start in
///   order of decreasing cost, ties by index; `cost` is evaluated once, up
///   front, on the calling thread.
/// * `init()` runs once on each worker thread, and the resulting scratch is
///   threaded through every `f(&mut scratch, i, &items[i])` call that
///   worker executes. This is how the sweep reuses one
///   [`SimWorkspace`](mss_core::SimWorkspace) per worker: the simulator's
///   zero-allocation buffers are warmed by the first cell and recycled by
///   every later cell on that thread. Scratch must not influence results
///   (`f` stays observationally a pure function of `(i, items[i])`), which
///   the engine guarantees by re-initializing the workspace per run.
/// * `drain(scratch)` runs on each worker thread after its last item and
///   turns the scratch into a `Send` summary, so the scratch itself never
///   crosses threads (it may hold non-`Send` state, e.g. boxed
///   schedulers). This is how the sweep collects per-worker metrics
///   without touching the hot path.
///
/// Returns the results in item order plus one summary per worker that ran,
/// in no particular order (the sequential path returns its single
/// summary). Results are bit-identical for any thread count and any cost
/// model.
pub fn parallel_map_costed<T, R, S, M, C, I, F, D>(
    items: &[T],
    threads: usize,
    cost: C,
    init: I,
    f: F,
    drain: D,
) -> (Vec<R>, Vec<M>)
where
    T: Sync,
    R: Send,
    M: Send,
    C: Fn(usize, &T) -> u64,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    D: Fn(S) -> M + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        let mut scratch = init();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut scratch, i, t))
            .collect();
        return (out, vec![drain(scratch)]);
    }

    let workers = threads.min(items.len());
    // LPT order: largest cost first, ties by index.
    let costs: Vec<u64> = items.iter().enumerate().map(|(i, t)| cost(i, t)).collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    let cursor = AtomicUsize::new(0);

    let sink: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let summaries: Mutex<Vec<M>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (order, cursor) = (&order, &cursor);
            let (init, f, drain) = (&init, &f, &drain);
            let (sink, summaries) = (&sink, &summaries);
            scope.spawn(move || {
                // Each worker batches results locally and merges once at
                // the end, so the sink lock is taken `workers` times, not
                // `items` times.
                let mut scratch = init();
                let mut local: Vec<(usize, R)> = Vec::new();
                // List scheduling: a free worker takes the next item in
                // LPT order; a cursor past the end means done. `Relaxed`
                // suffices: the cursor only hands out positions, `order` is
                // published by the spawn and results by the locks below.
                while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    local.push((i, f(&mut scratch, i, &items[i])));
                }
                sink.lock().unwrap().extend(local);
                summaries.lock().unwrap().push(drain(scratch));
            });
        }
    });

    let mut tagged = sink.into_inner().unwrap();
    tagged.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), items.len());
    (
        tagged.into_iter().map(|(_, r)| r).collect(),
        summaries.into_inner().unwrap(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let seq = parallel_map(&items, 1, |i, &x| i * 1000 + x);
        let par = parallel_map(&items, 8, |i, &x| i * 1000 + x);
        assert_eq!(seq, par);
        assert_eq!(seq[42], 42 * 1000 + 42);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u8], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1, 2, 3];
        assert_eq!(parallel_map(&items, 64, |_, &x| x * 2), vec![2, 4, 6]);
    }

    /// `parallel_map_costed` with unit costs, a scratch that counts its
    /// worker's calls, and that count as each worker's summary.
    fn count_calls(items: &[usize], threads: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
        parallel_map_costed(
            items,
            threads,
            |_, _| 1,
            || 0usize,
            |calls, _, &x| {
                *calls += 1;
                (x * 2, *calls)
            },
            |calls| calls,
        )
    }

    #[test]
    fn scratch_state_is_per_worker_and_reused() {
        // The scratch counter grows along each worker's private sequence of
        // items; results must still land in item order regardless.
        let items: Vec<usize> = (0..100).collect();
        let (out, _) = count_calls(&items, 4);
        let results: Vec<usize> = out.iter().map(|&(r, _)| r).collect();
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert!(out.iter().all(|&(_, calls)| calls >= 1));
        // The sequential path threads one scratch through all items.
        let (seq, _) = count_calls(&items, 1);
        assert_eq!(seq.last(), Some(&(198, 100)));
    }

    #[test]
    fn collect_drains_one_summary_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        let (_, summaries) = count_calls(&items, 4);
        assert!(!summaries.is_empty() && summaries.len() <= 4);
        // Every item was counted by exactly one worker.
        assert_eq!(summaries.iter().sum::<usize>(), 64);
        // Sequential path: one summary covering everything.
        let (_, seq) = count_calls(&items, 1);
        assert_eq!(seq, vec![64]);
    }

    #[test]
    fn costed_results_are_cost_model_invariant() {
        // Wildly different cost models must not change a single result —
        // costs steer placement only.
        let items: Vec<u64> = (0..321).map(|i| i * 7 % 113).collect();
        let run = |threads, cost: fn(usize, &u64) -> u64| {
            parallel_map_costed(
                &items,
                threads,
                cost,
                || (),
                |(), i, &x| (i as u64) * x,
                |()| (),
            )
            .0
        };
        let reference = run(1, |_, _| 1);
        for threads in [2usize, 3, 8] {
            assert_eq!(run(threads, |_, _| 1), reference);
            assert_eq!(run(threads, |_, &x| x + 1), reference);
            assert_eq!(run(threads, |i, _| (1000 - i) as u64), reference);
        }
    }

    #[test]
    fn one_giant_item_does_not_serialize_the_rest() {
        // A giant item pins one worker while the rest drain the cursor:
        // every item is executed exactly once even when costs are
        // violently skewed.
        let mut items = vec![1u64; 100];
        items[0] = 1_000_000;
        let (out, summaries) = parallel_map_costed(
            &items,
            4,
            |_, &c| c,
            || 0u64,
            |n, i, &c| {
                *n += 1;
                (i as u64, c)
            },
            |n| n,
        );
        assert_eq!(out.len(), 100);
        for (i, &(idx, c)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(c, items[i]);
        }
        assert_eq!(summaries.iter().sum::<u64>(), 100);
    }

    #[test]
    fn free_workers_drain_the_cursor_past_a_slow_item() {
        // The slowest item cannot finish until every cheap item has run,
        // and only the free workers can run them: a worker stuck on one
        // item must not strand any other (the count proves nothing ran
        // twice and nothing was skipped).
        use std::time::{Duration, Instant};
        let items: Vec<usize> = (0..40).collect();
        let executed = AtomicUsize::new(0);
        let (out, _) = parallel_map_costed(
            &items,
            4,
            |i, _| if i == 0 { 1_000_000 } else { 1 },
            || (),
            |(), i, &x| {
                if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while executed.load(Ordering::SeqCst) < 39 {
                        assert!(Instant::now() < deadline, "cheap items stranded");
                        std::thread::yield_now();
                    }
                }
                executed.fetch_add(1, Ordering::SeqCst);
                x * 3
            },
            |()| (),
        );
        assert_eq!(executed.load(Ordering::SeqCst), 40);
        assert_eq!(out, (0..40).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn the_costliest_item_is_among_the_first_started() {
        // Greedy LPT: with 2 workers the costliest item is one of the
        // first 2 taken off the cursor. The barrier holds each worker on
        // its first item until both have started one, so start ranks 0 and
        // 1 are exactly the first two cursor positions.
        use std::sync::Barrier;
        let items: Vec<u64> = (0..20).map(|i| if i == 13 { 50 } else { 1 }).collect();
        let started = AtomicUsize::new(0);
        let first_two = Barrier::new(2);
        let (ranks, _) = parallel_map_costed(
            &items,
            2,
            |_, &c| c,
            || (),
            |(), _, _| {
                let rank = started.fetch_add(1, Ordering::SeqCst);
                if rank < 2 {
                    first_two.wait();
                }
                rank
            },
            |()| (),
        );
        assert!(
            ranks[13] < 2,
            "costliest item started at rank {}",
            ranks[13]
        );
        let mut sorted = ranks;
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..20).collect::<Vec<_>>(),
            "each item started once"
        );
    }
}
