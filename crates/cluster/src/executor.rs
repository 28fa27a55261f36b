//! The threaded master–worker executor — the MPI-testbed substitute.
//!
//! One OS thread per slave plus the master (the calling thread). The
//! master's single port is realized literally: the master *blocks* for
//! `c_j · scale` wall seconds while "transferring" a [`Matrix`] payload to
//! worker `j`, so no two transfers can ever overlap. Workers compute the
//! real determinant of each received matrix and pad the computation to
//! `p_j · scale` wall seconds, mirroring the paper's `np_i` repetitions.
//!
//! The executor drives the *same* [`OnlineScheduler`] implementations as the
//! DES, through the same [`SimView`](mss_sim::SimView) window (maintained
//! here from real clocks and worker acknowledgements), and produces the same
//! [`Trace`] type with wall times mapped back to model seconds. OS jitter
//! means durations only approximate the platform spec; tests use
//! [`validate_loose`] instead of the DES's exact validator.

use crate::matrix::Matrix;
use mss_core::{OnlineScheduler, Platform, SchedulerEvent, TaskArrival, TaskId, Trace};
use mss_sim::{Decision, SlaveId, TaskRecord, Time, ViewState};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread;
use std::time::{Duration, Instant};

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Wall seconds per model second (e.g. `0.02` → a `p = 8 s` slave
    /// computes for 160 ms of wall time). Smaller is faster but noisier.
    pub time_scale: f64,
    /// Dimension of the matrix payloads (determinant cost must fit within
    /// the shortest scaled computation).
    pub matrix_dim: usize,
    /// Total-task-count hint passed to the scheduler (as the DES does).
    pub horizon_hint: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            time_scale: 0.02,
            matrix_dim: 32,
            horizon_hint: None,
        }
    }
}

/// A completed cluster run.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// The execution trace, in model seconds.
    pub trace: Trace,
    /// The determinant each worker computed, indexed by task — evidence the
    /// computation really happened.
    pub determinants: Vec<f64>,
}

/// Why a cluster run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterError {
    /// A worker thread disappeared.
    WorkerLost(usize),
    /// The scheduler idled while work remained for too long.
    Stalled {
        /// Model time at the stall.
        at: f64,
        /// Completed tasks at the stall.
        completed: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::WorkerLost(j) => write!(f, "worker {j} lost"),
            ClusterError::Stalled { at, completed } => {
                write!(f, "cluster stalled at {at:.3} with {completed} tasks done")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

enum ToWorker {
    Task {
        id: TaskId,
        matrix: Matrix,
        compute_wall: Duration,
    },
    Shutdown,
}

struct FromWorker {
    task: TaskId,
    slave: usize,
    compute_start_wall: f64,
    compute_end_wall: f64,
    determinant: f64,
}

fn worker_loop(slave: usize, t0: Instant, rx: Receiver<ToWorker>, tx: Sender<FromWorker>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Shutdown => return,
            ToWorker::Task {
                id,
                matrix,
                compute_wall,
            } => {
                let start = Instant::now();
                let determinant = matrix.determinant();
                // Pad the real work to the platform's p_j (the paper pads
                // with np_i determinant repetitions; padding with sleep
                // keeps the duration exact for any matrix size).
                let elapsed = start.elapsed();
                if elapsed < compute_wall {
                    thread::sleep(compute_wall - elapsed);
                }
                let done = FromWorker {
                    task: id,
                    slave,
                    compute_start_wall: (start - t0).as_secs_f64(),
                    compute_end_wall: t0.elapsed().as_secs_f64(),
                    determinant,
                };
                if tx.send(done).is_err() {
                    return;
                }
            }
        }
    }
}

/// Runs `scheduler` over real threads and real matrix payloads.
///
/// Semantics mirror [`mss_sim::simulate`]; timings carry OS jitter.
pub fn execute(
    platform: &Platform,
    tasks: &[TaskArrival],
    config: &ClusterConfig,
    scheduler: &mut dyn OnlineScheduler,
) -> Result<ClusterRun, ClusterError> {
    let scale = config.time_scale;
    let m = platform.num_slaves();
    let n = tasks.len();
    let t0 = Instant::now();

    let (done_tx, done_rx) = channel::<FromWorker>();
    let mut to_workers: Vec<SyncSender<ToWorker>> = Vec::with_capacity(m);
    let mut handles = Vec::with_capacity(m);
    for j in 0..m {
        let (tx, rx) = sync_channel::<ToWorker>(n.max(1));
        let done = done_tx.clone();
        handles.push(thread::spawn(move || worker_loop(j, t0, rx, done)));
        to_workers.push(tx);
    }

    // Observable state, maintained exactly like the DES engine does.
    let mut state = ViewState::new(platform.clone(), n, config.horizon_hint);
    let mut records: Vec<Option<TaskRecord>> = vec![None; n];
    // Predicted availability (nominal) per outstanding task, per slave.
    let mut outstanding: Vec<Vec<(TaskId, f64)>> = vec![Vec::new(); m];
    let mut last_anchor: Vec<f64> = vec![0.0; m];

    let mut release_order: Vec<usize> = (0..n).collect();
    release_order.sort_by(|&a, &b| tasks[a].release.cmp(&tasks[b].release).then(a.cmp(&b)));
    let mut next_release = 0usize;
    let mut link_free_model = 0.0f64;
    let mut last_progress = Instant::now();

    scheduler.init(&state.view());

    let now_model = |t0: &Instant| t0.elapsed().as_secs_f64() / scale;

    let refresh_estimates = |state: &mut ViewState,
                             outstanding: &[Vec<(TaskId, f64)>],
                             last_anchor: &[f64],
                             now: f64,
                             link_free: f64| {
        for j in 0..m {
            let p = state.platform.p(SlaveId(j));
            let mut t = now.max(last_anchor[j]);
            for &(_, avail) in &outstanding[j] {
                t = t.max(avail) + p;
            }
            state.slaves.outstanding[j] = outstanding[j].len();
            state.slaves.ready_estimate[j] = t;
        }
        state.now = Time::new(now);
        state.link_busy_until = Time::new(link_free);
    };

    let mut completed_dets = vec![0.0f64; n];
    // A completion the blocking wait of step 4 caught, handed to the next
    // pass's step 2 so that it is handled, and answered, like any other.
    let mut caught: Option<FromWorker> = None;

    while state.completed_count < n {
        let now = now_model(&t0);

        // 1. Releases due.
        let mut notifications: Vec<SchedulerEvent> = Vec::new();
        while next_release < n {
            let i = release_order[next_release];
            if tasks[i].release.as_f64() <= now + 1e-9 {
                state.pending.push(TaskId(i));
                state.releases[i] = tasks[i].release;
                state.released_count += 1;
                notifications.push(SchedulerEvent::Released(TaskId(i)));
                next_release += 1;
            } else {
                break;
            }
        }

        // 2. Worker completions.
        while let Some(done) = caught.take().or_else(|| done_rx.try_recv().ok()) {
            let j = done.slave;
            outstanding[j].retain(|&(id, _)| id != done.task);
            last_anchor[j] = done.compute_end_wall / scale;
            state.completed_count += 1;
            state.slaves.completed[j] += 1;
            let rec = records[done.task.0]
                .as_mut()
                .expect("completion for unsent task");
            rec.compute_start = Time::new(done.compute_start_wall / scale);
            rec.compute_end = Time::new(done.compute_end_wall / scale);
            completed_dets[done.task.0] = done.determinant;
            notifications.push(SchedulerEvent::ComputeCompleted(done.task, SlaveId(j)));
            last_progress = Instant::now();
        }

        // 3. Let the scheduler react, then poll while it keeps sending.
        let now = now_model(&t0);
        refresh_estimates(&mut state, &outstanding, &last_anchor, now, link_free_model);

        let mut queue: Vec<SchedulerEvent> = notifications;
        queue.push(SchedulerEvent::PortIdle);
        let mut sent_something = true;
        while sent_something {
            sent_something = false;
            for event in std::mem::take(&mut queue) {
                let decision = scheduler.on_event(&state.view(), event);
                if let Decision::Send { task, slave } = decision {
                    if link_free_model > now_model(&t0) || !state.pending.contains(&task) {
                        continue; // stale decision; the loop will re-poll
                    }
                    // The one-port transfer: block while the payload ships.
                    let send_start = now_model(&t0);
                    let c_wall = platform.c(slave) * tasks[task.0].size_c * scale;
                    thread::sleep(Duration::from_secs_f64(c_wall));
                    let send_end = now_model(&t0);
                    link_free_model = send_end;

                    let matrix = Matrix::seeded(config.matrix_dim, task.0 as u64);
                    let compute_wall =
                        Duration::from_secs_f64(platform.p(slave) * tasks[task.0].size_p * scale);
                    to_workers[slave.0]
                        .send(ToWorker::Task {
                            id: task,
                            matrix,
                            compute_wall,
                        })
                        .map_err(|_| ClusterError::WorkerLost(slave.0))?;

                    state.pending.retain(|&t| t != task);
                    outstanding[slave.0].push((task, send_start + platform.c(slave)));
                    records[task.0] = Some(TaskRecord {
                        task,
                        release: tasks[task.0].release,
                        slave,
                        send_start: Time::new(send_start),
                        send_end: Time::new(send_end),
                        compute_start: Time::ZERO,
                        compute_end: Time::ZERO,
                        size_c: tasks[task.0].size_c,
                        size_p: tasks[task.0].size_p,
                    });
                    let now = now_model(&t0);
                    refresh_estimates(&mut state, &outstanding, &last_anchor, now, link_free_model);
                    queue.push(SchedulerEvent::PortIdle);
                    sent_something = true;
                    last_progress = Instant::now();
                }
            }
        }

        // 4. Wait for the next interesting instant.
        if state.completed_count < n {
            let mut timeout = Duration::from_millis(2);
            if next_release < n {
                let wait = tasks[release_order[next_release]].release.as_f64() * scale
                    - t0.elapsed().as_secs_f64();
                if wait > 0.0 {
                    timeout = timeout.min(Duration::from_secs_f64(wait.max(0.0005)));
                }
            }
            caught = done_rx.recv_timeout(timeout).ok();
            if caught.is_none() && last_progress.elapsed() > Duration::from_secs(30) {
                return Err(ClusterError::Stalled {
                    at: now_model(&t0),
                    completed: state.completed_count,
                });
            }
        }
    }

    for tx in &to_workers {
        let _ = tx.send(ToWorker::Shutdown);
    }
    for h in handles {
        let _ = h.join();
    }

    let trace = Trace::new(
        records
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} has no record")))
            .collect(),
    );
    Ok(ClusterRun {
        trace,
        determinants: completed_dets,
    })
}

/// Loose structural validation for cluster traces: the invariants of the
/// model must hold up to OS-jitter tolerance `tol` (model seconds):
/// one-port, compute-after-receive, send-after-release, durations at least
/// their nominal values (sleeps can overshoot, never undershoot).
pub fn validate_loose(trace: &Trace, platform: &Platform, tol: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for r in trace.records() {
        if r.send_start.as_f64() < r.release.as_f64() - tol {
            problems.push(format!("{:?} sent before release", r.task));
        }
        if r.compute_start.as_f64() < r.send_end.as_f64() - tol {
            problems.push(format!("{:?} computed before received", r.task));
        }
        let c = platform.c(r.slave) * r.size_c;
        if r.send_end - r.send_start < c - tol {
            problems.push(format!("{:?} send shorter than c_j", r.task));
        }
        let p = platform.p(r.slave) * r.size_p;
        if r.compute_end - r.compute_start < p - tol {
            problems.push(format!("{:?} compute shorter than p_j", r.task));
        }
    }
    let mut sends: Vec<_> = trace.records().iter().collect();
    sends.sort_by_key(|r| r.send_start);
    for w in sends.windows(2) {
        if w[1].send_start.as_f64() < w[0].send_end.as_f64() - tol {
            problems.push(format!(
                "one-port violated by {:?} and {:?}",
                w[0].task, w[1].task
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_core::{bag_of_tasks, Algorithm};

    fn small_platform() -> Platform {
        // Model seconds kept ≥ 0.25 so sleep granularity is ≪ durations.
        Platform::from_vectors(&[0.5, 0.25], &[2.0, 4.0])
    }

    #[test]
    fn runs_ls_and_matches_model_loosely() {
        let pf = small_platform();
        let tasks = bag_of_tasks(6);
        let cfg = ClusterConfig {
            time_scale: 0.01,
            matrix_dim: 24,
            horizon_hint: Some(6),
        };
        let mut ls = Algorithm::ListScheduling.build();
        let run = execute(&pf, &tasks, &cfg, &mut ls).expect("cluster run");
        assert_eq!(run.trace.len(), 6);
        let problems = validate_loose(&run.trace, &pf, 0.2);
        assert!(problems.is_empty(), "{problems:?}");
        // Real determinants were computed.
        assert!(run.determinants.iter().all(|d| d.abs() > 1e-12));
    }

    #[test]
    fn agrees_with_des_on_assignments() {
        // On a platform with clearly separated costs, decision sequences of
        // the DES and the cluster must coincide (jitter cannot flip them).
        let pf = Platform::from_vectors(&[0.5, 0.5], &[1.0, 8.0]);
        let tasks = bag_of_tasks(5);
        let cfg = ClusterConfig {
            time_scale: 0.01,
            matrix_dim: 24,
            horizon_hint: Some(5),
        };
        let des = mss_core::simulate(
            &pf,
            &tasks,
            &mss_core::SimConfig::with_horizon(5),
            &mut Algorithm::ListScheduling.build(),
        )
        .unwrap();
        let mut ls = Algorithm::ListScheduling.build();
        let cluster = execute(&pf, &tasks, &cfg, &mut ls).unwrap().trace;
        for i in 0..5 {
            assert_eq!(
                des.record(TaskId(i)).slave,
                cluster.record(TaskId(i)).slave,
                "task {i} assigned differently"
            );
        }
        // Makespans agree within jitter (50 % is generous; typical < 5 %).
        let rel = (des.makespan() - cluster.makespan()).abs() / des.makespan();
        assert!(
            rel < 0.5,
            "DES {} vs cluster {}",
            des.makespan(),
            cluster.makespan()
        );
    }

    /// Keeps one task outstanding on slave 0: it sends only when a task is
    /// released or completes, and answers `Idle` to `PortIdle`.
    struct OneOutstanding;

    impl OnlineScheduler for OneOutstanding {
        fn name(&self) -> String {
            "one-outstanding".into()
        }

        fn on_event(&mut self, view: &mss_sim::SimView<'_>, event: SchedulerEvent) -> Decision {
            let slave = SlaveId(0);
            if event == SchedulerEvent::PortIdle || view.outstanding(slave) > 0 {
                return Decision::Idle;
            }
            match view.pending_tasks().first() {
                Some(&task) => Decision::Send { task, slave },
                None => Decision::Idle,
            }
        }
    }

    #[test]
    fn a_completion_caught_while_waiting_is_answered() {
        // The master spends its idle time in the blocking wait, so that is
        // where completions land; each one must still reach the scheduler
        // through the path that acts on its answer, or the bag stalls.
        let pf = Platform::from_vectors(&[0.25], &[2.0]);
        let tasks = bag_of_tasks(3);
        let cfg = ClusterConfig {
            time_scale: 0.01,
            matrix_dim: 16,
            horizon_hint: Some(3),
        };
        let run = execute(&pf, &tasks, &cfg, &mut OneOutstanding).expect("no stall");
        assert_eq!(run.trace.len(), 3);
        let problems = validate_loose(&run.trace, &pf, 0.2);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn respects_release_times() {
        let pf = small_platform();
        let tasks = [TaskArrival::at(0.0), TaskArrival::at(3.0)];
        let cfg = ClusterConfig {
            time_scale: 0.01,
            matrix_dim: 16,
            horizon_hint: None,
        };
        let mut srpt = Algorithm::Srpt.build();
        let run = execute(&pf, &tasks, &cfg, &mut srpt).unwrap();
        assert!(run.trace.record(TaskId(1)).send_start.as_f64() >= 3.0 - 0.05);
    }
}
