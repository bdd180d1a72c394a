//! # clustersim — a batch-system simulator (ElastiSim substitute)
//!
//! Reproduces the paper's motivation study (Figs. 1–2): a production-like
//! cluster (Lichtenberg settings: 500 nodes × 96 cores, 120 GB/s PFS) runs
//! several jobs that mimic HACC-IO's alternating compute/write phases. The
//! PFS bandwidth is distributed fairly **by node count** (each job's flow is
//! weighted with its allocation size). One job performs its I/O
//! asynchronously; capping that job at its *required bandwidth* — but only
//! while other jobs contend for the PFS — frees bandwidth for the
//! synchronous jobs without (significantly) slowing the async job.
//!
//! The simulator is a small but real batch system: FCFS node allocation,
//! job queueing, per-job phase machines, and flow-level PFS contention via
//! [`pfsim`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use pfsim::{Channel, FlowId, FlowSpec, MeterId, Pfs, PfsConfig};
use serde::{Deserialize, Serialize};
use simcore::{EventQueue, Invariant, SimTime, StepSeries};
use std::collections::HashMap;

/// Node-allocation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduler {
    /// Strict first-come-first-served: the queue head blocks everyone.
    Fcfs,
    /// EASY backfill: while the head waits for its reservation, later jobs
    /// may run if they fit now and their walltime ends before the head's
    /// reserved start.
    Backfill,
}

/// Cluster-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of compute nodes (paper: 500).
    pub nodes: usize,
    /// Cores per node (paper: 96) — bookkeeping only.
    pub cores_per_node: usize,
    /// The shared PFS (paper: 120 GB/s).
    pub pfs: PfsConfig,
    /// Node-allocation policy.
    pub scheduler: Scheduler,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 500,
            cores_per_node: 96,
            pfs: PfsConfig {
                write_capacity: 120e9,
                read_capacity: 120e9,
            },
            scheduler: Scheduler::Fcfs,
        }
    }
}

/// One phase of a job profile.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Pure computation for the given seconds.
    Compute(f64),
    /// Write the given aggregate bytes to the PFS.
    Write(f64),
    /// Read the given aggregate bytes from the PFS.
    Read(f64),
}

/// How a job performs its I/O phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoStyle {
    /// I/O blocks the job (the common case).
    Sync,
    /// I/O overlaps the following compute phase; the job blocks only when
    /// the next I/O phase starts before the previous transfer finished.
    Async,
}

/// A job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name.
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Submission time, seconds.
    pub submit: f64,
    /// Phase list.
    pub profile: Vec<JobPhase>,
    /// Sync or async I/O.
    pub style: IoStyle,
    /// If set, the job's transfers are capped at this rate (bytes/s) *while
    /// other jobs are using the PFS* (limiting during contention only).
    pub contention_cap: Option<f64>,
    /// Requested walltime, seconds (used by the backfill scheduler; a
    /// generous default is derived from the profile when built through
    /// [`JobSpec::hacc_like`]).
    pub walltime: f64,
}

impl JobSpec {
    /// A HACC-IO-mimicking job: `loops` × (compute, write burst).
    pub fn hacc_like(
        name: &str,
        nodes: usize,
        submit: f64,
        loops: usize,
        compute_seconds: f64,
        write_bytes: f64,
        style: IoStyle,
    ) -> Self {
        let mut profile = Vec::with_capacity(loops * 2);
        for _ in 0..loops {
            profile.push(JobPhase::Compute(compute_seconds));
            profile.push(JobPhase::Write(write_bytes));
        }
        // Requested walltime: compute plus I/O at half the by-node fair
        // share of a default cluster, padded 30 % — the usual over-request.
        let io_guess: f64 = profile
            .iter()
            .map(|p| match p {
                JobPhase::Write(b) | JobPhase::Read(b) => b / (120e9 * nodes as f64 / 500.0 / 2.0),
                JobPhase::Compute(_) => 0.0,
            })
            .sum();
        let compute: f64 = profile
            .iter()
            .map(|p| match p {
                JobPhase::Compute(d) => *d,
                _ => 0.0,
            })
            .sum();
        JobSpec {
            name: name.to_string(),
            nodes,
            submit,
            profile,
            style,
            contention_cap: None,
            walltime: 1.3 * (compute + io_guess),
        }
    }

    /// The TMIO-style required bandwidth of this profile: each I/O phase
    /// must fit into the *following* compute window (the async overlap);
    /// the maximum over phases is what the job needs to hide its I/O.
    pub fn required_bandwidth(&self) -> f64 {
        let mut best: f64 = 0.0;
        for (i, ph) in self.profile.iter().enumerate() {
            if let JobPhase::Write(bytes) | JobPhase::Read(bytes) = ph {
                if let Some(JobPhase::Compute(window)) = self.profile.get(i + 1) {
                    best = best.max(bytes / window.max(1e-9));
                }
            }
        }
        best
    }
}

/// Result of one job.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// Nodes used.
    pub nodes: usize,
    /// Time the job started executing.
    pub start: f64,
    /// Time the job finished.
    pub end: f64,
}

impl JobResult {
    /// Wall-clock runtime.
    pub fn runtime(&self) -> f64 {
        self.end - self.start
    }
}

/// Result of a cluster simulation.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Per-job results in submission order.
    pub jobs: Vec<JobResult>,
    /// Aggregate PFS write-rate series (Fig. 2).
    pub total_bandwidth: StepSeries,
    /// Per-job transfer-rate series.
    pub job_bandwidth: Vec<StepSeries>,
    /// Makespan of the whole workload.
    pub makespan: f64,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum JobState {
    Queued,
    Running,
    Done,
}

struct Job {
    spec: JobSpec,
    state: JobState,
    phase: usize,
    start: SimTime,
    end: SimTime,
    meter: MeterId,
    /// In-flight async transfer, if any.
    inflight: Option<FlowId>,
    /// Blocked waiting for this flow (sync I/O, or async back-pressure).
    blocked_on: Option<FlowId>,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// A job reached its submit time (index kept for debug printing).
    Arrive(#[allow(dead_code)] usize),
    ComputeDone(usize),
    PfsWake,
}

/// The batch simulator.
pub struct Cluster {
    cfg: ClusterConfig,
    queue: EventQueue<Event>,
    pfs: Pfs,
    jobs: Vec<Job>,
    flow_job: HashMap<FlowId, usize>,
    free_nodes: usize,
    wait_queue: Vec<usize>,
}

impl Cluster {
    /// Creates a cluster with the given jobs submitted.
    pub fn new(cfg: ClusterConfig, specs: Vec<JobSpec>) -> Self {
        let mut pfs = Pfs::new(cfg.pfs);
        let mut queue = EventQueue::new();
        let jobs: Vec<Job> = specs
            .into_iter()
            .map(|spec| Job {
                spec,
                state: JobState::Queued,
                phase: 0,
                start: SimTime::ZERO,
                end: SimTime::ZERO,
                meter: pfs.meter(),
                inflight: None,
                blocked_on: None,
            })
            .collect();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .spec
                .submit
                .partial_cmp(&jobs[b].spec.submit)
                .invariant("NaN-free")
        });
        for i in order {
            queue.schedule(SimTime::from_secs(jobs[i].spec.submit), Event::Arrive(i));
        }
        let free_nodes = cfg.nodes;
        Cluster {
            cfg,
            queue,
            pfs,
            jobs,
            flow_job: HashMap::new(),
            free_nodes,
            wait_queue: Vec::new(),
        }
    }

    /// Runs to completion.
    pub fn run(mut self) -> ClusterResult {
        while self.jobs.iter().any(|j| j.state != JobState::Done) {
            let Some((_, ev)) = self.queue.pop() else {
                panic!("cluster deadlock: jobs pending but no events");
            };
            match ev {
                Event::Arrive(_) => self.try_schedule(),
                Event::ComputeDone(i) => self.advance_job(i),
                Event::PfsWake => {
                    self.drain_pfs();
                    self.resync_pfs();
                }
            }
        }
        let makespan = self
            .jobs
            .iter()
            .map(|j| j.end.as_secs())
            .fold(0.0, f64::max);
        let job_bandwidth = self
            .jobs
            .iter()
            .map(|j| self.pfs.meter_series(j.meter).clone())
            .collect();
        ClusterResult {
            jobs: self
                .jobs
                .iter()
                .map(|j| JobResult {
                    name: j.spec.name.clone(),
                    nodes: j.spec.nodes,
                    start: j.start.as_secs(),
                    end: j.end.as_secs(),
                })
                .collect(),
            total_bandwidth: self.pfs.total_series(Channel::Write).clone(),
            job_bandwidth,
            makespan,
        }
    }

    /// Enqueue newly arrived jobs, then start jobs per the configured
    /// policy: strict FCFS, optionally with EASY backfill behind a blocked
    /// queue head.
    fn try_schedule(&mut self) {
        let now = self.queue.now();
        let mut newly: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| {
                self.jobs[i].state == JobState::Queued
                    && self.jobs[i].spec.submit <= now.as_secs() + 1e-12
                    && !self.wait_queue.contains(&i)
            })
            .collect();
        newly.sort_by(|&a, &b| {
            self.jobs[a]
                .spec
                .submit
                .partial_cmp(&self.jobs[b].spec.submit)
                .invariant("NaN-free")
        });
        self.wait_queue.append(&mut newly);
        while let Some(&i) = self.wait_queue.first() {
            if self.jobs[i].spec.nodes > self.free_nodes {
                break;
            }
            self.wait_queue.remove(0);
            self.start_job(i, now);
        }
        if self.cfg.scheduler == Scheduler::Backfill && !self.wait_queue.is_empty() {
            self.backfill(now);
        }
    }

    fn start_job(&mut self, i: usize, now: SimTime) {
        self.free_nodes -= self.jobs[i].spec.nodes;
        self.jobs[i].state = JobState::Running;
        self.jobs[i].start = now;
        self.advance_job(i);
    }

    /// EASY backfill: reserve the earliest start for the blocked head from
    /// the running jobs' walltime horizons, then start any later queued job
    /// that fits now and is promised to finish before that reservation.
    fn backfill(&mut self, now: SimTime) {
        let head = self.wait_queue[0];
        let head_nodes = self.jobs[head].spec.nodes;
        // Running jobs' (expected end, nodes), by walltime promise.
        let mut ends: Vec<(f64, usize)> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .map(|j| (j.start.as_secs() + j.spec.walltime, j.spec.nodes))
            .collect();
        ends.sort_by(|a, b| a.0.partial_cmp(&b.0).invariant("NaN-free"));
        let mut free = self.free_nodes;
        let mut reservation = now.as_secs();
        for (end, nodes) in ends {
            if free >= head_nodes {
                break;
            }
            free += nodes;
            reservation = end;
        }
        // Start any queued non-head job that fits *now* and whose walltime
        // ends before the head's reserved start.
        let mut k = 1;
        while k < self.wait_queue.len() {
            let j = self.wait_queue[k];
            let spec_nodes = self.jobs[j].spec.nodes;
            let promised_end = now.as_secs() + self.jobs[j].spec.walltime;
            if spec_nodes <= self.free_nodes && promised_end <= reservation + 1e-9 {
                self.wait_queue.remove(k);
                self.start_job(j, now);
            } else {
                k += 1;
            }
        }
    }

    /// Moves job `i` through its phase machine until it blocks or finishes.
    fn advance_job(&mut self, i: usize) {
        loop {
            let now = self.queue.now();
            if self.jobs[i].blocked_on.is_some() {
                return;
            }
            let phase = self.jobs[i].phase;
            let Some(&ph) = self.jobs[i].spec.profile.get(phase) else {
                // Profile exhausted; async jobs must drain their last flow.
                if let Some(f) = self.jobs[i].inflight {
                    self.jobs[i].blocked_on = Some(f);
                    return;
                }
                self.finish_job(i);
                return;
            };
            match ph {
                JobPhase::Compute(d) => {
                    self.jobs[i].phase += 1;
                    self.queue.schedule_in(d, Event::ComputeDone(i));
                    return;
                }
                JobPhase::Write(bytes) | JobPhase::Read(bytes) => {
                    // Async back-pressure: wait for the previous transfer
                    // before issuing the next one.
                    if let Some(f) = self.jobs[i].inflight {
                        self.jobs[i].blocked_on = Some(f);
                        return;
                    }
                    self.jobs[i].phase += 1;
                    let channel = match ph {
                        JobPhase::Write(_) => Channel::Write,
                        _ => Channel::Read,
                    };
                    self.drain_pfs();
                    let flow = self.pfs.submit(
                        now,
                        channel,
                        FlowSpec {
                            bytes,
                            weight: self.jobs[i].spec.nodes as f64,
                            cap: None,
                            meter: Some(self.jobs[i].meter),
                        },
                    );
                    self.flow_job.insert(flow, i);
                    match self.jobs[i].spec.style {
                        IoStyle::Sync => {
                            self.jobs[i].blocked_on = Some(flow);
                            self.update_contention_caps();
                            self.resync_pfs();
                            return;
                        }
                        IoStyle::Async => {
                            self.jobs[i].inflight = Some(flow);
                            self.update_contention_caps();
                            self.resync_pfs();
                            // continue with the next phase immediately
                        }
                    }
                }
            }
        }
    }

    fn finish_job(&mut self, i: usize) {
        let now = self.queue.now();
        self.jobs[i].state = JobState::Done;
        self.jobs[i].end = now;
        self.free_nodes += self.jobs[i].spec.nodes;
        self.try_schedule();
    }

    /// Applies/removes contention caps: a job with `contention_cap` is
    /// limited exactly while any *other* job has I/O in flight.
    fn update_contention_caps(&mut self) {
        let now = self.queue.now();
        for i in 0..self.jobs.len() {
            let Some(cap) = self.jobs[i].spec.contention_cap else {
                continue;
            };
            let own: Vec<FlowId> = self.jobs[i]
                .inflight
                .iter()
                .chain(self.jobs[i].blocked_on.iter())
                .copied()
                .filter(|f| self.flow_job.contains_key(f))
                .collect();
            if own.is_empty() {
                continue;
            }
            let others_active = self.flow_job.values().any(|&j| j != i);
            for f in own {
                self.pfs
                    .set_cap(now, f, if others_active { Some(cap) } else { None });
            }
        }
        self.resync_pfs();
    }

    fn drain_pfs(&mut self) {
        loop {
            let now = self.queue.now();
            let done = self.pfs.advance_to(now);
            if done.is_empty() {
                return;
            }
            for (_, flow) in done {
                self.on_flow_done(flow);
            }
        }
    }

    fn on_flow_done(&mut self, flow: FlowId) {
        let i = self
            .flow_job
            .remove(&flow)
            .invariant("flow belongs to a job");
        if self.jobs[i].inflight == Some(flow) {
            self.jobs[i].inflight = None;
        }
        let was_blocked = self.jobs[i].blocked_on == Some(flow);
        if was_blocked {
            self.jobs[i].blocked_on = None;
        }
        self.update_contention_caps();
        if was_blocked {
            self.advance_job(i);
        } else if self.jobs[i].phase >= self.jobs[i].spec.profile.len()
            && self.jobs[i].state == JobState::Running
            && self.jobs[i].inflight.is_none()
            && self.jobs[i].blocked_on.is_none()
        {
            self.finish_job(i);
        }
    }

    /// Re-arms the PFS wake (the queue's alarm) at the next completion.
    fn resync_pfs(&mut self) {
        match self.pfs.next_completion() {
            Some(t) => {
                let t = t.max(self.queue.now());
                self.queue.set_alarm(t, Event::PfsWake);
            }
            None => self.queue.clear_alarm(),
        }
    }

    /// The configured cluster parameters.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
}

/// Builds the paper's Fig. 1 scenario: eight HACC-IO-like jobs on 16, 32 or
/// 96 nodes; job 4 is the only asynchronous one. When `limit_job4` is true,
/// job 4 is capped at its required bandwidth (×`tol`) during contention.
pub fn motivation_scenario(limit_job4: bool, tol: f64) -> (ClusterConfig, Vec<JobSpec>) {
    let cfg = ClusterConfig::default();
    // I/O-dominated sync jobs keep the PFS near saturation for most of the
    // run (the paper's Fig. 2): 10 GB per node per loop against only 4 s of
    // compute. Job 4 is compute-heavy with async I/O: its required
    // bandwidth (4 GB / 20 s = 0.2 GB/s per node → 19.2 GB/s) sits well
    // below its by-node fair share (96/336 × 120 ≈ 34 GB/s), so capping it
    // during contention is a pure gift of ~13 GB/s to the sync jobs, while
    // its own transfers still fit the 20 s compute window.
    let gb = 1e9;
    let sync_job = |name: &str, nodes: usize, submit: f64, loops: usize| {
        JobSpec::hacc_like(
            name,
            nodes,
            submit,
            loops,
            4.0,
            10.0 * gb * nodes as f64,
            IoStyle::Sync,
        )
    };
    let mut jobs = vec![
        sync_job("job0", 96, 0.0, 6),
        sync_job("job1", 32, 2.0, 7),
        sync_job("job2", 16, 4.0, 8),
        sync_job("job3", 32, 6.0, 7),
        JobSpec::hacc_like("job4", 96, 8.0, 8, 20.0, 4.0 * gb * 96.0, IoStyle::Async),
        sync_job("job5", 16, 10.0, 8),
        sync_job("job6", 32, 12.0, 7),
        sync_job("job7", 16, 14.0, 8),
    ];
    if limit_job4 {
        let b = jobs[4].required_bandwidth();
        jobs[4].contention_cap = Some(b * tol);
    }
    (cfg, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_job(style: IoStyle) -> JobSpec {
        JobSpec::hacc_like("j", 10, 0.0, 3, 10.0, 100e9, style)
    }

    #[test]
    fn single_sync_job_runtime() {
        let cfg = ClusterConfig::default();
        // 3 × (10 s compute + 100 GB / 120 GB/s ≈ 0.833 s I/O) ≈ 32.5 s.
        let r = Cluster::new(cfg, vec![one_job(IoStyle::Sync)]).run();
        assert!(
            (r.jobs[0].runtime() - 32.5).abs() < 0.1,
            "{}",
            r.jobs[0].runtime()
        );
    }

    #[test]
    fn single_async_job_hides_io() {
        let cfg = ClusterConfig::default();
        // Bursts hidden behind the following compute; only the last one
        // (nothing left to overlap) adds its ~0.833 s.
        let r = Cluster::new(cfg, vec![one_job(IoStyle::Async)]).run();
        assert!(
            (r.jobs[0].runtime() - 30.833).abs() < 0.1,
            "{}",
            r.jobs[0].runtime()
        );
    }

    #[test]
    fn jobs_queue_when_nodes_exhausted() {
        let cfg = ClusterConfig {
            nodes: 10,
            ..Default::default()
        };
        let a = JobSpec::hacc_like("a", 10, 0.0, 1, 5.0, 1e9, IoStyle::Sync);
        let b = JobSpec::hacc_like("b", 10, 0.0, 1, 5.0, 1e9, IoStyle::Sync);
        let r = Cluster::new(cfg, vec![a, b]).run();
        assert!(r.jobs[1].start >= r.jobs[0].end - 1e-9, "b must wait for a");
    }

    #[test]
    fn fcfs_blocks_later_small_jobs() {
        let cfg = ClusterConfig {
            nodes: 10,
            ..Default::default()
        };
        let a = JobSpec::hacc_like("a", 8, 0.0, 1, 5.0, 1e9, IoStyle::Sync);
        let big = JobSpec::hacc_like("big", 10, 1.0, 1, 5.0, 1e9, IoStyle::Sync);
        let small = JobSpec::hacc_like("small", 2, 2.0, 1, 5.0, 1e9, IoStyle::Sync);
        let r = Cluster::new(cfg, vec![a, big, small]).run();
        // Strict FCFS: small (fits beside a) must still wait behind big.
        assert!(r.jobs[2].start >= r.jobs[1].start - 1e-9);
    }

    #[test]
    fn contention_slows_concurrent_jobs() {
        let cfg = ClusterConfig::default();
        let solo = Cluster::new(cfg, vec![one_job(IoStyle::Sync)]).run().jobs[0].runtime();
        let pair = Cluster::new(cfg, vec![one_job(IoStyle::Sync), one_job(IoStyle::Sync)]).run();
        assert!(
            pair.jobs[0].runtime() > solo + 1.0,
            "shared PFS must slow both: {} vs {solo}",
            pair.jobs[0].runtime()
        );
    }

    #[test]
    fn required_bandwidth_of_profile() {
        let j = JobSpec::hacc_like("j", 4, 0.0, 2, 10.0, 50e9, IoStyle::Async);
        // Each write must fit the *following* 10 s compute window; the last
        // write has none, so phases contributing are loops 0..n−1.
        assert!((j.required_bandwidth() - 5e9).abs() < 1.0);
    }

    #[test]
    fn contention_cap_frees_bandwidth_for_sync_jobs() {
        // One async job + one sync job on the same PFS. Capping the async
        // job at its required bandwidth speeds the sync job up.
        let cfg = ClusterConfig::default();
        let sync_job = || JobSpec::hacc_like("sync", 96, 0.0, 6, 10.0, 150e9, IoStyle::Sync);
        let mut async_job = JobSpec::hacc_like("async", 96, 0.0, 6, 10.0, 150e9, IoStyle::Async);

        let base = Cluster::new(cfg, vec![sync_job(), async_job.clone()]).run();

        async_job.contention_cap = Some(async_job.required_bandwidth() * 1.1);
        let limited = Cluster::new(cfg, vec![sync_job(), async_job]).run();

        let sync_base = base.jobs[0].runtime();
        let sync_lim = limited.jobs[0].runtime();
        assert!(
            sync_lim < sync_base - 1.0,
            "sync job should profit: {sync_lim} vs {sync_base}"
        );
        // The async job may slow down slightly, but not catastrophically.
        let async_base = base.jobs[1].runtime();
        let async_lim = limited.jobs[1].runtime();
        assert!(
            async_lim < async_base * 1.35,
            "async job {async_lim} vs {async_base}"
        );
    }

    #[test]
    fn bandwidth_series_conserves_bytes() {
        let cfg = ClusterConfig::default();
        let r = Cluster::new(cfg, vec![one_job(IoStyle::Sync)]).run();
        let moved = r
            .total_bandwidth
            .integral(SimTime::ZERO, SimTime::from_secs(1e4));
        assert!((moved - 300e9).abs() < 1e6, "moved {moved}");
    }

    #[test]
    fn motivation_scenario_shapes() {
        let (cfg, jobs) = motivation_scenario(true, 1.1);
        assert_eq!(jobs.len(), 8);
        assert_eq!(cfg.nodes, 500);
        assert!(jobs[4].contention_cap.is_some());
        assert!(jobs
            .iter()
            .enumerate()
            .all(|(i, j)| (i == 4) == (j.style == IoStyle::Async)));
    }
}

#[cfg(test)]
mod backfill_tests {
    use super::*;

    #[test]
    fn backfill_lets_short_jobs_jump() {
        let cfg = ClusterConfig {
            nodes: 10,
            scheduler: Scheduler::Backfill,
            ..Default::default()
        };
        // a: holds 8 nodes for ~20 s. big: needs 10 (blocked). small: 2
        // nodes, short — fits beside a and ends before big's reservation.
        let a = JobSpec::hacc_like("a", 8, 0.0, 1, 20.0, 1e9, IoStyle::Sync);
        let big = JobSpec::hacc_like("big", 10, 1.0, 1, 5.0, 1e9, IoStyle::Sync);
        let small = JobSpec::hacc_like("small", 2, 2.0, 1, 2.0, 1e9, IoStyle::Sync);
        let r = Cluster::new(cfg, vec![a, big, small]).run();
        assert!(
            r.jobs[2].start < r.jobs[1].start,
            "small ({}) should backfill ahead of big ({})",
            r.jobs[2].start,
            r.jobs[1].start
        );
        // And the head is not delayed: big starts when a ends.
        assert!((r.jobs[1].start - r.jobs[0].end).abs() < 1e-6);
    }

    #[test]
    fn backfill_rejects_jobs_that_would_delay_the_head() {
        let cfg = ClusterConfig {
            nodes: 10,
            scheduler: Scheduler::Backfill,
            ..Default::default()
        };
        let a = JobSpec::hacc_like("a", 8, 0.0, 1, 10.0, 1e9, IoStyle::Sync);
        let big = JobSpec::hacc_like("big", 10, 1.0, 1, 5.0, 1e9, IoStyle::Sync);
        // long: fits beside a but its walltime extends past big's
        // reservation — must NOT backfill.
        let long = JobSpec::hacc_like("long", 2, 2.0, 1, 60.0, 1e9, IoStyle::Sync);
        let r = Cluster::new(cfg, vec![a, big, long]).run();
        assert!(
            r.jobs[2].start >= r.jobs[1].start,
            "long ({}) must wait behind big ({})",
            r.jobs[2].start,
            r.jobs[1].start
        );
    }

    #[test]
    fn backfill_never_worse_than_fcfs_here() {
        let jobs = || {
            vec![
                JobSpec::hacc_like("a", 8, 0.0, 1, 15.0, 1e9, IoStyle::Sync),
                JobSpec::hacc_like("big", 10, 1.0, 1, 5.0, 1e9, IoStyle::Sync),
                JobSpec::hacc_like("s1", 2, 2.0, 1, 2.0, 1e9, IoStyle::Sync),
                JobSpec::hacc_like("s2", 2, 2.5, 1, 2.0, 1e9, IoStyle::Sync),
            ]
        };
        let fcfs_cfg = ClusterConfig {
            nodes: 10,
            ..Default::default()
        };
        let bf_cfg = ClusterConfig {
            scheduler: Scheduler::Backfill,
            ..fcfs_cfg
        };
        let fcfs = Cluster::new(fcfs_cfg, jobs()).run();
        let bf = Cluster::new(bf_cfg, jobs()).run();
        assert!(bf.makespan <= fcfs.makespan + 1e-9);
        assert!(
            bf.jobs[2].end < fcfs.jobs[2].end - 1.0,
            "short jobs should finish much earlier with backfill"
        );
    }

    #[test]
    fn walltime_estimate_covers_actual_runtime() {
        // The derived walltime must be an over-estimate for a solo job.
        let j = JobSpec::hacc_like("j", 96, 0.0, 6, 10.0, 96.0 * 4e9, IoStyle::Sync);
        let w = j.walltime;
        let cfg = ClusterConfig::default();
        let r = Cluster::new(cfg, vec![j]).run();
        assert!(
            r.jobs[0].runtime() <= w,
            "actual {} exceeds promised {w}",
            r.jobs[0].runtime()
        );
    }
}
