//! The TMIO tracer: PMPI-style interception of asynchronous MPI-IO.
//!
//! Implements [`mpisim::IoHooks`]. For every rank it maintains the paper's
//! two monitoring queues (Sec. IV-A):
//!
//! * the **bandwidth queue** collects requests of the current I/O phase;
//!   the phase closes when its *first* request reaches the matching wait
//!   (`te_{i,j}`), yielding the required bandwidth `B_{i,j}` =
//!   Σ_k b_k/(te − ts_k) (sum — the paper's choice — or mean);
//! * the **throughput queue** measures `T_{i,j}`: it opens when the first
//!   request is submitted and closes when the last completes and the queue
//!   empties.
//!
//! At each phase closure the configured [`Strategy`] turns `B_{i,j}` into the
//! throughput limit for phase *j+1* and pushes it into the runtime through
//! [`mpisim::Limits`] — the boundary to the "modified MPICH".
//!
//! # Streaming pipeline
//!
//! The tracer sits on the simulation's per-event hot path, so its matching
//! and record storage are allocation-free in steady state and touch only
//! the calling rank's state:
//!
//! * each rank keeps its requests in one small vector in submit order and
//!   finds a request by a linear scan of its tag — a rank has only a
//!   handful in flight, so no index or hashing is needed, and the vector
//!   stops growing at the rank's peak number of requests. The vector's
//!   tail is the bandwidth queue, so a call touches one rank record and
//!   one buffer;
//! * closed phase/window/span/sync records are pushed as the report's own
//!   row types into the vectors that become the [`crate::Report`] fields,
//!   so [`Tracer::into_report`] moves them without a copy.
//!
//! The tracer records; it does not aggregate. The application-level Eq. 3
//! series (`B_r`, `B_L`, `T`) are swept from the finished report's phase
//! and window tables on first query (Sec. IV-C's offline analysis).

use crate::strategy::{Strategy, StrategyState};
use mpisim::{Channel, IoHooks, Limits, ReqTag};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// How per-request bandwidths combine into the rank metric `B_{i,j}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// Sum of per-request bandwidths ("results in higher values", the
    /// paper's choice).
    Sum,
    /// Mean of per-request bandwidths (the TMIO alternative).
    Mean,
}

/// When the required-bandwidth window ends (Sec. IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TeMode {
    /// `te` = when the *first* queued request reaches its matching wait
    /// (higher B; the paper's choice).
    FirstWait,
    /// `te` = when the *last* queued request reaches its matching wait
    /// (the TMIO option the paper mentions but does not use).
    LastWait,
}

/// Model of TMIO's post-runtime overhead (the `MPI_Finalize` gather that
/// collects per-rank records; grows with rank count — Fig. 6).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PostOverheadModel {
    /// Fixed cost (file creation, serialization), seconds.
    pub base: f64,
    /// Per-tree-level latency of the gather, seconds.
    pub latency: f64,
    /// Per-rank cost of collecting one rank's records, seconds.
    pub per_rank: f64,
}

impl Default for PostOverheadModel {
    fn default() -> Self {
        PostOverheadModel {
            base: 0.02,
            latency: 1e-4,
            per_rank: 250e-6,
        }
    }
}

impl PostOverheadModel {
    /// Post-runtime overhead for a run with `n` ranks, seconds.
    pub fn overhead(&self, n: usize) -> f64 {
        let levels = (n as f64).log2().ceil().max(1.0);
        self.base + self.latency * levels + self.per_rank * n as f64
    }
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TracerConfig {
    /// Limit strategy fed back into the runtime.
    pub strategy: Strategy,
    /// Peri-runtime overhead injected per intercepted call, seconds.
    pub peri_call_overhead: f64,
    /// Per-request aggregation into `B_{i,j}`.
    pub aggregation: Aggregation,
    /// Window-end semantics.
    pub te_mode: TeMode,
    /// Post-runtime overhead model.
    pub post_model: PostOverheadModel,
}

impl TracerConfig {
    /// Trace-only configuration (no limiting), paper-default options.
    pub fn trace_only() -> Self {
        TracerConfig {
            strategy: Strategy::None,
            peri_call_overhead: 2e-6,
            aggregation: Aggregation::Sum,
            te_mode: TeMode::FirstWait,
            post_model: PostOverheadModel::default(),
        }
    }

    /// Paper-default configuration with the given strategy.
    pub fn with_strategy(strategy: Strategy) -> Self {
        TracerConfig {
            strategy,
            ..Self::trace_only()
        }
    }
}

/// One closed I/O phase of one rank: the `B_{i,j}` record.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Rank index i.
    pub rank: usize,
    /// Phase index j.
    pub phase: usize,
    /// Window start: submit time of the first request, seconds.
    pub ts: f64,
    /// Window end per the configured [`TeMode`], seconds.
    pub te: f64,
    /// Total bytes of the phase's requests.
    pub bytes: f64,
    /// Required bandwidth `B_{i,j}`, bytes/s.
    pub b_required: f64,
    /// Limit in effect *while* this phase ran (set after phase j−1).
    pub limit_during: Option<f64>,
    /// Limit emitted for the next phase (None for [`Strategy::None`]).
    pub limit_next: Option<f64>,
    /// Number of requests aggregated into this phase.
    pub n_requests: usize,
}

/// One closed throughput window: the `T_{i,j}` record.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ThroughputWindow {
    /// Rank index.
    pub rank: usize,
    /// First submit time, seconds.
    pub start: f64,
    /// Last completion time (queue drained), seconds.
    pub end: f64,
    /// Bytes moved inside the window.
    pub bytes: f64,
}

impl ThroughputWindow {
    /// The throughput value `T` of this window, bytes/s.
    pub fn throughput(&self) -> f64 {
        let dt = (self.end - self.start).max(1e-12);
        self.bytes / dt
    }
}

/// Lifetime of one asynchronous request, for exploit/lost accounting.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AsyncSpan {
    /// Rank index.
    pub rank: usize,
    /// Submit time, seconds.
    pub submit: f64,
    /// I/O-thread completion time, seconds.
    pub complete: f64,
    /// When the matching wait was entered, seconds.
    pub wait_enter: f64,
    /// Request payload bytes.
    pub bytes: f64,
    /// Direction.
    pub channel: ChannelKind,
}

impl AsyncSpan {
    /// Background ("exploit") time: the part of the transfer hidden behind
    /// the rank's other work.
    pub fn exploit(&self) -> f64 {
        (self.complete.min(self.wait_enter) - self.submit).max(0.0)
    }

    /// Blocking ("lost") time spent in the matching wait.
    pub fn lost(&self) -> f64 {
        (self.complete - self.wait_enter).max(0.0)
    }
}

/// Serializable channel tag (mirror of [`mpisim::Channel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelKind {
    /// Write direction.
    Write,
    /// Read direction.
    Read,
}

impl From<Channel> for ChannelKind {
    fn from(c: Channel) -> Self {
        match c {
            Channel::Write => ChannelKind::Write,
            Channel::Read => ChannelKind::Read,
        }
    }
}

/// One blocking I/O interval (sync tracing).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SyncInterval {
    /// Rank index.
    pub rank: usize,
    /// Call entry time, seconds.
    pub begin: f64,
    /// Return time, seconds.
    pub end: f64,
    /// Bytes.
    pub bytes: f64,
    /// Direction.
    pub channel: ChannelKind,
}

/// One async request of a rank, kept from its submit until it has left the
/// bandwidth queue and is no longer live.
struct Request {
    tag: ReqTag,
    /// Found by its tag: neither recorded as a span yet nor displaced by a
    /// resubmission of its tag.
    live: bool,
    channel: Channel,
    submit: SimTime,
    bytes: f64,
    complete: Option<SimTime>,
    wait_enter: Option<SimTime>,
}

#[derive(Default)]
struct RankTrace {
    phase: usize,
    /// The rank's requests in submit order, at most one live per tag,
    /// searched linearly: a rank has only a handful in flight.
    /// `reqs[queued..]` is the bandwidth queue, the current phase's
    /// requests; those before it are live requests of earlier phases.
    reqs: Vec<Request>,
    queued: usize,
    /// Tags of the queue that reached their wait ([`TeMode::LastWait`]
    /// only).
    waited: Vec<ReqTag>,
    tq_outstanding: usize,
    tq_start: SimTime,
    tq_bytes: f64,
    strategy: StrategyState,
    sync_begin: SimTime,
}

impl RankTrace {
    /// The bandwidth queue: the current phase's requests, in submit order.
    fn queue(&self) -> &[Request] {
        &self.reqs[self.queued..]
    }

    /// The index of the live request with `tag`.
    fn find(&self, tag: ReqTag) -> Option<usize> {
        self.reqs.iter().position(|r| r.live && r.tag == tag)
    }

    /// Ends request `i`'s life; it stays only while it is queued.
    fn retire(&mut self, i: usize) {
        self.reqs[i].live = false;
        if i < self.queued {
            self.reqs.remove(i);
            self.queued -= 1;
        }
    }
}

/// The TMIO tracer. Register as the world's hooks, run, then call
/// [`Tracer::into_report`].
pub struct Tracer {
    cfg: TracerConfig,
    ranks: Vec<RankTrace>,
    phases: Vec<PhaseRecord>,
    windows: Vec<ThroughputWindow>,
    spans: Vec<AsyncSpan>,
    syncs: Vec<SyncInterval>,
    /// Resident per-rank end times (the finalize gather's scratch).
    rank_end: Vec<f64>,
    faults: Vec<crate::report::FaultEventRecord>,
    retry_time: f64,
    calls: u64,
}

impl Tracer {
    /// Creates a tracer for `n_ranks` ranks.
    pub fn new(n_ranks: usize, cfg: TracerConfig) -> Self {
        Tracer {
            cfg,
            ranks: (0..n_ranks).map(|_| RankTrace::default()).collect(),
            phases: Vec::with_capacity(16 * n_ranks),
            windows: Vec::with_capacity(16 * n_ranks),
            spans: Vec::with_capacity(16 * n_ranks),
            syncs: Vec::with_capacity(4 * n_ranks),
            rank_end: vec![0.0; n_ranks],
            faults: Vec::new(),
            retry_time: 0.0,
            calls: 0,
        }
    }

    /// The configured strategy.
    pub fn config(&self) -> &TracerConfig {
        &self.cfg
    }

    fn call_overhead(&mut self) -> f64 {
        self.calls += 1;
        self.cfg.peri_call_overhead
    }

    /// Closes rank `rank`'s current phase at `te`, computing `B_{i,j}` and
    /// updating the limit.
    fn close_phase(&mut self, rank: usize, te: SimTime, limits: &mut Limits) {
        let cfg = self.cfg;
        let rt = &mut self.ranks[rank];
        let queue = rt.queue();
        let Some(first) = queue.first() else {
            return;
        };
        let ts = first.submit.as_secs();
        let te_s = te.as_secs();
        let mut b_sum = 0.0;
        let mut bytes = 0.0;
        for p in queue {
            let dt = (te_s - p.submit.as_secs()).max(1e-9);
            b_sum += p.bytes / dt;
            bytes += p.bytes;
        }
        let n = queue.len();
        let b = match cfg.aggregation {
            Aggregation::Sum => b_sum,
            Aggregation::Mean => b_sum / n as f64,
        };
        let limit_during = rt
            .strategy
            .current_limit()
            .filter(|_| cfg.strategy.limits());
        let limit_next = rt.strategy.next_limit(cfg.strategy, b);
        if let Some(l) = limit_next {
            limits.set(rank, Some(l));
        }
        let phase = rt.phase;
        rt.phase += 1;
        rt.reqs.retain(|r| r.live);
        rt.queued = rt.reqs.len();
        rt.waited.clear();
        self.phases.push(PhaseRecord {
            rank,
            phase,
            ts,
            te: te_s,
            bytes,
            b_required: b,
            limit_during,
            limit_next,
            n_requests: n,
        });
    }

    /// Records an observation on rank `rank`'s outstanding request `tag`
    /// and emits its [`AsyncSpan`] once both its completion and its wait
    /// are known. A tag with no outstanding request is ignored.
    fn observe(&mut self, rank: usize, tag: ReqTag, see: impl FnOnce(&mut Request)) {
        let rt = &mut self.ranks[rank];
        let Some(i) = rt.find(tag) else {
            return;
        };
        let r = &mut rt.reqs[i];
        see(r);
        if let (Some(complete), Some(wait_enter)) = (r.complete, r.wait_enter) {
            self.spans.push(AsyncSpan {
                rank,
                submit: r.submit.as_secs(),
                complete: complete.as_secs(),
                wait_enter: wait_enter.as_secs(),
                bytes: r.bytes,
                channel: r.channel.into(),
            });
            rt.retire(i);
        }
    }

    /// Finalizes and returns the report. `n_ranks` post-overhead is modeled
    /// here, mirroring TMIO's `MPI_Finalize` aggregation.
    pub fn into_report(self) -> crate::report::Report {
        let n_ranks = self.ranks.len();
        let peri_overhead = self.calls as f64 * self.cfg.peri_call_overhead;
        let post_overhead = self.cfg.post_model.overhead(n_ranks);
        crate::report::Report {
            n_ranks,
            strategy_name: self.cfg.strategy.name().to_string(),
            phases: self.phases,
            windows: self.windows,
            spans: self.spans,
            syncs: self.syncs,
            rank_end: self.rank_end,
            calls: self.calls,
            peri_overhead,
            post_overhead,
            faults: self.faults,
            retry_time: self.retry_time,
            required_cache: std::sync::OnceLock::new(),
            limit_cache: std::sync::OnceLock::new(),
            throughput_cache: std::sync::OnceLock::new(),
            decomposition_cache: std::sync::OnceLock::new(),
        }
    }
}

impl IoHooks for Tracer {
    fn on_async_submit(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        bytes: f64,
        channel: Channel,
        _limits: &mut Limits,
    ) -> f64 {
        let rt = &mut self.ranks[rank];
        if rt.tq_outstanding == 0 {
            rt.tq_start = t;
            rt.tq_bytes = 0.0;
        }
        rt.tq_outstanding += 1;
        rt.tq_bytes += bytes;
        // A resubmitted tag displaces its forgotten predecessor unrecorded.
        if let Some(i) = rt.find(tag) {
            rt.retire(i);
        }
        rt.reqs.push(Request {
            tag,
            live: true,
            channel,
            submit: t,
            bytes,
            complete: None,
            wait_enter: None,
        });
        self.call_overhead()
    }

    fn on_request_complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        self.observe(rank, tag, |r| r.complete = Some(t));
        let rt = &mut self.ranks[rank];
        debug_assert!(rt.tq_outstanding > 0);
        rt.tq_outstanding -= 1;
        if rt.tq_outstanding == 0 {
            let start = rt.tq_start.as_secs();
            let end = t.as_secs();
            self.windows.push(ThroughputWindow {
                rank,
                start,
                end,
                bytes: rt.tq_bytes,
            });
        }
    }

    fn on_wait_enter(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        _already_done: bool,
        limits: &mut Limits,
    ) -> f64 {
        self.observe(rank, tag, |r| r.wait_enter = Some(t));
        let rt = &mut self.ranks[rank];
        let close = match self.cfg.te_mode {
            TeMode::FirstWait => rt.queue().first().is_some_and(|p| p.tag == tag),
            TeMode::LastWait => {
                if rt.queue().iter().any(|p| p.tag == tag) {
                    rt.waited.push(tag);
                }
                let queue = rt.queue();
                !queue.is_empty() && queue.iter().all(|p| rt.waited.contains(&p.tag))
            }
        };
        if close {
            self.close_phase(rank, t, limits);
        }
        self.call_overhead()
    }

    fn on_wait_exit(
        &mut self,
        _t: SimTime,
        _rank: usize,
        _tag: ReqTag,
        _limits: &mut Limits,
    ) -> f64 {
        self.call_overhead()
    }

    fn on_sync_begin(
        &mut self,
        t: SimTime,
        rank: usize,
        _bytes: f64,
        _channel: Channel,
        _limits: &mut Limits,
    ) -> f64 {
        self.ranks[rank].sync_begin = t;
        self.call_overhead()
    }

    fn on_sync_end(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        _limits: &mut Limits,
    ) -> f64 {
        let begin = self.ranks[rank].sync_begin;
        self.syncs.push(SyncInterval {
            rank,
            begin: begin.as_secs(),
            end: t.as_secs(),
            bytes,
            channel: channel.into(),
        });
        self.call_overhead()
    }

    fn on_io_retry(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: simcore::IoErrorKind,
        retry: u32,
        backoff: f64,
    ) {
        self.retry_time += backoff;
        self.faults.push(crate::report::FaultEventRecord {
            t: t.as_secs(),
            rank,
            tag: tag.map(|t| t.0),
            kind: kind.name().to_string(),
            code: kind.code(),
            retry,
            backoff,
            terminal: false,
        });
    }

    fn on_op_error(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: simcore::IoErrorKind,
        attempts: u32,
    ) {
        self.faults.push(crate::report::FaultEventRecord {
            t: t.as_secs(),
            rank,
            tag: tag.map(|t| t.0),
            kind: kind.name().to_string(),
            code: kind.code(),
            retry: attempts,
            backoff: 0.0,
            terminal: true,
        });
    }

    fn on_rank_done(&mut self, t: SimTime, rank: usize) {
        self.rank_end[rank] = t.as_secs();
    }
}
