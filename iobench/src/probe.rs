//! Outside-in instrumentation: wrappers around the public `RankDriver` and
//! `IoHooks` traits that sum call counts and wall time, and an in-memory
//! span log for the coarse layer boundaries of a traced run.
//!
//! Per-call times are summed into [`Counter`]s rather than recorded as
//! spans, so memory stays bounded however many events a run has.

use mpisim::{Channel, IoErrorKind, IoHooks, Limits, Op, RankDriver, ReqTag};
use simcore::SimTime;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmio::Tracer;

/// Number of calls into a boundary and the wall time spent inside them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counter {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside the calls.
    pub ns: u64,
}

impl Counter {
    /// Seconds spent inside the calls.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Runs `f`, charging one call and its duration to this counter.
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }
}

/// A [`RankDriver`] that times every call into the wrapped driver. The
/// world owns its driver, so the totals are published into `out` when
/// the wrapper is dropped together with the world.
pub struct TimedDriver<D: RankDriver> {
    inner: D,
    next_op: Counter,
    out: Arc<Mutex<Counter>>,
}

impl<D: RankDriver> TimedDriver<D> {
    /// Wraps `inner`; `out` receives the `next_op` totals on drop.
    pub fn new(inner: D, out: Arc<Mutex<Counter>>) -> Self {
        TimedDriver {
            inner,
            next_op: Counter::default(),
            out,
        }
    }
}

impl<D: RankDriver> RankDriver for TimedDriver<D> {
    fn next_op(&mut self, rank: usize, now: SimTime) -> Option<Op> {
        let inner = &mut self.inner;
        self.next_op.time(|| inner.next_op(rank, now))
    }

    fn on_test_result(&mut self, rank: usize, done: bool) {
        self.inner.on_test_result(rank, done);
    }

    fn on_op_error(&mut self, rank: usize, kind: IoErrorKind) {
        self.inner.on_op_error(rank, kind);
    }
}

impl<D: RankDriver> Drop for TimedDriver<D> {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            *out = self.next_op;
        }
    }
}

/// An [`IoHooks`] wrapper around the TMIO [`Tracer`] that times every hook
/// and counts the ADIO sub-requests implied by the submitted byte counts.
pub struct TimedHooks {
    /// The wrapped tracer.
    pub inner: Tracer,
    /// Every hook call.
    pub hook: Counter,
    /// `on_wait_exit` alone: `B_{i,j}`, the strategy, the limit update and
    /// the sweep push.
    pub wait_exit: Counter,
    /// Σ ceil(bytes / subreq_bytes) over async submits and blocking begins.
    pub subreqs: u64,
    subreq_bytes: f64,
}

impl TimedHooks {
    /// Wraps `inner`; `subreq_bytes` is the world's ADIO sub-request size.
    pub fn new(inner: Tracer, subreq_bytes: f64) -> Self {
        TimedHooks {
            inner,
            hook: Counter::default(),
            wait_exit: Counter::default(),
            subreqs: 0,
            subreq_bytes,
        }
    }

    fn count_subreqs(&mut self, bytes: f64) {
        self.subreqs += (bytes / self.subreq_bytes).ceil().max(0.0) as u64;
    }
}

impl IoHooks for TimedHooks {
    fn on_async_submit(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.count_subreqs(bytes);
        let inner = &mut self.inner;
        self.hook
            .time(|| inner.on_async_submit(t, rank, tag, bytes, channel, limits))
    }

    fn on_request_complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        let inner = &mut self.inner;
        self.hook.time(|| inner.on_request_complete(t, rank, tag))
    }

    fn on_wait_enter(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        already_done: bool,
        limits: &mut Limits,
    ) -> f64 {
        let inner = &mut self.inner;
        self.hook
            .time(|| inner.on_wait_enter(t, rank, tag, already_done, limits))
    }

    fn on_wait_exit(&mut self, t: SimTime, rank: usize, tag: ReqTag, limits: &mut Limits) -> f64 {
        let inner = &mut self.inner;
        let start = Instant::now();
        let r = inner.on_wait_exit(t, rank, tag, limits);
        let ns = start.elapsed().as_nanos() as u64;
        for c in [&mut self.hook, &mut self.wait_exit] {
            c.calls += 1;
            c.ns += ns;
        }
        r
    }

    fn on_sync_begin(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.count_subreqs(bytes);
        let inner = &mut self.inner;
        self.hook
            .time(|| inner.on_sync_begin(t, rank, bytes, channel, limits))
    }

    fn on_sync_end(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        let inner = &mut self.inner;
        self.hook
            .time(|| inner.on_sync_end(t, rank, bytes, channel, limits))
    }

    fn on_test(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        done: bool,
        limits: &mut Limits,
    ) -> f64 {
        let inner = &mut self.inner;
        self.hook.time(|| inner.on_test(t, rank, tag, done, limits))
    }

    fn on_io_retry(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: IoErrorKind,
        retry: u32,
        backoff: f64,
    ) {
        let inner = &mut self.inner;
        self.hook
            .time(|| inner.on_io_retry(t, rank, tag, kind, retry, backoff))
    }

    fn on_op_error(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: IoErrorKind,
        attempts: u32,
    ) {
        let inner = &mut self.inner;
        self.hook
            .time(|| inner.on_op_error(t, rank, tag, kind, attempts))
    }

    fn on_rank_done(&mut self, t: SimTime, rank: usize) {
        let inner = &mut self.inner;
        self.hook.time(|| inner.on_rank_done(t, rank))
    }
}

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// Boundary name (`mpisim.try_run`, …).
    pub name: &'static str,
    /// The traced run this span belongs to.
    pub run: u32,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Offsets from the log's origin, nanoseconds.
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
}

impl Span {
    /// Duration in seconds (0 while open).
    pub fn secs(&self) -> f64 {
        self.end_ns
            .map_or(0.0, |e| (e - self.start_ns) as f64 * 1e-9)
    }
}

/// In-memory span log, written out once at the end of the benchmark.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, run: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = Some(end);
        span.secs()
    }

    /// Runs `f` inside a new span; returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        run: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, run, parent);
        let r = f();
        (r, self.close(id))
    }

    /// Share of span `id` covered by its direct children (self time is
    /// the rest).
    pub fn child_coverage(&self, id: usize) -> f64 {
        let total = self.spans[id].secs();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Writes the log as JSON lines (`name`, `run`, `id`, `parent`,
    /// `start_s`, `end_s`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s
                .end_ns
                .map_or("null".to_string(), |e| (e as f64 * 1e-9).to_string());
            writeln!(
                f,
                "{{\"name\":\"{}\",\"run\":{},\"id\":{id},\"parent\":{parent},\"start_s\":{},\"end_s\":{end}}}",
                s.name,
                s.run,
                s.start_ns as f64 * 1e-9,
            )?;
        }
        f.flush()
    }
}
