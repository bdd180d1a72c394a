//! The single-session runs the benchmark times: the untraced path users
//! call, the set-up alone, and a hand-wired traced replica of
//! `Session::try_run` with timing wrappers at every layer boundary.

use crate::probe::{Counter, Spans, TimedDriver, TimedHooks};
use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use mpisim::{Channel, ScriptedDriver, World, WorldConfig};
use session::{ExpConfig, HaccIo, RunOutput, Session, Wacomm, Workload};
use std::hash::{DefaultHasher, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmio::{Strategy, Tracer, TracerConfig};

/// Which paper application a session runs.
#[derive(Clone, Copy, Debug)]
pub enum App {
    /// The modified HACC-IO benchmark, `HaccConfig::default()`.
    Hacc,
    /// The WaComM-like transport code, `WacommConfig::default()`.
    Wacomm,
}

/// One session shape: application, rank count and limiting strategy.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    /// The application.
    pub app: App,
    /// Ranks of the headline run; the ladder adds N/2 and N/4.
    pub ranks: usize,
    /// TMIO limiting strategy.
    pub strategy: Strategy,
}

impl SessionSpec {
    /// The experiment configuration at `ranks` ranks and `seed`.
    pub fn config(&self, ranks: usize, seed: u64) -> ExpConfig {
        ExpConfig::new(ranks, self.strategy).with_seed(seed)
    }

    /// The workload the session executes.
    pub fn workload(&self) -> Box<dyn Workload> {
        match self.app {
            App::Hacc => Box::new(HaccIo::new(HaccConfig::default())),
            App::Wacomm => Box::new(Wacomm::new(WacommConfig::default())),
        }
    }

    /// Rank counts of the scaling ladder: N/4, N/2, N.
    pub fn ladder(&self) -> [usize; 3] {
        [self.ranks / 4, self.ranks / 2, self.ranks]
    }
}

/// The queries `iobts` prints after a run; part of the timed path.
fn analyse(out: &RunOutput) {
    std::hint::black_box(out.report.required_bandwidth());
    std::hint::black_box(out.report.decomposition());
}

/// The untraced run as users call it: build, run and query. Returns the
/// output and the host wall time of that path.
pub fn run(spec: &SessionSpec, ranks: usize, seed: u64) -> Result<(RunOutput, f64), String> {
    let cfg = spec.config(ranks, seed);
    let workload = spec.workload();
    let t = Instant::now();
    let session = Session::builder(cfg)
        .workload_boxed(workload)
        .try_build()
        .map_err(|e| e.to_string())?;
    let out = session.try_run().map_err(|e| e.to_string())?;
    analyse(&out);
    Ok((out, t.elapsed().as_secs_f64()))
}

/// The set-up before the first event, timed alone: per-rank programs, the
/// tracer, the world and its files.
pub fn setup(spec: &SessionSpec, seed: u64) -> f64 {
    let cfg = spec.config(spec.ranks, seed);
    let workload = spec.workload();
    let n = cfg.n_ranks;
    let t = Instant::now();
    let programs = workload.programs(n);
    let tracer = Tracer::new(n, tracer_config(&cfg));
    let mut world = World::new(world_config(&cfg), programs, tracer);
    for f in workload.files(n) {
        world.create_file(&f);
    }
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(world));
    secs
}

/// `ExpConfig` → `WorldConfig`, field for field as the session layer
/// translates it. The traced run's bit-identity check guards the copy.
fn world_config(cfg: &ExpConfig) -> WorldConfig {
    let mut wc = WorldConfig::new(cfg.n_ranks)
        .with_limiter(cfg.strategy.limits())
        .with_compute_noise(cfg.compute_noise)
        .with_seed(cfg.seed);
    wc.pfs = cfg.pfs;
    wc.subreq_bytes = cfg.subreq_bytes;
    wc.capacity_noise = cfg.capacity_noise;
    wc.interference_alpha = cfg.interference_alpha;
    wc.limit_sync_ops = cfg.limit_sync_ops;
    wc.burst_buffer = cfg.burst_buffer;
    wc.record_pfs = cfg.record_pfs;
    wc.faults = cfg.faults.clone();
    wc.watchdog = cfg.watchdog;
    wc
}

/// `ExpConfig` → `TracerConfig`, as the session layer translates it.
fn tracer_config(cfg: &ExpConfig) -> TracerConfig {
    let mut tc = TracerConfig::with_strategy(cfg.strategy);
    tc.te_mode = cfg.te_mode;
    tc.aggregation = cfg.aggregation;
    if let Some(peri) = cfg.peri_call_overhead {
        tc.peri_call_overhead = peri;
    }
    tc
}

/// Everything one traced run measured, per layer.
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    /// Host wall time of the whole traced path (the traced `run_s`).
    pub total_s: f64,
    /// `Workload::programs` + `Workload::files`.
    pub programs_s: f64,
    /// Ops in the generated programs.
    pub ops: u64,
    /// `World::with_driver`, including the scripted driver's validation.
    pub world_new_s: f64,
    /// `World::try_run`.
    pub try_run_s: f64,
    /// `RankDriver::next_op` calls and time.
    pub driver: Counter,
    /// Every `IoHooks` call and its time.
    pub hook: Counter,
    /// `on_wait_exit` calls and time.
    pub wait_exit: Counter,
    /// Σ ceil(bytes / subreq_bytes) over submits and blocking begins.
    pub subreqs: u64,
    /// Points in both PFS rate series.
    pub rate_steps: u64,
    /// Distinct effective rank limits at the end of the run.
    pub capped_ranks: u64,
    /// `Tracer::into_report`.
    pub into_report_s: f64,
    /// Report queries: required bandwidth, decomposition, three series.
    pub analysis_s: f64,
    /// Phases in the report.
    pub phases: u64,
    /// Share of the root span covered by its child spans.
    pub coverage: f64,
}

impl LayerSample {
    /// `World::try_run` minus the time spent in hooks and the driver.
    pub fn engine_self_s(&self) -> f64 {
        self.try_run_s - self.hook.secs() - self.driver.secs()
    }

    /// The deterministic counts, which must repeat exactly for one seed.
    pub fn counts(&self) -> [u64; 7] {
        [
            self.ops,
            self.driver.calls,
            self.hook.calls,
            self.subreqs,
            self.rate_steps,
            self.capped_ranks,
            self.phases,
        ]
    }
}

/// The hand-wired traced replica of `Session::try_run` plus the analysis
/// queries. `run_id` tags its spans in `spans`.
pub fn traced_run(
    spec: &SessionSpec,
    ranks: usize,
    seed: u64,
    spans: &mut Spans,
    run_id: u32,
) -> Result<(RunOutput, LayerSample), String> {
    let cfg = spec.config(ranks, seed);
    let workload = spec.workload();
    let mut s = LayerSample::default();
    let root = spans.open("run", run_id, None);
    let p = Some(root);

    let (valid, _) = spans.time("session.validate", run_id, p, || cfg.validate());
    valid.map_err(|e| e.to_string())?;
    let ((programs, files), t) = spans.time("hpcwl.programs", run_id, p, || {
        (workload.programs(ranks), workload.files(ranks))
    });
    s.programs_s = t;
    s.ops = programs.iter().map(|p| p.len() as u64).sum();
    let (tracer, _) = spans.time("tmio.tracer_new", run_id, p, || {
        Tracer::new(ranks, tracer_config(&cfg))
    });
    let driver_out = Arc::new(Mutex::new(Counter::default()));
    let (mut world, t) = spans.time("mpisim.world_new", run_id, p, || {
        let driver = TimedDriver::new(ScriptedDriver::new(programs), driver_out.clone());
        World::with_driver(
            world_config(&cfg),
            Box::new(driver),
            TimedHooks::new(tracer, cfg.subreq_bytes),
        )
    });
    s.world_new_s = t;
    spans.time("mpisim.create_file", run_id, p, || {
        for f in &files {
            world.create_file(f);
        }
    });
    let (summary, t) = spans.time("mpisim.try_run", run_id, p, || world.try_run());
    s.try_run_s = t;
    let summary = summary.map_err(|e| e.to_string())?;
    let ((pfs_write, pfs_read, hooks), _) = spans.time("mpisim.collect", run_id, p, || {
        let w = world.pfs_series(Channel::Write).clone();
        let r = world.pfs_series(Channel::Read).clone();
        let limits = world.limits();
        let mut caps: Vec<u64> = (0..limits.n_ranks())
            .filter_map(|r| limits.effective(r).map(f64::to_bits))
            .collect();
        caps.sort_unstable();
        caps.dedup();
        s.capped_ranks = caps.len() as u64;
        (w, r, world.into_hooks())
    });
    s.rate_steps = (pfs_write.len() + pfs_read.len()) as u64;
    s.driver = *driver_out.lock().map_err(|e| e.to_string())?;
    s.hook = hooks.hook;
    s.wait_exit = hooks.wait_exit;
    s.subreqs = hooks.subreqs;
    let (report, t) = spans.time("tmio.into_report", run_id, p, || hooks.inner.into_report());
    s.into_report_s = t;
    let out = RunOutput {
        summary,
        report,
        pfs_write,
        pfs_read,
    };
    let (_, t) = spans.time("tmio.analysis", run_id, p, || {
        analyse(&out);
        query_series(&out);
    });
    s.analysis_s = t;
    s.phases = out.report.phases.len() as u64;
    s.total_s = spans.close(root);
    s.coverage = spans.child_coverage(root);
    Ok((out, s))
}

/// Bit-level fingerprint of a run's output: its full `Debug` rendering
/// (shortest round-trip floats, so distinct bits print differently) fed
/// into a fixed-key hasher without materialising the text. Call it after
/// the same report queries on both sides, since they fill report caches.
pub fn fingerprint(out: &RunOutput) -> u64 {
    struct HashWriter(DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(DefaultHasher::new());
    let _ = std::fmt::Write::write_fmt(&mut w, format_args!("{out:?}"));
    w.0.finish()
}

/// Fills the same report caches the traced run's analysis span fills, so
/// [`fingerprint`] compares like with like.
pub fn query_series(out: &RunOutput) {
    std::hint::black_box(out.report.required_series());
    std::hint::black_box(out.report.limit_series());
    std::hint::black_box(out.report.throughput_series());
}
