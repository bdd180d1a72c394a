//! `iobench` — the repository benchmark harness.
//!
//! ```text
//! iobench --workload hacc_direct --seed 1 --seconds 25 --trace 0
//! iobench --dump-reference
//! ```
//!
//! One process runs one workload in a closed loop: a single client runs
//! the workload's runs back to back after discarded warm-up runs, which
//! double as output checks at the reference and the held-out seed. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and hand-wired traced runs and reports the
//! per-layer metrics. End-to-end times are rescaled to a reference host
//! speed by a calibration kernel (see `calib`). Every run's output is
//! checked. The last stdout line is the JSON result; the line before it
//! carries sample counts. Normally driven through `run.py`, which builds
//! this package first.

mod calib;
mod checks;
mod probe;
mod runs;
mod stats;

use bench::registry::{Scenario, ScenarioCtx, ALL};
use calib::Calibration;
use checks::{Golden, HELDOUT_SEED, REFERENCE_SEED};
use probe::Spans;
use runs::{App, LayerSample, SessionSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tmio::Strategy;

/// One benchmark workload: a headline session and, for the figure sweep,
/// the registry pass that is its headline instead.
struct WorkloadDef {
    name: &'static str,
    session: SessionSpec,
    sweep: bool,
}

const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "hacc_direct",
        session: SessionSpec {
            app: App::Hacc,
            ranks: 4608,
            strategy: Strategy::Direct { tol: 1.1 },
        },
        sweep: false,
    },
    WorkloadDef {
        name: "wacomm_uponly",
        session: SessionSpec {
            app: App::Wacomm,
            ranks: 6144,
            strategy: Strategy::UpOnly { tol: 1.1 },
        },
        sweep: false,
    },
    // The sweep's own set-up and ladder are measured on its largest
    // quick-scale HACC-IO direct session (fig13's direct point).
    WorkloadDef {
        name: "figures_quick",
        session: SessionSpec {
            app: App::Hacc,
            ranks: 384,
            strategy: Strategy::Direct { tol: 1.1 },
        },
        sweep: true,
    },
];

/// Worker count of the timed figure sweep (the build machine's cores).
const SWEEP_JOBS: usize = 2;
/// Timed set-ups per invocation (at least this many, and at least
/// [`SETUP_SECONDS`] of them); `setup_s` is their median.
const SETUP_REPS: usize = 15;
const SETUP_SECONDS: f64 = 0.5;
/// Set-ups timed after each calibration.
const SETUP_BLOCK_SECONDS: f64 = 0.1;
/// Runs per loop iteration at N/4, N/2 and N ranks: the cheap rungs of
/// the scaling ladder are repeated so each rung's median is as steady.
const RUNG_REPEATS: [usize; 3] = [4, 2, 1];
/// Share of a traced run's wall time its layer spans must account for.
const MIN_SPAN_COVERAGE: f64 = 0.95;
/// Loop iterations always run, however short `--seconds` is.
const MIN_ITERS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    golden_dir: PathBuf,
    dump_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: REFERENCE_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("iobench/out"),
        golden_dir: PathBuf::from("results"),
        dump_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--dump-reference" {
            a.dump_reference = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v != "0",
            "--out-dir" => a.out_dir = PathBuf::from(v),
            "--golden-dir" => a.golden_dir = PathBuf::from(v),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// Failure accounting: a run fails if it returns an error, panics or
/// fails an output check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("iobench: FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|m| (*m).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        Err(format!("panicked: {msg}"))
    })
}

/// One untraced run with the invariant checks (and, at the reference
/// seed, the reference comparison). Returns its output and wall time.
fn checked_run(
    w: &WorkloadDef,
    ranks: usize,
    seed: u64,
) -> Result<(session::RunOutput, f64), String> {
    guarded(|| {
        let (out, secs) = runs::run(&w.session, ranks, seed)?;
        checks::check_invariants(&w.session, ranks, &out)?;
        if seed == REFERENCE_SEED && ranks == w.session.ranks {
            checks::check_reference(w.name, &out)?;
        }
        Ok((out, secs))
    })
}

/// One figure-sweep pass's timings.
struct SweepSample {
    total_s: f64,
    entry_s: Vec<f64>,
    csv_bytes: u64,
}

/// Every figure and ablation registry entry at quick scale, in a seeded
/// order, writing CSVs into a scratch directory checked against goldens.
struct Sweep {
    order: Vec<&'static Scenario>,
    csv_dir: PathBuf,
    golden: Golden,
}

impl Sweep {
    fn new(seed: u64, out_dir: &Path, golden_dir: &Path) -> Result<Sweep, String> {
        let mut order: Vec<&'static Scenario> = ALL
            .iter()
            .filter(|s| s.group == "figure" || s.group == "ablation")
            .collect();
        stats::shuffle(&mut order, seed);
        let csv_dir = out_dir.join("csv");
        std::fs::create_dir_all(&csv_dir).map_err(|e| format!("{}: {e}", csv_dir.display()))?;
        // Read once, before any worker thread exists.
        std::env::set_var("IOBTS_RESULTS_DIR", &csv_dir);
        let golden = Golden::load(golden_dir)?;
        Ok(Sweep {
            order,
            csv_dir,
            golden,
        })
    }

    /// Entry names in registry order (the order metrics are reported in).
    fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.order.iter().map(|s| s.name).collect();
        names.sort_by_key(|n| ALL.iter().position(|s| s.name == *n));
        names
    }

    /// One pass at `jobs` workers; entry times are in [`Sweep::names`]
    /// order. The CSV comparison is not timed.
    fn pass(&self, jobs: usize) -> Result<SweepSample, String> {
        guarded(|| {
            for e in std::fs::read_dir(&self.csv_dir).map_err(|e| e.to_string())? {
                std::fs::remove_file(e.map_err(|e| e.to_string())?.path())
                    .map_err(|e| e.to_string())?;
            }
            bench::par::set_jobs(jobs);
            let ctx = ScenarioCtx::default();
            let mut times = BTreeMap::new();
            let t = Instant::now();
            for s in &self.order {
                let t_entry = Instant::now();
                (s.run)(&ctx).map_err(|e| format!("{}: {e}", s.name))?;
                times.insert(s.name, t_entry.elapsed().as_secs_f64());
            }
            let total_s = t.elapsed().as_secs_f64();
            let csv_bytes = self.golden.compare(&self.csv_dir)?;
            let entry_s = self.names().iter().map(|n| times[n]).collect();
            Ok(SweepSample {
                total_s,
                entry_s,
                csv_bytes,
            })
        })
    }
}

/// Named metric values with units, plus sample counts for the report.
#[derive(Default)]
struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    samples: Vec<(String, usize)>,
}

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        let name = name.into();
        self.samples.push((name.clone(), n));
        self.values.push((name, value, unit));
    }

    /// Puts the median of `xs`.
    fn median(&mut self, name: impl Into<String>, xs: &[f64], unit: &'static str) {
        let v = stats::median(xs).unwrap_or(f64::NAN);
        self.put(name, v, unit, xs.len());
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Prints the sample-count line and then the result line.
fn print_result(w: &WorkloadDef, args: &Args, tally: &Tally, m: &Metrics, extra: &str) -> bool {
    let finite = m.values.iter().all(|(_, v, _)| v.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let samples: Vec<String> = m
        .samples
        .iter()
        .map(|(n, c)| format!("\"{n}\":{c}"))
        .collect();
    println!(
        "{{\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"error_rate\":\"{}/{}\",\"samples\":{{{}}}{extra}}}}}",
        w.name,
        args.seed,
        args.trace,
        tally.failed,
        tally.attempted,
        samples.join(",")
    );
    let metrics: Vec<String> = m
        .values
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
    finite
}

/// The discarded warm-up: one headline run at the reference seed (checked
/// against the recorded values) and one at the held-out seed.
fn warm_up(w: &WorkloadDef, tally: &mut Tally) {
    for seed in [REFERENCE_SEED, HELDOUT_SEED] {
        let r = checked_run(w, w.session.ranks, seed);
        tally.record(&format!("{} at seed {seed}", w.name), r);
    }
}

/// `--trace 0`: the end-to-end metrics. Times are rescaled to the
/// reference host by the calibration kernel timed just before them; the
/// scaling exponent compares raw times taken moments apart.
fn end_to_end(
    w: &WorkloadDef,
    args: &Args,
    sweep: Option<&Sweep>,
    tally: &mut Tally,
) -> (Metrics, String) {
    warm_up(w, tally);
    if let Some(sw) = sweep {
        tally.record("warm-up sweep", sw.pass(SWEEP_JOBS));
    }
    // The warm-up ran the whole workload, so this is its high-water mark,
    // read before the calibration table exists.
    let peak_rss = stats::peak_rss_mib().unwrap_or(f64::NAN);
    let mut cal = Calibration::new(if sweep.is_some() { SWEEP_JOBS } else { 1 });

    let mut setup = Vec::new();
    let t_setup = Instant::now();
    while setup.len() < SETUP_REPS || t_setup.elapsed().as_secs_f64() < SETUP_SECONDS {
        let factor = cal.factor();
        let block = Instant::now();
        loop {
            setup.push(runs::setup(&w.session, args.seed) * factor);
            if block.elapsed().as_secs_f64() >= SETUP_BLOCK_SECONDS {
                break;
            }
        }
    }

    let ladder = w.session.ladder();
    let (mut run_s, mut run_wall, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut rungs: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    let mut iters = 0;
    while iters < MIN_ITERS || start.elapsed().as_secs_f64() < args.seconds {
        let factor = cal.factor();
        factors.push(factor);
        let mut headline = None;
        if let Some(sw) = sweep {
            headline = tally
                .record("sweep", sw.pass(SWEEP_JOBS))
                .map(|s| s.total_s);
        }
        for i in (0..ladder.len()).rev() {
            let ranks = ladder[i];
            for _ in 0..RUNG_REPEATS[i] {
                let r = checked_run(w, ranks, args.seed);
                if let Some((_, secs)) = tally.record(&format!("{ranks}-rank run"), r) {
                    rungs[i].push(secs);
                    if sweep.is_none() && ranks == w.session.ranks {
                        headline = Some(secs);
                    }
                }
            }
        }
        if let Some(secs) = headline {
            run_wall.push(secs);
            run_s.push(secs * factor);
        }
        iters += 1;
    }

    let points: Vec<(f64, f64)> = ladder
        .iter()
        .zip(&rungs)
        .filter_map(|(&n, xs)| Some((n as f64, stats::median(xs)?)))
        .collect();
    let mut m = Metrics::default();
    m.median("run_s", &run_s, "s");
    m.median("setup_s", &setup, "s");
    let slope = stats::loglog_slope(&points).unwrap_or(f64::NAN);
    let rung_samples = rungs.iter().map(Vec::len).min().unwrap_or(0);
    m.put("scaling_exp", slope, "slope", rung_samples);
    m.put("peak_rss_mb", peak_rss, "MiB", 1);
    let extra = format!(
        ",\"run_wall_s\":{},\"calib_factor\":{}",
        json_num(stats::median(&run_wall).unwrap_or(f64::NAN)),
        json_num(stats::median(&factors).unwrap_or(f64::NAN))
    );
    (m, extra)
}

/// `--trace 1`: the per-layer metrics from hand-wired traced runs, plus
/// the figure sweep's per-entry times at one and two workers.
fn per_layer(w: &WorkloadDef, args: &Args, sweep: &Sweep, tally: &mut Tally) -> (Metrics, String) {
    warm_up(w, tally);
    tally.record("warm-up sweep", sweep.pass(SWEEP_JOBS));

    let n = w.session.ranks;
    let mut spans = Spans::new();
    let mut layers: Vec<LayerSample> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut sweeps2: Vec<SweepSample> = Vec::new();
    let mut sweeps1: Vec<SweepSample> = Vec::new();
    let start = Instant::now();
    let mut iter = 0u32;
    while (iter as usize) < MIN_ITERS || start.elapsed().as_secs_f64() < args.seconds {
        let untraced = guarded(|| {
            let (out, secs) = checked_run(w, n, args.seed)?;
            runs::query_series(&out);
            Ok((runs::fingerprint(&out), secs))
        });
        let untraced = tally.record("untraced run", untraced);
        if let Some((_, secs)) = untraced {
            untraced_s.push(secs);
        }
        let traced = guarded(|| {
            let (out, s) = runs::traced_run(&w.session, n, args.seed, &mut spans, iter)?;
            checks::check_invariants(&w.session, n, &out)?;
            let fp = runs::fingerprint(&out);
            if untraced.is_some_and(|(u, _)| u != fp) {
                return Err("traced output differs from the untraced output".into());
            }
            if let Some(first) = layers.first() {
                if first.counts() != s.counts() {
                    return Err(format!("counts {:?} != {:?}", s.counts(), first.counts()));
                }
            }
            if s.engine_self_s() < 0.0 {
                return Err("hook and driver time exceed the try_run span".into());
            }
            if s.coverage < MIN_SPAN_COVERAGE {
                return Err(format!("layer spans cover {:.4} of the run", s.coverage));
            }
            Ok(s)
        });
        if let Some(s) = tally.record("traced run", traced) {
            layers.push(s);
        }
        if let Some(s) = tally.record("sweep (jobs 2)", sweep.pass(SWEEP_JOBS)) {
            sweeps2.push(s);
        }
        if let Some(s) = tally.record("sweep (jobs 1)", sweep.pass(1)) {
            sweeps1.push(s);
        }
        iter += 1;
    }
    let trace_file = args.out_dir.join(format!("trace_{}.jsonl", w.name));
    if let Err(e) = spans.write_jsonl(&trace_file) {
        eprintln!("iobench: cannot write {}: {e}", trace_file.display());
    }

    let mut m = Metrics::default();
    let col = |f: &dyn Fn(&LayerSample) -> f64| -> Vec<f64> { layers.iter().map(f).collect() };
    let last = layers.last().cloned().unwrap_or_default();
    let k = layers.len();
    m.median("hpcwl.programs_s", &col(&|s| s.programs_s), "s");
    m.put("hpcwl.ops", last.ops as f64, "count", k);
    m.median("mpisim.world_new_s", &col(&|s| s.world_new_s), "s");
    m.median("mpisim.try_run_s", &col(&|s| s.try_run_s), "s");
    m.median("mpisim.engine_self_s", &col(&|s| s.engine_self_s()), "s");
    m.put("mpisim.driver_ops", last.driver.calls as f64, "count", k);
    m.median("mpisim.driver_s", &col(&|s| s.driver.secs()), "s");
    m.median(
        "mpisim.engine_ns_per_op",
        &col(&|s| s.engine_self_s() * 1e9 / s.driver.calls.max(1) as f64),
        "ns",
    );
    m.put("mpisim.subreqs", last.subreqs as f64, "count", k);
    m.put("pfsim.rate_steps", last.rate_steps as f64, "count", k);
    m.put("pfsim.capped_ranks", last.capped_ranks as f64, "count", k);
    m.put("tmio.hook_calls", last.hook.calls as f64, "count", k);
    m.median("tmio.hook_s", &col(&|s| s.hook.secs()), "s");
    m.median(
        "tmio.hook_ns_per_call",
        &col(&|s| s.hook.ns as f64 / s.hook.calls.max(1) as f64),
        "ns",
    );
    m.median("tmio.wait_exit_s", &col(&|s| s.wait_exit.secs()), "s");
    m.median("tmio.into_report_s", &col(&|s| s.into_report_s), "s");
    m.median("tmio.analysis_s", &col(&|s| s.analysis_s), "s");
    m.put("tmio.phases", last.phases as f64, "count", k);

    let names = sweep.names();
    let mut table = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let at = |ss: &[SweepSample]| ss.iter().map(|s| s.entry_s[i]).collect::<Vec<f64>>();
        let (e2, e1) = (at(&sweeps2), at(&sweeps1));
        m.median(format!("bench.scenario_s.{name}"), &e2, "s");
        let (m1, m2) = (stats::median(&e1), stats::median(&e2));
        if let (Some(m1), Some(m2)) = (m1, m2) {
            table.push(format!("\"{name}\":[{},{}]", json_num(m1), json_num(m2)));
        }
    }
    let tot = |ss: &[SweepSample]| ss.iter().map(|s| s.total_s).collect::<Vec<f64>>();
    let speedup = match (stats::median(&tot(&sweeps1)), stats::median(&tot(&sweeps2))) {
        (Some(a), Some(b)) => a / b,
        _ => f64::NAN,
    };
    m.put(
        "bench.par_speedup",
        speedup,
        "ratio",
        sweeps1.len().min(sweeps2.len()),
    );
    let csv = sweeps2.last().map_or(f64::NAN, |s| s.csv_bytes as f64);
    m.put("bench.csv_bytes", csv, "bytes", sweeps2.len());
    let traced = stats::median(&col(&|s| s.total_s));
    let overhead = match (traced, stats::median(&untraced_s)) {
        (Some(t), Some(u)) => t / u - 1.0,
        _ => f64::NAN,
    };
    m.put("trace_overhead", overhead, "ratio", k.min(untraced_s.len()));
    let coverage = stats::median(&col(&|s| s.coverage)).unwrap_or(f64::NAN);
    let extra = format!(
        ",\"span_coverage\":{},\"scenario_s_jobs1_jobs2\":{{{}}}",
        json_num(coverage),
        table.join(",")
    );
    (m, extra)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.dump_reference {
        for w in &WORKLOADS {
            match runs::run(&w.session, w.session.ranks, REFERENCE_SEED) {
                Ok((out, _)) => checks::print_reference(w.name, &out),
                Err(e) => {
                    eprintln!("iobench: {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "iobench: unknown workload `{}`; known: {}",
            args.workload,
            known.join(", ")
        );
        return ExitCode::FAILURE;
    };
    // The figure sweep runs in every traced run (its per-layer metrics are
    // reported on every workload) and is the headline of `figures_quick`.
    let sweep = if args.trace || w.sweep {
        match Sweep::new(args.seed, &args.out_dir, &args.golden_dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("iobench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let mut tally = Tally::default();
    let (metrics, extra) = match (&sweep, args.trace) {
        (Some(sw), true) => per_layer(w, &args, sw, &mut tally),
        _ => end_to_end(w, &args, sweep.as_ref().filter(|_| w.sweep), &mut tally),
    };
    if print_result(w, &args, &tally, &metrics, &extra) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
