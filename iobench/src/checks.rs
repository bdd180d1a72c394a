//! Output checks: exact reference values for the reference seed,
//! invariants that hold for every seed, and the byte comparison of the
//! figure sweep's CSVs with the checked-in goldens.

use crate::runs::{App, SessionSpec};
use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use session::RunOutput;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `ExpConfig`'s default seed; reference values are recorded at it.
pub const REFERENCE_SEED: u64 = 2024;

/// The seed never used while the benchmark or a change was tuned; every
/// benchmark run also checks one run at it.
pub const HELDOUT_SEED: u64 = 9001;

/// Relative tolerance of reference float comparisons.
const REL_TOL: f64 = 1e-9;

/// What a headline run at [`REFERENCE_SEED`] produced when the benchmark
/// was defined.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// Application makespan, seconds.
    pub makespan: f64,
    /// Application-level required bandwidth (Eq. 3 peak), bytes/s.
    pub required_bandwidth: f64,
    /// Intercepted calls.
    pub calls: u64,
    /// Closed phases.
    pub phases: usize,
    /// Time decomposition, percent, in `Decomposition::percentages` order.
    pub pct: [f64; 7],
}

/// Reference values per workload name (the headline session's shape).
fn reference(workload: &str) -> Option<Reference> {
    match workload {
        "hacc_direct" => Some(Reference {
            makespan: 10.34930568533891,
            required_bandwidth: 42219571136.662575,
            calls: 368640,
            phases: 92160,
            pct: [
                0.03730841103219185,
                0.0,
                0.0,
                6.711742901622595,
                34.612295391193285,
                40.34596035237847,
                18.292692943773456,
            ],
        }),
        "wacomm_uponly" => Some(Reference {
            makespan: 6.597408056277053,
            required_bandwidth: 624839731.9133046,
            calls: 915458,
            phases: 301056,
            pct: [
                1.732721470078782,
                1.6638665607481943e-6,
                0.0,
                0.0,
                83.38148743814101,
                0.0,
                14.885789427913648,
            ],
        }),
        "figures_quick" => Some(Reference {
            makespan: 10.223556224686934,
            required_bandwidth: 3525805334.8288097,
            calls: 30720,
            phases: 7680,
            pct: [
                0.03613259698516701,
                0.0,
                0.0,
                6.378446376397655,
                33.52145228116197,
                40.81163946085866,
                19.25232928459656,
            ],
        }),
        _ => None,
    }
}

/// The output's values in [`Reference`] form.
pub fn observed(out: &RunOutput) -> Reference {
    Reference {
        makespan: out.app_time(),
        required_bandwidth: out.report.required_bandwidth(),
        calls: out.report.calls,
        phases: out.report.phases.len(),
        pct: out.report.decomposition().percentages(),
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Compares a headline run at [`REFERENCE_SEED`] with the recorded
/// values: counts exactly, floats within 1e-9 relative.
pub fn check_reference(workload: &str, out: &RunOutput) -> Result<(), String> {
    let want = reference(workload).ok_or_else(|| format!("no reference for {workload}"))?;
    let got = observed(out);
    let mut bad = Vec::new();
    if got.calls != want.calls {
        bad.push(format!("calls {} != {}", got.calls, want.calls));
    }
    if got.phases != want.phases {
        bad.push(format!("phases {} != {}", got.phases, want.phases));
    }
    for (name, g, w) in [
        ("makespan", got.makespan, want.makespan),
        (
            "required_bandwidth",
            got.required_bandwidth,
            want.required_bandwidth,
        ),
    ] {
        if !close(g, w) {
            bad.push(format!("{name} {g:e} != {w:e}"));
        }
    }
    for (i, (g, w)) in got.pct.iter().zip(want.pct).enumerate() {
        if !close(*g, w) {
            bad.push(format!("pct[{i}] {g:e} != {w:e}"));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("{workload} reference mismatch: {}", bad.join("; ")))
    }
}

/// Phases and intercepted calls that a run of `spec`'s application at
/// `ranks` ranks must produce, whatever the seed.
fn expected_counts(app: App, ranks: usize) -> (usize, u64) {
    let n = ranks as u64;
    match app {
        App::Hacc => {
            let loops = HaccConfig::default().loops as u64;
            // Per loop: one write and one read phase; calls are the header
            // write (begin/end), iwrite, wait (enter/exit), iread, wait.
            ((2 * loops * n) as usize, 8 * loops * n)
        }
        App::Wacomm => {
            let it = WacommConfig::default().iterations as u64;
            // Every iteration but the last writes asynchronously and the
            // next one waits for it; the last write and rank 0's input
            // read are blocking (begin/end).
            (((it - 1) * n) as usize, 3 * (it - 1) * n + 2 * n + 2)
        }
    }
}

/// Invariants of any run of `spec` at `ranks` ranks: counts that follow
/// from the program shape, a decomposition summing to 100 %, a finite
/// positive makespan and required bandwidth, and no failed I/O op.
pub fn check_invariants(spec: &SessionSpec, ranks: usize, out: &RunOutput) -> Result<(), String> {
    let got = observed(out);
    let (phases, calls) = expected_counts(spec.app, ranks);
    let mut bad = Vec::new();
    if got.phases != phases {
        bad.push(format!("phases {} != {phases}", got.phases));
    }
    if got.calls != calls {
        bad.push(format!("calls {} != {calls}", got.calls));
    }
    let sum: f64 = got.pct.iter().sum();
    if (sum - 100.0).abs() > 100.0 * REL_TOL {
        bad.push(format!("decomposition sums to {sum}%"));
    }
    if !(got.makespan.is_finite() && got.makespan > 0.0) {
        bad.push(format!("makespan {}", got.makespan));
    }
    if !(got.required_bandwidth.is_finite() && got.required_bandwidth > 0.0) {
        bad.push(format!("required bandwidth {}", got.required_bandwidth));
    }
    if !out.summary.op_errors.is_empty() {
        bad.push(format!("{} failed I/O ops", out.summary.op_errors.len()));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{ranks}-rank invariant violated: {}",
            bad.join("; ")
        ))
    }
}

/// Prints the reference values of `out` as the source of a
/// [`reference`] match arm (for re-recording after a deliberate change).
pub fn print_reference(workload: &str, out: &RunOutput) {
    let r = observed(out);
    println!("        \"{workload}\" => Some(Reference {{");
    println!("            makespan: {:?},", r.makespan);
    println!(
        "            required_bandwidth: {:?},",
        r.required_bandwidth
    );
    println!("            calls: {},", r.calls);
    println!("            phases: {},", r.phases);
    println!("            pct: {:?},", r.pct);
    println!("        }}),");
}

/// The checked-in figure and ablation CSVs the sweep must reproduce.
pub struct Golden {
    files: BTreeMap<String, Vec<u8>>,
}

impl Golden {
    /// Loads every `*.csv` under `dir` except the chaos tables, which the
    /// figure and ablation entries do not write.
    pub fn load(dir: &Path) -> Result<Golden, String> {
        let mut files = BTreeMap::new();
        for (name, path) in csv_files(dir)? {
            if name.starts_with("chaos_") {
                continue;
            }
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.insert(name, bytes);
        }
        if files.is_empty() {
            return Err(format!("no golden CSVs under {}", dir.display()));
        }
        Ok(Golden { files })
    }

    /// Checks that `dir` holds exactly the golden file set, byte for byte.
    /// Returns the bytes compared.
    pub fn compare(&self, dir: &Path) -> Result<u64, String> {
        let written = csv_files(dir)?;
        let mut bytes = 0u64;
        let mut bad = Vec::new();
        for (name, path) in &written {
            let body = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            bytes += body.len() as u64;
            match self.files.get(name) {
                Some(g) if *g == body => {}
                Some(_) => bad.push(format!("{name} differs")),
                None => bad.push(format!("{name} has no golden")),
            }
        }
        for name in self.files.keys() {
            if !written.contains_key(name) {
                bad.push(format!("{name} not written"));
            }
        }
        if bad.is_empty() {
            Ok(bytes)
        } else {
            Err(format!("CSV check failed: {}", bad.join("; ")))
        }
    }
}

/// `name → path` of the `*.csv` files directly under `dir`.
fn csv_files(dir: &Path) -> Result<BTreeMap<String, PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for e in entries {
        let path = e.map_err(|e| e.to_string())?.path();
        let is_csv = path.extension().is_some_and(|x| x == "csv");
        if let (true, Some(name)) = (is_csv, path.file_name().and_then(|n| n.to_str())) {
            out.insert(name.to_string(), path.clone());
        }
    }
    Ok(out)
}
