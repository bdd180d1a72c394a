//! Golden-file test: the scenario registry must regenerate the checked-in
//! CSVs (`results/`) byte-for-byte. It runs every figure and ablation entry
//! at quick scale, and the chaos group in its `--quick` form, which covers
//! the fault paths (outage, brownout, …) of the PFS engine. About 6 s in a
//! debug build, well under 1 s in release.

use bench::registry::{select, ScenarioCtx};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn registry_regenerates_golden_csvs() {
    let tmp = std::env::temp_dir().join(format!("iobts-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    // This is the only test in this binary, so the process-global results
    // override cannot race another test.
    std::env::set_var("IOBTS_RESULTS_DIR", &tmp);

    let quick = ScenarioCtx {
        quick: true,
        ..ScenarioCtx::default()
    };
    for (group, ctx) in [
        ("figure", ScenarioCtx::default()),
        ("ablation", ScenarioCtx::default()),
        ("chaos", quick),
    ] {
        // An empty selection is the whole group.
        for s in select(group, &[]).unwrap() {
            (s.run)(&ctx).unwrap_or_else(|e| panic!("{} failed: {e}", s.name));
        }
    }

    let mut compared = 0usize;
    for entry in std::fs::read_dir(&tmp).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        let fresh = std::fs::read(&p).unwrap();
        let golden = std::fs::read(golden_dir().join(&name))
            .unwrap_or_else(|e| panic!("no golden file for {name}: {e}"));
        if fresh != golden {
            let (f, g) = (
                String::from_utf8_lossy(&fresh),
                String::from_utf8_lossy(&golden),
            );
            let at = f.lines().zip(g.lines()).position(|(a, b)| a != b);
            let show = |s: &str| at.and_then(|i| s.lines().nth(i)).unwrap_or("").to_string();
            panic!(
                "{name} drifted from the checked-in golden CSV — the registry \
                 pipeline no longer reproduces results/ byte-for-byte; first \
                 differing line {at:?}: {:?} (golden {:?})",
                show(&f),
                show(&g)
            );
        }
        compared += 1;
    }
    // Every checked-in CSV must have been regenerated and compared.
    let expected = std::fs::read_dir(golden_dir())
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .and_then(|x| x.to_str())
                == Some("csv")
        })
        .count();
    assert_eq!(compared, expected, "CSVs compared vs checked in");
    let _ = std::fs::remove_dir_all(&tmp);
}
