#!/usr/bin/env python3
"""Build the iobench harness and run one benchmark workload (or all).

    python3 iobench/run.py --workload hacc_direct --seed 1 --seconds 20 --trace 0
    python3 iobench/run.py --workload all --seed 1 --repeat 10 --save set.json

With one workload and no --repeat, the last stdout line is the harness's
JSON result: {"correct", "attempted", "failed", "metrics"}. With
--workload all or --repeat, every run's metrics are printed as a table with
units and sample counts, followed by each metric's median and quartile
spread; --save writes the runs as {workload: [result, ...]} for
compare.py. Run from anywhere; paths are resolved from this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# One harness run must end well inside the 180 s a benchmark run may take.
RUN_TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the harness in release mode; returns the binary's path."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)
    return os.path.join(target, "release", "iobench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs the harness once; returns (result, detail) parsed from its
    last two stdout lines. The figure tables it prints go to a log file."""
    os.makedirs(OUT, exist_ok=True)
    log = os.path.join(OUT, f"{workload}.stdout")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT, "--golden-dir", os.path.join(ROOT, "results")]
    with open(log, "w") as f:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=f, timeout=RUN_TIMEOUT_S)
    with open(log) as f:
        lines = f.read().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: harness exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values):
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="runs per workload, at seeds seed, seed+1, ...")
    ap.add_argument("--save", help="write the results as JSON for compare.py")
    args = ap.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        sys.exit(f"unknown workload {args.workload}; known: {', '.join(names)}")
    seconds = args.seconds or bench["run_seconds"]
    binary = build()

    if args.workload != "all" and args.repeat == 0:
        result, detail = run_one(binary, workloads[0], args.seed, seconds, args.trace)
        print(f"error rate {detail['error_rate']} (failed/attempted)", file=sys.stderr)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    key = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = [m["name"] for m in bench[key]]
    saved, ok = {}, True
    for w in workloads:
        runs = []
        for i in range(max(args.repeat, 1)):
            seed = args.seed + i
            result, detail = run_one(binary, w, seed, seconds, args.trace)
            ok &= result["correct"]
            runs.append(result)
            cells = "  ".join(
                f"{m}={result['metrics'][m]['value']:.6g} {result['metrics'][m]['unit']}"
                f" (n={detail['samples'][m]})" for m in metrics)
            print(f"{w} seed={seed} errors={detail['error_rate']}  {cells}", flush=True)
        saved[w] = runs
        for m in metrics:
            values = [r["metrics"][m]["value"] for r in runs]
            med, iqr = spread(values)
            print(f"  {w} {m}: median {med:.6g}, IQR/median {iqr:.4f} over {len(values)} runs")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            FileNotFoundError, json.JSONDecodeError) as e:
        print(f"iobench: {e}", file=sys.stderr)
        sys.exit(2)
