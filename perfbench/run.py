"""Benchmark of qlocal's checks of the paper's three results.

Workloads (see README.md): relation-d6, k-copies-d4 and exact-laws-d4. Each
run of a workload starts a fresh single-threaded worker process with an
empty support cache of its own, runs the workload's items in a closed loop
for --seconds, checks every item, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones.

Run from the repository root:
    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload relation-d6 --seed 3 --seconds 20 --trace 1
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("relation-d6", "k-copies-d4", "exact-laws-d4")
# Set-ups timed per run, each in a fresh process; setup_s is their median.
# relation-d6 fills the dense d=6 support oracle (about 17 s) in each one.
SETUP_REPS = {"relation-d6": 2, "k-copies-d4": 5, "exact-laws-d4": 5}
UNITS = {"items_per_s": "1/s", "item_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def compile_bytecode():
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "qlocal"), str(HERE)],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def run_worker(workload, seed, seconds, trace, deadline, setup_only=False, spans=None):
    """Start worker.py in a fresh cache directory, wait for it, return its JSON."""
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        cache = run_dir / "cache"
        cache.mkdir()
        env = dict(os.environ)
        env.update({var: "1" for var in THREAD_VARS})
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            QLOCAL_CACHE_DIR=str(cache),
            XDG_CACHE_HOME=str(run_dir),
        )
        out = run_dir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise SystemExit(f"{workload}: no time left for another process")
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{workload}: worker killed after {timeout:.0f} s")
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    spans = None
    if trace:
        (WORK / "traces").mkdir(exist_ok=True)
        spans = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
    main = run_worker(workload, seed, seconds, trace, deadline, spans=spans)
    for problem in main["problems"][:20]:
        print(f"{workload}: {problem}", file=sys.stderr)
    result = {
        "correct": not main["problems"],
        "attempted": main["attempted"],
        "failed": main["failed"],
    }
    if trace:
        result["metrics"] = main["per_layer"]
        return result
    setups = [main["setup_s"]]
    for _ in range(SETUP_REPS[workload] - 1):
        extra = run_worker(workload, seed, seconds, 0, deadline, setup_only=True)
        setups.append(extra["setup_s"])
        result["correct"] = result["correct"] and not extra["problems"]
    times = main["item_times"]
    if not times:
        raise SystemExit(f"{workload}: no item completed")
    values = {
        "items_per_s": len(times) / sum(times),
        "item_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qlocal" / "__init__.py").is_file():
        print(f"no qlocal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    compile_bytecode()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
