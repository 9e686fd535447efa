"""One workload in one fresh process; run.py starts it with a hermetic
environment and reads the JSON it writes to --out.

The set-up is timed from the start of `import qlocal` until the first item
is ready. Items then run in a closed loop, the next starting when the
previous one ends, until --seconds have passed and at least three items
have run. With --setup-only the process stops after the set-up. With
--trace 1 the set-up is traced, then the items run twice on the same
inputs, untraced and then traced, and the spans are written to --spans.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


MIN_ITEMS = 3  # so that a run's median item time rests on at least three items


def measure(workload, seed, seconds, tracer=None):
    """Closed loop for `seconds`, and for at least MIN_ITEMS items:
    (item times, attempted, failed, problems)."""
    times, attempted, failed, problems = [], 0, 0, []
    plan = workload.plan(seed)
    start = time.perf_counter()
    while attempted < MIN_ITEMS or time.perf_counter() - start < seconds:
        args = next(plan)
        attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                found = workload.item(args)
            else:
                with tracer.root("bench.item"):
                    found = workload.item(args)
        except Exception:  # the program failed this item: count it, go on
            traceback.print_exc()
            failed += 1
            continue
        times.append(time.perf_counter() - t0)
        if found:
            failed += 1
            problems.extend(found)
    return times, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    cache_dir = Path(os.environ["QLOCAL_CACHE_DIR"])
    if any(cache_dir.iterdir()):
        raise SystemExit(f"cache directory {cache_dir} is not empty")
    src = Path(__file__).resolve().parent.parent / "src"

    t0 = time.perf_counter()
    import qlocal
    import checks
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        with tracer.root("bench.setup"):
            workload = workloads.WORKLOADS[args.workload]()
        tracer.uninstall()
    else:
        workload = workloads.WORKLOADS[args.workload]()
    setup_s = time.perf_counter() - t0

    if Path(qlocal.__file__).resolve().parent != src / "qlocal":
        raise SystemExit(f"imported qlocal from {qlocal.__file__}, not from {src}")
    if qlocal.verify.default_cache_dir() != cache_dir:
        raise SystemExit("qlocal does not use the run's own cache directory")
    result = {"setup_s": setup_s, "problems": list(workload.setup_problems)}
    if not args.setup_only:
        cache_bytes = sum(f.stat().st_size for f in cache_dir.rglob("*") if f.is_file())
        untraced = measure(workload, args.seed, args.seconds)
        times, attempted, failed, problems = untraced
        if tracer is not None:
            tracer.install()
            traced = measure(workload, args.seed, args.seconds, tracer)
            tracer.uninstall()
            times = traced[0]
            attempted += traced[1]
            failed += traced[2]
            problems += traced[3]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self_test = checks.self_test(qlocal.verify.enumerate_support, qlocal.exact_gamma)
        result.update(
            item_times=times,
            attempted=attempted,
            failed=failed,
            peak_rss_mb=peak_rss_mb,
            problems=result["problems"] + problems + [f"self-test: {p}" for p in self_test],
        )
        if tracer is not None:
            result["per_layer"] = tracer.metrics(untraced[0], cache_bytes)
            if args.spans:
                tracer.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
