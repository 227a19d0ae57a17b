"""One benchmark process: generate a workload's input, time its set-up, or
run it. ``run.py`` starts one process per step; each prints one JSON line.

    worker.py generate --workload W --seed S --work DIR
    worker.py setup    --workload W --seed S --work DIR
    worker.py run      --workload W --seed S --work DIR --seconds T --trace 0|1

Set-up is timed from before ``import corrsets``, so nothing here imports
numpy or the program at module level.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Host-reference loop: fixed work timed just before and just after every
# operation, so that operation times can be stated in units of it. About
# 20 ms: a pure-Python integer loop and one sort of a fixed float array.
REF_LOOP = 90_000
REF_SORT_SIZE = 400_000


def host_reference(array) -> float:
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += (i * i) ^ (i >> 3)
    np.sort(array)
    return perf_counter() - t0


def timed_setup(workload_name: str, seed: int, work: Path):
    """Import the program and encode the input; return (state, times)."""
    t0 = perf_counter()
    import corrsets  # the import is what is timed

    t1 = perf_counter()
    src = Path(corrsets.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"corrsets imported from {src}, not from this checkout")
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    t2 = perf_counter()
    state = workload.setup(seed, work)
    t3 = perf_counter()
    return workload, state, {"import_s": t1 - t0, "input_s": t3 - t2}


def digest(workload, state, output) -> str:
    return json.dumps(workload.summarize(state, output), sort_keys=True)


def run(args) -> dict:
    workload, state, setup = timed_setup(args.workload, args.seed, args.work)
    import numpy as np

    ref_array = np.random.default_rng(0).random(REF_SORT_SIZE)
    call = lambda: workload.run(state)  # noqa: E731
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = lambda: tracer.span(workload.run, state)  # noqa: E731
    # One untimed operation first: it fills lazy caches, and its output is
    # the one checked against the independent computations below.
    first = workload.summarize(state, call())
    first_digest = json.dumps(first, sort_keys=True)
    if args.trace:
        tracer.reset()
    ratios, seconds, refs = [], [], [host_reference(ref_array)]
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    while attempted == 0 or perf_counter() < deadline:
        attempted += 1
        t0 = perf_counter()
        try:
            output = call()
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            output = None
        elapsed = perf_counter() - t0
        refs.append(host_reference(ref_array))
        if output is None or digest(workload, state, output) != first_digest:
            failed += 1
            continue
        seconds.append(elapsed)
        ratios.append(elapsed / ((refs[-2] + refs[-1]) / 2))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = workload.check(args.seed, args.work, first)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    op_ref = statistics.median(ratios) if ratios else float("nan")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.op_ref_p50"] = {"value": op_ref, "unit": "ref"}
        metrics["trace.op_s"] = {"value": statistics.median(seconds) if seconds else 0.0,
                                 "unit": "s"}
        tracer.save(args.work / "spans.npz")
        if tracer.absent:
            print(f"trace: absent {', '.join(tracer.absent)}", file=sys.stderr)
    else:
        metrics = {"op_ref_p50": {"value": op_ref, "unit": "ref"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup": setup,
        "raw": {"op_s": seconds, "ref_s": refs, "op_ref": ratios},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("generate", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.step == "generate":
        from workloads import WORKLOADS

        WORKLOADS[args.workload].generate(args.seed, args.work)
        result = {}
    elif args.step == "setup":
        result = timed_setup(args.workload, args.seed, args.work)[2]
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
