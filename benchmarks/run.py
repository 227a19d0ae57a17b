"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload planted-bnb --seed 1 --seconds 30 --trace 0

Steps, each in its own process (``worker.py``):

1. generate the seeded input under ``benchmarks/_work/``;
2. time the program's set-up (``import corrsets`` plus encoding the input)
   in SETUP_REPS separate processes, half before and half after step 3, so
   that the median spans the run rather than one moment of the host;
3. run the workload for ``--seconds`` in one process, which also times its
   own set-up, checks its outputs and reports its peak memory.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. A fuller record
of the run is written to ``benchmarks/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("planted-bnb", "csv-discover", "regret-cell")
SETUP_REPS = 4  # set-up processes besides the run process itself
DEADLINE_S = 170  # the whole run, set-ups and checks included


def worker(step: str, args, work: Path, deadline: float, *extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), step,
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {step} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        worker("generate", args, work, deadline)
        setups = [worker("setup", args, work, deadline) for _ in range(SETUP_REPS // 2)]
        result = worker("run", args, work, deadline, "--seconds", str(args.seconds),
                        "--trace", str(args.trace))
        setups.append(result.pop("setup"))
        setups += [worker("setup", args, work, deadline) for _ in range(SETUP_REPS // 2)]
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
        if args.trace:
            shutil.move(work / "spans.npz", out / f"{stem}-spans.npz")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    median = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    if args.trace:
        result["metrics"]["setup.import_s"] = {"value": median["import_s"], "unit": "s"}
        result["metrics"]["setup.input_s"] = {"value": median["input_s"], "unit": "s"}
    else:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s["import_s"] + s["input_s"] for s in setups),
            "unit": "s"}
    raw = result.pop("raw")
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setups=setups, raw=raw)
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if raw["op_s"]:
        print(f"raw: op_s_p50={statistics.median(raw['op_s']):.4f} "
              f"ref_ms_p50={statistics.median(raw['ref_s']) * 1e3:.2f} "
              f"ops={len(raw['op_s'])}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
