"""Show that each workload's output check can fail.

    python3 benchmarks/selftest.py [--seed S]

For every workload: generate the input, run one operation, and require
that its check passes; then perturb the checked output in several ways
and require that the check rejects each perturbed copy. Exits 1 if an
unperturbed output fails or a perturbed one passes.
"""

from __future__ import annotations

import argparse
import copy
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bump(path, delta):
    """Return a perturbation adding delta to summary[path...]."""
    def apply(summary, work):
        obj = summary
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] += delta
    return apply


def _replace_best_planted(summary, work):
    # drop the true best subset and append a weak pair with its own
    # (correct) score: only the exhaustive sweep can notice
    import numpy as np

    codes = np.load(work / "planted.npy")
    table = oracle.CodeTable([codes[:, j] for j in range(codes.shape[1])])
    taken = {tuple(sorted(r["members"])) for r in summary["results"]}
    pair = next(p for p in table.subsets([2]) if p not in taken
                and table.score(p)["corrected"] < summary["results"][-1]["value"])
    ref = table.score(pair, from_rows=True)
    summary["results"] = summary["results"][1:] + [{
        "members": list(pair), "value": ref["corrected"], "joint": ref["joint"],
        "plugin": ref["plugin"], "correction": ref["correction"],
        "corrected": ref["corrected"]}]


def _swap_members_csv(summary, work):
    first, last = summary["results"][0], summary["results"][-1]
    first["members"], last["members"] = last["members"], first["members"]


PERTURBATIONS = {
    "planted-bnb": {
        "score +1e-6": _bump(["results", 0, "corrected"], 1e-6),
        "joint entropy +1e-6": _bump(["results", 1, "joint"], 1e-6),
        "correction -1e-6": _bump(["results", 2, "correction"], -1e-6),
        "best subset missing": _replace_best_planted,
        "order reversed": lambda s, w: s["results"].reverse(),
    },
    "csv-discover": {
        "domain size +1": _bump(["dataset", "attributes", 12, "domain_size"], 1),
        "attribute entropy +1e-6": _bump(["dataset", "attributes", 0, "entropy"], 1e-6),
        "correction +1e-6": _bump(["results", 0, "correction"], 1e-6),
        "members swapped": _swap_members_csv,
        "exit code 1": lambda s, w: s.update(exit_code=1),
    },
    "regret-cell": {
        "mean regret +1e-3": _bump(["curves", "relaxed", "mean", 4], 1e-3),
        "plugin mean regret -1e-3": _bump(["curves", "plugin", "mean", 0], -1e-3),
        "true_max_w +1e-6": _bump(["true_max_w"], 1e-6),
        "trial count +1": _bump(["curves", "plugin", "trials"], 1),
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    bad = 0
    for name, workload in WORKLOADS.items():
        work = HERE / "_work" / f"selftest-{name}-p{os.getpid()}"
        work.mkdir(parents=True)
        try:
            workload.generate(args.seed, work)
            state = workload.setup(args.seed, work)
            summary = workload.summarize(state, workload.run(state))
            errors = workload.check(args.seed, work, summary)
            print(f"{name}: unperturbed: {'PASS' if not errors else 'FAIL ' + errors[0]}")
            bad += bool(errors)
            for label, perturb in PERTURBATIONS[name].items():
                perturbed = copy.deepcopy(summary)
                perturb(perturbed, work)
                errors = workload.check(args.seed, work, perturbed)
                print(f"{name}: {label}: {'rejected' if errors else 'NOT REJECTED'}"
                      + (f" ({errors[0]})" if errors else ""))
                bad += not errors
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "PASS" if not bad else f"FAIL ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
