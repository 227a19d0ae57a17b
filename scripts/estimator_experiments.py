#!/usr/bin/env python3
"""Run the synthetic estimator experiments end to end.

Produces the regret grid (dependent dimensionalities x correlation bands,
aggregated TSV curves per estimator) and the correlation-by-chance table.
The dimensionalities, bands and n-grid are ``corrsets regret``'s defaults;
the trial count is sized for a quick desk run, so pass --trials 500 for the
full protocol.
"""

import argparse
import os
import sys

from corrsets.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="experiments")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    rc = cli_main([
        "regret",
        "--trials", str(args.trials),
        "--seed", str(args.seed),
        "--out-dir", args.out_dir,
        "--json", os.path.join(args.out_dir, "regret_summary.json"),
    ])
    if rc != 0:
        return rc
    return cli_main([
        "chance",
        "--seed", str(args.seed),
        "--json", os.path.join(args.out_dir, "chance.json"),
    ])


if __name__ == "__main__":
    sys.exit(main())
