#!/usr/bin/env python3
"""Reproduce the tic-tac-toe discovery run: top-9 corrected subsets,
branch-and-bound vs greedy, plus search statistics.

Usage: python scripts/tictactoe_discovery.py [--k 9]
"""

import argparse
import time

from corrsets.data import encode
from corrsets.datasets import tic_tac_toe_table
from corrsets.search import branch_and_bound, greedy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=9)
    args = parser.parse_args()

    dataset = encode(tic_tac_toe_table(), numeric_cols="none")
    started = time.perf_counter()
    store, stats = branch_and_bound(dataset, k=args.k, alpha=1.0)
    wall_s = time.perf_counter() - started
    print(f"branch-and-bound: explored {stats.nodes_explored} nodes, "
          f"pruned {stats.prune_percent:.2f}% of the lattice, "
          f"max depth {stats.max_depth_reached}, "
          f"solution depth {stats.solution_depth}, "
          f"{wall_s:.2f}s")
    for rank, (_, value, score) in enumerate(store.results, start=1):
        names = ", ".join(dataset.attributes[i].name for i in score.members)
        print(f"  top-{rank}: {value:.4f} (plugin {score.plugin_score:.4f})  {names}")

    started = time.perf_counter()
    gstore, _ = greedy(dataset, k=1)
    gwall_s = time.perf_counter() - started
    gap = store.results[0][1] - gstore.results[0][1]
    print(f"greedy top-1: {gstore.results[0][1]:.4f} "
          f"({gwall_s:.2f}s, gap to exact {gap:.4f})")


if __name__ == "__main__":
    main()
