"""Command-line interface.

Subcommands: ``discover`` (top-k search on a CSV), ``score`` (inspect a
single attribute set), ``regret`` (synthetic estimator-regret curves),
and ``chance`` (correlation-by-chance demonstration on independent data).

Exit codes: 0 success, 1 usage error, 2 data error, 3 search stopped by
``--budget`` before completion. JSON reports carry a ``schema_version``
and are byte-stable for a fixed command and seed, except for the
``timing`` block which is excluded from the determinism contract.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .data import DataError, encode, parse_csv
from .estimators import ESTIMATORS, score_subset
from .search import TopKStore, branch_and_bound, greedy
from .synth import (
    MAX_ATTEMPTS,
    N_INDEPENDENT,
    REGRET_ESTIMATORS,
    BandSamplingError,
    RegretCurve,
    SyntheticSpec,
    chance_demo,
    check_regret_size,
    run_regret,
    sample_joint_in_band,
    write_curves_tsv,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INCOMPLETE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the CLI contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(name: str, cast, ok, requirement: str):
    """An argparse type: ``cast`` of the text, refused with ``requirement``
    unless ``ok`` holds for it. argparse calls a failing cast an "invalid
    ``name`` value"."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(requirement)
        return value
    parse.__name__ = name
    return parse


def _int_from(low: int):
    return _checked("int", int, lambda v: v >= low, f"must be >= {low}")


def _split(text: str, cast) -> list:
    return [cast(tok) for tok in text.split(",") if tok]


_alpha = _checked("float", float, lambda v: 0.0 < v <= 1.0, "alpha must be in (0, 1]")
_budget = _checked("float", float, lambda v: 0.0 <= v < float("inf"),
                   "budget must be finite and >= 0 seconds")
# dependent-variable counts and sample sizes: both need at least 2
_int_list = _checked("int list", lambda text: _split(text, int),
                     lambda vs: vs and min(vs) >= 2, "expected integers >= 2")
_estimator_list = _checked("estimator list", lambda text: _split(text, str),
                           lambda names: names and set(names) <= set(REGRET_ESTIMATORS),
                           f"expected names from {REGRET_ESTIMATORS}")
_band_list = _checked(
    "band list", lambda text: _split(text, lambda tok: tuple(map(float, tok.split(":")))),
    lambda bands: bands and all(len(b) == 2 and 0.0 <= b[0] < b[1] <= 1.0 for b in bands),
    "expected lo:hi bands, 0 <= lo < hi <= 1")


def build_parser() -> _Parser:
    parser = _Parser(prog="corrsets", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--input", required=True, help="CSV file path")
        p.add_argument("--no-header", action="store_true",
                       help="synthesize column names X1..Xd")
        p.add_argument("--bins", type=_int_from(1), default=5,
                       help="equal-frequency bins for numeric columns (default 5)")
        p.add_argument("--numeric-cols", default="auto",
                       help="comma list of numeric columns, 'auto', or 'none'")
        p.add_argument("--drop-constant", action="store_true",
                       help="exclude single-valued attributes from the search")

    p_disc = sub.add_parser("discover", help="find the top-k correlated subsets")
    add_data_flags(p_disc)
    p_disc.add_argument("--k", type=_int_from(1), default=1)
    p_disc.add_argument("--alpha", type=_alpha, default=1.0,
                        help="bnb's approximation factor in (0, 1] (default 1)")
    p_disc.add_argument("--algo", choices=("bnb", "greedy"), default="bnb")
    p_disc.add_argument("--budget", type=_budget, default=None,
                        help="seconds before bnb returns best-so-far (exit 3)")
    p_disc.add_argument("--json", default=None, help="write JSON report here")

    p_score = sub.add_parser("score", help="score one named attribute set")
    add_data_flags(p_score)
    p_score.add_argument("--set", required=True, dest="attr_set",
                         help="comma-separated attribute names")
    p_score.add_argument("--estimator", choices=ESTIMATORS, default="relaxed")
    p_score.add_argument("--json", default=None)

    p_reg = sub.add_parser("regret", help="synthetic estimator-regret experiment")
    p_reg.add_argument("--dims", type=_int_list, default=[2, 3, 4],
                       help="dependent-variable counts (default 2,3,4)")
    p_reg.add_argument("--bands", type=_band_list,
                       default=[(0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.5)],
                       help="w bands as lo:hi pairs (default 4 bands in [0.1,0.5))")
    p_reg.add_argument("--n-grid", type=_int_list,
                       default=[10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
    p_reg.add_argument("--trials", type=_int_from(1), default=500)
    p_reg.add_argument("--estimators", type=_estimator_list, default="plugin,relaxed",
                       help="comma list from plugin,relaxed,upper,exact,population")
    p_reg.add_argument("--seed", type=_int_from(0), default=0)
    p_reg.add_argument("--max-attempts", type=_int_from(1), default=MAX_ATTEMPTS,
                       help="rejection-sampling draws per band before skipping")
    p_reg.add_argument("--out-dir", default=".", help="directory for TSV curves")
    p_reg.add_argument("--json", default=None, help="write summary JSON here")

    p_ch = sub.add_parser("chance", help="correlation-by-chance demonstration")
    p_ch.add_argument("--d", type=_int_from(2), default=10)
    p_ch.add_argument("--domain", type=_int_from(1), default=4)
    p_ch.add_argument("--n", type=_int_from(2), default=1000)
    p_ch.add_argument("--seed", type=_int_from(0), default=0)
    p_ch.add_argument("--json", default=None)
    return parser


def _load_dataset(args):
    """The encoded input, the ``dataset`` block of its JSON report, and the
    seconds spent reading and parsing it and encoding it."""
    started = time.perf_counter()
    with open(args.input, "rb") as fh:
        table = parse_csv(fh.read(), has_header=not args.no_header)
    parse_s = time.perf_counter() - started
    if table.rejected_rows:
        print(f"note: dropped {table.rejected_rows} rows with empty fields",
              file=sys.stderr)
    cols = args.numeric_cols
    if cols not in ("auto", "none"):
        cols = [c for c in cols.split(",") if c]
    started = time.perf_counter()
    dataset = encode(table, bins=args.bins, numeric_cols=cols)
    timing = {"parse_s": parse_s, "encode_s": time.perf_counter() - started}
    for a in dataset.attributes:
        if a.non_finite:
            print(f"note: kept column {a.name!r} categorical: it holds a non-finite number",
                  file=sys.stderr)
    dropped = {}
    if args.drop_constant:
        kept = dataset.drop_constant()
        dropped = {"dropped_constant": [name for name in dataset.names
                                        if name not in kept.names]}
        dataset = kept
    if dataset.d < 2:
        raise DataError(
            f"need at least 2 attributes, found {dataset.d}"
            + (" after dropping constants" if args.drop_constant else "")
        )
    return dataset, {
        "n": dataset.n,
        "d": dataset.d,
        "rejected_rows": table.rejected_rows,
        "attributes": [
            {"name": a.name, "kind": a.kind, "domain_size": a.domain_size,
             "entropy": a.entropy, "non_finite": a.non_finite,
             **({} if a.bins is None else {"bins": a.bins.tolist()})}
            for a in dataset.attributes
        ],
        **dropped,
    }, timing


def _result_records(dataset, store: TopKStore) -> list[dict]:
    return [{
        "rank": rank,
        "members": [dataset.attributes[i].name for i in score.members],
        "corrected_score": score.corrected_score,
        "plugin_score": score.plugin_score,
        "correction": score.correction,
        "depth": score.depth,
        "value": value,
    } for rank, (_, value, score) in enumerate(store.results, start=1)]


def _check_outputs(json_path, out_dir) -> None:
    """Refuse output paths that cannot be written. Asked before any input
    is read or any work is done, so a bad path costs nothing."""
    for folder in (out_dir, os.path.dirname(json_path or "") or "."):
        if not os.path.isdir(folder):
            raise DataError(f"no such directory: {folder}")
    if json_path and os.path.isdir(json_path):
        raise DataError(f"--json {json_path} is a directory")


def _write_report(args, **blocks) -> None:
    """Write ``blocks`` under the ``schema_version`` and ``command`` of
    every report to the ``--json`` path, if one was given."""
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": SCHEMA_VERSION, "command": args.command,
                       **blocks}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_discover(args) -> int:
    dataset, summary, timing = _load_dataset(args)
    started = time.perf_counter()
    if args.algo == "bnb":
        store, stats = branch_and_bound(
            dataset, k=args.k, alpha=args.alpha, budget=args.budget
        )
    else:
        store, stats = greedy(dataset, k=args.k)
    wall_s = time.perf_counter() - started
    records = _result_records(dataset, store)
    print(f"dataset: {dataset.n} rows, {dataset.d} attributes")
    print(f"algo={args.algo} k={args.k} alpha={args.alpha}")
    print(f"{'rank':<5}{'score':<11}{'plugin':<11}{'corr':<11}{'depth':<6}members")
    for rec in records:
        print(
            f"{rec['rank']:<5}{rec['corrected_score']:<11.4f}"
            f"{rec['plugin_score']:<11.4f}{rec['correction']:<11.4f}"
            f"{rec['depth']:<6}{', '.join(rec['members'])}"
        )
    print(
        f"explored {stats.nodes_explored} | pruned {stats.nodes_pruned} | "
        f"prune% {stats.prune_percent:.2f} | max depth {stats.max_depth_reached} | "
        f"solution depth {stats.solution_depth} | "
        f"time {wall_s:.3f}s"
    )
    _write_report(
        args,
        config={
            "input": args.input, "k": args.k, "alpha": args.alpha,
            "algo": args.algo, "bins": args.bins,
            "numeric_cols": args.numeric_cols,
            "drop_constant": args.drop_constant,
            "budget": args.budget,
        },
        dataset=summary, results=records, stats=dataclasses.asdict(stats),
        timing={**timing, "wall_s": wall_s},
    )
    if not stats.completed:
        print("warning: budget exhausted, result set may be incomplete",
              file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_score(args) -> int:
    dataset, summary, _ = _load_dataset(args)
    names = [tok.strip() for tok in args.attr_set.split(",") if tok.strip()]
    members = [dataset.index_of(name) for name in names]
    if len(members) < 2:
        raise DataError("need at least 2 attribute names in --set")
    if len(set(members)) != len(members):
        raise DataError("attribute names in --set must be distinct")
    try:
        score = score_subset(dataset, members, estimator=args.estimator)
    except ValueError as exc:
        print(f"corrsets score: error: --estimator {args.estimator}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    fields = {"members": [dataset.attributes[i].name for i in score.members],
              "estimator": args.estimator,
              **{key: value for key, value in dataclasses.asdict(score).items()
                 if key != "members"}}
    for key, value in fields.items():
        if isinstance(value, float):
            print(f"{key:<18} {value:.6f}")
        else:
            print(f"{key:<18} {value if isinstance(value, str) else ', '.join(value)}")
    _write_report(args, config={"input": args.input, "set": names,
                                "estimator": args.estimator},
                  dataset=summary, score=fields)
    return EXIT_OK


def _curve_dict(curve: RegretCurve) -> dict:
    return {
        "n": list(curve.n_values),
        "mean_regret": list(curve.mean_regret),
        "stderr": list(curve.stderr),
        "trials": curve.trials,
    }


def cmd_regret(args) -> int:
    estimators = args.estimators
    try:  # before sampling, which at large --dims costs memory first
        check_regret_size(max(args.dims) + N_INDEPENDENT, estimators)
    except ValueError as exc:
        print(f"corrsets regret: error: --dims {max(args.dims)} plus "
              f"{N_INDEPENDENT} independent variables: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cells = []
    t0 = time.perf_counter()
    for di, d in enumerate(args.dims):
        for bi, band in enumerate(args.bands):
            seed_seq = np.random.SeedSequence(args.seed, spawn_key=(di, bi))
            try:
                table = sample_joint_in_band(
                    d, band, rng_seed=seed_seq, max_attempts=args.max_attempts
                )
            except BandSamplingError as exc:
                print(f"warning: d={d} band={band}: {exc}; cell skipped",
                      file=sys.stderr)
                continue
            spec = SyntheticSpec.build(table)
            curves = run_regret(
                spec, estimators, args.n_grid, trials=args.trials,
                seed=args.seed + 7919 * (di * len(args.bands) + bi),
            )
            cells.append({
                "d": d,
                "band": list(band),
                "achieved_w": spec.population[tuple(range(d))],
                "true_max_w": spec.true_max_w,
                "curves": {est: _curve_dict(c) for est, c in curves.items()},
            })
    if not cells:
        print("corrsets regret: error: every grid cell failed band sampling",
              file=sys.stderr)
        return EXIT_DATA
    aggregate = {}
    for est in estimators:
        means = np.array([c["curves"][est]["mean_regret"] for c in cells])
        errs = np.array([c["curves"][est]["stderr"] for c in cells])
        aggregate[est] = RegretCurve(
            estimator=est,
            n_values=tuple(args.n_grid),
            mean_regret=tuple(float(x) for x in means.mean(axis=0)),
            stderr=tuple(
                float(x) for x in np.sqrt((errs**2).sum(axis=0)) / len(cells)
            ),
            trials=args.trials * len(cells),
        )
    paths = write_curves_tsv(aggregate, args.out_dir)
    wall_s = time.perf_counter() - t0
    for path in paths:
        print(f"wrote {path}")
    _write_report(
        args,
        config={
            "dims": args.dims, "bands": [list(b) for b in args.bands],
            "n_grid": args.n_grid, "trials": args.trials,
            "estimators": estimators, "seed": args.seed,
        },
        cells=cells,
        aggregate={est: _curve_dict(c) for est, c in aggregate.items()},
        timing={"wall_s": wall_s},
    )
    return EXIT_OK


def cmd_chance(args) -> int:
    records = chance_demo(d=args.d, domain=args.domain, n=args.n, seed=args.seed)
    print("cardinality\tplugin_bits\tcorrected_bits")
    for rec in records:
        print(f"{rec.cardinality}\t{rec.plugin_bits:.10g}\t{rec.corrected_bits:.10g}")
    _write_report(args, config={"d": args.d, "domain": args.domain,
                                "n": args.n, "seed": args.seed},
                  records=[dataclasses.asdict(r) for r in records])
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "discover" and args.algo != "bnb":
        if args.budget is not None:
            parser.error("--budget applies only to --algo bnb")
        if args.alpha != 1.0:
            parser.error("--alpha applies only to --algo bnb")
    if args.json == "":
        parser.error("--json needs a file path")
    handlers = {"discover": cmd_discover, "score": cmd_score,
                "regret": cmd_regret, "chance": cmd_chance}
    try:
        _check_outputs(args.json, getattr(args, "out_dir", "."))  # only regret has --out-dir
        return handlers[args.command](args)
    except (DataError, OSError) as exc:
        print(f"corrsets {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
