"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line (run with -s to see
them on success). Tolerances are fixed here, not tuned at runtime. Where a
criterion compares floats produced by two code paths the comparison is exact;
theorem-backed inequalities allow 1e-12 of float slack; statistical targets
carry the stated tolerances.
"""

import itertools
import json
import time

import numpy as np

from corrsets.cli import main
from corrsets.estimators import (
    correction_relaxed_bits,
    expected_mi_permutation,
    score_subset,
)
from corrsets.search import (
    bound_mon,
    bound_ref,
    branch_and_bound,
    exhaustive_topk,
    greedy,
)
from corrsets.synth import SyntheticSpec, chance_demo, run_regret, sample_joint_in_band
from helpers import (
    oracle_permutation_mean_mi,
    oracle_relaxed_correction_max,
    random_dataset,
)
from test_search import all_nodes


def report(name: str, ok: bool) -> bool:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_tictactoe_reproduction(ttt):
    started = time.perf_counter()
    store, stats = branch_and_bound(ttt, k=1, alpha=1.0)
    elapsed = time.perf_counter() - started
    top = store.results[0][1]
    checks = {
        "top-1 score 0.08 +/- 0.01": abs(top - 0.08) <= 0.01,
        "solution depth 4": stats.solution_depth == 4,
        "max depth 7 +/- 1": 6 <= stats.max_depth_reached <= 8,
        "runtime < 10 s": elapsed < 10.0,
        "prune% > 0 and in 5..25": 5.0 <= stats.prune_percent <= 25.0,
    }
    ok = report("tictactoe-reproduction", all(checks.values()))
    assert ok, {k: v for k, v in checks.items() if not v} | {
        "score": top, "stats": str(stats), "elapsed": elapsed,
    }


def test_greedy_vs_bnb_gap_tictactoe(ttt):
    bnb_top = branch_and_bound(ttt, k=1)[0].results[0][1]
    greedy_top = greedy(ttt, k=1)[0].results[0][1]
    gap = bnb_top - greedy_top
    ok = report("greedy-gap-tictactoe", 0.0 <= gap <= 0.005 + 0.005)
    assert ok, {"bnb": bnb_top, "greedy": greedy_top, "gap": gap}


def test_exhaustive_oracle_equivalence(ttt):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    datasets = [ttt]
    for _ in range(20):
        d = int(rng.integers(5, 13))
        n = int(rng.integers(30, 501))
        datasets.append(random_dataset(rng, d=d, n=n))
    mismatches = []
    for i, ds in enumerate(datasets):
        bnb_scores = [v for _, v, _ in branch_and_bound(ds, k=5)[0].results]
        oracle_scores = [v for _, v, _ in exhaustive_topk(ds, k=5).results]
        if bnb_scores != oracle_scores:
            mismatches.append((i, bnb_scores, oracle_scores))
    elapsed = time.perf_counter() - started
    ok = report(
        "exhaustive-oracle-equivalence",
        not mismatches and elapsed < 60.0,
    )
    assert ok, {"mismatches": mismatches, "elapsed": elapsed}


def test_bound_admissibility_sweep():
    rng = np.random.default_rng(202)
    violations = 0
    pairs = 0
    for d in (8, 9, 10):
        ds = random_dataset(rng, d=d, n=int(rng.integers(40, 200)))
        ctx, nodes = all_nodes(ds)
        for members, node in nodes.items():
            suffix = list(range(node.last_index + 1, d))
            if node.depth >= 2:
                mon = bound_mon(node)
                ref = bound_ref(node, ctx)
                for r in range(1, len(suffix) + 1):
                    for extra in itertools.combinations(suffix, r):
                        ext = nodes[members + extra].score.corrected_score
                        pairs += 1
                        if mon < ext - 1e-12 or ref < ext - 1e-12:
                            violations += 1
            # correction monotone along every enumerated edge
            for j in suffix:
                child = nodes[members + (j,)]
                if child.score.correction < node.score.correction - 1e-12:
                    violations += 1
    # exhaustive prefix-extension pairs for d = 8, 9, 10 number 4897
    ok = report("bound-admissibility-sweep", violations == 0 and pairs >= 4897)
    assert ok, {"violations": violations, "pairs": pairs}


def test_estimator_dominance_chain():
    rng = np.random.default_rng(303)
    chain_failures = []
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(8, 61))
        ds = random_dataset(rng, d=m, n=n)
        entropies = [a.entropy for a in ds.attributes]
        w_norm = sum(entropies) - max(entropies)
        if w_norm <= 0:
            continue
        checked += 1
        exact, upper, relaxed = (
            score_subset(ds, range(m), estimator=est).correction
            for est in ("exact", "upper", "relaxed")
        )
        if not (exact <= upper + 1e-12 and upper <= relaxed + 1e-12):
            chain_failures.append((exact, upper, relaxed))
    mean_failures = []
    for _ in range(20):
        n = int(rng.integers(4, 9))
        a = np.bincount(rng.integers(0, rng.integers(1, 4), n))
        b = np.bincount(rng.integers(0, rng.integers(1, 4), n))
        a, b = a[a > 0], b[b > 0]
        got = expected_mi_permutation(a, b, n)
        want = oracle_permutation_mean_mi(a.tolist(), b.tolist())
        if abs(got - want) > 1e-9:
            mean_failures.append((a.tolist(), b.tolist(), got, want))
    ok = report(
        "estimator-dominance-chain",
        not chain_failures and not mean_failures and checked >= 100,
    )
    assert ok, {"chain": chain_failures, "means": mean_failures}


def test_sort_maximization():
    rng = np.random.default_rng(404)
    failures = []
    for _ in range(120):
        m = int(rng.integers(2, 7))
        sizes = [int(rng.integers(1, 8)) for _ in range(m)]
        n = int(rng.integers(2, 1000))
        got = correction_relaxed_bits(sizes, n)
        want = oracle_relaxed_correction_max(sizes, n)
        if got != want:
            failures.append((sizes, n, got, want))
    ok = report("sort-maximization", not failures)
    assert ok, failures


def test_chain_rule_and_range_invariants(ttt):
    rng = np.random.default_rng(505)
    bad = []

    def sweep(ds, subsets):
        for members in subsets:
            score = score_subset(ds, members)
            if abs(score.entropy_sum - score.joint_entropy
                   - score.total_correlation) >= 1e-9:
                bad.append(("chain", members))
            if not 0.0 <= score.plugin_score <= 1.0:
                bad.append(("range", members))

    for _ in range(6):
        ds = random_dataset(rng, d=6, n=int(rng.integers(20, 200)))
        sweep(ds, itertools.chain.from_iterable(
            itertools.combinations(range(6), r) for r in (2, 3, 6)
        ))
    ttt_subsets = [
        rng.choice(10, size=int(rng.integers(2, 9)), replace=False).tolist()
        for _ in range(40)
    ]
    sweep(ttt, ttt_subsets)
    # functional dependence with dyadic counts scores exactly 1
    from corrsets.data import EncodedDataset

    x = np.arange(16) % 8
    ds = EncodedDataset.from_codes(
        ["x", "lo", "mid", "hi"], [x, x % 2, (x // 2) % 2, x // 4], 16
    )
    exact_one = score_subset(ds, [0, 1, 2, 3]).plugin_score == 1.0
    ok = report("chain-rule-and-range", not bad and exact_one)
    assert ok, {"bad": bad, "exact_one": exact_one}


def test_correlation_by_chance_fixed_seed():
    started = time.perf_counter()
    records = chance_demo(d=10, domain=4, n=1000, seed=7)
    elapsed = time.perf_counter() - started
    by_card = {r.cardinality: r for r in records}
    checks = {
        "plugin grows card3 -> card10":
            by_card[10].plugin_bits > by_card[3].plugin_bits,
        "corrected <= plugin everywhere":
            all(r.corrected_bits <= r.plugin_bits for r in records),
        "corrected stays below 0.05":
            all(r.corrected_bits < 0.05 for r in records),
        "runtime < 5 s": elapsed < 5.0,
    }
    ok = report("correlation-by-chance", all(checks.values()))
    assert ok, {k: v for k, v in checks.items() if not v}


def test_regret_ordering():
    started = time.perf_counter()
    cells = {}
    for d in (2, 3):
        for band in ((0.1, 0.3), (0.3, 0.5)):
            seed_seq = np.random.SeedSequence(606, spawn_key=(d, int(band[0] * 10)))
            table = sample_joint_in_band(d, band, rng_seed=seed_seq,
                                         max_attempts=500_000)
            spec = SyntheticSpec.build(table)
            curves = run_regret(
                spec, ["plugin", "relaxed"], n_grid=[50, 100], trials=100,
                seed=d * 100 + int(band[0] * 10),
            )
            cells[(d, band)] = curves
    elapsed = time.perf_counter() - started
    failures = {
        key: (curves["relaxed"].mean_regret, curves["plugin"].mean_regret)
        for key, curves in cells.items()
        if not all(
            r <= p
            for r, p in zip(curves["relaxed"].mean_regret,
                            curves["plugin"].mean_regret)
        )
    }
    ok = report("regret-ordering", not failures and elapsed < 600.0)
    assert ok, {"failures": failures, "elapsed": elapsed}


def test_alpha_guarantee():
    # a factor-alpha guarantee presumes a nonnegative optimum; when every
    # corrected score is negative, pruning provably cannot cut the optimum
    # and the search must return it exactly
    rng = np.random.default_rng(707)
    failures = []
    positive_optima = 0
    for alpha in (0.5, 0.8):
        for copies in (0, 1, 2, 3):
            d = int(rng.integers(5, 13))
            ds = random_dataset(rng, d=d, n=int(rng.integers(30, 300)))
            if copies:
                cols = [a.codes for a in ds.attributes]
                cols += [cols[i].copy() for i in range(copies)]
                from corrsets.data import EncodedDataset

                ds = EncodedDataset.from_codes(
                    [f"A{j}" for j in range(len(cols))], cols, ds.n
                )
            got = branch_and_bound(ds, k=1, alpha=alpha)[0].results[0][1]
            optimum = exhaustive_topk(ds, k=1).results[0][1]
            if optimum >= 0:
                positive_optima += 1
                if got < alpha * optimum - 1e-12:
                    failures.append((alpha, got, optimum))
            elif got != optimum:
                failures.append((alpha, got, optimum))
    ok = report("alpha-guarantee", not failures and positive_optima >= 4)
    assert ok, {"failures": failures, "positive_optima": positive_optima}


def test_cli_determinism(ttt_csv, tmp_path):
    def run_twice(name, argv_maker):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}.json"
            rc = main(argv_maker(out))
            assert rc == 0, name
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc.pop("timing", None)
            outs.append(json.dumps(doc, sort_keys=True))
        return outs[0] == outs[1]

    results = {
        "discover": run_twice("discover", lambda out: [
            "discover", "--input", str(ttt_csv), "--k", "5", "--json", str(out),
        ]),
        "score": run_twice("score", lambda out: [
            "score", "--input", str(ttt_csv),
            "--set", "middle-middle,class", "--json", str(out),
        ]),
        "regret": run_twice("regret", lambda out: [
            "regret", "--dims", "2", "--bands", "0.1:0.4", "--n-grid", "20",
            "--trials", "3", "--seed", "4", "--out-dir", str(tmp_path),
            "--json", str(out),
        ]),
        "chance": run_twice("chance", lambda out: [
            "chance", "--d", "6", "--n", "300", "--seed", "5",
            "--json", str(out),
        ]),
    }
    ok = report("cli-determinism", all(results.values()))
    assert ok, results
