"""The three benchmark workloads: input generation, operation and checks.

Each workload has four steps, run in this order by ``worker.py``:

* ``generate(seed, work)`` writes the seeded input under ``work``. It uses
  numpy only and runs in its own process, so it stays out of the run
  process's peak memory.
* ``setup(seed, work)`` is the program's own set-up: it encodes the input
  into what the operation needs. Its time is part of ``setup_s``.
* ``run(state)`` is one timed operation.
* ``summarize(state, output)`` turns an operation's output into plain data;
  ``check(seed, work, summary)`` compares that data against independent
  computations from ``oracle.py`` and returns a list of errors.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

import oracle
from oracle import close

# --------------------------------------------------------------- planted-bnb

# (domain, source column or None): a source column makes this one a noisy
# copy of it. Fixed so that the search's work barely depends on the seed
# (about 1,060 refinements per search at every seed tried).
PLANTED_COLUMNS = (
    (3, None), (3, None), (4, 1), (4, 2), (4, None),
    (3, 3), (3, 5), (4, None), (4, None), (2, 1),
)
PLANTED_ROWS = 20_000
PLANTED_NOISE = 0.3
PLANTED_K = 5


def planted_codes(seed: int, n: int = PLANTED_ROWS) -> np.ndarray:
    """Seeded planted table (rows x columns of codes), as in the tests'
    ``random_dataset``: a noisy copy re-draws a share of its source's rows."""
    rng = np.random.default_rng(seed)
    cols = []
    for domain, source in PLANTED_COLUMNS:
        if source is None:
            cols.append(rng.integers(0, domain, size=n))
        else:
            col = cols[source].copy()
            noise = rng.random(n) < PLANTED_NOISE
            col[noise] = rng.integers(0, domain, size=int(noise.sum()))
            cols.append(col % domain)
    return np.stack(cols, axis=1).astype(np.int8)


class PlantedBnb:
    name = "planted-bnb"

    def generate(self, seed, work: Path) -> None:
        np.save(work / "planted.npy", planted_codes(seed))

    def setup(self, seed, work: Path):
        from corrsets import EncodedDataset

        codes = np.load(work / "planted.npy")
        names = [f"A{j}" for j in range(codes.shape[1])]
        return EncodedDataset.from_codes(
            names, [codes[:, j] for j in range(codes.shape[1])], codes.shape[0]
        )

    def run(self, dataset):
        from corrsets import search

        return search.branch_and_bound(dataset, k=PLANTED_K, alpha=1.0)

    def summarize(self, dataset, output) -> dict:
        store, stats = output
        return {
            "results": [
                {"members": list(score.members), "value": value,
                 "joint": score.joint_entropy, "plugin": score.plugin_score,
                 "correction": score.correction,
                 "corrected": score.corrected_score}
                for _, value, score in store.results
            ],
            "nodes_explored": stats.nodes_explored,
            "nodes_pruned": stats.nodes_pruned,
        }

    def check(self, seed, work: Path, summary: dict) -> list[str]:
        codes = np.load(work / "planted.npy")
        table = oracle.CodeTable([codes[:, j] for j in range(codes.shape[1])])
        results = summary["results"]
        errors = _check_ranked(results, PLANTED_K)
        for rec in results:
            if rec["value"] != rec["corrected"]:
                errors.append(f"{rec['members']}: value {rec['value']} is not the score")
            errors += _check_scores(table, rec["members"], rec)
        # alpha = 1 is exact: no subset outside the results may beat the
        # k-th value. Every subset of two or more columns is scored here.
        if results:
            kth = results[-1]["value"]
            found = {tuple(sorted(r["members"])) for r in results}
            for subset in table.subsets(range(2, codes.shape[1] + 1)):
                if subset in found:
                    continue
                value = table.score(subset)["corrected"]
                if value > kth + oracle.TOL:
                    errors.append(f"subset {subset} scores {value} > k-th {kth}")
        return errors


# -------------------------------------------------------------- csv-discover

CSV_ROWS = 100_000
CSV_BINS = 5  # the discover default, so the command line sets no --bins
CSV_K = 5
ID_VALUES = 2_000

# name, kind, source column or None, domain (categorical) or scale (numeric)
CSV_COLUMNS = (
    ("user_id", "id", None, ID_VALUES),
    ("session_id", "id", "user_id", ID_VALUES),
    ("region", "cat", None, 6),
    ("channel", "cat", "region", 4),
    ("device", "cat", None, 3),
    ("browser", "cat", "device", 5),
    ("plan", "cat", None, 4),
    ("status", "cat", "plan", 3),
    ("segment", "cat", "region", 8),
    ("lang", "cat", None, 7),
    ("tier", "cat", "session_id", 2),
    ("amount", "num", "plan", 100.0),
    ("duration", "num", "device", 60.0),
    ("latency", "num", "browser", 250.0),
    ("score", "num", None, 10.0),
    ("age", "num", None, 80.0),
)
CSV_NOISE = 0.25


def _equal_frequency_sizes(n: int, bins: int) -> np.ndarray:
    base, rem = divmod(n, bins)
    sizes = np.full(bins, base, dtype=np.int64)
    sizes[:rem] += 1
    return sizes


def csv_table(seed: int, n: int = CSV_ROWS):
    """Seeded CSV text and the code of every cell, known by construction.

    Categorical and ID tokens are text, so no categorical column looks
    numeric. A numeric column is cut into equal-frequency bins by rank of a
    latent value; each bin's values lie strictly inside (b, b + 1) times a
    scale, all distinct, so binning recovers exactly these codes.
    """
    rng = np.random.default_rng(seed)
    codes: dict[str, np.ndarray] = {}
    tokens = []
    for name, kind, source, param in CSV_COLUMNS:
        if kind in ("id", "cat"):
            domain = int(param)
            if source is None:
                col = rng.integers(0, domain, size=n)
            else:
                col = (codes[source] * 7 + 3) % domain
                noise = rng.random(n) < CSV_NOISE
                col[noise] = rng.integers(0, domain, size=int(noise.sum()))
            labels = np.array([f"{name[0]}{v:04d}" if kind == "id" else f"{name[:3]}_{chr(97 + v)}"
                               for v in range(domain)])
            codes[name] = col
            tokens.append(labels[col].tolist())
        else:
            latent = rng.random(n)
            if source is not None:
                latent = latent + codes[source] * (1.0 - CSV_NOISE)
            order = np.argsort(latent, kind="stable")
            sizes = _equal_frequency_sizes(n, CSV_BINS)
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            bin_of_rank = np.repeat(np.arange(CSV_BINS), sizes)
            within = np.arange(n) - starts[bin_of_rank]
            value_of_rank = param * (bin_of_rank + (within + 0.5) / (sizes[bin_of_rank] + 1))
            col = np.empty(n, dtype=np.int64)
            col[order] = bin_of_rank
            values = np.empty(n)
            values[order] = value_of_rank
            codes[name] = col
            tokens.append([f"{v:.6f}" for v in values.tolist()])
    header = ",".join(name for name, *_ in CSV_COLUMNS)
    text = header + "\n" + "\n".join(map(",".join, zip(*tokens))) + "\n"
    return text, np.stack([codes[name] for name, *_ in CSV_COLUMNS], axis=1)


class CsvDiscover:
    name = "csv-discover"

    def generate(self, seed, work: Path) -> None:
        text, codes = csv_table(seed)
        (work / "input.csv").write_text(text, encoding="utf-8")
        np.save(work / "csv_codes.npy", codes.astype(np.int16))

    def setup(self, seed, work: Path):
        import corrsets.cli

        return {
            "cli": corrsets.cli,
            "report": work / "report.json",
            "argv": ["discover", "--input", str(work / "input.csv"),
                     "--algo", "greedy", "--k", str(CSV_K),
                     "--json", str(work / "report.json")],
        }

    def run(self, state):
        with contextlib.redirect_stdout(io.StringIO()):
            return state["cli"].main(state["argv"])

    def summarize(self, state, output) -> dict:
        report = json.loads(state["report"].read_text(encoding="utf-8"))
        report.pop("timing", None)  # outside the determinism contract
        report["exit_code"] = output
        return report

    def check(self, seed, work: Path, report: dict) -> list[str]:
        codes = np.load(work / "csv_codes.npy").astype(np.int64)
        names = [name for name, *_ in CSV_COLUMNS]
        table = oracle.CodeTable([codes[:, j] for j in range(codes.shape[1])])
        errors = []
        if report.get("exit_code") != 0:
            errors.append(f"exit code {report.get('exit_code')}")
        ds = report["dataset"]
        if (ds["n"], ds["d"]) != (CSV_ROWS, len(names)):
            errors.append(f"dataset shape {(ds['n'], ds['d'])}")
        for j, attr in enumerate(ds["attributes"]):
            if attr["name"] != names[j]:
                errors.append(f"attribute {j} named {attr['name']}")
            elif attr["domain_size"] != table.domains[j]:
                errors.append(f"{attr['name']}: domain {attr['domain_size']}"
                              f" != {table.domains[j]}")
            elif not close(attr["entropy"], table.entropies[j]):
                errors.append(f"{attr['name']}: entropy {attr['entropy']}"
                              f" != {table.entropies[j]}")
        results = report["results"]
        errors += _check_ranked(results, CSV_K)
        for rec in results:
            if rec["value"] != rec["corrected_score"] or rec["depth"] != len(rec["members"]):
                errors.append(f"{rec['members']}: value or depth inconsistent")
            members = [names.index(m) for m in rec["members"]]
            errors += _check_scores(
                table, members,
                {"members": rec["members"], "plugin": rec["plugin_score"],
                 "correction": rec["correction"], "corrected": rec["corrected_score"]},
            )
        stats = report["stats"]
        pairs = len(names) * (len(names) - 1) // 2
        if stats["nodes_explored"] < pairs or not stats["completed"]:
            errors.append(f"stats {stats}")
        # greedy scores every pair, so no pair outside the results may beat
        # the k-th value
        if results:
            kth = results[-1]["value"]
            found = {tuple(sorted(names.index(m) for m in r["members"])) for r in results}
            for pair in table.subsets([2]):
                if pair not in found:
                    value = table.score(pair)["corrected"]
                    if value > kth + oracle.TOL:
                        errors.append(f"pair {pair} scores {value} > k-th {kth}")
        return errors


# --------------------------------------------------------------- regret-cell

REGRET_DIMS = 3
REGRET_BAND = (0.2, 0.3)
REGRET_N_GRID = tuple(range(10, 101, 10))
REGRET_TRIALS = 10
REGRET_ESTIMATORS = ("plugin", "relaxed")


class RegretCell:
    name = "regret-cell"

    def generate(self, seed, work: Path) -> None:
        pass  # the operation samples its own tables from the seed

    def setup(self, seed, work: Path):
        import corrsets.synth

        return {"seed": seed, "synth": corrsets.synth}

    def run(self, state):
        # functions are looked up on each call, so a traced run sees wrappers
        synth, seed = state["synth"], state["seed"]
        table = synth.sample_joint_in_band(REGRET_DIMS, REGRET_BAND, rng_seed=seed)
        spec = synth.SyntheticSpec.build(table)
        curves = synth.run_regret(spec, REGRET_ESTIMATORS, REGRET_N_GRID,
                                  trials=REGRET_TRIALS, seed=seed)
        return spec, curves

    def summarize(self, state, output) -> dict:
        spec, curves = output
        return {
            "dims": list(spec.full_table.dims),
            "dependent": spec.dependent.num_vars,
            "probs": spec.full_table.probs.tolist(),
            "true_max_w": spec.true_max_w,
            "curves": {est: {"n": list(c.n_values), "mean": list(c.mean_regret),
                             "trials": c.trials}
                       for est, c in sorted(curves.items())},
        }

    def check(self, seed, work: Path, summary: dict) -> list[str]:
        dims = tuple(summary["dims"])
        probs = np.asarray(summary["probs"])
        m = len(dims)
        dep = tuple(range(REGRET_DIMS))
        errors = []
        if dims != (3,) * (REGRET_DIMS + 3) or summary["dependent"] != REGRET_DIMS:
            errors.append(f"table dims {dims}, {summary['dependent']} dependent")
        w_dep = oracle.population_w(probs, dims, dep)
        if not REGRET_BAND[0] <= w_dep < REGRET_BAND[1]:
            errors.append(f"dependent w {w_dep} outside {REGRET_BAND}")
        order = [s for size in range(2, m + 1)
                 for s in itertools.combinations(range(m), size)]
        pop = {s: oracle.population_w(probs, dims, s) for s in order}
        true_max = max(pop.values())
        if not close(summary["true_max_w"], true_max):
            errors.append(f"true_max_w {summary['true_max_w']} != {true_max}")
        curves = summary["curves"]
        if sorted(curves) != sorted(REGRET_ESTIMATORS):
            return errors + [f"estimators {sorted(curves)}"]
        for ni, n in enumerate(REGRET_N_GRID):
            low = {est: 0.0 for est in REGRET_ESTIMATORS}
            high = {est: 0.0 for est in REGRET_ESTIMATORS}
            for j in range(REGRET_TRIALS):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ni, j)))
                cells = rng.choice(probs.size, size=n, p=probs)
                cols, stride = [], probs.size
                for dim in dims:
                    stride //= dim
                    cols.append((cells // stride) % dim)
                table = oracle.CodeTable(cols)
                scores = [table.score(s, from_rows=True) for s in order]
                for est, key in (("plugin", "plugin"), ("relaxed", "corrected")):
                    values = [sc[key] for sc in scores]
                    best = max(values)
                    # subsets within the tolerance of the best may win the
                    # (size, lex) tie rule under either rounding
                    regrets = [true_max - pop[s] for s, v in zip(order, values)
                               if v >= best - oracle.TOL]
                    if not all(-oracle.TOL <= r <= true_max + oracle.TOL for r in regrets):
                        errors.append(f"regret outside [0, {true_max}]")
                    low[est] += min(regrets) / REGRET_TRIALS
                    high[est] += max(regrets) / REGRET_TRIALS
            for est in REGRET_ESTIMATORS:
                curve = curves[est]
                if curve["n"] != list(REGRET_N_GRID) or curve["trials"] != REGRET_TRIALS:
                    errors.append(f"{est}: grid {curve['n']} trials {curve['trials']}")
                    continue
                mean = curve["mean"][ni]
                if not low[est] - oracle.TOL <= mean <= high[est] + oracle.TOL:
                    errors.append(f"{est} n={n}: mean regret {mean} outside"
                                  f" [{low[est]}, {high[est]}]")
        return errors


# ------------------------------------------------------------------- shared

def _check_ranked(results, k: int) -> list[str]:
    errors = []
    if len(results) != k:
        errors.append(f"{len(results)} results, expected {k}")
    values = [r["value"] for r in results]
    if values != sorted(values, reverse=True):
        errors.append(f"results not in descending order: {values}")
    return errors


def _check_scores(table, members, rec) -> list[str]:
    """Compare a result's score components against the oracle, with the
    joint entropy recomputed from row tuples."""
    ref = table.score(members, from_rows=True)
    return [f"{rec['members']}: {key} {rec[key]} != {ref[key]}"
            for key in ("joint", "plugin", "correction", "corrected")
            if key in rec and not close(rec[key], ref[key])]


WORKLOADS = {w.name: w for w in (PlantedBnb(), CsvDiscover(), RegretCell())}
