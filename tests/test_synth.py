import itertools
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corrsets import synth
from corrsets.estimators import score_subset
from corrsets.search import walk
from corrsets.synth import (
    REGRET_ESTIMATORS,
    BandSamplingError,
    ChanceRecord,
    JointTable,
    SyntheticSpec,
    chance_demo,
    population_w,
    run_regret,
    sample_joint_in_band,
    score_samples,
    write_curves_tsv,
)
from helpers import (
    oracle_entropy,
    oracle_population_w,
    oracle_relaxed_correction_max,
    oracle_table_entropy,
    walk_argmax,
)


def uniform_pair():
    return JointTable(dims=(2, 2), probs=np.full(4, 0.25))


def duplicated_uniform_pair():
    return JointTable(dims=(2, 2), probs=np.array([0.5, 0.0, 0.0, 0.5]))


class TestJointTable:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            JointTable(dims=(2,), probs=np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            JointTable(dims=(2,), probs=np.array([1.2, -0.2]))

    def test_rejects_nan_and_wrong_length(self):
        with pytest.raises(ValueError, match="NaN"):
            JointTable(dims=(3, 3), probs=np.full(9, np.nan))
        with pytest.raises(ValueError, match="shape"):
            JointTable(dims=(2, 2), probs=np.full(3, 1 / 3))


class TestPopulationW:
    def test_duplicated_variable_scores_one(self):
        assert population_w(duplicated_uniform_pair(), (0, 1)) == 1.0

    def test_independent_pair_scores_zero(self):
        assert population_w(uniform_pair(), (0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_singletons_score_zero(self):
        assert population_w(duplicated_uniform_pair(), (0,)) == 0.0

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            population_w(uniform_pair(), ())

    def test_rejects_repeated_and_missing_axes(self):
        for subset in ((0, 0), (0, 5), (0, -1), (2,)):
            with pytest.raises(ValueError, match="distinct axes"):
                population_w(duplicated_uniform_pair(), subset)

    def test_constant_variable_scores_zero(self):
        # variable 0 is constant, but its marginal sums to just below 1 in floats
        probs = np.array([4, 6, 2, 0, 0, 0]) / 12
        assert population_w(JointTable(dims=(2, 3), probs=probs), (0, 1)) == 0.0

    def test_chain_rule_two_ways(self):
        rng = np.random.default_rng(31)
        probs = rng.dirichlet(np.ones(27))
        jt = JointTable(dims=(3, 3, 3), probs=probs)

        def h(*axes):
            return oracle_table_entropy(probs, jt.dims, axes)

        marginals = [h(a) for a in range(3)]
        w_direct = sum(marginals) - h(0, 1, 2)
        # telescoping mutual-information sum
        mi_sum = (marginals[0] + marginals[1] - h(0, 1)) + (
            h(0, 1) + marginals[2] - h(0, 1, 2)
        )
        assert w_direct == pytest.approx(mi_sum, abs=1e-10)
        w_norm = sum(marginals) - max(marginals)
        assert population_w(jt, (0, 1, 2)) == pytest.approx(
            w_direct / w_norm, abs=1e-12
        )


class TestSampleJointInBand:
    def test_full_band_accepts_first_draw(self):
        jt = sample_joint_in_band(2, (0.0, 1.0), rng_seed=0, max_attempts=1)
        assert jt.dims == (3, 3)
        assert jt.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_accepted_table_lands_in_band(self):
        for seed in range(4):
            jt = sample_joint_in_band(2, (0.1, 0.4), rng_seed=seed)
            w = population_w(jt, (0, 1))
            assert 0.1 <= w < 0.4

    def test_deterministic_per_seed(self):
        a = sample_joint_in_band(3, (0.1, 0.3), rng_seed=42)
        b = sample_joint_in_band(3, (0.1, 0.3), rng_seed=42)
        assert np.array_equal(a.probs, b.probs)

    def test_product_table_scores_zero(self):
        jt = uniform_pair()
        assert population_w(jt, (0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_unreachable_band_reports_histogram(self):
        with pytest.raises(BandSamplingError, match="histogram"):
            sample_joint_in_band(4, (0.95, 1.0), rng_seed=0, max_attempts=300)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            sample_joint_in_band(2, (0.5, 0.2), rng_seed=0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="at least 2 dependent"):
            sample_joint_in_band(1, (0.0, 1.0))
        # read with operator.index: a float d would fail deep in numpy
        with pytest.raises(TypeError, match="integer"):
            sample_joint_in_band(2.5, (0.1, 0.5))

    def test_max_attempts_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            sample_joint_in_band(2, (0.0, 1.0), rng_seed=0, max_attempts=0)
        # read with operator.index, as the command line reads an int
        with pytest.raises(TypeError, match="integer"):
            sample_joint_in_band(2, (0.0, 1.0), rng_seed=0, max_attempts=2.5)


@st.composite
def joint_tables(draw, max_tables=1):
    """(dims, probs): 1..max_tables flat joint tables over 2-4 variables with
    domains 2-3, as rows of probs, from integer weights with zero cells."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4)))
    cells = math.prod(dims)
    weights = st.lists(st.integers(0, 4), min_size=cells, max_size=cells)
    rows = draw(st.lists(weights.filter(any), min_size=1, max_size=max_tables))
    probs = np.array(rows, dtype=float)
    return dims, probs / probs.sum(axis=1, keepdims=True)


def all_subsets(m):
    return [s for k in range(1, m + 1) for s in itertools.combinations(range(m), k)]


class TestExactW:
    @given(joint_tables())
    @example(((2, 3), np.array([[.1, .2, .1, .2, .1, .3]])))
    @example(((2, 3), np.array([[4, 6, 2, 0, 0, 0]]) / 12))
    @settings(max_examples=150, deadline=None)
    def test_population_w_matches_oracle(self, table):
        dims, probs = table
        jt = JointTable(dims=dims, probs=probs[0])
        for s in all_subsets(len(dims)):
            assert abs(population_w(jt, s) - oracle_population_w(probs[0], dims, s)) <= 1e-12

    @given(joint_tables(max_tables=5))
    @settings(max_examples=100, deadline=None)
    def test_batch_rows_equal_single_tables(self, table):
        dims, probs = table
        subsets = all_subsets(len(dims))
        batch = synth._exact_w(probs, dims, subsets)
        assert batch.shape == (len(probs), len(subsets))
        for row, p in zip(batch, probs):
            assert np.array_equal(row, synth._exact_w(p, dims, subsets)[0])
            assert row.tolist() == [population_w(JointTable(dims, p), s) for s in subsets]

    @given(d=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
           band=st.sampled_from([(0.0, 0.1), (0.1, 0.2), (0.2, 0.3), (0.05, 0.4), (0.0, 1.0)]))
    @settings(max_examples=40, deadline=None)
    def test_accepted_table_in_band(self, d, seed, band):
        try:
            jt = sample_joint_in_band(d, band, rng_seed=seed, max_attempts=2048)
        except BandSamplingError:
            assume(False)
        w = population_w(jt, range(d))
        assert band[0] <= w < band[1] or w == band[1] == 1.0
        assert abs(w - oracle_population_w(jt.probs, jt.dims, range(d))) <= 1e-12


@pytest.fixture(scope="module")
def spec_mid_band():
    return SyntheticSpec.build(sample_joint_in_band(2, (0.2, 0.5), rng_seed=7))


@pytest.fixture(scope="module")
def spec_high_band():
    return SyntheticSpec.build(sample_joint_in_band(2, (0.3, 0.5), rng_seed=11))


class TestSyntheticSpec:
    @pytest.fixture
    def spec(self, spec_mid_band):
        return spec_mid_band

    def test_population_covers_all_subsets(self, spec):
        assert spec.num_vars == 5
        assert len(spec.population) == 2**5 - 1

    def test_independent_subsets_score_zero(self, spec):
        # variables 2..4 are appended independent uniforms
        for subset in ((2, 3), (3, 4), (2, 3, 4), (0, 2), (1, 4)):
            assert spec.population[subset] == pytest.approx(0.0, abs=1e-9)

    def test_true_max_at_least_dependent_pair(self, spec):
        assert spec.true_max_w >= spec.population[(0, 1)] - 1e-12

    def test_sampling_shape_and_determinism(self, spec):
        ds1 = spec.sample_dataset(50, np.random.default_rng(3))
        ds2 = spec.sample_dataset(50, np.random.default_rng(3))
        assert ds1.n == 50 and ds1.d == 5
        for a, b in zip(ds1.attributes, ds2.attributes):
            assert np.array_equal(a.codes, b.codes)
            assert a.domain_size <= 3

    def test_sample_matches_population_at_scale(self, spec):
        ds = spec.sample_dataset(60_000, np.random.default_rng(5))
        observed = oracle_entropy(ds.attributes[0].codes.tolist())
        expected = oracle_table_entropy(spec.full_table.probs, spec.full_table.dims, (0,))
        assert observed == pytest.approx(expected, abs=0.02)

    def test_sample_cells_equal_rng_choice(self, spec):
        probs = spec.full_table.probs
        for seed in range(6):
            for n in (1, 2, 7, 100, 1000):
                cells = spec.sample_cells(n, np.random.default_rng(seed))
                expected = np.random.default_rng(seed).choice(probs.size, n, p=probs)
                assert cells.dtype == expected.dtype
                assert np.array_equal(cells, expected)


class TestRunRegret:
    @pytest.fixture
    def spec(self, spec_high_band):
        return spec_high_band

    def test_population_estimator_has_zero_regret(self, spec):
        curves = run_regret(spec, ["population"], n_grid=[20], trials=4, seed=1)
        assert curves["population"].mean_regret == (0.0,)

    def test_regret_nonnegative_and_deterministic(self, spec):
        a = run_regret(spec, ["plugin", "relaxed"], n_grid=[20, 40], trials=6, seed=2)
        b = run_regret(spec, ["plugin", "relaxed"], n_grid=[20, 40], trials=6, seed=2)
        for est in ("plugin", "relaxed"):
            assert a[est].mean_regret == b[est].mean_regret
            assert all(r >= 0.0 for r in a[est].mean_regret)

    def test_corrected_beats_plugin_in_band(self, spec):
        curves = run_regret(spec, ["plugin", "relaxed"], n_grid=[50], trials=30, seed=3)
        assert curves["relaxed"].mean_regret[0] <= curves["plugin"].mean_regret[0]

    def test_single_trial_has_zero_stderr(self, spec):
        # one trial has no spread to estimate: stderr is 0, not NaN
        curves = run_regret(spec, ["plugin", "relaxed", "population"],
                            n_grid=[10, 20, 40], trials=1, seed=5)
        for curve in curves.values():
            assert curve.trials == 1
            assert curve.stderr == (0.0, 0.0, 0.0)
            assert all(0.0 <= m <= spec.true_max_w for m in curve.mean_regret)

    def test_validations(self, spec):
        with pytest.raises(ValueError, match="unknown estimator"):
            run_regret(spec, ["nope"], n_grid=[10], trials=1)
        with pytest.raises(ValueError, match="trials"):
            run_regret(spec, ["plugin"], n_grid=[10], trials=0)
        # sample sizes need at least 2 rows, as on the command line
        for n in (1, 0):
            with pytest.raises(ValueError, match="n_grid must be >= 2"):
                run_regret(spec, ["plugin"], n_grid=[10, n], trials=1)
        # sizes and trials are read with operator.index: 10.7 used to run at
        # n = 10, and 2.5 trials failed deep in numpy
        with pytest.raises(TypeError, match="integer"):
            run_regret(spec, ["plugin"], n_grid=[10.7], trials=2)
        with pytest.raises(TypeError, match="integer"):
            run_regret(spec, ["plugin"], n_grid=[10], trials=2.5)
        # the size check runs before anything reads the population
        table = JointTable(dims=(2,) * 9, probs=np.full(2**9, 2.0**-9))
        big = SyntheticSpec(dependent=table, full_table=table, population={})
        with pytest.raises(ValueError, match="8 variables"):
            run_regret(big, ["exact"], n_grid=[10], trials=1)

    def test_tsv_schema(self, spec, tmp_path):
        curves = run_regret(spec, ["plugin", "relaxed"], n_grid=[20], trials=3, seed=4)
        paths = write_curves_tsv(curves, tmp_path)
        assert sorted(p.split("regret_")[-1] for p in paths) == [
            "plugin.tsv", "relaxed.tsv",
        ]
        lines = Path(paths[0]).read_text().splitlines()
        assert lines[0] == "estimator\tn\tmean_regret\tstderr"
        assert len(lines) == 2
        fields = lines[1].split("\t")
        assert fields[0] == "plugin" and fields[1] == "20"
        float(fields[2]), float(fields[3])


class TestEmpiricalArgmax:
    def test_exact_ties_go_to_smallest_then_lex_subset(self):
        # variables 0-2 are copies of one uniform ternary variable, so their
        # pairs tie exactly under every estimator (and the triple too for
        # plugin and population). Under upper and exact the triple ties the
        # pairs only mathematically, so there the rule is checked on the
        # computed bits: the smallest, then lexicographically smallest, of
        # the subsets equal to the maximum bit for bit wins.
        probs = np.zeros(27)
        probs[[0, 13, 26]] = 1 / 3
        spec = SyntheticSpec.build(JointTable(dims=(3, 3, 3), probs=probs))
        cells = spec.sample_cells(30, np.random.default_rng(0))
        ds = spec.dataset_of(cells)
        codes = [a.codes for a in ds.attributes]
        assert np.array_equal(codes[0], codes[1]) and np.array_equal(codes[0], codes[2])
        subsets, values = score_samples(spec, [cells], REGRET_ESTIMATORS)
        for est, (row,) in values.items():
            pairs = [row[subsets.index(pair)] for pair in [(0, 1), (0, 2), (1, 2)]]
            assert pairs[0] == pairs[1] == pairs[2], est
            winner = subsets[row.argmax()]
            if est in ("upper", "exact"):
                tied = [s for s, value in zip(subsets, row) if value == row.max()]
                assert winner == min(tied, key=lambda s: (len(s), s)), est
            else:
                assert winner == (0, 1), est


@lru_cache(maxsize=None)
def full_band_spec(dims: int, seed: int) -> SyntheticSpec:
    return SyntheticSpec.build(sample_joint_in_band(dims, (0.0, 1.0), rng_seed=seed))


def assert_batch_matches_walk(spec, cells, estimators=("plugin", "relaxed", "population")):
    """score_samples equals the subset walk value for value, and its
    first-maximum winners equal walk_argmax's explicit tie key."""
    subsets, values = score_samples(spec, cells, estimators)
    column = {s: i for i, s in enumerate(subsets)}
    for row, sample in enumerate(cells):
        ds = spec.dataset_of(sample)
        seen = 0
        for node in walk(ds):
            i = column[tuple(sorted(node.score.members))]
            assert values["plugin"][row, i] == node.score.plugin_score
            assert values["relaxed"][row, i] == node.score.corrected_score
            for est in {"upper", "exact"} & set(estimators):
                assert values[est][row, i] == score_subset(ds, node.score.members, est).corrected_score
            seen += 1
        assert seen == len(subsets)
        winners = {est: subsets[values[est][row].argmax()] for est in estimators}
        assert winners == walk_argmax(ds, spec, estimators)


class TestScoreSamples:
    @given(dims=st.integers(2, 5), seed=st.integers(0, 2), n=st.integers(10, 100),
           draw=st.integers(0, 2**32 - 1))
    @example(dims=5, seed=0, n=100, draw=1)
    @example(dims=4, seed=1, n=10, draw=2)
    @settings(max_examples=40, deadline=None)
    def test_matches_walk(self, dims, seed, n, draw):
        spec = full_band_spec(dims, seed)
        rng = np.random.default_rng(draw)
        # samples of different sizes share one batch in run_regret
        cells = [spec.sample_cells(n, rng), spec.sample_cells(10 + draw % 91, rng)]
        assert_batch_matches_walk(spec, cells)

    def test_constant_columns_match_walk(self):
        # V1 takes its first value with probability 0.9, so at n = 10..13
        # many samples hold it as a constant column
        probs = np.full((3, 3), 0.1 / 6)
        probs[0] = [0.5, 0.3, 0.1]
        spec = SyntheticSpec.build(JointTable(dims=(3, 3), probs=probs.ravel()))
        rng = np.random.default_rng(12)
        cells = [spec.sample_cells(n, rng) for n in range(10, 14) for _ in range(10)]
        constant = [c for c in cells if spec.dataset_of(c).attributes[0].domain_size == 1]
        assert len(constant) >= 5
        assert_batch_matches_walk(spec, cells)

    def test_three_copies_tie_matches_walk(self):
        probs = np.zeros(27)
        probs[[0, 13, 26]] = 1 / 3
        spec = SyntheticSpec.build(JointTable(dims=(3, 3, 3), probs=probs))
        rng = np.random.default_rng(1)
        cells = [spec.sample_cells(n, rng) for n in (10, 13, 30)]
        # exact is left to TestEmpiricalArgmax: it costs seconds per sample here
        assert_batch_matches_walk(spec, cells, ("plugin", "relaxed", "population", "upper"))

    def test_exact_matches_score_subset(self):
        spec = full_band_spec(2, 0)
        rng = np.random.default_rng(3)
        cells = [spec.sample_cells(n, rng) for n in (12, 30)]
        assert_batch_matches_walk(spec, cells, ("plugin", "relaxed", "upper", "exact"))

    def test_one_sample_per_batch_gives_same_curves(self, monkeypatch, spec_high_band):
        args = (spec_high_band, ["plugin", "relaxed", "population"], [10, 20, 30])
        whole = run_regret(*args, trials=7, seed=5)
        monkeypatch.setattr(synth, "_BATCH_CELLS", 1)
        assert run_regret(*args, trials=7, seed=5) == whole


class TestChanceDemo:
    def test_corrected_below_plugin_everywhere(self):
        records = chance_demo(d=8, domain=4, n=500, seed=1)
        assert [r.cardinality for r in records] == list(range(2, 9))
        for r in records:
            assert r.corrected_bits <= r.plugin_bits

    @pytest.mark.parametrize("d, n, seed", [(8, 500, 1), (6, 300, 9)])
    def test_values_match_oracle(self, d, n, seed):
        # the chain's columns are redrawn as chance_demo draws them
        codes = np.random.default_rng(seed).integers(0, 4, size=(n, d))
        records = chance_demo(d=d, n=n, seed=seed)
        assert [r.cardinality for r in records] == list(range(2, d + 1))
        for r in records:
            chain = range(r.cardinality)
            rows = [tuple(row) for row in codes[:, :r.cardinality].tolist()]
            plugin = (math.fsum(oracle_entropy(codes[:, i].tolist()) for i in chain)
                      - oracle_entropy(rows))
            sizes = [len(set(codes[:, i].tolist())) for i in chain]
            assert r.plugin_bits == pytest.approx(plugin, abs=1e-9)
            assert r.corrected_bits == pytest.approx(
                r.plugin_bits - oracle_relaxed_correction_max(sizes, n), abs=1e-9)

    def test_validations(self):
        # the command line's rules: d >= 2, domain >= 1, n >= 2
        for kwargs in ({"d": 1}, {"d": 0}, {"domain": 0}, {"n": 1}, {"n": 0}):
            with pytest.raises(ValueError, match="need d >= 2, domain >= 1 and n >= 2"):
                chance_demo(**kwargs)
        # read with operator.index: domain=2.5 used to run with a domain of 2
        for kwargs in ({"domain": 2.5}, {"d": 2.5}, {"n": 100.5}):
            with pytest.raises(TypeError, match="integer"):
                chance_demo(**kwargs)

    def test_plugin_grows_with_cardinality(self):
        records = chance_demo(seed=3)
        assert records[-1].plugin_bits > records[1].plugin_bits

    def test_deterministic(self):
        a = chance_demo(d=6, n=300, seed=9)
        b = chance_demo(d=6, n=300, seed=9)
        assert a == b
        assert isinstance(a[0], ChanceRecord)

    def test_consistency_at_large_n(self):
        # at fixed cardinality both estimates shrink toward the population
        # value 0 as n grows; full depth stays sparse until n >> domain^d
        small = {r.cardinality: r for r in chance_demo(n=1000, seed=7)}
        large = {r.cardinality: r for r in chance_demo(n=100_000, seed=7)}
        for c in range(2, 7):
            assert abs(large[c].plugin_bits) < 0.05
            assert abs(large[c].corrected_bits) < 0.05
            assert large[c].plugin_bits < small[c].plugin_bits
