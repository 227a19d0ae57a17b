"""corrsets: discovery of reliably correlated attribute subsets in categorical data.

The library scores attribute subsets by normalized total correlation,
corrected for chance with a permutation-model term, and searches for the
top-k subsets with branch-and-bound (exact or alpha-approximate) or
greedy refinement. A synthetic harness measures estimator regret and
demonstrates correlation-by-chance on independent data.
"""

__version__ = "0.1.0"

from .data import (
    Attribute,
    DataError,
    EncodedDataset,
    ParseError,
    RawTable,
    discretize_equal_frequency,
    encode,
    parse_csv,
)
from .estimators import (
    RowPartition,
    SubsetScore,
    correction_relaxed_bits,
    entropy,
    expected_mi_permutation,
    m0_relaxed,
    m0_upper,
    refine_partition,
    score_subset,
)
from .search import (
    SearchStats,
    TopKStore,
    branch_and_bound,
    exhaustive_topk,
    greedy,
    order_attributes,
)
from .synth import (
    JointTable,
    RegretCurve,
    SyntheticSpec,
    chance_demo,
    population_w,
    run_regret,
    sample_joint_in_band,
)

__all__ = [name for name in dir() if not name.startswith("_")]
