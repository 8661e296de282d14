"""Bit-exact toolkit for boolean bent functions.

Truth tables live in Python ints (bit k = value at point index k, LSB
first); every transform and statistic here is exact integer arithmetic.
"""

from .bent import (
    FlatSumDistribution,
    apply_affine,
    dual_bent,
    is_bent,
    matrix_rank,
    random_invertible,
    two_flat_sum_distribution,
    two_flats,
)
from .bounds import (
    a_n_log2,
    bound_report,
    format_report_table,
    headline_log2,
    load_known_counts,
    q_n,
    simplified_log2,
    t_n_log2,
    theorem_upper_log2,
    tokareva_lower_log2,
    trivial_upper_log2,
)
from .census import (
    CensusResult,
    enumerate_bent_by_degree,
    enumerate_bent_naive,
)
from .core import (
    MAX_ARITY,
    BooleanFunction,
    ParseError,
    ResourceCapError,
    format_bf,
    parse_bf,
    random_function,
    weight,
)
from .geometry import (
    ball_points,
    ball_size,
    coset_spectrum,
    coset_value_class_sizes,
    covering_coset_count,
    gaussian_binomial,
    subcube_points,
)
from .reconstruct import (
    check_lemma1,
    reconstruct_from_ball,
)
from .suites import SUITES
from .transforms import (
    check_restriction_identity,
    convolve_pm,
    degree,
    hadamard_transform,
    moebius,
    walsh_fast,
    walsh_naive,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction",
    "CensusResult",
    "FlatSumDistribution",
    "MAX_ARITY",
    "ParseError",
    "ResourceCapError",
    "SUITES",
    "a_n_log2",
    "apply_affine",
    "ball_points",
    "ball_size",
    "bound_report",
    "check_lemma1",
    "check_restriction_identity",
    "convolve_pm",
    "coset_spectrum",
    "coset_value_class_sizes",
    "covering_coset_count",
    "degree",
    "dual_bent",
    "enumerate_bent_by_degree",
    "enumerate_bent_naive",
    "format_bf",
    "format_report_table",
    "gaussian_binomial",
    "hadamard_transform",
    "headline_log2",
    "is_bent",
    "load_known_counts",
    "matrix_rank",
    "moebius",
    "parse_bf",
    "q_n",
    "random_function",
    "random_invertible",
    "reconstruct_from_ball",
    "simplified_log2",
    "subcube_points",
    "t_n_log2",
    "theorem_upper_log2",
    "tokareva_lower_log2",
    "trivial_upper_log2",
    "two_flat_sum_distribution",
    "two_flats",
    "walsh_fast",
    "walsh_naive",
    "weight",
]
