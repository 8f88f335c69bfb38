"""Wasserstein distances via quantile and copula formulas, certified against
an exact discrete optimal-transport oracle."""

from .copulas import (
    ComonotonePair,
    EmpiricalCopula,
    comonotone_coupling,
    discretize_joint,
    eval_M,
    eval_W,
)
from .distributions import (
    Distribution1D,
    Empirical,
    Exponential,
    Normal,
    Uniform,
    empirical_from_samples,
)
from .grids import InputError, QuadratureError
from .oracle import (
    DiscreteCoupling,
    DiscreteMeasureND,
    NormCost,
    brute_force_assignment,
    power_cost,
    solve_ot,
)
from .wasserstein import (
    DistanceReport,
    Method,
    w1_cdf,
    wp_lower_bound_nd,
    wp_quantile,
    wp_shared_nd,
    wp_via_M,
    wpq_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "ComonotonePair",
    "DiscreteCoupling",
    "DiscreteMeasureND",
    "DistanceReport",
    "Distribution1D",
    "Empirical",
    "EmpiricalCopula",
    "Exponential",
    "InputError",
    "Method",
    "NormCost",
    "Normal",
    "QuadratureError",
    "Uniform",
    "brute_force_assignment",
    "comonotone_coupling",
    "discretize_joint",
    "empirical_from_samples",
    "eval_M",
    "eval_W",
    "power_cost",
    "solve_ot",
    "w1_cdf",
    "wp_lower_bound_nd",
    "wp_quantile",
    "wp_shared_nd",
    "wp_via_M",
    "wpq_bounds",
]
