"""Exact analysis of generalized Takagi functions built from +/-1 wedge coefficients.

Everything numeric happens in the quadratic field Q(sqrt(2)): function
values on dyadic grids, extrema, moduli of continuity, quadratic-variation
and Riemann-sum approximations are all exact, with floating point used
only to accelerate scans (and re-verified exactly) and to print decimals.
"""

from .qfield import Dyadic, QuadValue, SQRT2, pow2_half
from .schauder import BasisIndex, eval_e, eval_f, unit_wedge, wedge_peak
from .schemes import (
    BUILTIN_NAMES,
    AllPlus,
    AlternatingM,
    AlternatingMK,
    Bernoulli,
    Block,
    CoefficientScheme,
    Explicit,
    HalfSplit,
    NegHalfSplit,
    SchemeDepthError,
    parse_scheme,
)
from .takagi import (
    GRID_LEVEL_CAP,
    TAIL_SUM,
    THIRDS_PEAK,
    TakagiFunction,
    pair_value,
    recover_coefficient,
    recover_rows,
    thirds_value,
)
from .extrema import ExtremaReport, grid_extrema, grid_oscillation, jacobsthal, max_value, maximizers
from .quadvar import (
    CounterexampleStudy,
    QVRow,
    QVSeries,
    counterexample_series,
    cov_approx,
    cov_profile,
    qv_approx,
    qv_of_sum,
    qv_profile,
)
from .modulus import ModulusReport, WitnessRow, modulus_scan, nu, omega, sweep_all_steps, witness_ratios, witness_steps
from .follmer import RationalPolynomial, follmer_sum, ito_residual, residual_profile, time_sum

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "AllPlus",
    "AlternatingM",
    "AlternatingMK",
    "BasisIndex",
    "Bernoulli",
    "Block",
    "CoefficientScheme",
    "CounterexampleStudy",
    "Dyadic",
    "Explicit",
    "ExtremaReport",
    "GRID_LEVEL_CAP",
    "HalfSplit",
    "ModulusReport",
    "NegHalfSplit",
    "QVRow",
    "QVSeries",
    "QuadValue",
    "RationalPolynomial",
    "SQRT2",
    "SchemeDepthError",
    "TAIL_SUM",
    "THIRDS_PEAK",
    "TakagiFunction",
    "WitnessRow",
    "counterexample_series",
    "cov_approx",
    "cov_profile",
    "eval_e",
    "eval_f",
    "follmer_sum",
    "grid_extrema",
    "grid_oscillation",
    "ito_residual",
    "jacobsthal",
    "max_value",
    "maximizers",
    "modulus_scan",
    "nu",
    "omega",
    "pair_value",
    "parse_scheme",
    "pow2_half",
    "qv_approx",
    "qv_of_sum",
    "qv_profile",
    "recover_coefficient",
    "recover_rows",
    "residual_profile",
    "sweep_all_steps",
    "thirds_value",
    "time_sum",
    "unit_wedge",
    "wedge_peak",
    "witness_ratios",
    "witness_steps",
]
