"""Verification lab for generic subspace-position bounds in Lie representations.

Exact rational subspace calculus, example (H, a, V) configurations with their
weight decompositions, Monte Carlo checks of generic intersection/projection
dimension bounds, Brascamp-Lieb feasibility and constant estimation,
discretized covering/energy/projection experiments, and a small-values search
for indefinite quadratic forms.
"""

from .qlinalg import (
    Mat,
    Subspace,
    canonicalize,
    nilpotent_exp,
    subspace_intersect,
    subspace_sum,
)
from .reps import (
    RepConfig,
    WeightDecomposition,
    build_config,
    check_irreducible,
    check_proximal,
    flag_projector,
    weight_decompose,
)
from .generic import (
    check_intersection_bound,
    check_projection_bound,
    find_spanning_q,
    sample_element,
    submodularity_check,
)
from .brascamp_lieb import (
    BLDatum,
    check_feasibility,
    estimate_bl_constant,
    gaussian_ratio,
)
from .discretized import (
    PointSet,
    covering_number,
    generate_fractal,
    projection_experiment,
    remez_check,
)
from .oppenheim import QuadraticForm, decay_curve, parse_form, search_min_value
from .harness import SuiteConfig, emit_report, run_suite

__all__ = [
    "Mat",
    "Subspace",
    "canonicalize",
    "nilpotent_exp",
    "subspace_intersect",
    "subspace_sum",
    "RepConfig",
    "WeightDecomposition",
    "build_config",
    "check_irreducible",
    "check_proximal",
    "flag_projector",
    "weight_decompose",
    "check_intersection_bound",
    "check_projection_bound",
    "find_spanning_q",
    "sample_element",
    "submodularity_check",
    "BLDatum",
    "check_feasibility",
    "estimate_bl_constant",
    "gaussian_ratio",
    "PointSet",
    "covering_number",
    "generate_fractal",
    "projection_experiment",
    "remez_check",
    "QuadraticForm",
    "decay_curve",
    "parse_form",
    "search_min_value",
    "SuiteConfig",
    "emit_report",
    "run_suite",
]

__version__ = "0.1.0"
