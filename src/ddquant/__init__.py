"""Exact computation with staircase distance distributions.

The package works with finite staircase functions as the canonical exact
representation of distance distributions, composes them by sup-convolution
under a continuous t-norm, residuates that composition, decides
divisibility questions, brackets non-staircase distributions with certified
enclosures, validates (probabilistic) (partial) metric instances, and
cross-checks the algebra against brute-forced finite quantales.
"""

from types import ModuleType as _ModuleType

from .axis import INF, ONE, ZERO, Time, format_scalar, parse_scalar, plus_implies
from .diagonals import (
    diagonal_compose,
    find_nondiagonal_below,
    flat_criterion_min,
    is_diagonal_between,
    is_divisible_by,
)
from .enclosure import (
    Certificate,
    Enclosure,
    PiecewiseLinear,
    bound_convolve,
    bracket,
    certify_not_divisible,
    divisibility_upper_bound,
    parse_linear,
)
from .errors import (
    DdqError,
    DomainError,
    ParseError,
    PreconditionError,
    SearchExhausted,
)
from .expressions import evaluate, parse_expression, to_text
from .finiteq import (
    FiniteQuantale,
    check_downset_equality,
    diag_homset,
    drastic_chain,
    lukasiewicz_chain,
    residuate,
    validate_quantale,
    verify_quantaloid_laws,
)
from .metrics import (
    ParMetInstance,
    ProbParMetInstance,
    Report,
    SlicedMetInstance,
    Violation,
    coreflect,
    globalize_backward,
    globalize_forward,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parmet_to_slice,
    slice_to_parmet,
    validate_met,
    validate_parmet,
    validate_probmet,
    validate_probparmet,
    validate_slice,
)
from .quantale import (
    convolve,
    convolve_monotone,
    implication,
    residual,
    step_implication,
    vertical_distance,
    vertical_distance_grid,
    vertical_distance_sup_below,
)
from .staircase import (
    BOTTOM,
    TOP,
    MonotoneStep,
    Staircase,
    envelope,
    format_staircase,
    join_all,
    meet_all,
    one_step,
    parse_staircase,
)
from .tnorms import LUK, MIN, PROD, Piece, TNorm, format_tnorm, parse_tnorm

__version__ = "0.1.0"

# The public surface: what the imports above bind, bar submodules, and the version.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
