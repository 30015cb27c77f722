"""The public names of the package and the scalars they accept."""

import pickle

import pytest

import ddquant
from ddquant.axis import ensure_time, ensure_unit


def test_public_names_are_pinned():
    assert sorted(ddquant.__all__) == [
        "BOTTOM", "Certificate", "DdqError", "DomainError", "Enclosure",
        "FiniteQuantale", "INF", "LUK", "MIN", "MonotoneStep", "ONE", "PROD",
        "ParMetInstance", "ParseError", "Piece", "PiecewiseLinear",
        "PreconditionError", "ProbParMetInstance", "Report", "SearchExhausted",
        "SlicedMetInstance", "Staircase", "TNorm", "TOP", "Time", "Violation",
        "ZERO", "__version__", "bound_convolve", "bracket",
        "certify_not_divisible", "check_downset_equality", "convolve",
        "convolve_monotone", "coreflect", "diag_homset", "diagonal_compose",
        "divisibility_upper_bound", "drastic_chain", "envelope", "evaluate",
        "find_nondiagonal_below", "flat_criterion_min", "format_scalar",
        "format_staircase", "format_tnorm", "globalize_backward",
        "globalize_forward", "implication", "instance_from_dict",
        "instance_to_dict", "is_diagonal_between", "is_divisible_by",
        "join_all", "load_instance", "lukasiewicz_chain", "meet_all",
        "one_step", "parmet_to_slice", "parse_expression", "parse_linear",
        "parse_scalar", "parse_staircase", "parse_tnorm", "plus_implies",
        "residual", "residuate", "slice_to_parmet", "step_implication",
        "to_text", "validate_met", "validate_parmet", "validate_probmet",
        "validate_probparmet", "validate_quantale", "validate_slice",
        "verify_quantaloid_laws", "vertical_distance", "vertical_distance_grid",
        "vertical_distance_sup_below",
    ]
    assert all(hasattr(ddquant, name) for name in ddquant.__all__)


# Every entry point that takes a scalar, each fed the bad value in the
# position of one scalar.
_SCALAR_ENTRY_POINTS = {
    "ensure_time": lambda x: ensure_time(x),
    "ensure_unit": lambda x: ensure_unit(x),
    "Staircase-jump": lambda x: ddquant.Staircase(((x, 1),)),
    "Staircase-level": lambda x: ddquant.Staircase(((0, x),)),
    "one_step-jump": lambda x: ddquant.one_step(x, 1),
    "one_step-level": lambda x: ddquant.one_step(0, x),
    "step_implication": lambda x: ddquant.step_implication(ddquant.MIN, 0, x, ddquant.TOP),
    "Piece": lambda x: ddquant.Piece(x, 1, "prod"),
    "PiecewiseLinear": lambda x: ddquant.PiecewiseLinear(((0, 0), (x, 1))),
    "MonotoneStep": lambda x: ddquant.MonotoneStep((0,), (x,), (x,)),
    "Staircase.__call__": lambda x: ddquant.TOP(x),
    "Staircase.value_after": lambda x: ddquant.TOP.value_after(x),
    "Staircase.flat": lambda x: ddquant.TOP.flat(x),
    "MonotoneStep.__call__": lambda x: ddquant.MonotoneStep.constant(1)(x),
    "PiecewiseLinear.__call__": lambda x: ddquant.PiecewiseLinear(((0, 0), (1, 1)))(x),
}


@pytest.mark.parametrize("bad", ["1e1000000", "1/2", 0.5, None])
@pytest.mark.parametrize("entry", list(_SCALAR_ENTRY_POINTS))
def test_api_scalars_are_int_or_fraction(entry, bad):
    """Text goes through parse_scalar; an API scalar of another type is a
    DomainError naming the type, and a long numeric string is never read."""
    with pytest.raises(ddquant.DomainError, match=f"got {type(bad).__name__}$"):
        _SCALAR_ENTRY_POINTS[entry](bad)


def test_infinity_survives_pickling():
    # INF is compared by identity, so a copy must come back as INF itself
    assert pickle.loads(pickle.dumps(ddquant.INF)) is ddquant.INF
