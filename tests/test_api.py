"""The public names of the package."""

import ddquant


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
