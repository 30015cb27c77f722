"""Command-line interface: golden outputs, exit codes, error paths."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddquant import bracket, cli, finiteq, metrics, parse_linear, quantale
from ddquant.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text()


# ---------------------------------------------------------------------------
# eval

def test_eval_golden(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--tnorm", "prod", "conv(step(1,1/2),step(2,1/3))"
    )
    assert code == 0
    assert out == golden("eval_conv_prod.txt")
    assert err == ""


def test_eval_golden_join_mixed(capsys):
    # Unreduced literals and step(...) terms joined across denominators.
    code, out, err = run_cli(
        capsys,
        "eval",
        "join(steps[(2/6,1/4),(3/2,6/8)],steps[(1/2,4/6)],step(5/6,1),step(1,1/2))",
    )
    assert code == 0
    assert out == golden("eval_join_mixed.txt")
    assert err == ""


def test_eval_golden_conv_ordinal(capsys):
    # 49 candidate pairs, above the numpy cutoff, meeting both pieces of
    # the ordinal sum and the min region between and below them.
    code, out, err = run_cli(
        capsys,
        "eval",
        "--tnorm",
        "ordinal[(2/10,6/10,prod),(7/10,1,luk)]",
        "conv(steps[(0,1/10),(1/3,3/10),(1/2,2/5),(1,1/2),(3/2,13/20),(2,3/4),(5/2,9/10)],"
        "steps[(1/4,1/5),(1/2,1/4),(3/4,9/20),(1,3/5),(2,7/10),(3,4/5),(4,1)])",
    )
    assert code == 0
    assert out == golden("eval_conv_ordinal.txt")
    assert err == ""


def test_eval_golden_conv_ordinal_touching(capsys, monkeypatch):
    # 49 candidate pairs on the numpy kernel, under an ordinal sum whose
    # pieces touch at 1/2, a level both factors hold.
    kernels = []
    fast = quantale._convolve_fast
    monkeypatch.setattr(quantale, "_convolve_fast", lambda s: kernels.append(s) or fast(s))
    code, out, err = run_cli(
        capsys,
        "eval",
        "--tnorm",
        "ordinal[(0,1/2,luk),(1/2,1,prod)]",
        "conv(steps[(0,1/6),(1/2,1/4),(1,1/3),(3/2,1/2),(2,2/3),(5/2,3/4),(3,1)],"
        "steps[(1/4,1/8),(1/3,1/4),(1,1/2),(4/3,7/12),(2,3/4),(7/3,5/6),(4,1)])",
    )
    assert code == 0
    assert out == golden("eval_conv_ordinal_touching.txt")
    assert err == ""
    assert len(kernels) == 1


def test_eval_golden_conv_gapped(capsys, monkeypatch):
    # 49 candidate pairs on the numpy kernel, under an ordinal sum with min
    # below, between and above its pieces: levels lie in all five regions.
    kernels = []
    fast = quantale._convolve_fast
    monkeypatch.setattr(quantale, "_convolve_fast", lambda s: kernels.append(s) or fast(s))
    code, out, err = run_cli(
        capsys,
        "eval",
        "--tnorm",
        "ordinal[(1/5,2/5,luk),(3/5,4/5,prod)]",
        "conv(steps[(0,1/10),(1/2,3/10),(1,1/2),(3/2,7/10),(2,17/20),(5/2,9/10),(3,1)],"
        "steps[(1/4,3/20),(3/4,1/4),(5/4,9/20),(7/4,13/20),(9/4,3/4),(11/4,19/20),(4,1)])",
    )
    assert code == 0
    assert out == golden("eval_conv_gapped.txt")
    assert err == ""
    assert len(kernels) == 1


def test_eval_golden_all_ops_ordinal(capsys):
    # Every operation and literal kind once, under an ordinal sum.
    code, out, err = run_cli(
        capsys,
        "eval",
        "--tnorm",
        "ordinal[(0,1/2,luk),(1/2,1,prod)]",
        "meet(imp(step(1,3/4),steps[(2,1/4),(3,5/8)]),"
        "join(step(0,1/3),conv(step(1,1/2),steps[(1/2,2/3),(2,1)])))",
    )
    assert code == 0
    assert out == golden("eval_all_ops_ordinal.txt")
    assert err == ""


def test_eval_golden_spaced_literals(capsys):
    # Spaced, unreduced and empty staircase literals inside every operation.
    code, out, err = run_cli(
        capsys,
        "eval",
        "--tnorm",
        "prod",
        "meet( join( steps[ ( 2/6 , 1/4 ) , (3/2,6/8) ], steps[ ] ), "
        "conv( steps [(1/2 ,4/6), ( 4/4, 10/10 )] , "
        "imp( steps[ (1, 3/4) ], steps[(0 ,1/2 ),( 2,1)] ) ) )",
    )
    assert code == 0
    assert out == golden("eval_spaced_prod.txt")
    assert err == ""


def test_eval_default_tnorm_is_min(capsys):
    code, out, _ = run_cli(capsys, "eval", "conv(step(1,1/2),step(2,1/3))")
    assert code == 0
    assert out == "steps[(3,1/3)]\n"


def test_eval_accepts_ordinal_sum(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--tnorm",
        "ordinal[(1/5,3/5,prod),(7/10,1,luk)]",
        "conv(step(1/4,1/2),step(0,2/5))",
    )
    assert code == 0
    assert out == "steps[(1/4,7/20)]\n"


# ---------------------------------------------------------------------------
# diag

def test_diag_golden_not_divisible(capsys):
    code, out, _ = run_cli(
        capsys,
        "diag",
        "--tnorm",
        "min",
        "--xi",
        "step(1,1)",
        "--phi",
        "join(step(0,1/2),step(1,1))",
    )
    assert code == 1
    assert out == golden("diag_min.txt")


def test_diag_golden_ordinal_unreduced_literals(capsys):
    # Literals spelled with unreduced fractions, under an ordinal sum.
    code, out, _ = run_cli(
        capsys,
        "diag",
        "--tnorm",
        "ordinal[(0,1/2,luk),(1/2,1,prod)]",
        "--xi",
        "steps[(1/3,2/10),(4/6,6/10),(5/2,1)]",
        "--phi",
        "steps[(0/7,2/4),(3/9,9/9)]",
    )
    assert code == 1
    assert out == golden("diag_ordinal_mixed.txt")


# Two diags of 8-step phis and 60-step-plus xis: their implication has
# 480 or more step pairs, past the Python-int kernel's cutoff.
WIDE_PROD_PHI = "steps[(0,1/8),(1/2,3/16),(3/4,5/16),(5/4,3/8),(5/2,5/8),(3,3/4),(7/2,7/8),(9/2,1)]"
WIDE_PROD_XI = (
    "steps[(5,1/480),(11/2,1/320),(17/3,1/240),(23/4,1/192),(37/6,1/160),(77/12,1/96),(83/12,1/80),(97/12,1/64),(49/6,1/48),(26/3,1/40),(109/12,5/192),(55/6,7/240),(115/12,1/32),(61/6,1/30),(31/3,3/80),(65/6,5/96),(34/3,1/16),(71/6,7/96),(77/6,1/12),(83/6,7/80),(89/6,1/10),(50/3,9/80),(101/6,7/60),(103/6,21/160),(107/6,2/15),(109/6,3/20),(39/2,1/6),(125/6,11/60),(137/6,91/480),(139/6,1/5),(143/6,13/60),(51/2,7/32),(157/6,7/30),(53/2,1/4),(55/2,4/15),(167/6,17/60),(175/6,7/24),(181/6,1/3),(187/6,7/20),(193/6,11/30),(65/2,63/160),(197/6,203/480),(67/2,9/20),(203/6,29/60),(217/6,31/60),(221/6,8/15),(223/6,11/20),(229/6,17/30),(239/6,7/12),(81/2,3/5),(259/6,19/30),(265/6,2/3),(269/6,41/60),(95/2,7/10),(295/6,3/4),(317/6,4/5),(109/2,5/6),(341/6,13/15),(353/6,11/12),(361/6,19/20),(365/6,29/30),(137/2,59/60),(415/6,1)]"
)
WIDE_ORDINAL_PHI = "steps[(4/3,1/20),(3,1/10),(14/3,7/20),(6,1/2),(20/3,3/5),(22/3,7/10),(25/3,3/4),(29/3,19/20)]"
WIDE_ORDINAL_XI = (
    "steps[(2/3,1/120),(2,1/60),(8/3,1/24),(25/6,1/20),(26/3,3/40),(59/6,11/120),(31/3,1/10),(11,13/120),(12,2/15),(38/3,19/120),(103/6,1/6),(19,1/5),(39/2,5/24),(64/3,13/60),(22,4/15),(137/6,17/60),(25,7/24),(157/6,19/60),(203/6,41/120),(205/6,3/8),(215/6,23/60),(217/6,47/120),(73/2,2/5),(221/6,53/120),(233/6,11/24),(39,7/15),(40,19/40),(245/6,29/60),(41,59/120),(125/3,1/2),(251/6,61/120),(85/2,31/60),(128/3,21/40),(259/6,8/15),(131/3,11/20),(265/6,7/12),(89/2,3/5),(134/3,5/8),(93/2,19/30),(140/3,79/120),(283/6,41/60),(143/3,7/10),(48,17/24),(49,89/120),(305/6,23/30),(307/6,19/24),(53,33/40),(160/3,101/120),(331/6,103/120),(335/6,13/15),(57,53/60),(343/6,11/12),(115/2,14/15),(119/2,113/120),(179/3,23/24),(60,29/30),(365/6,39/40),(367/6,59/60),(64,119/120),(196/3,1)]"
)


def test_diag_golden_wide_divisible(capsys):
    code, out, _ = run_cli(capsys, "diag", "--tnorm", "prod", "--xi", WIDE_PROD_XI, "--phi", WIDE_PROD_PHI)
    assert code == 0
    assert out == golden("diag_prod_wide.txt")


def test_diag_golden_wide_not_divisible(capsys):
    code, out, _ = run_cli(
        capsys,
        "diag",
        "--tnorm",
        "ordinal[(0,1/2,luk),(1/2,1,prod)]",
        "--xi",
        WIDE_ORDINAL_XI,
        "--phi",
        WIDE_ORDINAL_PHI,
    )
    assert code == 1
    assert out == golden("diag_ordinal_wide.txt")


# A prime ladder under prod: the antecedent levels (p - 1)/p put ld * d
# past the int64 guard, so the implication's 9 x 8 step pairs take the
# numpy kernel on object arrays.
PRIME_PHI = "steps[(0/3,1/2),(1/3,2/3),(2/3,4/5),(3/3,6/7),(4/3,10/11),(5/3,12/13),(6/3,16/17),(7/3,18/19),(8/3,22/23)]"
PRIME_XI = "steps[(1/2,1/8),(2/2,2/8),(3/2,3/8),(4/2,4/8),(5/2,5/8),(6/2,6/8),(7/2,7/8),(8/2,8/8)]"


def test_diag_golden_prime_ladder(capsys):
    code, out, _ = run_cli(capsys, "diag", "--tnorm", "prod", "--xi", PRIME_XI, "--phi", PRIME_PHI)
    assert code == 1
    assert out == golden("diag_prod_primes.txt")


# A luk diag of an 8-step phi and a 10-step xi spelled unreduced and spaced:
# each literal is one body lexeme, both kernels take numpy, and their
# candidates meet zero values and ties at equal positions.
SPACED_LUK_PHI = "steps [ ( 0/4, 1/16 ) , (3/4 ,4/16) , ( 4/4, 5/16 ) , (5/4 ,7/16) , ( 7/4, 8/16 ) , (8/4 ,9/16) , ( 9/4, 13/16 ) , (11/4 ,15/16) ]"
SPACED_LUK_XI = "steps[(12/4 , 2/64), (13/4,11/32), (14/4,15/32),(23/4 , 36/64), (24/4,20/32), (27/4,26/32),(32/4 , 54/64), (33/4,29/32), (36/4,31/32),(37/4 , 64/64)]"


def test_diag_golden_spaced_luk(capsys):
    code, out, _ = run_cli(capsys, "diag", "--tnorm", "luk", "--xi", SPACED_LUK_XI, "--phi", SPACED_LUK_PHI)
    assert code == 1
    assert out == golden("diag_luk_spaced.txt")


def test_diag_divisible_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "diag", "--xi", "step(1,1/2)", "--phi", "step(0,1/2)"
    )
    assert code == 0
    assert out.splitlines() == ["divisible", "residual steps[(1,1/2)]"]


# ---------------------------------------------------------------------------
# validate

def test_validate_two_point_golden(capsys):
    code, out, _ = run_cli(
        capsys, "validate", str(DATA / "two_point_instance.json")
    )
    assert code == 0
    assert out == golden("validate_two_point.txt")


def test_validate_bad_probparmet_golden(capsys):
    # one-step and multi-step self-distances: both ProbPM1 paths and the
    # ProbPM2 composites printed only for a violation
    code, out, _ = run_cli(
        capsys, "validate", str(DATA / "bad_probparmet_instance.json")
    )
    assert code == 1
    assert out == golden("validate_bad_probparmet.txt")


def test_validate_ordinal_probparmet_golden(capsys):
    # ProbPM2 violations under an ordinal sum, in (i, j, k) order: the
    # staircase batch decides every triple
    code, out, _ = run_cli(
        capsys, "validate", str(DATA / "ordinal_probparmet_instance.json")
    )
    assert code == 1
    assert out == golden("validate_ordinal_probparmet.txt")


def test_validate_coprime_probparmet_golden(capsys):
    # 6 points under prod, each entry with its own prime jump and level
    # denominators: one scale of all of them decides every triple
    code, out, _ = run_cli(
        capsys, "validate", str(DATA / "coprime_probparmet_instance.json")
    )
    assert code == 1
    assert out == golden("validate_coprime_probparmet.txt")


def test_validate_sixteen_point_probparmet_golden(capsys):
    # 16 points under prod with 10-step entries, one delayed past every
    # composite as in the benchmark's perturbed slots: the batch's step
    # pairs span several slices, and only the delayed entry's triangles fail
    code, out, _ = run_cli(
        capsys, "validate", str(DATA / "sixteen_point_probparmet_instance.json")
    )
    assert code == 1
    assert out == golden("validate_sixteen_point_probparmet.txt")


@pytest.mark.parametrize("kind,name", [
    ((), "validate_symmetric_prod.txt"),
    (("--kind", "probmet"), "validate_symmetric_prod_probmet.txt"),
])
def test_validate_symmetric_prod_golden(capsys, kind, name):
    # a symmetric instance under prod: its six violations come in three
    # mirrored pairs, (i, j, k) and (k, j, i), which are one check
    code, out, _ = run_cli(
        capsys, "validate", *kind, str(DATA / "symmetric_prod_instance.json")
    )
    assert code == 1
    assert out == golden(name)


def test_validate_bad_parmet_golden(capsys):
    # the numeric track: the generic batch decides every PM2 triple
    code, out, _ = run_cli(capsys, "validate", str(DATA / "bad_parmet_instance.json"))
    assert code == 1
    assert out == golden("validate_bad_parmet.txt")


def test_validate_numeric_instance(capsys):
    code, out, _ = run_cli(capsys, "validate", str(DATA / "parmet_instance.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "parmet"
    assert payload["ok"] is True


def test_validate_invalid_instance_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "validate", str(DATA / "bad_parmet_instance.json")
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any(v["axiom"] == "PM1" for v in payload["violations"])


def test_validate_kind_override(capsys):
    # forcing the plain-metric validator surfaces the nonzero diagonal
    code, out, _ = run_cli(
        capsys, "validate", "--kind", "met", str(DATA / "parmet_instance.json")
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "met"
    assert any(v["axiom"] == "M1" for v in payload["violations"])


def test_validate_kind_track_mismatch(capsys):
    code, out, err = run_cli(
        capsys, "validate", "--kind", "met", str(DATA / "two_point_instance.json")
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# certify

def test_certify_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--tnorm",
        "min",
        "--xi",
        "step(1,1)",
        "--phi",
        "linear[(0,0),(1,1)]",
        "--resolution",
        "128",
    )
    assert code == 1
    assert out == golden("certify_ramp_min.txt")


def test_certify_golden_prod_unreduced_literals(capsys):
    # Knots and target spelled with unreduced fractions, cell ends on
    # denominators that the knots do not share.
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--tnorm",
        "prod",
        "--xi",
        "steps[(6/4,14/20)]",
        "--phi",
        "linear[(0,0),(2/3,1/4),(7/5,1)]",
        "--resolution",
        "12",
    )
    assert code == 1
    assert out == golden("certify_prod_mixed.txt")


def test_certify_golden_spaced_literals(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--tnorm",
        "luk",
        "--xi",
        "steps[ (3/2 , 9/10) ]",
        "--phi",
        "linear [ ( 0 , 0 ) , (2/4, 1/3 ), ( 6/3,1) ]",
        "--resolution",
        "24",
    )
    assert code == 1
    assert out == golden("certify_spaced_luk.txt")


def test_certify_golden_luk_floor(capsys):
    # A one-step target under luk: the implication of each bracket into it
    # meets the floors a -> 0 = 1 - a of its many levels below the jump.
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--tnorm",
        "luk",
        "--xi",
        "steps[(5/4,35/64)]",
        "--phi",
        "linear[(0,0),(7/2,1)]",
        "--resolution",
        "1024",
    )
    assert code == 1
    assert out == golden("certify_luk_floor.txt")


def test_certify_inconclusive_exits_two(capsys):
    # a target at the upper bracket cannot be separated from the map
    upper = bracket(parse_linear("linear[(0,0),(1,1)]"), 8).upper
    code, out, _ = run_cli(
        capsys,
        "certify",
        "--xi",
        str(upper),
        "--phi",
        "linear[(0,0),(1,1)]",
        "--resolution",
        "8",
    )
    assert code == 2
    assert out == "inconclusive\n"


def test_certify_requires_linear_phi(capsys):
    code, _, err = run_cli(
        capsys, "certify", "--xi", "step(1,1)", "--phi", "step(1,1)"
    )
    assert code == 2
    assert "linear" in err


# ---------------------------------------------------------------------------
# quantale-check

def test_quantale_check_fully_divisible_chain(capsys):
    code, out, _ = run_cli(
        capsys, "quantale-check", str(DATA / "luk3_quantale.json")
    )
    assert code == 0
    assert out == golden("quantale_check_luk3.txt")
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["quantaloid_ok"] is True
    assert payload["divisible"] is True
    assert payload["downsets_equal"] is True
    assert payload["mismatched_pairs"] == []


def test_quantale_check_drastic_chain(capsys):
    code, out, _ = run_cli(
        capsys, "quantale-check", str(DATA / "drastic_quantale.json")
    )
    assert code == 0
    assert out == golden("quantale_check_drastic.txt")
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["quantaloid_ok"] is True
    assert payload["divisible"] is False
    assert payload["downsets_equal"] is False
    assert ["a", "b"] in payload["mismatched_pairs"]


def test_quantale_check_drastic_five_chain(capsys):
    # 0 < a < b < c < 1: only 0 and p itself are diagonals on an inner p
    code, out, _ = run_cli(
        capsys, "quantale-check", str(DATA / "drastic5_quantale.json")
    )
    assert code == 0
    assert out == golden("quantale_check_drastic5.txt")
    payload = json.loads(out)
    assert payload["quantaloid_ok"] is True
    assert payload["divisible"] is False
    assert len(payload["mismatched_pairs"]) == 12


def test_quantale_check_boolean_square(capsys):
    # the first table that is not a chain: 0 < a, b < 1 with meet as
    # product, its elements listed out of order; a frame, so divisible
    code, out, err = run_cli(
        capsys, "quantale-check", str(DATA / "square_quantale.json")
    )
    assert code == 0 and err == ""
    assert out == golden("quantale_check_square.txt")
    payload = json.loads(out)
    assert payload["valid"] is True and payload["quantaloid_ok"] is True
    assert payload["divisible"] is True and payload["downsets_equal"] is True
    assert payload["hom_join_gaps"] == []


def test_quantale_check_cube_at_the_element_cap(capsys):
    # the Boolean lattice 2 x 2 x 2 with meet as product: a frame of
    # _MAX_ELEMENTS elements, listed out of order, so divisible
    code, out, err = run_cli(
        capsys, "quantale-check", str(DATA / "cube8_quantale.json")
    )
    assert code == 0 and err == ""
    assert out == golden("quantale_check_cube8.txt")
    table = json.loads((DATA / "cube8_quantale.json").read_text(encoding="utf-8"))
    assert len(table["elements"]) == finiteq._MAX_ELEMENTS


def test_quantale_check_broken_table_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "quantale-check", str(DATA / "broken_quantale.json")
    )
    assert code == 1
    assert out == golden("quantale_check_broken.txt")
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["problems"]


def test_quantale_check_non_lattice_table_exits_one(capsys):
    # x and y lie below t and have no meet, so there is no bottom either
    code, out, err = run_cli(
        capsys, "quantale-check", str(DATA / "nonlattice_quantale.json")
    )
    assert code == 1
    assert out == golden("quantale_check_nonlattice.txt")
    assert err == ""


# ---------------------------------------------------------------------------
# export-samples

def test_export_samples_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "export-samples",
        "--tnorm",
        "min",
        "--grid",
        "4",
        "join(step(1,1/2),step(2,1))",
    )
    assert code == 0
    assert out == golden("export_samples_min.csv")


def test_export_samples_to_file(capsys, tmp_path):
    target = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys,
        "export-samples",
        "--tnorm",
        "min",
        "--grid",
        "4",
        "-o",
        str(target),
        "join(step(1,1/2),step(2,1))",
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == golden("export_samples_min.csv")


def test_export_samples_to_unwritable_path_exits_two(capsys, tmp_path):
    target = tmp_path / "no-such-dir" / "samples.csv"
    code, out, err = run_cli(capsys, "export-samples", "-o", str(target), "step(1,1)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_export_samples_deterministic(capsys):
    argv = ("export-samples", "--grid", "7", "join(step(1/3,1/2),step(2,5/6))")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_export_samples_of_bottom(capsys):
    code, out, _ = run_cli(capsys, "export-samples", "--grid", "2", "steps[]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,value"
    assert lines[-1] == "inf,0"
    assert all(line.endswith(",0") for line in lines[1:])


# ---------------------------------------------------------------------------
# error paths

def test_parse_error_exits_two(capsys):
    code, out, err = run_cli(capsys, "eval", "conv(step(1,1))")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "conv takes exactly 2" in err


def test_domain_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "eval", "step(inf,1)")
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("level", ["3", "inf"])
def test_step_level_above_one_names_its_column(capsys, level):
    code, out, err = run_cli(capsys, "eval", f"join(step(0,1),step(1,{level}))")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("(column 16)\n")


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "validate", str(DATA / "no_such_file.json"))
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_input_files_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    # Labels outside ASCII, read by a process whose locale encoding is ASCII.
    instance = json.loads((DATA / "two_point_instance.json").read_text(encoding="utf-8"))
    instance["points"] = ["café", "y"]
    table = json.loads((DATA / "luk3_quantale.json").read_text(encoding="utf-8"))
    table = json.loads(json.dumps(table).replace('"1/2"', '"½"'))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0")
    for command, data, name in [
        ("validate", instance, "validate_two_point.txt"),
        ("quantale-check", table, "quantale_check_luk3.txt"),
    ]:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "ddquant", command, str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden(name), "")


def test_bad_resolution_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "export-samples", "--grid", "0", "step(1,1)"
    )
    assert code == 2
    assert err == "error: --grid must be at least 1\n"


def test_unknown_tnorm_exits_two(capsys):
    code, _, err = run_cli(capsys, "eval", "--tnorm", "frobnicate", "step(1,1)")
    assert code == 2
    assert err.startswith("error:")


def test_internal_error_exits_two_with_one_line(capsys, monkeypatch):
    def broken(ns):
        raise RuntimeError("kernel fault\non two lines")

    monkeypatch.setitem(cli._DISPATCH, "eval", broken)
    code, out, err = run_cli(capsys, "eval", "step(1,1)")
    assert code == 2
    assert out == ""
    assert err == "error: internal error: RuntimeError: kernel fault on two lines\n"


# ---------------------------------------------------------------------------
# one parser per process

def test_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    run_cli(capsys, "eval", "step(1,1)")
    run_cli(capsys, "diag", "--xi", "step(1,1)", "--phi", "step(0,1)")
    run_cli(capsys, "quantale-check", str(DATA / "luk3_quantale.json"))
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_import_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ddquant.cli; print(ddquant.cli.build_parser.cache_info().misses)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n"


# Subcommands that share a dest with different defaults (export-samples'
# --grid and certify's --resolution), an option given then left out, and an
# argument error followed by a valid job: a reused parser must carry nothing
# from one job to the next.
_SEQUENCE = [
    ["export-samples", "join(step(1,1/2),step(2,1))"],
    ["certify", "--xi", "step(1,1)", "--phi", "linear[(0,0),(1,1)]"],
    ["validate", "--kind", "met", str(DATA / "parmet_instance.json")],
    ["validate", str(DATA / "parmet_instance.json")],
    ["diag", "--phi", "step(1,1)"],
    ["eval", "conv(step(1,1/2),step(2,1/3))"],
]


def test_reused_parser_matches_fresh_processes(capsys):
    fresh = {}
    for argv in _SEQUENCE:
        proc = subprocess.run(
            [sys.executable, "-m", "ddquant", *argv], capture_output=True, text=True
        )
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    assert [fresh[tuple(argv)][0] for argv in _SEQUENCE] == [0, 1, 1, 0, 2, 0]
    for argv in _SEQUENCE * 2:  # the second pass runs export-samples after certify
        assert run_cli(capsys, *argv) == fresh[tuple(argv)], argv


def test_argument_errors_and_help_return_their_codes(capsys):
    code, out, err = run_cli(capsys, "diag", "--phi", "step(1,1)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: ddquant")
    assert err == ""


# ---------------------------------------------------------------------------
# the CI workflow's console-script step

def test_workflow_checks_every_golden_once():
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    checked = [
        words[2] for words in map(str.split, workflow.read_text().splitlines())
        if words[:1] == ["check"] and words[1].isdigit()
    ]
    assert sorted(checked) == sorted(path.name for path in GOLDEN.iterdir())


# ---------------------------------------------------------------------------
# process-level entry point

def test_module_entry_point_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "ddquant", "eval", "--tnorm", "prod",
         "conv(step(1,1/2),step(2,1/3))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden("eval_conv_prod.txt")


def test_module_entry_point_propagates_failure_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ddquant", "diag", "--xi", "step(1,1)",
         "--phi", "join(step(0,1/2),step(1,1))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == golden("diag_min.txt")


# A reader that is gone before the first write: the write fails whether
# stdout is block-buffered or not, and the run still ends in exit 2, not in
# the interpreter's 120 after a failed last flush or in the 1 of an escaped
# BrokenPipeError.  argparse's own writes, an argument error's message and
# the --help text, end the same way.
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ["eval", "steps[(1,1)]"],
    ["diag", "--xi", "step(1,1)", "--phi", "join(step(0,1/2),step(1,1))"],
    ["eval", "steps[(1,"],
    ["eval"],
    ["--help"],
])
def test_closed_output_pipe_exits_two(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ddquant", *argv], stdout=write, stderr=write,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert proc.returncode == 2


# The JSON reports are written as they are encoded, chunk by chunk; a
# reader that is gone still ends the run in exit 2 with one error line.
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ["validate", str(DATA / "sixteen_point_probparmet_instance.json")],
    ["quantale-check", str(DATA / "cube8_quantale.json")],
])
def test_report_to_closed_pipe_exits_two_with_one_error_line(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ddquant", *argv], stdout=write, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


# Valid JSON of the wrong shape, JSON nested past the decoder's recursion
# limit, an instance one point past the points budget, and an expression
# nested past the parser's budget: each must end in exit 2 with one error
# line, never a traceback.  Each file goes to the command named with it.
_DEEP_JSON = "[" * 100_000
_OVER_POINTS = metrics._MAX_POINTS + 1
_MALFORMED = {
    "integer-distances": ("validate", '{"points": ["x", "y"], "tnorm": "min", "dist": [[0, 1], [1, 0]]}'),
    "scalar-dist": ("validate", '{"points": ["x"], "dist": 5}'),
    "top-level-list": ("validate", '[{"points": ["x"], "dist": [["0"]]}]'),
    "null-entries": ("validate", '{"points": ["x", "y"], "dist": [[null, "1"], ["1", null]]}'),
    "quantale-top-level-list": ("quantale-check", '[{"elements": ["a"], "leq": [[1]], "mult": [["a"]], "unit": "a"}]'),
    "quantale-scalar-elements": ("quantale-check", '{"elements": 5, "leq": [[1]], "mult": [["a"]], "unit": "a"}'),
    "quantale-empty-carrier": ("quantale-check", '{"elements": [], "leq": [], "mult": [], "unit": "a"}'),
    "quantale-unit-not-string": ("quantale-check", '{"elements": ["a"], "leq": [[1]], "mult": [["a"]], "unit": 5}'),
    "deep-json-validate": ("validate", _DEEP_JSON),
    "deep-json-quantale-check": ("quantale-check", _DEEP_JSON),
    "staircase-entry-missing-comma": ("validate", '{"points": ["x"], "tnorm": "min", "dist": [["steps[(1,1/2)(2,1)]"]]}'),
    "staircase-entry-off-diagonal": (
        "validate",
        '{"points": ["x", "y"], "tnorm": "min", "dist": [["steps[(0,1)]", "steps[(1,1/2)(2,1)]"], ["steps[(1,1)]", "steps[(0,1)]"]]}',
    ),
    "instance-tnorm-doubled-comma": (
        "validate",
        '{"points": ["x"], "tnorm": "ordinal[(0,1/2,prod),,(1/2,1,luk)]", "dist": [["steps[(0,1)]"]]}',
    ),
    "numeric-entry-exponent": ("validate", '{"points": ["x"], "dist": [["1e400"]]}'),
    "instance-points-over-budget": (
        "validate",
        json.dumps({"points": [f"p{i}" for i in range(_OVER_POINTS)], "dist": [["0"] * _OVER_POINTS] * _OVER_POINTS}),
    ),
}

# Argument errors: a removed flag, an unknown subcommand, a missing option.
_BAD_ARGS = {
    "removed-seed-flag": ["eval", "--seed", "1", "step(1,1)"],
    "unknown-subcommand": ["bogus"],
    "diag-without-xi": ["diag", "--phi", "step(1,1)"],
}

# Literals outside the one scalar grammar, given on the command line.
_BAD_LITERALS = {
    "eval-zero-denominator": ["eval", "step(1/0,1)"],
    "diag-zero-denominator": ["diag", "--xi", "steps[(1/0,1)]", "--phi", "step(0,1)"],
    "tnorm-doubled-comma": ["eval", "--tnorm", "ordinal[(0,1/2,prod),,(1/2,1,luk)]", "step(1,1)"],
}

# Sizes past the resource budgets, which turn them away before any work.  A
# grid or resolution past its cap would run for minutes and hold gigabytes.
# The two 2100-step literals give one convolution 4,410,000 step pairs, just
# over the cap of 2**22; the argument is 67 KB.
_WIDE = "steps[" + ",".join(f"({k},{k}/2100)" for k in range(1, 2101)) + "]"
_OVER_BUDGET = {
    "grid-over-budget": ["export-samples", "--grid", "1000000000", "step(1,1)"],
    "pairs-over-budget": ["eval", f"conv({_WIDE},{_WIDE})"],
    "resolution-over-budget": [
        "certify", "--xi", "step(1,1)", "--phi", "linear[(0,0),(1,1)]", "--resolution", "65537",
    ],
}


# The one error line names where in the instance file the bad literal sits.
_NAMED_PLACE = {
    "staircase-entry-missing-comma": "error: dist[0][0] (x, x): expected ',', got '('",
    "numeric-entry-exponent": "error: dist[0][0] (x, x): ",
    "staircase-entry-off-diagonal": "error: dist[0][1] (x, y): expected ',', got '('",
    "instance-tnorm-doubled-comma": "error: tnorm: expected '(', got ','",
    "quantale-empty-carrier": "error: empty carrier\n",
    "quantale-unit-not-string": "error: quantale field 'unit' must be a string\n",
    "instance-points-over-budget": (
        f"error: instance has {_OVER_POINTS} points; the checks are capped at {_OVER_POINTS - 1}\n"
    ),
    "grid-over-budget": "error: --grid must be at most 65536",
    "resolution-over-budget": "error: --resolution must be at most 65536",
    "pairs-over-budget": "error: 2100 x 2100 step pairs exceed the budget of 4194304\n",
}


@pytest.mark.parametrize(
    "case", [*_MALFORMED, "deep-nesting", *_BAD_ARGS, *_BAD_LITERALS, *_OVER_BUDGET]
)
def test_malformed_input_exits_two_with_one_line(case, tmp_path):
    if case == "deep-nesting":
        argv = ["eval", "conv(" * 3000 + "step(1,1)" + ",step(0,1))" * 3000]
    elif case in _BAD_ARGS:
        argv = _BAD_ARGS[case]
    elif case in _BAD_LITERALS:
        argv = _BAD_LITERALS[case]
    elif case in _OVER_BUDGET:
        argv = _OVER_BUDGET[case]
    else:
        command, text = _MALFORMED[case]
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [command, str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "ddquant", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(_NAMED_PLACE.get(case, "error:"))


@pytest.mark.parametrize("argv", [["--help"], ["diag", "--help"]])
def test_help_prints_usage_and_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ddquant", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ddquant")
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# fuzz: grammar-shaped texts through main, in process

# Rationals as the grammar reads them, most of them in [0, 1] so that many
# texts evaluate.  One scalar in sixteen is bad: a zero or missing
# denominator, inf where a literal needs a rational, a spelling outside the
# grammar, or a 23-digit number.
_GOOD = st.one_of(
    st.integers(0, 3).map(str),
    st.builds("{}/{}".format, st.integers(0, 4), st.integers(1, 4)),
)
_BAD = st.one_of(
    st.sampled_from(["inf", "1/0", "1/", "0.5", "-1", "1e3", "1_0", ""]),
    st.integers(10**22, 10**23 - 1).map(str),
)
_SCALARS = st.integers(0, 15).flatmap(lambda k: _BAD if k == 0 else _GOOD)
_PAIRS = st.lists(st.tuples(_SCALARS, _SCALARS), max_size=3).map(
    lambda ps: "".join(f",({a},{b})" for a, b in ps)
)
# Pairs that rise in both entries, so that literals made of them are valid
# staircases or, after (0,0), valid linear maps.  Three literals in four use
# them.
_RISING = st.lists(st.integers(1, 12), max_size=6, unique=True).map(sorted).map(
    lambda ks: "".join(f",({p}/12,{a}/12)" for p, a in zip(ks[::2], ks[1::2]))
)
_BODIES = st.integers(0, 3).flatmap(lambda k: _PAIRS if k == 0 else _RISING)
_STEPS = _BODIES.map(lambda body: f"steps[{body[1:]}]")
_LINEAR = _BODIES.map(lambda body: f"linear[(0,0){body}]")
_OPERATIONS = st.sampled_from(["join", "meet", "conv", "imp"])
_EXPRS = st.recursive(
    st.one_of(
        st.builds("step({},{})".format, _SCALARS, _SCALARS),
        _STEPS,
        _LINEAR,
        _OPERATIONS.map("{}()".format),  # join(), meet() and two arity errors
    ),
    lambda kids: st.one_of(
        st.builds("{}({})".format, st.sampled_from(["join", "meet"]), kids),
        st.builds("{}({},{})".format, _OPERATIONS, kids, kids),
        st.builds("{}({},{},{})".format, _OPERATIONS, kids, kids, kids),
    ),
    max_leaves=6,
)
# Mostly valid t-norms; one in eight is an unknown name, one in eight an
# ordinal sum of random pieces.
_NAMED = st.sampled_from(["min", "prod", "luk", "ordinal[(0,1/2,luk),(1/2,1,prod)]"])
_ORDINALS = st.lists(
    st.tuples(_SCALARS, _SCALARS, st.sampled_from(["min", "prod", "luk", "nil"])),
    max_size=3,
).map(lambda ps: "ordinal[" + ",".join(f"({a},{b},{k})" for a, b, k in ps) + "]")
_TNORMS = st.integers(0, 7).flatmap(
    lambda k: _ORDINALS if k == 0 else st.just("drastic") if k == 1 else _NAMED
)


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(["eval", "diag", "certify", "export-samples"]))
    argv = [command, "--tnorm", draw(_TNORMS)]
    if command in ("eval", "export-samples"):
        return argv + [draw(_EXPRS)]
    phi = draw(_LINEAR if command == "certify" else _EXPRS)
    return argv + ["--xi", draw(_EXPRS), "--phi", phi]


@settings(deadline=None, max_examples=1000)
@given(_fuzz_argv())
def test_fuzzed_commands_keep_the_exit_contract(argv):
    # capsys is per test, not per example, so each example captures its own
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:  # a definite negative comes with its verdict
        assert out.startswith("not divisible\n") and err == ""
    elif code == 2 and out != "inconclusive\n":  # certify's verdict, no error
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err and "internal error" not in err
    else:
        assert err == ""


# ---------------------------------------------------------------------------
# fuzz: mutated instance and table files through main, in process

# Each mutation starts from a data file that its command reads.  Tables
# keep at most 5 elements, as the exhaustive checks are cubic and worse.
_BASES = {
    "validate": ["two_point_instance.json", "parmet_instance.json", "bad_parmet_instance.json"],
    "quantale-check": ["luk3_quantale.json", "drastic_quantale.json",
                       "drastic5_quantale.json", "broken_quantale.json"],
}
# Strings a file holds: labels, scalars, staircases and t-norms.
_TEXTS = st.sampled_from([
    "0", "1", "a", "b", "c", "x", "y", "1/2", "3", "inf", "", "1e400", "min", "luk",
    "ordinal[(0,1/2,luk)]", "steps[(0,1)]", "steps[(1,1/2),(2,1)]", "steps[(0,1/2)]",
])
_LEAVES = st.one_of(_TEXTS, st.integers(-1, 2), st.none(), st.just([]), st.just({}))


def _slots(node):
    """Every (container, key) below a decoded JSON document."""
    keys = range(len(node)) if isinstance(node, list) else node if isinstance(node, dict) else ()
    for k in list(keys):
        yield node, k
        yield from _slots(node[k])


@st.composite
def _mutated_file(draw):
    """A command and a data file of its, mutated one to three times.  Three
    mutations in four swap a string for a string, half the time one from the
    same file, or an entry of 0/1 for 0/1, so that most files keep their
    shape and reach the checks."""
    command = draw(st.sampled_from(sorted(_BASES)))
    doc = json.loads((DATA / draw(st.sampled_from(_BASES[command]))).read_text())
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        leaves = [(n, k) for n, k in slots if isinstance(n[k], (str, int))]
        if draw(st.integers(0, 3)) and leaves:
            node, key = draw(st.sampled_from(leaves))
            own = sorted({n[k] for n, k in leaves if isinstance(n[k], str)})
            texts = st.one_of(st.sampled_from(own), _TEXTS)
            node[key] = draw(texts if isinstance(node[key], str) else st.integers(0, 1))
            continue
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "copy", "delete", "repeat"]))
        if action == "replace":
            node[key] = draw(_LEAVES)
        elif action == "copy":  # another part of the document, moved here
            other, k = draw(st.sampled_from(slots))
            node[key] = json.loads(json.dumps(other[k]))
        elif action == "delete":
            del node[key]
        elif isinstance(node, list) and len(node) < 5:
            node.insert(key, json.loads(json.dumps(node[key])))
    argv = [command]
    if command == "validate":
        argv += draw(st.sampled_from([[], ["--kind", "met"], ["--kind", "probparmet"]]))
    return argv, json.dumps(doc)


@settings(deadline=None, max_examples=600)
@given(_mutated_file())
def test_fuzzed_files_keep_the_exit_contract(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "internal error" not in err
    else:  # a report, valid or not, and no error
        json.loads(out)
        assert err == ""
