"""Command-line interface.

Exit codes follow one contract across commands:

    0  success; for validators, the instance is valid
    1  a definite negative: invalid instance, not divisible, certificate found
    2  inconclusive, any input/parse error, or an internal error

Outputs are deterministic: staircases print in canonical form, reports are
JSON with sorted keys, CSV rows are emitted in a fixed order.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from .axis import format_scalar
from .enclosure import certify_not_divisible
from .errors import DdqError
from .expressions import evaluate, parse_expression
from .finiteq import (
    check_downset_equality,
    load_quantale,
    validate_quantale,
    verify_quantaloid_laws,
)
from .metrics import (
    load_instance,
    validate_met,
    validate_parmet,
    validate_probmet,
    validate_probparmet,
)
from .quantale import residual
from .staircase import Staircase
from .tnorms import parse_tnorm


def _eval_staircase(text: str, tnorm) -> Staircase:
    return evaluate(parse_expression(text), tnorm)


def cmd_eval(ns: argparse.Namespace) -> int:
    t = parse_tnorm(ns.tnorm)
    result = _eval_staircase(ns.expr, t)
    print(result)
    return 0


def cmd_diag(ns: argparse.Namespace) -> int:
    t = parse_tnorm(ns.tnorm)
    xi = _eval_staircase(ns.xi, t)
    phi = _eval_staircase(ns.phi, t)
    fixed = residual(t, xi, phi)
    verdict = fixed == xi  # the definition of diagonals.is_divisible_by
    print("divisible" if verdict else "not divisible")
    print(f"residual {fixed}")
    return 0 if verdict else 1


_VALIDATORS = {
    "met": validate_met,
    "parmet": validate_parmet,
    "probmet": validate_probmet,
    "probparmet": validate_probparmet,
}


def cmd_validate(ns: argparse.Namespace) -> int:
    m = load_instance(ns.path)
    kind = ns.kind or m.track.lower() + "parmet"
    prob = kind.startswith("prob")  # each kind is named after its track
    if prob != bool(m.track):
        raise ValueError(f"{kind} validation needs a {'staircase' if prob else 'numeric'} instance")
    report = _VALIDATORS[kind](m)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def cmd_certify(ns: argparse.Namespace) -> int:
    t = parse_tnorm(ns.tnorm)
    phi_node = parse_expression(ns.phi)
    if phi_node.op != "linear":
        raise ValueError("certify expects --phi to be a linear[...] map")
    xi = _eval_staircase(ns.xi, t)
    cert = certify_not_divisible(t, phi_node.args[0], xi, ns.resolution)
    if cert is None:
        print("inconclusive")
        return 2
    print("not divisible")
    print(f"witness {format_scalar(cert.witness)}")
    print(f"gap {format_scalar(cert.gap)}")
    return 1


def cmd_quantale_check(ns: argparse.Namespace) -> int:
    q = load_quantale(ns.path)
    base = validate_quantale(q)
    if not base.ok:
        print(json.dumps({"valid": False, "problems": list(base.problems)},
                         indent=2, sort_keys=True))
        return 1
    laws = verify_quantaloid_laws(q)
    down = check_downset_equality(q)
    payload = {
        "valid": True,
        "quantaloid_ok": laws.ok,
        "quantaloid_violations": list(laws.violations),
        "hom_join_gaps": list(laws.join_gaps),
        "divisible": down.divisible,
        "downsets_equal": down.equal_everywhere,
        "mismatched_pairs": [list(p) for p in down.mismatched_pairs],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if laws.ok else 1


def cmd_export_samples(ns: argparse.Namespace) -> int:
    t = parse_tnorm(ns.tnorm)
    sc = _eval_staircase(ns.expr, t)
    jumps = list(sc.jumps)
    hi = jumps[-1] if jumps else Fraction(1)
    if hi == 0:
        hi = Fraction(1)
    grid = {Fraction(k) * hi / ns.resolution for k in range(ns.resolution + 1)}
    grid.update(jumps)
    # midpoints expose the open cell between consecutive jumps
    grid.update(
        (a + b) / 2 for a, b in zip(jumps, jumps[1:])
    )
    if jumps:
        grid.add(jumps[-1] + 1)
    sink = contextlib.nullcontext(sys.stdout) if ns.output is None else open(ns.output, "w")
    with sink as stream:
        stream.write("t,value\n")
        for t_ in sorted(grid):
            stream.write(f"{format_scalar(t_)},{format_scalar(sc(t_))}\n")
        stream.write(f"inf,{format_scalar(sc.last_level)}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument errors end like every other input error: one line, exit 2.

    Subparsers are built from the same class, so they inherit this.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")

    def print_help(self, file=None):
        # argparse drops a failed write; this one reaches `main`, so a
        # closed pipe after --help exits 2 whether stdout is buffered or not
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Parsing leaves the parser as it was, so `main` reuses it across calls.
    """
    parser = _Parser(
        prog="ddquant",
        description="exact computation with staircase distance distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tnorm(p):
        p.add_argument("--tnorm", default="min",
                       help="min, prod, luk, or ordinal[(lo,hi,kind),...]")

    p = sub.add_parser("eval", help="print the canonical form of an expression")
    add_tnorm(p)
    p.add_argument("expr")

    p = sub.add_parser("diag", help="decide whether xi is divisible by phi")
    add_tnorm(p)
    p.add_argument("--xi", required=True, help="expression for the candidate diagonal")
    p.add_argument("--phi", required=True, help="expression for the divisor")

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--kind", choices=sorted(_VALIDATORS),
                   help="force a validator; default picks parmet or probparmet "
                        "from the file contents")
    p.add_argument("path")

    p = sub.add_parser("certify",
                       help="certify non-divisibility through an enclosure")
    add_tnorm(p)
    p.add_argument("--xi", required=True)
    p.add_argument("--phi", required=True, help="linear[...] map to bracket")
    p.add_argument("--resolution", type=int, default=128,
                   help="cells per bracketing segment")

    p = sub.add_parser("quantale-check",
                       help="exhaustively check a finite quantale table")
    p.add_argument("path")

    p = sub.add_parser("export-samples", help="sample an expression to CSV")
    add_tnorm(p)
    p.add_argument("--grid", type=int, default=16, dest="resolution",
                   help="uniform grid resolution on top of the breakpoints")
    p.add_argument("-o", "--output", help="write CSV here instead of stdout")
    p.add_argument("expr")

    return parser


_DISPATCH = {
    "eval": cmd_eval,
    "diag": cmd_diag,
    "validate": cmd_validate,
    "certify": cmd_certify,
    "quantale-check": cmd_quantale_check,
    "export-samples": cmd_export_samples,
}


# Largest --resolution and --grid.  export-samples' time and memory grow
# linearly with the grid.  certify's grow faster, with the resolution times
# xi's steps and more; `quantale._MAX_PAIRS` bounds each of its operations.
_MAX_RESOLUTION = 2**16
# The flag each command takes its resolution from.
_RESOLUTION_FLAG = {"certify": "--resolution", "export-samples": "--grid"}


def main(argv=None) -> int:
    try:
        code = _run(argv)
        for stream in (sys.stdout, sys.stderr):
            stream.flush()  # a closed pipe fails here, not after main returns
        return code
    except (DdqError, ValueError, OSError) as exc:
        _report(f"error: {exc}")
        return 2
    except Exception as exc:  # a fault of ours, still never exit 0 or 1
        message = " ".join(str(exc).splitlines())
        _report(f"error: internal error: {type(exc).__name__}: {message}")
        return 2


def _run(argv) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse leaves with 2 on an error, 0 after --help
        return exc.code
    flag = _RESOLUTION_FLAG.get(ns.command)
    if flag and ns.resolution < 1:
        raise ValueError(f"{flag} must be at least 1")
    if flag and ns.resolution > _MAX_RESOLUTION:
        raise ValueError(f"{flag} must be at most {_MAX_RESOLUTION}")
    return _DISPATCH[ns.command](ns)


def _report(line: str) -> None:
    """Flush stdout and print the one error line on stderr.  A stream whose
    write failed, as on a closed pipe, is pointed at os.devnull (Python's
    BrokenPipeError idiom), so the interpreter's last flush cannot fail."""
    for stream, text in ((sys.stdout, ""), (sys.stderr, f"{line}\n")):
        try:
            stream.write(text)
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
