"""Value quantales: what distances take values in.

A (partial) metric is a category enriched in a commutative integral
quantale.  The validators, globalization, divisibility and diagonal
composition are written once against this protocol of six parts:

    unit            the top element: a point's distance to itself in a metric
    compose(a, b)   the multiplication
    implies(a, b)   its residuation: the largest r with compose(a, r) below b
    below(a, b)     the order; `descending` is true when the printed
                    (numeric) order of the values is its reverse
    text(a)         canonical text
    finite(a)       whether a counts as a finite distance

There are three instances: `NUMERIC`, [0, inf] under addition with 0 on
top; `Staircases(t)`, staircases under the convolution of the t-norm t;
and `finiteq.FiniteQuantale`, a finite table.

Divisibility is the diagonal condition: d is divisible by p when
d = compose(p, implies(p, d)).  It matches the down set of p only in a
divisible quantale such as [0, inf], or below a one-step staircase.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axis import ONE, ZERO, format_scalar, is_infinite, plus_implies, time_add
from .quantale import convolve, implication
from .staircase import TOP
from .tnorms import TNorm


class ValueQuantale:
    """Base of the instances; the generic constructions built from the parts."""

    descending = False

    def residual(self, d, p):
        """The largest multiple of p below d: compose(p, implies(p, d))."""
        return self.compose(p, self.implies(p, d))

    def divides(self, p, d) -> bool:
        """Whether d is divisible by p, that is, d is its own residual."""
        return self.residual(d, p) == d

    def composites(self, mid, e, d) -> tuple:
        """Both formulas for the composite of diagonals d (into mid) and e
        (out of mid): compose(mid -> e, d) and compose(e, mid -> d).  They
        agree when d and e are divisible by mid."""
        return (
            self.compose(self.implies(mid, e), d),
            self.compose(e, self.implies(mid, d)),
        )


class _Numeric(ValueQuantale):
    """[0, inf] under addition, ordered by >= so that 0 is the unit and top."""

    unit = ZERO
    descending = True
    compose = staticmethod(time_add)
    implies = staticmethod(plus_implies)
    text = staticmethod(format_scalar)

    @staticmethod
    def below(a, b) -> bool:
        return a >= b

    @staticmethod
    def finite(a) -> bool:
        return not is_infinite(a)


NUMERIC = _Numeric()


@dataclass(frozen=True)
class Staircases(ValueQuantale):
    """Staircases under the convolution of a t-norm; top is the unit."""

    tnorm: TNorm
    unit = TOP

    def compose(self, a, b):
        return convolve(self.tnorm, a, b)

    def implies(self, a, b):
        return implication(self.tnorm, a, b)

    def below(self, a, b) -> bool:
        return a.leq(b)

    def text(self, a) -> str:
        return str(a)

    def finite(self, a) -> bool:
        """Whether the distance is finite almost surely: level 1 at infinity."""
        return a.last_level == ONE
