"""Quasi-modular generating functions for the curve counts.

All five invariant families are coefficient extractions from series built
out of the weight-2 Eisenstein series

    G2(q) = -1/24 + sum_{k>=1} sigma(k) q^k

and the operator D = q d/dq.  Writing DG2 for the derivative (whose q^k
coefficient is k*sigma(k)), a genus-g class with n nodes is read off at
the q^(n+g-1) coefficient of:

    n       g * (DG2)^(g-1)            curves through g points
    fls     (DG2)^(g-2) * D(DG2)       fixed linear system, g >= 2 only
    n12     D((DG2)^(g-1))             family over the first loop pair
    n34     (DG2)^(g-1)                family over the second loop pair
    zero*   0                          the four mixed loop pairs

Every count is an integer; extraction goes through ``to_integer`` so a
fractional coefficient (an internal bug) fails loudly instead of leaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .qseries import QSeries, to_integer

__all__ = [
    "GenusNodeIndex",
    "InvariantKind",
    "eisenstein_g2",
    "fls_identity_series",
    "generating_series",
    "invariant",
]


class InvariantKind(Enum):
    """The eight count families, tagged by their CLI names."""

    N = "n"
    FLS = "fls"
    N12 = "n12"
    N34 = "n34"
    ZERO13 = "zero13"
    ZERO14 = "zero14"
    ZERO23 = "zero23"
    ZERO24 = "zero24"

    @property
    def vanishes(self) -> bool:
        return self.name.startswith("ZERO")

    @property
    def min_genus(self) -> int:
        """Smallest genus the family is defined for (2 for fls, else 1)."""
        return 2 if self is InvariantKind.FLS else 1


@dataclass(frozen=True)
class GenusNodeIndex:
    """A (genus, node-count) pair indexing one invariant value.

    The underlying curve class has self-intersection 2(n + g - 1), and the
    count sits at the q^(n+g-1) coefficient of the generating series.
    """

    g: int
    n: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        if self.n < 0:
            raise ValueError("node count must be >= 0")

    @property
    def exponent(self) -> int:
        return self.n + self.g - 1

    @property
    def self_intersection(self) -> int:
        return 2 * self.exponent


def eisenstein_g2(prec: int) -> QSeries:
    """The weight-2 Eisenstein series -1/24 + sum_{k>=1} sigma(k) q^k."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    # sigma by a divisor sieve, kept apart from the oracle's trial division
    # so that the two routes share no arithmetic.
    coeffs: list[Fraction | int] = [0] * prec
    for d in range(1, prec):
        for m in range(d, prec, d):
            coeffs[m] += d
    coeffs[0] = Fraction(-1, 24)
    return QSeries(coeffs)


def generating_series(kind: InvariantKind, g: int, prec: int) -> QSeries:
    """The generating series of the family ``kind`` at genus g, known
    modulo q**prec."""
    kind = InvariantKind(kind)
    if g < kind.min_genus:
        raise ValueError(
            f"kind {kind.value!r} needs genus >= {kind.min_genus}, got {g}"
        )
    if prec < 1:
        raise ValueError("prec must be >= 1")
    if kind.vanishes:
        return QSeries.zero(prec)
    dg2 = eisenstein_g2(prec).q_derivative()
    if kind is InvariantKind.N:
        return g * dg2 ** (g - 1)
    if kind is InvariantKind.FLS:
        return dg2 ** (g - 2) * dg2.q_derivative()
    if kind is InvariantKind.N12:
        return (dg2 ** (g - 1)).q_derivative()
    return dg2 ** (g - 1)  # N34


def invariant(kind: InvariantKind, g: int, n: int) -> int:
    """The count of family ``kind`` at genus g with n nodes.

    Computed at exactly the precision needed, n + g, and extracted from the
    q^(n+g-1) coefficient as an exact integer.
    """
    index = GenusNodeIndex(g, n)
    series = generating_series(kind, g, index.exponent + 1)
    return to_integer(series.coefficient(index.exponent))


def fls_identity_series(g: int, prec: int) -> QSeries:
    """The fixed-linear-system series computed the other way around, as
    D((DG2)^(g-1)) / (g-1).

    Since D is a derivation, this equals (DG2)^(g-2) * D(DG2) identically;
    the verification suite checks the two routes coefficient by
    coefficient.  Defined for g >= 2.
    """
    if g < 2:
        raise ValueError("the fixed-linear-system series needs g >= 2")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    dg2 = eisenstein_g2(prec).q_derivative()
    return Fraction(1, g - 1) * (dg2 ** (g - 1)).q_derivative()
