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

Since DG2 has no constant term, DG2 = q*h with h_k = (k+1)*sigma(k+1), and
(DG2)^(g-1) = q^(g-1) * h^(g-1).  So a series known modulo q**prec needs h
only modulo q**(prec-g+1): the powers run at that precision and are then
shifted, and the squarings inside them use the symmetry of a square
(``QSeries.__mul__`` forms each cross product once).

Every count is an integer; extraction goes through ``to_integer`` so a
fractional coefficient (an internal bug) fails loudly instead of leaking.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .qseries import QSeries, to_integer

__all__ = [
    "InvariantKind",
    "eisenstein_g2",
    "generating_series",
    "invariant",
    "node_counts",
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
    if kind.vanishes or prec <= g - 1:
        return QSeries.zero(prec)
    # h = DG2/q, known modulo q^(prec-g+1): DG2's zero constant term dropped.
    dg2 = eisenstein_g2(prec - g + 2).q_derivative()
    h = QSeries(dg2.coefficients[1:])
    if kind is InvariantKind.FLS:
        # D(DG2) = q*h' with h'_k = (k+1)*h_k, so the product is
        # q^(g-1) * h^(g-2) * h'.
        power = h ** (g - 2) * QSeries(dg2.q_derivative().coefficients[1:])
    else:
        power = h ** (g - 1)
    shifted = QSeries([0] * (g - 1) + list(power))
    if kind is InvariantKind.N:
        return g * shifted
    if kind is InvariantKind.N12:
        return shifted.q_derivative()
    return shifted  # N34 and FLS


def node_counts(series: QSeries, g: int) -> list[int]:
    """The genus-g counts in ``series``, at n = 0, 1, ...: the count with n
    nodes sits at the q^(n+g-1) coefficient."""
    return [to_integer(c) for c in series.coefficients[g - 1:]]


def invariant(kind: InvariantKind, g: int, n: int) -> int:
    """The count of family ``kind`` at genus g with n nodes, read off the
    series at exactly the precision needed, n + g."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if n < 0:
        raise ValueError("node count must be >= 0")
    return node_counts(generating_series(kind, g, n + g), g)[n]

