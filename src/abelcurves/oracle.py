"""Brute-force combinatorial twins of the closed-form curve counts.

Everything here runs on plain machine integers over explicit enumeration,
with no shared code with the q-series route, so agreement between the two
is a real cross-check rather than a tautology.

The counting scheme: a genus-g class of self-intersection 2(n+g-1) is
covered by maps whose image degenerates into g-1 elliptic "fiber" pieces
of degrees k_1 + ... + k_{g-1} = n+g-1, each degree-k piece contributing
k * sigma(k), with sigma(k) computed once per part size.  Every family sums
these products over all ordered degree splittings (compositions), with an
extra factor k on the first (n12) or last (fls) part and a prefactor (g
for n, g-1 for n12).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import isqrt, prod
from operator import sub
from typing import Iterator

__all__ = [
    "WORK_LIMIT",
    "check_work",
    "compositions",
    "count_fls",
    "count_invariant",
    "count_n",
    "count_n12",
    "count_n34",
    "divisor_sum",
    "hermite_sublattices",
    "sublattice_count",
]

#: The most steps one count may take: composition parts visited plus trial
#: divisions for sigma.  A part costs about 0.26 us at genus 8 and more at
#: low genus, where each composition has fewer parts to share its overhead.
WORK_LIMIT = 10**7


def divisor_sum(k: int) -> int:
    """sigma(k), the sum of the positive divisors of k, by trial division."""
    if k < 1:
        raise ValueError("divisor_sum is defined for k >= 1")
    total = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            total += d
            if d * d != k:
                total += k // d
        d += 1
    return total


def hermite_sublattices(k: int) -> Iterator[tuple[int, int, int]]:
    """Yield (a, b, d) with a*d = k, 0 <= b < d: one Hermite-normal-form
    basis [[a, b], [0, d]] per index-k sublattice of Z^2."""
    for d in range(1, k + 1):
        if k % d:
            continue
        a = k // d
        for b in range(d):
            yield (a, b, d)


def sublattice_count(k: int) -> int:
    """Number of index-k sublattices of Z^2, by exhaustive enumeration.

    Classically equal to divisor_sum(k); the two are computed by disjoint
    routes precisely so that the identity can be checked.
    """
    if k < 1:
        raise ValueError("sublattice_count is defined for k >= 1")
    return sum(1 for _ in hermite_sublattices(k))


def compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of ``total`` into exactly ``length`` strictly
    positive parts, in lexicographic order.

    Each composition appears exactly once; there are binomial(total-1,
    length-1) of them.  The single empty composition () appears iff
    total == 0 and length == 0.
    """
    if total < 0 or length < 0:
        raise ValueError("total and length must be nonnegative")
    if length == 0:
        if total == 0:
            yield ()
        return
    if total < length:
        return
    if length == 1:  # one part, no cuts: skip the pool of total-1 cut points
        yield (total,)
        return
    # Parts are the gaps between cuts 0 < c_1 < ... < c_(length-1) < total,
    # in lexicographic order.  Going through a list sizes each tuple exactly,
    # so CPython's tuple free list does not fill with resized dead tuples.
    for cuts in combinations(range(1, total), length - 1):
        yield tuple(list(map(sub, cuts + (total,), (0,) + cuts)))


def check_work(g: int, n: int) -> None:
    """Raise ValueError when the count at (g, n) would take more than
    WORK_LIMIT steps: (g-1) * binomial(n+g-2, g-2) composition parts, plus
    at most isqrt(n+1) trial divisions for each part size 1..n+1 (only n+1
    at genus 2).  Steps grow with both g and n.  The binomial is built
    factor by factor and abandoned once over the limit, so no huge (g, n)
    is ever multiplied out.
    """
    if g < 2:
        return
    steps, r = g - 1, min(n, g - 2)
    for i in range(1, r + 1):
        if steps > WORK_LIMIT:
            break
        steps = steps * (n + g - 2 - r + i) // i
    if steps + (n + 1 if g > 2 else 1) * isqrt(n + 1) > WORK_LIMIT:
        raise ValueError(
            f"oracle count at g={g}, n={n} needs more than "
            f"WORK_LIMIT = {WORK_LIMIT} steps"
        )


def _composition_sum(g: int, n: int, end: slice = slice(0)) -> int:
    """Sum over compositions of n+g-1 into g-1 parts of the product of
    k * sigma(k) over the parts k, times each part in ``parts[end]`` (the
    first, the last or none).  sigma(k) is computed once per part size that
    occurs, so genus 2 costs one divisor sum however large n is.  Refused
    by ``check_work`` before any enumeration.
    """
    _check_index(g, n)
    check_work(g, n)
    weight = cache(lambda k: k * divisor_sum(k))
    return sum(
        prod(map(weight, parts)) * prod(parts[end])
        for parts in compositions(n + g - 1, g - 1)
    )


def count_n(g: int, n: int) -> int:
    """Count of genus-g curves with n nodes through g base points.

    g times the sum over compositions (k_1, ..., k_{g-1}) of n+g-1 of the
    product of k_i * sigma(k_i).
    """
    return g * _composition_sum(g, n)


def count_fls(g: int, n: int) -> int:
    """Count with the curve confined to one fixed g-dimensional linear
    system; defined for g >= 2 only.

    As count_n34 but the last part is weighted k**2 * sigma(k).
    """
    if g < 2:
        raise ValueError("the fixed-linear-system count needs g >= 2")
    return _composition_sum(g, n, slice(-1, None))


def count_n12(g: int, n: int) -> int:
    """Count over the one-parameter family of linear systems swept out by
    the first generating-loop pair.

    g-1 times the composition sum with the first part weighted
    k**2 * sigma(k); identically 0 at g = 1 (empty prefactor).
    """
    return (g - 1) * _composition_sum(g, n, slice(1))


def count_n34(g: int, n: int) -> int:
    """Count over the family swept out by the second generating-loop pair:
    the plain composition sum of products of k_i * sigma(k_i).

    The empty composition at g = 1, n = 0 contributes the empty product 1.
    """
    return _composition_sum(g, n)


_ZERO_TAGS = frozenset({"zero13", "zero14", "zero23", "zero24"})

_COUNTERS = {
    "n": count_n,
    "fls": count_fls,
    "n12": count_n12,
    "n34": count_n34,
}


def count_invariant(kind: object, g: int, n: int) -> int:
    """Dispatch by invariant tag.  ``kind`` may be the tag string or any
    object whose ``value`` is the tag (the InvariantKind enum).

    The mixed-loop-pair families enumerate an empty problem, so their
    count is 0 for every (g, n).
    """
    tag = getattr(kind, "value", kind)
    if tag in _ZERO_TAGS:
        _check_index(g, n)
        return 0
    try:
        counter = _COUNTERS[tag]
    except KeyError:
        raise ValueError(f"unknown invariant kind: {tag!r}") from None
    return counter(g, n)


def _check_index(g: int, n: int) -> None:
    if g < 1:
        raise ValueError("genus must be >= 1")
    if n < 0:
        raise ValueError("node count must be >= 0")
