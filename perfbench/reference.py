"""Plain-int reference for the four nonzero count families.

Independent of the package under test: a sigma sieve and a truncated
integer convolution, nothing imported from ``abelcurves``.  With
P = sum k*sigma(k) q^k (that is D G2), the series at genus g are

    n      g * P^(g-1)
    fls    P^(g-2) * D(P)        g >= 2
    n12    D(P^(g-1))
    n34    P^(g-1)

and the count at (g, n) is the q^(n+g-1) coefficient.
"""

from __future__ import annotations

KINDS = ("n", "fls", "n12", "n34")


def _sigma(k_max: int) -> list[int]:
    sigma = [0] * (k_max + 1)
    for d in range(1, k_max + 1):
        for m in range(d, k_max + 1, d):
            sigma[m] += d
    return sigma


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i], i):
                out[j] += x * y
    return out


def _pow(a: list[int], e: int) -> list[int]:
    result = [1] + [0] * (len(a) - 1)
    while e:
        if e & 1:
            result = _mul(result, a)
        e >>= 1
        if e:
            a = _mul(a, a)
    return result


def _d(a: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)]


def series(kind: str, g: int, prec: int) -> list[int]:
    """Coefficients q^0 .. q^(prec-1) of the genus-g series of ``kind``."""
    sigma = _sigma(prec - 1)
    p = [k * sigma[k] for k in range(prec)]
    if kind == "n":
        return [g * c for c in _pow(p, g - 1)]
    if kind == "fls":
        return _mul(_pow(p, g - 2), _d(p))
    if kind == "n12":
        return _d(_pow(p, g - 1))
    if kind == "n34":
        return _pow(p, g - 1)
    raise ValueError(f"no reference for kind {kind!r}")


def table(kind: str, g_range: tuple[int, int], n_range: tuple[int, int]) -> list[list[int]]:
    """Rows over genus, columns over node count, as ``table`` prints them."""
    (g_lo, g_hi), (n_lo, n_hi) = g_range, n_range
    rows = []
    for g in range(g_lo, g_hi + 1):
        coeffs = series(kind, g, n_hi + g)
        rows.append(coeffs[n_lo + g - 1 : n_hi + g])
    return rows


if __name__ == "__main__":
    # The benchmark's calibration job: fixed pure-Python integer work of about
    # 0.15 s, timed before and after each iteration as a gauge of how fast
    # the machine runs at that moment.  It shares no code with abelcurves.
    series("n", 12, 650)
    table("n", (1, 12), (0, 140))
