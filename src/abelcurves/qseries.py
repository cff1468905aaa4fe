"""Truncated formal power series in q over the exact rationals.

Coefficients live in `fractions.Fraction`, so every value is an exactly
reduced rational (positive denominator, gcd 1) by construction and nothing
ever rounds.  A series carries an explicit truncation order ``prec``: it is
known modulo q**prec and never pretends to know more.  Binary operations
truncate to the minimum of the operand precisions, and asking for a
coefficient at or beyond ``prec`` raises instead of silently returning 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Union

Scalar = Union[int, Fraction]

__all__ = [
    "IntegralityError",
    "PrecisionError",
    "QSeries",
    "to_integer",
]


class PrecisionError(ValueError):
    """A coefficient beyond a series' known truncation order was requested."""


class IntegralityError(ValueError):
    """An integer was expected but a fraction with a nontrivial denominator appeared."""


def to_integer(value: Scalar) -> int:
    """Return ``value`` as a plain int, or raise IntegralityError.

    Quantities that are integers for structural reasons go through this
    choke point, so a fractional value surfaces as a loud failure instead
    of a truncated number.
    """
    if value.denominator != 1:
        raise IntegralityError(f"expected an integer, got {value}")
    return value.numerator


def _coerce(value: object) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(
        f"coefficients must be int or Fraction, got {type(value).__name__}"
    )


class QSeries:
    """A q-series known modulo q**prec.

    Immutable.  ``prec`` equals the number of stored coefficients, indexed
    by exponent 0 .. prec-1.  Equality compares both the coefficients and
    the precision; series of different precision are never equal, use
    :meth:`truncate` to compare on a common range.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = tuple(_coerce(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = coeffs

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls([0] * prec)

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        if prec < 1:
            raise ValueError("a series needs at least the constant coefficient")
        return cls([1] + [0] * (prec - 1))

    @property
    def prec(self) -> int:
        return len(self._coeffs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of q**k; raises PrecisionError outside [0, prec)."""
        if not 0 <= k < len(self._coeffs):
            raise PrecisionError(
                f"coefficient {k} outside known range [0, {len(self._coeffs)})"
            )
        return self._coeffs[k]

    __getitem__ = coefficient

    def truncate(self, prec: int) -> "QSeries":
        """Forget coefficients from q**prec on.  Never extends: prec must
        be between 1 and self.prec."""
        if prec < 1:
            raise ValueError("prec must be >= 1")
        if prec > len(self._coeffs):
            raise PrecisionError(
                f"cannot extend a series known to order {len(self._coeffs)} to {prec}"
            )
        return QSeries(self._coeffs[:prec])

    def q_derivative(self) -> "QSeries":
        """Apply q * d/dq: the q**k coefficient is multiplied by k.

        Precision is unchanged (the operator is diagonal in q powers).
        """
        return QSeries(k * c for k, c in enumerate(self._coeffs))

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(len(self._coeffs), len(other._coeffs))
        return QSeries(self._coeffs[k] + other._coeffs[k] for k in range(prec))

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(len(self._coeffs), len(other._coeffs))
        return QSeries(self._coeffs[k] - other._coeffs[k] for k in range(prec))

    def __neg__(self) -> "QSeries":
        return QSeries(-c for c in self._coeffs)

    def __mul__(self, other: object) -> "QSeries":
        if isinstance(other, QSeries):
            prec = min(len(self._coeffs), len(other._coeffs))
            out = [Fraction(0)] * prec
            for i in range(prec):
                a = self._coeffs[i]
                if not a:
                    continue
                for j in range(prec - i):
                    b = other._coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QSeries(out)
        if isinstance(other, (int, Fraction)):
            return QSeries(other * c for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QSeries":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result = QSeries.one(len(self._coeffs))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __repr__(self) -> str:
        return f"QSeries({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs):
            if not c:
                continue
            power = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            mag = abs(c)
            if not power:
                body = str(mag)
            elif mag == 1:
                body = power
            else:
                body = f"{mag}*{power}"
            terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return f"O(q^{len(self._coeffs)})"
        sign, body = terms[0]
        parts = [body if sign == "+" else f"-{body}"]
        parts.extend(f"{sign} {body}" for sign, body in terms[1:])
        return " ".join(parts) + f" + O(q^{len(self._coeffs)})"
