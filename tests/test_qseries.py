import random
from fractions import Fraction
from math import gcd

import pytest

from abelcurves.qseries import (
    IntegralityError,
    PrecisionError,
    QSeries,
    to_integer,
)


def test_to_integer():
    assert to_integer(Fraction(8, 2)) == 4
    assert to_integer(Fraction(-3)) == -3
    assert to_integer(5) == 5
    with pytest.raises(IntegralityError):
        to_integer(Fraction(-1, 24))


def test_construction():
    f = QSeries([1, Fraction(1, 2), 0])
    assert f.prec == 3
    assert f.coefficients == (Fraction(1), Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        QSeries([])
    with pytest.raises(TypeError):
        QSeries([0.5, 1])


def test_zero_and_one():
    z = QSeries.zero(4)
    assert z.coefficients == (0, 0, 0, 0)
    e = QSeries.one(3)
    assert e.coefficients == (1, 0, 0)
    assert e.prec == 3


def test_zero_and_one_need_positive_prec():
    for make in (QSeries.zero, QSeries.one):
        with pytest.raises(ValueError):
            make(0)
        with pytest.raises(ValueError):
            make(-2)


def test_coefficients_must_be_int_or_fraction():
    from decimal import Decimal

    for bad in ("1/2", "3", 0.5, Decimal(1), complex(1, 0), None):
        with pytest.raises(TypeError):
            QSeries([1, bad])
    assert QSeries([True, 2, Fraction(1, 3)]).coefficients == (1, 2, Fraction(1, 3))


def test_coefficient_access():
    f = QSeries([3, 0, Fraction(-1, 2)])
    assert f.coefficient(0) == 3
    assert f[2] == Fraction(-1, 2)
    with pytest.raises(PrecisionError):
        f.coefficient(3)
    with pytest.raises(PrecisionError):
        f.coefficient(-1)


def test_truncate():
    f = QSeries([1, 2, 3, 4])
    assert f.truncate(2) == QSeries([1, 2])
    assert f.truncate(4) == f
    with pytest.raises(PrecisionError):
        f.truncate(5)
    with pytest.raises(ValueError):
        f.truncate(0)


def test_equality_requires_equal_prec():
    assert QSeries([1, 2]) != QSeries([1, 2, 0])
    assert QSeries([1, 2, 0]).truncate(2) == QSeries([1, 2])
    assert QSeries([1, 2]) != "1 + 2q"


def test_add_truncates_to_min_prec():
    f = QSeries([1, 1])
    g = QSeries([2, 5, 1])
    total = f + g
    assert total == QSeries([3, 6])
    assert total.prec == 2
    with pytest.raises(PrecisionError):
        total.coefficient(2)


def test_sub_and_neg():
    f = QSeries([1, -2, Fraction(1, 3)])
    assert f - f == QSeries.zero(3)
    assert -f == QSeries([-1, 2, Fraction(-1, 3)])
    assert f + (-1) * f == QSeries.zero(3)


def test_mul_convolution():
    # s = q + 6q^2 + 12q^3 + 28q^4; the q^4 coefficient of s*s is
    # 2*(1*12) + 6*6 = 60.
    s = QSeries([0, 1, 6, 12, 28])
    assert (s * s).coefficient(4) == 60
    assert (s * s).coefficient(2) == 1
    assert (s * s).coefficient(0) == 0


def test_mul_truncates_to_min_prec():
    f = QSeries([1, 1])
    g = QSeries([1, 2, 3, 4, 5])
    assert (f * g).prec == 2
    assert f * g == QSeries([1, 3])


def test_scalar_mul():
    f = QSeries([1, 2, 3])
    assert 3 * f == QSeries([3, 6, 9])
    assert f * Fraction(1, 2) == QSeries([Fraction(1, 2), 1, Fraction(3, 2)])
    assert (3 * f).prec == f.prec


def test_pow():
    f = QSeries([1, 1, 0, 0, 0])
    assert f**0 == QSeries.one(5)
    assert f**1 == f
    assert f**2 == QSeries([1, 2, 1, 0, 0])
    assert f**4 == f * f * f * f
    with pytest.raises(ValueError):
        f ** (-1)


def test_pow_of_zero():
    z = QSeries.zero(3)
    assert z**0 == QSeries.one(3)
    assert z**5 == z


def test_q_derivative():
    f = QSeries([Fraction(-1, 24), 1, 3, 4])
    assert f.q_derivative() == QSeries([0, 1, 6, 12])
    assert f.q_derivative().prec == f.prec
    # constants die, so the operator is nilpotent on them
    assert QSeries([7, 0, 0]).q_derivative() == QSeries.zero(3)


def test_repr_and_str_smoke():
    f = QSeries([Fraction(-1, 24), 1, 6])
    assert "QSeries" in repr(f)
    text = str(f)
    assert "q" in text and "O(q^3)" in text
    assert str(QSeries.zero(2)) == "O(q^2)"


def _random_series(rng, prec=12):
    return QSeries(
        [Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(prec)]
    )


def test_ring_axioms_random():
    rng = random.Random(1722)
    for _ in range(30):
        f = _random_series(rng)
        g = _random_series(rng)
        h = _random_series(rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_leibniz_rule_random():
    rng = random.Random(1723)
    for _ in range(30):
        f = _random_series(rng)
        g = _random_series(rng)
        assert (f * g).q_derivative() == f.q_derivative() * g + f * g.q_derivative()


def test_derivative_is_linear():
    rng = random.Random(1724)
    for _ in range(10):
        f = _random_series(rng)
        g = _random_series(rng)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert (f + g).q_derivative() == f.q_derivative() + g.q_derivative()
        assert (c * f).q_derivative() == c * f.q_derivative()


def test_pow_is_additive_in_exponent():
    rng = random.Random(1725)
    for _ in range(10):
        f = _random_series(rng, prec=9)
        assert f**2 * f**3 == f**5
        assert f**1 * f**0 == f


def test_coefficients_stay_canonical():
    rng = random.Random(1726)
    for _ in range(20):
        f = _random_series(rng, prec=8)
        g = _random_series(rng, prec=8)
        for result in (f + g, f * g, f - g, f.q_derivative(), f**3):
            for c in result.coefficients:
                assert c.denominator > 0
                assert gcd(abs(c.numerator), c.denominator) == 1


def test_identity_elements():
    rng = random.Random(1727)
    f = _random_series(rng)
    assert f + QSeries.zero(f.prec) == f
    assert f * QSeries.one(f.prec) == f
    assert f * QSeries.zero(f.prec) == QSeries.zero(f.prec)


def test_hash_consistent_with_eq():
    a = QSeries([1, Fraction(2, 4)])
    b = QSeries([1, Fraction(1, 2)])
    assert a == b
    assert hash(a) == hash(b)


def _sparse_series(rng, prec):
    # Zeros, negative and fractional coefficients, so the squaring path's
    # skips, signs and doubling all take part.
    return QSeries(
        [
            0 if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(prec)
        ]
    )


def test_square_matches_general_product():
    rng = random.Random(1728)
    for prec in range(1, 41):
        for _ in range(3):
            s = _sparse_series(rng, prec)
            # An equal but distinct operand takes the general loop.
            assert s * s == s * QSeries(list(s))


def test_pow_matches_repeated_product():
    rng = random.Random(1729)
    for prec in range(1, 41, 3):
        s = _sparse_series(rng, prec)
        copy = QSeries(list(s))
        product = QSeries.one(prec)
        for e in range(13):
            assert s**e == product
            product = product * copy
