from fractions import Fraction

import pytest

from abelcurves import modular, oracle, qseries
from abelcurves.modular import (
    GenusNodeIndex,
    InvariantKind,
    eisenstein_g2,
    fls_identity_series,
    generating_series,
    invariant,
)
from abelcurves.qseries import QSeries

NONZERO_KINDS = (
    InvariantKind.N,
    InvariantKind.FLS,
    InvariantKind.N12,
    InvariantKind.N34,
)
ZERO_KINDS = tuple(k for k in InvariantKind if k.vanishes)


def test_eisenstein_g2_leading_coefficients():
    g2 = eisenstein_g2(13)
    assert g2.prec == 13
    assert g2.coefficient(0) == Fraction(-1, 24)
    assert g2.coefficient(1) == 1
    assert g2.coefficient(6) == 12
    assert g2.coefficient(12) == 28


def test_eisenstein_g2_matches_divisor_scan():
    g2 = eisenstein_g2(30)
    for k in range(1, 30):
        assert g2.coefficient(k) == sum(d for d in range(1, k + 1) if k % d == 0)
    g2 = eisenstein_g2(2000)
    assert all(g2.coefficient(k) == oracle.divisor_sum(k) for k in range(1, 2000))


def test_modular_shares_no_code_with_oracle():
    # The closed forms and the brute-force twin must stay independent, or a
    # bug in a shared helper would cancel out of every cross-check.
    for name, obj in vars(modular).items():
        assert obj is not oracle, name
        assert getattr(obj, "__module__", None) != oracle.__name__, name
    for name, obj in vars(oracle).items():
        for other in (modular, qseries):
            assert obj is not other, name
            assert getattr(obj, "__module__", None) != other.__name__, name


def test_eisenstein_g2_needs_positive_prec():
    with pytest.raises(ValueError):
        eisenstein_g2(0)


def test_q_derivative_of_g2():
    dg2 = eisenstein_g2(5).q_derivative()
    assert dg2 == QSeries([0, 1, 6, 12, 28])
    d2g2 = dg2.q_derivative()
    assert d2g2 == QSeries([0, 1, 12, 36, 112])


def test_series_row_genus_two():
    s = generating_series(InvariantKind.N, 2, 9)
    assert s.coefficients == (0, 2, 12, 24, 56, 60, 144, 112, 240)


def test_series_row_genus_three_fls():
    s = generating_series(InvariantKind.FLS, 3, 10)
    assert s.coefficients == (0, 0, 1, 18, 120, 500, 1620, 4116, 9920, 19440)


def test_series_accepts_kind_tags():
    assert generating_series("n34", 2, 5) == generating_series(
        InvariantKind.N34, 2, 5
    )


def test_invariant_spot_values():
    assert invariant(InvariantKind.N, 2, 1) == 12
    assert invariant(InvariantKind.N34, 2, 1) == 6
    assert invariant(InvariantKind.FLS, 4, 4) == 6594
    assert invariant(InvariantKind.FLS, 5, 7) == 1169520
    assert invariant(InvariantKind.N, 5, 7) == 2126400
    assert invariant(InvariantKind.N12, 2, 1) == 12


def test_invariant_returns_plain_int():
    value = invariant(InvariantKind.FLS, 3, 2)
    assert type(value) is int
    assert value == 120


def test_invariant_matches_direct_extraction():
    for kind in NONZERO_KINDS:
        for g in range(kind.min_genus, 6):
            for n in range(0, 6):
                series = generating_series(kind, g, n + g)
                assert series.coefficient(n + g - 1) == invariant(kind, g, n)


def test_genus_one_conventions():
    assert generating_series(InvariantKind.N, 1, 4) == QSeries.one(4)
    assert generating_series(InvariantKind.N34, 1, 4) == QSeries.one(4)
    assert generating_series(InvariantKind.N12, 1, 4) == QSeries.zero(4)
    assert invariant(InvariantKind.N, 1, 0) == 1
    assert invariant(InvariantKind.N, 1, 3) == 0
    assert invariant(InvariantKind.N12, 1, 0) == 0


def test_fls_rejects_genus_one():
    with pytest.raises(ValueError):
        generating_series(InvariantKind.FLS, 1, 5)
    with pytest.raises(ValueError):
        invariant(InvariantKind.FLS, 1, 2)
    with pytest.raises(ValueError):
        fls_identity_series(1, 5)


def test_zero_kinds_vanish():
    for kind in ZERO_KINDS:
        assert generating_series(kind, 3, 7) == QSeries.zero(7)
        for g in range(1, 5):
            for n in range(0, 5):
                assert invariant(kind, g, n) == 0


def test_support_starts_at_genus_minus_one():
    for kind in NONZERO_KINDS:
        for g in range(kind.min_genus, 7):
            series = generating_series(kind, g, g + 3)
            for k in range(g - 1):
                assert series.coefficient(k) == 0


def test_leading_values():
    for g in range(2, 9):
        assert invariant(InvariantKind.FLS, g, 0) == 1
        assert invariant(InvariantKind.N, g, 0) == g
        assert invariant(InvariantKind.N34, g, 0) == 1


def test_scaling_identity():
    for g in range(1, 7):
        for n in range(0, 9):
            assert invariant(InvariantKind.N, g, n) == g * invariant(
                InvariantKind.N34, g, n
            )


def test_node_shift_identity():
    for g in range(1, 7):
        for n in range(0, 9):
            assert invariant(InvariantKind.N12, g, n) == (n + g - 1) * invariant(
                InvariantKind.N34, g, n
            )


def test_fls_ratio_identity():
    for g in range(2, 7):
        for n in range(0, 9):
            assert (g - 1) * invariant(InvariantKind.FLS, g, n) == invariant(
                InvariantKind.N12, g, n
            )


def test_fls_identity_series_agrees():
    for g in range(2, 7):
        assert fls_identity_series(g, 20) == generating_series(
            InvariantKind.FLS, g, 20
        )


def test_domain_validation():
    with pytest.raises(ValueError):
        generating_series(InvariantKind.N, 0, 5)
    with pytest.raises(ValueError):
        generating_series(InvariantKind.N, 2, 0)
    with pytest.raises(ValueError):
        invariant(InvariantKind.N, 2, -1)
    with pytest.raises(ValueError):
        invariant(InvariantKind.N, -3, 0)
    with pytest.raises(ValueError):
        fls_identity_series(3, 0)
    with pytest.raises(ValueError):
        generating_series("not-a-kind", 2, 5)


def test_genus_node_index():
    idx = GenusNodeIndex(3, 2)
    assert idx.exponent == 4
    assert idx.self_intersection == 8
    with pytest.raises(ValueError):
        GenusNodeIndex(0, 2)
    with pytest.raises(ValueError):
        GenusNodeIndex(2, -1)


def test_invariant_kind_properties():
    assert InvariantKind("fls") is InvariantKind.FLS
    assert InvariantKind.FLS.min_genus == 2
    assert InvariantKind.N.min_genus == 1
    assert InvariantKind.ZERO13.vanishes
    assert not InvariantKind.N34.vanishes
    assert len(ZERO_KINDS) == 4
