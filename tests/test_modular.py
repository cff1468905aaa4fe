from fractions import Fraction

import pytest

from abelcurves import modular, oracle, qseries
from abelcurves.modular import (
    InvariantKind,
    eisenstein_g2,
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


def test_ramanujan_identity_for_dg2():
    # Ramanujan: D(E2) = (E2^2 - E4)/12, with E2 = -24*G2 and
    # E4 = 1 + 240 * sum sigma_3(k) q^k (Kaneko-Zagier 1995), so
    # D(G2) = (E4 - E2^2)/288.  sigma_3 comes from this test's own sieve.
    prec = 200
    sigma3 = [0] * prec
    for d in range(1, prec):
        for m in range(d, prec, d):
            sigma3[m] += d**3
    e4 = QSeries([1] + [240 * s for s in sigma3[1:]])
    e2 = -24 * eisenstein_g2(prec)
    rhs = Fraction(1, 288) * (e4 - e2 * e2)
    assert list(eisenstein_g2(prec).q_derivative()) == list(rhs)


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
        assert Fraction(1, g - 1) * generating_series(
            InvariantKind.N12, g, 20
        ) == generating_series(InvariantKind.FLS, g, 20)


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
        generating_series("not-a-kind", 2, 5)


def test_invariant_kind_properties():
    assert InvariantKind("fls") is InvariantKind.FLS
    assert InvariantKind.FLS.min_genus == 2
    assert InvariantKind.N.min_genus == 1
    assert InvariantKind.ZERO13.vanishes
    assert not InvariantKind.N34.vanishes
    assert len(ZERO_KINDS) == 4


def _int_product(a, b, prec):
    out = [0] * prec
    for i in range(prec):
        for j in range(prec - i):
            out[i + j] += a[i] * b[j]
    return out


def _int_power(a, e, prec):
    out = [1] + [0] * (prec - 1)
    for _ in range(e):
        out = _int_product(out, a, prec)
    return out


def _paper_route(kind, g, prec):
    # The paper's route in plain ints: P = DG2 with P_k = k*sigma(k), D(x)_k = k*x_k.
    p = [k * sum(d for d in range(1, k + 1) if k % d == 0) for k in range(prec)]
    if kind is InvariantKind.N:
        return [g * c for c in _int_power(p, g - 1, prec)]
    if kind is InvariantKind.FLS:
        return _int_product(_int_power(p, g - 2, prec), _derivative(p), prec)
    if kind is InvariantKind.N12:
        return _derivative(_int_power(p, g - 1, prec))
    return _int_power(p, g - 1, prec)


def _derivative(x):
    return [k * c for k, c in enumerate(x)]


def test_series_match_the_paper_route_at_every_precision():
    # prec <= g - 1 included, where every coefficient lies below q^(g-1).
    for kind in NONZERO_KINDS:
        for g in range(kind.min_genus, 9):
            for prec in range(1, g + 7):
                assert generating_series(kind, g, prec) == QSeries(
                    _paper_route(kind, g, prec)
                ), (kind, g, prec)


def test_powers_run_at_prec_minus_genus_plus_one(monkeypatch):
    precs = []
    mul = QSeries.__mul__

    def recording(self, other):
        if isinstance(other, QSeries):
            precs.extend((self.prec, other.prec))
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", recording)
    generating_series(InvariantKind.N34, 8, 20)
    assert precs and set(precs) == {13}
    precs.clear()
    invariant(InvariantKind.N, 2000, 3)
    assert precs and set(precs) == {4}
