import random
from math import comb, gcd

import pytest

from abelcurves.oracle import (
    WORK_LIMIT,
    compositions,
    count_fls,
    count_invariant,
    count_n,
    count_n12,
    count_n34,
    divisor_sum,
    hermite_sublattices,
    sublattice_count,
)


def _sigma_by_full_scan(k):
    return sum(d for d in range(1, k + 1) if k % d == 0)


def test_divisor_sum_small_values():
    assert [divisor_sum(k) for k in range(1, 13)] == [
        1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28,
    ]
    assert divisor_sum(97) == 98  # prime p gives p + 1


def test_divisor_sum_matches_full_scan():
    for k in range(1, 201):
        assert divisor_sum(k) == _sigma_by_full_scan(k)


def test_divisor_sum_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisor_sum(0)
    with pytest.raises(ValueError):
        divisor_sum(-5)


def test_divisor_sum_multiplicative_on_coprime_pairs():
    rng = random.Random(417)
    done = 0
    while done < 100:
        a = rng.randint(2, 9999)
        b = rng.randint(2, 9999)
        if gcd(a, b) != 1:
            continue
        assert divisor_sum(a * b) == divisor_sum(a) * divisor_sum(b)
        done += 1


def test_hermite_sublattices_index_4():
    # index 4: [[4,0],[0,1]], [[2,b],[0,2]] for b in {0,1},
    # [[1,b],[0,4]] for b in {0,1,2,3} -- seven bases in all.
    bases = set(hermite_sublattices(4))
    assert bases == {
        (4, 0, 1),
        (2, 0, 2), (2, 1, 2),
        (1, 0, 4), (1, 1, 4), (1, 2, 4), (1, 3, 4),
    }


def test_hermite_sublattices_are_normal_forms():
    for k in (1, 6, 12, 45):
        seen = set()
        for a, b, d in hermite_sublattices(k):
            assert a * d == k
            assert 0 <= b < d
            assert (a, b, d) not in seen
            seen.add((a, b, d))


def test_sublattice_count_values():
    assert sublattice_count(1) == 1
    assert sublattice_count(4) == 7
    assert sublattice_count(12) == 28


def test_sublattice_count_equals_divisor_sum():
    for k in range(1, 201):
        assert sublattice_count(k) == divisor_sum(k)


def test_sublattice_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        sublattice_count(0)


def test_compositions_listing():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(1, 1)) == [(1,)]
    # one part per level of recursion would overflow the interpreter stack
    assert list(compositions(1200, 1200)) == [(1,) * 1200]
    # one part has no cut points, so no pool of 10**12 of them is built
    assert list(compositions(10**12, 1)) == [(10**12,)]


def test_compositions_empty_cases():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(0, 2)) == []
    assert list(compositions(2, 5)) == []  # not enough to give every part 1


def test_compositions_rejects_negative():
    with pytest.raises(ValueError):
        list(compositions(-1, 2))
    with pytest.raises(ValueError):
        list(compositions(3, -1))


def test_compositions_are_lexicographic_and_complete():
    for total in range(0, 13):
        for length in range(0, 7):
            items = list(compositions(total, length))
            assert len(items) == len(set(items))
            assert items == sorted(items)
            if length == 0:
                expected = 1 if total == 0 else 0
            elif total == 0:
                expected = 0
            else:
                expected = comb(total - 1, length - 1)
            assert len(items) == expected
            for parts in items:
                assert len(parts) == length
                assert all(p >= 1 for p in parts)
                assert sum(parts) == total


def test_count_n_values():
    assert count_n(1, 0) == 1
    assert count_n(1, 4) == 0
    assert count_n(2, 1) == 12
    # compositions of 4 into 2 parts: (1,3) and (3,1) give 12 each,
    # (2,2) gives 36; times g=3 that is 180.
    assert count_n(3, 2) == 180


def test_count_fls_values():
    assert count_fls(2, 0) == 1
    assert count_fls(2, 1) == 12  # single part (2): 2^2 * sigma(2)
    assert count_fls(2, 3) == 112
    assert count_fls(4, 1) == 24


def test_count_fls_needs_genus_two():
    with pytest.raises(ValueError):
        count_fls(1, 3)
    with pytest.raises(ValueError):
        count_fls(0, 0)


def test_count_n12_values():
    assert count_n12(2, 1) == 12
    assert count_n12(3, 0) == 2
    for n in range(5):
        assert count_n12(1, n) == 0


def test_count_n34_values():
    assert count_n34(1, 0) == 1
    assert count_n34(1, 3) == 0
    assert count_n34(2, 2) == 12
    assert count_n34(3, 1) == 12


def test_counts_at_high_genus_match_closed_form():
    # n = 0 leaves only the all-ones composition, whose product is 1.
    g = 1200
    assert count_n(g, 0) == g
    assert count_n34(g, 0) == 1
    assert count_n12(g, 0) == g - 1
    assert count_fls(g, 0) == 1


def test_divisor_sum_runs_once_per_part_size(monkeypatch):
    calls = []

    def counted(k):
        calls.append(k)
        return divisor_sum(k)

    monkeypatch.setattr("abelcurves.oracle.divisor_sum", counted)
    assert count_n34(7, 16) == 109822235067
    assert len(calls) <= 16 + 7 - 1
    calls.clear()
    # genus 2 has the single composition (n+1,): one divisor sum, not n+1
    assert count_fls(2, 10**6) == (10**6 + 1) ** 2 * divisor_sum(10**6 + 1)
    assert calls == [10**6 + 1]


def test_counts_over_the_work_limit_are_refused():
    # Each would otherwise run for hours or allocate gigabytes: a pool of
    # 10**8 cut points, a binomial too large to multiply out, 10**9 trial
    # divisions for one sigma, or 10**10 composition parts.
    for g, n in ((10**8, 0), (10**18, 10**18), (2, 10**18), (12, 40)):
        with pytest.raises(ValueError, match=f"WORK_LIMIT = {WORK_LIMIT}"):
            count_n34(g, n)


def test_work_limit_boundary(monkeypatch):
    # The largest accepted n per genus, where (g-1) * binomial(n+g-2, g-2)
    # parts plus (n+1) * isqrt(n+1) trial divisions (isqrt(n+1) at genus 2)
    # first pass 10**7.  Enumeration is stubbed out: only the check runs.
    monkeypatch.setattr("abelcurves.oracle.compositions", lambda total, length: iter(()))
    for g, n in ((2, 99999999999998), (3, 46223), (4, 2563), (8, 28), (12, 12)):
        assert count_n34(g, n) == 0
        with pytest.raises(ValueError):
            count_n34(g, n + 1)


def test_counts_reject_bad_indexes():
    for counter in (count_n, count_n12, count_n34):
        with pytest.raises(ValueError):
            counter(0, 1)
        with pytest.raises(ValueError):
            counter(2, -1)
    with pytest.raises(ValueError):
        count_fls(3, -1)


def test_scaling_between_counts():
    for g in range(1, 6):
        for n in range(0, 8):
            assert count_n(g, n) == g * count_n34(g, n)


def test_node_shift_between_counts():
    for g in range(1, 6):
        for n in range(0, 8):
            assert count_n12(g, n) == (n + g - 1) * count_n34(g, n)


def test_fls_ratio_between_counts():
    for g in range(2, 6):
        for n in range(0, 8):
            assert (g - 1) * count_fls(g, n) == count_n12(g, n)


def test_count_invariant_dispatch():
    assert count_invariant("n", 3, 2) == count_n(3, 2)
    assert count_invariant("fls", 2, 3) == 112
    assert count_invariant("n12", 2, 1) == 12
    assert count_invariant("n34", 3, 1) == 12
    for tag in ("zero13", "zero14", "zero23", "zero24"):
        assert count_invariant(tag, 4, 5) == 0
    with pytest.raises(ValueError):
        count_invariant("bogus", 2, 2)
    with pytest.raises(ValueError):
        count_invariant("fls", 1, 0)
    with pytest.raises(ValueError):
        count_invariant("zero13", 0, 0)
