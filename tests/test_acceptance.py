"""Acceptance suite.

Each test is one acceptance criterion and prints a single PASS/FAIL line
(with elapsed time) on top of the usual pytest reporting; run with -s to
see the lines stream.  All comparisons are exact integer or exact rational
equality; nothing here tolerates approximation.
"""

import os
import pathlib
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from abelcurves.cli import run_verification
from abelcurves.golden import GENUS_RANGE, NODE_RANGE, TABLES
from abelcurves.modular import (
    InvariantKind,
    generating_series,
    invariant,
)
from abelcurves.oracle import count_fls, count_invariant, divisor_sum, sublattice_count
from abelcurves.qseries import QSeries

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label} ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"PASS {label} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_golden_tables():
    with criterion("criterion-1 golden-tables"):
        for kind, rows in TABLES.items():
            for g in range(GENUS_RANGE[0], GENUS_RANGE[1] + 1):
                for n in range(NODE_RANGE[0], NODE_RANGE[1] + 1):
                    assert invariant(kind, g, n) == rows[g - GENUS_RANGE[0]][n]
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "abelcurves", "verify", "--gmax", "5", "--nmax", "7"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert all(r.passed for r in run_verification(5, 7, 200))


def test_criterion_2_oracle_equivalence():
    with criterion("criterion-2 oracle-equivalence"):
        for kind in (
            InvariantKind.N,
            InvariantKind.FLS,
            InvariantKind.N12,
            InvariantKind.N34,
        ):
            for g in range(kind.min_genus, 7):
                for n in range(0, 11):
                    assert invariant(kind, g, n) == count_invariant(kind, g, n), (
                        kind, g, n,
                    )


def test_criterion_3_structural_identities():
    with criterion("criterion-3 structural-identities"):
        for g in range(2, 9):
            for n in range(0, 13):
                n34 = invariant(InvariantKind.N34, g, n)
                assert invariant(InvariantKind.N, g, n) == g * n34
                n12 = invariant(InvariantKind.N12, g, n)
                assert n12 == (n + g - 1) * n34
                assert (g - 1) * invariant(InvariantKind.FLS, g, n) == n12
                for kind in InvariantKind:
                    if kind.vanishes:
                        assert invariant(kind, g, n) == 0
        for g in range(2, 9):
            assert Fraction(1, g - 1) * generating_series(
                InvariantKind.N12, g, 25
            ) == generating_series(InvariantKind.FLS, g, 25)


def test_criterion_4_sublattice_sigma():
    with criterion("criterion-4 sublattice-sigma"):
        for k in range(1, 201):
            assert sublattice_count(k) == divisor_sum(k)
        rng = random.Random(9001)
        done = 0
        while done < 100:
            a = rng.randint(2, 9999)
            b = rng.randint(2, 9999)
            if gcd(a, b) != 1:
                continue
            assert divisor_sum(a * b) == divisor_sum(a) * divisor_sum(b)
            done += 1


def test_criterion_5_ring_laws():
    with criterion("criterion-5 ring-laws"):
        rng = random.Random(58201)
        for _ in range(200):
            f, g, h = (
                QSeries([rng.randint(-50, 50) for _ in range(20)]) for _ in range(3)
            )
            fg = f * g
            assert f + g == g + f
            assert fg == g * f
            assert (f + g) + h == f + (g + h)
            assert fg * h == f * (g * h)
            assert f * (g + h) == fg + f * h
            assert fg.q_derivative() == f.q_derivative() * g + f * g.q_derivative()


def test_criterion_6_fls_two_one():
    with criterion("criterion-6 fls-genus-2-one-node"):
        closed = invariant(InvariantKind.FLS, 2, 1)
        via_identity = (
            Fraction(1, 2 - 1) * generating_series(InvariantKind.N12, 2, 3)
        ).coefficient(2)
        brute = count_fls(2, 1)
        assert closed == 12
        assert via_identity == 12
        assert brute == 12
        assert closed == 2 * 2 * divisor_sum(2)
