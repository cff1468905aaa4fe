import json
import os
import pathlib
import subprocess
import sys

import pytest

from abelcurves.cli import (
    CheckResult,
    CountTable,
    SOURCE_CLOSED,
    SOURCE_ORACLE,
    build_count_table,
    main,
    run_verification,
)
from abelcurves.modular import InvariantKind

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- coeff ------------------------------------------------------------------


def test_coeff_closed_form(capsys):
    code, out, err = run(capsys, "coeff", "--kind", "fls", "--genus", "5", "--nodes", "7")
    assert code == 0
    assert out == "1169520\n"
    assert err == ""


def test_coeff_oracle_source_agrees(capsys):
    for kind, g, n in (("n", 3, 2), ("fls", 4, 1), ("n12", 2, 1), ("zero23", 3, 3)):
        closed = run(capsys, "coeff", "--kind", kind, "--genus", str(g), "--nodes", str(n))
        oracle = run(
            capsys,
            "coeff", "--kind", kind, "--genus", str(g), "--nodes", str(n),
            "--source", "oracle",
        )
        assert closed[0] == oracle[0] == 0
        assert closed[1] == oracle[1]


def test_coeff_genus_one_point_count(capsys):
    code, out, _ = run(capsys, "coeff", "--kind", "n", "--genus", "1", "--nodes", "0")
    assert code == 0
    assert out == "1\n"


def test_coeff_fls_genus_one_is_domain_error(capsys):
    code, out, err = run(capsys, "coeff", "--kind", "fls", "--genus", "1", "--nodes", "3")
    assert code == 2
    assert out == ""
    assert "error:" in err


# --- series -----------------------------------------------------------------


def test_series_default_listing(capsys):
    code, out, _ = run(capsys, "series", "--kind", "n34", "--genus", "2", "--prec", "5")
    assert code == 0
    assert out == "0:0 1:1 2:6 3:12 4:28\n"


def test_series_fls_listing(capsys):
    code, out, _ = run(capsys, "series", "--kind", "fls", "--genus", "2", "--prec", "5")
    assert code == 0
    assert out == "0:0 1:1 2:12 3:36 4:112\n"


def test_series_genus_one(capsys):
    code, out, _ = run(capsys, "series", "--kind", "n", "--genus", "1", "--prec", "3")
    assert code == 0
    assert out == "0:1 1:0 2:0\n"


def test_series_csv(capsys):
    code, out, _ = run(
        capsys, "series", "--kind", "n34", "--genus", "2", "--prec", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out == "exponent,coefficient\n0,0\n1,1\n2,6\n"


def test_series_json(capsys):
    code, out, _ = run(
        capsys, "series", "--kind", "fls", "--genus", "3", "--prec", "6",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "kind": "fls",
        "genus": 3,
        "prec": 6,
        "coefficients": ["0", "0", "1", "18", "120", "500"],
    }


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_series_rejects_fractional_coefficient(capsys, monkeypatch, fmt):
    from fractions import Fraction

    from abelcurves.qseries import QSeries

    monkeypatch.setattr(
        "abelcurves.modular.generating_series",
        lambda kind, g, prec: QSeries([Fraction(1, 2)] * prec),
    )
    code, out, err = run(
        capsys, "series", "--kind", "n", "--genus", "2", "--prec", "2", "--format", fmt,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: expected an integer")


def test_series_bad_prec(capsys):
    code, _, err = run(capsys, "series", "--kind", "n", "--genus", "2", "--prec", "0")
    assert code == 2
    assert "error:" in err


# --- table ------------------------------------------------------------------


def test_table_csv_layout(capsys):
    code, out, _ = run(
        capsys,
        "table", "--kind", "fls", "--gmin", "2", "--gmax", "3",
        "--nmin", "0", "--nmax", "4", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "g\\n,0,1,2,3,4\n"
        "2,1,12,36,112,150\n"
        "3,1,18,120,500,1620\n"
    )


def test_table_markdown_layout(capsys):
    code, out, _ = run(
        capsys,
        "table", "--kind", "fls", "--gmin", "2", "--gmax", "3",
        "--nmin", "0", "--nmax", "2",
    )
    assert code == 0
    assert out.splitlines() == [
        "| fls | n=0 | n=1 | n=2 |",
        "| --- | --- | --- | --- |",
        "| g=2 | 1 | 12 | 36 |",
        "| g=3 | 1 | 18 | 120 |",
    ]


def test_table_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "table", "--kind", "n", "--gmin", "2", "--gmax", "5",
        "--nmin", "0", "--nmax", "7", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "n"
    assert data["g_range"] == [2, 5]
    assert data["n_range"] == [0, 7]
    assert data["source"] == "closed_form"
    assert all(isinstance(v, str) for row in data["values"] for v in row)
    parsed = CountTable.from_json(out)
    assert parsed == build_count_table(InvariantKind.N, (2, 5), (0, 7), SOURCE_CLOSED)


def test_table_oracle_source_matches_closed(capsys):
    closed = run(
        capsys,
        "table", "--kind", "n34", "--gmin", "1", "--gmax", "4",
        "--nmin", "0", "--nmax", "5", "--format", "csv",
    )
    oracle = run(
        capsys,
        "table", "--kind", "n34", "--gmin", "1", "--gmax", "4",
        "--nmin", "0", "--nmax", "5", "--format", "csv", "--source", "oracle",
    )
    assert closed[0] == oracle[0] == 0
    assert closed[1] == oracle[1]


def test_table_zero_kind_is_all_zeros(capsys):
    code, out, _ = run(
        capsys,
        "table", "--kind", "zero14", "--gmin", "1", "--gmax", "3",
        "--nmin", "0", "--nmax", "3", "--format", "csv",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[1:] == ["0", "0", "0", "0"]


def test_table_oracle_zero_kind_has_no_work_limit():
    table = build_count_table(InvariantKind.ZERO13, (1, 40), (0, 40), SOURCE_ORACLE)
    assert table.values == ((0,) * 41,) * 40


def test_table_rejects_bad_ranges(capsys):
    code, _, err = run(
        capsys,
        "table", "--kind", "fls", "--gmin", "1", "--gmax", "4",
        "--nmin", "0", "--nmax", "3",
    )
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys,
        "table", "--kind", "n", "--gmin", "4", "--gmax", "2",
        "--nmin", "0", "--nmax", "3",
    )
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys,
        "table", "--kind", "n", "--gmin", "1", "--gmax", "2",
        "--nmin", "-2", "--nmax", "3",
    )
    assert code == 2 and "error:" in err


def test_count_table_cell_accessor():
    table = build_count_table(InvariantKind.FLS, (2, 4), (0, 3), SOURCE_CLOSED)
    assert table.cell(2, 1) == 12
    assert table.cell(4, 3) == 1464
    oracle_table = build_count_table(InvariantKind.FLS, (2, 4), (0, 3), SOURCE_ORACLE)
    assert oracle_table.values == table.values
    assert oracle_table.source == "oracle"


def test_count_table_cell_rejects_out_of_range():
    table = build_count_table(InvariantKind.N, (2, 3), (0, 4), SOURCE_CLOSED)
    assert table.cell(3, 4) == table.values[1][4]
    for g, n in ((1, 0), (4, 0), (2, -1), (2, 5)):
        with pytest.raises(IndexError):
            table.cell(g, n)


def test_count_table_from_json_rejects_wrong_shape():
    good = build_count_table(InvariantKind.N, (2, 5), (0, 7), SOURCE_CLOSED)
    data = json.loads(good.to_json())
    for values in ([["1"]], data["values"][:-1], [row[:-1] for row in data["values"]]):
        with pytest.raises(ValueError):
            CountTable.from_json(json.dumps({**data, "values": values}))


# --- verify -----------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS ") for line in lines)
    assert err == ""


def test_verify_degenerate_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--gmax", "1", "--nmax", "0", "--sigma-max", "1")
    assert code == 0
    assert all(line.startswith("PASS ") for line in out.splitlines())


def test_verify_rejects_bad_bounds(capsys):
    code, _, err = run(capsys, "verify", "--gmax", "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "verify", "--sigma-max", "0")
    assert code == 2 and "error:" in err


def _corrupted_tables():
    from abelcurves import golden

    rows = [list(r) for r in golden.TABLES[InvariantKind.FLS]]
    rows[1][4] += 1  # g=3, n=4: 1620 -> 1621
    corrupted = dict(golden.TABLES)
    corrupted[InvariantKind.FLS] = tuple(tuple(r) for r in rows)
    return corrupted


def test_run_verification_catches_corrupted_cell(monkeypatch):
    monkeypatch.setattr("abelcurves.golden.TABLES", _corrupted_tables())
    results = run_verification()
    by_name = {r.name: r for r in results}
    failed = by_name["golden-fls"]
    assert not failed.passed
    assert "g=3" in failed.detail and "n=4" in failed.detail
    assert "1621" in failed.detail and "1620" in failed.detail
    assert by_name["golden-n"].passed


def test_verify_exit_one_on_corrupted_golden(capsys, monkeypatch):
    monkeypatch.setattr("abelcurves.golden.TABLES", _corrupted_tables())
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL golden-fls" in out


def test_run_verification_reads_one_series_per_kind_and_genus(monkeypatch):
    from abelcurves import cli, modular

    series_calls, table_calls = [], []
    generating_series = modular.generating_series

    def counted_series(kind, g, prec):
        series_calls.append((InvariantKind(kind), g))
        return generating_series(kind, g, prec)

    def counted_table(*args, **kwargs):
        table_calls.append(args)
        return build_count_table(*args, **kwargs)

    monkeypatch.setattr(modular, "generating_series", counted_series)
    monkeypatch.setattr(cli, "build_count_table", counted_table)
    assert all(r.passed for r in run_verification(7, 16))
    assert len(series_calls) == len(set(series_calls)) <= 55
    assert table_calls == []


def test_run_verification_rejects_bad_bounds():
    with pytest.raises(ValueError):
        run_verification(g_max=0)
    with pytest.raises(ValueError):
        run_verification(n_max=-1)


def test_run_verification_refuses_oversized_grid_before_any_series(monkeypatch):
    from abelcurves import modular

    calls = []
    monkeypatch.setattr(modular, "generating_series", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="g=12, n=16 needs more than WORK_LIMIT"):
        run_verification(12, 16)
    assert calls == []


def test_run_verification_bounds_sigma_max_by_work_limit(monkeypatch):
    from abelcurves import oracle

    # 4471 * 4472 / 2 divisor candidates fit in WORK_LIMIT, 4472 * 4473 / 2 do not
    calls = []
    monkeypatch.setattr(
        oracle, "sublattice_count", lambda k: calls.append(k) or oracle.divisor_sum(k)
    )
    by_name = {r.name: r for r in run_verification(sigma_max=4471)}
    assert by_name["sigma-sublattice"] == CheckResult("sigma-sublattice", True, "k<=4471")
    assert calls == list(range(1, 4472))
    calls.clear()
    with pytest.raises(ValueError, match="k=4472 need more than WORK_LIMIT"):
        run_verification(sigma_max=4472)
    assert calls == []


# --- exit codes and determinism ---------------------------------------------


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["coeff", "--kind", "bogus", "--genus", "2", "--nodes", "0"],
        ["coeff", "--genus", "2", "--nodes", "0"],
        ["series", "--kind", "n", "--genus", "2"],
        ["nonsense"],
        [],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        capsys.readouterr()
        assert excinfo.value.code == 2


def test_output_is_deterministic(capsys):
    args = (
        "table", "--kind", "fls", "--gmin", "2", "--gmax", "5",
        "--nmin", "0", "--nmax", "7", "--format", "json",
    )
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def _run_process(*args, timeout=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "abelcurves", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_process_coeff():
    proc = _run_process("coeff", "--kind", "fls", "--genus", "5", "--nodes", "7")
    assert proc.returncode == 0
    assert proc.stdout == "1169520\n"


def test_process_exit_codes():
    assert _run_process("verify", "--sigma-max", "50").returncode == 0
    assert _run_process("coeff", "--kind", "fls", "--genus", "1", "--nodes", "0").returncode == 2
    assert _run_process("table", "--kind", "n").returncode == 2


@pytest.mark.parametrize("args", [
    ("series", "--kind", "n", "--genus", "2", "--prec", "99999999999999999999"),
    ("coeff", "--kind", "n", "--genus", "2", "--nodes", "99999999999999999999"),
])
def test_process_overflow_is_domain_error(args):
    proc = _run_process(*args)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_process_oracle_over_work_limit_exits_two():
    # 1.03e10 composition parts to walk: refused before enumerating
    proc = _run_process(
        "coeff", "--kind", "n", "--genus", "12", "--nodes", "40", "--source", "oracle",
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "WORK_LIMIT = 10000000" in proc.stderr


def test_process_verify_over_work_limit_exits_two():
    # the largest oracle cell, g=12 n=16, is over the limit: refused up front
    proc = _run_process("verify", "--gmax", "12", "--nmax", "16", timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "g=12, n=16" in proc.stderr and "WORK_LIMIT" in proc.stderr


def test_process_verify_sigma_max_over_work_limit_exits_two():
    # 5e9 divisor candidates to scan: refused up front
    proc = _run_process("verify", "--sigma-max", "100000", timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "k=100000" in proc.stderr and "WORK_LIMIT" in proc.stderr


def test_process_oracle_table_over_work_limit_exits_two():
    # the largest cell, g=12 n=14, is over the limit: refused before g=1
    proc = _run_process(
        "table", "--kind", "n", "--gmin", "1", "--gmax", "12", "--nmin", "0",
        "--nmax", "14", "--source", "oracle", timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert "g=12, n=14" in proc.stderr and "WORK_LIMIT" in proc.stderr


def test_unexpected_exception_exits_two(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("abelcurves.oracle.count_invariant", broken)
    code, out, err = run(
        capsys, "coeff", "--kind", "n", "--genus", "2", "--nodes", "1",
        "--source", "oracle",
    )
    assert (code, out, err) == (2, "", "internal error: RuntimeError: boom\n")


def test_process_determinism():
    args = ("series", "--kind", "n12", "--genus", "4", "--prec", "12", "--format", "json")
    assert _run_process(*args).stdout == _run_process(*args).stdout


# --- pinned verify output ----------------------------------------------------


def _verify_lines(*bounds):
    return [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
        for r in run_verification(*bounds)
    ]


PASSING_LINES = {
    (5, 7, 20): [
        "PASS golden-fls: 32 cells",
        "PASS golden-n: 32 cells",
        "PASS oracle-n: 40 cells",
        "PASS oracle-fls: 32 cells",
        "PASS oracle-n12: 40 cells",
        "PASS oracle-n34: 40 cells",
        "PASS identity-scaling: g<=5 n<=7",
        "PASS identity-node-shift: g<=5 n<=7",
        "PASS identity-fls-ratio: 2<=g<=5 n<=7",
        "PASS identity-fls-series: 2<=g<=5",
        "PASS vanishing: 4 kinds, g<=5 n<=7",
        "PASS sigma-sublattice: k<=20",
    ],
    (1, 0, 1): [
        "PASS golden-fls: 0 cells (range empty)",
        "PASS golden-n: 0 cells (range empty)",
        "PASS oracle-n: 1 cells",
        "PASS oracle-fls: 0 cells (range empty)",
        "PASS oracle-n12: 1 cells",
        "PASS oracle-n34: 1 cells",
        "PASS identity-scaling: g<=1 n<=0",
        "PASS identity-node-shift: g<=1 n<=0",
        "PASS identity-fls-ratio: range empty",
        "PASS identity-fls-series: range empty",
        "PASS vanishing: 4 kinds, g<=1 n<=0",
        "PASS sigma-sublattice: k<=1",
    ],
    (2, 3, 10): [
        "PASS golden-fls: 4 cells",
        "PASS golden-n: 4 cells",
        "PASS oracle-n: 8 cells",
        "PASS oracle-fls: 4 cells",
        "PASS oracle-n12: 8 cells",
        "PASS oracle-n34: 8 cells",
        "PASS identity-scaling: g<=2 n<=3",
        "PASS identity-node-shift: g<=2 n<=3",
        "PASS identity-fls-ratio: 2<=g<=2 n<=3",
        "PASS identity-fls-series: 2<=g<=2",
        "PASS vanishing: 4 kinds, g<=2 n<=3",
        "PASS sigma-sublattice: k<=10",
    ],
}


@pytest.mark.parametrize("bounds", sorted(PASSING_LINES))
def test_verify_output_is_pinned(bounds):
    assert _verify_lines(*bounds) == PASSING_LINES[bounds]


def test_verify_fail_lines_are_pinned(monkeypatch):
    from abelcurves import modular
    from abelcurves.qseries import QSeries

    # (kind, g) -> (exponent, delta): one corrupted coefficient per series,
    # applied whenever the series is computed far enough to contain it.
    faults = {
        (InvariantKind.N34, 3): (4, 1),
        (InvariantKind.FLS, 4): (5, 1),
        (InvariantKind.ZERO13, 2): (3, 1),
        (InvariantKind.N, 5): (8, -1),
    }
    original = modular.generating_series

    def corrupted(kind, g, prec):
        series = original(kind, g, prec)
        fault = faults.get((InvariantKind(kind), g))
        if fault is None or series.prec <= fault[0]:
            return series
        coeffs = list(series.coefficients)
        coeffs[fault[0]] += fault[1]
        return QSeries(coeffs)

    monkeypatch.setattr(modular, "generating_series", corrupted)
    assert _verify_lines(5, 7, 20) == [
        "FAIL golden-fls: (fls, g=4, n=2): reference=240 closed_form=241",
        "FAIL golden-n: (n, g=5, n=4): reference=47400 closed_form=47399",
        "FAIL oracle-n: (n, g=5, n=4): closed_form=47399 oracle=47400",
        "FAIL oracle-fls: (fls, g=4, n=2): closed_form=241 oracle=240",
        "PASS oracle-n12: 40 cells",
        "FAIL oracle-n34: (n34, g=3, n=2): closed_form=61 oracle=60",
        "FAIL identity-scaling: (n, g=3, n=2): n=180 g*n34=183",
        "FAIL identity-node-shift: (n12, g=3, n=2): n12=240 (n+g-1)*n34=244",
        "FAIL identity-fls-ratio: (fls, g=4, n=2): (g-1)*fls=723 n12=720",
        "FAIL identity-fls-series: (fls, g=4, q^5): direct=241 derived=240",
        "FAIL vanishing: (zero13, g=2, n=2): expected=0 closed_form=1",
        "PASS sigma-sublattice: k<=20",
    ]
