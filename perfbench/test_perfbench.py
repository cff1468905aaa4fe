"""Self-tests of the benchmark: reference, smoke runs, and failure detection.

    python3 -m pytest perfbench -q

Not part of the package's test suite (``testpaths`` names ``tests`` only).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(*argv: str) -> str:
    return subprocess.run([sys.executable, "-m", "abelcurves", *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
                          text=True, check=True).stdout


def test_reference_matches_published_tables():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from abelcurves import golden
    finally:
        sys.path.remove(str(ROOT / "src"))
    fls, n = golden.FIXED_LINEAR_SYSTEM, golden.POINT_COUNTS
    assert reference.table("fls", golden.GENUS_RANGE, golden.NODE_RANGE) == [list(r) for r in fls]
    assert reference.table("n", golden.GENUS_RANGE, golden.NODE_RANGE) == [list(r) for r in n]


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_same_seed_gives_same_argv():
    def first(seed):
        draws = workloads.series_deep(random.Random(seed))
        return [next(draws) for _ in range(5)]

    assert first("s:1") == first("s:1") != first("s:2")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    result = _result(_run(ROOT, workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    assert all(units[k] == v["unit"] for k, v in result["metrics"].items())


def test_check_accepts_real_output_and_rejects_corrupted_reference():
    argv = ("series", "--kind", "fls", "--genus", "4", "--prec", "12", "--format", "json")
    out = _cli(*argv)
    assert workloads.check(argv, 0, out) is None
    wrong = list(workloads.expected(argv))
    wrong[7] += 1
    assert "reference" in workloads.check(argv, 0, out, want=wrong)
    assert workloads.check(argv, 2, out) == "exit code 2"


def test_check_rejects_incomplete_or_failing_verify():
    argv = ("verify", "--gmax", "2", "--nmax", "2", "--sigma-max", "5")
    out = _cli(*argv)
    assert workloads.check(argv, 0, out) is None
    lines = out.splitlines()
    assert workloads.check(argv, 0, "\n".join(lines[:-1])) is not None
    assert workloads.check(argv, 0, "\n".join(lines).replace("PASS vanishing", "FAIL vanishing")) is not None


STUB_MAIN = '''
import contextlib, io, json, sys
from .cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main()
out = buf.getvalue()
if sys.argv[1] == "table":
    data = json.loads(out)
    data["values"][0][0] = str(int(data["values"][0][0]) + 1)
    out = json.dumps(data) + "\\n"
sys.stdout.write(out)
raise SystemExit(code)
'''


@pytest.mark.parametrize("trace", [0, 1])
def test_wrong_cli_output_is_counted_as_failure(tmp_path, trace):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src" / "abelcurves" / "__main__.py").write_text(STUB_MAIN)
    if trace:  # the traced run calls cli.main itself: corrupt a cell there
        modular = tmp_path / "src" / "abelcurves" / "modular.py"
        modular.write_text(modular.read_text().replace(
            "return to_integer(series.coefficient(index.exponent))",
            "return to_integer(series.coefficient(index.exponent)) + (g == 2 and n == 1)"))
    proc = _run(tmp_path, "table-wide", trace)
    result = _result(proc)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert "output differs from the reference" in proc.stdout


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "verify-grid")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
