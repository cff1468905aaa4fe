"""Benchmark the abelcurves CLI from outside, end to end or layer by layer.

    python3 perfbench/run.py --workload table-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every invocation is one subprocess,
``python -m abelcurves ...`` with PYTHONPATH set to the checkout's ``src``,
so nothing installed in site-packages takes part.  One invocation runs at a
time.  Iterations of the workload (see ``workloads.py``) run until their
measured time reaches ``--seconds``; each output is checked against a
plain-int reference computed outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates each
untraced iteration with a traced one (``tracer.py``) and reports per-layer
metrics.  Every figure is a median over the run's iterations; end-to-end
times are divided by the median time of a calibration job run before and
after each iteration (see README.md).  Human-readable lines come first;
the last line of stdout is one JSON object.  The full record (environment,
seed, every argv and sample) goes to
``.bench_results/<workload>-seed<n>-trace<t>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPAWN = Path(__file__).with_name("spawn.py")
CALIBRATION = Path(__file__).with_name("reference.py")
TRACER = Path(__file__).with_name("tracer.py")
SETUP_REPS = 5

# Times are gated as multiples of the calibration job (``reference.py`` run
# as a script) timed in the same run: a shared VM's speed can drift by up
# to 50% over minutes, which the ratio cancels.  Raw seconds are printed
# and kept in the record.
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_cal": "cal",
    "cpu_cal": "cal",
    "items_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "calibration_s": "s"}
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "max_bits": "bits",
                   "coef_pairs": "count", "compositions": "count",
                   "useful_ratio": "ratio", "import_s": "s", "overhead": "ratio"}

NOISE_NOTE = (
    "2-core shared VM: single-invocation wall and CPU times varied by 15-25% "
    "(verify 7 16: 2.0-2.9 s over 8 runs), so every figure is a median over "
    "the iterations of a run; machine speed also drifted by up to 50% over "
    "minutes, so end-to-end times are ratios to the calibration job."
)


class Invocation:
    """One finished subprocess, started and measured by ``spawn.py``: wall
    and CPU time, peak RSS, exit code and output."""

    def __init__(self, cmd: list[str], env: dict[str, str]):
        report_r, report_w = os.pipe()
        try:
            proc = subprocess.Popen([sys.executable, str(SPAWN), str(report_w), *cmd],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    env=env, cwd=ROOT, text=True, pass_fds=(report_w,))
        finally:
            os.close(report_w)
        with open(report_r) as report:
            self.stdout, self.stderr = proc.communicate()
            fields = report.read().split()
        if len(fields) != 4:
            raise RuntimeError(f"spawn.py failed for {cmd}: {self.stderr[-2000:]}")
        self.code = int(fields[0])
        self.wall_s, self.cpu_s = float(fields[1]), float(fields[2])
        self.rss_mb = int(fields[3]) / 1024


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_before": os.getloadavg(),
        "note": NOISE_NOTE,
    }


class Run:
    def __init__(self, workload: str, seed: int, tiny: bool):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.draws = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
        self.attempted = 0
        self.failures: list[dict] = []

    def _checked(self, argv, code, stdout) -> bool:
        self.attempted += 1
        reason = workloads.check(argv, code, stdout)
        if reason is not None:
            self.failures.append({"argv": list(argv), "reason": reason})
        return reason is None

    def cli(self, argv) -> Invocation:
        inv = Invocation([sys.executable, "-m", "abelcurves", *argv], self.env)
        if not self._checked(argv, inv.code, inv.stdout) and inv.stderr:
            self.failures[-1]["stderr"] = inv.stderr[-2000:]
        return inv

    def traced(self, argv) -> tuple[Invocation, dict]:
        inv = Invocation([sys.executable, str(TRACER), json.dumps(list(argv))], self.env)
        try:
            result = json.loads(inv.stdout)
        except ValueError:
            self._checked(argv, inv.code or 1, "")
            self.failures[-1]["stderr"] = inv.stderr[-2000:]
            return inv, {"spans": [], "import_s": 0.0}
        self._checked(argv, result["exit"], result["stdout"])
        return inv, result


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    run = Run(workload, seed, tiny)
    env_record = _environment()
    run.cli(workloads.SETUP_ARGV)  # warm-up: bytecode caches, page cache
    setup = [] if trace else [run.cli(workloads.SETUP_ARGV).wall_s for _ in range(SETUP_REPS)]
    iterations, calibrations, measured = [], [], 0.0
    for i, argvs in enumerate(run.draws):
        for argv in argvs:
            workloads.expected(argv)  # reference output, outside the timed region
        record = {"argv": [list(a) for a in argvs],
                  "items": sum(workloads.items(a) for a in argvs)}
        if not trace:  # set-up and calibration samples spread over the run
            setup.append(run.cli(workloads.SETUP_ARGV).wall_s)
            calibrations.append(_calibration(run))
        traced_first = trace and i % 2 == 1
        if traced_first:
            record.update(_traced_iteration(run, argvs))
        plain = [run.cli(argv) for argv in argvs]
        record.update(wall_s=sum(p.wall_s for p in plain), cpu_s=sum(p.cpu_s for p in plain),
                      rss_mb=max(p.rss_mb for p in plain))
        if trace and not traced_first:
            record.update(_traced_iteration(run, argvs))
        if not trace:
            calibrations.append(_calibration(run))
        iterations.append(record)
        measured += record["wall_s"] + record.get("traced_wall_s", 0.0)
        if measured >= seconds:
            break
    env_record["loadavg_after"] = os.getloadavg()
    for record in iterations[1:]:
        record.pop("spans", None)  # keep one iteration's spans; the file stays small

    median = lambda key: statistics.median(r[key] for r in iterations)
    raw = {}
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in iterations)
                   for name in iterations[0]["layers"]}
        metrics["process.import_s"] = median("import_s")
        metrics["trace.overhead"] = median("traced_wall_s") / median("wall_s")
        units = {name: PER_LAYER_UNITS[name.rsplit(".", 1)[1]] for name in metrics}
    else:
        raw = {
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in iterations),
            "calibration_s": statistics.median(c.wall_s for c in calibrations),
        }
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_cal": raw["wall_s"] / raw["calibration_s"],
            "cpu_cal": raw["cpu_s"] / statistics.median(c.cpu_s for c in calibrations),
            "items_per_cal": raw["items_per_s"] * raw["calibration_s"],
            "peak_rss_mb": max(r["rss_mb"] for r in iterations),
        }
        units = END_TO_END
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "environment": env_record,
        "attempted": run.attempted, "failed": len(run.failures),
        "error_rate": len(run.failures) / run.attempted, "failures": run.failures[:20],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "raw": {name: {"value": value, "unit": RAW_UNITS[name]} for name, value in raw.items()},
        "setup_samples_s": setup, "calibration_samples_s": [c.wall_s for c in calibrations],
        "iterations": iterations,
    }


def _calibration(run: Run) -> Invocation:
    calibration = Invocation([sys.executable, str(CALIBRATION)], run.env)
    if calibration.code != 0:
        raise RuntimeError(f"calibration job failed: {calibration.stderr[-2000:]}")
    return calibration


def _traced_iteration(run: Run, argvs) -> dict:
    results = [run.traced(argv) for argv in argvs]
    layers = tracer.summarize([result["spans"] for _, result in results])
    return {
        "traced_wall_s": sum(inv.wall_s for inv, _ in results),
        "import_s": statistics.median(result["import_s"] for _, result in results),
        "layers": layers,
        "spans": [result["spans"] for _, result in results],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input to a smoke-test size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "abelcurves" / "__main__.py").is_file():
        print(f"error: no abelcurves package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1))

    env = result["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['iterations'])} iterations, first argv "
          f"{result['iterations'][0]['argv']}")
    print(f"nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34} {metric['value']:.6g} {metric['unit']}")
    for name, metric in result["raw"].items():
        print(f"  {name:34} {metric['value']:.6g} {metric['unit']} (raw, not gated)")
    print(f"  {'error_rate':34} {result['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} invocations failed)")
    for failure in result["failures"][:3]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    print(f"full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
