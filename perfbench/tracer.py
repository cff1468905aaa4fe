"""Run one abelcurves CLI invocation in process, with a span around each
public call of the four layers, and print the spans as JSON.

    PYTHONPATH=src python3 perfbench/tracer.py '["table", "--kind", "n", ...]'

The package is not changed: wrappers are installed from outside.  QSeries
methods are patched on the class; ``modular``, ``oracle`` and ``cli``
functions through their module attributes, which callers look up at call
time.  Spans stay in memory and are written once, when the invocation
ends, as one JSON object on stdout:

    {"exit": 0, "stdout": "...", "import_s": 0.03, "spans": [...]}

Each span is ``[name, start, end, parent, excluded, attrs]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``excluded`` is time
the tracer itself spent inside the span outside any child, which self time
leaves out.  ``summarize`` turns the spans into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
import time

SERIES_KINDS = frozenset({"n", "fls", "n12", "n34"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name, fn, attrs=None, select=None):
        """Return ``fn`` with a span named ``name`` around each call.

        ``select(args)`` false lets a call through untraced; ``attrs(args,
        result)`` adds a dict of counts to the span, outside its timing.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if select is not None and not select(args):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
                if span[3] >= 0:
                    spans[span[3]][4] += clock() - span[2]
            return result

        return traced


def _mul_attrs(args, result):
    bits = max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in result.coefficients
    )
    return {"prec": result.prec, "bits": bits}


def _compositions(args, result):
    # Compositions of n+g-1 into g-1 positive parts that count_invariant
    # enumerates, from its arguments: binomial(n+g-2, g-2); at g = 1 only
    # the empty composition of 0.
    kind, g, n = args
    if getattr(kind, "value", kind) not in SERIES_KINDS:
        return {"compositions": 0}
    if g == 1:
        return {"compositions": int(n == 0)}
    return {"compositions": math.comb(n + g - 2, g - 2)}


def install(tracer: Tracer):
    """Install the wrappers; return the traced ``cli.main``."""
    from abelcurves import cli, modular, oracle
    from abelcurves.qseries import QSeries

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    patch(QSeries, "__init__", "qseries.init")
    patch(QSeries, "__mul__", "qseries.mul", attrs=_mul_attrs,
          select=lambda args: isinstance(args[1], QSeries))
    patch(QSeries, "__pow__", "qseries.pow")
    patch(QSeries, "q_derivative", "qseries.q_derivative")
    patch(modular, "invariant", "modular.invariant")
    patch(modular, "generating_series", "modular.generating_series",
          attrs=lambda args, result: {"prec": result.prec})
    patch(modular, "eisenstein_g2", "modular.eisenstein_g2")
    patch(oracle, "count_invariant", "oracle.count_invariant", attrs=_compositions)
    patch(oracle, "sublattice_count", "oracle.sublattice_count")
    patch(cli, "build_count_table", "cli.build_count_table")
    patch(cli, "run_verification", "cli.run_verification")
    for method in ("to_markdown", "to_csv", "to_json"):
        patch(cli.CountTable, method, "cli.format")
    return tracer.wrap("cli.main", cli.main)


# Per-layer metric names, in report order.  Spans named here get calls and
# self time; the rest are counts read from span attributes.
CALLS = ("qseries.mul", "qseries.pow", "qseries.init", "modular.invariant",
         "modular.generating_series", "modular.eisenstein_g2",
         "oracle.count_invariant")
SELF = ("qseries.mul", "qseries.pow", "qseries.init", "qseries.q_derivative",
        "modular.invariant", "modular.generating_series", "modular.eisenstein_g2",
        "oracle.count_invariant", "oracle.sublattice_count", "cli.main",
        "cli.build_count_table", "cli.run_verification", "cli.format")


def summarize(invocations: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics summed over the span lists of several invocations.

    ``qseries.mul.coef_pairs`` is computed, not counted: prec*(prec+1)/2
    coefficient products per series multiply, the work of the schoolbook
    kernel.  ``modular.useful_ratio`` divides the coefficients handed to the
    caller (1 per ``invariant`` call, the whole series otherwise) by the
    coefficients ``generating_series`` computed.
    """
    calls = dict.fromkeys(CALLS, 0)
    self_s = dict.fromkeys(SELF, 0.0)
    max_bits = coef_pairs = compositions = useful = computed = 0
    for spans in invocations:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, excluded, attrs) in enumerate(spans):
            if name in calls:
                calls[name] += 1
            self_s[name] += (end - start) - child_time[i] - excluded
            if name == "qseries.mul":
                max_bits = max(max_bits, attrs["bits"])
                coef_pairs += attrs["prec"] * (attrs["prec"] + 1) // 2
            elif name == "oracle.count_invariant":
                compositions += attrs["compositions"]
            elif name == "modular.generating_series":
                computed += attrs["prec"]
                in_invariant = parent >= 0 and spans[parent][0] == "modular.invariant"
                useful += 1 if in_invariant else attrs["prec"]
    metrics = {f"{name}.calls": float(n) for name, n in calls.items()}
    metrics.update({f"{name}.self_s": self_s[name] for name in SELF})
    metrics["qseries.mul.max_bits"] = float(max_bits)
    metrics["qseries.mul.coef_pairs"] = float(coef_pairs)
    metrics["oracle.compositions"] = float(compositions)
    metrics["modular.useful_ratio"] = useful / computed if computed else 0.0
    return metrics


def main() -> int:
    argv = json.loads(sys.argv[1])
    start = time.perf_counter()
    import abelcurves  # noqa: F401  (timed: the package import alone)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    traced_main = install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = traced_main(argv)
        except SystemExit as exc:
            code = exc.code
    json.dump(
        {"exit": code, "stdout": out.getvalue(), "import_s": import_s,
         "spans": tracer.spans},
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
