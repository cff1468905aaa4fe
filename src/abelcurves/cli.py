"""Command-line front end: single counts, tables, raw series, verification.

    abelcurves coeff  --kind fls --genus 5 --nodes 7
    abelcurves table  --kind n --gmin 2 --gmax 5 --nmin 0 --nmax 7 --format csv
    abelcurves series --kind n34 --genus 2 --prec 5
    abelcurves verify

Exit codes: 0 success, 1 verification mismatch, 2 any other failure.
All output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import golden as golden_tables
from . import modular, oracle
from .modular import InvariantKind
from .qseries import to_integer

__all__ = [
    "CheckResult",
    "CountTable",
    "SOURCE_CLOSED",
    "SOURCE_ORACLE",
    "build_count_table",
    "main",
    "run_verification",
]

SOURCE_CLOSED = "closed_form"
SOURCE_ORACLE = "oracle"


def _cell_value(kind: InvariantKind, g: int, n: int, source: str) -> int:
    if source == SOURCE_CLOSED:
        return modular.invariant(kind, g, n)
    if source == SOURCE_ORACLE:
        return oracle.count_invariant(kind, g, n)
    raise ValueError(f"unknown source: {source!r}")


@dataclass(frozen=True)
class CountTable:
    """A rectangle of invariant values: rows over genus, columns over nodes."""

    kind: InvariantKind
    g_range: tuple[int, int]
    n_range: tuple[int, int]
    source: str
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if [len(row) for row in self.values] != [len(self.nodes)] * len(self.genera):
            raise ValueError(
                f"values do not fill g_range {self.g_range} x n_range {self.n_range}"
            )

    @property
    def genera(self) -> range:
        return range(self.g_range[0], self.g_range[1] + 1)

    @property
    def nodes(self) -> range:
        return range(self.n_range[0], self.n_range[1] + 1)

    def cell(self, g: int, n: int) -> int:
        if g not in self.genera or n not in self.nodes:
            raise IndexError(
                f"cell (g={g}, n={n}) outside g_range {self.g_range} "
                f"x n_range {self.n_range}"
            )
        return self.values[g - self.g_range[0]][n - self.n_range[0]]

    def to_markdown(self) -> str:
        header = [self.kind.value] + [f"n={n}" for n in self.nodes]
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("| " + " | ".join(["---"] * len(header)) + " |")
        for g, row in zip(self.genera, self.values):
            cells = [f"g={g}"] + [str(v) for v in row]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["g\\n," + ",".join(str(n) for n in self.nodes)]
        for g, row in zip(self.genera, self.values):
            lines.append(str(g) + "," + ",".join(str(v) for v in row))
        return "\n".join(lines)

    def to_json(self) -> str:
        # Values go out as decimal strings so consumers with fixed-width
        # integers cannot silently overflow.
        return json.dumps(
            {
                "kind": self.kind.value,
                "g_range": list(self.g_range),
                "n_range": list(self.n_range),
                "source": self.source,
                "values": [[str(v) for v in row] for row in self.values],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CountTable":
        data = json.loads(text)
        return cls(
            kind=InvariantKind(data["kind"]),
            g_range=tuple(data["g_range"]),
            n_range=tuple(data["n_range"]),
            source=data["source"],
            values=tuple(tuple(int(v) for v in row) for row in data["values"]),
        )


def build_count_table(
    kind: InvariantKind,
    g_range: tuple[int, int],
    n_range: tuple[int, int],
    source: str = SOURCE_CLOSED,
) -> CountTable:
    kind = InvariantKind(kind)
    g_lo, g_hi = g_range
    n_lo, n_hi = n_range
    if g_lo > g_hi or n_lo > n_hi:
        raise ValueError("table ranges must be nonempty")
    if g_lo < kind.min_genus:
        raise ValueError(
            f"kind {kind.value!r} needs genus >= {kind.min_genus}, got {g_lo}"
        )
    if n_lo < 0:
        raise ValueError("node count must be >= 0")
    values = tuple(
        tuple(_cell_value(kind, g, n, source) for n in range(n_lo, n_hi + 1))
        for g in range(g_lo, g_hi + 1)
    )
    return CountTable(kind, (g_lo, g_hi), (n_lo, n_hi), source, values)


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, cells, fail, summary) -> CheckResult:
    """FAIL with ``fail`` formatted from the first cell ``(where, a, b)``
    where a != b, PASS with ``summary`` when every cell agrees."""
    for where, a, b in cells:
        if a != b:
            return CheckResult(name, False, fail.format(where=where, a=a, b=b))
    return CheckResult(name, True, summary)


def _grid(label, genera, nodes, pair):
    """The cells ``(where, *pair(g, n))`` over genera x nodes, genus-major."""
    return ((f"{label}, g={g}, n={n}", *pair(g, n)) for g in genera for n in nodes)


def _cell_count(genera, nodes) -> str:
    if not genera:
        return "0 cells (range empty)"
    return f"{len(genera) * len(nodes)} cells"


def run_verification(g_max=5, n_max=7, sigma_max=200, golden=None) -> list[CheckResult]:
    """Run every self-check and return one result per check.

    Every closed-form cell is read off one generating series per (kind, g),
    computed once to q^(n_max+g); the oracle side is counted cell by cell.
    ``golden`` overrides the embedded reference tables (used by the tests
    to prove a corrupted cell is actually caught).
    """
    if g_max < 1 or n_max < 0 or sigma_max < 1:
        raise ValueError("verification bounds out of range")
    if golden is None:
        golden = golden_tables.TABLES
    N, FLS, N12, N34 = (InvariantKind.N, InvariantKind.FLS,
                        InvariantKind.N12, InvariantKind.N34)
    nodes = range(n_max + 1)

    @functools.cache
    def series(kind, g):
        return modular.generating_series(kind, g, n_max + g)

    def cell(kind, g, n):
        # The cells n = 0..n_max of one genus are one slice of one series.
        return to_integer(series(kind, g).coefficient(n + g - 1))

    (gold_g_lo, gold_g_hi), (gold_n_lo, gold_n_hi) = (
        golden_tables.GENUS_RANGE, golden_tables.NODE_RANGE)
    gold_genera = range(gold_g_lo, min(gold_g_hi, g_max) + 1)
    gold_nodes = range(gold_n_lo, min(gold_n_hi, n_max) + 1)
    results = [
        _check(
            f"golden-{kind.value}",
            _grid(kind.value, gold_genera, gold_nodes, lambda g, n: (
                golden[kind][g - gold_g_lo][n - gold_n_lo], cell(kind, g, n))),
            "({where}): reference={a} closed_form={b}",
            _cell_count(gold_genera, gold_nodes),
        )
        for kind in (FLS, N)
    ]
    results += [
        _check(
            f"oracle-{kind.value}",
            _grid(kind.value, range(kind.min_genus, g_max + 1), nodes, lambda g, n: (
                cell(kind, g, n), oracle.count_invariant(kind, g, n))),
            "({where}): closed_form={a} oracle={b}",
            _cell_count(range(kind.min_genus, g_max + 1), nodes),
        )
        for kind in (N, FLS, N12, N34)
    ]
    return results + [
        _check(
            "identity-scaling",
            _grid("n", range(1, g_max + 1), nodes, lambda g, n: (
                cell(N, g, n), g * cell(N34, g, n))),
            "({where}): n={a} g*n34={b}",
            f"g<={g_max} n<={n_max}",
        ),
        _check(
            "identity-node-shift",
            _grid("n12", range(1, g_max + 1), nodes, lambda g, n: (
                cell(N12, g, n), (n + g - 1) * cell(N34, g, n))),
            "({where}): n12={a} (n+g-1)*n34={b}",
            f"g<={g_max} n<={n_max}",
        ),
        _check(
            "identity-fls-ratio",
            _grid("fls", range(2, g_max + 1), nodes, lambda g, n: (
                (g - 1) * cell(FLS, g, n), cell(N12, g, n))),
            "({where}): (g-1)*fls={a} n12={b}",
            f"2<=g<={g_max} n<={n_max}" if g_max >= 2 else "range empty",
        ),
        _check(
            "identity-fls-series",
            (
                (f"fls, g={g}, q^{k}", direct, derived)
                for g in range(2, g_max + 1)
                for k, (direct, derived) in enumerate(zip(
                    series(FLS, g), modular.fls_identity_series(g, n_max + g)))
            ),
            "({where}): direct={a} derived={b}",
            f"2<=g<={g_max}" if g_max >= 2 else "range empty",
        ),
        _check(
            "vanishing",
            (
                (f"{kind.value}, g={g}, n={n}", 0, cell(kind, g, n))
                for kind in InvariantKind if kind.vanishes
                for g in range(1, g_max + 1)
                for n in nodes
            ),
            "({where}): expected={a} closed_form={b}",
            f"4 kinds, g<={g_max} n<={n_max}",
        ),
        _check(
            "sigma-sublattice",
            (
                (f"k={k}", oracle.sublattice_count(k), oracle.divisor_sum(k))
                for k in range(1, sigma_max + 1)
            ),
            "{where}: sublattice_count={a} divisor_sum={b}",
            f"k<={sigma_max}",
        ),
    ]


# --- commands ---------------------------------------------------------------


_SOURCES = {"closed": SOURCE_CLOSED, "oracle": SOURCE_ORACLE}


class _SourceAction(argparse.Action):
    """Store ``--source closed|oracle`` as SOURCE_CLOSED or SOURCE_ORACLE."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, _SOURCES[value])


def cmd_coeff(args) -> int:
    print(_cell_value(InvariantKind(args.kind), args.genus, args.nodes, args.source))
    return 0


def cmd_table(args) -> int:
    table = build_count_table(
        InvariantKind(args.kind), (args.gmin, args.gmax), (args.nmin, args.nmax),
        args.source,
    )
    if args.format == "md":
        print(table.to_markdown())
    elif args.format == "csv":
        print(table.to_csv())
    else:
        print(table.to_json())
    return 0


def cmd_series(args) -> int:
    kind = InvariantKind(args.kind)
    series = modular.generating_series(kind, args.genus, args.prec)
    coeffs = [to_integer(c) for c in series]
    if args.format == "md":
        print(" ".join(f"{k}:{c}" for k, c in enumerate(coeffs)))
    elif args.format == "csv":
        rows = (f"{k},{c}" for k, c in enumerate(coeffs))
        print("exponent,coefficient", *rows, sep="\n")
    else:
        payload = {
            "kind": kind.value,
            "genus": args.genus,
            "prec": len(coeffs),
            "coefficients": [str(c) for c in coeffs],
        }
        print(json.dumps(payload))
    return 0


def cmd_verify(args) -> int:
    results = run_verification(args.gmax, args.nmax, args.sigma_max)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    return 0 if all(r.passed for r in results) else 1


def _parser() -> argparse.ArgumentParser:
    kinds = [k.value for k in InvariantKind]
    parser = argparse.ArgumentParser(
        prog="abelcurves",
        description="Exact curve counts in primitive classes on Abelian surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="print a single invariant value")
    coeff.add_argument("--kind", required=True, choices=kinds)
    coeff.add_argument("--genus", required=True, type=int)
    coeff.add_argument("--nodes", required=True, type=int)
    coeff.add_argument(
        "--source", choices=_SOURCES, default=SOURCE_CLOSED, action=_SourceAction
    )
    coeff.set_defaults(func=cmd_coeff)

    table = sub.add_parser("table", help="print a rectangle of invariant values")
    table.add_argument("--kind", required=True, choices=kinds)
    table.add_argument("--gmin", required=True, type=int)
    table.add_argument("--gmax", required=True, type=int)
    table.add_argument("--nmin", required=True, type=int)
    table.add_argument("--nmax", required=True, type=int)
    table.add_argument("--format", choices=["md", "csv", "json"], default="md")
    table.add_argument(
        "--source", choices=_SOURCES, default=SOURCE_CLOSED, action=_SourceAction
    )
    table.set_defaults(func=cmd_table)

    series = sub.add_parser("series", help="print generating-series coefficients")
    series.add_argument("--kind", required=True, choices=kinds)
    series.add_argument("--genus", required=True, type=int)
    series.add_argument("--prec", required=True, type=int)
    series.add_argument("--format", choices=["md", "csv", "json"], default="md")
    series.set_defaults(func=cmd_series)

    verify = sub.add_parser("verify", help="run the self-contained check suite")
    verify.add_argument("--gmax", type=int, default=5)
    verify.add_argument("--nmax", type=int, default=7)
    verify.add_argument("--sigma-max", dest="sigma_max", type=int, default=200)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for verification mismatch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
