"""The benchmark's workloads: seeded CLI argv, work counts and output checks.

A workload is an endless sequence of iterations drawn from a seeded RNG;
one iteration is the list of argv the benchmark hands to
``python -m abelcurves``, one subprocess each.  Kinds and genera are dealt
from reshuffled decks rather than drawn independently, so every run covers
the whole range in about the same mix and its median does not hang on
which values one seed happened to pick.

The argv alone determines the work count and the expected output, so a
result can be checked and repeated from the argv recorded with it.
"""

from __future__ import annotations

import functools
import json
import random
from typing import Iterator

import reference

VERIFY_CHECKS = (
    "golden-fls", "golden-n",
    "oracle-n", "oracle-fls", "oracle-n12", "oracle-n34",
    "identity-scaling", "identity-node-shift", "identity-fls-ratio",
    "identity-fls-series", "vanishing", "sigma-sublattice",
)

SETUP_ARGV = ("coeff", "--kind", "n", "--genus", "1", "--nodes", "0")


def _deck(rng: random.Random, values) -> Iterator:
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def _series(kind: str, genus: int, prec: int) -> tuple[str, ...]:
    return ("series", "--kind", kind, "--genus", str(genus), "--prec", str(prec),
            "--format", "json")


def series_deep(rng: random.Random, tiny: bool = False) -> Iterator[list[tuple[str, ...]]]:
    """Two deep powers per iteration: genus 10-12 at prec ~500 and genus
    24-30 at prec ~250.  A few large Fraction multiplies dominate."""
    deep_g, deep_p, wide_g, wide_p = ((3, 4), 40, (5, 6), 20) if tiny else \
        ((10, 11, 12), 500, range(24, 31), 250)
    kinds, deep, wide = _deck(rng, reference.KINDS), _deck(rng, deep_g), _deck(rng, wide_g)
    while True:
        yield [
            _series(next(kinds), next(deep), deep_p + rng.randint(-4, 4)),
            _series(next(kinds), next(wide), wide_p + rng.randint(-2, 2)),
        ]


def table_wide(rng: random.Random, tiny: bool = False) -> Iterator[list[tuple[str, ...]]]:
    """One table of ~450 small cells per iteration, each computed on its own."""
    g_hi, n_hi = ((3,), (5, 6)) if tiny else ((10,), range(43, 47))
    kinds, g_his, n_his = _deck(rng, reference.KINDS), _deck(rng, g_hi), _deck(rng, n_hi)
    while True:
        kind = next(kinds)
        g_lo = 2 if kind == "fls" else 1
        yield [("table", "--kind", kind, "--gmin", str(g_lo), "--gmax", str(next(g_his)),
                "--nmin", "0", "--nmax", str(next(n_his)), "--format", "json")]


def verify_grid(rng: random.Random, tiny: bool = False) -> Iterator[list[tuple[str, ...]]]:
    """The check suite on a 7x16 grid; the seed does not change it."""
    argv = ("verify", "--gmax", "2", "--nmax", "3", "--sigma-max", "10") if tiny else \
        ("verify", "--gmax", "7", "--nmax", "16")
    while True:
        yield [argv]


WORKLOADS = {
    "series-deep": series_deep,
    "table-wide": table_wide,
    "verify-grid": verify_grid,
}


def _options(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def items(argv) -> int:
    """Work in one invocation: coefficients printed (series), cells printed
    (table), oracle-checked cells (verify) or 1 (coeff)."""
    opts = _options(argv)
    if argv[0] == "series":
        return int(opts["--prec"])
    if argv[0] == "table":
        return ((int(opts["--gmax"]) - int(opts["--gmin"]) + 1)
                * (int(opts["--nmax"]) - int(opts["--nmin"]) + 1))
    if argv[0] == "verify":
        g_max, n_max = int(opts.get("--gmax", 5)), int(opts.get("--nmax", 7))
        return sum(max(0, g_max - (2 if kind == "fls" else 1) + 1) * (n_max + 1)
                   for kind in reference.KINDS)
    return 1


@functools.lru_cache(maxsize=64)
def expected(argv: tuple[str, ...]):
    """The reference output of one invocation, in the form ``check`` compares."""
    opts = _options(argv)
    if argv[0] == "series":
        return reference.series(opts["--kind"], int(opts["--genus"]), int(opts["--prec"]))
    if argv[0] == "table":
        return reference.table(opts["--kind"], (int(opts["--gmin"]), int(opts["--gmax"])),
                               (int(opts["--nmin"]), int(opts["--nmax"])))
    if argv[0] == "verify":
        return [f"PASS {name}" for name in VERIFY_CHECKS]
    genus, nodes = int(opts["--genus"]), int(opts["--nodes"])
    return reference.table(opts["--kind"], (genus, genus), (nodes, nodes))[0][0]


def check(argv: tuple[str, ...], code: int, stdout: str, want=None) -> str | None:
    """None if the invocation succeeded with the reference output, else why
    not.  ``want`` overrides the reference (the self-tests corrupt it)."""
    if code != 0:
        return f"exit code {code}"
    if want is None:
        want = expected(argv)
    try:
        if argv[0] == "series":
            opts = _options(argv)
            data = json.loads(stdout)
            header = (data["kind"], data["genus"], data["prec"])
            if header != (opts["--kind"], int(opts["--genus"]), int(opts["--prec"])):
                return f"series header {header}"
            got = [int(c) for c in data["coefficients"]]
        elif argv[0] == "table":
            got = [[int(v) for v in row] for row in json.loads(stdout)["values"]]
        elif argv[0] == "verify":
            got = [line.split(":", 1)[0] for line in stdout.splitlines()]
        else:
            got = int(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if got != want:
        return f"output differs from the reference: {_first_difference(got, want)}"
    return None


def _first_difference(got, want) -> str:
    if isinstance(got, list) and isinstance(want, list):
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"at [{i}]: got {a!r:.80}, expected {b!r:.80}"
        return f"length {len(got)}, expected {len(want)}"
    return f"got {got!r:.80}, expected {want!r:.80}"
