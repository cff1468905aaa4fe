"""Exact curve counts in primitive classes on Abelian surfaces.

Counts of geometric genus-g curves with n nodes are coefficients of
quasi-modular generating series built from the Eisenstein series G2; this
package computes them in exact rational arithmetic and cross-checks every
closed form against an independent brute-force enumeration.
"""

from .modular import (
    GenusNodeIndex,
    InvariantKind,
    eisenstein_g2,
    fls_identity_series,
    generating_series,
    invariant,
)
from .oracle import (
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
from .qseries import IntegralityError, PrecisionError, QSeries, to_integer

__version__ = "0.1.0"

__all__ = [
    "GenusNodeIndex",
    "IntegralityError",
    "InvariantKind",
    "PrecisionError",
    "QSeries",
    "compositions",
    "count_fls",
    "count_invariant",
    "count_n",
    "count_n12",
    "count_n34",
    "divisor_sum",
    "eisenstein_g2",
    "fls_identity_series",
    "generating_series",
    "hermite_sublattices",
    "invariant",
    "sublattice_count",
    "to_integer",
]
