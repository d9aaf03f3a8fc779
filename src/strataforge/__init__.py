"""strata-forge: invariants and desk-scale statistics of hyperelliptic curves
over small finite fields.

The library computes, exactly and one curve at a time, the quantities a
p-rank/Newton-polygon census needs: zeta numerators, Hasse-Witt matrices,
Newton polygons, splitting-field and absolute-simplicity certificates,
symplectic baselines, the boundary-divisor catalog and degeneration
witnesses.  ``enumerate_monic`` lists the exhaustive families; there is no
census runner yet.
"""

SCHEMA_VERSION = "strata-forge/1"

from .errors import BudgetExceededError, ConsistencyError, ExperimentFailed  # noqa: E402,F401
from .ffield import (  # noqa: E402,F401
    FieldDescriptor,
    FqElement,
    FqPoly,
    enumerate_monic,
    field_new,
    is_square,
    poly_pow,
    squarefree,
)
