"""strata-forge: invariants and desk-scale statistics of hyperelliptic curves
over small finite fields.

The library computes, exactly and one curve at a time, the quantities a
p-rank/Newton-polygon census needs: zeta numerators, Hasse-Witt matrices,
Newton polygons, splitting-field and absolute-simplicity certificates,
symplectic baselines, the boundary-divisor catalog and degeneration
witnesses.  ``enumerate_monic`` lists the exhaustive families; there is no
census runner yet.  Curve models are ``FqPoly`` over a ``field_new``
descriptor; ``ffield.poly_mul`` and ``ffield.poly_squarefree`` are the
polynomial operations over F_q.
"""

SCHEMA_VERSION = "strata-forge/1"

from .errors import BudgetExceededError, ConsistencyError, ExperimentFailed  # noqa: E402,F401
from .ffield import FieldDescriptor, FqPoly, enumerate_monic, field_new  # noqa: E402,F401
