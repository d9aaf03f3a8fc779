"""strata-forge: invariants and desk-scale statistics of hyperelliptic curves
over small finite fields.

The library computes, exactly and one curve at a time, the quantities a
p-rank/Newton-polygon census needs: zeta numerators, Hasse-Witt matrices,
Newton polygons, splitting-field and absolute-simplicity certificates,
symplectic baselines, the boundary-divisor catalog and degeneration
witnesses.  Curve models are ``FqPoly`` over a ``field_new`` descriptor;
``ffield.poly_mul`` and ``ffield.poly_squarefree`` are the polynomial
operations over F_q, and ``enumerate_monic`` lists a family off the
squarefree sieve ``ffield.squarefree_mask``.

Whole families run in numpy blocks (``strataforge.families``, imported on
demand, not here): exhaustive lists with the affine cut or seeded samples,
a batched Hasse-Witt p-rank, and the weighted count of each p-rank stratum.
There is no census runner yet.
"""

SCHEMA_VERSION = "strata-forge/1"

from .errors import BudgetExceededError, ConsistencyError, ExperimentFailed  # noqa: E402,F401
from .ffield import FieldDescriptor, FqPoly, enumerate_monic, field_new  # noqa: E402,F401
