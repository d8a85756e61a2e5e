"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""

from numbers import Integral


class GcflabError(Exception):
    """Base class for all package errors."""


class ParameterError(GcflabError):
    """An argument is outside its documented domain (bad grid size, z not
    interior, too few samples, ...)."""


def _check_integer(name: str, value, low: int):
    """Raise ParameterError unless ``value`` is a (non-bool) integer >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")


class FieldShapeError(ParameterError):
    """A nodal field does not match the grid it is used with."""


class BodyValidityError(GcflabError):
    """A support function fails a convex-body invariant.

    ``invariant`` names the violated condition ("positivity" or
    "convexity") so callers can report it.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"invalid body [{invariant}]: {detail}")


class AliasingWarning(UserWarning):
    """A constructed field has non-negligible spectral content near the grid
    bandlimit; derived curvature may be under-resolved."""


class SnapshotError(GcflabError):
    """A snapshot or manifest file is structurally malformed (bad schema
    version, missing keys, node count mismatch)."""


class SolverError(GcflabError):
    """An iterative solver failed to converge or met an inconsistent state."""


class ConcavityError(SolverError):
    """The Newton model lost definiteness (should not happen for valid bodies)."""


class StepRejected(GcflabError):
    """Internal signal: an explicit step produced an invalid state."""


class StiffnessError(GcflabError):
    """Time stepping collapsed: the step size fell below its floor, or a
    fixed step (which is never shrunk) left the valid-body cone.

    Carries the last accepted state so it can be dumped for inspection.
    """

    def __init__(self, t: float, dt: float, body=None):
        self.t = t
        self.dt = dt
        self.body = body
        super().__init__(f"time step collapsed at t={t:.6g} (dt={dt:.3e})")
