"""Self-similar states of the flow and the functional that selects them.

A body is a (shrinking) self-similar state exactly when u * det A = 1 on the
whole sphere, so max |u det A - 1| is the natural residual.  The variational
side: the functional

    J1(u) = avg log u - (1/(n+1)) log(avg u det A) + (1/2)(avg u det A - 1)^2

has the self-similar states as critical points.  Its first variation in a
direction rho collapses, through the self-adjointness of the mixed-volume
form (int u sigma_n^{ij}(A)(A_rho)_{ij} = int rho sigma_n^{ij}(A)(A_u)_{ij}),
to the pointwise Euler-Lagrange density

    1/u - det A / avg(u det A) + (n+1)(avg(u det A) - 1) det A

averaged against rho; no derivatives of the direction are needed.  The second
variation at the unit ball is the quadratic form ``stability_form``; it is
positive exactly on fields orthogonal to the constants and the first
harmonics, the neutral dilation/translation directions.

``solve_soliton`` drives the normalized flow (recentered: the Steiner point
stays at the origin) until the residual passes the tolerance, then audits the
endpoint: polar volume about the origin at least the unit-ball volume,
vanishing entropy-point condition (the Steiner and entropy points agree to
O(sup|u - 1|^2) at a round endpoint), small Euler-Lagrange residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .body import ConvexBody
from .constants import ball_volume
from .entropy import entropy_point
from .errors import ParameterError
from .flow import FlowConfig, run, soliton_residual
from .sphere import SphereGrid, average, degree_one

__all__ = [
    "SolitonReport",
    "j1_first_variation",
    "j1_value",
    "remove_first_harmonics",
    "solve_soliton",
    "stability_form",
]

DUAL_VOLUME_TOL = 1e-6


def j1_value(body: ConvexBody) -> float:
    """The selection functional; zero at the unit ball, scale-penalized.

    Volume normalization is not required: for a ball of radius r the first
    two terms cancel and the value is (1/2)(r^(n+1) - 1)^2.
    """
    grid = body.grid
    mean = float(average(grid, body.support * body.curvature.det_a))
    return (
        float(average(grid, np.log(body.support)))
        - log(mean) / (body.dim + 1)
        + 0.5 * (mean - 1.0) ** 2
    )


def _euler_lagrange_density(body: ConvexBody) -> np.ndarray:
    det_a = body.curvature.det_a
    mean = float(average(body.grid, body.support * det_a))
    return 1.0 / body.support - det_a / mean + (body.dim + 1) * (mean - 1.0) * det_a


def j1_first_variation(body: ConvexBody, direction) -> float:
    """Directional derivative of J1 at ``body`` along a support perturbation."""
    rho = body.grid.check_field(direction)
    return float(average(body.grid, rho * _euler_lagrange_density(body)))


def stability_form(grid: SphereGrid, eta) -> float:
    """Second variation of J1 at the unit ball, Q(eta) by quadrature.

    Q = avg |grad eta|^2 - (n+1) avg eta^2 + (n+1)(n+2) (avg eta)^2.
    On a degree-k harmonic this is (k(k+n-1) - (n+1)) avg eta^2 for k >= 1,
    negative only for k = 1; constants give (n+1)^2 c^2.
    """
    eta = grid.check_field(eta)
    n = grid.dim
    g = grid.derivative_bundle(eta).grad
    grad_sq = float(average(grid, np.sum(g * g, axis=1)))
    mean_sq = float(average(grid, eta * eta))
    mean = float(average(grid, eta))
    return grad_sq - (n + 1) * mean_sq + (n + 1) * (n + 2) * mean**2


def remove_first_harmonics(grid: SphereGrid, eta) -> np.ndarray:
    """Quadrature projection of a field onto the complement of span{1, x_j}.

    The basis is quadrature-orthogonal (polynomials of degree <= 2 are
    integrated exactly), so one pass leaves residual inner products at round-off.
    """
    eta = grid.check_field(eta)
    eta = eta - (grid.weights @ eta) / grid.area
    return eta - grid._linear(degree_one(grid, eta))


@dataclass(frozen=True)
class SolitonReport:
    """Endpoint audit of a soliton solve.

    ``dual_bound_pass`` is the polar-volume inequality V*(origin) >= V(B(1))
    up to quadrature tolerance; ``first_variation_residual`` is the max norm
    of the Euler-Lagrange density, and ``entropy_point_norm`` must vanish on
    a converged self-similar state (the origin is its distinguished point).
    A report with ``converged=False`` describes the state where the run
    stopped, not a soliton.
    """

    residual: float
    entropy_point_norm: float
    dual_volume_at_origin: float
    dual_bound_pass: bool
    j1: float
    first_variation_residual: float
    converged: bool
    t_final: float


def solve_soliton(body: ConvexBody, tol: float = 1e-6, t_end: float = 20.0):
    """Flow a volume-normalized body to a self-similar state.

    Returns (final body, SolitonReport).  Non-convergence by ``t_end`` is not
    an error: the report comes back with ``converged=False``.
    """
    if not tol > 0.0:
        raise ParameterError("tol must be positive")
    v_ball = ball_volume(body.dim)
    if abs(body.volume() - v_ball) > 1e-6 * v_ball:
        raise ParameterError("solve_soliton expects a volume-normalized body")
    cfg = FlowConfig(mode="normalized", t_end=t_end, soliton_tol=tol,
                     output_stride=50, recenter=True)
    trace, final = run(body, cfg)
    z_e = entropy_point(final)[0]
    dual = final.dual_volume()
    report = SolitonReport(
        residual=soliton_residual(final),
        entropy_point_norm=float(np.linalg.norm(z_e)),
        dual_volume_at_origin=dual,
        dual_bound_pass=dual >= v_ball - DUAL_VOLUME_TOL,
        j1=j1_value(final),
        first_variation_residual=float(np.max(np.abs(_euler_lagrange_density(final)))),
        converged=trace.converged,
        t_final=float(trace.last("t")),
    )
    return final, report
