"""Entropy functionals of convex bodies and their distinguished points.

The central object is

    F(z) = avg over S^n of log(u - <z, x>),

the spherical mean of the log support function about a reference point z.
Its supremum over interior z is the body's entropy E; the maximizer is the
entropy point z_e.  F is strictly concave in z, so a damped Newton iteration
on -F converges globally.  The Santalo point minimizes the polar volume, a
strictly convex objective, with the same Newton minimizer.

``entropy_report`` bundles the functional values with the inequality suite
they satisfy.  The scale constants in the radius/width bounds are derived by
this package (see :mod:`gcflab.constants`) and flagged as such in the report.

Monte Carlo routines re-derive the log integral and the polar mass-center
condition from the signed weighted-volume identity: for interior z,

    int log u_z dtheta = (int over B(1)-P_z minus int over P_z-B(1)) of |w|^-(n+1),

where P_z is the polar body about z (membership r * u_z(x) <= 1).  They are
deliberately independent of the quadrature pipeline: support values at random
directions come from off-grid spectral evaluation, and the sampler is a
counter-based generator split into fixed chunks so results do not depend on
how the sample range is partitioned.

The estimates read u only through that membership test, and most samples lie
far from the polar boundary.  So the sampler first evaluates the low-degree
part u_<=d in the grid's Cartesian screen kernel, with d the least degree
whose tail bound plus the kernel's round-off bound is a 1e-8 share of
sup |u|, and decides a sample from it wherever those bounds plus a round-off
margin cannot change the answer.  A chunk that holds an undecided sample
gets the full off-grid evaluation at all its directions, and so does every
chunk when no degree qualifies.  Every estimate is bit-identical to
evaluating u in full at every direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .body import ConvexBody, inradius
from .constants import (
    CONSTANT_PROVENANCE,
    ball_volume,
    inner_scale_constant,
    outer_scale_constant,
    santalo_support_constant,
)
from .errors import ConcavityError, ParameterError, SolverError, _check_integer
from .sphere import average

__all__ = [
    "EntropyReport",
    "InequalityCheck",
    "chow_entropy",
    "entropy_point",
    "entropy_report",
    "firey_entropy",
    "mc_log_integral",
    "mc_polar_mass_center",
    "santalo_point",
]

MAX_NEWTON_STEPS = 100
# Newton converges quadratically, so a tolerance well under the documented
# 1e-8 costs at most one extra step and pins the points to ~1e-11.
GRAD_TOL = 1e-11
MC_CHUNK = 1 << 16
# The oracles' membership screen (see _mc_mean): the relative size of the tail
# and screen round-off that the low-degree part may leave out, and a relative
# margin for the round-off of the full evaluation and of the membership
# expression, 7e3 to 3e4 times that of an off-grid evaluation (4e-15 to
# 1.4e-14 of the bound S on grids from 24x48 to 64x128).
MC_TAIL_TOL = 1e-8
MC_ROUNDOFF = 1e-10
MC_SLAB = 4096  # directions per call of the screen kernel


def firey_entropy(body: ConvexBody) -> float:
    """Spherical mean of log u about the current origin."""
    return average(body.grid, np.log(body.support))


def chow_entropy(body: ConvexBody) -> float:
    """Spherical mean of log K (K the Gauss curvature as a normal function)."""
    return average(body.grid, np.log(body.curvature.gauss))


# ---------------------------------------------------------------------------
# distinguished points (damped Newton)
# ---------------------------------------------------------------------------


def _newton_minimize(body: ConvexBody, z0, value, gradient, hessian, name: str):
    """Damped Newton for a strictly convex objective of the reference point z.

    The objective is given through u_z = u - <z, x>: ``value(u_z)``,
    ``gradient(u_z)`` -> (gradient, dilation-aware tolerance) and
    ``hessian(u_z)``, checked positive definite at every iterate.  Backtracking
    keeps u_z above an interior floor (inactive at the strictly interior
    optimum) and never increases the value.  Returns (z, value, gradient);
    SolverError and ConcavityError messages start with ``name``.
    """
    u, grid = body.support, body.grid
    floor = 1e-6 * float(np.max(u))
    z = np.zeros(body.dim + 1) if z0 is None else np.asarray(z0, dtype=float)
    u_z = body.support_about(z)
    if np.min(u_z) <= floor:
        raise ParameterError("z0 is not sufficiently interior")
    f_val = value(u_z)

    for _ in range(MAX_NEWTON_STEPS):
        grad, tol = gradient(u_z)
        if np.linalg.norm(grad) <= tol:
            return z, f_val, grad
        hess = hessian(u_z)
        if np.linalg.eigvalsh(hess)[0] <= 0.0:
            raise ConcavityError(f"{name}: Hessian lost definiteness at z={z}")
        step = np.linalg.solve(hess, -grad)
        t = 1.0
        for _ in range(60):
            z_try = z + t * step
            u_try = u - grid._linear(z_try)
            if np.min(u_try) > floor:
                f_try = value(u_try)
                if f_try <= f_val + 1e-14:
                    break
            t *= 0.5
        else:
            raise SolverError(f"{name}: line search failed at z={z}")
        z, u_z, f_val = z_try, u_try, f_try

    raise SolverError(
        f"{name}: no convergence in {MAX_NEWTON_STEPS} steps "
        f"(last z={z}, |grad|={np.linalg.norm(grad):.3e})"
    )


def entropy_point(body: ConvexBody, z0=None):
    """Maximize F(z) = avg log(u - <z,x>); return (z_e, E, residual).

    ``residual`` is max_j |avg x_j/u_e|, the first-order condition.  The
    damped Newton of :func:`_newton_minimize` runs on -F, whose Hessian
    avg x x^T / u_z^2 is checked to be positive definite at every iterate.

    Raises
    ------
    SolverError
        No convergence within 100 steps (carries the last iterate).
    ConcavityError
        The Newton model lost definiteness.
    """
    grid = body.grid

    def value(u_z):
        return -average(grid, np.log(u_z))

    def gradient(u_z):
        inv = 1.0 / u_z
        # the gradient scales like 1/u under dilation, so the tolerance must
        # follow suit for small bodies or Newton stalls at the round-off floor
        return grid._moment(inv) / grid.area, GRAD_TOL * max(1.0, float(np.max(inv)))

    def hessian(u_z):
        inv = 1.0 / u_z
        return grid._second_moment(inv, inv) / grid.area

    z, f_val, grad = _newton_minimize(body, z0, value, gradient, hessian, "entropy point")
    return z, -f_val, float(np.max(np.abs(grad)))


def santalo_point(body: ConvexBody):
    """Minimize the polar volume over the reference point; return (z_s, Vstar).

    The objective V*(z) = (1/(dim+1)) int u_z^-(dim+1) is strictly convex;
    same damped Newton and interior floor as :func:`entropy_point`.
    """
    n, grid = body.dim, body.grid

    def value(u_z):
        return float(np.sum(grid.weights * u_z ** -(n + 1))) / (n + 1)

    def gradient(u_z):
        # the gradient scales like u^-(dim+2)
        tol = GRAD_TOL * max(1.0, float(np.min(u_z)) ** -(n + 2))
        return grid._moment(u_z ** -(n + 2)), tol

    def hessian(u_z):
        return grid._second_moment(u_z ** -(n + 3), scale=n + 2)

    z, v_star, _ = _newton_minimize(body, None, value, gradient, hessian, "Santalo point")
    return z, v_star


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    """One inequality lhs >= rhs, with ``ok = lhs >= rhs - tol``."""

    name: str
    lhs: float
    rhs: float
    ok: bool
    tol: float


@dataclass(frozen=True)
class EntropyReport:
    """Entropy values, distinguished points, and the inequality suite.

    The radius/width bounds use scale constants derived by this package
    (``constant_provenance`` marks them as derived, not quoted).
    """

    dim: int
    volume: float
    entropy: float
    entropy_point: np.ndarray
    first_order_residual: float
    firey: float
    chow: float
    santalo_point: np.ndarray
    dual_vol_at_santalo: float
    dual_vol_at_origin: float
    checks: tuple
    constant_provenance: str = field(default=CONSTANT_PROVENANCE)

    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def entropy_report(body: ConvexBody) -> EntropyReport:
    """Evaluate the full entropy suite on one body.

    The inequality checks are written in volume-corrected form so they hold
    for every valid body; at unit-ball volume they reduce to the plain chain
    E_C >= E >= E_F together with the radius, width, and polar bounds.
    The outer bound's rhs is the largest width w+, the diameter: the ball
    of radius w+ about any boundary point holds the body, so no outer radius
    exceeds w+ and it alone sets max(width, outer radius).  The inner
    bound's lhs is the inradius rho-: about the incenter z,
    u(x) + u(x') >= 2 rho- + <z, x + x'> at each antipodal node pair, so
    rho- <= w-/2 up to round-off and never sets min(rho-, w-).
    """
    n = body.dim
    vol = body.volume()
    v_ball = ball_volume(n)
    z_e, e_val, residual = entropy_point(body)
    e_f = firey_entropy(body)
    e_c = chow_entropy(body)
    z_s, v_star = santalo_point(body)
    widths = body.grid._widths(body.support)
    rho_minus = inradius(body)[0]
    u_s_min = float(np.min(body.support_about(z_s)))

    def mk(name, lhs, rhs, tol=1e-8):
        return InequalityCheck(name, float(lhs), float(rhs), bool(lhs >= rhs - tol), tol)

    checks = (
        mk("chow-dominates-entropy", e_c + np.log(vol / v_ball), e_val),
        mk("entropy-dominates-origin", e_val, e_f, tol=1e-9),
        mk("entropy-volume-bound", e_val, (np.log(vol) - np.log(v_ball)) / (n + 1)),
        mk(
            "outer-radius-bound",
            outer_scale_constant(n) * np.exp(e_val),
            float(np.max(widths)),
        ),
        mk(
            "inner-radius-bound",
            rho_minus,
            inner_scale_constant(n) * vol * np.exp(-n * e_val),
        ),
        mk(
            "santalo-support-bound",
            u_s_min,
            santalo_support_constant(n) * vol * np.exp(-n * e_val),
        ),
        mk("santalo-product-bound", v_ball**2, vol * v_star),
    )
    return EntropyReport(
        dim=n,
        volume=vol,
        entropy=e_val,
        entropy_point=z_e,
        first_order_residual=residual,
        firey=e_f,
        chow=e_c,
        santalo_point=z_s,
        dual_vol_at_santalo=v_star,
        dual_vol_at_origin=body.dual_volume(),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------


def _sample_chunks(seed: int, n_samples: int):
    """Fixed partition of the sample range into counter-based substreams.

    Chunk i always covers samples [i*MC_CHUNK, ...) with its own jumped
    stream, so the estimate does not depend on how chunks are scheduled.
    """
    base = Philox(key=seed)
    n_full, rem = divmod(n_samples, MC_CHUNK)
    for i in range(n_full):
        yield Generator(base.jumped(i)), MC_CHUNK
    if rem:
        yield Generator(base.jumped(n_full)), rem


def _unit_rows(v):
    """The rows of v divided by their lengths, in place; returns v.

    The squares are summed column by column, in the order in which
    ``np.linalg.norm(v, axis=1)`` adds them, so every row has the same bits
    as ``v / np.linalg.norm(v, axis=1, keepdims=True)``; the column loop
    avoids numpy's slow reduction over an axis of length 2 or 3.
    """
    norm = v[:, 0] * v[:, 0]
    for j in range(1, v.shape[1]):
        norm += v[:, j] * v[:, j]
    v /= np.sqrt(norm, out=norm)[:, None]
    return v


def _mc_args(body: ConvexBody, z, samples, seed):
    """The oracles' argument check: ``samples`` an integer >= 10^4, ``seed``
    an integer >= 0 and z (default the origin) interior; a z of the wrong
    shape or not finite is rejected by ``support_about``.  Returns (z, u_z)."""
    _check_integer("samples", samples, 10_000)
    _check_integer("seed", seed, 0)
    z = np.zeros(body.dim + 1) if z is None else np.asarray(z, dtype=float)
    u_z = body.support_about(z)
    if np.min(u_z) <= 0.0:
        raise ParameterError("z is not interior to the body")
    return z, u_z


def _mc_mean(body: ConvexBody, z, samples: int, seed: int, radius, integrand):
    """The oracles' sampler: (mean, stderr) of ``integrand(dirs, r, inside)``,
    summed along the sample axis.  Each chunk draws uniform directions, then
    radii ``radius(uniform)``; ``inside`` is polar membership
    r (u(dir) - <dir, z>) <= 1, with u the grid's spectral interpolant.
    The directions and radii of every chunk are drawn into two buffers
    allocated once per call, and ``radius`` and ``integrand`` may overwrite
    their array arguments and return them; the integrand is squared in place
    after its first sum.  A call's working memory is thus about the two
    buffers, whatever ``samples`` is: 400,000 samples about the entropy
    point of the corpus body random-2-s21 (32x64) peak at 3.6 MiB of traced
    memory, and of random-1-s11 (S^1, n = 256) at 2.5 MiB.

    Membership is screened on the part u_<=d of u of degree <= d, summed by
    the grid's ``_screen_kernel``, which also returns a bound R_d on its
    round-off.  d is the least degree with B[d] + R_d <= ``MC_TAIL_TOL`` S,
    where B[d] >= sup |u - u_<=d| and S >= sup |u| come from the grid's
    ``_tail_bounds``.  Per slab of ``MC_SLAB`` directions,
    s = r (u_<=d - <dir, z>) decides a sample where
    |s - 1| > r (B[d] + R_d + ``MC_ROUNDOFF`` (S + |z|)), which is at least
    the gap to the full expression plus its round-off.  A chunk with an
    undecided sample (the screen stops at its slab), and every chunk if no
    degree qualifies (on 64x128 a body with its whole band in use), takes
    the full expression at all its directions through one ``grid.eval``, the
    call that a sampler without the screen makes.  ``inside`` is thus the
    same array as with ``grid.eval`` at every direction, bit for bit.  The
    directions are unit vectors by construction and are not checked again;
    ``grid.eval`` checks those of a chunk that falls back.  They are
    normalized in place by ``_unit_rows``, whose column sums give the bits
    of ``np.linalg.norm``.
    """
    grid = body.grid
    coeffs = grid.analyze(body.support)
    tail, bound = grid._tail_bounds(coeffs)
    screen = None
    for degree in np.flatnonzero(tail <= MC_TAIL_TOL * bound):
        kernel, roundoff = grid._screen_kernel(coeffs, int(degree))
        if tail[degree] + roundoff <= MC_TAIL_TOL * bound:
            screen = kernel
            margin = tail[degree] + roundoff + MC_ROUNDOFF * (bound + float(np.linalg.norm(z)))
            break

    def membership(dirs, r):
        dz = dirs @ z
        if screen is not None:
            inside = np.empty(len(r), dtype=bool)
            for lo in range(0, len(r), MC_SLAB):
                slab = slice(lo, lo + MC_SLAB)
                s = r[slab] * (screen(dirs[slab]) - dz[slab])
                if np.any(np.abs(s - 1.0) <= r[slab] * margin):
                    break
                inside[slab] = s <= 1.0
            else:
                return inside
        return r * (grid.eval(body.support, dirs) - dz) <= 1.0

    rows = min(samples, MC_CHUNK)
    dirs_buffer, r_buffer = np.empty((rows, body.dim + 1)), np.empty(rows)
    total = total_sq = 0.0
    for rng, count in _sample_chunks(seed, samples):
        dirs = _unit_rows(rng.standard_normal(out=dirs_buffer[:count]))
        r = radius(rng.random(out=r_buffer[:count]))
        f = integrand(dirs, r, membership(dirs, r))
        total = total + np.sum(f, axis=0)
        total_sq = total_sq + np.sum(np.multiply(f, f, out=f), axis=0)
        del f  # before the next chunk's temporaries
    mean = total / samples
    return mean, np.sqrt(np.maximum(0.0, total_sq / samples - mean * mean) / samples)


def _z_score(deviation, stderr) -> float:
    """|deviation| / |stderr| by norms; a zero stderr scores 0 for a
    deviation within 1e-12, else infinity."""
    dev, se = float(np.linalg.norm(deviation)), float(np.linalg.norm(stderr))
    if se == 0.0:
        return 0.0 if dev <= 1e-12 else float("inf")
    return dev / se


def mc_log_integral(body: ConvexBody, z=None, samples: int = 100_000, seed: int = 0):
    """Monte Carlo estimate of int log u_z dtheta; returns (estimate, stderr).

    Uses the signed weighted volume of the symmetric difference between the
    unit ball and the polar body about z, sampled uniformly (in volume) on
    the annulus min(1, 1/max u_z) <= |w| <= max(1, 1/min u_z) that contains
    it; both bodies contain the inner ball, which also keeps the weight
    |w|^-(n+1) bounded.  If the annulus is empty the integral is exactly 0.
    An infinite stderr flags the (pathological) case of no hits at all.
    Raises ParameterError unless z (default the origin) is interior,
    ``samples`` an integer >= 10^4 and ``seed`` an integer >= 0.
    """
    z, u_z = _mc_args(body, z, samples, seed)
    n1 = body.dim + 1
    r_lo = min(1.0, 1.0 / float(np.max(u_z)))
    r_hi = max(1.0, 1.0 / float(np.min(u_z)))
    if r_hi - r_lo <= 1e-15:
        return 0.0, 0.0
    p_lo, p_hi = r_lo ** n1, r_hi ** n1
    vol_annulus = body.grid.area * (p_hi - p_lo) / n1

    def radius(uniform):
        uniform *= p_hi - p_lo
        uniform += p_lo
        uniform **= 1.0 / n1
        return uniform

    def integrand(dirs, r, inside):
        # the sign is +1 in the ball but not the polar body, -1 the other way round
        f = np.subtract(r <= 1.0, inside, dtype=float)
        f *= vol_annulus
        r **= -n1
        f *= r
        return f

    mean, stderr = _mc_mean(body, z, samples, seed, radius, integrand)
    if mean == 0.0 and stderr == 0.0:  # every sample had weight 0
        return 0.0, float("inf")
    return float(mean), float(stderr)


def mc_polar_mass_center(body: ConvexBody, z=None, samples: int = 100_000, seed: int = 0):
    """Monte Carlo mass center of the polar body with weight |w|^-(n+1).

    Estimates m_j = int_{P_z} w_j |w|^-(n+1) dmu (zero exactly at the entropy
    point).  Sampling is uniform in (radius, direction) on the enclosing ball
    of the polar body — under the weight, the radial integrand is constant,
    so this importance choice keeps the variance finite.  Returns
    (m, stderr) as vectors; arguments are checked as in :func:`mc_log_integral`.
    """
    z, u_z = _mc_args(body, z, samples, seed)
    r_max = 1.0 / float(np.min(u_z))
    scale = body.grid.area * r_max

    def integrand(dirs, r, inside):
        dirs *= scale
        dirs *= inside[:, None]
        return dirs

    return _mc_mean(body, z, samples, seed,
                    lambda uniform: np.multiply(uniform, r_max, out=uniform), integrand)
