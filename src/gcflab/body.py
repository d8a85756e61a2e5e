"""Convex bodies represented by support functions on a spectral grid.

A body is a positive nodal field u (the support function) whose
radii-of-curvature matrix

    A = Hess u + u g        (covariant Hessian, orthonormal frame)

is positive definite at every node.  ``ConvexBody`` freezes the samples and
checks both conditions up front.  Its curvature data, the invariants of A
that the grid derives from u (A itself is never built), is computed once
per body and holds eagerly only what validation and the flow read (det A,
trace A, the least eigenvalue of A, sigma_{n-1}(A), Gauss curvature
K = 1/det A and grad u); the mean curvature, |grad u| and the boundary
embedding X = u x + grad u are computed on first access and then kept.

The curvature comes from one ``derivative_bundle`` of the support, or from a
jet the caller already has (:meth:`ConvexBody.from_jet`, used by the flow
for its ETDRK4 stage bodies).  ``scale`` rescales the stored curvature instead
of transforming again: A is linear in u, so det A, trace A, the least
eigenvalue, sigma_{n-1}(A) and grad u scale by f^n, f, f, f^(n-1) and f.
Either way the body is validated at the same thresholds.  The two routes
agree up to round-off only (a few 1e-12 relative): rebuilding a body from
its support can move its curvature, and what is read from it, by that much.

Shape generators live in :func:`make_shape`.  Smooth non-polynomial shapes
are screened for spectral aliasing on the requested grid: a non-negligible
tail near the bandlimit triggers :class:`~gcflab.errors.AliasingWarning`
rather than an error, because mild aliasing merely degrades accuracy while
severe aliasing already fails the convexity check.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .constants import ball_volume
from .errors import AliasingWarning, BodyValidityError, ParameterError, SolverError, _check_integer
from .sphere import SphereGrid, SupportJet, integrate

__all__ = [
    "ConvexBody",
    "CurvatureData",
    "GeometrySummary",
    "circumradius",
    "geometry_summary",
    "harmonic_field",
    "inradius",
    "make_shape",
    "normalize_volume",
    "spectral_tail",
]

MIN_SUPPORT = 1e-8  # positivity threshold for u
MIN_CURVATURE_EIG = 1e-8  # definiteness threshold for A
TAIL_WARN = 1e-7  # relative spectral-tail size that triggers AliasingWarning
RANDOM_DECAY = 0.6  # ratio of successive degrees' amplitudes in random_valid


@dataclass(frozen=True)
class CurvatureData:
    """Pointwise curvature quantities of a body (all nodal arrays).

    Of the principal radii of curvature (eigenvalues of A = Hess u + u g),
    ``det_a`` is the product, ``trace_a`` the sum, ``min_eig_a`` the least
    and ``adj_trace_a`` sigma_{n-1}(A) = trace adj A (1 on S^1); ``gauss`` =
    1/det A is the Gauss curvature as a function of the normal.  These and
    ``grad`` are computed at construction: validation and the flow read them.
    The rest are computed on first access and then kept: ``mean_curvature``
    is trace(A^-1) = K sigma_{n-1}(A), the sum of the principal curvatures;
    ``grad_norm`` is |grad u|; ``position`` is the boundary embedding
    X = u x + grad u (the point of the body whose outer normal is the node
    direction) and ``position_norm`` its length.  (``cached_property`` keeps
    them in the instance dict, which a frozen dataclass permits.)

    The arrays depend, at round-off level, on how the body was built: a body
    from :meth:`ConvexBody.from_jet` (the flow's stage bodies and the result
    of one ``flow.step``) or :meth:`ConvexBody.scale` carries curvature that
    can differ from ``ConvexBody(grid, body.support).curvature`` by a few
    1e-12 relative, because derivatives synthesized from coefficients (or
    rescaled) round differently from derivatives of the samples.
    """

    det_a: np.ndarray
    gauss: np.ndarray
    trace_a: np.ndarray
    min_eig_a: np.ndarray
    adj_trace_a: np.ndarray
    grad: np.ndarray
    _support: np.ndarray = field(repr=False)
    _grid: SphereGrid = field(repr=False)

    @cached_property
    def mean_curvature(self) -> np.ndarray:
        return self.gauss * self.adj_trace_a

    @cached_property
    def grad_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.grad**2, axis=1))

    @cached_property
    def position(self) -> np.ndarray:
        return self._grid._position(self._support, self.grad)

    @cached_property
    def position_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.position**2, axis=1))


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A convex body given by support samples on a grid.

    ``_invariants`` is the package's own hook, not part of the interface:
    :meth:`from_jet` and :meth:`scale` pass the radii invariants and gradient
    they already have, (det A, trace A, least eigenvalue, sigma_{n-1}(A),
    grad u), so the curvature is not computed again.  Such a body's
    curvature agrees with a rebuild from its support up to round-off (see
    :class:`CurvatureData`).

    Raises
    ------
    BodyValidityError
        If the support is not positive (``invariant="positivity"``) or the
        radii-of-curvature matrix is not positive definite
        (``invariant="convexity"``) within the package thresholds.
    """

    grid: SphereGrid
    support: np.ndarray
    _invariants: InitVar[tuple] = None

    def __post_init__(self, _invariants):
        u = self.grid.check_field(self.support).copy()
        u.setflags(write=False)
        object.__setattr__(self, "support", u)
        u_min = float(u.min())
        if u_min <= MIN_SUPPORT:
            raise BodyValidityError(
                "positivity", f"min support {u_min:.3e} <= {MIN_SUPPORT:.0e}"
            )
        if _invariants is not None:
            self.__dict__["curvature"] = self._curvature_data(*_invariants)
        eig = float(self.curvature.min_eig_a.min())
        if eig <= MIN_CURVATURE_EIG:
            raise BodyValidityError(
                "convexity",
                f"min curvature-matrix eigenvalue {eig:.3e} <= {MIN_CURVATURE_EIG:.0e}",
            )

    @classmethod
    def from_jet(cls, jet: SupportJet) -> "ConvexBody":
        """The body whose support is ``jet.values``, its curvature read from
        the jet rows (a derivative bundle or a linear combination of them)."""
        return cls(jet.grid, jet.values, _invariants=(*jet.grid.radii_invariants(jet), jet.grad))

    @cached_property
    def curvature(self) -> CurvatureData:
        jet = self.grid.derivative_bundle(self.support)
        return self._curvature_data(*self.grid.radii_invariants(jet), jet.grad)

    def _curvature_data(self, det, trace, min_eig, adj_trace, grad) -> CurvatureData:
        return CurvatureData(
            det_a=det,
            gauss=1.0 / det,
            trace_a=trace,
            min_eig_a=min_eig,
            adj_trace_a=adj_trace,
            grad=grad,
            _support=self.support,
            _grid=self.grid,
        )

    # --- basic geometry ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.grid.dim

    def volume(self) -> float:
        """Enclosed volume, (1/(dim+1)) * int u det A."""
        return integrate(self.grid, self.support * self.curvature.det_a) / (
            self.dim + 1
        )

    def area(self) -> float:
        """Boundary measure, int det A (perimeter for dim 1)."""
        return integrate(self.grid, self.curvature.det_a)

    def translate(self, z) -> "ConvexBody":
        """The body re-expressed with the origin moved to z.

        Support functions transform by u -> u - <z, x>; the subtraction is
        exact at the nodes because linear functions are grid-resolved.
        """
        return ConvexBody(self.grid, self.support_about(z))

    def support_about(self, z) -> np.ndarray:
        """Nodal support samples relative to a finite origin z (no validity check)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim + 1,):
            raise ParameterError(f"z must have shape ({self.dim + 1},), got {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ParameterError(f"z must be finite, got {z}")
        return self.support - self.grid._linear(z)

    def dual_volume(self) -> float:
        """Volume of the polar body about the origin, (1/(dim+1)) * int u^-(dim+1)."""
        return integrate(self.grid, self.support ** -(self.dim + 1)) / (self.dim + 1)

    def scale(self, factor: float) -> "ConvexBody":
        """The body dilated by ``factor`` about the origin, its curvature
        rescaled from this body's rather than recomputed.

        Each distinct array is rescaled once, so the invariants that share
        an array here (trace A and sigma_1(A) on S^2; det A, trace A and the
        least eigenvalue on S^1, where sigma_0(A) is the grid's shared ones)
        share it in the scaled body too.
        """
        if not 0.0 < factor < np.inf:
            raise ParameterError(f"scale factor must be positive and finite, got {factor!r}")
        c, n = self.curvature, self.dim
        scaled = {}

        def rescale(a, power):
            key = (id(a), power)
            if key not in scaled:
                scaled[key] = a if power == 0 else a * factor**power
            return scaled[key]

        return ConvexBody(self.grid, self.support * factor, _invariants=(
            rescale(c.det_a, n), rescale(c.trace_a, 1), rescale(c.min_eig_a, 1),
            rescale(c.adj_trace_a, n - 1), rescale(c.grad, 1)))


def normalize_volume(body: ConvexBody) -> ConvexBody:
    """Rescale so the volume equals the unit-ball volume exactly.

    Volume is homogeneous of degree dim+1 in the support function, so the
    factor is (V_ball / V)^(1/(dim+1)).  It costs one quadrature: ``scale``
    rescales the curvature.
    """
    factor = (ball_volume(body.dim) / body.volume()) ** (1.0 / (body.dim + 1))
    return body.scale(factor)


# ---------------------------------------------------------------------------
# widths, radii, summary
# ---------------------------------------------------------------------------


_ROUNDOFF = 1e-12  # relative slack of the radius solvers' stopping tests


def inradius(body: ConvexBody):
    """Inradius and incenter (largest ball inside the body), exact over the nodes.

    Solves the linear program  max r  subject to  <z, x_i> + r <= u_i  by
    dual-simplex pivots over bases of dim+2 node rows.  The first rows are
    the 2(dim+1) nodes that maximize +/-x_j; they positively span the space,
    so every restricted problem is bounded.  Each round takes, among the
    nonsingular (dim+2)-subsets of the rows, the vertex that is primal
    feasible on the rows and dual feasible (multipliers >= 0), hence optimal
    for them, and adds the most violated node to its basis, until no node is
    violated beyond relative round-off.  Returns (radius, center), the
    radius being min over nodes of u - <z, x>.
    """
    u, x = body.support, body.grid.nodes
    rows = np.hstack([x, np.ones((len(u), 1))])
    tol = _ROUNDOFF * float(np.max(u))
    active = np.unique(np.concatenate([np.argmax(x, axis=0), np.argmin(x, axis=0)]))
    for _ in range(len(u)):
        bases = np.array(list(combinations(active, body.dim + 2)))
        bases = bases[np.abs(np.linalg.det(rows[bases])) > _ROUNDOFF]
        inv = np.linalg.inv(rows[bases])  # last row: the dual multipliers
        vertex = np.einsum("bij,bj->bi", inv, u[bases])  # (z, r) per basis
        optimal = np.all(inv[:, -1, :] >= -_ROUNDOFF, axis=1) & np.all(
            rows[active] @ vertex.T <= u[active, None] + tol, axis=0)
        if not np.any(optimal):
            raise SolverError("inradius: no optimal basis among the restricted rows")
        best = np.flatnonzero(optimal)[np.argmax(vertex[optimal, -1])]
        slack = u - x @ vertex[best, :-1]
        worst = int(np.argmin(slack))
        if slack[worst] >= vertex[best, -1] - tol:
            return float(slack[worst]), vertex[best, :-1]
        active = np.append(bases[best], worst)
    raise SolverError(f"inradius: no optimum after {len(u)} pivots")


def circumradius(body: ConvexBody):
    """Circumradius and circumcenter (smallest ball enclosing the boundary
    samples X = u x + grad u), exact over the samples.

    Pivots a support set of at most dim+2 samples (Gartner 1999).  The
    smallest ball of the set is found by brute force over its subsets
    (Welzl 1991): a subset gives the centre c = sum mu_i q_i, sum mu_i = 1,
    equidistant from its points, and each centre is scored by its farthest
    support sample, so whatever the pseudo-inverse returns for an affinely
    dependent subset is still an enclosing ball.  The farthest sample joins,
    and so on until none lies outside beyond relative round-off; the radius
    grows with every pivot.  Returns (radius, center).
    """
    pts = body.curvature.position
    support = np.array([0])
    for _ in range(len(pts)):
        origin = pts[support].mean(axis=0)
        q = pts[support] - origin
        k = len(q)
        masks = np.array([m + (1.0,) for m in product((0.0, 1.0), repeat=k)
                          if 0 < sum(m) <= body.dim + 2])
        kkt = np.block([[2.0 * q @ q.T, np.ones((k, 1))], [np.ones((1, k)), 0.0]])
        rhs = masks * np.append(np.sum(q * q, axis=1), 1.0)
        mu = np.linalg.pinv(kkt * masks[:, :, None] * masks[:, None, :]) @ rhs[:, :, None]
        centers = mu[:, :k, 0] @ q
        radii = np.max(np.linalg.norm(centers[:, None] - q, axis=2), axis=1)
        best = int(np.argmin(radii))
        support, center = support[masks[best, :k] > 0], origin + centers[best]
        dist = np.linalg.norm(pts - center, axis=1)
        far = int(np.argmax(dist))
        if dist[far] <= radii[best] * (1.0 + _ROUNDOFF):
            return float(dist[far]), center
        support = np.append(support, far)
    raise SolverError(f"circumradius: no optimum after {len(pts)} pivots")


@dataclass(frozen=True)
class GeometrySummary:
    """Scalar geometry of a body: volume, boundary measure, extremal radii
    (about the best centers, not the current origin) and widths.

    ``w_plus`` is the diameter: the diameter of a convex body is its largest
    width.  Invariants: rho_minus <= rho_plus, w_minus <= w_plus.
    """

    volume: float
    area: float
    rho_plus: float
    rho_minus: float
    w_plus: float
    w_minus: float
    incenter: np.ndarray
    circumcenter: np.ndarray


def geometry_summary(body: ConvexBody) -> GeometrySummary:
    """Compute a :class:`GeometrySummary`.

    Widths pair each node with its antipode (exact on these grids);
    rho_minus/rho_plus are the exact in- and circumscribed-ball radii of the
    node set (:func:`inradius`, :func:`circumradius`), so they are
    translation invariant up to round-off.  Extrema are over the node set,
    which at the package's working resolutions biases them far below the
    tolerances used downstream.
    """
    widths = body.grid._widths(body.support)
    rho_minus, incenter = inradius(body)
    rho_plus, circumcenter = circumradius(body)
    return GeometrySummary(
        volume=body.volume(),
        area=body.area(),
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        w_plus=float(np.max(widths)),
        w_minus=float(np.min(widths)),
        incenter=incenter,
        circumcenter=circumcenter,
    )


# ---------------------------------------------------------------------------
# shape generators
# ---------------------------------------------------------------------------


def harmonic_field(grid: SphereGrid, modes) -> np.ndarray:
    """Nodal field from a list of harmonic modes.

    dim 1: entries (k, a, b), k an integer, contribute a*cos(k t) + b*sin(k t).
    dim 2: entries (l, m, a), l and m integers, contribute a times the unit-norm
    real harmonic of degree l and order m (m > 0 cosine-type, m < 0 sine-type).
    """
    return grid._harmonic_field(modes)


def spectral_tail(grid: SphereGrid, u: np.ndarray) -> float:
    """Relative magnitude of u's spectrum in the top third of the band.

    A smooth well-resolved field decays well below round-off there; values
    above ~1e-7 mean the grid is marginal for this shape and derivatives
    (hence curvature) lose accuracy.
    """
    # the degree is the last axis (the unused S^2 triangle l < m is exactly 0)
    tail = float(np.max(np.abs(grid.analyze(u)[..., (2 * grid.bandlimit) // 3 :])))
    return tail / max(float(np.max(np.abs(u))), 1e-300)


def _warn_if_aliased(grid: SphereGrid, u: np.ndarray, what: str):
    tail = spectral_tail(grid, u)
    if tail > TAIL_WARN:
        warnings.warn(
            f"{what}: relative spectral tail {tail:.2e} near the grid bandlimit "
            f"{grid.bandlimit}; curvature may be under-resolved on this grid",
            AliasingWarning,
            stacklevel=3,
        )


def make_shape(grid: SphereGrid, kind: str, normalize: bool = False, **params) -> ConvexBody:
    """Construct a named shape on a grid.

    Kinds
    -----
    ball : radius (default 1.0)
    translated_ball : radius, center (interior point, |center| < radius)
    ellipsoid : semiaxes, tuple of dim+1 positive numbers
    harmonic : base (default 1.0) plus modes as in :func:`harmonic_field`
    random_valid : seed (integer >= 0), amplitude, parity —
        random perturbation of the unit ball in degrees 2 to min(8, max(2,
        bandlimit // 3)), amplitude shrunk until the body is valid.

    With ``normalize=True`` the result is rescaled to unit-ball volume.
    Smooth non-polynomial shapes (the ellipsoid) are screened for spectral
    aliasing on the requested grid; a marginal tail emits
    :class:`AliasingWarning` (severe aliasing fails the convexity check).
    """
    dim = grid.dim
    if kind == "ball":
        radius = float(params.pop("radius", 1.0))
        _no_extra(params)
        if radius <= 0:
            raise ParameterError("radius must be positive")
        body = ConvexBody(grid, np.full(grid.n_nodes, radius))

    elif kind == "translated_ball":
        radius = float(params.pop("radius", 1.0))
        center = np.asarray(params.pop("center"), dtype=float)
        _no_extra(params)
        if center.shape != (dim + 1,):
            raise ParameterError(f"center must have shape ({dim + 1},)")
        if np.linalg.norm(center) >= radius:
            raise ParameterError("center must lie strictly inside the ball")
        body = ConvexBody(grid, radius + grid.nodes @ center)

    elif kind == "ellipsoid":
        semiaxes = np.asarray(params.pop("semiaxes"), dtype=float)
        _no_extra(params)
        if semiaxes.shape != (dim + 1,) or np.any(semiaxes <= 0):
            raise ParameterError(f"semiaxes must be {dim + 1} positive numbers")
        u = np.sqrt(np.sum((semiaxes[None, :] * grid.nodes) ** 2, axis=1))
        _warn_if_aliased(grid, u, f"ellipsoid{tuple(float(s) for s in semiaxes)}")
        body = ConvexBody(grid, u)

    elif kind == "harmonic":
        base = float(params.pop("base", 1.0))
        modes = params.pop("modes")
        _no_extra(params)
        body = ConvexBody(grid, base + harmonic_field(grid, modes))

    elif kind == "random_valid":
        body = _random_valid(grid, **params)

    else:
        raise ParameterError(f"unknown shape kind {kind!r}")

    return normalize_volume(body) if normalize else body


def _no_extra(params):
    if params:
        raise ParameterError(f"unexpected shape parameters: {sorted(params)}")


def _random_valid(
    grid: SphereGrid,
    seed: int = 0,
    amplitude: float = 0.3,
    parity: str = "any",
    **extra,
) -> ConvexBody:
    """Random smooth perturbation of the unit ball, shrunk until valid.

    ``seed`` must be an integer >= 0.  ``parity="even"`` keeps only
    even-degree modes, giving a centrally symmetric body (useful for flows,
    where odd content is a pure translation mode).
    """
    _no_extra(extra)
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # at most the bandlimit of every grid build_grid accepts
    l_max = min(8, max(2, grid.bandlimit // 3))
    if parity not in ("any", "even"):
        raise ParameterError("parity must be 'any' or 'even'")

    modes = [mode for mode in grid._random_modes(rng, l_max, RANDOM_DECAY)
             if parity == "any" or mode[0] % 2 == 0]  # the degree comes first
    bump = harmonic_field(grid, modes)
    peak = float(np.max(np.abs(bump)))
    if peak > 0:
        bump = bump / peak  # unit sup-norm; `amplitude` is the actual size

    amp = amplitude
    for _ in range(40):
        try:
            return ConvexBody(grid, 1.0 + amp * bump)
        except BodyValidityError:
            amp *= 0.7
    raise SolverError(
        f"random_valid(seed={seed}) found no valid amplitude after 40 shrinks"
    )
