"""Time integration of the Gauss-curvature support flow.

Two modes on the same right-hand side scaffold:

    unnormalized   u_t = -1/det A          (bodies shrink, extinct in finite time)
    normalized     u_t = u - 1/det A       (volume preserved by the continuous flow)

Stepping is ETDRK4 (Cox-Matthews 2002) on the spectral coefficients u^ of
the support.  The velocity is split as F(u) = L u + N(u), with L diagonal
in the degree l:

    L_l = S min(c - l(l+n-1), 0),   c = n+1 (normalized) or n (unnormalized),
    S = 1/2 max K / lambda_min(A)   of the step's start body,

the linearization about the round sphere, Delta + c, scaled by the largest
coefficient of the principal symbol K A^{-1}.  L integrates exactly and N
explicitly; the weights are functions of dt L, evaluated in closed form
for dt L <= -1 and by their Taylor series on (-1, 0], where the closed
forms cancel (Kassam-Trefethen 2005).  L is clipped to <= 0:
the positive rates at l <= 1 would be amplified by e^{cS dt} at a start
body of large curvature, where S runs into the hundreds.  N(u) =
mask * (analyze(F(u)) - L u^) is zero on every masked mode, so a masked
coefficient decays as e^{t L_l}, the linear damping of its degree.  The
mask is 1 on every degree the grid resolves except the degree-1 part when
recentering and, on S^1, the Nyquist coefficient, which has no odd
derivative.  L_1 = 0, so the degree-1 part that recentering masks passes a
step unchanged.

``run`` takes the step size from accuracy, by step doubling: Richardson
extrapolation of one ETDRK4 map.  An attempt freezes L at its start body's
and advances the map once by dt (u_dt) and twice by dt/2 (u_{dt/2,dt/2});
ETDRK4 is 4th order for any fixed L, so the pair compares one method at
two step sizes and their difference is O(dt^5).  The Richardson estimate
of the error, the area-RMS of u_dt - u_{dt/2,dt/2} over 15 relative to
the RMS of u, is held to ``STEP_TOL``.  An accepted step keeps the
locally extrapolated u + (u - u_dt)/15 of the two half steps, a body built
from the same combination of their jets; the next dt is
dt * 0.8 (STEP_TOL / err)^(1/5), within [0.2, 5] times dt, and a step
whose estimate exceeds the tolerance is retried at that smaller dt.
``STEP_TOL`` is set by the closed-form trajectories: it keeps the
unprojected ball within 1e-12 of its exact radius.  The first step is
``FIRST_STEP_SAFETY * stable_dt`` of the volume-projected start, a
quarter of the explicit parabolic step limit, short enough that the gate's
runs start without a rejection.  A step whose stage leaves the valid-body
cone is retried at dt/2; collapse below ``DT_FLOOR`` raises
:class:`StiffnessError` with the last state attached.
``FlowConfig.fixed_dt`` takes fixed ETDRK4 steps instead, with no
doubling; the public :func:`step` is the same map once, and a stage
outside the cone raises its :class:`BodyValidityError` from it.

The flow's state is its coefficients.  ``run`` projects its start onto
them once, as ``ConvexBody.from_jet(synthesize(analyze(u), jet=True))``,
and the public :func:`step` projects implicitly, since its result is
synthesized from coefficients.  No velocity is filtered.  Under explicit
RK4 a 2/3 cut of the velocity kept long S^2 runs from blowing up: 1/det A,
evaluated pointwise, aliases through the colatitude quadrature and seeded
spurious modes near +(n+1).  With every degree damped by L no such growth
shows.  The S^2 gate ellipsoid and the corpus bodies random-2-s21 to s23,
recentered on 32x64, end at residuals <= 2.4e-13 at t = 100, where a
mode growing at rate n+1 from round-off would have reached 1e-3 by
t = 10.  Without the cut the unnormalized flow holds its exact volume law
V(t) = V_0 - |S^n| t to 1.1e-9 on random-2-s21 (1.2e-7 with it).

In normalized mode the discrete volume drifts at the step's error;
optional projection rescales the support of the start and of every
accepted step so the volume stays at the unit-ball value exactly.  A and
K do not change under u -> u - <z, x>, so the origin is a gauge choice;
optional recentering zeroes the start's degree-1 coefficients, the
translation <s, x> to its Steiner point s, and masks the degree-1 part of
the velocity, which keeps the linearized translation mode (growing like
e^t) out of long runs.  The
entropy point then agrees with the origin to O(sup|u - 1|^2) at a round
endpoint.

Cost of a step.  The mask is a multiplier on coefficients
(:meth:`SphereGrid.degree_mask`), exact for a band-limited field.
Stages are not bodies: each is a synthesized jet whose value row and
least eigenvalue of A pass the same validity tests as any body
(``body._check_support``, ``body._check_convexity``), then one analysis of
its velocity.  The map's kernels take a leading stack axis, so the whole
step and the first half step of an attempt advance as one two-row stack,
with the weights at dt L and dt L / 2 from one call; the second half step
starts from the first's coefficients and N.  An attempt makes 7 analyses
and 8 syntheses (three stacked stages, the stacked ends, the first half's
velocity, three stages and the fine end) and builds one body, the
accepted one, from the extrapolated jet.  ``run`` carries the coefficients
beside the body, scaling them by the volume-projection factor, so it
analyzes the support once per run, at its start; each accepted step
adds the start's velocity analysis.  A public :func:`step` from a body
makes five analyses (the start support, the velocities of the start and of
the three stages) and four syntheses (three stages and the result).  Volume
projection rescales the accepted body's curvature (one quadrature).

``FlowTrace`` collects a fixed 15-column series and streamed minima; monitor suites
(:func:`monitor_bounds`, :func:`harnack_monitor`) evaluate the a-posteriori
bounds on a finished trace and report violations as data, never as errors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import factorial
from typing import NamedTuple

import numpy as np

from .body import ConvexBody, _check_convexity, _check_support, _volume_factor
from .entropy import chow_entropy, entropy_point, firey_entropy
from .errors import (
    BodyValidityError,
    ParameterError,
    SolverError,
    StiffnessError,
    _check_integer,
)
from .sphere import SphereGrid, SupportJet, average

__all__ = [
    "TRACE_COLUMNS",
    "FlowConfig",
    "FlowTrace",
    "HarnackReport",
    "MonitorCheck",
    "MonitorReport",
    "dissipation_identity_residual",
    "harnack_monitor",
    "monitor_bounds",
    "run",
    "soliton_residual",
    "stable_dt",
    "step",
]

DT_FLOOR = 1e-12
STEP_TOL = 1e-12  # bound on a step's Richardson error estimate (area-RMS, relative to u)
FIRST_STEP_SAFETY = 0.25  # the first step of a run is FIRST_STEP_SAFETY * stable_dt(body)
MAX_STEPS = 2_000_000  # a run that has not reached t_end after this many steps fails
MODES = ("normalized", "unnormalized")

TRACE_COLUMNS = (
    "t",
    "dt",
    "volume",
    "entropy",
    "firey",
    "chow",
    "u_min",
    "u_max",
    "gauss_min",
    "gauss_max",
    "trace_a_max",
    "soliton_residual",
    "entropy_point_norm",
    "dissipation",
    "violations",
)


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters.

    ``project_volume=None`` resolves to True in normalized mode and False
    otherwise.  ``fixed_dt`` (positive) replaces the step-doubling control
    by fixed ETDRK4 steps of that size, for convergence studies; a step
    whose stage leaves the valid-body cone raises StiffnessError instead of
    silently shrinking, which would corrupt the deterministic step sequence.
    ``recenter``
    (a bool) keeps the Steiner point at the origin by zeroing the degree-1
    coefficients of the start and of every velocity.
    """

    mode: str = "normalized"
    t_end: float = 1.0
    project_volume: bool = None
    output_stride: int = 10
    soliton_tol: float = 1e-6
    fixed_dt: float = None
    recenter: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not isinstance(self.recenter, (bool, np.bool_)):
            raise ParameterError(f"recenter must be a bool, got {self.recenter!r}")
        if not isinstance(self.project_volume, (bool, np.bool_, type(None))):
            raise ParameterError(
                f"project_volume must be a bool or None, got {self.project_volume!r}")
        for name in ("t_end", "soliton_tol", "fixed_dt"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ParameterError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.t_end < np.inf:
            raise ParameterError("t_end must be positive and finite")
        if not 0.0 <= self.soliton_tol < np.inf:
            raise ParameterError("soliton_tol must be non-negative and finite")
        _check_integer("output_stride", self.output_stride, 1)
        if self.fixed_dt is not None and not 0.0 < self.fixed_dt < np.inf:
            raise ParameterError("fixed_dt must be positive and finite")
        if self.project_volume and self.mode == "unnormalized":
            raise ParameterError("volume projection only applies to the normalized flow")
        if self.project_volume is None:
            object.__setattr__(self, "project_volume", self.mode == "normalized")


@dataclass
class FlowTrace:
    """Diagnostic time series with a pinned column layout.

    ``rows[i]`` matches ``TRACE_COLUMNS``; ``dt`` is the accepted step that
    led to the row, and ``rejections`` counts retried steps (an error
    estimate over ``STEP_TOL``, or a stage outside the valid cone).  The
    per-row ``violations`` entry counts instantaneous monitor breaches
    (support band, positive curvature, the dimension-2 u/K lower bound, and
    Newton's inequality in its AM-GM form on the principal radii,
    (trace A / n)^n >= det A) known at record time.
    Running minima streamed at record time: ``gradient_slack`` of
    max u - max |grad u|, and (un-normalized mode only, else ``inf``)
    ``harnack_slack``, the least rise of K t^{n/(n+1)} at a node between records.
    """

    config: FlowConfig
    dim: int
    rows: list = field(default_factory=list)
    gradient_slack: float = np.inf
    harnack_slack: float = np.inf
    converged: bool = False
    steps: int = 0
    rejections: int = 0

    def column(self, name: str) -> np.ndarray:
        i = TRACE_COLUMNS.index(name)
        return np.array([r[i] for r in self.rows])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in self.rows:
                writer.writerow([repr(v) for v in row])

    def last(self, name: str) -> float:
        return self.rows[-1][TRACE_COLUMNS.index(name)]


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _stiffness(body: ConvexBody) -> float:
    """S = 1/2 max K / lambda_min(A), the scale of the linear part: the
    principal symbol of the velocity's linearization is K A^{-1}, whose
    largest eigenvalue is K / lambda_min(A)."""
    c = body.curvature
    return 0.5 * float(np.max(c.gauss / c.min_eig_a))


def _weight_forms(w: np.ndarray, e_half: np.ndarray, e_w: np.ndarray):
    """(Q, f1, f2, f3) of the ETDRK4 step at w = dt L, divided by dt, given
    e_half = e^{w/2} and e_w = e^w:

        Q  = (e^{w/2} - 1) / w
        f1 = (-4 - w + e^w (4 - 3w + w^2)) / w^3
        f2 = (2 + w + e^w (w - 2)) / w^3
        f3 = (-4 - 3w - w^2 + e^w (4 - w)) / w^3

    Elementwise, for real or complex w != 0."""
    w2 = w * w
    inv_w3 = 1.0 / (w2 * w)
    return ((e_half - 1.0) / w,
            (-4.0 - w + e_w * (4.0 - 3.0 * w + w2)) * inv_w3,
            (2.0 + w + e_w * (w - 2.0)) * inv_w3,
            (-4.0 - 3.0 * w - w2 + e_w * (4.0 - w)) * inv_w3)


def _taylor_table(terms: int = 18) -> np.ndarray:
    """(4, terms) Taylor coefficients about 0 of (Q, f1, f2, f3) of
    :func:`_weight_forms`.  With phi_k(w) = sum_j w^j / (j+k)!, Q =
    phi_1(w/2)/2, f1 = phi_1 - 3 phi_2 + 4 phi_3, f2 = phi_2 - 2 phi_3 and
    f3 = 4 phi_3 - phi_2, so their j-th coefficients are 1/(2^{j+1} (j+1)!),
    (j+1)^2/(j+3)!, (j+1)/(j+3)! and (1-j)/(j+3)!."""
    j = np.arange(terms)
    inv = np.array([1.0 / factorial(k) for k in range(terms + 3)])
    return np.array([0.5 ** (j + 1) * inv[1:terms + 1], (j + 1) ** 2 * inv[3:],
                     (j + 1) * inv[3:], (1 - j) * inv[3:]])


_TAYLOR = _taylor_table()


def _etd_weights(z: np.ndarray):
    """ETDRK4 weights at z = dt L (per degree, z <= 0, any shape): (e^{z/2},
    e^z, Q, f1, f2, f3), the last four divided by dt (see
    :func:`_weight_forms`).

    For z <= -1 the forms are evaluated as written.  On (-1, 0], where their
    numerators cancel, they are the 18-term Taylor series ``_TAYLOR``, one
    product against the powers z^j (running products); the first omitted
    term is at most 1.3e-16 of the value.  Only the few lowest degrees of a
    step fall there, so the series is summed at those entries alone.
    Against exact rational sums of the series at 1199 evenly spaced points
    of [-2.5, 0] the largest relative error is 6.7e-16 on (-1, 0] (4.8e-16
    by Horner's rule) and 1.1e-14 below, where the closed forms still cancel
    in part."""
    e_half, e_z = np.exp(0.5 * z), np.exp(z)
    weights = np.array(_weight_forms(np.minimum(z, -1.0), e_half, e_z)).reshape(4, -1)
    flat = z.ravel()
    near = np.flatnonzero(flat > -1.0)
    powers = np.cumprod(np.broadcast_to(flat[near], (_TAYLOR.shape[1] - 1, near.size)), axis=0)
    # einsum, not a BLAS product: the series is small, and the first BLAS
    # call of a run raised perfbench's soliton-s1 peak RSS by 0.15 MB
    weights[:, near] = _TAYLOR[:, :1] + np.einsum("kj,jn->kn", _TAYLOR[:, 1:], powers)
    return (e_half, e_z, *weights.reshape(4, *z.shape))


class _Frozen(NamedTuple):
    """What every stage of a step from one body shares, whatever its dt:
    the grid, the mode, the mask and L.  Its methods take a coefficient
    array or a stack of them (the whole and the first half step of an
    attempt)."""

    grid: SphereGrid
    normalized: bool
    mask: np.ndarray
    lin: np.ndarray

    def stage(self, coeffs):
        """(jet, det A) of the stages whose coefficients are ``coeffs``;
        raises BodyValidityError, at the thresholds of any body, if a stage
        leaves the valid-body cone."""
        jet = self.grid.synthesize(coeffs, jet=True)
        _check_support(jet.values)
        det, _, least, _ = self.grid.radii_invariants(jet)
        _check_convexity(least)
        return jet, det

    def nonlinear(self, support, gauss, coeffs):
        """N = mask * (analyze(F(u)) - L u^) of the fields with these support
        values, Gauss curvature and coefficients."""
        vel = support - gauss if self.normalized else -gauss
        return (self.grid.analyze(vel) - self.lin * coeffs) * self.mask

    def stage_nonlinear(self, coeffs):
        """N of the stages whose coefficients are ``coeffs``."""
        jet, det = self.stage(coeffs)
        return self.nonlinear(jet.values, 1.0 / det, coeffs)


def _start_stage(body: ConvexBody, normalized: bool, recenter: bool,
                 coeffs: np.ndarray) -> tuple:
    """(:class:`_Frozen`, u^, N(u)) of a step from ``body``, whose
    coefficients are ``coeffs``.  Recentering masks l = 1."""
    grid = body.grid
    mask = grid.degree_mask(1.0)
    if recenter:
        mask[1] = 0.0
    n, l = body.dim, np.arange(mask.size)  # the index along the degree axis is l
    # linearized about the round sphere the velocity is Delta + (n+1) (normalized)
    # or Delta + n: rates c_0 - l(l+n-1), scaled by S and clipped to <= 0
    c_0 = n + 1 if normalized else n
    lin = _stiffness(body) * np.minimum(c_0 - l * (l + n - 1.0), 0.0)
    frozen = _Frozen(grid, normalized, mask, lin)
    return frozen, coeffs, frozen.nonlinear(body.support, body.curvature.gauss, coeffs)


def _step_weights(lin: np.ndarray, dt):
    """The ETDRK4 weights of :func:`_etd_weights` at z = dt L, the last four
    times dt; ``dt`` is a number or has a stack axis in front."""
    e2, e1, q, f1, f2, f3 = _etd_weights(dt * lin)
    return e2, e1, dt * q, dt * f1, dt * f2, dt * f3


def _etdrk4(frozen: _Frozen, u_hat, n_u, weights):
    """The ETDRK4 map (Cox-Matthews 2002) from coefficients u^ with N(u) =
    ``n_u``: the coefficients one step later, per stack row of the
    ``weights`` (:func:`_step_weights`).  Raises BodyValidityError if a
    stage leaves the valid-body cone."""
    e2, e1, q, f1, f2, f3 = weights
    a = e2 * u_hat + q * n_u
    n_a = frozen.stage_nonlinear(a)
    b = e2 * u_hat + q * n_a
    n_b = frozen.stage_nonlinear(b)
    c = e2 * a + q * (2.0 * n_b - n_u)
    n_c = frozen.stage_nonlinear(c)
    return e1 * u_hat + f1 * n_u + 2.0 * f2 * (n_a + n_b) + f3 * n_c


def _single_step(frozen: _Frozen, u_hat, n_u, dt: float):
    """One ETDRK4 step of dt: (the body, its coefficients)."""
    coeffs = _etdrk4(frozen, u_hat, n_u, _step_weights(frozen.lin, dt))
    return ConvexBody.from_jet(frozen.grid.synthesize(coeffs, jet=True)), coeffs


def step(body: ConvexBody, dt: float, mode: str = "normalized",
         recenter: bool = False) -> ConvexBody:
    """One ETDRK4 step (Cox-Matthews) in coefficient space.  A stage that
    leaves the valid-body cone raises its BodyValidityError, whose
    ``invariant`` names the failed test; the caller may retry with a
    smaller dt."""
    if not 0.0 < dt < np.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt!r}")
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    start = _start_stage(body, mode == "normalized", recenter, body.grid.analyze(body.support))
    return _single_step(*start, dt)[0]


def stable_dt(body: ConvexBody) -> float:
    """h_min^2 / max(K trace A^{-1}), the explicit parabolic step limit of
    the body on its grid: :func:`run` takes its first step at
    ``FIRST_STEP_SAFETY`` times this, and the step-size control takes over
    from there."""
    c = body.curvature
    # K trace A^{-1} = K (K sigma_{n-1}(A)), the trace of the principal symbol K A^{-1}
    rate = float(np.max(c.gauss * (c.gauss * c.adj_trace_a)))
    return body.grid.h_min**2 / rate


def soliton_residual(body: ConvexBody) -> float:
    """max over nodes of |u det A - 1|; zero exactly on self-similar states."""
    return float(np.max(np.abs(body.support * body.curvature.det_a - 1.0)))


def _count_violations(body: ConvexBody, t: float, cfg: FlowConfig) -> int:
    c = body.curvature
    u = body.support
    bad = 0
    if float(np.min(u)) < 1e-3 or float(np.max(u)) > 1e3:
        bad += 1
    if float(np.min(c.det_a)) <= 0.0:
        bad += 1
    if body.dim == 2 and cfg.mode == "normalized" and t >= 0.1:
        floor = (1.0 / 3.0) * (1.0 - np.exp(-t)) ** (2.0 / 3.0)
        if float(np.min(u / c.gauss)) < floor:
            bad += 1
    # Newton's inequality, AM-GM form on the principal radii (0 at n = 1)
    if float(np.min((c.trace_a / body.dim) ** body.dim - c.det_a)) < -1e-9:
        bad += 1
    return bad


def run(body: ConvexBody, config: FlowConfig):
    """Integrate the flow; returns (FlowTrace, final body).

    The start is first projected onto its coefficients, whose degree-1
    part recentering zeroes (see the module docstring).  The top of the
    loop treats the start and every accepted step alike: it
    volume-normalizes the body as configured, takes the soliton residual
    max|u det A - 1|, records a row at t = 0, every ``output_stride``
    accepted steps and at the end, and returns at ``t_end`` or, in
    normalized mode, once the residual falls below ``soliton_tol``.  A run
    that converges on its last permitted step returns; one that has taken
    ``MAX_STEPS`` steps short of both raises SolverError.  The first step
    is ``FIRST_STEP_SAFETY * stable_dt`` of the projected start.

    The recorded curvature columns, the residual and the final body's
    curvature are those of the stepped bodies: read from the jet the step
    synthesized and, with volume projection, rescaled (see
    :class:`~gcflab.body.CurvatureData`).
    ``ConvexBody(grid, final.support)`` recomputes them from the support and
    can differ by round-off, so a residual that stopped the run just under
    ``soliton_tol`` may land just over it after a rebuild.
    """
    cfg = config
    normalized = cfg.mode == "normalized"
    grid = body.grid
    coeffs = grid.analyze(body.support)  # analyzed once, then carried
    if cfg.recenter:
        coeffs[..., 1] = 0.0  # the translation to the Steiner point
    body = ConvexBody.from_jet(grid.synthesize(coeffs, jet=True))

    trace = FlowTrace(config=cfg, dim=body.dim)
    z_e = np.zeros(body.dim + 1)
    prev_weighted = None  # K t^{n/(n+1)} at the previous record (un-normalized)

    def record(t, dt_used, residual):
        nonlocal z_e, prev_weighted
        c = body.curvature
        u = body.support
        z_e, e_val, _ = entropy_point(body, z0=_safe_start(body, z_e))
        ratio = c.gauss / u
        dissipation = float(average(body.grid, ratio + 1.0 / ratio)) - 2.0
        trace.rows.append(
            (
                t,
                dt_used,
                body.volume(),
                e_val,
                firey_entropy(body),
                chow_entropy(body),
                float(np.min(u)),
                float(np.max(u)),
                float(np.min(c.gauss)),
                float(np.max(c.gauss)),
                float(np.max(c.trace_a)),
                residual,
                float(np.linalg.norm(z_e)),
                dissipation,
                _count_violations(body, t, cfg),
            )
        )
        trace.gradient_slack = min(trace.gradient_slack, float(np.max(u) - np.max(c.grad_norm)))
        if not normalized:
            # np.power, not float **, so t^p rounds as the ufunc does on arrays
            weighted = c.gauss * np.power(t, body.dim / (body.dim + 1.0))
            if prev_weighted is not None:
                slack = float(np.min(weighted - prev_weighted))
                trace.harnack_slack = min(trace.harnack_slack, slack)
            prev_weighted = weighted

    # relative guard: after many steps the accumulated t carries round-off
    # ~ steps * eps * t_end, and an absolute epsilon would let a spurious
    # ~1e-14 leftover step through (duplicating the final record time)
    t_done = cfg.t_end * (1.0 - 1e-9)
    t, dt, dt_next = 0.0, 0.0, cfg.fixed_dt
    while True:
        # the start and every accepted step: project, record, stop
        if cfg.project_volume:
            factor = _volume_factor(body)
            body, coeffs = body.scale(factor), coeffs * factor
        residual = soliton_residual(body)
        trace.converged = normalized and residual < cfg.soliton_tol
        done = trace.converged or t >= t_done
        if done or trace.steps % cfg.output_stride == 0:
            record(t, dt, residual)
        if done:
            return trace, body
        if trace.steps >= MAX_STEPS:
            raise SolverError(f"step budget {MAX_STEPS} exhausted at t={t:.6g}")

        frozen, u_hat, n_u = _start_stage(body, normalized, cfg.recenter, coeffs)
        # stable_dt scales with the body: the first step is taken from the
        # projected start
        dt = min(dt_next or FIRST_STEP_SAFETY * stable_dt(body), cfg.t_end - t)
        while True:
            if dt < DT_FLOOR:
                raise StiffnessError(t, dt, body)
            try:
                if cfg.fixed_dt:
                    new_body, coeffs = _single_step(frozen, u_hat, n_u, dt)
                    break
                new_body, coeffs, err = _doubled_step(frozen, u_hat, n_u, dt)
                if err <= STEP_TOL:
                    dt_next = dt * _step_factor(err)
                    break
                trace.rejections += 1
                dt *= _step_factor(err)
            except BodyValidityError:
                trace.rejections += 1
                if cfg.fixed_dt:
                    # a fixed step size exists for reproducible sequences;
                    # silently substituting smaller steps would corrupt them
                    raise StiffnessError(t, dt, body)
                dt *= 0.5
        body = new_body
        t += dt
        trace.steps += 1


def _doubled_step(frozen: _Frozen, u_hat, n_u, dt: float):
    """Step doubling by Richardson extrapolation of one ETDRK4 map, L frozen
    at the start's: (the body, its coefficients, the error estimate).

    The whole step and the first half step advance as one two-row stack;
    the second half step starts from the first's coefficients and N.  The
    body is built from the extrapolated jet u_{dt/2,dt/2} +
    (u_{dt/2,dt/2} - u_dt)/15, and the estimate of the error of
    u_{dt/2,dt/2} is the area-RMS of u_dt - u_{dt/2,dt/2} over 15, relative
    to the RMS of u.  Raises BodyValidityError if a stage leaves the
    valid-body cone."""
    grid = frozen.grid
    dts = np.array([dt, 0.5 * dt]).reshape(-1, *[1] * np.ndim(u_hat))
    weights = _step_weights(frozen.lin, dts)
    ends = _etdrk4(frozen, u_hat, n_u, weights)  # the whole and the first half step
    ends_jet, det = frozen.stage(ends)
    n_half = frozen.nonlinear(ends_jet.values[1], 1.0 / det[1], ends[1])
    fine = _etdrk4(frozen, ends[1], n_half, [w[1] for w in weights])
    fine_jet, _ = frozen.stage(fine)
    whole_rows = ends_jet.rows[0]
    diff = fine_jet.values - whole_rows[0]
    err = (average(grid, diff * diff) / average(grid, fine_jet.values**2)) ** 0.5 / 15.0
    rows = fine_jet.rows + (fine_jet.rows - whole_rows) / 15.0
    return ConvexBody.from_jet(SupportJet(grid, rows)), fine + (fine - ends[0]) / 15.0, err


def _step_factor(err: float) -> float:
    """Step-size change for a step whose error estimate is ``err``:
    0.8 (STEP_TOL / err)^(1/5), the local error being O(dt^5), kept
    within [0.2, 5]."""
    if err == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.8 * (STEP_TOL / err) ** 0.2))


def _safe_start(body: ConvexBody, z: np.ndarray):
    """Warm start for the entropy Newton, reset if no longer deep interior."""
    u_z = body.support_about(z)
    if np.min(u_z) > 2e-6 * float(np.max(body.support)):
        return z
    return None


# ---------------------------------------------------------------------------
# post-hoc analyses
# ---------------------------------------------------------------------------


def dissipation_identity_residual(trace: FlowTrace) -> float:
    """Max over interior rows with t >= 0.05 of |d(avg log u)/dt + D(t)|.

    Three-point nonuniform centered differences on the recorded times.  The
    identity d/dt avg log u = -D holds exactly for the normalized flow while
    avg(u det A) = 1, so the residual is O(dt_record^2) + quadrature error.
    The max skips the rows before t = 0.05, where transients at the first
    record can otherwise dominate; the difference stencil always uses the
    full row sequence, so the set of differenced times does not shift with
    the record spacing and residuals at different spacings stay comparable
    row by row.
    """
    t_min = 0.05
    t = trace.t
    e_f = trace.column("firey")
    d = trace.column("dissipation")
    if len(t) < 3:
        raise ParameterError("need at least 3 recorded rows")
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    deriv = (
        h1**2 * e_f[2:] + (h2**2 - h1**2) * e_f[1:-1] - h2**2 * e_f[:-2]
    ) / (h1 * h2 * (h1 + h2))
    resid = np.abs(deriv + d[1:-1])[t[1:-1] >= t_min - 1e-14]
    if resid.size == 0:
        raise ParameterError(f"no interior row at t >= {t_min}")
    return float(np.max(resid))


@dataclass(frozen=True)
class MonitorCheck:
    name: str
    ok: bool
    value: float
    detail: str = ""
    skipped: bool = False


@dataclass(frozen=True)
class MonitorReport:
    checks: tuple

    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def monitor_bounds(trace: FlowTrace) -> MonitorReport:
    """Evaluate the a-posteriori monitor suite on a normalized-mode trace.

    Hard assertions: the two-sided support band, the dimension-2 u/K lower
    bound after t = 0.1, Newton's inequality in AM-GM form on the principal
    radii, (trace A / n)^n >= det A (these three via the per-row violation
    counter), the entropy/Firey monotonicity, and the integrated dissipation
    inequality.  Curvature and trace bounds are reported as run constants
    (their boundedness is the claim; the constants are body-dependent).
    The drift constant C in |e(t)|^2 <= C (E - avg log u) is fitted, never
    asserted.
    """
    t = trace.t
    if len(t) < 2:
        raise ParameterError("need at least 2 recorded rows")
    u_min = trace.column("u_min")
    u_max = trace.column("u_max")
    k_min = trace.column("gauss_min")
    k_max = trace.column("gauss_max")
    tr_max = trace.column("trace_a_max")
    e_val = trace.column("entropy")
    e_f = trace.column("firey")
    e_c = trace.column("chow")
    e_norm = trace.column("entropy_point_norm")

    checks = []

    def add(name, ok, value, detail="", skipped=False):
        checks.append(MonitorCheck(name, bool(ok), float(value), detail, skipped))

    band_lo, band_hi = float(np.min(u_min)), float(np.max(u_max))
    add("support-band", band_lo >= 1e-3 and band_hi <= 1e3, band_lo,
        f"support stays in [{band_lo:.3e}, {band_hi:.3e}]")
    add("gauss-upper", np.isfinite(k_max).all(), float(np.max(k_max)),
        "run constant: max K")
    late = t >= 1.0
    if late.any():
        add("gauss-lower-late", bool(np.min(k_min[late]) > 0.0),
            float(np.min(k_min[late])), "run constant: min K for t >= 1")
    else:
        add("gauss-lower-late", True, 0.0, "run shorter than t = 1", skipped=True)
    add("trace-bound", np.isfinite(tr_max).all(), float(np.max(tr_max)),
        "run constant: max trace A")

    # pointwise monitors were folded into the per-row violation counter
    violations = trace.column("violations")
    add("pointwise", bool(np.max(violations) == 0), float(np.max(violations)),
        "per-row violation counter (support band, K > 0, u/K floor, Newton)")

    # entropy monotonicity along records
    rise_e = float(np.max(np.diff(e_val)))
    add("entropy-monotone", rise_e <= 1e-9, rise_e, "max recorded increase of E")
    rise_f = float(np.max(np.diff(e_f)))
    add("firey-monotone", rise_f <= 1e-9, rise_f, "max recorded increase of avg log u")

    # integrated dissipation inequality via trapezoid sums:
    # E(t0) - E(t1) <= int_{t1}^{t0} (E - E_C) dt <= 0 for t1 <= t0
    integrand = e_val - e_c
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))]
    )
    inc = float(np.max(np.diff(cum)))
    add("dissipation-integral-nonpositive", inc <= 1e-9, inc,
        "max trapezoid increment of cumulative (E - E_C)")
    gap = e_val - cum  # E(t) - C(t) must be non-increasing
    rise_gap = float(np.max(np.diff(gap)))
    add("dissipation-integral-dominates", rise_gap <= 1e-6, rise_gap,
        "max increase of E(t) - cumulative integral")

    # drift constant fit |e|^2 <= C (E - E_F)
    gap_ef = e_val - e_f
    mask = gap_ef > 1e-13
    drift_c = float(np.max(e_norm[mask] ** 2 / gap_ef[mask])) if mask.any() else 0.0
    add("entropy-point-drift", True, drift_c,
        "fitted C in |e|^2 <= C (E - avg log u); reported, not asserted")

    return MonitorReport(checks=tuple(checks))


@dataclass(frozen=True)
class HarnackReport:
    ok: bool
    worst_monotonicity_slack: float
    lower_constant: float
    t_extinction_estimate: float
    detail: str = ""


def harnack_monitor(trace: FlowTrace) -> HarnackReport:
    """Per-node Harnack checks on an un-normalized run of at least 3 rows.

    (i) K(x,t) t^{n/(n+1)} non-decreasing in t at every node (slack 1e-6, streamed);
    (ii) K(x,t) (T-t)^{n/(n+1)} bounded below by a positive run constant (read
    from the ``gauss_min`` column), with the extinction time T estimated by linear
    extrapolation of the exactly-linear volume decay (approximate, never assumed).
    """
    if trace.config.mode != "unnormalized":
        raise ParameterError("Harnack monitor applies to un-normalized runs")
    if len(trace.rows) < 3:
        raise ParameterError("need at least 3 recorded rows")
    t = trace.t
    p = trace.dim / (trace.dim + 1.0)
    mono_ok = trace.harnack_slack >= -1e-6

    # (ii) lower bound with extrapolated extinction time
    v = trace.column("volume")
    rate = (v[-2] - v[-1]) / (t[-1] - t[-2])
    if rate <= 0.0:
        raise SolverError("volume is not decreasing; cannot extrapolate extinction")
    t_ext = t[-1] + v[-1] / rate
    rem = (t_ext - t) ** p
    lower = float(np.min(trace.column("gauss_min") * rem))

    return HarnackReport(
        ok=mono_ok and lower > 0.0,
        worst_monotonicity_slack=trace.harnack_slack,
        lower_constant=lower,
        t_extinction_estimate=float(t_ext),
        detail=f"extinction estimated at t = {t_ext:.6g} (extrapolated)",
    )
