"""Time integration of the Gauss-curvature support flow.

Two modes on the same right-hand side scaffold:

    unnormalized   u_t = -1/det A          (bodies shrink, extinct in finite time)
    normalized     u_t = u - 1/det A       (volume preserved by the continuous flow)

Stepping is explicit RK4 with the parabolic restriction

    dt = DT_SAFETY * h_min^2 / max(K * trace A^{-1}),   DT_SAFETY = 1/4

coming from the linearized operator K A^{ij} grad_i grad_j: its largest
coefficient is K trace(A^{-1}), and h_min is the finest resolved scale of the
grid.  Steps whose stages leave the valid-body cone are rejected and retried
with dt/2; collapse below 1e-12 raises :class:`StiffnessError` with the last
state attached.

The stage velocities are dealiased with a 2/3-rule filter.  Evaluating
1/det A pointwise on the dimension-2 grid aliases the top of the spectral
band through the colatitude quadrature, and the resulting discrete operator
acquires a large cluster of spurious eigenvalues near +(n+1) (the continuous
rates are (n+1) - l(l+1) <= -(n+1) for l >= 2): round-off seeds those modes
and long runs blow up after the shape has converged.  Filtering the velocity
restores the damping of the continuous operator; the dimension-1 transform
has no such quadrature and is unaffected, but the filter is applied
uniformly.

In normalized mode the discrete volume drifts at O(dt^4); optional projection
rescales the support after every accepted step so the volume stays at the
unit-ball value exactly.  A and K do not change under u -> u - <z, x>, so the
origin is a gauge choice; optional recentering moves the body to its Steiner
point and removes the degree-1 part of every stage velocity, which keeps the
linearized translation mode (growing like e^t) out of long runs.  The entropy
point then agrees with the origin to O(sup|u - 1|^2) at a round endpoint.

Cost of a step.  The filter and the recentering are masks on the velocity's
coefficients: the degrees above the 2/3 cut and, when recentering, the l = 1
coefficients are zeroed, which is exact for a band-limited field.  The
masked coefficients are synthesized straight into the velocity's jet rows
(:meth:`SphereGrid.filtered_jet`), and derivatives are linear in u, so a
stage body's jet is jet(u) + a dt jet(k): one forward transform of the
velocity and one stacked synthesis per stage, and no transform of the
stage support.  The step differentiates its start body's support once
(one ``derivative_bundle``); the stage bodies and the accepted body read
their curvature from the combined jets and are validated at the same
thresholds as any body.  Volume projection rescales the accepted body's
curvature (one quadrature), so an accepted step costs one
``derivative_bundle`` and four filtered jets.

``FlowTrace`` collects a fixed 15-column series and streamed minima; monitor suites
(:func:`monitor_bounds`, :func:`harnack_monitor`) evaluate the a-posteriori
bounds on a finished trace and report violations as data, never as errors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .body import ConvexBody, normalize_volume
from .entropy import entropy_point
from .errors import (
    BodyValidityError,
    ParameterError,
    SolverError,
    StepRejected,
    StiffnessError,
)
from .sphere import SupportJet, average, degree_one

__all__ = [
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
    "step",
]

DT_FLOOR = 1e-12
DT_SAFETY = 0.25
DEALIAS_FRAC = 2.0 / 3.0
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
    otherwise.  ``fixed_dt`` (positive) bypasses the adaptive step size for
    convergence studies; the caller must keep it inside the stability limit
    (a rejected fixed step raises StiffnessError instead of silently
    shrinking, which would corrupt the deterministic step sequence).  ``recenter``
    (a bool) keeps the Steiner point at the origin by removing degree-1
    velocity parts.
    """

    mode: str = "normalized"
    t_end: float = 1.0
    project_volume: bool = None
    output_stride: int = 10
    soliton_tol: float = 1e-6
    fixed_dt: float = None
    recenter: bool = False
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not isinstance(self.recenter, (bool, np.bool_)):
            raise ParameterError(f"recenter must be a bool, got {self.recenter!r}")
        if not isinstance(self.project_volume, (bool, np.bool_, type(None))):
            raise ParameterError(
                f"project_volume must be a bool or None, got {self.project_volume!r}")
        if not 0.0 < self.t_end < np.inf:
            raise ParameterError("t_end must be positive and finite")
        if not 0.0 <= self.soliton_tol < np.inf:
            raise ParameterError("soliton_tol must be non-negative and finite")
        for name in ("output_stride", "max_steps"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
                raise ParameterError(f"{name} must be an integer >= 1")
        if self.fixed_dt is not None and not 0.0 < self.fixed_dt < np.inf:
            raise ParameterError("fixed_dt must be positive and finite")
        if self.project_volume and self.mode == "unnormalized":
            raise ParameterError("volume projection only applies to the normalized flow")
        if self.project_volume is None:
            object.__setattr__(self, "project_volume", self.mode == "normalized")


@dataclass
class FlowTrace:
    """Diagnostic time series with a pinned column layout.

    ``rows[i]`` matches ``TRACE_COLUMNS``; the per-row ``violations`` entry
    counts instantaneous monitor breaches (support band, positive curvature,
    the dimension-2 u/K lower bound, and Newton's inequality in its AM-GM form
    on the principal radii, (trace A / n)^n >= det A) known at record time.
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


def _velocity_jet(body: ConvexBody, normalized: bool, recenter: bool) -> np.ndarray:
    """Jet rows of the filtered (and, if ``recenter``, degree-1-free) velocity."""
    gauss = body.curvature.gauss
    vel = body.support - gauss if normalized else -gauss
    return body.grid.filtered_jet(vel, DEALIAS_FRAC, recenter).rows


def step(body: ConvexBody, dt: float, mode: str = "normalized",
         recenter: bool = False) -> ConvexBody:
    """One explicit RK4 step; raises StepRejected if any stage leaves the
    valid-body cone (the caller halves dt and retries)."""
    if not 0.0 < dt < np.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt!r}")
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    normalized = mode == "normalized"
    grid = body.grid
    u = grid.derivative_bundle(body.support).rows

    def stage(rows):
        return ConvexBody.from_jet(SupportJet(grid, rows))

    try:
        k1 = _velocity_jet(body, normalized, recenter)
        k2 = _velocity_jet(stage(u + 0.5 * dt * k1), normalized, recenter)
        k3 = _velocity_jet(stage(u + 0.5 * dt * k2), normalized, recenter)
        k4 = _velocity_jet(stage(u + dt * k3), normalized, recenter)
        return stage(u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    except BodyValidityError as exc:
        raise StepRejected(f"dt={dt:.3e}: {exc}") from exc


def stable_dt(body: ConvexBody, safety: float) -> float:
    if not 0.0 < safety < np.inf:
        raise ParameterError(f"safety must be positive and finite, got {safety!r}")
    c = body.curvature
    # K * mean curvature, formed here so the cached ``mean_curvature`` stays lazy
    rate = float(np.max(c.gauss * (c.gauss * c.adj_trace_a)))
    return safety * body.grid.h_min**2 / rate


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

    Records a row at t = 0, every ``output_stride`` accepted steps, and at
    the end.  In normalized mode the run also stops early once the soliton
    residual max|u det A - 1| falls below ``soliton_tol``.

    The recorded curvature columns, the residual and the final body's
    curvature are those of the stepped bodies, read from combined jets and,
    with volume projection, rescaled (see :class:`~gcflab.body.CurvatureData`).
    ``ConvexBody(grid, final.support)`` recomputes them from the support and
    can differ by round-off, so a residual that stopped the run just under
    ``soliton_tol`` may land just over it after a rebuild.
    """
    cfg = config
    normalized = cfg.mode == "normalized"
    if cfg.project_volume:
        body = normalize_volume(body)
    if cfg.recenter:
        body = body.translate(degree_one(body.grid, body.support))

    trace = FlowTrace(config=cfg, dim=body.dim)
    z_e = np.zeros(body.dim + 1)
    prev_weighted = None  # K t^{n/(n+1)} at the previous record (un-normalized)

    def record(t, dt_used, residual):
        nonlocal z_e, prev_weighted
        c = body.curvature
        u = body.support
        z_e, e_val, _ = entropy_point(body, z0=_safe_start(body, z_e))
        log_u = np.log(u)
        ratio = c.gauss / u
        dissipation = float(average(body.grid, ratio + 1.0 / ratio)) - 2.0
        trace.rows.append(
            (
                t,
                dt_used,
                body.volume(),
                e_val,
                float(average(body.grid, log_u)),
                float(average(body.grid, np.log(c.gauss))),
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

    t = 0.0
    record(t, 0.0, soliton_residual(body))
    if normalized and trace.last("soliton_residual") < cfg.soliton_tol:
        trace.converged = True
        return trace, body

    # relative guard: after many steps the accumulated t carries round-off
    # ~ steps * eps * t_end, and an absolute epsilon would let a spurious
    # ~1e-14 leftover step through (duplicating the final record time)
    t_done = cfg.t_end * (1.0 - 1e-9)
    while t < t_done and trace.steps < cfg.max_steps:
        dt = min(cfg.fixed_dt or stable_dt(body, DT_SAFETY), cfg.t_end - t)
        while True:
            try:
                new_body = step(body, dt, cfg.mode, cfg.recenter)
                break
            except StepRejected:
                trace.rejections += 1
                if cfg.fixed_dt:
                    # a fixed step size exists for reproducible sequences;
                    # silently substituting smaller steps would corrupt them
                    raise StiffnessError(t, dt, body)
                dt *= 0.5
                if dt < DT_FLOOR:
                    raise StiffnessError(t, dt, body)
        body = normalize_volume(new_body) if cfg.project_volume else new_body
        t += dt
        trace.steps += 1
        residual = soliton_residual(body)
        done = t >= t_done
        if normalized and residual < cfg.soliton_tol:
            trace.converged = True
            done = True
        if done or trace.steps % cfg.output_stride == 0:
            record(t, dt, residual)
        if done:
            break

    if trace.steps >= cfg.max_steps and t < t_done:
        raise SolverError(f"step budget {cfg.max_steps} exhausted at t={t:.6g}")
    return trace, body


def _safe_start(body: ConvexBody, z: np.ndarray):
    """Warm start for the entropy Newton, reset if no longer deep interior."""
    u_z = body.support_about(z)
    if np.min(u_z) > 2e-6 * float(np.max(body.support)):
        return z
    return None


# ---------------------------------------------------------------------------
# post-hoc analyses
# ---------------------------------------------------------------------------


def dissipation_identity_residual(trace: FlowTrace, t_min: float = None) -> float:
    """Max over interior rows of |d(avg log u)/dt + D(t)|.

    Three-point nonuniform centered differences on the recorded times.  The
    identity d/dt avg log u = -D holds exactly for the normalized flow while
    avg(u det A) = 1, so the residual is O(dt_record^2) + quadrature error.
    ``t_min`` restricts the reported max to rows with t >= t_min (transients
    at the first record can otherwise dominate); the difference stencil
    always uses the full row sequence, so the set of differenced times does
    not shift with the record spacing and residuals at different spacings
    stay comparable row by row.
    """
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
    resid = np.abs(deriv + d[1:-1])
    if t_min is not None:
        resid = resid[t[1:-1] >= t_min - 1e-14]
        if resid.size == 0:
            raise ParameterError("t_min excludes every interior row")
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
    drift_constant: float

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

    return MonitorReport(checks=tuple(checks), drift_constant=drift_c)


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
