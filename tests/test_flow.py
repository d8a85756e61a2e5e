"""Flow integration against closed-form solutions and a-posteriori monitors.

The exactly-solvable trajectories (balls under both modes, the translation
gauge mode) pin the integrator to round-off; the dissipation identity and the
step-halving study check its order of accuracy on a genuinely curved body.
"""

import csv
from fractions import Fraction
from functools import cache
from math import exp, factorial

import numpy as np
import pytest

from gcflab import flow as flow_module
from gcflab.body import ConvexBody, make_shape, normalize_volume
from gcflab.constants import ball_volume
from gcflab.errors import ParameterError, SolverError, StiffnessError
from gcflab.flow import (
    TRACE_COLUMNS,
    FlowConfig,
    dissipation_identity_residual,
    harnack_monitor,
    monitor_bounds,
    run,
    stable_dt,
    step,
)
from gcflab.sphere import SphereGrid, average, build_grid
from gcflab.verify import (_FLOW_CASES, corpus, corpus_runs, desk_grid, dissipation_run,
                           fixed_point_run, round_convergence_run, shrinking_ball_run)

from conftest import with_origin


def bumpy(g1):
    return make_shape(g1, "harmonic", modes=[(2, 0.1, 0.05), (3, 0.0, 0.04)],
                      normalize=True)


def steiner_point(grid, f):
    """s with <s, x> the degree-1 part of a band-limited nodal field f, by
    quadrature: s_j = sum w f x_j / sum w x_j^2 (the Steiner point of a
    support function f)."""
    w, x = grid.weights, grid.nodes
    return (w @ (f[:, None] * x)) / (w @ (x * x))


def gate_traces():
    """label -> trace of the gate's five normalized corpus runs."""
    return {label: trace for label, trace, _ in corpus_runs()}


def start_stage(body, recenter):
    """(frozen part, u^, N(u)) of a normalized step from ``body``, as the
    public step makes it."""
    return flow_module._start_stage(body, True, recenter, body.grid.analyze(body.support))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(mode="backwards"),
        dict(t_end=0.0),
        dict(t_end=-1.0),
        dict(t_end=float("nan")),
        dict(t_end=float("inf")),
        dict(soliton_tol=float("nan")),
        dict(soliton_tol=-1e-6),
        dict(soliton_tol=float("inf")),
        dict(output_stride=0),
        dict(mode="unnormalized", project_volume=True),
        dict(fixed_dt=0.0),
        dict(fixed_dt=-1e-3),
        dict(fixed_dt=float("inf")),
        dict(t_end=True),
        dict(soliton_tol=True),
        dict(soliton_tol=np.bool_(False)),
        dict(fixed_dt=True),
        dict(output_stride=float("nan")),
        dict(output_stride=2.5),
        dict(recenter="no"),
        dict(recenter=1),
        dict(recenter=None),
        dict(project_volume="no"),
        dict(project_volume=0),
    ],
)
def test_config_rejects_bad_parameters(kw):
    with pytest.raises(ParameterError):
        FlowConfig(**kw)


def test_config_accepts_numpy_bools():
    cfg = FlowConfig(recenter=np.bool_(True), project_volume=np.bool_(False))
    assert cfg.recenter and not cfg.project_volume


def test_config_accepts_numpy_integer_counts():
    assert FlowConfig(output_stride=np.int64(7)).output_stride == 7


def test_projection_default_tracks_mode():
    assert FlowConfig(mode="normalized").project_volume is True
    assert FlowConfig(mode="unnormalized").project_volume is False
    assert FlowConfig(mode="normalized", project_volume=False).project_volume is False


def test_step_rejects_nonpositive_dt(g1):
    with pytest.raises(ParameterError):
        step(make_shape(g1, "ball"), 0.0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_step_rejects_non_finite_dt(g1, dt):
    with pytest.raises(ParameterError):
        step(make_shape(g1, "ball"), dt)


@pytest.mark.parametrize("mode", ["normalised", ""])
def test_step_rejects_unknown_mode(g1, mode):
    with pytest.raises(ParameterError):
        step(make_shape(g1, "ball"), 1e-4, mode)


# ---------------------------------------------------------------------------
# stage bodies from combined jets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1, 2], ids=["s1", "s2"])
def flow_body(request, g1, g2):
    if request.param == 1:
        return make_shape(g1, "random_valid", seed=5, amplitude=0.15, parity="even",
                          normalize=True)
    return make_shape(g2, "ellipsoid", semiaxes=(1.2, 1.0, 1 / 1.2), normalize=True)


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# Round-off of one spectral second derivative: derivative_bundle(0.7 u) / 0.7
# differs from derivative_bundle(u) by 2.4e-12 to 5.0e-12 relative on S^1
# n = 256 (modes up to k = 127, eps k^2 = 3.6e-12) and by 2.8e-13 to 3.0e-13
# on S^2 32x64, measured on four bodies each; the bounds sit above that floor.
ROUNDOFF = {1: 1e-11, 2: 1e-12}


def test_stage_body_from_combined_jets_matches_rebuilt_curvature(flow_body):
    # a stage body's jet is the jet synthesized from its coefficients (here
    # u^ + dt k^, k the masked, degree-1-free velocity): its curvature is the
    # one rebuilt from its support, which analyzes the samples once more
    grid = flow_body.grid
    u_hat = grid.analyze(flow_body.support)
    vel = flow_body.support - flow_body.curvature.gauss
    mask = grid.degree_mask(1.0)
    mask[1] = 0.0
    k_hat = grid.analyze(vel) * mask
    dt = 0.125 * stable_dt(flow_body)
    stage = ConvexBody.from_jet(grid.synthesize(u_hat + dt * k_hat, jet=True))
    ref = ConvexBody(grid, stage.support).curvature
    for name in ("det_a", "trace_a", "min_eig_a", "adj_trace_a", "grad"):
        gap = _relative_gap(getattr(stage.curvature, name), getattr(ref, name))
        assert gap <= ROUNDOFF[grid.dim], (name, gap)


def _spy(monkeypatch, name, record):
    """Wrap the SphereGrid method ``name``; ``record(args, kwargs, result)``
    sees every call."""
    original = getattr(SphereGrid, name)

    def spied(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        record(args, kwargs, result)
        return result

    monkeypatch.setattr(SphereGrid, name, spied)


def test_accepted_step_makes_one_transform_pair_per_stage(flow_body, monkeypatch):
    # a normalized, projected, recentered ETDRK4 step makes one analysis per
    # body but the result (the start's support, the velocities of the start
    # and the three stages) and one synthesis per body but the start (three
    # stages and the result), and differentiates no support: no
    # derivative_bundle, no nodal lowpass
    calls = dict.fromkeys(("analyze", "synthesize", "derivative_bundle", "lowpass"), 0)
    for name in calls:
        _spy(monkeypatch, name, lambda *_, _name=name: calls.__setitem__(_name, calls[_name] + 1))
    dt = 0.25 * stable_dt(flow_body)
    stepped = normalize_volume(step(flow_body, dt, "normalized", recenter=True))
    assert calls == {"analyze": 5, "synthesize": 4, "derivative_bundle": 0, "lowpass": 0}
    assert stepped.volume() == pytest.approx(ball_volume(flow_body.dim), abs=1e-12)


@pytest.mark.parametrize("recenter", [False, True])
def test_doubled_step_shares_its_start_and_changes_nothing(flow_body, recenter, monkeypatch):
    # an attempt freezes L at the start's, takes its weights from one call
    # and advances the whole and the first half step as one two-row stack;
    # the second half step starts from the first's coefficients and N.  From
    # a body with no carried state that is 9 analyses (the start's support
    # and velocity, three stacked stages, the first half's velocity and three
    # stages) and 8 syntheses (three stacked stages, the stacked ends, three
    # stages and the fine end) and one body.
    # The stack changes nothing: its rows end where the public step at dt
    # and at dt/2 ends, bit for bit, and the body is u_fine + (u_fine - u_dt)/15
    # of the synthesized jets.
    dt = 0.25 * stable_dt(flow_body)
    grid = flow_body.grid
    seen = []  # (coefficients, rows) of each jet synthesis
    _spy(monkeypatch, "synthesize", lambda args, kwargs, result: seen.append(
        (args[0].copy(), result.rows.copy())) if kwargs.get("jet") else None)
    ends = []
    for h in (dt, 0.5 * dt):
        step(flow_body, h, "normalized", recenter)
        ends.append(seen[-1][0])
    seen.clear()
    calls = dict.fromkeys(("analyze", "synthesize", "_etd_weights", "__post_init__"), 0)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in ("analyze", "synthesize"):
        _spy(monkeypatch, name, counted(name, lambda *_: None))
    monkeypatch.setattr(flow_module, "_etd_weights",
                        counted("_etd_weights", flow_module._etd_weights))
    monkeypatch.setattr(ConvexBody, "__post_init__",  # every body built
                        counted("__post_init__", ConvexBody.__post_init__))
    start = start_stage(flow_body, recenter)
    body, coeffs, err = flow_module._doubled_step(*start, dt)
    assert calls == {"analyze": 9, "synthesize": 8, "_etd_weights": 1, "__post_init__": 1}
    (stacked, stacked_rows), (fine, fine_rows) = seen[3], seen[-1]
    np.testing.assert_array_equal(stacked, np.stack(ends))
    fine_u, whole_u = fine_rows[0], stacked_rows[0, 0]
    np.testing.assert_array_equal(body.support, fine_u + (fine_u - whole_u) / 15.0)
    np.testing.assert_array_equal(coeffs, fine + (fine - stacked[0]) / 15.0)
    diff = fine_u - whole_u
    assert err == (average(grid, diff * diff) / average(grid, fine_u**2)) ** 0.5 / 15.0


@pytest.mark.parametrize("recenter", [False, True])
def test_step_damps_masked_coefficients_by_the_linear_part(flow_body, recenter, monkeypatch):
    # every coefficient the mask zeroes (the S^1 Nyquist coefficient, and
    # l = 1 when recentering) has N = 0, so the step multiplies it by
    # e^{dt L_l}: it decays at the linear rate of its degree.  L_1 = 0, so a
    # recentered l = 1 passes bit for bit.  A translation gives the start
    # body l = 1 content, and on S^1 the Nyquist mode (-1)^j gives it a
    # tail.  The step's first analysis is of its start support and its last
    # jet synthesis is of the result's coefficients.
    body = with_origin(flow_body, np.full(flow_body.dim + 1, 0.02))
    grid = body.grid
    if grid.dim == 1:
        body = ConvexBody(grid, body.support + 1e-6 * (-1.0) ** np.arange(grid.n_nodes))
    start = grid.analyze(body.support)
    analyses, jets = [], []
    _spy(monkeypatch, "analyze", lambda args, kwargs, result: analyses.append(result))
    _spy(monkeypatch, "synthesize",
         lambda args, kwargs, result: jets.append(args[0].copy()) if kwargs.get("jet") else None)
    dt = 0.25 * stable_dt(body)
    step(body, dt, "normalized", recenter)
    np.testing.assert_array_equal(analyses[0], start)
    n, l = body.dim, np.arange(start.shape[-1])  # the degree is the last axis
    c = body.curvature
    lin = 0.5 * np.max(c.gauss / c.min_eig_a) * np.minimum(n + 1 - l * (l + n - 1.0), 0.0)
    masked = grid.degree_mask(1.0) == 0.0
    masked[1] = recenter
    assert np.abs(start[..., 1]).max() > 1e-3
    np.testing.assert_allclose(jets[-1][..., masked], (np.exp(dt * lin) * start)[..., masked],
                               rtol=1e-14, atol=0.0)
    tail = grid.degree_mask(1.0) == 0.0  # the S^1 Nyquist coefficient; none on S^2
    assert tail.any() == (grid.dim == 1) and np.all(np.abs(start[..., tail]) > 9e-7)
    assert np.all(np.abs(jets[-1][..., tail]) < np.abs(start[..., tail]))
    assert not np.array_equal(jets[-1][..., ~masked], start[..., ~masked])
    assert np.array_equal(jets[-1][..., 1], start[..., 1]) == recenter


# A mode growing at rate n+1 = 3 from round-off would reach 1e-3 by t = 10:
# a recentered S^2 run to t = 12 that ends at round-off has none.
LONG_RUN_T = 12.0


def test_damped_tail_lets_the_residual_reach_round_off():
    # the S^2 gate ellipsoid, recentered and normalized, to t = 12: with the
    # masked tail frozen the residual floored at 6.2e-8 and its slope over
    # [1e-7, 1e-4] was 2.83; damped, it falls at the rate n+1 = 3 of the
    # slowest degree to round-off (3.6e-14)
    body = make_shape(desk_grid(2), "ellipsoid", semiaxes=(1.2, 1.0, 1 / 1.2), normalize=True)
    trace, _ = run(body, FlowConfig(t_end=LONG_RUN_T, output_stride=1, soliton_tol=0.0,
                                    recenter=True))
    residual = trace.column("soliton_residual")
    assert residual[-1] <= 1e-12
    window = (residual >= 1e-7) & (residual <= 1e-4)
    assert np.count_nonzero(window) >= 10
    rate = -np.polyfit(trace.t[window], np.log(residual[window]), 1)[0]
    assert abs(rate - 3.0) <= 1e-2


def test_recentered_random_body_reaches_round_off(corpus_bodies):
    # the gate's random-2-s21, recentered and normalized, to t = 12: residual
    # 3.4e-14
    trace, _ = run(corpus_bodies["random-2-s21"],
                   FlowConfig(t_end=LONG_RUN_T, output_stride=10**9, soliton_tol=0.0,
                              recenter=True))
    assert trace.last("soliton_residual") <= 1e-12


def test_linear_part_only_damps(flow_body):
    # L is clipped to <= 0.  The S^1 body (the soliton gate's) has max K = 40,
    # so S = 1/2 max K / lambda_min(A) = 801: unclipped, the rate (n+1) S at
    # l = 0 would grow the start by e^16 over dt = 0.01 and leave the cone
    stepped = step(flow_body, 0.01)
    assert np.abs(stepped.support - flow_body.support).max() < 0.05


def test_run_and_step_project_the_start_onto_its_coefficients(g2):
    # the S^2 coefficients do not hold every nodal field: the transform drops
    # the longitude Nyquist mode (-1)^j.  The flow's state is its
    # coefficients, so the public step projects implicitly and a run
    # projects its start once, before the first record: both end with no
    # Nyquist content
    base = make_shape(g2, "ellipsoid", semiaxes=(1.2, 1.0, 1 / 1.2), normalize=True)
    body = ConvexBody(g2, base.support + 1e-4 * (-1.0) ** np.arange(g2.n_nodes))

    def nyquist(b):
        return np.abs(np.fft.rfft(b.support.reshape(g2.shape))[:, -1]).max() / g2.shape[1]

    assert nyquist(body) > 9e-5
    assert nyquist(step(body, 0.25 * stable_dt(body))) <= 1e-14
    trace, final = run(body, FlowConfig(t_end=0.05, soliton_tol=0.0))
    assert trace.steps >= 5 and nyquist(final) <= 1e-14
    projected = ConvexBody(g2, g2.synthesize(g2.analyze(body.support)))
    assert trace.rows[0][TRACE_COLUMNS.index("u_max")] == pytest.approx(
        normalize_volume(projected).support.max(), abs=1e-15)


def test_error_estimate_is_fifth_order(flow_body):
    # with L frozen at the start's, the whole step and the two half steps are
    # one 4th-order map at dt and dt/2, so the estimate, their difference,
    # is O(dt^5): halving dt divides it by about 2^5 = 32, against 16 for an
    # O(dt^4) estimate.  _step_factor's exponent 1/5 rests on this.  On S^1
    # the degrees up to 127 reach the asymptote only at a smaller dt: the
    # ratio is 18.7 at 0.25 stable_dt and 26.2 at 1/16 of it; on S^2 it is
    # 28.9 at 0.25 stable_dt.
    dt = (0.25 if flow_body.dim == 2 else 1 / 16) * stable_dt(flow_body)
    start = start_stage(flow_body, False)
    ratio = (flow_module._doubled_step(*start, dt)[2]
             / flow_module._doubled_step(*start, 0.5 * dt)[2])
    assert 24.0 <= ratio <= 40.0


# ---------------------------------------------------------------------------
# exactly solvable trajectories
# ---------------------------------------------------------------------------


def test_unit_ball_is_a_fixed_point():
    # the fixed-point gate check's dim-1 run (same grid and config), held
    # here to the tighter bound
    trace, final = fixed_point_run(1)
    assert np.abs(final.support - 1.0).max() <= 1e-12
    assert np.abs(trace.column("u_min") - 1.0).max() <= 1e-12
    assert np.abs(trace.column("u_max") - 1.0).max() <= 1e-12


def test_unit_ball_fixed_point_dim2():
    _, final = fixed_point_run(2)
    assert np.abs(final.support - 1.0).max() <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_shrinking_ball_matches_closed_form(dim):
    # u(t) = (1 - (n+1) t)^(1/(n+1)), volume decays linearly; the
    # shrinking-ball gate check's run, held here to tighter bounds
    t_end = 0.8 / (dim + 1)
    trace, final = shrinking_ball_run(dim)
    r_exact = (1.0 - (dim + 1) * t_end) ** (1.0 / (dim + 1))
    assert np.abs(final.support - r_exact).max() <= 1e-9
    v_exact = ball_volume(dim) * (1.0 - (dim + 1) * trace.t)
    assert np.abs(trace.column("volume") - v_exact).max() <= 1e-10

    # per-node Harnack monitor: K t^p non-decreasing, positive lower constant,
    # extinction time recovered exactly from the linear volume decay
    report = harnack_monitor(trace)
    assert report.ok
    assert report.worst_monotonicity_slack >= 0.0
    assert report.t_extinction_estimate == pytest.approx(1.0 / (dim + 1), abs=1e-10)
    p = dim / (dim + 1.0)
    assert report.lower_constant == pytest.approx((dim + 1.0) ** -p, abs=1e-6)


def test_harnack_monitor_requires_unnormalized_run():
    with pytest.raises(ParameterError):
        harnack_monitor(fixed_point_run(1)[0])  # rejected for its mode, not its rows


@pytest.mark.parametrize("r0, t_end", [(0.9, 0.5), (1.1, 1.0)])
def test_unprojected_normalized_ball_closed_form(g1, r0, t_end):
    # without projection, r(t) = (1 + (r0^2 - 1) e^{2t})^{1/2} in dim 1
    trace, final = run(
        make_shape(g1, "ball", radius=r0),
        FlowConfig(mode="normalized", t_end=t_end, output_stride=200,
                   project_volume=False, soliton_tol=0.0),
    )
    r_exact = (1.0 + (r0**2 - 1.0) * exp(2.0 * t_end)) ** 0.5
    assert np.abs(final.support - r_exact).max() <= 1e-12


def test_translation_mode_grows_exponentially_without_recentering(g1):
    # u0 = 1 + <c, x> stays a translated ball with displacement c e^t
    c = 0.05
    body = make_shape(g1, "translated_ball", radius=1.0, center=[c, 0.0])
    cfg = dict(mode="normalized", t_end=2.0, output_stride=200, soliton_tol=0.0)
    trace, final = run(body, FlowConfig(**cfg))
    assert np.abs(final.support - 1.0).max() == pytest.approx(c * exp(2.0), abs=1e-9)
    assert trace.last("entropy_point_norm") == pytest.approx(c * exp(2.0), abs=1e-9)

    trace_rc, final_rc = run(body, FlowConfig(recenter=True, **cfg))
    assert np.abs(final_rc.support - 1.0).max() <= 1e-10
    assert trace_rc.last("entropy_point_norm") <= 1e-10


@pytest.mark.parametrize(
    "dim, modes, t_end",
    [
        (1, [(2, 0.1, 0.05), (3, 0.0, 0.04)], 0.3),
        (2, [(3, 1, 0.05), (3, -2, 0.03), (1, 1, 0.05)], 0.1),
    ],
)
def test_recentering_removes_exactly_the_degree_one_part(dim, modes, t_end):
    # A and K are translation invariant, so the plain run minus its degree-1
    # part is the recentered run; the recentered body keeps its Steiner point
    # at the origin.  The degree-1 part is read by quadrature, as a reference
    # independent of the flow's coefficient mask
    grid = build_grid(1, n=64) if dim == 1 else build_grid(2, n_theta=16, n_phi=32)
    body = make_shape(grid, "harmonic", modes=modes, normalize=True)
    cfg = dict(mode="normalized", t_end=t_end, output_stride=1000, soliton_tol=0.0)
    _, plain = run(body, FlowConfig(**cfg))
    _, centred = run(body, FlowConfig(recenter=True, **cfg))
    u = plain.support
    assert np.abs(u - grid.nodes @ steiner_point(grid, u) - centred.support).max() <= 1e-12
    assert np.abs(steiner_point(grid, centred.support)).max() <= 1e-14


def _oval_support(n: int, s: float) -> np.ndarray:
    """Angenent's oval at T - t = s on the n-node S^1 grid.  Its curvature
    as a function of the normal angle theta is kappa = (coth 2s - cos 2
    theta)^{1/2}, so rho = 1/kappa = u'' + u and u_k = rho_k / (1 - k^2);
    rho has only even k.  rho_k comes from an FFT on 2^14 points, where the
    coefficients rho_k fall below round-off long before the fold (they decay
    as e^{-0.136 k} at s = 1)."""
    size = 2**14
    theta = 2.0 * np.pi * np.arange(size) / size
    rho_hat = np.fft.rfft((1.0 / np.tanh(2.0 * s) - np.cos(2.0 * theta)) ** -0.5)
    k = np.arange(rho_hat.size, dtype=float)
    k[1] = 0.0  # rho_1 = 0
    return np.fft.irfft(rho_hat / (1.0 - k**2), size)[:: size // n]


@pytest.mark.parametrize("n, bound", [(256, 1e-12), (128, 1e-10)])
def test_angenent_oval_is_exact(n, bound):
    # on S^1 the unnormalized flow is curve shortening, and kappa^2 =
    # coth(2(T - t)) - cos 2 theta solves it: Angenent's oval (J. Differential
    # Geom. 33, 1991), of area 2 pi (T - t).  From T - t = 1 (curvature ratio
    # e^2) to 0.25 the support is within 2.4e-13 (n = 256) and 2.4e-11
    # (n = 128) of the exact one, and the area within 6.8e-14 and 5.7e-11
    grid = build_grid(1, n=n)
    _, final = run(ConvexBody(grid, _oval_support(n, 1.0)),
                   FlowConfig(mode="unnormalized", t_end=0.75, output_stride=10**9))
    assert np.abs(final.support - _oval_support(n, 0.25)).max() <= bound
    assert abs(final.volume() - 2.0 * np.pi * 0.25) <= bound


def test_normalized_angenent_oval_is_exact():
    # the normalized flow is the unnormalized one rescaled: from a body of
    # the ball's volume, u(tau) = e^tau v((1 - e^{-(n+1) tau}) / (n+1)).  The
    # oval at T - t = 1 scaled to area pi thus stays the oval, at
    # T - t = s = e^{-2 tau} and scaled by 1/sqrt(2 s); by symmetry its
    # entropy point is the origin.  To tau = 0.5 (671 steps) the support is
    # within 1.5e-12
    n = 256
    grid = build_grid(1, n=n)
    _, final = run(ConvexBody(grid, _oval_support(n, 1.0) / np.sqrt(2.0)),
                   FlowConfig(t_end=0.5, output_stride=10**9, soliton_tol=0.0))
    s = exp(-1.0)
    assert np.abs(final.support - _oval_support(n, s) / np.sqrt(2.0 * s)).max() <= 1e-11


@pytest.fixture(scope="module")
def corpus_bodies():
    return dict(corpus())


def flow_span(label):
    """tau of a corpus body: its gate run's span (1.2 on S^1, 0.8 on S^2), or
    0.8 for the S^2 bodies without a gate run."""
    return _FLOW_CASES.get(label, 0.8)


@pytest.fixture(scope="module")
def unnormalized_run(corpus_bodies):
    """label -> (trace, final body) of the unnormalized run to
    s(tau) = (1 - e^{-(n+1) tau}) / (n+1), every step recorded; each body is
    integrated once per module."""
    @cache
    def get(label):
        body = corpus_bodies[label]
        n = body.dim
        s = -np.expm1(-(n + 1) * flow_span(label)) / (n + 1)
        return run(body, FlowConfig(mode="unnormalized", t_end=s, output_stride=1))
    return get


@pytest.fixture(scope="module")
def normalized_final(corpus_bodies):
    """label -> the projected normalized body at tau: the gate runs' final
    bodies, and one run made here for wavy-2, which has no gate run.  The
    output stride does not change the steps, so the gate's stride-1 finals
    are those of any stride."""
    finals = {label: final for label, _, final in corpus_runs()}
    cfg = FlowConfig(t_end=flow_span("wavy-2"), output_stride=10**9, soliton_tol=0.0)
    finals["wavy-2"] = run(corpus_bodies["wavy-2"], cfg)[1]
    return finals


@pytest.mark.parametrize("label, bound", [("ellipse-3:2", 1e-12), ("wavy-1", 1e-12),
                                          ("random-1-s11", 1e-12),
                                          ("ellipsoid-2", 1e-10), ("wavy-2", 1e-10),
                                          ("random-2-s21", 1e-8), ("random-2-s22", 1e-8)])
def test_unnormalized_volume_law(corpus_bodies, unnormalized_run, label, bound):
    # dV/dt = -int (1/det A) det A = -|S^n| under the unnormalized flow, so
    # V(t) = V_0 - |S^n| t exactly.  To s(tau) (0.455 on S^1, 0.303 on S^2)
    # the gate corpus bodies hold it to 2.0e-13, 2.5e-13 and 5.7e-13 on S^1,
    # and 7.5e-13, 1.2e-12, 1.1e-9 and 9.4e-10 on S^2
    trace, _ = unnormalized_run(label)
    volume = trace.column("volume")
    area = corpus_bodies[label].grid.area
    assert np.abs(volume - (volume[0] - area * trace.t)).max() <= bound


@pytest.mark.parametrize("label, bound", [("ellipse-3:2", 1e-11), ("wavy-1", 1e-11),
                                          ("random-1-s11", 1e-11),
                                          ("ellipsoid-2", 1e-10), ("wavy-2", 1e-11),
                                          ("random-2-s21", 1e-8)])
def test_normalized_flow_is_the_rescaled_unnormalized_flow(unnormalized_run, normalized_final,
                                                           label, bound):
    # from a body of the ball's volume, the projected normalized run is the
    # unnormalized run v rescaled: u(tau) = e^tau v((1 - e^{-(n+1) tau}) / (n+1)).
    # At tau = 1.2 on S^1 and 0.8 on S^2 the gate corpus bodies hold it to
    # 4.0e-13, 5.0e-13 and 1.1e-12 on S^1, and 7.5e-13, 1.1e-12 and 1.0e-9
    # on S^2
    _, unnormalized = unnormalized_run(label)
    normalized = normalized_final[label]
    gap = np.abs(normalized.support - exp(flow_span(label)) * unnormalized.support).max()
    assert gap <= bound


@pytest.mark.parametrize("label, bound", [("ellipsoid-2", 1e-12), ("wavy-2", 1e-12),
                                          ("random-2-s21", 1e-9)])
def test_flow_commutes_with_rotations(corpus_bodies, normalized_final, label, bound):
    # a rotated body R K has support u(R^T x); the flow commutes with R, so
    # the run of the rotated start is the rotated run.  The 32x64 Gauss grid
    # does not commute with R, so the gap measures its anisotropy: to
    # tau = 0.8, 6.4e-15 and 2.7e-15, and 1.9e-10 on random-2-s21
    body = corpus_bodies[label]
    grid = body.grid
    q, r = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    rotation = q * np.sign(np.diag(r))
    rotation *= np.linalg.det(rotation)
    rotated = grid.nodes @ rotation  # R^T x, row by row
    cfg = FlowConfig(t_end=flow_span(label), output_stride=10**9, soliton_tol=0.0)
    _, final_rotated = run(ConvexBody(grid, grid.eval(body.support, rotated)), cfg)
    gap = np.abs(final_rotated.support - grid.eval(normalized_final[label].support, rotated)).max()
    assert gap <= bound


def test_ellipsoid_relaxes_to_the_ball():
    # the round-convergence gate check's run (soliton_tol 1e-5)
    trace, final = round_convergence_run()
    assert trace.converged
    assert trace.last("t") < 5.0
    assert trace.last("soliton_residual") < 1e-4
    assert np.abs(final.support - 1.0).max() <= 1e-2
    assert trace.rejections == 0


@pytest.mark.parametrize("semiaxes, t_end", [((1.2, 1 / 1.2), 6.2), ((1.2, 1.0, 1 / 1.2), 4.2)])
def test_late_decay_rate_is_n_plus_one(semiaxes, t_end):
    # linearized about the unit sphere, degree l decays at rate
    # l(l+n-1) - (n+1); the volume projection fixes l = 0 and l = 1 is the
    # translation gauge, so l = 2 sets the late rate n+1.  The window
    # sup |u - 1| in [1e-6, 1e-3] ends by t = 6.0 on S^1 and 4.0 on S^2.
    dim = len(semiaxes) - 1
    body = make_shape(desk_grid(dim), "ellipsoid", semiaxes=semiaxes, normalize=True)
    trace, _ = run(body, FlowConfig(mode="normalized", t_end=t_end, output_stride=1,
                                    soliton_tol=0.0))
    sup = np.maximum(trace.column("u_max") - 1.0, 1.0 - trace.column("u_min"))
    window = (sup >= 1e-6) & (sup <= 1e-3)
    assert np.count_nonzero(window) >= 20 and sup[-1] < 1e-6
    # least-squares slope of log sup |u - 1| against t; measured 2.000068 and 2.999872
    rate = -np.polyfit(trace.t[window], np.log(sup[window]), 1)[0]
    assert abs(rate - (dim + 1)) <= 1e-3


def test_converged_start_returns_immediately(g1):
    trace, final = run(make_shape(g1, "ball"), FlowConfig(t_end=1.0))
    assert trace.converged
    assert trace.steps == 0
    assert len(trace.rows) == 1


# ---------------------------------------------------------------------------
# conservation, monotonicity, monitors
# ---------------------------------------------------------------------------


def test_volume_projection_pins_the_volume():
    # the gate's wavy-1 corpus run: the body bumpy() builds, flowed to t = 1.2
    trace = gate_traces()["wavy-1"]
    assert np.abs(trace.column("volume") - ball_volume(1)).max() <= 1e-12


def test_volume_nearly_conserved_without_projection(g1):
    trace, _ = run(bumpy(g1), FlowConfig(mode="normalized", t_end=1.0,
                                         output_stride=50, project_volume=False,
                                         soliton_tol=0.0))
    assert np.abs(trace.column("volume") - ball_volume(1)).max() <= 1e-12


def test_monitor_suite_on_generic_run():
    # the gate's wavy-1 corpus run (the body bumpy() builds, to t = 1.2)
    trace = gate_traces()["wavy-1"]
    report = monitor_bounds(trace)
    assert report.all_ok(), [c for c in report.checks if not c.ok]
    by_name = {c.name: c for c in report.checks}
    assert by_name["entropy-monotone"].value <= 1e-9
    assert by_name["firey-monotone"].value <= 1e-9
    assert by_name["pointwise"].value == 0.0
    assert np.all(np.diff(trace.t) > 0.0)


def test_monitor_suite_on_dim2_run():
    # the gate's dim-2 corpus runs
    runs = gate_traces()
    for label in ("ellipsoid-2", "random-2-s21"):
        report = monitor_bounds(runs[label])
        assert report.all_ok(), (label, [c for c in report.checks if not c.ok])


def test_comparison_principle_preserves_inclusion(g1):
    # nested initial bodies stay nested after every unnormalized ETDRK4 step
    inner = make_shape(g1, "harmonic", modes=[(2, 0.1, 0.05), (3, 0.0, 0.04)])
    outer = make_shape(g1, "ball", radius=1.4)
    gap0 = float(np.min(outer.support - inner.support))
    assert gap0 > 0.0
    dt = 0.005
    for _ in range(40):
        inner = step(inner, dt, "unnormalized")
        outer = step(outer, dt, "unnormalized")
        assert float(np.min(outer.support - inner.support)) >= gap0 - 1e-12


@pytest.fixture(scope="module")
def shrinking_ellipse():
    body = make_shape(build_grid(1, n=64), "ellipsoid", semiaxes=(1.2, 0.9))
    return run(body, FlowConfig(mode="unnormalized", t_end=0.2))


def test_harnack_monitor_on_default_unnormalized_run(shrinking_ellipse):
    # every un-normalized run streams the Harnack data, with no opt-in
    report = harnack_monitor(shrinking_ellipse[0])
    assert report.ok and np.isfinite(report.worst_monotonicity_slack), report


def test_finished_trace_holds_no_body_or_node_array(shrinking_ellipse):
    # one row of scalars per record and no body; the final state is a record
    trace, final = shrinking_ellipse
    assert not any(isinstance(v, (ConvexBody, np.ndarray)) for v in vars(trace).values())
    assert all(isinstance(v, (int, float)) for row in trace.rows for v in row)
    assert 0.0 < trace.gradient_slack <= np.max(final.support) - np.max(final.curvature.grad_norm)


# ---------------------------------------------------------------------------
# dissipation identity and order of accuracy
# ---------------------------------------------------------------------------


def test_dissipation_identity_and_step_halving():
    # d/dt avg log u = -D along the projected normalized flow; the recorded
    # residual is dominated by the O(spacing^2) differencing error and must
    # drop fourfold when the record spacing is halved (the gate check's runs).
    res = {}
    for spacing in (1e-3, 5e-4):
        trace = dissipation_run(spacing)
        assert trace.rejections == 0
        res[spacing] = dissipation_identity_residual(trace)
    assert res[1e-3] <= 1e-6
    # measured reduction factor is 4.000; 3.99 guards round-off portability
    assert res[5e-4] <= res[1e-3] / 3.99


def test_dissipation_residual_needs_three_rows(g1):
    trace, _ = run(make_shape(g1, "ball"), FlowConfig(t_end=0.1, soliton_tol=0.0,
                                                      output_stride=10**9))
    with pytest.raises(ParameterError):
        dissipation_identity_residual(trace)


def test_etdrk4_is_fourth_order_in_dt():
    # fixed steps of h, h/2 and h/4 to t = 0.4 on a coarse grid, so the
    # time-stepping error is visible above round-off
    g = build_grid(1, n=32)
    body = make_shape(g, "harmonic", modes=[(2, 0.1, 0.0)], normalize=True)
    dt0 = 0.025

    def final_support(dt):
        trace, fin = run(body, FlowConfig(mode="normalized", t_end=0.4,
                                          output_stride=10**9, fixed_dt=dt,
                                          soliton_tol=0.0))
        assert trace.rejections == 0
        return fin.support

    u0, u1, u2 = (final_support(dt0 / f) for f in (1, 2, 4))
    d1 = np.abs(u0 - u1).max()
    d2 = np.abs(u1 - u2).max()
    assert d2 > 1e-13  # above round-off, so the ratio is meaningful
    assert 12.0 < d1 / d2 < 22.0  # 2^4 = 16 for a fourth-order scheme


def _phi(k, x, terms=60):
    """phi_k(x) = sum_j x^j / (j+k)! over j <= terms, summed exactly: a
    float x is p / q, so the sum is one integer over (terms+k)! q^terms."""
    p, q = x.as_integer_ratio()
    top = factorial(terms + k)
    num = sum(p**j * q ** (terms - j) * (top // factorial(j + k)) for j in range(terms + 1))
    return Fraction(num, top * q**terms)


def test_etd_weights_match_the_phi_series():
    # Q = phi_1(z/2)/2, f1 = phi_1 - 3 phi_2 + 4 phi_3, f2 = phi_2 - 2 phi_3 and
    # f3 = 4 phi_3 - phi_2, in exact rationals (the first omitted term is
    # below 1e-40 on [-2.5, 0]): the Taylor series on (-1, 0] hold to 1e-14
    # and the closed forms from -1 down to 1e-13
    z = np.concatenate([[0.0], -np.logspace(-12, np.log10(0.999999), 120), [-1.0, -2.5]])
    e2, e1, *weights = flow_module._etd_weights(z)
    np.testing.assert_array_equal(e2, np.exp(0.5 * z))
    np.testing.assert_array_equal(e1, np.exp(z))
    for i, x in enumerate(z.tolist()):
        p1, p2, p3 = _phi(1, x), _phi(2, x), _phi(3, x)
        want = [float(v) for v in (_phi(1, 0.5 * x) / 2, p1 - 3 * p2 + 4 * p3, p2 - 2 * p3,
                                   4 * p3 - p2)]
        np.testing.assert_allclose([w[i] for w in weights], want,
                                   rtol=1e-14 if x > -1.0 else 1e-13, err_msg=str(x))


def test_step_size_control_grows_after_rejections(g1, monkeypatch):
    # a first step far too long for STEP_TOL is rejected and shrunk; on a
    # smooth body the accepted steps then grow again, by at most 5x a step
    monkeypatch.setattr(flow_module, "stable_dt", lambda body: 2.0)  # first step 0.5
    trace, _ = run(bumpy(g1), FlowConfig(mode="normalized", t_end=1.0, output_stride=1,
                                         soliton_tol=0.0))
    dt = trace.column("dt")[1:-1]  # accepted steps, less the one cut short at t_end
    assert trace.rejections >= 1
    assert dt[0] < 0.5
    assert dt.max() > 10.0 * dt[0]
    assert np.all(dt[1:] <= 5.0 * dt[:-1])


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_unstable_fixed_dt_fails_fast(g1):
    # a fixed step past the extinction time drives a stage out of the cone;
    # a fixed step is never shrunk, so the run stops at its first step
    with pytest.raises(StiffnessError, match="at t=0 "):
        run(bumpy(g1), FlowConfig(mode="unnormalized", t_end=1.0, fixed_dt=0.6))


def test_adaptive_run_collapses_at_extinction():
    # the shrinking ball dies at t = 1/2; the step size follows it down and
    # the run raises once the step falls below DT_FLOOR
    ball = make_shape(build_grid(1, n=32), "ball")
    with pytest.raises(StiffnessError) as info:
        run(ball, FlowConfig(mode="unnormalized", t_end=1.0, output_stride=10**6))
    assert info.value.t == pytest.approx(0.5, abs=1e-9)
    assert info.value.dt < flow_module.DT_FLOOR


def test_step_budget_exhaustion_raises(g1, monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_STEPS", 5)
    with pytest.raises(SolverError):
        run(bumpy(g1), FlowConfig(mode="normalized", t_end=5.0, soliton_tol=0.0))


def test_convergence_on_the_last_permitted_step_returns(monkeypatch):
    # a run that converges on its MAX_STEPS-th step has not run out of steps
    g = build_grid(1, n=32)
    body = make_shape(g, "harmonic", modes=[(2, 0.05, 0.0)], normalize=True)
    cfg = FlowConfig(mode="normalized", t_end=50.0, soliton_tol=1e-3)
    trace, final = run(body, cfg)
    assert trace.converged
    monkeypatch.setattr(flow_module, "MAX_STEPS", trace.steps)
    again, final_again = run(body, cfg)
    assert again.converged and again.steps == trace.steps
    np.testing.assert_array_equal(final_again.support, final.support)


# ---------------------------------------------------------------------------
# trace bookkeeping
# ---------------------------------------------------------------------------


def test_trace_csv_round_trip(g1, tmp_path):
    trace, _ = run(bumpy(g1), FlowConfig(mode="normalized", t_end=0.05,
                                         output_stride=20, soliton_tol=0.0))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == len(trace.rows) + 1
    parsed = np.array([[float(v) for v in row] for row in rows[1:]])
    for j, name in enumerate(TRACE_COLUMNS):
        np.testing.assert_array_equal(parsed[:, j], trace.column(name))
