"""Flow integration against closed-form solutions and a-posteriori monitors.

The exactly-solvable trajectories (balls under both modes, the translation
gauge mode) pin the integrator to round-off; the dissipation identity and the
step-halving study check its order of accuracy on a genuinely curved body.
"""

import csv
from math import exp

import numpy as np
import pytest

from gcflab.body import ConvexBody, make_shape, normalize_volume
from gcflab.constants import ball_volume
from gcflab.errors import ParameterError, SolverError, StiffnessError
from gcflab.flow import (
    DEALIAS_FRAC,
    TRACE_COLUMNS,
    FlowConfig,
    dissipation_identity_residual,
    harnack_monitor,
    monitor_bounds,
    run,
    stable_dt,
    step,
)
from gcflab.sphere import SphereGrid, SupportJet, build_grid, degree_one
from gcflab.verify import (corpus_runs, dissipation_run, fixed_point_run,
                           round_convergence_run, shrinking_ball_run)


@pytest.fixture(scope="module")
def g1():
    return build_grid(1, n=256)


@pytest.fixture(scope="module")
def g2():
    return build_grid(2, n_theta=32, n_phi=64)


def bumpy(g1):
    return make_shape(g1, "harmonic", modes=[(2, 0.1, 0.05), (3, 0.0, 0.04)],
                      normalize=True)


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
        dict(max_steps=0),
        dict(max_steps=float("nan")),
        dict(max_steps=100.0),
        dict(max_steps=True),
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
    cfg = FlowConfig(output_stride=np.int64(7), max_steps=np.int32(100))
    assert (cfg.output_stride, cfg.max_steps) == (7, 100)


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


@pytest.mark.parametrize("safety", [0.0, -1.0, float("nan"), float("inf")])
def test_stable_dt_rejects_bad_safety(g1, safety):
    with pytest.raises(ParameterError):
        stable_dt(make_shape(g1, "ball"), safety)


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
    # jet(u) + a dt jet(k), with k the filtered, degree-1-free velocity, is
    # the jet of the stage support: its curvature is the rebuilt one
    grid = flow_body.grid
    vel = flow_body.support - flow_body.curvature.gauss
    k = grid.filtered_jet(vel, DEALIAS_FRAC, drop_degree_one=True)
    dt = 0.5 * stable_dt(flow_body, 0.25)
    stage = ConvexBody.from_jet(
        SupportJet(grid, grid.derivative_bundle(flow_body.support).rows + dt * k.rows))
    ref = ConvexBody(grid, stage.support).curvature
    for name in ("det_a", "trace_a", "min_eig_a", "adj_trace_a", "grad"):
        gap = _relative_gap(getattr(stage.curvature, name), getattr(ref, name))
        assert gap <= ROUNDOFF[grid.dim], (name, gap)


def test_accepted_step_makes_one_transform_pair_per_stage(flow_body, monkeypatch):
    # a normalized, projected, recentered step differentiates its start
    # support once and never runs the nodal lowpass (5 and 4 calls before
    # the stage jets were combined)
    calls = {"derivative_bundle": 0, "lowpass": 0}
    for name in calls:
        original = getattr(SphereGrid, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SphereGrid, name, counted)
    dt = stable_dt(flow_body, 0.25)
    stepped = normalize_volume(step(flow_body, dt, "normalized", recenter=True))
    assert calls["derivative_bundle"] <= 1 and calls["lowpass"] == 0, calls
    assert stepped.volume() == pytest.approx(ball_volume(flow_body.dim), abs=1e-12)


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
    grid = build_grid(1, n=64) if dim == 1 else build_grid(2, n_theta=16, n_phi=32)
    body = make_shape(grid, "harmonic", modes=modes, normalize=True)
    cfg = dict(mode="normalized", t_end=t_end, output_stride=1000, soliton_tol=0.0)
    _, plain = run(body, FlowConfig(**cfg))
    _, centred = run(body, FlowConfig(recenter=True, **cfg))
    u = plain.support
    assert np.abs(u - grid.nodes @ degree_one(grid, u) - centred.support).max() <= 1e-12
    assert np.abs(degree_one(grid, centred.support)).max() <= 1e-14


def test_ellipsoid_relaxes_to_the_ball():
    # the round-convergence gate check's run (soliton_tol 1e-5)
    trace, final = round_convergence_run()
    assert trace.converged
    assert trace.last("t") < 5.0
    assert trace.last("soliton_residual") < 1e-4
    assert np.abs(final.support - 1.0).max() <= 1e-2
    assert trace.rejections == 0


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
    trace = dict(corpus_runs())["wavy-1"]
    assert np.abs(trace.column("volume") - ball_volume(1)).max() <= 1e-12


def test_volume_nearly_conserved_without_projection(g1):
    trace, _ = run(bumpy(g1), FlowConfig(mode="normalized", t_end=1.0,
                                         output_stride=50, project_volume=False,
                                         soliton_tol=0.0))
    assert np.abs(trace.column("volume") - ball_volume(1)).max() <= 1e-12


def test_monitor_suite_on_generic_run():
    # the gate's wavy-1 corpus run (the body bumpy() builds, to t = 1.2)
    trace = dict(corpus_runs())["wavy-1"]
    report = monitor_bounds(trace)
    assert report.all_ok(), [c for c in report.checks if not c.ok]
    by_name = {c.name: c for c in report.checks}
    assert by_name["entropy-monotone"].value <= 1e-9
    assert by_name["firey-monotone"].value <= 1e-9
    assert by_name["pointwise"].value == 0.0
    assert np.all(np.diff(trace.t) > 0.0)


def test_monitor_suite_on_dim2_run(g2):
    body = make_shape(g2, "random_valid", seed=7, amplitude=0.05, parity="even",
                      normalize=True)
    trace, _ = run(body, FlowConfig(mode="normalized", t_end=1.0,
                                    output_stride=20, soliton_tol=0.0))
    report = monitor_bounds(trace)
    assert report.all_ok(), [c for c in report.checks if not c.ok]


def test_comparison_principle_preserves_inclusion(g1):
    # nested initial bodies stay nested after every unnormalized step
    inner = make_shape(g1, "harmonic", modes=[(2, 0.1, 0.05), (3, 0.0, 0.04)])
    outer = make_shape(g1, "ball", radius=1.4)
    gap0 = float(np.min(outer.support - inner.support))
    assert gap0 > 0.0
    dt = 0.5 * min(stable_dt(inner, 0.25), stable_dt(outer, 0.25))
    for _ in range(int(0.2 / dt)):
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
    # residual is dominated by the O(dt_record^2) differencing error and must
    # drop fourfold when the record spacing is halved (the gate check's runs).
    res = {}
    for dt in (4e-5, 2e-5):
        trace = dissipation_run(dt)
        assert trace.rejections == 0
        res[dt] = dissipation_identity_residual(trace, t_min=0.05)
    assert res[4e-5] <= 1e-6
    # measured reduction factor is 4.000; 3.99 guards round-off portability
    assert res[2e-5] <= res[4e-5] / 3.99


def test_dissipation_residual_needs_three_rows(g1):
    trace, _ = run(make_shape(g1, "ball"), FlowConfig(t_end=0.1, soliton_tol=0.0,
                                                      output_stride=10**9))
    with pytest.raises(ParameterError):
        dissipation_identity_residual(trace)


def test_rk4_is_fourth_order_in_dt():
    # coarse grid so the time-stepping error is visible above round-off
    g = build_grid(1, n=32)
    body = make_shape(g, "harmonic", modes=[(2, 0.1, 0.0)], normalize=True)
    dt0 = 2.5e-3
    assert dt0 < stable_dt(body, 0.25)

    def final_support(dt):
        trace, fin = run(body, FlowConfig(mode="normalized", t_end=0.2,
                                          output_stride=10**9, fixed_dt=dt,
                                          soliton_tol=0.0))
        assert trace.rejections == 0
        return fin.support

    u0, u1, u2 = (final_support(dt0 / f) for f in (1, 2, 4))
    d1 = np.abs(u0 - u1).max()
    d2 = np.abs(u1 - u2).max()
    assert d2 > 1e-13  # above round-off, so the ratio is meaningful
    assert 12.0 < d1 / d2 < 22.0  # 2^4 = 16 for a fourth-order scheme


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_unstable_fixed_dt_fails_fast(g1):
    body = bumpy(g1)
    dt = 40.0 * stable_dt(body, 1.0)
    with pytest.raises(StiffnessError):
        run(body, FlowConfig(mode="normalized", t_end=1.0, fixed_dt=dt,
                             soliton_tol=0.0))


def test_step_budget_exhaustion_raises(g1):
    with pytest.raises(SolverError):
        run(bumpy(g1), FlowConfig(mode="normalized", t_end=5.0, soliton_tol=0.0,
                                  max_steps=5))


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
