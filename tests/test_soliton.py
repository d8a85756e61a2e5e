"""Soliton residuals, the selection functional, and its variations.

Closed forms on balls pin the residual and functional; the first variation is
checked against a centered finite difference of the functional itself, so the
Euler-Lagrange density and the quadrature cannot share a bug.
"""

import numpy as np
import pytest

from gcflab.body import ConvexBody, harmonic_field, make_shape, normalize_volume
from gcflab.constants import ball_volume
from gcflab.entropy import firey_entropy
from gcflab.errors import ParameterError
from gcflab.flow import soliton_residual
from gcflab.soliton import (
    j1_first_variation,
    j1_value,
    remove_first_harmonics,
    solve_soliton,
    stability_form,
)
from gcflab.sphere import average
from gcflab.verify import soliton_solves


# ---------------------------------------------------------------------------
# residual and functional closed forms
# ---------------------------------------------------------------------------


def test_residual_on_balls(g1, g2):
    # u det A = r^(n+1) for a ball of radius r
    assert soliton_residual(make_shape(g1, "ball")) <= 1e-12
    # the dim-2 curvature carries the associated-Legendre tabulation floor
    assert soliton_residual(make_shape(g2, "ball")) <= 1e-10
    for g in (g1, g2):
        n = g.dim
        for r in (1.3, 0.7):
            b = make_shape(g, "ball", radius=r)
            assert soliton_residual(b) == pytest.approx(abs(r ** (n + 1) - 1), abs=1e-9)


def test_j1_on_balls(g1, g2):
    for g in (g1, g2):
        n = g.dim
        assert abs(j1_value(make_shape(g, "ball"))) <= 1e-12
        for r in (1.3, 0.7):
            b = make_shape(g, "ball", radius=r)
            expected = 0.5 * (r ** (n + 1) - 1.0) ** 2
            assert j1_value(b) == pytest.approx(expected, abs=1e-12)


def test_j1_reduces_to_log_mean_at_unit_volume(g1):
    # at unit-ball volume avg(u det A) = 1, so only the first term survives
    body = make_shape(g1, "ellipsoid", semiaxes=(1.5, 0.8), normalize=True)
    assert j1_value(body) == pytest.approx(firey_entropy(body), abs=1e-12)
    assert j1_value(body) > 0.0


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------


def test_first_variation_vanishes_at_unit_ball(g1, g2):
    for g in (g1, g2):
        ball = make_shape(g, "ball")
        if g.dim == 1:
            rho = harmonic_field(g, [(3, 0.7, -0.2), (5, 0.1, 0.0)])
        else:
            rho = harmonic_field(g, [(3, 1, 0.7), (4, -2, 0.2)])
        assert abs(j1_first_variation(ball, rho)) <= 1e-9


def test_first_variation_matches_finite_difference(g1, g2):
    rng = np.random.default_rng(11)
    eta = 1e-5
    for g in (g1, g2):
        for _ in range(5):
            z = np.full(g.dim + 1, 0.1 / np.sqrt(g.dim + 1))  # |z| = 0.1
            body = make_shape(g, "random_valid", seed=int(rng.integers(10000)),
                              amplitude=0.2).translate(z)
            if g.dim == 1:
                modes = [(k, float(rng.normal()), float(rng.normal()))
                         for k in (2, 3, 5)]
            else:
                modes = [(l, int(rng.integers(-l, l + 1)), float(rng.normal()))
                         for l in (2, 3, 4)]
            rho = harmonic_field(g, modes)
            rho = rho / max(1.0, float(np.abs(rho).max()))
            fd = (
                j1_value(ConvexBody(g, body.support + eta * rho))
                - j1_value(ConvexBody(g, body.support - eta * rho))
            ) / (2.0 * eta)
            assert j1_first_variation(body, rho) == pytest.approx(fd, abs=1e-7)


# ---------------------------------------------------------------------------
# stability form at the unit ball
# ---------------------------------------------------------------------------


def test_stability_form_on_harmonics(g1, g2):
    # degree-k harmonic: Q = (k(k+n-1) - (n+1)) avg eta^2
    theta = np.arctan2(g1.nodes[:, 1], g1.nodes[:, 0])
    eta = np.cos(3.0 * theta)
    assert stability_form(g1, eta) == pytest.approx((9 - 2) * 0.5, abs=1e-9)

    eta2 = harmonic_field(g2, [(2, 1, 0.8)])
    expected = (6 - 3) * float(average(g2, eta2 * eta2))
    assert stability_form(g2, eta2) == pytest.approx(expected, abs=1e-9)


def test_stability_form_translation_direction_is_negative(g1, g2):
    for g in (g1, g2):
        x1 = g.nodes[:, 0].copy()
        expected = -float(average(g, x1 * x1))
        assert stability_form(g, x1) == pytest.approx(expected, abs=1e-9)
        assert stability_form(g, x1) < 0.0


def test_stability_form_on_constants(g1, g2):
    for g, c in ((g1, 0.3), (g2, -0.2)):
        n = g.dim
        eta = np.full(g.n_nodes, c)
        assert stability_form(g, eta) == pytest.approx((n + 1) ** 2 * c * c, abs=1e-9)


def test_stability_on_projected_random_fields(g1, g2):
    # Q(eta) >= (lambda_2 - (n+1)) avg eta^2 once constants and first
    # harmonics are projected out
    for g in (g1, g2):
        n = g.dim
        lam2 = 2 * (n + 1)
        w, x = g.weights, g.nodes
        for s in range(50):
            rng = np.random.default_rng(1000 + s)
            if n == 1:
                modes = [(k, rng.normal(), rng.normal()) for k in range(1, 9)]
            else:
                modes = [(l, m, rng.normal()) for l in range(1, 9)
                         for m in range(-l, l + 1)]
            eta = harmonic_field(g, modes) + float(rng.normal())
            eta = remove_first_harmonics(g, eta)
            assert abs(w @ eta) <= 1e-12
            for j in range(n + 1):
                assert abs(w @ (eta * x[:, j])) <= 1e-12
            mean_sq = float(average(g, eta * eta))
            assert stability_form(g, eta) >= (lam2 - (n + 1) - 1e-6) * mean_sq


# ---------------------------------------------------------------------------
# soliton solves
# ---------------------------------------------------------------------------


def test_solve_from_the_ball_is_immediate(g1):
    final, report = solve_soliton(make_shape(g1, "ball"), tol=1e-6)
    assert report.converged
    assert report.t_final == 0.0
    assert report.residual <= 1e-12
    assert report.dual_bound_pass
    assert abs(report.j1) <= 1e-12


def test_solve_symmetric_start_reaches_round_state():
    # the soliton-report gate check's solve of this body; it stops near t = 5,
    # so its t_end = 15 ends it exactly where the default t_end = 20 would
    final, report = soliton_solves()[0]
    assert report.converged
    assert report.residual <= 1e-5
    assert np.abs(final.support - 1.0).max() <= 1e-3
    assert abs(report.dual_volume_at_origin - ball_volume(1)) <= 1e-4
    assert report.dual_bound_pass
    assert report.entropy_point_norm <= 1e-5
    # distinguished-point condition at the origin
    cond = [abs(float(average(final.grid, final.grid.nodes[:, j] / final.support)))
            for j in range(2)]
    assert max(cond) <= 1e-6


def test_solve_asymmetric_dim2_start():
    # the soliton-report gate check's solve of 1 + (3,1,0.05) + (3,-2,0.03),
    # volume-normalized; it stops well before its t_end = 15
    final, report = soliton_solves()[1]
    assert report.converged
    assert report.residual <= 1e-5
    assert report.dual_volume_at_origin >= ball_volume(2) - 1e-6
    assert report.entropy_point_norm <= 1e-5
    # Euler-Lagrange residual is controlled by the soliton residual
    assert report.first_variation_residual <= 10.0 * report.residual
    # whether the endpoint is round is recorded, not asserted
    roundness = float(np.abs(final.support - 1.0).max())
    assert np.isfinite(roundness)


def test_nonconvergence_returns_flagged_partial_report(g2):
    bump = harmonic_field(g2, [(3, 1, 0.05), (3, -2, 0.03)])
    body = normalize_volume(ConvexBody(g2, 1.0 + bump))
    final, report = solve_soliton(body, tol=1e-8, t_end=0.05)
    assert not report.converged
    assert report.residual > 1e-8
    assert report.t_final == pytest.approx(0.05, rel=1e-6)


def test_solve_requires_normalized_volume(g1):
    with pytest.raises(ParameterError):
        solve_soliton(make_shape(g1, "ball", radius=1.2))
    with pytest.raises(ParameterError):
        solve_soliton(make_shape(g1, "ball"), tol=0.0)
    with pytest.raises(ParameterError):
        solve_soliton(make_shape(g1, "ball"), tol=float("nan"))


def test_euler_lagrange_constant_stays_bounded(g2):
    # mid-flow states: EL max-norm <= C * soliton residual with modest C
    bump = harmonic_field(g2, [(3, 1, 0.05), (3, -2, 0.03)])
    body = normalize_volume(ConvexBody(g2, 1.0 + bump))
    from gcflab.soliton import _euler_lagrange_density

    el = float(np.max(np.abs(_euler_lagrange_density(body))))
    assert el <= 10.0 * soliton_residual(body)
