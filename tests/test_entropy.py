"""Entropy functionals, distinguished points, and Monte Carlo cross-checks."""

import numpy as np
import pytest

from gcflab import verify
from gcflab.body import ConvexBody, geometry_summary, make_shape, normalize_volume
from gcflab.constants import ball_volume, sphere_area
from gcflab.entropy import (
    chow_entropy,
    entropy_point,
    entropy_report,
    firey_entropy,
    mc_log_integral,
    mc_polar_mass_center,
    santalo_point,
)
from gcflab.errors import ParameterError
from gcflab.sphere import average


# ---------------------------------------------------------------------------
# entropy point
# ---------------------------------------------------------------------------


def test_entropy_point_ball(g1):
    z, e, res = entropy_point(make_shape(g1, "ball"))
    assert np.linalg.norm(z) < 1e-10
    assert abs(e) < 1e-12
    assert res <= 1e-7


@pytest.mark.parametrize("dim,center", [(1, [0.3, 0.0]), (2, [0.3, 0.0, 0.0]),
                                        (2, [0.1, -0.25, 0.2])])
def test_entropy_point_translated_ball(dim, center, g1, g2):
    g = g1 if dim == 1 else g2
    b = make_shape(g, "translated_ball", radius=1.0, center=center)
    z, e, res = entropy_point(b)
    # entropy is translation invariant and vanishes exactly on balls
    assert np.linalg.norm(z - np.asarray(center)) < 1e-8
    assert abs(e) < 1e-9
    assert res <= 1e-7


def test_entropy_point_symmetric_ellipse(g1):
    b = make_shape(g1, "ellipsoid", semiaxes=(1.5, 1 / 1.5))
    z, e, _ = entropy_point(b)
    assert np.linalg.norm(z) < 1e-8
    # with z_e at the center, E is just the quadrature mean of log u ...
    assert abs(e - average(g1, np.log(b.support))) < 1e-12
    # ... positive and below log of the circumradius
    assert 0.0 < e <= np.log(1.5)


def test_entropy_point_unique_across_starts(g1):
    b = make_shape(g1, "random_valid", seed=7, translation=0.2)
    z_ref, e_ref, _ = entropy_point(b)
    rng = np.random.default_rng(123)
    for _ in range(5):
        z0 = 0.3 * rng.normal(size=2)
        if np.min(b.support - g1.nodes @ z0) < 0.05:
            continue
        z, e, _ = entropy_point(b, z0=z0)
        assert np.linalg.norm(z - z_ref) < 1e-7
        assert abs(e - e_ref) < 1e-10


def test_entropy_translation_equivariance(g2):
    b = make_shape(g2, "random_valid", seed=4, translation=0.1)
    z_ref, e_ref, _ = entropy_point(b)
    shift = np.array([0.05, -0.1, 0.08])
    bt = b.translate(shift)
    z, e, _ = entropy_point(bt)
    assert abs(e - e_ref) < 1e-9
    assert np.linalg.norm(z - (z_ref - shift)) < 1e-8


def test_entropy_rotation_invariance(g1, g2):
    # rotating by a whole number of grid steps permutes the samples exactly
    b = make_shape(g1, "random_valid", seed=9, translation=0.15)
    e_ref = entropy_point(b)[1]
    e_rot = entropy_point(ConvexBody(g1, np.roll(b.support, 17)))[1]
    assert abs(e_rot - e_ref) < 1e-9

    b = make_shape(g2, "random_valid", seed=9, translation=0.15)
    e_ref = entropy_point(b)[1]
    n_theta, n_phi = g2.shape
    rolled = np.roll(b.support.reshape(n_theta, n_phi), 5, axis=1).ravel()
    e_rot = entropy_point(ConvexBody(g2, rolled))[1]
    assert abs(e_rot - e_ref) < 1e-9


def test_entropy_point_rejects_bad_start(g1):
    b = make_shape(g1, "ball")
    with pytest.raises(ParameterError):
        entropy_point(b, z0=[0.9999999, 0.0])
    with pytest.raises(ParameterError):
        entropy_point(b, z0=[0.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        entropy_point(b, z0=[float("nan"), 0.0])


# ---------------------------------------------------------------------------
# Santalo point
# ---------------------------------------------------------------------------


def test_santalo_point_fixtures(g1, g2):
    z, v_star = santalo_point(make_shape(g1, "ball"))
    assert np.linalg.norm(z) < 1e-10 and abs(v_star - np.pi) < 1e-12

    c = np.array([0.3, 0.0, 0.0])
    b = make_shape(g2, "translated_ball", radius=1.0, center=c)
    z, v_star = santalo_point(b)
    assert np.linalg.norm(z - c) < 1e-8
    # balls saturate the polar-product inequality
    assert abs(b.volume() * v_star - ball_volume(2) ** 2) < 1e-9

    b = make_shape(g1, "ellipsoid", semiaxes=(1.4, 1 / 1.4))
    z, _ = santalo_point(b)
    assert np.linalg.norm(z) < 1e-8


def test_polar_product_inequality(g1, g2):
    # V(body) * V(polar about Santalo point) <= squared ball volume
    for g, seed, tr in [(g1, 3, 0.25), (g1, 8, 0.0), (g2, 5, 0.2)]:
        b = make_shape(g, "random_valid", seed=seed, translation=tr)
        _, v_star = santalo_point(b)
        assert b.volume() * v_star <= ball_volume(g.dim) ** 2 + 1e-8


# ---------------------------------------------------------------------------
# scalar entropies and the report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,radius", [(1, 2.0), (1, 0.7), (2, 1.5)])
def test_chow_entropy_ball(dim, radius, g1, g2):
    g = g1 if dim == 1 else g2
    b = make_shape(g, "ball", radius=radius)
    assert abs(chow_entropy(b) + dim * np.log(radius)) < 1e-12
    assert abs(firey_entropy(b) - np.log(radius)) < 1e-12


def test_report_unit_ball(g2):
    rep = entropy_report(make_shape(g2, "ball"))
    assert abs(rep.entropy) < 1e-12
    assert abs(rep.firey) < 1e-12
    assert abs(rep.chow) < 1e-12
    assert abs(rep.dual_vol_at_origin - ball_volume(2)) < 1e-12
    assert rep.all_ok()
    assert rep.constant_provenance == "derived"


def test_report_chain_on_bodies(g1, g2):
    # volume-corrected chain: E_C + log(V/V_ball) >= E >= E_F, with the
    # radius/width/polar bounds, must pass on assorted bodies of any volume
    shapes = [
        make_shape(g1, "ellipsoid", semiaxes=(1.5, 0.8)),
        make_shape(g1, "random_valid", seed=12, translation=0.3),
        make_shape(g1, "ball", radius=0.5),
        make_shape(g2, "random_valid", seed=3, translation=0.15),
        make_shape(g2, "harmonic", modes=[(2, 1, 0.12), (4, -3, 0.04)]),
    ]
    for b in shapes:
        rep = entropy_report(b)
        assert rep.all_ok(), [c for c in rep.checks if not c.ok]
        assert rep.first_order_residual <= 1e-7
        assert rep.entropy >= rep.firey - 1e-9


def test_report_outer_bound_rhs_is_max_width():
    # rho+ <= w+/sqrt(2), so the report's rhs w+ equals max(w+, rho+)
    for _, body in verify.corpus():
        rhs = {c.name: c.rhs for c in entropy_report(body).checks}["outer-radius-bound"]
        s = geometry_summary(body)
        assert rhs == max(s.w_plus, s.rho_plus)


def test_normalized_chain_is_plain(g1):
    # at unit-ball volume the chain reduces to E_C >= E >= E_F >= 0
    b = normalize_volume(make_shape(g1, "random_valid", seed=21))
    rep = entropy_report(b)
    assert rep.chow >= rep.entropy - 1e-10
    assert rep.entropy >= rep.firey - 1e-9
    assert rep.firey >= -1e-10


def test_zero_entropy_at_ball_volume_means_round(g2):
    # |E| ~ 0 with V = V_ball forces the support about z_e to be constant 1
    b = normalize_volume(
        make_shape(g2, "translated_ball", radius=1.0, center=[0.2, 0.1, -0.15])
    )
    z, e, _ = entropy_point(b)
    assert abs(e) < 1e-9
    assert np.max(np.abs(b.support_about(z) - 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------


def test_mc_log_integral_balls(g1, g2):
    # dual of ball(r) is ball(1/r); the signed weighted volume is area*log r.
    # r = 1/2 exercises the inner-annulus edge (the polar sticks out of B(1)).
    for g, r in [(g1, 2.0), (g1, 0.5), (g2, 1.3)]:
        b = make_shape(g, "ball", radius=r)
        est, se = mc_log_integral(b, samples=100_000, seed=42)
        expect = sphere_area(g.dim) * np.log(r)
        assert se > 0
        assert abs(est - expect) <= 3 * se, f"r={r}: {est} vs {expect} (se {se})"


def test_mc_log_integral_degenerate_unit_ball(g1):
    assert mc_log_integral(make_shape(g1, "ball"), samples=10_000, seed=0) == (0.0, 0.0)


def test_mc_matches_quadrature(g1, g2):
    for g, kind, kw in [
        (g1, "ellipsoid", dict(semiaxes=(1.3, 1 / 1.3))),
        (g1, "random_valid", dict(seed=5, translation=0.2)),
        (g2, "random_valid", dict(seed=2, translation=0.1)),
    ]:
        b = make_shape(g, kind, **kw)
        est, se = mc_log_integral(b, samples=100_000, seed=13)
        quad = sphere_area(g.dim) * average(g, np.log(b.support))
        assert abs(est - quad) <= 3 * se, f"{kind}: z={(est - quad) / se:.2f}"


def test_mc_deterministic(g1):
    b = make_shape(g1, "ellipsoid", semiaxes=(1.3, 1 / 1.3))
    assert mc_log_integral(b, samples=20_000, seed=3) == mc_log_integral(
        b, samples=20_000, seed=3
    )


def test_mc_rejects_bad_input(g1):
    b = make_shape(g1, "ball")
    with pytest.raises(ParameterError):
        mc_log_integral(b, samples=100)
    with pytest.raises(ParameterError):
        mc_log_integral(b, z=[2.0, 0.0], samples=10_000)


@pytest.mark.parametrize("oracle", [mc_log_integral, mc_polar_mass_center])
@pytest.mark.parametrize("kw", [dict(samples=2e4), dict(samples=True), dict(seed=-1),
                                dict(seed=1.5), dict(seed=True), dict(z=[0.0, 1.5]),
                                dict(z=[float("nan"), 0.0]), dict(z=[0.0, float("inf")])])
def test_mc_oracles_check_their_arguments(g1, oracle, kw):
    # samples an integer >= 10^4, seed an integer >= 0, z finite and interior; checked
    # before anything is sampled, so the empty-annulus ball is no exception
    b = make_shape(g1, "ball")
    with pytest.raises(ParameterError):
        oracle(b, **{"samples": 10_000, **kw})


def _mass_center_norms(body, z, seed):
    m, se = mc_polar_mass_center(body, z, samples=100_000, seed=seed)
    return np.linalg.norm(m), np.linalg.norm(se)


def test_mass_center_residual(g2):
    b = make_shape(g2, "translated_ball", radius=1.0, center=[0.25, -0.1, 0.2])
    res, se = _mass_center_norms(b, entropy_point(b)[0], seed=11)
    assert res <= 3 * se
    # about the wrong reference point the residual is strongly significant
    res0, se0 = _mass_center_norms(b, np.zeros(3), seed=11)
    assert res0 > 10 * se0


def test_mass_center_symmetric_ellipse(g1):
    b = make_shape(g1, "ellipsoid", semiaxes=(1.4, 1 / 1.4))
    res, se = _mass_center_norms(b, np.zeros(2), seed=2)
    assert res <= 3 * se
