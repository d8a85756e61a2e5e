"""Entropy functionals, distinguished points, and Monte Carlo cross-checks."""

import numpy as np
import pytest

from gcflab import entropy, verify
from gcflab.body import ConvexBody, geometry_summary, inradius, make_shape, normalize_volume
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
from gcflab.sphere import SphereGrid, average, build_grid


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
    b = make_shape(g1, "random_valid", seed=7).translate([0.12, -0.16])
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
    b = make_shape(g2, "random_valid", seed=4).translate([0.06, 0.0, -0.08])
    z_ref, e_ref, _ = entropy_point(b)
    shift = np.array([0.05, -0.1, 0.08])
    bt = b.translate(shift)
    z, e, _ = entropy_point(bt)
    assert abs(e - e_ref) < 1e-9
    assert np.linalg.norm(z - (z_ref - shift)) < 1e-8


def test_entropy_rotation_invariance(g1, g2):
    # rotating by a whole number of grid steps permutes the samples exactly
    b = make_shape(g1, "random_valid", seed=9).translate([0.09, -0.12])
    e_ref = entropy_point(b)[1]
    e_rot = entropy_point(ConvexBody(g1, np.roll(b.support, 17)))[1]
    assert abs(e_rot - e_ref) < 1e-9

    b = make_shape(g2, "random_valid", seed=9).translate([0.09, 0.0, -0.12])
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
    for g, seed, z in [(g1, 3, [0.15, -0.2]), (g1, 8, [0.0, 0.0]), (g2, 5, [0.12, 0.0, -0.16])]:
        b = make_shape(g, "random_valid", seed=seed).translate(z)
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
        make_shape(g1, "random_valid", seed=12).translate([0.18, -0.24]),
        make_shape(g1, "ball", radius=0.5),
        make_shape(g2, "random_valid", seed=3).translate([0.09, 0.0, -0.12]),
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


def test_inradius_is_at_most_half_the_least_width():
    # about the incenter z, u(x) + u(x') >= 2 rho- + <z, x + x'> at each
    # antipodal node pair, so the report's inner lhs rho- never exceeds w-/2
    for _, body in verify.corpus():
        widths = body.support + body.support[body.grid.antipodes]
        rho_minus = inradius(body)[0]
        assert 2.0 * rho_minus <= np.min(widths) + 1e-12
        lhs = {c.name: c.lhs for c in entropy_report(body).checks}["inner-radius-bound"]
        assert lhs == rho_minus


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
    for kind, b in [
        ("ellipsoid", make_shape(g1, "ellipsoid", semiaxes=(1.3, 1 / 1.3))),
        ("random_valid", make_shape(g1, "random_valid", seed=5).translate([0.12, -0.16])),
        ("random_valid", make_shape(g2, "random_valid", seed=2).translate([0.06, 0.0, -0.08])),
    ]:
        g = b.grid
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


def _reference_mc_mean(body, z, samples, seed, radius, integrand):
    """The oracles' sampler with ``grid.eval`` at every direction: the
    reference for the screened membership of ``entropy._mc_mean``."""
    total = total_sq = 0.0
    for rng, count in entropy._sample_chunks(seed, samples):
        v = rng.normal(size=(count, body.dim + 1))
        dirs = v / np.linalg.norm(v, axis=1, keepdims=True)
        r = radius(rng.random(count))
        f = integrand(dirs, r, r * (body.grid.eval(body.support, dirs) - dirs @ z) <= 1.0)
        total = total + np.sum(f, axis=0)
        total_sq = total_sq + np.sum(f * f, axis=0)
    mean = total / samples
    return mean, np.sqrt(np.maximum(0.0, total_sq / samples - mean * mean) / samples)


def _screened_and_reference(monkeypatch, body, z, samples=70_000):
    """Both oracles about z, screened and by the reference sampler, with the
    degrees offered to the screen kernel and the number of directions
    ``eval`` took."""
    grid = body.grid
    degrees, points = [], []
    kernel, evaluate = type(grid)._screen_kernel, SphereGrid.eval

    def spy_kernel(self, coeffs, degree):
        degrees.append(degree)
        return kernel(self, coeffs, degree)

    def spy_eval(self, values, directions):
        points.append(len(directions))
        return evaluate(self, values, directions)

    def both():
        return (mc_log_integral(body, z, samples=samples, seed=5),
                mc_polar_mass_center(body, z, samples=samples, seed=6))

    with monkeypatch.context() as m:
        m.setattr(type(grid), "_screen_kernel", spy_kernel)
        m.setattr(SphereGrid, "eval", spy_eval)
        screened = both()
    with monkeypatch.context() as m:
        m.setattr(entropy, "_mc_mean", _reference_mc_mean)
        reference = both()
    return screened, reference, degrees, sum(points)


def _assert_same_estimates(screened, reference):
    (log_s, mass_s), (log_r, mass_r) = screened, reference
    assert log_s == log_r
    assert all(np.array_equal(a, b) for a, b in zip(mass_s, mass_r))


def _full_band_body(grid):
    noise = np.random.default_rng(1).standard_normal(grid.n_nodes)
    return ConvexBody(grid, 1.0 + 1e-4 * grid.lowpass(noise, 1.0))


@pytest.mark.parametrize("dim,kind,params", [
    (1, "ball", dict(radius=1.2)),
    (2, "ball", dict(radius=1.2)),
    (1, "random_valid", dict(seed=4, normalize=True)),
    (1, "random_valid", dict(seed=4, normalize=True, parity="even")),
    (2, "random_valid", dict(seed=4, normalize=True)),
    (2, "random_valid", dict(seed=4, normalize=True, parity="even")),
    (1, "ellipsoid", dict(semiaxes=(1.3, 1 / 1.3))),
    (2, "ellipsoid", dict(semiaxes=(1.2, 1.0, 0.85), normalize=True)),
    (2, "full-band", {}),
    (2, "full-band", dict(n_theta=64, n_phi=128)),
])
@pytest.mark.parametrize("off_centre", [False, True])
def test_screened_oracles_are_bit_identical(monkeypatch, g1, g2, dim, kind, params, off_centre):
    """The oracles read u only through polar membership, which the screen
    decides exactly: every estimate equals the reference's bit for bit, from
    a ball (degree 0) to a body with its whole band in use (degree L), about
    the entropy point and off-centre.  On 64x128 the screen kernel's
    round-off bound at L = 63 is too large, so the screen declines and
    every direction takes ``eval``."""
    grid = g1 if dim == 1 else g2
    if kind == "full-band":
        body = _full_band_body(build_grid(dim, **params) if params else grid)
    else:
        body = make_shape(grid, kind, **params)
    z = entropy_point(body)[0]
    if off_centre:
        z = z + 0.1 * np.eye(dim + 1)[0] - 0.05 * np.eye(dim + 1)[-1]
    screened, reference, degrees, fallback = _screened_and_reference(monkeypatch, body, z)
    _assert_same_estimates(screened, reference)
    if body.grid.bandlimit == 63:
        assert fallback == 2 * 70_000
        return
    assert len(degrees) == 2 and degrees[0] == degrees[1]
    if kind == "ball":
        assert degrees[0] == 0
    if kind == "full-band":
        assert degrees[0] == grid.bandlimit
    assert fallback == 0  # a sample within ~1e-10 of the polar boundary is rare


@pytest.mark.parametrize("dim,degree", [(1, 3), (2, 5)], ids=["g1", "g2"])
def test_screen_falls_back_near_the_boundary(monkeypatch, g1, g2, dim, degree):
    """With a tail tolerance that stops the screen below the field's degree,
    many samples are left undecided and their chunks take the full
    evaluation; the estimates stay bit-identical to the reference."""
    body = make_shape(g1 if dim == 1 else g2, "random_valid", seed=4, normalize=True)
    monkeypatch.setattr(entropy, "MC_TAIL_TOL", 0.05)
    screened, reference, degrees, fallback = _screened_and_reference(
        monkeypatch, body, entropy_point(body)[0])
    _assert_same_estimates(screened, reference)
    assert degrees == [degree, degree]  # random_valid draws degrees 2 to 8
    assert fallback > 10_000


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
