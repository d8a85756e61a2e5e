"""Convex-body construction, curvature oracles, and geometric identities.

Curvature values are checked against closed forms computed through an
independent route (parametrized boundaries), not against the support-function
formulas used by the implementation.
"""

import warnings
from math import comb, pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import ellipe

from gcflab import flow, verify
from gcflab.body import (
    ConvexBody,
    GeometrySummary,
    circumradius,
    geometry_summary,
    harmonic_field,
    inradius,
    make_shape,
    normalize_volume,
    spectral_tail,
)
from gcflab.constants import ball_volume, sphere_area
from gcflab.errors import AliasingWarning, BodyValidityError, ParameterError
from gcflab.sphere import average, build_grid, integrate


def bodies_for(g1, g2):
    """A small assorted corpus touching both dimensions."""
    return [
        make_shape(g1, "translated_ball", radius=1.3, center=[0.4, -0.2]),
        make_shape(g1, "ellipsoid", semiaxes=(1.5, 0.8)),
        make_shape(g1, "random_valid", seed=7).translate([0.12, -0.16]),
        make_shape(g2, "ellipsoid", semiaxes=(1.3, 1.0, 0.85)),
        make_shape(g2, "random_valid", seed=3).translate([0.09, 0.0, -0.12]),
        make_shape(g2, "harmonic", modes=[(2, 1, 0.1), (3, -2, 0.05)]),
    ]


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def test_rejects_nonpositive_support(g1):
    with pytest.raises(BodyValidityError) as exc:
        ConvexBody(g1, 1.0 + 1.5 * g1.nodes[:, 0])
    assert exc.value.invariant == "positivity"


def test_rejects_nonconvex_support(g1, g2):
    # a large single harmonic makes Hess u + u g indefinite
    with pytest.raises(BodyValidityError) as exc:
        ConvexBody(g1, 1.0 + 0.5 * np.cos(3 * g1.thetas))
    assert exc.value.invariant == "convexity"
    with pytest.raises(BodyValidityError) as exc:
        ConvexBody(g2, 1.0 + 0.8 * harmonic_field(g2, [(4, 2, 1.0)]))
    assert exc.value.invariant == "convexity"


def test_support_array_is_frozen(g1):
    b = make_shape(g1, "ball")
    with pytest.raises(ValueError):
        b.support[0] = 2.0


# ---------------------------------------------------------------------------
# curvature oracles
# ---------------------------------------------------------------------------


def test_ellipse_curvature_matches_parametrization(g1):
    # boundary (a cos t, b sin t); outer normal (b cos t, a sin t)/|.|;
    # curvature  ab / (a^2 sin^2 t + b^2 cos^2 t)^(3/2)
    a, b = 1.5, 0.8
    body = make_shape(g1, "ellipsoid", semiaxes=(a, b))
    th = g1.thetas
    t = np.arctan2(np.sin(th) / a, np.cos(th) / b)
    k_param = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
    x_param = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
    c = body.curvature
    assert np.allclose(c.gauss, k_param, rtol=1e-9, atol=0.0)
    assert np.max(np.abs(c.position - x_param)) < 1e-9


def test_ellipsoid_curvature_closed_form(g2):
    # det A = (abc)^2 / u^4 for an origin-centered ellipsoid
    ax = np.array([1.3, 1.0, 0.85])
    body = make_shape(g2, "ellipsoid", semiaxes=ax)
    u = body.support
    expected = np.prod(ax) ** 2 / u**4
    err = np.max(np.abs(body.curvature.det_a - expected)) / np.max(expected)
    assert err < 1e-9, f"det A closed-form mismatch {err:.2e}"


def radii_matrix(body):
    """A = Hess u + u I, rebuilt from the rows of the grid's derivative jet:
    u'' + u on S^1, and on S^2 the covariant Hessian in the orthonormal frame
    (e_theta, e_phi/sin theta) written out."""
    u = body.support
    r = body.grid.derivative_bundle(u).rows
    if body.dim == 1:
        return (r[2] + u)[:, None, None]
    cos_t = body.grid.nodes[:, 2]
    sin_t = np.sqrt(1.0 - cos_t**2)
    cot_t = cos_t / sin_t
    a12 = (r[4] - cot_t * r[3]) / sin_t
    a = [[r[2] + u, a12], [a12, r[5] / sin_t**2 + cot_t * r[1] + u]]
    return np.stack(a).transpose(2, 0, 1)


def test_curvature_invariants_hold(g1, g2):
    for body in bodies_for(g1, g2):
        c = body.curvature
        n = body.dim
        assert np.max(np.abs(c.gauss * c.det_a - 1.0)) < 1e-10
        # arithmetic-geometric mean inequality for the principal curvatures
        assert np.all(c.mean_curvature >= n * c.gauss ** (1.0 / n) * (1 - 1e-10))
        assert np.all(c.min_eig_a > 0)
        # elementary symmetric functions of the principal radii (eigenvalues
        # of A) and of the principal curvatures (their reciprocals)
        radii = np.linalg.eigvalsh(radii_matrix(body))
        assert np.allclose(np.sum(1.0 / radii, axis=1), c.mean_curvature, rtol=1e-12)
        assert np.allclose(np.prod(1.0 / radii, axis=1), c.gauss, rtol=1e-12)
        assert np.allclose(np.sum(radii, axis=1), c.trace_a, rtol=1e-12)
        assert np.allclose(np.prod(radii, axis=1), c.det_a, rtol=1e-12)
        assert np.allclose(radii[:, 0], c.min_eig_a, rtol=1e-12)
        sigma = c.det_a * np.sum(1.0 / radii, axis=1)  # sigma_{n-1}
        assert np.allclose(sigma, c.adj_trace_a, rtol=1e-12)


LAZY_CURVATURE = ("mean_curvature", "grad_norm", "position", "position_norm")


def test_lazy_curvature_after_construction_and_step(g1, g2):
    # only what validation and the flow read is computed eagerly; the rest
    # is computed on first access and kept
    for g in (g1, g2):
        z = np.full(g.dim + 1, 0.1 / np.sqrt(g.dim + 1))  # |z| = 0.1
        body = make_shape(g, "random_valid", seed=4).translate(z)
        stepped = flow.step(body, 0.25 * flow.stable_dt(body))
        for b in (body, stepped):
            c = b.curvature
            assert not set(LAZY_CURVATURE) & set(vars(c))
            first = [getattr(c, name) for name in LAZY_CURVATURE]
            assert set(LAZY_CURVATURE) <= set(vars(c))
            for name, value in zip(LAZY_CURVATURE, first):
                assert getattr(c, name) is value


def test_translated_ball_embedding(g2):
    center = np.array([0.2, -0.3, 0.35])
    b = make_shape(g2, "translated_ball", radius=1.0, center=center)
    dist = np.sqrt(np.sum((b.curvature.position - center) ** 2, axis=1))
    assert np.max(np.abs(dist - 1.0)) < 1e-12
    assert np.max(np.abs(b.curvature.det_a - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# volume, duality, scaling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,radius", [(1, 1.0), (1, 0.5), (2, 1.0), (2, 1.7)])
def test_ball_volume_and_area(dim, radius, g1, g2):
    g = g1 if dim == 1 else g2
    b = make_shape(g, "ball", radius=radius)
    assert abs(b.volume() - ball_volume(dim) * radius ** (dim + 1)) < 1e-12
    assert abs(b.area() - sphere_area(dim) * radius**dim) < 1e-11
    v_dual = sphere_area(dim) * radius ** -(dim + 1) / (dim + 1)
    assert abs(b.dual_volume() - v_dual) < 1e-11


def test_ellipsoid_volume(g1, g2):
    b = make_shape(g1, "ellipsoid", semiaxes=(1.5, 0.8))
    assert abs(b.volume() - pi * 1.5 * 0.8) < 1e-12
    b = make_shape(g2, "ellipsoid", semiaxes=(1.3, 1.0, 0.85))
    assert abs(b.volume() - 4 * pi / 3 * 1.3 * 1.0 * 0.85) < 1e-10


def test_ellipse_area_is_perimeter(g1):
    a, b = 1.5, 0.8
    body = make_shape(g1, "ellipsoid", semiaxes=(a, b))
    perimeter = 4 * a * ellipe(1 - (b / a) ** 2)
    assert abs(body.area() - perimeter) < 1e-12


def test_volume_translation_invariance(g1, g2):
    for g, z in [(g1, [0.3, -0.1]), (g2, [0.1, 0.2, -0.15])]:
        b = make_shape(g, "ellipsoid", semiaxes=(1.2,) + (1.0,) * g.dim)
        bt = b.translate(z)
        assert abs(bt.volume() - b.volume()) < 1e-12
        # curvature matrix is unchanged by moving the origin
        assert np.max(np.abs(radii_matrix(bt) - radii_matrix(b))) < 1e-11


def test_centered_ellipsoid_polar_product(g1, g2):
    # V(E) V(E*) equals the squared ball volume exactly for centered ellipsoids
    for g, ax in [(g1, (1.3, 1 / 1.3)), (g2, (1.3, 1.0, 0.9))]:
        b = make_shape(g, "ellipsoid", semiaxes=ax)
        assert abs(b.volume() * b.dual_volume() - ball_volume(g.dim) ** 2) < 1e-10


def test_translate_outside_fails_positivity(g1):
    b = make_shape(g1, "ball", radius=1.0)
    with pytest.raises(BodyValidityError) as exc:
        b.translate([2.0, 0.0])
    assert exc.value.invariant == "positivity"


def test_scaling_laws(g2):
    b = make_shape(g2, "random_valid", seed=11)
    lam = 1.7
    s = b.scale(lam)
    assert abs(s.volume() - lam**3 * b.volume()) < 1e-10
    assert abs(s.area() - lam**2 * b.area()) < 1e-9
    assert np.allclose(s.curvature.gauss, b.curvature.gauss / lam**2, rtol=1e-9)


@pytest.mark.parametrize("factor", [0.7, 1.3])
def test_scale_rescales_curvature_as_a_rebuild(g1, g2, factor):
    # A is linear in u.  The bounds sit above the round-off of one spectral
    # second derivative, which the rebuild carries: derivative_bundle(0.7 u)
    # / 0.7 differs from derivative_bundle(u) by up to 5.0e-12 relative on
    # S^1 n = 256 (modes up to k = 127) and 3.0e-13 on S^2 32x64
    for g, tol in ((g1, 1e-11), (g2, 1e-12)):
        z = np.full(g.dim + 1, 0.1 / np.sqrt(g.dim + 1))  # |z| = 0.1
        b = make_shape(g, "random_valid", seed=11).translate(z)
        scaled = b.scale(factor).curvature
        rebuilt = ConvexBody(g, b.support * factor).curvature
        for name in ("det_a", "trace_a", "min_eig_a", "adj_trace_a", "grad"):
            a, ref = getattr(scaled, name), getattr(rebuilt, name)
            assert np.max(np.abs(a - ref)) <= tol * np.max(np.abs(ref)), name


def test_scaled_curvature_keeps_shared_arrays(g1, g2):
    # the scaled body holds no more node arrays than a rebuilt one
    for g in (g1, g2):
        c = make_shape(g, "random_valid", seed=11).scale(1.3).curvature
        fields = (c.det_a, c.gauss, c.trace_a, c.min_eig_a, c.adj_trace_a, c.grad)
        rebuilt = ConvexBody(g, c._support).curvature
        ref = (rebuilt.det_a, rebuilt.gauss, rebuilt.trace_a, rebuilt.min_eig_a,
               rebuilt.adj_trace_a, rebuilt.grad)
        assert len({id(a) for a in fields}) == len({id(a) for a in ref})


@pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
def test_scale_rejects_bad_factor(g1, factor):
    with pytest.raises(ParameterError):
        make_shape(g1, "ball").scale(factor)


def test_scale_to_a_speck_fails_positivity(g2):
    with pytest.raises(BodyValidityError) as exc:
        make_shape(g2, "ball").scale(1e-12)
    assert exc.value.invariant == "positivity"


def test_normalize_volume(g1, g2):
    for g in (g1, g2):
        b = make_shape(g, "ellipsoid", semiaxes=(1.4,) + (0.9,) * g.dim)
        assert abs(normalize_volume(b).volume() - ball_volume(g.dim)) < 1e-12
        nb = make_shape(g, "ellipsoid", semiaxes=(1.4,) + (0.9,) * g.dim, normalize=True)
        assert abs(nb.volume() - ball_volume(g.dim)) < 1e-12


# ---------------------------------------------------------------------------
# pointwise and integral inequalities
# ---------------------------------------------------------------------------


def test_gradient_bound_and_closedness(g1, g2):
    for body in bodies_for(g1, g2):
        c = body.curvature
        # |grad u| <= max u for any convex body containing the origin
        assert c.grad_norm.max() <= body.support.max() + 1e-8
        # the Gauss-map image of the boundary closes up: int x det A = 0
        moments = np.sum(
            body.grid.weights[:, None] * body.grid.nodes * c.det_a[:, None], axis=0
        )
        assert np.max(np.abs(moments)) < 1e-10 * body.area()


def test_polar_divergence_identity(g1, g2):
    # avg of u det A / |X|^(dim+1) is exactly 1 for every valid body
    for body in bodies_for(g1, g2):
        c = body.curvature
        val = average(
            body.grid, body.support * c.det_a / c.position_norm ** (body.dim + 1)
        )
        assert abs(val - 1.0) < 1e-10, f"divergence identity off by {val - 1.0:.2e}"


def test_curvature_means_dominate_ball(g1, g2):
    # normalized volume: averaged symmetric functions of the principal
    # curvatures (plain and K-weighted) are >= their ball values
    for body in bodies_for(g1, g2):
        nb = normalize_volume(body)
        c = nb.curvature
        n = nb.dim
        for k in range(1, n + 1):
            s = (c.mean_curvature, c.gauss)[k - 1] / comb(n, k)
            assert average(nb.grid, s) >= 1.0 - 1e-8
            assert average(nb.grid, c.gauss * s) >= 1.0 - 1e-8
    # equality for the unit ball
    ball = make_shape(g2, "ball")
    c = ball.curvature
    for k in (1, 2):
        s = (c.mean_curvature, c.gauss)[k - 1] / comb(2, k)
        assert abs(average(g2, s) - 1.0) < 1e-10
        assert abs(average(g2, c.gauss * s) - 1.0) < 1e-10


def test_isoperimetric_area_bound(g1, g2):
    # normalized volume: avg det A >= 1 (area of the body >= area of the ball)
    for body in bodies_for(g1, g2):
        nb = normalize_volume(body)
        assert average(nb.grid, nb.curvature.det_a) >= 1.0 - 1e-10


# ---------------------------------------------------------------------------
# geometry summary
# ---------------------------------------------------------------------------


def test_summary_ball(g2):
    s = geometry_summary(make_shape(g2, "ball", radius=1.4))
    assert abs(s.rho_plus - 1.4) < 1e-12 and abs(s.rho_minus - 1.4) < 1e-12
    assert abs(s.w_plus - 2.8) < 1e-12 and abs(s.w_minus - 2.8) < 1e-12
    assert abs(s.area - 4 * pi * 1.4**2) < 1e-9


def test_summary_translated_ball(g1, g2):
    # radii are about the best centers, so translation must not inflate them
    for g, c in [(g1, [0.3, -0.4]), (g2, [0.2, -0.3, 0.35])]:
        s = geometry_summary(make_shape(g, "translated_ball", radius=1.0, center=c))
        assert abs(s.rho_plus - 1.0) < 1e-12
        assert abs(s.rho_minus - 1.0) < 1e-12
        assert abs(s.w_plus - 2.0) < 1e-12 and abs(s.w_minus - 2.0) < 1e-12
        assert np.linalg.norm(s.incenter - np.asarray(c)) < 1e-12
        assert np.linalg.norm(s.circumcenter - np.asarray(c)) < 1e-12


@pytest.mark.parametrize("dim,kwargs,center", [
    (1, dict(n=64), (-0.2, 0.1)),
    (2, dict(n_theta=16, n_phi=32), (-0.2, 0.1, 0.1)),
    (1, dict(n=64), (0.0, 0.0)),
    (1, dict(n=256), (0.0, 0.0)),
    (1, dict(n=256), (-0.25, 0.3)),
    (2, dict(n_theta=16, n_phi=32), (0.0, 0.0, 0.0)),
    (2, dict(n_theta=32, n_phi=64), (0.0, 0.0, 0.0)),
    (2, dict(n_theta=32, n_phi=64), (-0.25, 0.025, 0.3)),
])
def test_radius_solvers_on_translated_ball(dim, kwargs, center):
    # every node is tight for both problems; the pivots must still stop
    body = make_shape(build_grid(dim, **kwargs), "translated_ball", radius=1.3, center=center)
    r_in, z_in = inradius(body)
    r_out, z_out = circumradius(body)
    assert abs(r_in - 1.3) < 1e-12
    assert np.max(np.abs(z_in - center)) < 1e-12
    assert abs(r_out - 1.3) < 1e-12
    assert np.max(np.abs(z_out - center)) < 1e-12


def test_radius_solvers_on_ellipse():
    body = make_shape(build_grid(1, n=64), "ellipsoid", semiaxes=(1.5, 0.8))
    assert abs(inradius(body)[0] - 0.8) < 1e-12
    assert abs(circumradius(body)[0] - 1.5) < 1e-12


def _reference_bodies(group):
    """The gate corpus, 20 seeded bodies per desk grid, or one named seed."""
    if group == "corpus":
        return [body for _, body in verify.corpus()]
    dim, seeds = {"random-1": (1, range(20)), "random-2": (2, range(20)),
                  "s1-seed94": (1, [94]), "s2-seed12": (2, [12])}[group]
    grid = verify.desk_grid(dim)
    return [make_shape(grid, "random_valid", seed=s, normalize=True) for s in seeds]


REFERENCE_GROUPS = ["corpus", "random-1", "random-2", "s1-seed94", "s2-seed12"]
HIGHS = dict(method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                      "dual_feasibility_tolerance": 1e-10})


@pytest.mark.parametrize("group", REFERENCE_GROUPS)
def test_inradius_matches_linprog(group):
    for body in _reference_bodies(group):
        x, u = body.grid.nodes, body.support
        ref = linprog(np.append(np.zeros(body.dim + 1), -1.0),
                      A_ub=np.hstack([x, np.ones((len(u), 1))]), b_ub=u,
                      bounds=(None, None), **HIGHS)
        assert ref.status == 0
        r, z = inradius(body)
        assert abs(r + ref.fun) < 1e-12
        assert np.max(x @ z + r - u) < 1e-12


@pytest.mark.parametrize("group", REFERENCE_GROUPS)
def test_circumradius_is_certified(group):
    # optimal iff the centre lies in the convex hull of the farthest samples
    for body in _reference_bodies(group):
        r, c = circumradius(body)
        pts = body.curvature.position
        dist = np.linalg.norm(pts - c, axis=1)
        assert np.max(dist) <= r * (1.0 + 1e-12)
        far = pts[dist >= r * (1.0 - 1e-10)]
        hull = linprog(np.zeros(len(far)), A_eq=np.vstack([far.T, np.ones(len(far))]),
                       b_eq=np.append(c, 1.0), bounds=(0, None), **HIGHS)
        assert hull.status == 0


@pytest.mark.parametrize("dim,seed", [(2, 12), (1, 94)])
def test_summary_radii_are_translation_invariant(dim, seed):
    body = make_shape(verify.desk_grid(dim), "random_valid", seed=seed, normalize=True)
    z = np.full(dim + 1, 0.05)
    s, t = geometry_summary(body), geometry_summary(body.translate(z))
    assert abs(t.rho_minus - s.rho_minus) < 1e-12
    assert abs(t.rho_plus - s.rho_plus) < 1e-12
    assert np.max(np.abs(t.incenter - (s.incenter - z))) < 1e-12
    assert np.max(np.abs(t.circumcenter - (s.circumcenter - z))) < 1e-12


def test_summary_ellipse(g1):
    s = geometry_summary(make_shape(g1, "ellipsoid", semiaxes=(1.5, 0.8)))
    assert abs(s.rho_plus - 1.5) < 1e-6
    assert abs(s.rho_minus - 0.8) < 1e-6
    assert abs(s.w_plus - 3.0) < 1e-12 and abs(s.w_minus - 1.6) < 1e-12
    assert isinstance(s, GeometrySummary)


def test_summary_orderings(g1, g2):
    for body in bodies_for(g1, g2):
        s = geometry_summary(body)
        assert s.rho_minus <= s.rho_plus + 1e-9
        assert s.w_minus <= s.w_plus + 1e-12
        # circumscribed/inscribed radii versus widths
        assert s.rho_plus <= s.w_plus / np.sqrt(2.0) + 1e-6
        assert s.rho_minus >= s.w_minus / (body.dim + 2) - 1e-6


# ---------------------------------------------------------------------------
# shape generators
# ---------------------------------------------------------------------------


def test_make_shape_rejects_bad_input(g1, g2):
    with pytest.raises(ParameterError):
        make_shape(g1, "pyramid")
    with pytest.raises(ParameterError):
        make_shape(g1, "ball", radius=-1.0)
    with pytest.raises(ParameterError):
        make_shape(g1, "ball", radius=1.0, flavor="lime")
    with pytest.raises(ParameterError):
        make_shape(g1, "ellipsoid", semiaxes=(1.0, 2.0, 3.0))
    with pytest.raises(ParameterError):
        make_shape(g2, "translated_ball", radius=1.0, center=[1.2, 0.0, 0.0])
    with pytest.raises(ParameterError):
        make_shape(g2, "harmonic", modes=[(40, 0, 0.1)])
    with pytest.raises(ParameterError):
        make_shape(g1, "random_valid", l_max=500)
    with pytest.raises(ParameterError):  # a translated body is make_shape(...).translate(z)
        make_shape(g1, "random_valid", translation=0.1)


@pytest.mark.parametrize("params", [dict(seed=-3), dict(seed=1.5), dict(seed=True),
                                    dict(decay=0.5), dict(flavor="lime")])
def test_random_valid_rejects_bad_parameters(g1, params):
    # a seed must be an integer >= 0; unknown parameters (decay is a module
    # constant) are rejected as for the other kinds
    with pytest.raises(ParameterError):
        make_shape(g1, "random_valid", **params)


@pytest.mark.parametrize("dim,mode", [(1, (2, 0.1)), (1, (2, 0.1, 0.0, 0.0)), (1, 3),
                                      (2, (2, 1)), (2, (2, 1, 0.1, 0.0)),
                                      (1, (2.7, 0.1, 0.0)), (1, (True, 0.1, 0.0)),
                                      (2, (2.5, 1, 0.1)), (2, (2, 1.5, 0.1)),
                                      (2, (2, True, 0.1))])
def test_harmonic_rejects_malformed_mode_tuples(g1, g2, dim, mode):
    # each kind names its tuple form instead of a bare unpacking error; the
    # degree (and the order on S^2) must be integral, not truncated
    form = r"\(k, a, b\)" if dim == 1 else r"\(l, m, a\)"
    with pytest.raises(ParameterError, match=form):
        make_shape(g1 if dim == 1 else g2, "harmonic", modes=[mode])


@pytest.mark.parametrize("dim,mode,same", [(1, (2.0, 0.1, 0.05), (2, 0.1, 0.05)),
                                           (2, (np.int64(3), -2.0, 0.1), (3, -2, 0.1))])
def test_harmonic_takes_integral_numbers_of_any_type(g1, g2, dim, mode, same):
    g = g1 if dim == 1 else g2
    np.testing.assert_array_equal(harmonic_field(g, [mode]), harmonic_field(g, [same]))


def test_harmonic_field_norms(g1, g2):
    f = harmonic_field(g1, [(3, 1.0, 0.0)])
    assert abs(integrate(g1, f * f) - pi) < 1e-12
    for l, m in [(2, 0), (3, 2), (4, -3)]:
        y = harmonic_field(g2, [(l, m, 1.0)])
        assert abs(integrate(g2, y * y) - 1.0) < 1e-11, f"(l={l}, m={m}) not unit norm"


def test_random_valid_even_parity(g1):
    b = make_shape(g1, "random_valid", seed=5, parity="even")
    u_anti = np.roll(b.support, g1.shape[0] // 2)
    assert np.max(np.abs(b.support - u_anti)) < 1e-12


def test_random_valid_shrinks_to_validity(g1):
    # an amplitude far above the convexity limit must still come back valid
    b = make_shape(g1, "random_valid", seed=2, amplitude=5.0)
    assert np.min(b.curvature.min_eig_a) > 0


def test_aliasing_warning(g1, g2):
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasingWarning)
        make_shape(g1, "ellipsoid", semiaxes=(1.5, 0.8))
        make_shape(g2, "ellipsoid", semiaxes=(1.2, 1.0, 1 / 1.2))
        make_shape(g2, "ball")
    with pytest.warns(AliasingWarning):
        make_shape(g1, "ellipsoid", semiaxes=(2.0, 0.1))
    with pytest.warns(AliasingWarning):
        make_shape(g2, "ellipsoid", semiaxes=(2.0, 1.0, 0.7))
    # severe aliasing is caught earlier, by the convexity check itself
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        with pytest.raises(BodyValidityError):
            make_shape(g2, "ellipsoid", semiaxes=(5.0, 1.0, 0.04))


def test_spectral_tail_decreases_with_resolution():
    ax = (2.0, 0.1)
    tails = []
    for n in (256, 512, 1024):
        g = build_grid(1, n=n)
        u = np.sqrt(np.sum((np.array(ax)[None, :] * g.nodes) ** 2, axis=1))
        tails.append(spectral_tail(g, u))
    assert tails[0] > tails[1] > tails[2]


# ---------------------------------------------------------------------------
# randomized property: every generated body satisfies the basic identities
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    translation=st.floats(min_value=0.0, max_value=0.4),
)
def test_random_bodies_satisfy_identities(seed, translation):
    g = build_grid(1, n=128)
    body = make_shape(g, "random_valid", seed=seed).translate(translation * np.array([0.6, -0.8]))
    c = body.curvature
    val = average(g, body.support * c.det_a / c.position_norm**2)
    assert abs(val - 1.0) < 1e-10
    assert c.grad_norm.max() <= body.support.max() + 1e-10
    assert body.volume() > 0
