"""Tests for the spectral grids: quadrature, transforms, derivatives, and
off-grid evaluation, checked against analytic formulas and scipy oracles."""

import numpy as np
import pytest
from scipy.special import sph_harm_y

from gcflab import sphere
from gcflab.errors import FieldShapeError, ParameterError
from gcflab.sphere import SphereGrid, average, build_grid, integrate


def real_harmonic(l, m, theta, phi):
    """Real spherical harmonic, unit L2 norm on the sphere (scipy-backed)."""
    y = sph_harm_y(l, abs(m), theta, phi)
    if m == 0:
        return y.real
    if m > 0:
        return np.sqrt(2.0) * y.real
    return np.sqrt(2.0) * y.imag


def frame_hessian(grid, rows):
    """(h11, h12, h22), the covariant Hessian in the orthonormal frame
    (e_theta, e_phi/sin theta), from S^2 jet rows by the frame formulas."""
    _, u_t, u_tt, u_p, u_tp, u_pp = rows
    cos_t = grid.nodes[:, 2]
    sin_t = np.sqrt(1.0 - cos_t**2)
    cot_t = cos_t / sin_t
    return u_tt, (u_tp - cot_t * u_p) / sin_t, u_pp / sin_t**2 + cot_t * u_t


# ---------------------------------------------------------------------------
# grid construction / validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,kwargs", [
    (1, dict(n=8)),
    (1, dict(n=33)),
    (2, dict(n_theta=4, n_phi=32)),
    (2, dict(n_theta=16, n_phi=15)),
    (2, dict(n_theta=16, n_phi=8)),
    (3, dict(n=32)),
    (1, dict(n=16.0)),
    (2, dict(n_theta=8.5, n_phi=16)),
    (True, dict(n=16)),
    (1, dict(n=256, n_theta=8)),
    (1, dict(n=16, n_phi=3)),
    (2, dict(n=7, n_theta=32, n_phi=64)),
])
def test_grid_rejects_bad_parameters(dim, kwargs):
    with pytest.raises(ParameterError):
        build_grid(dim, **kwargs)


def test_field_shape_is_checked():
    grid = build_grid(1, n=32)
    with pytest.raises(FieldShapeError):
        integrate(grid, np.ones(31))
    with pytest.raises(FieldShapeError):
        integrate(grid, np.full(32, np.nan))


def test_grid_metadata():
    g1 = build_grid(1, n=64)
    assert g1.n_nodes == 64
    assert g1.bandlimit == 31
    assert g1.quad_degree == 63
    assert np.isclose(g1.h_min, 2.0 * np.pi / 64)

    g2 = build_grid(2, n_theta=24, n_phi=48)
    assert g2.n_nodes == 24 * 48
    assert g2.bandlimit == 23
    assert g2.quad_degree == 47
    assert np.isclose(g2.h_min, np.pi / 24)
    # nodes are unit vectors, frames orthonormal and tangent
    assert np.allclose(np.linalg.norm(g2.nodes, axis=1), 1.0, atol=1e-14)
    dots = np.einsum("nij,nj->ni", g2.frames, g2.nodes)
    assert np.max(np.abs(dots)) < 1e-14
    gram = np.einsum("naj,nbj->nab", g2.frames, g2.frames)
    assert np.allclose(gram, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("dim,kwargs", [
    (1, dict(n=256)),
    (2, dict(n_theta=16, n_phi=32)),
    (2, dict(n_theta=32, n_phi=64)),
])
def test_antipodes_index_the_antipodal_nodes(dim, kwargs):
    g = build_grid(dim, **kwargs)
    idx = g.antipodes
    assert np.array_equal(np.sort(idx), np.arange(g.n_nodes))
    assert np.array_equal(idx[idx], np.arange(g.n_nodes))
    # the node formulas round differently at x and -x: equal to a few ulps
    assert np.max(np.abs(g.nodes[idx] + g.nodes)) < 1e-15
    assert not idx.flags.writeable


def test_node_operations_are_the_coordinate_expressions(g1, g2):
    # body, entropy, soliton and verify reach the node coordinates only
    # through these operations, which a kind with other coordinates
    # overrides; on the Cartesian nodes each is its callers' expression, in
    # their order of evaluation, bit for bit
    for grid in (g1, g2):
        rng = np.random.default_rng(grid.dim)
        x, w, n = grid.nodes, grid.weights, grid.dim
        z = rng.normal(size=n + 1)
        f, h = rng.uniform(0.5, 2.0, size=(2, grid.n_nodes))
        grad = rng.normal(size=(grid.n_nodes, n))
        assert np.array_equal(grid._linear(z), x @ z)
        assert np.array_equal(grid._moment(f), (w * f) @ x)
        assert np.array_equal(grid._second_moment(f, h), (x.T * (w * f * h)) @ x)
        # the Santalo Hessian scales the weighted x^T before the product
        assert np.array_equal(grid._second_moment(f, scale=n + 2), ((n + 2) * (x.T * (w * f))) @ x)
        assert np.array_equal(grid._widths(f), f + f[grid.antipodes])
        assert np.array_equal(grid._position(f, grad),
                              f[:, None] * x + np.einsum("na,naj->nj", grad, grid.frames))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,kwargs,area", [
    (1, dict(n=16), 2 * np.pi),
    (1, dict(n=256), 2 * np.pi),
    (2, dict(n_theta=8, n_phi=16), 4 * np.pi),
    (2, dict(n_theta=32, n_phi=64), 4 * np.pi),
])
def test_weights_sum_to_sphere_area(dim, kwargs, area):
    grid = build_grid(dim, **kwargs)
    total = float(np.sum(grid.weights))
    assert abs(total - area) <= 1e-12 * area, f"weight sum {total} vs {area}"


def test_circle_quadrature_exact_to_degree():
    grid = build_grid(1, n=32)
    th = grid.thetas
    # pure modes integrate to zero up to the quadrature degree
    for k in range(1, grid.quad_degree + 1):
        assert abs(integrate(grid, np.cos(k * th))) < 1e-12
        assert abs(integrate(grid, np.sin(k * th))) < 1e-12
    # squared modes (degree 2k <= quad_degree) integrate to pi
    for k in range(1, grid.quad_degree // 2 + 1):
        val = integrate(grid, np.cos(k * th) ** 2)
        assert abs(val - np.pi) < 1e-12


def test_sphere_quadrature_exact_on_harmonics():
    """Mean-zero and orthonormality of scipy harmonics under the grid rule."""
    grid = build_grid(2, n_theta=12, n_phi=24)
    theta = np.arccos(grid.nodes[:, 2])
    phi = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    for l in range(1, grid.quad_degree + 1):
        for m in range(-min(l, 6), min(l, 6) + 1):
            y = real_harmonic(l, m, theta, phi)
            assert abs(integrate(grid, y)) < 1e-11, f"mean of Y({l},{m})"
    for l in range(0, grid.quad_degree // 2 + 1):
        for m in (-l, 0, l):
            y = real_harmonic(l, m, theta, phi)
            norm = integrate(grid, y * y)
            assert abs(norm - 1.0) < 1e-11, f"norm of Y({l},{m}) = {norm}"


def test_average_of_constant():
    for grid in (build_grid(1, n=48), build_grid(2, n_theta=10, n_phi=20)):
        assert abs(average(grid, np.full(grid.n_nodes, 3.5)) - 3.5) < 1e-14


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_transform_roundtrip_bandlimited():
    rng = np.random.default_rng(7)
    grid = build_grid(2, n_theta=16, n_phi=32)
    L = grid.bandlimit
    coeffs = np.zeros((L + 1, L + 1), dtype=complex)
    for m in range(L + 1):
        coeffs[m, m:] = rng.normal(size=L + 1 - m)
        if m > 0:
            coeffs[m, m:] = coeffs[m, m:] + 1j * rng.normal(size=L + 1 - m)
    u = grid.synthesize(coeffs)
    back = grid.analyze(u)
    assert np.max(np.abs(back - coeffs)) < 1e-12
    again = grid.synthesize(back)
    assert np.max(np.abs(again - u)) < 1e-12


def test_analysis_projects_smooth_fields():
    # exp(x3) is not band-limited but its tail is far below machine precision
    grid = build_grid(2, n_theta=24, n_phi=48)
    u = np.exp(grid.nodes[:, 2])
    v = grid.synthesize(grid.analyze(u))
    assert np.max(np.abs(u - v)) < 1e-12


def test_lowpass_removes_high_modes_only():
    grid = build_grid(1, n=64)
    th = grid.thetas
    u = 1.0 + np.cos(2 * th) + 0.5 * np.sin(29 * th)
    v = grid.lowpass(u, 2.0 / 3.0)
    assert np.max(np.abs(v - (1.0 + np.cos(2 * th)))) < 1e-12

    grid2 = build_grid(2, n_theta=12, n_phi=24)
    x = grid2.nodes
    u2 = 1.0 + x[:, 0]
    assert np.max(np.abs(grid2.lowpass(u2, 0.5) - u2)) < 1e-12
    assert np.max(np.abs(grid2.lowpass(u2, -1.0))) == 0.0  # a negative frac zeroes every mode


@pytest.mark.parametrize("frac", [float("nan"), float("inf"), -float("inf")])
def test_lowpass_rejects_non_finite_frac(frac):
    grid = build_grid(1, n=32)
    with pytest.raises(ParameterError):
        grid.lowpass(np.ones(grid.n_nodes), frac)


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_transforms_match_each_field(dim):
    # the flow advances two step sizes as one stack: analyze, synthesize
    # (values and jets), radii_invariants and grad of a stack give each
    # field's own result, bit for bit (numpy's stacked FFTs and broadcast
    # matmuls repeat the single-field arithmetic row by row)
    grid = build_grid(1, n=64) if dim == 1 else build_grid(2, n_theta=16, n_phi=32)
    fields = 1.0 + 0.1 * np.random.default_rng(dim).normal(size=(3, grid.n_nodes))
    coeffs = grid.analyze(fields)
    jet = grid.synthesize(coeffs, jet=True)
    for i, u in enumerate(fields):
        single = grid.synthesize(coeffs[i], jet=True)
        np.testing.assert_array_equal(coeffs[i], grid.analyze(u))
        np.testing.assert_array_equal(grid.synthesize(coeffs)[i], grid.synthesize(coeffs[i]))
        np.testing.assert_array_equal(jet.rows[i], single.rows)
        np.testing.assert_array_equal(jet.values[i], single.values)
        np.testing.assert_array_equal(jet.grad[i], single.grad)
        for a, b in zip(grid.radii_invariants(jet), grid.radii_invariants(single)):
            np.testing.assert_array_equal(np.broadcast_to(a, jet.rows.shape[:1] + b.shape)[i], b)
    # a stack is for the transforms only: a field is still one (n_nodes,) array
    with pytest.raises(FieldShapeError):
        integrate(grid, fields)
    with pytest.raises(FieldShapeError):
        grid.analyze(fields[:, 1:])


@pytest.mark.parametrize("dim", [1, 2])
def test_filtered_jet_is_the_jet_of_the_filtered_field(dim):
    # masking coefficients equals lowpass, then removing the degree-1 part
    # <s, x> by quadrature (s_j = sum w v x_j / sum w x_j^2), then
    # differentiating
    grid = build_grid(1, n=64) if dim == 1 else build_grid(2, n_theta=16, n_phi=32)
    rng = np.random.default_rng(dim)
    u = rng.normal(size=grid.n_nodes)
    for drop in (False, True):
        v = grid.lowpass(u, 2.0 / 3.0)
        mask = grid.degree_mask(2.0 / 3.0)
        if drop:
            w, x = grid.weights, grid.nodes
            v = v - x @ ((w @ (v[:, None] * x)) / (w @ (x * x)))
            mask[1] = 0.0
        jet = grid.synthesize(grid.analyze(u) * mask, jet=True)
        ref = grid.derivative_bundle(v)
        assert np.max(np.abs(jet.rows - ref.rows)) < 1e-12 * np.max(np.abs(ref.rows))
        # trace A and its least eigenvalue, both Lipschitz in A
        for a, b in zip(grid.radii_invariants(jet)[1:3], grid.radii_invariants(ref)[1:3]):
            assert np.max(np.abs(a - b)) < 1e-11


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_circle_derivatives_analytic():
    grid = build_grid(1, n=64)
    th = grid.thetas
    for k in (1, 3, 10):
        u = np.cos(k * th)
        jet = grid.derivative_bundle(u)
        g, h = jet.grad, jet.rows[2]
        assert np.max(np.abs(g[:, 0] + k * np.sin(k * th))) < 1e-10 * k**2
        assert np.max(np.abs(h + k * k * np.cos(k * th))) < 1e-10 * k**2


@pytest.mark.parametrize("j", [0, 1, 2])
def test_linear_fields_have_hessian_minus_ug(j):
    """Coordinate functions x_j satisfy Hess x_j = -x_j g exactly.

    This identity is what makes translations act linearly on support
    functions, so it must hold to machine precision on the grid.
    """
    grid = build_grid(2, n_theta=16, n_phi=32)
    u = grid.nodes[:, j].copy()
    # A = Hess u + u I = 0: det, trace, least eigenvalue and sigma_1 all vanish
    for invariant in grid.radii_invariants(grid.derivative_bundle(u)):
        assert np.max(np.abs(invariant)) < 1e-11
    # and the gradient is the tangential projection of e_j
    e = np.zeros(3)
    e[j] = 1.0
    g = grid.derivative_bundle(u).grad
    assert np.max(np.abs(g - grid.frames @ e)) < 1e-12


def test_harmonic_laplacian_eigenvalues():
    grid = build_grid(2, n_theta=20, n_phi=40)
    theta = np.arccos(grid.nodes[:, 2])
    phi = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    for l, m in [(2, 1), (4, -3), (7, 0), (9, 5)]:
        y = real_harmonic(l, m, theta, phi)
        trace_a = grid.radii_invariants(grid.derivative_bundle(y))[1]
        lap = trace_a - 2.0 * y
        assert np.max(np.abs(lap + l * (l + 1) * y)) < 1e-9, f"(l,m)=({l},{m})"


def test_hessian_of_smooth_field_converges():
    """Covariant Hessian of exp(cos theta): analytic check under refinement."""

    def errs(n_theta, n_phi):
        grid = build_grid(2, n_theta=n_theta, n_phi=n_phi)
        ct = grid.nodes[:, 2]
        st = np.sqrt(1.0 - ct**2)
        u = np.exp(ct)
        h11, h12, h22 = frame_hessian(grid, grid.derivative_bundle(u).rows)
        return max(
            np.max(np.abs(h11 - (st**2 - ct) * u)),
            np.max(np.abs(h22 + ct * u)),
            np.max(np.abs(h12)),
        )

    coarse = errs(12, 24)
    fine = errs(16, 32)
    assert fine < 1e-11 or fine < coarse / 10, f"coarse={coarse:.3e} fine={fine:.3e}"
    # roundoff floor: second theta-derivatives amplify eps by ~1/sin^2(theta)
    # at the nodes nearest the poles, so the plateau sits slightly above 1e-11
    assert errs(24, 48) < 5e-11


class EinsumReference:
    """The dim-2 transforms as per-table einsum contractions over the
    [m, l, i] Legendre tables, one longitude FFT per derivative profile."""

    def __init__(self, grid):
        n_theta, self.n_phi = grid.shape
        x, w = np.polynomial.legendre.leggauss(n_theta)
        x, w = x[::-1].copy(), w[::-1].copy()
        L = grid.bandlimit
        self.P, self.dP, self.d2P = sphere._legendre_tables(
            x, sphere._recurrence_coefficients(L)
        )
        self.PW = self.P * w[None, None, :]
        self.m = np.arange(L + 1)
        # analysis is the weighted least-squares fit of degrees <= L: the rule
        # P W divided by its Gram matrix P W P^T (the identity but for
        # round-off; the unused l < m rows and columns set to 1 on the diagonal)
        self.gram = (np.einsum("mli,mki->mlk", self.PW, self.P)
                     + np.eye(L + 1) * (self.m[None, :] < self.m[:, None])[..., None])
        self.sin_t = np.repeat(np.sin(np.arccos(x)), self.n_phi)
        self.cot_t = np.repeat(x, self.n_phi) / self.sin_t

    def analyze(self, u):
        g = np.fft.rfft(u.reshape(-1, self.n_phi), axis=1) / self.n_phi
        rhs = np.einsum("mli,im->ml", self.PW, g[:, : self.m.size])
        return np.linalg.solve(self.gram, rhs[..., None])[..., 0]

    def phi_synth(self, prof):
        buf = np.zeros((prof.shape[0], self.n_phi // 2 + 1), dtype=complex)
        buf[:, : prof.shape[1]] = prof
        return np.fft.irfft(buf * self.n_phi, n=self.n_phi, axis=1).reshape(-1)

    def synthesize(self, c):
        return self.phi_synth(np.einsum("mli,ml->im", self.P, c))

    def derivatives(self, u):
        """(grad_t, grad_p, hess_tt, hess_tp, hess_pp) in the orthonormal frame."""
        c, m = self.analyze(u), self.m
        prof0 = np.einsum("mli,ml->im", self.P, c)
        prof1 = np.einsum("mli,ml->im", self.dP, c)
        prof2 = np.einsum("mli,ml->im", self.d2P, c)
        u_t, u_tt = self.phi_synth(prof1), self.phi_synth(prof2)
        u_p = self.phi_synth(1j * m * prof0)
        u_tp = self.phi_synth(1j * m * prof1)
        u_pp = self.phi_synth(-(m**2) * prof0)
        s, cot = self.sin_t, self.cot_t
        return u_t, u_p / s, u_tt, (u_tp - cot * u_p) / s, u_pp / s**2 + cot * u_t


@pytest.mark.parametrize("n_theta,n_phi", [(16, 32), (32, 64)])
@pytest.mark.parametrize("kind", ["bandlimited", "exp_x3"])
def test_transforms_match_einsum_reference(n_theta, n_phi, kind):
    grid = build_grid(2, n_theta=n_theta, n_phi=n_phi)
    ref = EinsumReference(grid)
    if kind == "exp_x3":
        u = np.exp(grid.nodes[:, 2])
    else:
        # random triangle c[m, l], l >= m, decaying like a smooth field
        rng = np.random.default_rng(n_theta)
        L = grid.bandlimit
        m, l = np.arange(L + 1)[:, None], np.arange(L + 1)[None, :]
        coeffs = rng.normal(size=(L + 1, L + 1)) + 1j * rng.normal(size=(L + 1, L + 1))
        coeffs[0] = coeffs[0].real
        u = ref.synthesize(np.where(l >= m, coeffs / (1.0 + l) ** 2, 0.0))
    c = ref.analyze(u)
    assert np.max(np.abs(grid.analyze(u) - c)) < 1e-12
    assert np.max(np.abs(grid.synthesize(c) - ref.synthesize(c))) < 1e-12
    jet = grid.derivative_bundle(u)
    ours = (jet.grad[:, 0], jet.grad[:, 1], *frame_hessian(grid, jet.rows))
    names = ("grad_t", "grad_p", "hess_tt", "hess_tp", "hess_pp")
    expect = ref.derivatives(u)
    for name, a, b in zip(names, ours, expect):
        assert np.max(np.abs(a - b)) < 1e-12, name
    # the grid's invariants of A = Hess u + u I against the reference's A
    _, _, h11, h12, h22 = expect
    radii = np.linalg.eigvalsh(np.stack([[h11 + u, h12], [h12, h22 + u]]).transpose(2, 0, 1))
    det, trace, least, adj = grid.radii_invariants(jet)
    scale = np.max(np.abs(radii))
    assert np.max(np.abs(det - radii[:, 0] * radii[:, 1])) < 1e-12 * scale**2
    assert np.max(np.abs(trace - radii.sum(axis=1))) < 1e-12 * scale
    assert np.max(np.abs(least - radii[:, 0])) < 1e-12 * scale
    assert np.array_equal(adj, trace)


@pytest.mark.parametrize("kwargs", [dict(dim=1, n=32), dict(dim=2, n_theta=12, n_phi=24)])
def test_public_methods_live_on_the_base_grid(kwargs):
    # perfbench's tracer and the flow tests' spy patch these on SphereGrid
    # itself, so a kind must inherit them, never override them
    grid = build_grid(**kwargs)
    assert isinstance(grid, SphereGrid)
    assert repr(grid) == f"SphereGrid(dim={grid.dim}, shape={grid.shape})"
    for name in ("analyze", "synthesize", "derivative_bundle", "lowpass", "eval"):
        assert name in SphereGrid.__dict__
        assert name not in type(grid).__dict__


# ---------------------------------------------------------------------------
# off-grid evaluation
# ---------------------------------------------------------------------------


def test_eval_direction_interpolates_nodes():
    grid = build_grid(1, n=32)
    u = 1.0 + 0.2 * np.cos(3 * grid.thetas)
    assert np.max(np.abs(grid.eval(u, grid.nodes) - u)) < 1e-12

    grid2 = build_grid(2, n_theta=12, n_phi=24)
    u2 = 1.0 + 0.2 * grid2.nodes[:, 0] - 0.1 * grid2.nodes[:, 1] * grid2.nodes[:, 2]
    assert np.max(np.abs(grid2.eval(u2, grid2.nodes) - u2)) < 1e-12


def test_eval_direction_circle_offgrid():
    grid = build_grid(1, n=64)
    u = 2.0 + 0.3 * np.cos(5 * grid.thetas) - 0.1 * np.sin(2 * grid.thetas)
    ang = np.array([0.123, 1.9, 4.4])
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    expect = 2.0 + 0.3 * np.cos(5 * ang) - 0.1 * np.sin(2 * ang)
    assert np.max(np.abs(grid.eval(u, pts) - expect)) < 1e-12


def test_eval_direction_matches_scipy_synthesis():
    """Off-grid evaluation agrees with direct scipy harmonic synthesis, also
    at the poles and next to them, where cos(theta) alone rounds to +-1."""
    rng = np.random.default_rng(11)
    grid = build_grid(2, n_theta=16, n_phi=32)
    modes = [(0, 0, 0.9), (1, 1, 0.2), (3, -2, 0.15), (5, 0, 0.1), (6, 4, 0.05)]

    def synth(theta, phi):
        out = np.zeros_like(theta)
        for l, m, a in modes:
            out = out + a * real_harmonic(l, m, theta, phi)
        return out

    theta_g = np.arccos(grid.nodes[:, 2])
    phi_g = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0])
    u = synth(theta_g, phi_g)

    near_poles = [0.0, 1e-9, 3e-8, 1e-6, np.pi - 1e-9, np.pi]
    theta = np.concatenate([np.arccos(rng.uniform(-0.99, 0.99, size=40)), near_poles])
    phi = rng.uniform(0, 2 * np.pi, size=theta.size)
    pts = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=1,
    )
    got = grid.eval(u, pts)
    assert np.max(np.abs(got - synth(theta, phi))) < 1e-13


@pytest.mark.parametrize("n_theta,n_phi", [(32, 64), (40, 48)])
def test_eval_matches_legendre_sum(n_theta, n_phi):
    """eval against the direct sum Re sum_m f_m sum_l c[m, l] P_lm(x) e^{im phi}
    over the recurrence's Legendre table at the points."""
    grid = build_grid(2, n_theta=n_theta, n_phi=n_phi)
    rng = np.random.default_rng(n_theta)
    L = grid.bandlimit
    m, l = np.arange(L + 1)[:, None], np.arange(L + 1)[None, :]
    coeffs = rng.normal(size=(L + 1, L + 1)) + 1j * rng.normal(size=(L + 1, L + 1))
    coeffs[0] = coeffs[0].real
    u = grid.synthesize(np.where(l >= m, coeffs / (1.0 + l) ** 2, 0.0))
    c = grid.analyze(u)
    f = np.where(m == 0, 1.0, 2.0)
    pts = rng.normal(size=(2000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    expect = np.empty(len(pts))
    for lo in range(0, len(pts), 500):  # keeps the (L+1, L+1, points) tables small
        x, y, z = pts[lo : lo + 500].T
        P = sphere._legendre_tables(z, sphere._recurrence_coefficients(L))[0]
        g = np.einsum("ml,mli->mi", c, P)
        expect[lo : lo + 500] = np.sum(f * (g * np.exp(1j * m * np.arctan2(y, x))).real, axis=0)
    assert np.max(np.abs(grid.eval(u, pts) - expect)) < 1e-13
    # the interpolant depends on the direction alone, not on its length
    assert np.max(np.abs(grid.eval(u, pts * (1.0 + 5e-11)) - expect)) < 1e-13


def test_eval_direction_rejects_bad_directions():
    grid = build_grid(1, n=32)
    u = np.ones(32)
    with pytest.raises(ParameterError):
        grid.eval(u, np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        grid.eval(u, np.array([[0.5, 0.0, 0.0]]))
    for g in (grid, build_grid(2, n_theta=8, n_phi=16)):
        ones = np.ones(g.n_nodes)
        for bad in ([[np.nan] * (g.dim + 1)], [[1.0] + [np.nan] * g.dim],
                    [[1.0] + [0.0] * g.dim, [np.inf] * (g.dim + 1)]):
            with pytest.raises(ParameterError):
                g.eval(ones, np.array(bad))


def test_eval_unit_length_boundary():
    # |x| = 1 within 1e-10, tested on the squared length
    for g in (build_grid(1, n=32), build_grid(2, n_theta=8, n_phi=16)):
        ones, x = np.ones(g.n_nodes), g.nodes[:5]
        for scale in (1.0 - 0.9e-10, 1.0 + 0.9e-10):
            assert np.max(np.abs(g.eval(ones, x * scale) - 1.0)) < 1e-12
        for scale in (1.0 - 1.1e-10, 1.0 + 1.1e-10):
            with pytest.raises(ParameterError):
                g.eval(ones, x * scale)


def _random_bandlimited(grid, seed):
    """A random nodal field that the grid's interpolant reproduces at the nodes
    (on S^1 every field is; on S^2 project onto the resolved harmonics)."""
    u = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    return u if grid.dim == 1 else grid.synthesize(grid.analyze(u))


@pytest.mark.parametrize("kwargs", [dict(dim=1, n=32), dict(dim=2, n_theta=12, n_phi=24)])
def test_eval_crosses_block_boundary(kwargs):
    # the kind's own block size, and the default that S^2 uses; the screen
    # kernel at degree d gives the nodal values of the part of degree <= d
    grid = build_grid(**kwargs)
    u = _random_bandlimited(grid, seed=5)
    c = grid.analyze(u)
    degrees = grid._tab["degrees"]
    for count in (2 * grid._eval_block + 37, SphereGrid._eval_block + 37):
        reps = -(-count // grid.n_nodes)
        pts = np.tile(grid.nodes, (reps, 1))[:count]
        expect = np.tile(u, reps)[:count]
        assert np.max(np.abs(grid.eval(u, pts) - expect)) < 1e-12
        for d in (0, 3, grid.bandlimit - 1):
            low = np.tile(grid.synthesize(c * (degrees <= d)), reps)[:count]
            got = grid._screen_kernel(c, d)[0](pts)
            assert np.max(np.abs(got - low)) < 1e-12


def _truncated_eval(grid, c, d, pts):
    """u_<=d at pts: ``eval``'s kernel on the coefficients with those above d
    zeroed.  (``eval`` of the synthesized truncated field would add the
    round trip synthesize -> analyze, which moves the value at the pole on
    40x48 by 8e-13, more than the tolerance 1e-13 S.)"""
    kernel, block = grid._eval_kernel(c * (grid._tab["degrees"] <= d)), grid._eval_block
    return np.concatenate([kernel(pts[lo : lo + block]) for lo in range(0, len(pts), block)])


@pytest.mark.parametrize("kwargs", [dict(dim=1, n=16), dict(dim=1, n=256),
                                    dict(dim=2, n_theta=8, n_phi=16),
                                    dict(dim=2, n_theta=32, n_phi=64),
                                    dict(dim=2, n_theta=40, n_phi=48)])
def test_tail_bound_holds(kwargs):
    """B[d] of ``_tail_bounds`` bounds |u - u_<=d| at 20k random directions
    for every d (on 40x48, n_phi sets the bandlimit), S bounds |u|, and the
    kernel at the top degree is ``eval`` bit for bit.  The bound is sharp:
    positive coefficients (on S^2 of the order m = 0 alone) attain it at
    phi = 0 on S^1 and at the north pole on S^2."""
    grid = build_grid(**kwargs)
    u = _random_bandlimited(grid, seed=sum(grid.shape))
    c = grid.analyze(u)
    tail, bound = grid._tail_bounds(c)
    assert len(tail) == len(grid._tab["degrees"]) and tail[-1] == 0.0
    assert np.all(np.diff(tail) <= 0.0)
    pts = np.random.default_rng(len(tail)).normal(size=(20_000, grid.dim + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    full = grid.eval(u, pts)
    assert np.max(np.abs(full)) <= bound
    for d in range(len(tail)):
        low = _truncated_eval(grid, c, d, pts)
        assert np.max(np.abs(full - low)) <= tail[d] + 1e-13, d
    assert np.array_equal(low, full)

    peak = np.abs(c)
    if grid.dim == 2:
        peak[1:] = 0.0
    apex = np.eye(grid.dim + 1)[0 if grid.dim == 1 else -1]
    u = grid.synthesize(peak)
    c = grid.analyze(u)  # the round trip moves the coefficients by ~1e-14
    tail, bound = grid._tail_bounds(c)
    top = grid.eval(u, apex)
    assert top == pytest.approx(bound, rel=1e-13)
    for d in range(len(tail)):
        assert top - _truncated_eval(grid, c, d, apex[None])[0] == pytest.approx(
            tail[d], abs=1e-13 * bound), d


def _hard_coefficients(grid, seed):
    """Random coefficients in every (m, l) (every k on S^1), decaying like
    1/(1 + l)^2: the worst conditioning the screen kernel meets."""
    rng = np.random.default_rng(seed)
    size = len(grid._tab["degrees"])
    shape = (size,) if grid.dim == 1 else (size, size)
    c = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / (1.0 + np.arange(size)) ** 2
    c[0] = c[0].real  # real field: the constant (S^1) or the order m = 0 (S^2)
    if grid.dim == 1:
        c[-1] = c[-1].real  # the Nyquist mode
        return c
    return np.triu(c)  # zero for l < m


def _partial_sums(grid, c, pts):
    """u_<=d at pts for every d, as (degrees, n), summed directly in 64-bit
    extended precision: on S^1 f_k Re c_k e^{ik phi}, on S^2
    f_m Re c[m, l] e^{im phi} P_lm(cos theta), with P_lm from the
    associated-Legendre recurrence at each point and its coefficients
    computed in extended precision too."""
    ext = np.longdouble
    p = pts.astype(ext)
    p /= np.sqrt(np.sum(p * p, axis=1))[:, None]
    phi = np.arctan2(p[:, 1], p[:, 0])
    m = np.arange(c.shape[0])
    f = np.where(m == 0, 1, 2).astype(ext)
    if grid.dim == 1:
        f[-1] = 1  # the Nyquist mode
        turns = np.cumprod(np.tile(np.cos(phi) + 1j * np.sin(phi), (len(m) - 1, 1)), axis=0)
        cos = np.concatenate([np.ones((1, len(pts)), dtype=ext), turns.real])
        sin = np.concatenate([np.zeros((1, len(pts)), dtype=ext), turns.imag])
        re, im = c.real.astype(ext)[:, None], c.imag.astype(ext)[:, None]
        return np.cumsum(f[:, None] * (re * cos - im * sin), axis=0)
    z, rho = p[:, 2], np.hypot(p[:, 0], p[:, 1])
    per_degree = np.zeros((len(m), len(pts)), dtype=ext)
    p_mm = np.full(len(pts), 1 / np.sqrt(ext(2)))
    for order in m:
        if order:
            p_mm = p_mm * rho * np.sqrt(ext(2 * order + 1) / ext(2 * order))
        cos, sin = np.cos(order * phi), np.sin(order * phi)
        prev, p_lm, a_prev = 0, p_mm, ext(0)
        for l in range(order, len(m)):
            if l > order:
                a_l = np.sqrt(ext(l * l - order * order) / ext(4 * l * l - 1))
                prev, p_lm, a_prev = p_lm, (z * p_lm - a_prev * prev) / a_l, a_l
            cml = c[order, l]
            per_degree[l] += f[order] * (ext(cml.real) * cos - ext(cml.imag) * sin) * p_lm
    return np.cumsum(per_degree, axis=0)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60, reason="needs 64-bit extended precision")
@pytest.mark.parametrize("kwargs", [dict(dim=1, n=16), dict(dim=1, n=256),
                                    dict(dim=2, n_theta=8, n_phi=16),
                                    dict(dim=2, n_theta=24, n_phi=48),
                                    dict(dim=2, n_theta=32, n_phi=64),
                                    dict(dim=2, n_theta=40, n_phi=48),
                                    dict(dim=2, n_theta=64, n_phi=128)])
def test_screen_kernel_round_off_bound_holds(kwargs):
    """The screen kernel's R_d bounds its distance from u_<=d for every d on
    hard random fields, at 20k random directions and at directions within
    1e-12 of the poles, against a direct sum in extended precision.  On S^1
    ``eval`` is that kernel at the top degree, so the top R bounds it too."""
    grid = build_grid(**kwargs)
    c = _hard_coefficients(grid, seed=sum(grid.shape))
    rng = np.random.default_rng(len(c))
    pts = rng.normal(size=(20_000, grid.dim + 1))
    poles = np.zeros((200, grid.dim + 1))
    poles[:, :-1] = rng.uniform(-1e-12, 1e-12, size=(200, grid.dim))
    poles[:, -1] = np.where(np.arange(200) % 2, 1.0, -1.0)
    pts = np.concatenate([pts / np.linalg.norm(pts, axis=1, keepdims=True), poles])
    exact = _partial_sums(grid, c, pts)
    for d in range(len(exact)):
        kernel, roundoff = grid._screen_kernel(c, d)
        assert np.max(np.abs(kernel(pts) - exact[d])) <= roundoff, d
    if grid.dim == 1:
        u = grid.synthesize(c)
        c = grid.analyze(u)  # the coefficients eval sums
        top = len(c) - 1
        roundoff = grid._screen_kernel(c, top)[1]
        assert np.max(np.abs(grid.eval(u, pts) - _partial_sums(grid, c, pts)[top])) <= roundoff


@pytest.mark.parametrize("kwargs", [dict(dim=1, n=32), dict(dim=2, n_theta=12, n_phi=24)])
def test_eval_single_direction_is_a_float(kwargs):
    grid = build_grid(**kwargs)
    u = _random_bandlimited(grid, seed=6)
    d = np.ones(grid.dim + 1) / np.sqrt(grid.dim + 1)
    value = grid.eval(u, d)
    assert isinstance(value, float)
    assert value == grid.eval(u, d[None, :])[0]


def test_eval_circle_weights_the_nyquist_mode_once():
    # a field that is not band-limited carries a Nyquist coefficient, which
    # the node test on cos 3 theta cannot see
    grid = build_grid(1, n=32)
    u = np.random.default_rng(7).standard_normal(32)
    assert abs(np.fft.rfft(u)[-1]) > 1e-3
    assert np.max(np.abs(grid.eval(u, grid.nodes) - u)) < 1e-12


@pytest.mark.parametrize("n", [16, 18, 256])
def test_circle_eval_matches_direct_sum(n):
    """eval against the direct sum sum_m f_m Re(c_m e^{im phi}) (f = 1 at
    m = 0 and on the Nyquist mode, 2 otherwise)."""
    grid = build_grid(1, n=n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n)  # not band-limited: it carries a Nyquist coefficient
    c = grid.analyze(u)
    assert abs(c[-1]) > 1e-3
    f = np.full(c.size, 2.0)
    f[[0, -1]] = 1.0
    phi = rng.uniform(0.0, 2.0 * np.pi, size=2000)
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    m = np.arange(c.size)[:, None]
    expect = np.sum(f[:, None] * (c[:, None] * np.exp(1j * m * phi)).real, axis=0)
    assert np.max(np.abs(grid.eval(u, pts) - expect)) < 1e-13
    assert np.max(np.abs(grid.eval(u, pts * (1.0 + 5e-11)) - expect)) < 1e-13


@pytest.mark.parametrize("n_theta,n_phi", [(12, 24), (32, 64)])
def test_eval_on_the_axis_is_the_zonal_sum(n_theta, n_phi):
    """At the poles only the order m = 0 survives: u = sum_l c[0, l] P_l0(+-1),
    with P_l0(+-1) = (+-1)^l sqrt((2l + 1)/2).  The directions lie exactly on
    the axis (x = y = 0, also a signed zero, also 5e-11 off unit length), where
    e^{i phi} = (x + iy)/hypot(x, y) is 0/0."""
    grid = build_grid(2, n_theta=n_theta, n_phi=n_phi)
    u = grid.synthesize(grid.analyze(np.random.default_rng(n_theta).standard_normal(grid.n_nodes)))
    c0 = grid.analyze(u)[0].real
    l = np.arange(c0.size)
    north, south = np.sum(c0 * np.sqrt(l + 0.5)), np.sum(c0 * (-1.0) ** l * np.sqrt(l + 0.5))
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 1.0],
                    [0.0, 0.0, 1.0 + 5e-11], [0.0, 0.0, -1.0 - 5e-11]])
    got = grid.eval(u, pts)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - [north, south, north, north, south])) < 1e-13
