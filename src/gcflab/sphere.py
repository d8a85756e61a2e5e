"""Collocation grids and spectral calculus on the unit circle and 2-sphere.

A grid couples quadrature nodes/weights with tabulated basis data so scalar
fields sampled at the nodes can be differentiated, integrated and evaluated
off-grid with spectral accuracy.  :func:`build_grid` looks the dimension up
in ``_KINDS``, the table of the two kinds of :class:`SphereGrid`:

* :class:`CircleGrid`: uniform angles on S^1, trigonometric (FFT)
  differentiation;
* :class:`Sphere2Grid`: Gauss-Legendre colatitudes x uniform longitudes,
  real spherical harmonic transform built from fully normalized
  associated Legendre functions.  The node set avoids the poles, so
  covariant components in the orthonormal frame (e_theta, e_phi/sin theta)
  are well defined everywhere.

The S^2 transform is matrix-organized (Schaeffer 2013, SHTns): an FFT in
longitude, then one batched matrix product over the orders m in colatitude.
``build_grid`` precomputes two tables, the quadrature-weighted P_lm (m, l, i)
for analysis, corrected once so that it inverts synthesis to round-off, and
the stack S (m, i, l) of P_lm, dP_lm and d2P_lm at the n_theta colatitudes
(3 n_theta rows per order) for synthesis.  Complex coefficients enter the
products as real/imag pairs, so every product is a real matmul.

One synthesis kernel turns coefficients into nodal rows: the values alone
(:meth:`~SphereGrid.synthesize`, :meth:`~SphereGrid.lowpass`) or the jet
rows (u, u', u'') on S^1 and (u, u_theta, u_thetatheta, u_phi,
u_thetaphi, u_phiphi) on S^2 (``synthesize(coeffs, jet=True)``), one
matmul against the whole stack and one inverse FFT over all six profiles.
A :class:`SupportJet` holds those raw rows; derivatives are linear in u,
so the jet of a linear combination of fields is the same combination of
rows.  ``derivative_bundle`` is one analysis plus the kernel.  The degree
is the last axis of a coefficient array on both grids, so a filter is a
multiplier along it (:meth:`~SphereGrid.degree_mask`, a cut at a fraction
of the bandlimit), and the degree-1 part of a field, a translation of a
support function, is index 1 of that axis; the flow's ETDRK4 stages are
jets synthesized from coefficient states.  The transforms, the
synthesis kernel and ``radii_invariants`` take a leading stack axis, a
field per row, and give each row what it gives alone, bit for bit: the
flow advances two step sizes as one stack.

Off-grid evaluation sums u = Re sum_m G_m w^m over blocks of directions.
On S^1 it is Horner in w: G_m = f_m c_m, w = (x + iy)/|x + iy|, the Monte
Carlo screen's sum at the top degree.  On S^2, w = e^{i phi}, and each
colatitude sum G_m(theta) is a trigonometric polynomial of degree <= L in
theta (a cosine series for even m, a sine series for odd m), so its values
at the n_theta colatitudes fix it: the grid keeps the pseudo-inverses of
cos(k theta_i) and sin(k theta_i), and ``eval`` turns the synthesized
profiles into two half-size tables once per call, one on the cos rows in
theta and one on the sin rows.  G = T @ R is then one real matmul per block
against the rows R of cos(k theta) and sin(k theta), and those rows and the
powers w^m come from repeated doubling (see ``eval``).

The Monte Carlo oracles screen polar membership on the part u_<=d of degree
<= d and evaluate u in full only where the screen cannot decide.  A kind's
``_tail_bounds`` bound sup |u - u_<=d| for every d by the coefficients'
moduli times the sup of their basis functions, and its ``_screen_kernel``
sums u_<=d in Cartesian form, Re sum_{m <= d} (x + iy)^m q_m(z), with a
bound on its own round-off: q_m = f_m c_m is a constant on S^1, where
``eval`` is the same sum at the top degree, and a Chebyshev series in z on
S^2, so the kernel takes no angle and no trig rows.  On S^2 that form is
ill-conditioned at high degree (its bound reaches 1e-2 of sup |u| at d = 63
on hard fields), so it is a screen only.

The grid owns the form of A = Hess u + u I: ``radii_invariants`` reads the
jet rows and returns the invariants of A that callers read, so no caller
builds A or the Hessian.

The public entry points are :func:`build_grid`, the grid's spectral methods
(:meth:`SphereGrid.analyze`, :meth:`~SphereGrid.synthesize`,
:meth:`~SphereGrid.derivative_bundle`, :meth:`~SphereGrid.degree_mask`,
``radii_invariants``, :meth:`~SphereGrid.eval`,
:meth:`~SphereGrid.lowpass`) and the quadrature
helpers :func:`integrate` and :func:`average`.
Everything downstream treats the grid as an opaque handle, which keeps the
geometry code dimension-agnostic; the shape generators and the command line
ask the kind for its sizes, mode tuples and ``--harmonic`` entries, so a new
dimension is a new kind in ``_KINDS``.  The grid also owns its node
geometry: code outside this module reaches the node coordinates only through
the node operations of :class:`SphereGrid`, apart from the inradius LP and
the ``translated_ball`` and ``ellipsoid`` generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from .constants import sphere_area
from .errors import FieldShapeError, ParameterError

_UNIT_ROUNDOFF = 2.0**-53  # u, half the spacing of doubles at 1

__all__ = [
    "SphereGrid",
    "SupportJet",
    "build_grid",
    "integrate",
    "average",
]

@dataclass(frozen=True, eq=False)
class SupportJet:
    """Pointwise derivative data of a nodal field, as rows of raw derivatives.

    ``rows`` is (3, n_nodes) on a :class:`CircleGrid`, holding (u, u', u''),
    and (6, n_nodes) on a :class:`Sphere2Grid`, holding (u, u_theta,
    u_thetatheta, u_phi, u_thetaphi, u_phiphi); the jet of a stack of
    fields has the stack's axes in front, (..., rows, n_nodes).  The rows
    are linear in u: ``SupportJet(grid, a.rows + t * b.rows)`` is the jet
    of a + t b.  ``grad`` (orthonormal-frame components of the tangential
    gradient, (..., n_nodes, dim)) is derived from the rows by the grid's
    kind on each access, as a fresh array, so a body that keeps its
    gradient does not keep the whole jet alive.
    """

    grid: SphereGrid
    rows: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.rows[..., 0, :]

    @property
    def grad(self) -> np.ndarray:
        return self.grid._grad(self.rows)


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Collocation grid on S^dim, a :class:`CircleGrid` (dim 1) or a
    :class:`Sphere2Grid` (dim 2).  The public methods are defined here and
    never overridden by a kind (perfbench's tracer and the tests' spies patch
    them on this class).  A kind supplies its constructor from sizes
    ``_build``; its sizes in ``shape`` order with their desk-scale values,
    ``_desk``; the kernels ``_analyze``, ``_synthesize_rows``,
    ``_eval_kernel``, ``_grad`` and ``radii_invariants``; the Monte Carlo
    screen's kernel ``_screen_kernel`` and tail bounds ``_tail_bounds``;
    its reader of harmonic mode tuples ``_harmonic_field``; the modes,
    degree first, that a random body draws, ``_random_modes``; and its
    ``--harmonic`` entry ``_spec`` with the parser ``_parse_spec``.  The
    node operations ``_linear``, ``_moment``, ``_second_moment``,
    ``_widths`` and ``_position`` are defined here on Cartesian unit-vector
    ``nodes``, ``antipodes`` and ``frames``; a kind whose nodes are not
    Cartesian unit vectors overrides these five, and no code outside this
    module changes with it.

    Attributes
    ----------
    nodes : (n_nodes, dim+1) unit vectors of the collocation directions.
    weights : quadrature weights; exact for harmonics up to ``quad_degree``.
    frames : (n_nodes, dim, dim+1) orthonormal tangent frames at the nodes.
    bandlimit : largest harmonic degree the transforms resolve.
    h_min : collocation spacing of the highest resolved mode, pi/(bandlimit+1);
        it sets the explicit parabolic step limit, ``flow.stable_dt``, which
        the flow takes as its first step.
    antipodes : (n_nodes,) index of each node's antipode, so that
        ``nodes[antipodes] = -nodes`` up to round-off.
    thetas : the node angles on S^1, the n_theta colatitudes on S^2.
    """

    dim: int
    shape: tuple
    nodes: np.ndarray
    weights: np.ndarray
    frames: np.ndarray
    area: float
    bandlimit: int
    quad_degree: int
    h_min: float
    antipodes: np.ndarray
    thetas: np.ndarray
    # private transform tables
    _tab: dict = field(default_factory=dict, repr=False)

    # directions per block of eval's kernel, whose trig rows take ~1 MB at
    # 32x64
    _eval_block = 1024

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def __repr__(self):  # keep reprs short; tables are large
        return f"SphereGrid(dim={self.dim}, shape={self.shape})"

    # --- transforms -------------------------------------------------------

    def check_field(self, values, _stack: bool = False) -> np.ndarray:
        """The field as a float array, (n_nodes,) and finite; with ``_stack``
        (the transforms' own use) any leading stack axes are allowed."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (self.n_nodes,) or (values.ndim != 1 and not _stack):
            expected = f"(..., {self.n_nodes})" if _stack else f"({self.n_nodes},)"
            raise FieldShapeError(f"field has shape {values.shape}, grid expects {expected}")
        if not np.isfinite(values).all():
            raise FieldShapeError("field contains non-finite entries")
        return values

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Forward transform to spectral coefficients.

        S^1: complex rfft coefficients divided by N.
        S^2: complex triangle c[m, l] (zero for l < m) in the orthonormal
        associated-Legendre basis; m >= 0 only, real fields assumed.
        On both grids the degree is the last axis.  A stack of fields,
        (..., n_nodes), gives the stack of their coefficients in one call
        (the flow advances two step sizes at once this way).
        """
        return self._analyze(self.check_field(values, _stack=True))

    def synthesize(self, coeffs: np.ndarray, jet: bool = False):
        """Inverse of :meth:`analyze` (exact for band-limited data): the nodal
        values or, with ``jet``, the :class:`SupportJet` of the field (the
        kind's ``_synthesize_rows`` gives the value row or the jet rows).
        A stack of coefficient arrays gives the stack of fields or jets."""
        if jet:
            return SupportJet(self, self._synthesize_rows(coeffs, jet=True))
        return self._synthesize_rows(coeffs, jet=False)[..., 0, :]

    def derivative_bundle(self, values: np.ndarray) -> SupportJet:
        """Jet of a nodal field: one analysis and the synthesis kernel.

        The nodal values are kept as-is; derivatives come from the spectral
        representation, the standard pseudo-spectral convention.
        """
        values = self.check_field(values)
        jet = self.synthesize(self._analyze(values), jet=True)
        jet.rows[0] = values
        return jet

    def eval(self, values: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Evaluate the spectral interpolant at arbitrary unit directions.

        Both kinds sum u = Re sum_m G_m w^m over blocks of ``_eval_block``
        directions; the kind's ``_eval_kernel`` prepares the coefficients
        once per call and gives a function of a block.  On S^1 it is Horner
        in w = (x + iy)/|x + iy| with G_m = f_m c_m.  On S^2, w = e^{i phi}
        and G = T @ R is one real matmul of a per-call table T against the
        block's rows R of cos(k theta) and sin(k theta), which
        :func:`_trig_rows` makes, like the powers w^m, by doubling.  A 1-D
        ``directions`` gives a float.

        A direction's value can move by 1-4 ulp with the other directions of
        its call.  On S^2 the BLAS product rounds a column by the block's
        width; on S^1 only a block of one direction moves, since numpy's
        in-place complex product rounds otherwise on a one-element array.
        A caller that needs repeatable values passes whole arrays in a fixed
        order, as the Monte Carlo oracles' fallback does with a whole chunk.
        """
        values = self.check_field(values)
        directions = np.asarray(directions, dtype=float)
        single = directions.ndim == 1
        pts = np.atleast_2d(directions)
        if pts.shape[1] != self.dim + 1:
            raise ParameterError(
                f"directions must have {self.dim + 1} components, got {pts.shape[1]}"
            )
        # unit length within 1e-10, tested on |x|^2 so that no sqrt is taken
        sq = np.einsum("ij,ij->i", pts, pts)
        if not np.all(((1.0 - 1e-10) ** 2 <= sq) & (sq <= (1.0 + 1e-10) ** 2)):  # NaN fails too
            raise ParameterError("directions must be unit vectors (|x| = 1 within 1e-10)")
        out = np.empty(pts.shape[0])
        kernel = self._eval_kernel(self.analyze(values))
        for lo in range(0, pts.shape[0], self._eval_block):
            out[lo : lo + self._eval_block] = kernel(pts[lo : lo + self._eval_block])
        return out[0] if single else out

    def lowpass(self, values: np.ndarray, frac: float) -> np.ndarray:
        """Zero all modes above ``frac * bandlimit``; a negative ``frac``
        zeroes every mode."""
        return self.synthesize(self.analyze(values) * self.degree_mask(frac))

    def degree_mask(self, frac: float) -> np.ndarray:
        """Multiplier along the coefficients' degree axis: 1 on the degrees
        up to ``frac * bandlimit`` and 0 above (0 everywhere for a negative
        ``frac``).  Masking is exact for a band-limited field."""
        if not np.isfinite(frac):
            raise ParameterError(f"frac must be finite, got {frac!r}")
        return (self._tab["degrees"] <= np.floor(frac * self.bandlimit)).astype(float)

    # --- node geometry ----------------------------------------------------
    # Each operation fixes its order of evaluation: the entropy and Santalo
    # solves' results depend on it bit for bit.

    def _linear(self, z) -> np.ndarray:
        """The nodal field <z, x>."""
        return self.nodes @ z

    def _moment(self, f) -> np.ndarray:
        """sum_i w_i f_i x_i, the first moment of the nodal field f."""
        return (self.weights * f) @ self.nodes

    def _second_moment(self, *factors, scale=1) -> np.ndarray:
        """sum_i scale w_i f_i x_i x_i^T, with w f = ((w f_1) f_2) ... over
        ``factors`` and ``scale`` applied to the weighted x^T before the
        product."""
        wf = self.weights
        for f in factors:
            wf = wf * f
        wx = self.nodes.T * wf
        return (wx if scale == 1 else scale * wx) @ self.nodes

    def _widths(self, u) -> np.ndarray:
        """u(x) + u(-x) at each node: the widths of the body with support u."""
        return u + u[self.antipodes]

    def _position(self, u, grad) -> np.ndarray:
        """The boundary points X = u x + grad u, from the frame components of
        the gradient, (n_nodes, dim+1)."""
        return u[:, None] * self.nodes + np.einsum("na,naj->nj", grad, self.frames)


class CircleGrid(SphereGrid):
    """Uniform grid on S^1: FFT transforms, jet rows (u, u', u'')."""

    _desk = {"n": 256}  # the sizes the kind takes, at desk scale
    _spec = "k:amp[:amp_sin]"  # a --harmonic entry, read by _parse_spec
    # Horner's rule makes two numpy calls per degree, whatever the block's
    # length: 1024-direction blocks made eval 1.5x slower than these
    _eval_block = 8192

    @classmethod
    def _build(cls, n):
        if n < 16 or n % 2:
            raise ParameterError("dim 1 grids need an even node count n >= 16")
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n, 2.0 * np.pi / n)
        frames = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
        bandlimit = n // 2 - 1
        k = np.arange(n // 2 + 1)
        ik = 1j * k
        ik[-1] = 0.0  # n is even: the Nyquist mode has no well-defined odd derivative
        tab = {
            # rfft multipliers of the jet rows (u, u', u''), times n for the irfft
            "jet": _ro(n * np.stack([np.ones(k.size), ik, -(k**2)])),
            "ones": _ro(np.ones(n)),  # sigma_0(A), shared by every body
            "degrees": _ro(k),
        }
        return cls(dim=1, shape=(n,), nodes=_ro(nodes), weights=_ro(weights), frames=_ro(frames),
                   area=sphere_area(1), bandlimit=bandlimit, quad_degree=n - 1,
                   h_min=np.pi / (bandlimit + 1), antipodes=_ro(np.roll(np.arange(n), n // 2)),
                   thetas=_ro(theta), _tab=tab)

    def _analyze(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfft(values) / self.shape[0]

    def _synthesize_rows(self, coeffs: np.ndarray, jet: bool) -> np.ndarray:
        mult = self._tab["jet"] if jet else self._tab["jet"][:1]
        return np.fft.irfft(mult * coeffs[..., None, :], n=self.shape[0], axis=-1)

    def _grad(self, rows: np.ndarray) -> np.ndarray:
        return rows[..., 1, :, None].copy()

    def radii_invariants(self, jet: SupportJet):
        """(det A, trace A, least eigenvalue, sigma_0(A) = 1) of A = u'' + u,
        per field of a stacked jet."""
        a = jet.rows[..., 2, :] + jet.rows[..., 0, :]
        return a, a, a, self._tab["ones"]

    @staticmethod
    def _weighted(coeffs):
        """a_m = f_m c_m, so that u = Re sum_m a_m e^{im phi}: f_m = 1 at m = 0
        and on the last coefficient, the Nyquist mode (n is even), else 2."""
        a = 2.0 * coeffs
        a[[0, -1]] /= 2.0
        return a

    def _eval_kernel(self, coeffs):
        """For :meth:`eval`: the screen's Horner sum (``_screen_kernel``) at
        the top degree, so its round-off bound R holds for ``eval`` too."""
        return _horner_in_w(self._weighted(coeffs))

    def _screen_kernel(self, coeffs, degree: int):
        """(kernel, R) for the Monte Carlo screen: u_<=d = Re sum_{m <= d}
        a_m w^m, a = ``_weighted(coeffs)``, by Horner's rule in
        w = (x + iy)/|x + iy|, and a bound R on the kernel's round-off at any
        direction.

        Normalizing w costs 2u and Horner's step (a complex product and sum)
        3.3u per power, so |error| <= 2u sum_m |a_m| (3m + 1) (u = 2^-53).
        """
        a = self._weighted(coeffs)[: degree + 1]
        roundoff = 2.0 * _UNIT_ROUNDOFF * float(np.abs(a) @ (3.0 * np.arange(degree + 1) + 1.0))
        return _horner_in_w(a), roundoff

    def _tail_bounds(self, coeffs):
        """(B, S): B[d] = sum_{k > d} |a_k| >= sup |u - u_<=d|, with
        a = ``_weighted(coeffs)``, and S = sum_k |a_k| >= sup |u|."""
        return _tail_sums(np.abs(self._weighted(coeffs)))

    @staticmethod
    def _parse_spec(entry: str):
        head, _, tail = entry.partition(":")
        amps = [float(a) for a in tail.split(":")]
        if len(amps) not in (1, 2):
            raise ValueError("one or two amplitudes")
        return (int(head), amps[0], amps[1] if len(amps) == 2 else 0.0)

    def _harmonic_field(self, modes) -> np.ndarray:
        out = np.zeros(self.n_nodes)
        for k, a, b in _mode_tuples(modes, "(k, a, b) with an integer k", 1):
            if not 0 <= k <= self.bandlimit:
                raise ParameterError(f"mode k={k} outside bandlimit {self.bandlimit}")
            out += a * np.cos(k * self.thetas) + b * np.sin(k * self.thetas)
        return out

    @staticmethod
    def _random_modes(rng, l_max: int, decay: float) -> list:
        return [(k, *rng.normal(size=2) * decay ** (k - 2)) for k in range(2, l_max + 1)]


class Sphere2Grid(SphereGrid):
    """Gauss-Legendre x uniform grid on S^2: Legendre matmuls and FFTs, jet
    rows (u, u_theta, u_thetatheta, u_phi, u_thetaphi, u_phiphi)."""

    _desk = {"n_theta": 32, "n_phi": 64}
    _spec = "l,m:amp"

    @classmethod
    def _build(cls, n_theta, n_phi):
        if n_theta < 8 or n_phi < 16 or n_phi % 2:
            raise ParameterError("dim 2 grids need n_theta >= 8 and even n_phi >= 16")

        x_asc, w_gl = np.polynomial.legendre.leggauss(n_theta)
        x = x_asc[::-1].copy()  # descending x <=> ascending colatitude
        w_gl = w_gl[::-1].copy()
        thetas = np.arccos(x)
        phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
        L = min(n_theta - 1, n_phi // 2 - 1)

        sin_t, cos_t = np.sin(thetas), np.cos(thetas)
        st = np.repeat(sin_t, n_phi)
        ct = np.repeat(cos_t, n_phi)
        cp = np.tile(np.cos(phis), n_theta)
        sp = np.tile(np.sin(phis), n_theta)
        nodes = np.stack([st * cp, st * sp, ct], axis=1)
        weights = np.repeat(w_gl, n_phi) * (2.0 * np.pi / n_phi)

        frames = np.stack([np.stack([ct * cp, ct * sp, -st], axis=1),  # e_theta, e_phi
                           np.stack([-sp, cp, np.zeros_like(sp)], axis=1)], axis=1)

        P, dP, d2P = _legendre_tables(x, _recurrence_coefficients(L))
        # X = P W inverts synthesis to 9e-15 only (leggauss's weights), which l^2 makes 1e-11
        # in a rebuilt det A; one Newton-Schulz step, X <- X - (X P^T - I) X, leaves round-off
        pw = P * w_gl[None, None, :]
        tab = {
            # S[m, i, l]: rows i of P, then dP, then d2P, contiguous per order m
            "S": np.concatenate([P, dP, d2P], axis=2).transpose(0, 2, 1).copy(),
            "PWt": pw - (pw @ P.transpose(0, 2, 1) - np.eye(L + 1)) @ pw,
            "sin_flat": st,
            "sin2_flat": st**2,
            "cot_flat": ct / st,
            # per-order multipliers of the longitude derivatives
            "im": 1j * np.arange(L + 1),
            "m2": -(np.arange(L + 1) ** 2),
            "degrees": _ro(np.arange(L + 1)),
        }
        # Gauss-Legendre colatitudes come in +/- pairs, longitudes shift by pi
        antipodes = np.roll(np.arange(n_theta * n_phi).reshape(n_theta, n_phi)[::-1],
                            n_phi // 2, axis=1).ravel()
        return cls(dim=2, shape=(n_theta, n_phi), nodes=_ro(nodes), weights=_ro(weights),
                   frames=_ro(frames), area=sphere_area(2), bandlimit=L,
                   quad_degree=min(2 * n_theta - 1, n_phi - 1), h_min=np.pi / (L + 1),
                   antipodes=_ro(antipodes), thetas=_ro(thetas), _tab=tab)

    def _analyze(self, values: np.ndarray) -> np.ndarray:
        n_theta, n_phi = self.shape
        g = np.fft.rfft(values.reshape(*values.shape[:-1], n_theta, n_phi), axis=-1) / n_phi
        g = np.ascontiguousarray(np.swapaxes(g[..., : self.bandlimit + 1], -1, -2))  # (..., m, i)
        # c[m, l] = sum_i w_i P_lm(x_i) g_m(theta_i), on real/imag pairs
        c = self._tab["PWt"] @ g.view(float).reshape(*g.shape, 2)
        return c.view(complex)[..., 0]

    def _synthesize_rows(self, coeffs: np.ndarray, jet: bool) -> np.ndarray:
        # Legendre sums of P (and dP, d2P for a jet), written straight into
        # the longitude spectrum; the phi-derivative rows are multiples of
        # the first two by i m and -m^2
        n_theta, n_phi = self.shape
        orders, k = self.bandlimit + 1, 3 if jet else 1
        stack = np.shape(coeffs)[:-2]
        prof = self._legendre_synth(coeffs, k * n_theta).reshape(*stack, orders, k, n_theta)
        buf = np.zeros((*stack, 2 * k if jet else 1, n_theta, n_phi // 2 + 1), dtype=complex)
        np.multiply(prof.swapaxes(-3, -2).swapaxes(-2, -1), n_phi, out=buf[..., :k, :, :orders])
        if jet:
            buf[..., 3:5, :, :orders] = buf[..., :2, :, :orders] * self._tab["im"]
            buf[..., 5, :, :orders] = buf[..., 0, :, :orders] * self._tab["m2"]
        return np.fft.irfft(buf, n=n_phi, axis=-1).reshape(*buf.shape[:-2], -1)

    def _legendre_synth(self, coeffs: np.ndarray, rows: int) -> np.ndarray:
        """Colatitude profiles sum_l S[m, i, l] c[m, l] over the first ``rows``
        rows i of the stacked table: n_theta rows give P, 3 n_theta give P,
        dP and d2P.  Returns a complex (..., L+1, rows) array, with the
        stack axes of ``coeffs`` in front.

        The coefficients enter as real/imag pairs, so the product is one real
        batched matmul (a complex operand would upcast the table every call).
        """
        c = np.ascontiguousarray(coeffs, dtype=complex)
        prof = self._tab["S"][:, :rows] @ c.view(float).reshape(*c.shape, 2)
        return prof.view(complex)[..., 0]

    def _grad(self, rows: np.ndarray) -> np.ndarray:
        return np.stack([rows[..., 1, :], rows[..., 3, :] / self._tab["sin_flat"]], axis=-1)

    def radii_invariants(self, jet: SupportJet):
        """(det A, trace A, least eigenvalue, sigma_1(A) = trace A) of
        A = Hess u + u I at the nodes, in closed 2x2 forms, per field of a
        stacked jet.  In the frame (e_theta, e_phi/sin theta) the covariant
        Hessian is h11 = u_thetatheta, h12 = (u_thetaphi - cot u_phi)/sin,
        h22 = u_phiphi/sin^2 + cot u_theta."""
        r, sin_t, cot_t = jet.rows, self._tab["sin_flat"], self._tab["cot_flat"]
        u = r[..., 0, :]
        a11 = r[..., 2, :] + u
        a12 = (r[..., 4, :] - cot_t * r[..., 3, :]) / sin_t
        a22 = r[..., 5, :] / self._tab["sin2_flat"] + cot_t * r[..., 1, :] + u
        a12_sq = a12 * a12
        trace = a11 + a22
        disc = np.sqrt((0.5 * (a11 - a22)) ** 2 + a12_sq)  # a sum of squares, never < 0
        return a11 * a22 - a12_sq, trace, 0.5 * trace - disc, trace

    @cached_property
    def _trig_pinv(self):
        """Trig coefficients of a colatitude profile from its n_theta values:
        the pseudo-inverses (a^T a)^-1 a^T of a = cos(k theta_i), k = 0..L, for
        even orders and a = sin(k theta_i), k = 1..L, for odd orders.

        cond(a) stays near 3 (3.2 at 64x128), so the normal equations lose
        nothing, and they touch less of LAPACK than an SVD.  Made on the
        grid's first ``eval``, not in :func:`build_grid`: a flow never
        evaluates off-grid, and the LAPACK pages the solve touches raised the
        peak RSS of a perfbench ``flow-round-s2`` run by 0.3 MB.
        """
        k = np.arange(self.bandlimit + 1)
        return tuple(_ro(np.linalg.solve(a.T @ a, a.T)) for a in (
            np.cos(np.outer(self.thetas, k)), np.sin(np.outer(self.thetas, k[1:]))))

    def _eval_kernel(self, coeffs):
        """For :meth:`eval`: u = Re sum_m f_m G_m(theta) e^{im phi}, with
        G_m = sum_l c[m, l] P_lm(cos theta).

        G_m(theta) is a cosine series sum_k a_mk cos(k theta) for even m and a
        sine series sum_k b_mk sin(k theta) for odd m, k <= L.  Its values at
        the colatitudes (``_legendre_synth``) give the trig coefficients
        through the pseudo-inverses ``_trig_pinv``, once per call: two
        half-size tables, one on the cos rows and one on the sin rows.  Per
        block, e^{i theta} = (z + i hypot(x, y)) / |.| keeps the offset of a
        direction near a pole from the axis, and e^{i phi} = (x + iy) /
        hypot(x, y) is 1 on the axis.
        """
        orders = self.bandlimit + 1
        prof = self._legendre_synth(coeffs, self.shape[0])  # G_m(theta_i)
        prof[1:] *= 2.0  # f_m
        pinv_cos, pinv_sin = self._trig_pinv
        # (Re G; -Im G) of the even and of the odd orders
        tables = [np.concatenate([a.real, -a.imag]) for a in
                  (prof[0::2] @ pinv_cos.T, prof[1::2] @ pinv_sin.T)]

        def kernel(pts):
            x, y, z = pts.T
            rho = np.hypot(x, y)
            theta = _trig_rows((z + 1j * rho) / np.hypot(z, rho), orders)
            e_phi = np.divide(x + 1j * y, rho, out=np.ones(len(pts), dtype=complex), where=rho > 0)
            phi = _trig_rows(e_phi, orders)
            return (_re_series(tables[0] @ theta[0], phi[:, 0::2])
                    + _re_series(tables[1] @ theta[1, 1:], phi[:, 1::2]))

        return kernel

    def _screen_kernel(self, coeffs, degree: int):
        """(kernel, R) for the Monte Carlo screen: u_<=d = Re sum_{m <= d}
        w^m q_m(z) in Cartesian form, w = x + iy, with q_m = sum_k C[m, k] T_k
        and C[m, k] = f_m sum_{l <= d} c[m, l] tab[m, l, k]
        (:func:`_chebyshev_table`), and a bound R on its round-off at any
        direction.

        Per call the kernel normalizes each direction (the value depends on
        the direction alone, and the bound needs |w|^2 + z^2 = 1), makes the
        rows T_k(z) by the three-term recurrence, takes q = T^T @ (Re C,
        Im C) and sums by Horner's rule in w.  R sums, with u = 2^-53, over
        every term |C[m, k]|:
        - the rows, 1.5 k^2 u from the recurrence and 3 k^2 u from the 3u
          error in z (|T_k'| <= k^2);
        - the product, (d + 1) sqrt 2 u;
        - Horner's rule, 3.3 m u, and 3 m u from the error in w;
        and over every term f_m |c[m, l]| norms[m, l]:
        - the sum that makes C, (d + 1) sqrt 2 u;
        - the table's own round-off, taken as 4 (l + 2)^2 u: 2 (l + 2) times
          the measured bound in :func:`_chebyshev_table`.
        Each weight is then rounded up.  |C| grows fast with d, since
        p_lm = P_lm / sin^m theta is large near the poles for large m, and so
        does R: on fields with every (m, l) in use it is about 3e-14 of the
        bound S >= sup |u| at d = 8, 2e-12 at d = 16, 4e-9 at d = 31 and
        1e-2 at d = 63: a screen only.
        """
        size = degree + 1
        tab, norms = _chebyshev_table(size)
        f = np.full((size, 1), 2.0)
        f[0] = 1.0
        c = coeffs[:size, :size]
        table = f * np.einsum("ml,mlk->mk", c, tab)
        m, j = np.arange(size)[:, None], np.arange(size)  # j is k in C, l in c
        roundoff = 2.0 * _UNIT_ROUNDOFF * float(
            np.sum(np.abs(table) * (3.0 * j**2 + 4.0 * m + size + 2.0))
            + np.sum(f * np.abs(c) * norms * (2.0 * (j + 2.0) ** 2 + 2.0 * size)))
        pairs = np.ascontiguousarray(table.T).view(float)  # [k, (Re C, Im C) of each m]

        def kernel(pts):
            inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", pts, pts))
            w = pts[:, 0] + 1j * pts[:, 1]
            w *= inv
            q = _chebyshev_rows(pts[:, 2] * inv, size).T @ pairs  # q_m(z) as (n, d+1) pairs
            return _horner(q.view(complex), w)

        return kernel, roundoff

    def _tail_bounds(self, coeffs):
        """(B, S): B[d] = sum_m f_m sum_{l > d} |c[m, l]| sqrt((2l + 1)/2)
        >= sup |u - u_<=d|, and S, the same sum over every l, >= sup |u|.
        Unsold's theorem, sum_m |Y_lm|^2 = (2l + 1)/4 pi, bounds
        |P_lm| <= sqrt((2l + 1)/2) in this normalization."""
        f = np.full(len(coeffs), 2.0)
        f[0] = 1.0
        return _tail_sums((f @ np.abs(coeffs)) * np.sqrt(self._tab["degrees"] + 0.5))

    @staticmethod
    def _parse_spec(entry: str):
        head, _, tail = entry.partition(":")
        l_deg, m_ord = (int(p) for p in head.split(","))
        return (l_deg, m_ord, float(tail))

    def _harmonic_field(self, modes) -> np.ndarray:
        L = self.bandlimit
        coeffs = np.zeros((L + 1, L + 1), dtype=complex)
        for l, m, a in _mode_tuples(modes, "(l, m, a) with integers l and m", 2):
            if not 0 <= l <= L or abs(m) > l:
                raise ParameterError(f"mode (l={l}, m={m}) outside bandlimit {L}")
            if m == 0:
                coeffs[0, l] += a / np.sqrt(2.0 * np.pi)
            elif m > 0:
                coeffs[m, l] += a / (2.0 * np.sqrt(np.pi))
            else:
                coeffs[-m, l] += -1j * a / (2.0 * np.sqrt(np.pi))
        return self.synthesize(coeffs)

    @staticmethod
    def _random_modes(rng, l_max: int, decay: float) -> list:
        return [(l, m, rng.normal() * decay ** (l - 2) / (2 * l + 1))
                for l in range(2, l_max + 1) for m in range(-l, l + 1)]


def _mode_tuples(modes, form: str, n_int: int):
    """The harmonic modes, each a 3-tuple of the kind's ``form`` whose first
    ``n_int`` entries (the degree, and the order on S^2) are integral
    numbers; yields each with those entries as ints."""
    for mode in modes:
        entries = tuple(mode) if np.iterable(mode) else ()
        if len(entries) != 3 or not all(
                isinstance(v, Real) and not isinstance(v, bool) and float(v).is_integer()
                for v in entries[:n_int]):
            raise ParameterError(f"harmonic modes on this grid are {form}, got {mode!r}")
        yield *(int(v) for v in entries[:n_int]), *entries[n_int:]


def _trig_rows(e: np.ndarray, k: int) -> np.ndarray:
    """The rows cos(j a) and sin(j a), j < k, as a (2, k, n) array, from
    e = e^{ia} (n,).

    By doubling: powers p..2p-1 are powers 0..p-1 times the turn e^{ipa},
    which then squares, so the rows take log2 k vector passes instead of k;
    the phase error of row j grows like j eps, as under a running product.
    """
    powers = np.empty((k, e.size), dtype=complex)
    powers[0] = 1.0
    p, turn = 1, e
    while p < k:
        q = min(p, k - p)
        np.multiply(powers[:q], turn, out=powers[p : p + q])
        p, turn = 2 * p, turn * turn
    return np.stack([powers.real, powers.imag])


def _chebyshev_rows(z: np.ndarray, k: int) -> np.ndarray:
    """The rows T_j(z), j < k, as a (k, n) array, by T_{j+1} = 2z T_j - T_{j-1}."""
    rows = np.empty((k, z.size))
    rows[0] = 1.0
    if k > 1:
        rows[1] = z
    two_z = 2.0 * z
    for j in range(1, k - 1):
        np.multiply(two_z, rows[j], out=rows[j + 1])
        rows[j + 1] -= rows[j - 1]
    return rows


def _horner(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re sum_m q_m w^m by Horner's rule in place; the power m is the last
    axis of q, (d+1,) or (n, d+1), and w is (n,) complex."""
    h = np.empty_like(w)
    h[...] = q[..., -1]
    for m in range(q.shape[-1] - 2, -1, -1):
        h *= w
        h += q[..., m]
    return h.real


def _horner_in_w(a: np.ndarray):
    """The S^1 kernel: Re sum_m a_m w^m at each direction (x, y) of a block,
    by Horner's rule in w = (x + iy)/|x + iy|."""

    def kernel(pts):
        w = pts[:, 0] + 1j * pts[:, 1]
        w /= np.hypot(pts[:, 0], pts[:, 1])
        return _horner(a, w)

    return kernel


def _tail_sums(terms: np.ndarray):
    """(B, S) of a kind's ``_tail_bounds``: B[d] = sum of terms[d + 1:], summed
    from the top degree down, and S = the sum of every term."""
    suffix = np.cumsum(terms[::-1])[::-1]
    return np.append(suffix[1:], 0.0), float(suffix[0])


def _re_series(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re sum_j G_j w^j from g = (Re G; -Im G), (2J, n), and the (cos, sin)
    rows of the powers w^j, (2, J, n)."""
    return np.einsum("rjb,rjb->b", g.reshape(w.shape), w)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def _recurrence_coefficients(L: int):
    """Coefficients of the orthonormal associated-Legendre recurrence.

    ``diag[m]`` steps the diagonal, P_mm = diag[m] sin(theta) P_(m-1)(m-1);
    ``a[m, l]`` (zero for l <= m) steps the degree,
    a[m, l] P_lm = x P_(l-1)m - a[m, l-1] P_(l-2)m.
    """
    m = np.arange(L + 1)
    diag = np.sqrt((2 * m + 1) / np.maximum(2.0 * m, 1.0))
    l, mm = m[None, :], m[:, None]
    ratio = (l**2 - mm**2) / (4.0 * l**2 - 1.0)
    a = np.where(l > mm, np.sqrt(np.maximum(ratio, 0.0)), 0.0)
    return diag, a


def _chebyshev_table(size: int):
    """(tab, norms) for ``Sphere2Grid._screen_kernel``, for m, l < size:
    P_lm(cos theta) = sin^m theta p_lm(cos theta), with p_lm a polynomial of
    degree l - m, and tab[m, l, k] its coefficient on the Chebyshev
    polynomial T_k; norms[m, l] = sum_k |tab[m, l, k]|.

    The p_lm follow the grid's own recurrence from p_mm = (1/sqrt 2)
    prod_{j <= m} diag[j], run on coefficient vectors with z T_0 = T_1 and
    z T_k = (T_{k+1} + T_{k-1})/2.  Measured against the same recurrence in
    64-bit extended precision, with exact recurrence coefficients, the l1
    norm of its round-off stays below 2 (l + 2) u norms[m, l] (u = 2^-53)
    for every size <= 80.  Made per call, not kept on the grid: a few KB at
    the degrees the screen takes, and a table kept for the whole band
    (256 KB at 32x64) raised the peak RSS of a perfbench ``analyze-corpus``
    run by 1 MB.
    """
    diag, a = _recurrence_coefficients(size - 1)
    tab = np.zeros((size, size, size))
    tab[np.arange(size), np.arange(size), 0] = np.cumprod(diag) / np.sqrt(2.0)
    for l in range(1, size):
        prev, last = tab[:l, l - 2] if l > 1 else 0.0, tab[:l, l - 1]
        z_last = np.zeros((l, size))  # z p_(l-1)m on the T_k
        z_last[:, 1] = last[:, 0]
        z_last[:, 2:] = 0.5 * last[:, 1:-1]
        z_last[:, :-1] += 0.5 * last[:, 1:]
        tab[:l, l] = (z_last - a[:l, l - 1, None] * prev) / a[:l, l, None]
    return tab, np.abs(tab).sum(axis=2)


def _legendre_tables(x: np.ndarray, coefficients):
    """Tabulate orthonormal associated Legendre functions and their first two
    theta-derivatives at the points x = cos(theta), by the recurrence whose
    ``coefficients`` come from :func:`_recurrence_coefficients`.

    Normalization: integral of P_lm^2 over [-1, 1] equals 1.  Returned arrays
    have shape (L+1, L+1, len(x)) indexed [m, l, i], zero for l < m.
    """
    diag, a = coefficients
    L = a.shape[0] - 1
    sin_t = np.sqrt(1.0 - x * x)
    P = np.zeros((L + 1, L + 1, x.size))
    dP = np.zeros_like(P)
    pmm = np.full(x.shape, 1.0 / np.sqrt(2.0))  # normalized P_00
    for m in range(L + 1):
        if m > 0:
            pmm = diag[m] * sin_t * pmm
        prev, p = 0.0, pmm
        for l in range(m, L + 1):
            if l > m:
                prev, p = p, (x * p - a[m, l - 1] * prev) / a[m, l]
            P[m, l] = p
            if l > 0:  # dP_00 = 0
                beta = np.sqrt((l**2 - m**2) * (2 * l + 1) / (2.0 * l - 1))
                dP[m, l] = (l * x * p - beta * prev) / sin_t

    l_arr = np.arange(L + 1)[None, :, None]
    m_arr = np.arange(L + 1)[:, None, None]
    cot = (x / sin_t)[None, None, :]
    d2P = -cot * dP - (l_arr * (l_arr + 1) - m_arr**2 / sin_t[None, None, :] ** 2) * P
    return P, dP, d2P


_KINDS = {1: CircleGrid, 2: Sphere2Grid}  # dim -> grid kind


def build_grid(dim: int, n: int = None, n_theta: int = None, n_phi: int = None) -> SphereGrid:
    """Build a collocation grid on S^1 (``n`` nodes) or S^2 (``n_theta x n_phi``).

    dim 1 requires even n >= 16; dim 2 requires n_theta >= 8 and even
    n_phi >= 16; the other kind's sizes must be omitted.  Other dimensions
    are rejected: the kinds' tables are what make the rest of the package
    dimension-agnostic.
    """
    sizes = {"n": n, "n_theta": n_theta, "n_phi": n_phi}
    for name, v in (("dim", dim), *sizes.items()):
        if v is not None and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
            raise ParameterError(f"{name} must be an integer, got {v!r}")
    kind = _KINDS.get(dim)
    if kind is None:
        raise ParameterError(f"only dims {list(_KINDS)} have a grid kind (got {dim})")
    sizes = {name: int(v) for name, v in sizes.items() if v is not None}
    if sizes.keys() != kind._desk.keys():
        raise ParameterError(f"dim {dim} grids take sizes {list(kind._desk)}, got {list(sizes)}")
    return kind._build(**sizes)


def _ro(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def integrate(grid: SphereGrid, values) -> float:
    """Quadrature of a nodal field over the sphere (pairwise summation)."""
    values = grid.check_field(values)
    return float(np.sum(grid.weights * values))


def average(grid: SphereGrid, values) -> float:
    """Area average of a nodal field."""
    return integrate(grid, values) / grid.area
