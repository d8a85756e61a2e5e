"""Dimension-dependent geometric constants.

Everything here is derived in closed form from elementary geometry; the
derivations are sketched in the docstrings so the numbers can be re-checked
by hand.  Reports that quote these constants carry the marker
``constant_provenance = "derived"``.

``sphere_area``, ``ball_volume`` and ``log_coordinate_mean`` are closed forms
in every dimension n >= 0; the three derived scale constants rest on
sketches that assume n <= 2 and accept only dim in {1, 2}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "CONSTANT_PROVENANCE",
    "ball_volume",
    "inner_scale_constant",
    "log_coordinate_mean",
    "outer_scale_constant",
    "santalo_support_constant",
    "sphere_area",
]

CONSTANT_PROVENANCE = "derived"


def _check_dim(dim: int) -> int:
    if dim not in (1, 2):
        raise ParameterError(f"dim must be 1 or 2, got {dim}")
    return dim


def sphere_area(dim: int) -> float:
    """Total measure of S^dim, 2 pi^((dim+1)/2) / Gamma((dim+1)/2): 2*pi, 4*pi, ..."""
    if dim < 0:
        raise ParameterError(f"dim must be >= 0, got {dim}")
    half = (dim + 1) / 2.0
    return 2.0 * math.pi**half / math.gamma(half)


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^(dim+1): area(S^dim) / (dim+1).

    This is the fixed-point volume of the normalized flow (pi for dim 1,
    4*pi/3 for dim 2).
    """
    return sphere_area(dim) / (dim + 1.0)


def log_coordinate_mean(dim: int) -> float:
    """Spherical average of log|x_last| over S^dim, -(psi((dim+1)/2) - psi(1/2))/2.

    x_last^2 is Beta(1/2, dim/2) distributed, and E log of a Beta(a, b)
    variable is psi(a) - psi(a + b).  psi(k + 1) = psi(k) + 1/k makes the
    difference a finite harmonic sum down to psi(1/2), or for odd dim to
    psi(1) = psi(1/2) + 2 log 2: -log 2 for dim 1, -1 for dim 2.
    """
    if dim < 0:
        raise ParameterError(f"dim must be >= 0, got {dim}")
    steps = sum(2.0 / j for j in range(1 + dim % 2, dim, 2))  # sum of 1/k, k = j/2
    return -0.5 * (steps + (2.0 * np.log(2.0) if dim % 2 else 0.0))


def outer_scale_constant(dim: int) -> float:
    """C with  max(width, outer radius) <= C * exp(entropy)  for volume one.

    Sketch: if the width in direction x is w, the body contains a segment of
    length w whose midpoint can be taken as the entropy point candidate z;
    averaging log u_z over the sphere and comparing with the segment's
    support function u_seg(y) = (w/2)|cos angle| gives
    E >= log(w/2) + log-coordinate-mean, i.e. w <= 2 e^{-L} e^E.  The outer
    radius obeys rho+ <= w+ / sqrt(2) ... <= w+, and folding the slack into
    the constant yields C = 4 e^{-L}: 8 for dim 1 and 4e for dim 2.
    """
    _check_dim(dim)
    return 4.0 * np.exp(-log_coordinate_mean(dim))


def inner_scale_constant(dim: int) -> float:
    """C' with  inradius >= C' * V * exp(-dim * entropy);  the least width,
    at least twice the inradius, obeys the bound too.

    Sketch: the body fits in a cylinder (slab over a dim-ball) of radius
    rho+ and height 2 w-, so  V <= dim * area(S^{dim-1}) * rho+^dim * 2 w-
    up to the listed factor; combining with the outer bound rho+ <= C e^E
    and the cone estimate rho- >= w- / (dim + 2) gives
    C' = 1 / (2 dim (dim+2) area(S^{dim-1}) C^dim):
    1/96 for dim 1 and 1/(512 pi e^2) for dim 2.
    """
    c_outer = outer_scale_constant(dim)
    return 1.0 / (2.0 * dim * (dim + 2) * sphere_area(dim - 1) * c_outer**dim)


def santalo_support_constant(dim: int) -> float:
    """c with  u(x) >= c * V * exp(-dim * entropy)  at the Santalo point.

    Sketch: if the support at the Santalo point were small in direction x,
    the polar body would contain a long spike over a geodesic ball of
    directions of radius r ~ m / (2 rho+), inflating the polar volume past
    the Blaschke-Santalo bound V V* <= V_ball^2.  Tracking the constants
    (spherical-cap measure kappa: 2 for dim 1, 11 pi/12 for dim 2) gives
    c = kappa / (2^(2 dim + 1) (dim+1) V_ball^2 C^dim):
    1/(64 pi^2) for dim 1 and 99/(294912 pi e^2) for dim 2.
    """
    c_outer = outer_scale_constant(dim)
    kappa = 2.0 if dim == 1 else 11.0 * np.pi / 12.0
    return kappa / (
        2.0 ** (2 * dim + 1) * (dim + 1) * ball_volume(dim) ** 2 * c_outer**dim
    )
