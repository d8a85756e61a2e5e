"""Geometric constants: closed forms in n against the literals they replace."""

import math

import numpy as np
import pytest
from scipy.special import digamma, gamma

from gcflab.constants import (
    ball_volume,
    inner_scale_constant,
    log_coordinate_mean,
    outer_scale_constant,
    santalo_support_constant,
    sphere_area,
)
from gcflab.errors import ParameterError


def test_closed_forms_equal_the_literals_at_n_1_and_2():
    assert sphere_area(1) == 2.0 * np.pi
    assert sphere_area(2) == 4.0 * np.pi
    assert ball_volume(1) == np.pi
    assert ball_volume(2) == 4.0 * np.pi / 3.0
    assert log_coordinate_mean(1) == -np.log(2.0)
    assert log_coordinate_mean(2) == -1.0


@pytest.mark.parametrize("func,dim,value", [
    (outer_scale_constant, 1, 8.0),
    (outer_scale_constant, 2, 4.0 * math.e),
    (inner_scale_constant, 1, 1.0 / 96.0),
    (inner_scale_constant, 2, 1.0 / (512.0 * math.pi * math.e**2)),
    (santalo_support_constant, 1, 1.0 / (64.0 * math.pi**2)),
    (santalo_support_constant, 2, 99.0 / (294912.0 * math.pi * math.e**2)),
])
def test_derived_constants_keep_their_values(func, dim, value):
    assert abs(func(dim) / value - 1.0) <= 1e-15


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_closed_forms_match_gamma_and_digamma(dim):
    half = (dim + 1) / 2.0
    area = 2.0 * np.pi**half / gamma(half)
    assert abs(sphere_area(dim) / area - 1.0) <= 1e-14
    mean = -0.5 * (digamma(half) - digamma(0.5))
    assert abs(log_coordinate_mean(dim) / mean - 1.0) <= 1e-14


@pytest.mark.parametrize("func", [outer_scale_constant, inner_scale_constant,
                                  santalo_support_constant])
def test_derived_constants_reject_dim_3(func):
    with pytest.raises(ParameterError):
        func(3)


@pytest.mark.parametrize("func", [sphere_area, ball_volume, log_coordinate_mean])
@pytest.mark.parametrize("dim", [-1, -2])
def test_closed_forms_reject_negative_dim(func, dim):
    with pytest.raises(ParameterError):
        func(dim)
