"""Weak-coupling solution and envelope formulas."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xychain import (
    BathKind,
    ChainParams,
    ConfigError,
    Polarization3,
    bessel_j0,
    long_time_average,
    niemeijer_solution,
    niemeijer_trajectory,
    regular_stage_pz,
    smoothed_envelope,
)

P0 = Polarization3(0.6, 0.0, 0.8)


def test_polarization_validation():
    with pytest.raises(ConfigError):
        Polarization3(1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        Polarization3(float("nan"), 0.0, 0.0)
    assert Polarization3(0.0, 0.0, 1.0).norm == 1.0
    assert np.array_equal(P0.as_array(), [0.6, 0.0, 0.8])
    assert Polarization3.from_array([0.1, 0.2, 0.3]).py == 0.2


def test_solution_at_time_zero_is_identity():
    out = niemeijer_solution(P0, h=10.0, kappa=1.0, t=0.0)
    assert (out.px, out.py, out.pz) == (P0.px, P0.py, P0.pz)


def test_transverse_envelope_and_precession():
    h, kappa = 10.0, 1.0
    for t in (0.3, 1.0, 2.7):
        out = niemeijer_solution(P0, h, kappa, t)
        j = bessel_j0(kappa * t)
        assert abs(math.hypot(out.px, out.py) - abs(j) * math.hypot(P0.px, P0.py)) < 1e-15
        # phase advances at the Larmor frequency (mod pi because J0 signs flip)
        ang = math.atan2(out.py, out.px) - math.atan2(P0.py, P0.px) - h * t
        assert abs(math.remainder(ang, math.pi)) < 1e-12
        assert abs(out.pz - (-1.0 + (1.0 + P0.pz) * j * j)) < 1e-15


ball = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)


@settings(max_examples=150, deadline=None)
@given(ball, st.floats(0.0, 50.0), st.floats(1.1, 20.0), st.floats(0.1, 2.0))
def test_solution_stays_in_bloch_ball(v, t, h, kappa):
    out = niemeijer_solution(Polarization3(*v), h, kappa, t)  # validates on construction
    assert out.norm <= 1.0 + 1e-9
    assert out.pz >= -1.0 - 1e-12


def test_trajectory_matches_pointwise_and_flags():
    params = ChainParams(N=20, kappa=1.0, gamma=0.0, h=10.0)
    grid = np.linspace(0.0, 30.0, 121)  # extends past the wrap-around time N/kappa
    traj = niemeijer_trajectory(P0, params, grid)
    for i in (0, 17, 120):
        ref = niemeijer_solution(P0, params.h, params.kappa, float(grid[i]))
        assert tuple(traj.samples[i]) == (ref.px, ref.py, ref.pz)
    flags = traj.meta["validity"]
    assert flags["gamma_zero"] is True
    assert flags["grid_before_wraparound"] is False
    assert traj.bath is BathKind.ZERO_T
    tricky = ChainParams(N=20, kappa=1.0, gamma=0.5, h=10.0)
    assert niemeijer_trajectory(P0, tricky, grid[:5]).meta["validity"]["gamma_zero"] is False


def test_regular_stage_shape():
    t = np.linspace(0.0, 10.0, 11)
    vals = regular_stage_pz(0.8, 2.0, t)
    assert vals[0] == 0.8
    assert np.allclose(vals, 0.8 * bessel_j0(2.0 * t) ** 2, atol=0)
    assert regular_stage_pz(0.8, 2.0, 0.0) == 0.8


def test_smoothed_envelope_tracks_oscillation_mean():
    # p0z/(pi kappa t) should match the local average of p0z J0^2(kappa t)
    kappa, p0z, t0 = 1.0, 1.0, 20.0
    window = np.linspace(t0 - 5.0, t0 + 5.0, 4001)
    mean = regular_stage_pz(p0z, kappa, window).mean()
    env = smoothed_envelope(p0z, kappa, t0)
    assert abs(mean - env) / env < 0.15
    with pytest.raises(ConfigError):
        smoothed_envelope(1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        smoothed_envelope(1.0, 1.0, np.array([1.0, -2.0]))


def test_long_time_average_value_and_validation():
    assert long_time_average(1.0, 100) == 0.02
    assert long_time_average(-0.5, 10) == -0.1
    with pytest.raises(ConfigError):
        long_time_average(1.0, 7)
    with pytest.raises(ConfigError):
        long_time_average(1.0, 0)
