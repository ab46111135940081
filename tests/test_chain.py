"""Sector construction and spectral tables."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xychain import (
    ChainParams,
    ConfigError,
    Parity,
    build_sectors,
    spectral_table,
)


def _tables(params):
    odd, even = build_sectors(params)
    return spectral_table(params, odd), spectral_table(params, even)


def test_params_validation():
    with pytest.raises(ConfigError):
        ChainParams(N=5)
    with pytest.raises(ConfigError):
        ChainParams(N=0)
    with pytest.raises(ConfigError):
        ChainParams(N=4, kappa=0.0)
    with pytest.raises(ConfigError):
        ChainParams(N=4, kappa=-1.0)
    with pytest.raises(ConfigError):
        ChainParams(N=4, gamma=1.5)
    with pytest.raises(ConfigError):
        ChainParams(N=4, gamma=-0.1)
    with pytest.raises(ConfigError):
        ChainParams(N=4, h=-2.0)
    # strict mode rejects h <= kappa, including equality
    with pytest.raises(ConfigError):
        ChainParams(N=4, h=1.0, kappa=1.0)
    with pytest.raises(ConfigError):
        ChainParams(N=4, h=0.5, kappa=1.0)
    weak = ChainParams(N=4, h=0.5, kappa=1.0, strict=False)
    assert not weak.field_above_coupling
    assert ChainParams(N=4, h=5.0).field_above_coupling


def test_sectors_small_rings():
    odd, even = build_sectors(ChainParams(N=4))
    assert odd.q2 == (-2, 0, 2, 4)  # momenta -1, 0, 1, 2
    assert even.q2 == (-3, -1, 1, 3)  # momenta -3/2 .. 3/2
    odd2, even2 = build_sectors(ChainParams(N=2))
    assert odd2.q2 == (0, 2)
    assert even2.q2 == (-1, 1)


def test_sectors_large_ring_structure():
    params = ChainParams(N=100)
    odd, even = build_sectors(params)
    for sector in (odd, even):
        assert len(sector) == 100
        assert all(b > a for a, b in zip(sector.q2, sector.q2[1:]))
    assert 0 in odd.q2 and 100 in odd.q2  # q = 0 and q = N/2
    assert 0 not in even.q2 and 100 not in even.q2
    assert not set(odd.q2) & set(even.q2)


def test_sector_momenta_and_angles():
    params = ChainParams(N=8)
    odd, even = build_sectors(params)
    assert np.array_equal(odd.momenta, np.arange(-3.0, 5.0))
    assert np.allclose(even.angles, np.pi * np.array(even.q2) / 8.0)


def test_spectrum_n4_isotropic():
    params = ChainParams(N=4, kappa=1.0, gamma=0.0, h=5.0)
    t_odd, t_even = _tables(params)
    # momenta -1, 0, 1, 2 give E = 5 - cos(2 pi q / 4)
    assert np.allclose(t_odd.E, [5.0, 4.0, 5.0, 6.0], atol=1e-12)
    r = math.sqrt(2.0) / 2.0
    assert np.allclose(sorted(t_even.E), sorted([5 + r, 5 - r, 5 - r, 5 + r]), atol=1e-12)
    # isotropic ring: no Bogolyubov rotation at all
    assert np.all(t_odd.theta == 0.0) and np.all(t_even.theta == 0.0)
    assert np.all(t_odd.cos_theta == 1.0) and np.all(t_even.cos_theta == 1.0)
    assert not t_odd.degenerate


def test_cos_theta_lookup():
    params = ChainParams(N=8, kappa=1.0, gamma=1.0, h=2.0)
    t_odd, t_even = _tables(params)
    # q = 2: angle pi/2, eps = 2, Gamma = 1, ratio 2/sqrt(5)
    assert abs(t_odd.cos_theta[t_odd.sector.index_of(2)] - 2.0 / math.sqrt(5.0)) < 1e-14
    assert t_odd.cos_theta[t_odd.sector.index_of(0)] == 1.0  # Gamma vanishes at q = 0
    val = t_even.cos_theta[t_even.sector.index_of(Fraction(1, 2))]
    assert 0.0 < val < 1.0
    with pytest.raises(ConfigError):
        t_odd.sector.index_of(0.3)  # not a (half-)integer
    with pytest.raises(ConfigError):
        t_odd.sector.index_of(Fraction(1, 2))  # wrong sector


def test_theta_zero_modes():
    # q = 0 exactly; q = N/2 up to the floating-point angle pi
    params = ChainParams(N=6, kappa=1.0, gamma=1.0, h=2.0)
    t_odd, _ = _tables(params)
    i0 = t_odd.sector.index_of(0)
    i3 = t_odd.sector.index_of(3)
    assert t_odd.theta[i0] == 0.0 and t_odd.cos_theta[i0] == 1.0
    assert abs(t_odd.theta[i3]) < 1e-15
    assert t_odd.cos_theta[i3] == 1.0


def test_degenerate_mode_flagged_permissive():
    params = ChainParams(N=4, kappa=1.0, gamma=0.0, h=1.0, strict=False)
    t_odd, t_even = _tables(params)
    assert t_odd.degenerate  # E = 0 at q = 0 when h = kappa, gamma = 0
    i0 = t_odd.sector.index_of(0)
    # a dead mode gets theta = 0 and ratio 1; every other mode keeps eps / E
    assert t_odd.E[i0] == 0.0 and t_odd.theta[i0] == 0.0 and t_odd.cos_theta[i0] == 1.0
    live = t_odd.E > 0
    assert np.array_equal(t_odd.cos_theta[live], t_odd.epsilon[live] / t_odd.E[live])
    assert not t_even.degenerate


def test_sector_energy_sums_close_for_large_N():
    params = ChainParams(N=100, kappa=1.0, gamma=1.0, h=2.0)
    t_odd, t_even = _tables(params)
    so, se = t_odd.E.sum(), t_even.E.sum()
    assert abs(so - se) / (0.5 * (so + se)) < 5.0 / 100.0


def test_determinism():
    params = ChainParams(N=30, kappa=0.7, gamma=0.3, h=2.5)
    a_odd, a_even = _tables(params)
    b_odd, b_even = _tables(params)
    for a, b in ((a_odd, b_odd), (a_even, b_even)):
        for name in ("epsilon", "Gamma", "E", "theta", "cos_theta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_theta_cosine_matches_ratio():
    off_regime = ChainParams(N=8, kappa=1.3, gamma=0.3, h=0.5, strict=False)
    for params in (ChainParams(N=8, kappa=1.3, gamma=0.3, h=2.0), off_regime):
        for table in _tables(params):
            # off-regime too, theta is the angle whose cosine is epsilon/E
            assert np.all(np.abs(np.cos(table.theta) - table.cos_theta) <= 1e-15)


params_strategy = st.builds(
    lambda n2, kappa, gamma, ratio: ChainParams(
        N=2 * n2, kappa=kappa, gamma=gamma, h=kappa * (1.0 + ratio)
    ),
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=10.0),
)


@settings(max_examples=100, deadline=None)
@given(params_strategy)
def test_spectral_invariants(params):
    for table in _tables(params):
        scale = params.h + params.kappa
        assert np.all(np.abs(table.E**2 - (table.epsilon**2 + table.Gamma**2)) <= 1e-14 * scale**2)
        assert table.E.min() >= (params.h - params.kappa) - 1e-12 * scale
        assert np.all(table.cos_theta > 0.0)  # strict regime
        # theta stays on the principal branch and squares consistently
        assert np.all(np.abs(table.theta) <= np.pi / 2)
        unit = table.cos_theta**2 + (table.Gamma / table.E) ** 2
        assert np.all(np.abs(unit - 1.0) <= 1e-14)


@settings(max_examples=60, deadline=None)
@given(params_strategy)
def test_theta_antisymmetric(params):
    for table in _tables(params):
        lookup = dict(zip(table.sector.q2, range(len(table.sector.q2))))
        for q2, i in lookup.items():
            if -q2 in lookup:
                j = lookup[-q2]
                assert table.theta[j] == -table.theta[i]
                assert table.E[j] == table.E[i]
