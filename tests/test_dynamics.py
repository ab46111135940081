"""Closed-form sums, trajectories, and the configuration-sum cross-check."""

from __future__ import annotations

import concurrent.futures
import math
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xychain import (
    BathKind,
    CapExceededError,
    ChainParams,
    ConfigError,
    FermionConfig,
    MatElemKind,
    Method,
    Parity,
    Trajectory,
    build_sectors,
    matelem_diagonal,
    matelem_offdiag,
    pz_closed_form,
    pz_config_sum,
    pz_trajectory,
    spectral_table,
)
from xychain import dynamics
from xychain.analysis import _scan_pool
from xychain.approx import Polarization3
from xychain.dynamics import _ab_arrays
from xychain.oracle import oracle_trajectory


def _tables(params):
    odd, even = build_sectors(params)
    return spectral_table(params, odd), spectral_table(params, even)


def test_ab_sums_frozen_values():
    # mpmath dps=40 re-summation of the sector averages
    A_odd, A_even, B_odd, B_even = _ab_arrays(ChainParams(N=8, kappa=1.0, gamma=0.5, h=2.0), np.array([3.7]))
    assert abs(A_odd[0] - (-0.17072209073296224)) < 1e-12
    assert abs(B_odd[0] - (-0.34323769258978512)) < 1e-12
    assert abs(A_even[0] - (-0.16941187358111526)) < 1e-12
    assert abs(B_even[0] - (-0.34849037192146825)) < 1e-12


def test_ab_sums_at_time_zero_exact():
    params = ChainParams(N=6, kappa=1.0, gamma=1.0, h=2.0)
    sums = _ab_arrays(params, np.array([0.0]))
    assert tuple(float(v[0]) for v in sums) == (1.0, 1.0, 0.0, 0.0)
    assert pz_closed_form(params, 1.0, 0.0) == 1.0


@pytest.mark.parametrize("N", [2, 4, 6, 10, 100])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("h, strict", [(2.0, True), (1.0, False), (0.4, False)])
def test_folded_kernel_matches_unfolded_fsum(N, gamma, h, strict):
    # The kernel sums each sector over q >= 0 with weights; the reference is
    # the plain sum over all N momenta, correctly rounded by math.fsum.  h = kappa
    # puts E = 0 at q = 0 (the degenerate branch), h < kappa makes eps/E change sign.
    params = ChainParams(N=N, kappa=1.0, gamma=gamma, h=h, strict=strict)
    grid = np.concatenate([[0.0], np.random.default_rng(N).uniform(-3.0 * N, 3.0 * N, 40)])
    got = np.array(_ab_arrays(params, grid))
    tables = _tables(params)
    assert tables[0].degenerate == (h == 1.0)
    want = np.array(
        [[math.fsum(math.cos(E * t) for E in tab.E) / N for t in grid] for tab in tables]
        + [[math.fsum(c * math.sin(E * t) for E, c in zip(tab.E, tab.cos_theta)) / N for t in grid] for tab in tables]
    )
    assert np.abs(got - want).max() <= 1e-14


def test_pz_frozen_values():
    # mpmath dps=40 closed-form reference values
    assert abs(pz_closed_form(ChainParams(N=4, h=5.0), 1.0, 1.0) - 0.58555232287418215) < 1e-12
    p = ChainParams(N=6, kappa=1.0, gamma=0.5, h=3.0)
    assert abs(pz_closed_form(p, 0.8, 2.5) - 0.0019800876281502892) < 1e-12


def test_pz_at_time_zero_and_linearity():
    p = ChainParams(N=10, kappa=1.0, gamma=0.7, h=4.0)
    assert pz_closed_form(p, 0.37, 0.0) == 0.37
    base = pz_closed_form(p, 0.5, 2.2)
    assert pz_closed_form(p, 1.0, 2.2) == 2.0 * base  # doubling is exact
    third = pz_closed_form(p, 0.3, 2.2)
    assert abs(third - 0.6 * base) / abs(third) < 1e-13


params_strategy = st.builds(
    lambda n2, kappa, gamma, ratio: ChainParams(
        N=2 * n2, kappa=kappa, gamma=gamma, h=kappa * (1.0 + ratio)
    ),
    st.integers(min_value=2, max_value=20),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=8.0),
)


@settings(max_examples=80, deadline=None)
@given(params_strategy, st.floats(min_value=0.0, max_value=100.0))
def test_time_reversal_and_bounds(params, t):
    assert pz_closed_form(params, 1.0, -t) == pz_closed_form(params, 1.0, t)
    val = pz_closed_form(params, 1.0, t)
    assert 0.0 <= val <= 1.0 + 1e-9
    for v in _ab_arrays(params, np.array([t])):
        assert abs(v[0]) <= 1.0 + 1e-12


def test_trajectory_bit_identical_to_scalar():
    params = ChainParams(N=14, kappa=0.9, gamma=0.4, h=3.0)
    grid = np.array([0.0, 0.31, 1.7, 2.9, 14.242, 77.1])
    traj = pz_trajectory(params, 0.7, grid)
    assert traj.method is Method.CLOSED_FORM
    assert traj.bath is BathKind.INFINITE_T
    for i, t in enumerate(grid):
        assert traj.samples[i] == pz_closed_form(params, 0.7, float(t))
    # A seeded sweep: one point's value never depends on the grid around it.
    rng = np.random.default_rng(20261020)
    for N in (4, 6, 8, 20, 100):
        for gamma, h in ((0.0, 2.0), (0.5, 2.0), (1.0, 2.0), (0.3, 5.0), (1.0, 10.0)):
            params = ChainParams(N=N, kappa=1.0, gamma=gamma, h=h)
            grid = np.sort(rng.uniform(0.0, 4.0 * N, 200))
            samples = pz_trajectory(params, 0.8, grid).samples
            scalar = np.array([pz_closed_form(params, 0.8, float(t)) for t in grid])
            assert np.array_equal(samples, scalar), (N, gamma, h)


@pytest.mark.parametrize("N", [2, 4, 100])
@pytest.mark.parametrize("nt", [1, 7, 80001])
@pytest.mark.parametrize("chunk", [dynamics._CHUNK_ELEMENTS, 1 << 14])
def test_kernel_bit_identical_across_thread_budgets(N, nt, chunk, monkeypatch):
    # Every call here is split as far as the budget and the rows allow, and
    # each thread may walk its block in several chunks; 7 and 80001 rows do
    # not divide evenly between 2 threads, nor 7 between 3.
    params = ChainParams(N=N, kappa=1.0, gamma=0.7, h=1.6)
    grid = np.linspace(0.0, 3.0 * N, nt)
    reference = _ab_arrays(params, grid)
    monkeypatch.setattr(dynamics, "_THREAD_ELEMENTS", 1)
    monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", chunk)
    started = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    for budget in (1, 2, 3):
        monkeypatch.setattr(dynamics, "_thread_budget", budget)
        sums = _ab_arrays(params, grid)
        assert all(np.array_equal(a, b) for a, b in zip(sums, reference)), budget
    assert started == [n for n in (2, 3) if n <= nt]


def test_threaded_kernel_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(dynamics, "_thread_budget", 2)
    before = threading.active_count()
    _ab_arrays(ChainParams(N=100, gamma=0.5, h=2.0), np.linspace(0.0, 300.0, 20001))
    assert threading.active_count() == before


def test_kernel_budget_follows_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(dynamics, "_thread_budget", None)
    assert dynamics.kernel_threads() == dynamics.usable_cpus() >= 1


def test_scan_pool_workers_run_the_kernel_on_one_thread():
    with _scan_pool(2) as pool:
        budgets = [pool.submit(dynamics.kernel_threads) for _ in range(4)]
        assert [b.result(timeout=60) for b in budgets] == [1, 1, 1, 1]


def test_trajectory_validation():
    params = ChainParams(N=4, h=5.0)
    cf, inf_t = Method.CLOSED_FORM, BathKind.INFINITE_T
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0, 0.0]), np.array([1.0, 1.0]), params, cf, inf_t)
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0, 1.0]), np.array([1.0]), params, cf, inf_t)
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0]), np.array([1.5]), params, cf, inf_t)
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0]), np.array([1.0]), params, "closed_form", inf_t)  # a string tag
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0]), np.array([1.0]), params, cf, "infinite_T")
    with pytest.raises(TypeError):
        Trajectory(np.array([0.0]), np.array([1.0]), params, cf)  # the bath is required
    traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.6, 0.0, 0.8]] * 2), params, Method.ED_ORACLE, inf_t)
    assert traj.is_vector and traj.n_samples == 2


def test_regular_stage_agreement_large_ring():
    # pz hugs p0z J0^2(kappa t) until t ~ N/2 on a big ring
    from xychain import regular_stage_pz

    params = ChainParams(N=100, kappa=1.0, gamma=0.0, h=5.0)
    grid = np.array([0.5, 2.0, 17.3, 50.0])
    traj = pz_trajectory(params, 1.0, grid)
    ref = regular_stage_pz(1.0, 1.0, grid)
    assert np.abs(traj.samples - ref).max() < 0.02
    # J0(2)^2 = 0.050127080984469569 (mpmath)
    assert abs(traj.samples[1] - 0.050127080984469569) < 0.01


def _jacobi_anger_pz(N: int, kappa: float, p0z: float, t: float) -> float:
    """Isotropic (gamma = 0) pz from the Jacobi-Anger expansion, every J_n from mpmath.

    pz = (p0z/2)(F+^2 + F-^2) with
    F+- = J0(kappa t) + 2 sum_{m>=1} (+-1)^m (-1)^{mN/2} J_{mN}(kappa t),
    the odd and even sector averages of exp(-i kappa t cos q) (Watson,
    Bessel Functions, section 2.22).  Terms are added until mN > kappa t and
    |J_{mN}| < 1e-20.  Orders in the thousands at arguments in the thousands
    need mpmath's precision and term limits raised to converge.
    """
    z = mp.mpf(kappa) * mp.mpf(t)
    f_plus = f_minus = mp.besselj(0, z)
    m = 1
    while True:
        j = 2 * (-1) ** (m * N // 2) * mp.besselj(m * N, z, maxprec=20000, maxterms=10**6)
        f_plus += j
        f_minus += (-1) ** m * j
        if m * N > z and abs(j) < 1e-20:
            return float(p0z / 2 * (f_plus**2 + f_minus**2))
        m += 1


@pytest.mark.parametrize("N", [4, 10, 20, 50])
def test_closed_form_matches_jacobi_anger(N):
    # at gamma = 0 each sector average is a lattice sum of Bessel functions
    params = ChainParams(N=N, kappa=1.0, gamma=0.0, h=2.0)
    with mp.workdps(30):
        for t in np.linspace(0.0, 3.5 * N, 15):
            want = _jacobi_anger_pz(N, 1.0, 0.8, t)
            assert abs(pz_closed_form(params, 0.8, t) - want) < 1e-13, f"N={N}, t={t}"


def test_closed_form_matches_jacobi_anger_at_n_1000():
    # pins the closed form where neither ED nor the config sum reaches:
    # the regular stage, the finite-size front near t = N, and later revivals
    params = ChainParams(N=1000, kappa=1.0, gamma=0.0, h=2.0)
    with mp.workdps(30):
        for t in (1.0, 150.0, 600.0, 999.0, 1000.5, 1500.0, 2003.0, 2500.0, 3000.0, 3400.0):
            want = _jacobi_anger_pz(1000, 1.0, 0.8, t)
            assert abs(pz_closed_form(params, 0.8, t) - want) < 1e-13, f"t={t}"


def test_fermion_config_validation():
    cfg = FermionConfig.from_momenta([-1, 0, 1])
    assert cfg.parity is Parity.ODD and cfg.occupied_q2 == (-2, 0, 2) and cfg.M == 3
    cfg2 = FermionConfig.from_momenta([])
    assert cfg2.parity is Parity.EVEN
    with pytest.raises(ConfigError):
        FermionConfig(Parity.ODD, (0, 2))  # even count in odd sector
    with pytest.raises(ConfigError):
        FermionConfig(Parity.EVEN, (2, 0))  # not increasing
    with pytest.raises(ConfigError):
        FermionConfig(Parity.EVEN, (0, 1))  # mixed momentum grids


def test_matelem_isotropic_values():
    params = ChainParams(N=6, kappa=1.0, gamma=0.0, h=2.5)
    t_odd, _ = _tables(params)
    # gamma = 0: all theta vanish, so the diagonal is (2M - N)/N exactly
    assert matelem_diagonal(FermionConfig.from_momenta([-1, 0, 1]), t_odd) == 0.0
    assert matelem_diagonal(FermionConfig.from_momenta([0]), t_odd) == (2 - 6) / 6
    assert matelem_offdiag(MatElemKind.SWAP, 0, 1, t_odd) == 2.0 / 6.0
    assert matelem_offdiag(MatElemKind.PAIR_CREATE, 0, 1, t_odd) == 0.0
    with pytest.raises(ConfigError):
        matelem_offdiag(MatElemKind.SWAP, 1, 1, t_odd)
    with pytest.raises(ConfigError):
        matelem_diagonal(FermionConfig.from_momenta([0]), _tables(params)[1])


def test_matelem_membership_checked():
    params = ChainParams(N=4, h=5.0)
    t_odd, _ = _tables(params)
    with pytest.raises(ConfigError):
        matelem_diagonal(FermionConfig.from_momenta([7]), t_odd)  # q=7 not on the N=4 ring
    with pytest.raises(ConfigError):
        matelem_offdiag(MatElemKind.SWAP, 0, 9, t_odd)


def test_config_sum_matches_closed_form():
    for N in (4, 6):
        for gamma in (0.0, 0.5, 1.0):
            for h in (2.0, 5.0):
                params = ChainParams(N=N, kappa=1.0, gamma=gamma, h=h)
                # t = 0 is the sum rule: every configuration pair must add to p0z
                assert abs(pz_config_sum(params, 0.9, 0.0) - 0.9) < 1e-12
                for t in (0.7, 3.3):
                    a = pz_closed_form(params, 1.0, t)
                    b = pz_config_sum(params, 1.0, t)
                    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("h", [0.0, 0.5, 1.0])
def test_routes_agree_off_regime(gamma, h):
    # h <= kappa makes epsilon negative for small |q|, where the Bogolyubov
    # angle leaves [-pi/2, pi/2]; h = 0 at gamma = 0 has a mode with E = 0.
    params = ChainParams(N=6, kappa=1.0, gamma=gamma, h=h, strict=False)
    times = np.array([0.0, 0.7, 2.3, 5.1, 11.9])
    oracle = oracle_trajectory(params, BathKind.INFINITE_T, Polarization3(0.0, 0.0, 0.8), times).samples[:, 2]
    closed = pz_trajectory(params, 0.8, times).samples
    config = np.array([pz_config_sum(params, 0.8, float(t)) for t in times])
    assert np.abs(config - closed).max() < 1e-12
    assert np.abs(config - oracle).max() < 1e-12
    assert np.abs(closed - oracle).max() < 1e-12


def test_config_sum_cap():
    params = ChainParams(N=12, h=5.0)
    with pytest.raises(CapExceededError):
        pz_config_sum(params, 1.0, 1.0)
    assert pz_config_sum(ChainParams(N=4, h=5.0), 1.0, 1.0, cap=4) > 0.0
