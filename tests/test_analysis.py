"""Timescale, stage, quiet-window, and scan detectors."""

from __future__ import annotations

import numpy as np
import pytest

from xychain import (
    BathKind,
    ChainParams,
    ConfigError,
    GridTooCoarseError,
    InsufficientTailError,
    Method,
    NoCrossingError,
    Polarization3,
    Trajectory,
    anisotropy_field_scan,
    bessel_j0,
    detect_stages,
    niemeijer_trajectory,
    oracle_trajectory,
    pz_trajectory,
    quiet_cold,
    regular_stage_pz,
    timescales,
)
from xychain import dynamics
from xychain.analysis import ScanPoint, scan_metric

P0 = Polarization3(0.6, 0.0, 0.8)
P100 = ChainParams(N=100, kappa=1.0, gamma=0.0, h=5.0)
P50 = ChainParams(N=50, kappa=1.0, gamma=0.0, h=5.0)


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class TestTimescales:
    def test_weak_coupling_roots(self):
        grid = np.linspace(0.0, 10.0, 4001)
        traj = niemeijer_trajectory(P0, ChainParams(N=100, h=5.0), grid)
        rep = timescales(traj)
        # transverse envelope halves where J0 = 1/2; the longitudinal gap
        # halves where J0^2 = 1/2
        root_half = _bisect(lambda x: bessel_j0(x) - 0.5, 1.0, 2.0)
        root_sq = _bisect(lambda x: bessel_j0(x) ** 2 - 0.5, 0.5, 1.5)
        assert abs(root_half - 1.521144057668765) < 1e-12
        assert abs(root_sq - 1.126364239377259) < 1e-12
        assert abs(rep.tau_decoherence - root_half) < 1e-4
        assert abs(rep.tau_thermalization - root_sq) < 1e-4
        assert 1.1 < rep.ratio < 1.4
        assert abs(rep.ratio - 1.350490369) < 1e-4
        d = rep.to_dict()
        assert isinstance(d["ratio"], float)

    def test_finite_ring_oracle_sanity(self):
        params = ChainParams(N=8, kappa=1.0, gamma=0.0, h=5.0)
        traj = oracle_trajectory(
            params, BathKind.INFINITE_T, P0, np.linspace(0.0, 6.0, 601)
        )
        rep = timescales(traj)
        assert 0.0 < rep.tau_thermalization < 6.0
        assert 0.0 < rep.tau_decoherence < 6.0
        assert 0.3 < rep.ratio < 3.0

    def test_requires_transverse_start(self):
        grid = np.linspace(0.0, 10.0, 1001)
        traj = niemeijer_trajectory(Polarization3(0.0, 0.0, 1.0), P100, grid)
        with pytest.raises(ConfigError):
            timescales(traj)

    def test_constant_trajectory_never_crosses(self):
        grid = np.linspace(0.0, 10.0, 101)
        samples = np.tile(P0.as_array(), (grid.size, 1))
        traj = Trajectory(
            grid=grid, samples=samples, params=P100, method=Method.NIEMEIJER,
            bath=BathKind.ZERO_T,
        )
        with pytest.raises(NoCrossingError):
            timescales(traj)

    def test_meta_and_shape_requirements(self):
        grid = np.linspace(0.0, 10.0, 101)
        samples = np.tile(P0.as_array(), (grid.size, 1))
        # the bath is a required typed field, so no trajectory lacks one
        with pytest.raises(TypeError):
            Trajectory(grid=grid, samples=samples, params=P100, method=Method.NIEMEIJER)
        with pytest.raises(ConfigError):
            Trajectory(grid=grid, samples=samples, params=P100, method=Method.NIEMEIJER, bath="zero_T")
        scalar = pz_trajectory(P100, 1.0, grid)
        with pytest.raises(ConfigError):
            timescales(scalar)


class TestStages:
    def test_ring_of_100(self):
        grid = np.linspace(0.0, 400.0, 40001)
        traj = pz_trajectory(P100, 1.0, grid)
        rep = detect_stages(traj, P100, 1.0)
        assert 80.0 < rep.t_regular_end < 120.0
        assert rep.revivals
        t_rev, h_rev = rep.revivals[0]
        assert 100.0 < t_rev < 200.0
        assert 0.05 < h_rev < 0.15
        assert rep.t_regular_end < t_rev
        assert rep.chaotic_onset is None or t_rev < rep.chaotic_onset <= grid[-1]
        d = rep.to_dict()
        assert d["t_regular_end"] == rep.t_regular_end

    def test_pure_regular_signal_reports_nothing(self):
        grid = np.linspace(0.0, 400.0, 40001)
        samples = regular_stage_pz(1.0, 1.0, grid)
        traj = Trajectory(
            grid=grid, samples=samples, params=P100, method=Method.CLOSED_FORM,
            bath=BathKind.INFINITE_T,
        )
        rep = detect_stages(traj, P100, 1.0)
        assert rep.t_regular_end is None
        assert rep.revivals == ()
        assert rep.chaotic_onset is None

    def test_coarse_grid_rejected(self):
        grid = np.linspace(0.0, 400.0, 401)  # step 1 > pi / (4 h)
        traj = pz_trajectory(P100, 1.0, grid)
        with pytest.raises(GridTooCoarseError):
            detect_stages(traj, P100, 1.0)

    def test_mismatched_params_rejected(self):
        grid = np.linspace(0.0, 50.0, 5001)
        traj = pz_trajectory(P100, 1.0, grid)
        with pytest.raises(ConfigError):
            detect_stages(traj, P50, 1.0)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                detect_stages(traj, P100, 1.0, delta_frac=bad)

    def test_scale_covariance(self):
        # halving p0z is an exact binary rescaling: every comparison inside
        # the detector is unchanged, so times agree bit for bit
        grid = np.linspace(0.0, 400.0, 40001)
        full = detect_stages(pz_trajectory(P100, 1.0, grid), P100, 1.0)
        half = detect_stages(pz_trajectory(P100, 0.5, grid), P100, 0.5)
        assert half.t_regular_end == full.t_regular_end
        assert half.chaotic_onset == full.chaotic_onset
        assert len(half.revivals) == len(full.revivals)
        for (t_f, h_f), (t_h, h_h) in zip(full.revivals, half.revivals):
            assert t_h == t_f
            assert h_h == 0.5 * h_f

    def test_grid_refinement_stability(self):
        coarse = detect_stages(
            pz_trajectory(P50, 1.0, np.linspace(0.0, 200.0, 20001)), P50, 1.0
        )
        fine = detect_stages(
            pz_trajectory(P50, 1.0, np.linspace(0.0, 200.0, 40001)), P50, 1.0
        )
        assert abs(coarse.t_regular_end - fine.t_regular_end) < 1.0


class TestQuietCold:
    def test_ring_of_50(self):
        traj = pz_trajectory(P50, 1.0, np.linspace(0.0, 600.0, 24001))
        rep = quiet_cold(traj, P50)
        lo, hi = rep.window
        assert abs(lo - 50.0 / (2.0 * np.pi)) < 1e-12
        assert abs(hi - 45.0) < 1e-12
        assert rep.is_cold
        assert rep.mean_pz < 0.04
        assert rep.mean_pz < rep.tail_average
        assert rep.oscillation_amplitude < rep.early_amplitude
        assert abs(rep.tail_average - 0.04) < 0.02

    def test_short_tail_rejected(self):
        traj = pz_trajectory(P50, 1.0, np.linspace(0.0, 100.0, 4001))
        with pytest.raises(InsufficientTailError):
            quiet_cold(traj, P50)

    def test_late_start_rejected(self):
        traj = pz_trajectory(P50, 1.0, np.linspace(20.0, 600.0, 2321))
        with pytest.raises(InsufficientTailError):
            quiet_cold(traj, P50)

    def test_sparse_window_rejected(self):
        traj = pz_trajectory(P50, 1.0, np.linspace(0.0, 600.0, 31))
        with pytest.raises(InsufficientTailError):
            quiet_cold(traj, P50)


class TestScan:
    def test_grid_of_four(self):
        rows = anisotropy_field_scan(50, 1.0, [0.0, 1.0], [2.0, 10.0])
        assert [(r.gamma, r.h) for r in rows] == [
            (0.0, 2.0), (0.0, 10.0), (1.0, 2.0), (1.0, 10.0),
        ]
        amp = {(r.gamma, r.h): r.amplitude for r in rows}
        # isotropic coupling removes any field dependence from pz
        assert abs(amp[(0.0, 2.0)] - amp[(0.0, 10.0)]) < 1e-12
        # fully anisotropic coupling does not
        assert amp[(1.0, 10.0)] > amp[(1.0, 2.0)]
        assert all(np.isfinite(r.mean_pz) for r in rows)
        assert all(isinstance(r.to_dict()["amplitude"], float) for r in rows)

    def test_metric_rows_equal_full_grid(self, monkeypatch):
        # scan_metric computes only t >= N/kappa.  Each kernel row is reduced
        # on its own, so those rows equal the full grid's bit for bit, even
        # when the two grids are cut into different time chunks.
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 26 * 7)  # 7 rows per chunk at N = 50
        params = ChainParams(N=50, kappa=1.0, gamma=0.5, h=2.0)
        grid = np.linspace(0.0, 150.0, 3001)
        late = grid >= 50.0
        full = pz_trajectory(params, 0.8, grid).samples[late]
        assert np.array_equal(pz_trajectory(params, 0.8, grid[late]).samples, full)
        want = ScanPoint(0.5, 2.0, float(full.max() - full.min()), float(full.mean()))
        assert scan_metric(params, 0.8, grid) == want

    def test_validation(self):
        with pytest.raises(ConfigError):
            anisotropy_field_scan(50, 1.0, [], [2.0])
        with pytest.raises(ConfigError):
            anisotropy_field_scan(50, 1.0, [0.0], [])
        with pytest.raises(ConfigError):
            anisotropy_field_scan(50, 1.0, [0.0], [2.0], t_max=40.0)
        with pytest.raises(ConfigError):
            anisotropy_field_scan(50, 1.0, [0.0], [0.5])  # field below coupling

    def test_metric_without_late_times_rejected(self):
        # every time is below N/kappa = 50: refused before the kernel runs
        with pytest.raises(ConfigError, match="no time t >= N/kappa"):
            scan_metric(ChainParams(N=50, gamma=0.5, h=2.0), 1.0, np.linspace(0, 10, 5))
