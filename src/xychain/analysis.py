"""Detectors that turn trajectories into physical summaries.

All detectors are pure functions of the sampled data: deterministic,
no fitting, no randomness.  Envelope logic follows one rule everywhere:
on the initial monotone descent the signal is its own envelope, after
the first interior local maximum the envelope linearly interpolates
between successive local maxima.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .approx import long_time_average, regular_stage_pz
from .chain import ChainParams
from .dynamics import BathKind, Trajectory, pz_trajectory, serial_kernel, usable_cpus
from .errors import (
    ConfigError,
    GridTooCoarseError,
    InsufficientTailError,
    NoCrossingError,
)


@dataclass(frozen=True)
class TimescaleReport:
    tau_decoherence: float
    tau_thermalization: float
    ratio: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StageReport:
    t_regular_end: float | None
    revivals: tuple[tuple[float, float], ...]  # (time, |pz| peak height)
    chaotic_onset: float | None
    delta: float

    def to_dict(self) -> dict:
        return {
            "t_regular_end": self.t_regular_end,
            "revivals": [list(r) for r in self.revivals],
            "chaotic_onset": self.chaotic_onset,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class QuietColdReport:
    window: tuple[float, float]
    mean_pz: float
    oscillation_amplitude: float
    early_amplitude: float
    tail_average: float
    is_cold: bool

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "mean_pz": self.mean_pz,
            "oscillation_amplitude": self.oscillation_amplitude,
            "early_amplitude": self.early_amplitude,
            "tail_average": self.tail_average,
            "is_cold": self.is_cold,
        }


@dataclass(frozen=True)
class ScanPoint:
    gamma: float
    h: float
    amplitude: float
    mean_pz: float

    def to_dict(self) -> dict:
        return asdict(self)


REVIVAL_FRACTION = 0.35  # a revival peak counts from this share of the tallest one


def _envelope_crossing(t: np.ndarray, s: np.ndarray, level: float) -> float:
    """First time the decay envelope of s drops below level.

    Envelope nodes: every sample up to the first interior local maximum,
    local maxima afterwards, and the final sample.  Linear interpolation
    in between.
    """
    n = s.size
    if n < 2:
        raise ConfigError("need at least two samples to find a crossing")
    if s[0] <= level:
        return float(t[0])
    interior = np.nonzero((s[1:-1] >= s[:-2]) & (s[1:-1] >= s[2:]))[0] + 1
    if interior.size:
        nodes = list(range(interior[0] + 1)) + [int(i) for i in interior[1:]]
        if nodes[-1] != n - 1:
            nodes.append(n - 1)
    else:
        nodes = list(range(n))
    tv = t[nodes]
    sv = s[nodes]
    for k in range(len(nodes) - 1):
        a, b = sv[k], sv[k + 1]
        if a >= level > b:
            return float(tv[k] + (tv[k + 1] - tv[k]) * (a - level) / (a - b))
    raise NoCrossingError(f"envelope never drops below {level}")


def timescales(traj: Trajectory) -> TimescaleReport:
    """Half-decay times of transverse coherence and of the pz gap.

    Decoherence: |p_perp| envelope falling to half its initial value.
    Thermalization: pz approaching the stationary target of the
    trajectory's bath (-1 for BathKind.ZERO_T, 2 p0z / N for
    BathKind.INFINITE_T) to half the initial gap.
    """
    if not traj.is_vector:
        raise ConfigError("timescales need full (px, py, pz) samples")
    if traj.bath is BathKind.ZERO_T:
        target = -1.0
    else:
        target = long_time_average(float(traj.samples[0, 2]), traj.params.N)
    p_perp = np.hypot(traj.samples[:, 0], traj.samples[:, 1])
    gap = traj.samples[:, 2] - target
    if p_perp[0] <= 0:
        raise ConfigError("no initial transverse polarization to track")
    if gap[0] <= 0:
        raise ConfigError("pz starts at (or below) its stationary target")
    tau_dec = _envelope_crossing(traj.grid, p_perp, 0.5 * p_perp[0])
    tau_th = _envelope_crossing(traj.grid, gap, 0.5 * gap[0])
    return TimescaleReport(tau_dec, tau_th, tau_dec / tau_th)


def _sustained(flags: np.ndarray, win: int) -> int | None:
    """Index of the first window of `win` consecutive True values."""
    if flags.size < win:
        return None
    cs = np.concatenate([[0], np.cumsum(flags)])
    hits = np.nonzero(cs[win:] - cs[:-win] == win)[0]
    return int(hits[0]) if hits.size else None


def _pz_of(traj: Trajectory) -> np.ndarray:
    return traj.samples[:, 2] if traj.is_vector else traj.samples


def detect_stages(traj: Trajectory, params: ChainParams, p0z: float, *, delta_frac: float = 0.02) -> StageReport:
    """Locate the end of the regular stage, revivals, and their demise.

    The regular stage ends at the first window of length 1/kappa over
    which |pz - p0z J0(kappa t)^2| > delta with delta = delta_frac |p0z|.
    Revival peaks are local maxima of |pz| after that point, kept if
    taller than REVIVAL_FRACTION (0.35) of the tallest and separated by at
    least N/(4 kappa).  The chaotic stage starts when |pz| stays below half
    the last strong revival for a window of 1/kappa; if that never happens
    inside the grid, the final grid time is reported.
    """
    if traj.params != params:
        raise ConfigError("trajectory was computed with different parameters")
    if not (delta_frac > 0 and np.isfinite(delta_frac)):
        raise ConfigError(f"delta_frac must be positive and finite, got {delta_frac}")
    t = traj.grid
    if t.size < 4:
        raise ConfigError("trajectory too short for stage detection")
    step = float(np.diff(t).max())
    if params.h > 0 and step > np.pi / (4.0 * params.h):
        raise GridTooCoarseError(
            f"grid step {step:.4g} undersamples oscillations at h={params.h}"
            f" (need <= {np.pi / (4.0 * params.h):.4g})"
        )
    pz = _pz_of(traj)
    delta = delta_frac * abs(p0z)
    mean_step = float(t[-1] - t[0]) / (t.size - 1)
    win = max(1, int(np.ceil((1.0 / params.kappa) / mean_step)))
    dev = np.abs(pz - regular_stage_pz(p0z, params.kappa, t)) > delta
    start = _sustained(dev, win)
    if start is None:
        return StageReport(None, (), None, delta)
    t_reg = float(t[start])

    apz = np.abs(pz)
    lo = start + 1
    seg = apz[lo:]
    if seg.size < 3:
        return StageReport(t_reg, (), float(t[-1]), delta)
    peaks = np.nonzero((seg[1:-1] >= seg[:-2]) & (seg[1:-1] >= seg[2:]))[0] + 1 + lo
    if peaks.size == 0:
        return StageReport(t_reg, (), float(t[-1]), delta)
    sep = params.N / (4.0 * params.kappa)
    order = np.argsort(-apz[peaks], kind="stable")
    accepted: list[int] = []
    for i in peaks[order]:
        if all(abs(t[i] - t[j]) >= sep for j in accepted):
            accepted.append(int(i))
    tallest = apz[accepted[0]]
    keep = sorted(i for i in accepted if apz[i] >= REVIVAL_FRACTION * tallest)
    revivals = tuple((float(t[i]), float(apz[i])) for i in keep)

    first_height = revivals[0][1]
    strong = [r for r in revivals if r[1] >= 0.5 * first_height]
    t_last, h_last = strong[-1]
    j0 = int(np.searchsorted(t, t_last, side="right"))
    drop = _sustained(apz[j0:] < 0.5 * h_last, win)
    onset = float(t[j0 + drop]) if drop is not None else float(t[-1])
    return StageReport(t_reg, revivals, onset, delta)


def quiet_cold(traj: Trajectory, params: ChainParams) -> QuietColdReport:
    """Statistics of pz inside the quiet window [N/2piK, 0.9 N/K].

    The window sits between the initial collapse and the first revival;
    'cold' means the windowed mean lies below the empirical long-time
    average (taken over the final half of the grid).
    """
    if traj.params != params:
        raise ConfigError("trajectory was computed with different parameters")
    t = traj.grid
    N, kappa = params.N, params.kappa
    lo = N / (2.0 * np.pi * kappa)
    hi = 0.9 * N / kappa
    if t.size == 0 or t[0] > lo:
        raise InsufficientTailError("trajectory starts after the quiet window opens")
    if t[-1] < 10.0 * N / kappa:
        raise InsufficientTailError(
            f"tail ends at t={t[-1]:.4g}; need at least 10 N / kappa = {10 * N / kappa:.4g}"
        )
    pz = _pz_of(traj)
    sel = (t >= lo) & (t <= hi)
    if sel.sum() < 8:
        raise InsufficientTailError("fewer than 8 samples inside the quiet window")
    early = t <= lo
    late = t >= 0.5 * t[-1]
    window_vals = pz[sel]
    return QuietColdReport(
        window=(float(lo), float(hi)),
        mean_pz=float(window_vals.mean()),
        oscillation_amplitude=float(window_vals.max() - window_vals.min()),
        early_amplitude=float(pz[early].max() - pz[early].min()),
        tail_average=float(pz[late].mean()),
        is_cold=bool(window_vals.mean() < pz[late].mean()),
    )


def anisotropy_field_scan(
    N: int,
    kappa: float,
    gammas,
    hs,
    p0z: float = 1.0,
    t_max: float | None = None,
    n_points: int | None = None,
    jobs: int = 1,
) -> list[ScanPoint]:
    """Late-time pz oscillation metrics over a (gamma, h) grid.

    Shares one time grid across all points (resolution set by the
    largest field, see scan_grid_spec), measures max - min and mean of pz
    over t in [N/kappa, t_max], and returns rows sorted by (gamma, h).
    jobs > 1 spreads the points over a process pool of at most jobs
    workers, capped at the number of points and of usable CPUs, each
    running the kernel on one thread; each point is computed the same way
    in any process and on any number of threads, so the rows do not depend
    on jobs.
    """
    gammas = [float(g) for g in gammas]
    hs = [float(h) for h in hs]
    if not gammas or not hs:
        raise ConfigError("scan needs at least one gamma and one h")
    t_max, n_points = scan_grid_spec(N, kappa, hs, t_max, n_points)
    tasks = [(ChainParams(N=N, kappa=kappa, gamma=g, h=h), p0z, t_max, n_points) for g in gammas for h in hs]
    workers = _pool_size(jobs, len(tasks))
    if workers > 1:
        with _scan_pool(workers) as pool:
            rows = list(pool.map(_scan_task, tasks))
    else:
        rows = [_scan_task(task) for task in tasks]
    rows.sort(key=lambda r: (r.gamma, r.h))
    return rows


def _scan_task(task) -> ScanPoint:
    """One scan point from (params, p0z, t_max, n_points); the grid is built where it is used."""
    params, p0z, t_max, n_points = task
    return scan_metric(params, p0z, np.linspace(0.0, t_max, n_points))


def _scan_pool(workers: int):
    """A process pool whose workers run the kernel on one thread each."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, initializer=serial_kernel)


def _pool_size(jobs: int, n_tasks: int) -> int:
    """Scan workers: at least 1, at most the tasks and the usable CPUs."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, n_tasks, usable_cpus())


def scan_grid_spec(N: int, kappa: float, hs, t_max: float | None, n_points: int | None):
    """Resolve the shared (t_max, n_points) of a scan grid."""
    if t_max is None:
        t_max = 3.0 * N / kappa
    if not np.isfinite(t_max):
        raise ConfigError(f"t_max must be finite, got {t_max}")
    if t_max <= N / kappa:
        raise ConfigError("t_max must exceed N/kappa to leave a late-time window")
    if n_points is None:
        step = np.pi / (8.0 * (max(hs) + kappa))
        n_points = min(int(np.ceil(t_max / step)) + 1, 200001)
    if n_points < 2:
        raise ConfigError("scan grid needs at least two points")
    return float(t_max), int(n_points)


def scan_metric(params: ChainParams, p0z: float, grid: np.ndarray) -> ScanPoint:
    """max - min and mean of closed-form pz over t >= N/kappa.

    Only the grid times t >= N/kappa are computed; each time row of the
    kernel is reduced on its own, so they equal the full grid's values.
    A grid with no such time is refused with ConfigError.
    """
    late = grid[grid >= params.N / params.kappa]
    if late.size == 0:
        raise ConfigError(f"scan grid has no time t >= N/kappa = {params.N / params.kappa:g}")
    vals = pz_trajectory(params, p0z, late).samples
    return ScanPoint(params.gamma, params.h, float(vals.max() - vals.min()), float(vals.mean()))
