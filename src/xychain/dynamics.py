"""Exact reduced dynamics of the probe spin.

Two independent routes to the same number:

* ``pz_closed_form`` / ``pz_trajectory``: the O(N) free-fermion closed
  form, half of p0z times the sum of squared sector averages of
  cos(E_q t) and (eps_q/E_q) sin(E_q t).
* ``pz_config_sum``: the double sum over fermionic occupation
  configurations of the squared probe-sz matrix elements between
  many-body eigenstates, counted down to one O(N^2) sum over pairs of
  modes per time point.  Built from the Bogolyubov angles and the mode
  energies, never from eps_q/E_q, it is an independent check on the
  closed form up to N = CONFIG_SUM_CAP.

Both act on an infinite-temperature ring, with the probe starting at
longitudinal polarization p0z, and both need N >= 4: each rests on a mode
that any two fixed modes leave free.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .chain import ChainParams, Parity, SpectralTable, build_sectors, spectral_table
from .errors import CapExceededError, ConfigError

# The kernel walks the time axis in chunks of whole rows.  Each of its
# threads holds two float64 chunk buffers, the phases (reused in place for
# the sines) and the cosines; the threads share this many elements (32 MB)
# per buffer kind, so a call's buffers stay within 64 MB at any thread count.
# A thread allocates its pair once and uses it for both sectors, and the four
# sums go into one (4, nt) array, so no chunk-sized array is allocated per
# chunk.
_CHUNK_ELEMENTS = 1 << 22
# A thread is worth starting only for at least this many phase elements.
_THREAD_ELEMENTS = 1 << 16
# Threads one kernel call may use in this process; None means one per usable
# CPU.  Scan pool workers set 1 (see serial_kernel), so the kernels of a
# pool together run no more threads than there are CPUs.
_thread_budget: int | None = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def serial_kernel() -> None:
    """Keep every later kernel call in this process on one thread (a pool initializer)."""
    global _thread_budget
    _thread_budget = 1


def kernel_threads() -> int:
    """The most threads one kernel call may use in this process."""
    return _thread_budget or usable_cpus()


class BathKind(Enum):
    """Initial state of the ring around the probe: fully mixed, or all spins down."""

    INFINITE_T = "infinite_T"
    ZERO_T = "zero_T"


class Method(Enum):
    """The route that computed a trajectory."""

    CLOSED_FORM = "closed_form"
    NIEMEIJER = "niemeijer"
    ED_ORACLE = "ed_oracle"


@dataclass
class Trajectory:
    """Time grid plus per-time polarization samples.

    samples is (n,) for pz-only records or (n, 3) for full Bloch vectors.
    """

    grid: np.ndarray
    samples: np.ndarray
    params: ChainParams
    method: Method
    bath: BathKind
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.grid.ndim != 1:
            raise ConfigError("grid must be one-dimensional")
        if not np.all(np.isfinite(self.grid)) or not np.all(np.isfinite(self.samples)):
            raise ConfigError("trajectory contains non-finite values")
        if np.any(np.diff(self.grid) <= 0):
            raise ConfigError("grid must be strictly increasing")
        if self.samples.shape[0] != self.grid.size:
            raise ConfigError("samples and grid length mismatch")
        if self.samples.ndim == 2:
            if self.samples.shape[1] != 3:
                raise ConfigError("vector samples must have three components")
            mag = np.sqrt((self.samples**2).sum(axis=1))
        elif self.samples.ndim == 1:
            mag = np.abs(self.samples)
        else:
            raise ConfigError("samples must be (n,) or (n, 3)")
        if mag.size and mag.max() > 1.0 + 1e-9:
            raise ConfigError(f"polarization left the Bloch ball: |p| = {mag.max()}")
        if not isinstance(self.method, Method):
            raise ConfigError(f"method must be a Method, got {self.method!r}")
        if not isinstance(self.bath, BathKind):
            raise ConfigError(f"bath must be a BathKind, got {self.bath!r}")

    @property
    def n_samples(self) -> int:
        return int(self.grid.size)

    @property
    def is_vector(self) -> bool:
        return self.samples.ndim == 2


def _ab_arrays(params: ChainParams, grid: np.ndarray):
    """Sector averages (A_odd, A_even, B_odd, B_even) over a time grid.

    Per sector A = (1/N) sum_q cos(E_q t) and B = (1/N) sum_q cos(theta_q)
    sin(E_q t), exactly (1, 1, 0, 0) at t = 0.  E_q and eps_q/E_q are even
    in q, bit for bit (cos is even, sin is odd and hypot ignores sign), so
    each sector is folded onto its momenta q >= 0: a +-q pair enters once
    with weight 2, and the odd sector's q = 0 and q = N/2, which are their
    own partners, with weight 1.  That halves the cos/sin calls, which
    dominate the cost.  Each time row is reduced on its own, by a weighted
    elementwise product and numpy's pairwise sum (never BLAS), so a value
    does not depend on the other grid points, on the chunking along time or
    on the BLAS thread count.

    A call splits its time rows into one contiguous block per thread, at
    most kernel_threads() threads and one per _THREAD_ELEMENTS phase
    elements.  numpy releases the GIL in every step, so the blocks run in
    parallel; each row is reduced the same way in any block, so the sums do
    not depend on the thread count either.  Every thread has ended when the
    call returns.
    """
    N = params.N
    nt = grid.size
    folded = []
    for sector in build_sectors(params):  # odd, then even
        tab = spectral_table(params, sector)
        q2 = np.asarray(sector.q2)
        half = q2 >= 0
        weight = np.where((q2[half] == 0) | (q2[half] == N), 1.0, 2.0)
        folded.append((tab.E[half], weight, weight * tab.cos_theta[half]))
    width = N // 2 + 1  # the odd sector's q >= 0; the even sector has N/2
    threads = max(1, min(kernel_threads(), nt * width // _THREAD_ELEMENTS, nt))
    step = max(1, _CHUNK_ELEMENTS // threads // width)
    sums = np.empty((4, nt))  # rows A_odd, A_even, B_odd, B_even

    def rows(lo: int, hi: int) -> None:
        phase_buf = np.empty(min(hi - lo, step) * width)
        cos_buf = np.empty_like(phase_buf)
        for k, (E, weight, weighted_cos_theta) in enumerate(folded):
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                phases = phase_buf[: (b - a) * E.size].reshape(b - a, E.size)
                cosines = cos_buf[: phases.size].reshape(phases.shape)
                np.multiply.outer(grid[a:b], E, out=phases)
                np.cos(phases, out=cosines)
                cosines *= weight
                sums[k, a:b] = cosines.sum(axis=-1)
                np.sin(phases, out=phases)
                phases *= weighted_cos_theta
                sums[k + 2, a:b] = phases.sum(axis=-1)

    if threads == 1:
        rows(0, nt)
    else:
        from concurrent.futures import ThreadPoolExecutor

        bounds = [nt * i // threads for i in range(threads + 1)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(rows, bounds[:-1], bounds[1:]))  # reads every result, so errors propagate
    sums /= N
    return tuple(sums)


def _check_free_mode(params: ChainParams) -> None:
    """Refuse N = 2, where no mode is left free by two fixed ones."""
    if params.N < 4:
        raise ConfigError(f"pz needs N >= 4, got N={params.N}: the sector counts leave no free mode")


def _pz(params: ChainParams, p0z: float, grid: np.ndarray) -> np.ndarray:
    """Half of p0z times the sum of the four squared sector averages."""
    _check_free_mode(params)
    Ao, Ae, Bo, Be = _ab_arrays(params, grid)
    return 0.5 * p0z * (Ao * Ao + Ae * Ae + Bo * Bo + Be * Be)


def pz_closed_form(params: ChainParams, p0z: float, t: float) -> float:
    """Probe pz at time t for the infinite-temperature ring."""
    return float(_pz(params, p0z, np.array([float(t)]))[0])


def pz_trajectory(params: ChainParams, p0z: float, grid) -> Trajectory:
    """Closed-form pz over a grid; pointwise equal to pz_closed_form."""
    grid = np.asarray(grid, dtype=np.float64)
    meta = {"p0z": float(p0z)}
    return Trajectory(grid, _pz(params, p0z, grid), params, Method.CLOSED_FORM, BathKind.INFINITE_T, meta)


@dataclass(frozen=True)
class FermionConfig:
    """A set of occupied momenta (as q2 ints) in one parity sector.

    Odd occupation numbers live in the odd sector and vice versa; the
    constructor enforces that and the int-parity convention of q2.
    """

    parity: Parity
    occupied_q2: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.occupied_q2, self.occupied_q2[1:])):
            raise ConfigError("occupied momenta must be strictly increasing")
        want = Parity.ODD if len(self.occupied_q2) % 2 else Parity.EVEN
        if want is not self.parity:
            raise ConfigError(
                f"{len(self.occupied_q2)} occupied modes cannot live in the {self.parity.value} sector"
            )
        q2_should_be_odd = self.parity is Parity.EVEN
        if any((v % 2 == 1) != q2_should_be_odd for v in self.occupied_q2):
            raise ConfigError("occupied q2 values do not match the sector's momentum grid")

    @classmethod
    def from_momenta(cls, momenta) -> "FermionConfig":
        from .chain import _as_q2

        q2 = tuple(sorted(_as_q2(m) for m in momenta))
        parity = Parity.ODD if len(q2) % 2 else Parity.EVEN
        return cls(parity, q2)

    @property
    def M(self) -> int:
        return len(self.occupied_q2)


def sz_matrix_elements(table: SpectralTable) -> tuple[np.ndarray, np.ndarray]:
    """Probe-sz matrix elements between the eigenstates of one sector, (swap, pair).

    swap[a, b] = (2/N) cos((theta_a + theta_b)/2) moves one fermion from mode
    a to mode b; pair[a, b] = (2/N) sin((theta_a - theta_b)/2) adds or removes
    the pair (a, b); both up to sign.  An eigenstate's diagonal element is
    (1/2) sum_a s_a swap[a, a], with s = +1 occupied and -1 empty.
    """
    theta = table.theta
    swap = (2.0 / table.params.N) * np.cos(0.5 * np.add.outer(theta, theta))
    pair = (2.0 / table.params.N) * np.sin(0.5 * np.subtract.outer(theta, theta))
    return swap, pair


# Largest N pz_config_sum accepts.  At N = 2000 its N x N pair arrays take
# about 0.45 s per time point and add about 120 MB to the peak RSS.
CONFIG_SUM_CAP = 2000


def pz_config_sum(params: ChainParams, p0z: float, t: float) -> float:
    """Probe pz from the sum over all pairs of occupation configurations, counted.

    The sum is 2^-N p0z sum_{Q,Qt} |<Qt|sz|Q>|^2 exp(-i(E_Q - E_Qt) t).  Within
    a parity sector only the diagonal, single swaps and pair add/remove
    contribute, and a configuration enters only through which modes it
    occupies.  With N >= 4 a pattern on k < N fixed modes is met by
    2^(N-1-k) configurations of a sector, and sum_Q s_a s_b = 0 for a != b
    (s = +1 occupied, -1 empty), so the 2^N configurations collapse to one
    double sum over modes per sector:

        pz = p0z/8 sum_sectors sum_{a,b} [S_ab cos((E_a - E_b) t) + P_ab cos((E_a + E_b) t)]

    S_ab and P_ab are the squared swap and pair elements of sz_matrix_elements;
    the a = b terms carry the diagonal elements, sum_Q <Q|sz|Q>^2 / 2^N =
    sum_a cos^2(theta_a) / (2 N^2) = sum_a S_aa / 8.  Elementwise products and numpy sums only, never BLAS,
    so a value does not depend on the BLAS thread count.  Cost ~ N^2.
    """
    N = params.N
    if N > CONFIG_SUM_CAP:
        raise CapExceededError(f"config sum at N={N} exceeds cap {CONFIG_SUM_CAP} (N x N pair arrays)")
    _check_free_mode(params)
    total = 0.0
    for sector in build_sectors(params):
        tab = spectral_table(params, sector)
        swap, pair = sz_matrix_elements(tab)
        swap **= 2
        pair **= 2
        total += (swap * np.cos(np.subtract.outer(tab.E, tab.E) * float(t))).sum()
        total += (pair * np.cos(np.add.outer(tab.E, tab.E) * float(t))).sum()
    return float(p0z * total / 8.0)
