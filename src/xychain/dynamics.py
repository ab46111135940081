"""Exact reduced dynamics of the probe spin.

Two independent routes to the same number:

* ``pz_closed_form`` / ``pz_trajectory``: the O(N) free-fermion closed
  form, half of p0z times the sum of squared sector averages of
  cos(E_q t) and (eps_q/E_q) sin(E_q t).
* ``pz_config_sum``: brute-force double sum over fermionic occupation
  configurations using the analytic matrix elements of the probe sz
  between many-body eigenstates.  Exponential in N, capped, and kept as
  an independently coded oracle for the closed form.

Both act on an infinite-temperature ring; the probe starts with
longitudinal polarization p0z.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .chain import ChainParams, MomentumSector, Parity, SpectralTable, build_sectors, spectral_table
from .errors import CapExceededError, ConfigError, XYChainError

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


def _pz(params: ChainParams, p0z: float, grid: np.ndarray) -> np.ndarray:
    """Half of p0z times the sum of the four squared sector averages."""
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


class MatElemKind(Enum):
    SWAP = "swap"
    PAIR_CREATE = "pair_create"


def _occupied_indices(config: FermionConfig, sector: MomentumSector) -> np.ndarray:
    if config.parity is not sector.parity:
        raise ConfigError("configuration and table belong to different parity sectors")
    pos = {q2: i for i, q2 in enumerate(sector.q2)}
    try:
        return np.array([pos[v] for v in config.occupied_q2], dtype=np.intp)
    except KeyError as bad:
        raise ConfigError(f"momentum {bad.args[0]}/2 not in sector (N={sector.N})") from None


def matelem_diagonal(config: FermionConfig, table: SpectralTable) -> float:
    """Probe sz expectation in one many-body eigenstate.

    (1/N) * [sum over occupied cos(theta) - sum over empty cos(theta)].
    """
    occ = _occupied_indices(config, table.sector)
    c = np.cos(table.theta)
    return float((2.0 * c[occ].sum() - c.sum()) / table.params.N)


def matelem_offdiag(kind: MatElemKind, q, qtilde, table: SpectralTable) -> float:
    """|probe-sz matrix element| between eigenstates differing in two slots.

    SWAP: one occupied momentum moved from q to qtilde (same sector);
    PAIR_CREATE: momenta q and qtilde both added (or both removed).
    """
    i = table.sector.index_of(q)
    j = table.sector.index_of(qtilde)
    if i == j:
        raise ConfigError("off-diagonal element needs two distinct momenta")
    N = table.params.N
    ti, tj = table.theta[i], table.theta[j]
    if kind is MatElemKind.SWAP:
        return abs((2.0 / N) * np.cos(0.5 * (ti + tj)))
    if kind is MatElemKind.PAIR_CREATE:
        return abs((2.0 / N) * np.sin(0.5 * (ti - tj)))
    raise ConfigError(f"unknown matrix-element kind {kind!r}")


DEFAULT_CONFIG_SUM_CAP = 10


def pz_config_sum(params: ChainParams, p0z: float, t: float, cap: int = DEFAULT_CONFIG_SUM_CAP) -> float:
    """Probe pz by explicit sum over all pairs of occupation configurations.

    2^-N p0z sum_{Q,Qt} |<Qt|sz|Q>|^2 exp(-i(E_Q - E_Qt) t), with the
    selection rules baked in: within a parity sector only the diagonal,
    single swaps, and pair add/remove contribute.  Cost ~ 2^N * N^2.
    """
    N = params.N
    if N > cap:
        raise CapExceededError(f"config sum at N={N} exceeds cap {cap} (2^{N} configurations)")
    total = 0.0 + 0.0j
    for sector in build_sectors(params):
        tab = spectral_table(params, sector)
        cos_th = np.cos(tab.theta)
        cos_all = cos_th.sum()
        half_sum = 0.5 * (tab.theta[:, None] + tab.theta[None, :])
        half_diff = 0.5 * (tab.theta[:, None] - tab.theta[None, :])
        swap_sq = ((2.0 / N) * np.cos(half_sum)) ** 2
        pair_sq = ((2.0 / N) * np.sin(half_diff)) ** 2
        u = np.exp(-1j * tab.E * float(t))
        swap_phase = np.outer(u, u.conj())  # exp(-i(E_a - E_b) t)
        pair_phase = np.outer(u, u)         # exp(-i(E_a + E_b) t)
        keep_odd = sector.parity is Parity.ODD
        idx = np.arange(N)
        for mask in range(1 << N):
            bits = (mask >> idx) & 1
            if bool(bits.sum() % 2) != keep_odd:
                continue
            occ = idx[bits == 1]
            emp = idx[bits == 0]
            diag = (2.0 * cos_th[occ].sum() - cos_all) / N
            total += diag * diag
            if occ.size and emp.size:
                block = np.ix_(occ, emp)
                total += (swap_sq[block] * swap_phase[block]).sum()
            if occ.size > 1:
                block = np.ix_(occ, occ)
                total += 0.5 * (pair_sq[block] * pair_phase[block]).sum()
            if emp.size > 1:
                block = np.ix_(emp, emp)
                total += 0.5 * (pair_sq[block] * pair_phase[block].conj()).sum()
    if abs(total.imag) > 1e-10:
        raise XYChainError(f"configuration sum left an imaginary residue {total.imag:.3e}")
    return float(p0z * total.real / 2.0**N)
