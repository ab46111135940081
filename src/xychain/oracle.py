"""Dense exact-diagonalization oracle for the full ring.

Everything here works in the raw 2^N-dimensional spin space with no
free-fermion shortcuts beyond the parity of the number of down spins,
which every bond keeps (Lieb, Schultz & Mattis 1961): build each parity
block of the Hamiltonian from bit flips, diagonalize it, and evolve states
spectrally.  This is the independent referee for the closed forms.  Costs
are exponential; construction is capped (default 12 sites, hard limit 14)
and refused when its estimated memory exceeds what the machine has free.

The fermionic layer (Jordan-Wigner, Fourier, Bogolyubov operators and
eigenstates assembled from them) is also dense and is used to validate
the analytic diagonalization operator by operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .approx import Polarization3
from .chain import (
    ChainParams,
    Parity,
    _as_q2,
    build_sectors,
    sector_for,
    spectral_point,
    spectral_table,
)
from .dynamics import BathKind, FermionConfig, Method, Trajectory
from .errors import (
    CapExceededError,
    ConfigError,
    DegenerateVacuumError,
    SpectrumMismatchError,
    XYChainError,
)

ID2 = np.eye(2)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]])  # |up> -> |down>

DEFAULT_ED_CAP = 12
HARD_ED_CAP = 14
DEFAULT_FERMION_CAP = 10  # builder holds ~N dense 2^N x 2^N matrices

_EVOLVE_CHUNK = 256  # time points per spectral-evolution block
SPECTRUM_TOL = 1e-8  # largest dense-vs-reconstructed level gap spectrum_equivalence accepts


class Observable(Enum):
    SX = "sx"
    SY = "sy"
    SZ = "sz"


_OBSERVABLE_MATRIX = {Observable.SX: SIGMA_X, Observable.SY: SIGMA_Y, Observable.SZ: SIGMA_Z}


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            return next(int(ln.split()[1]) * 1024 for ln in f if ln.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return None


def _check_cap(N: int, cap: int, what: str, nbytes: int = 0) -> None:
    """Refuse N above the caps, or an estimated nbytes above the free memory."""
    if N > HARD_ED_CAP:
        raise CapExceededError(f"{what} refuses N={N}: hard cap is {HARD_ED_CAP}")
    if N > cap:
        raise CapExceededError(f"{what} at N={N} exceeds cap {cap}")
    free = _mem_available()
    if free is not None and nbytes > free:
        raise CapExceededError(f"{what} at N={N} needs {nbytes / 2**30:.2f} GiB, {free / 2**30:.2f} GiB free")


def site_op(op2: np.ndarray, j: int, N: int) -> np.ndarray:
    """op2 acting on site j (1-based) of N sites; site 1 varies slowest."""
    if not 1 <= j <= N:
        raise ConfigError(f"site index {j} outside 1..{N}")
    out = np.array([[1.0]], dtype=op2.dtype)
    for k in range(1, N + 1):
        out = np.kron(out, op2 if k == j else ID2.astype(op2.dtype))
    return out


def _block_index(N: int, parity: Parity) -> np.ndarray:
    """Ascending basis indices with an even (EVEN) or odd (ODD) number of down spins."""
    idx = np.arange(1 << N)
    odd = np.zeros(1 << N, dtype=np.int64)
    for b in range(N):
        odd ^= (idx >> b) & 1
    return idx[odd == (parity is Parity.ODD)]


def build_hamiltonian(
    params: ChainParams, cap: int = DEFAULT_ED_CAP, block: Parity | None = None
) -> np.ndarray:
    """Dense ring Hamiltonian, real symmetric; one parity block if ``block`` is given.

    (kappa/4) sum_j [(1+gamma) sx_j sx_{j+1} + (1-gamma) sy_j sy_{j+1}]
    + (h/2) sum_j sz_j with site N+1 = site 1.  Bit N-j of an index is 1
    when site j is down.  A bond flips both its spins, with weight 1 from
    sx sx and -1 (equal spins) or +1 (unequal) from sy sy, so it keeps the
    number of down spins even or odd: each block is closed under H.
    """
    N = params.N
    index = np.arange(1 << N) if block is None else _block_index(N, block)
    dim = index.size
    _check_cap(N, cap, "dense Hamiltonian", 8 * dim * dim)
    cols = np.arange(dim)
    H = np.zeros((dim, dim))
    cxx = 0.25 * params.kappa * (1.0 + params.gamma)
    cyy = 0.25 * params.kappa * (1.0 - params.gamma)
    for j in range(1, N + 1):
        jn = 1 if j == N else j + 1
        down_j, down_n = (index >> (N - j)) & 1, (index >> (N - jn)) & 1
        rows = np.searchsorted(index, index ^ ((1 << (N - j)) | (1 << (N - jn))))
        H[rows, cols] += cxx  # accumulated in the order of the literal operator sum
        H[rows, cols] -= cyy * np.where(down_j == down_n, 1.0, -1.0)
        H[cols, cols] += 0.5 * params.h * (1.0 - 2.0 * down_j)
    return H


@dataclass
class EigenDecomposition:
    energies: np.ndarray  # ascending
    vectors: np.ndarray   # columns


def diagonalize(H: np.ndarray) -> EigenDecomposition:
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ConfigError("Hamiltonian must be a square matrix")
    # The exact test passes on every built Hamiltonian and costs one pass;
    # the tolerant one decides only when it fails.
    if not np.array_equal(H, H.conj().T) and not np.allclose(H, H.conj().T, atol=1e-12):
        raise ConfigError("Hamiltonian is not Hermitian")
    energies, vectors = np.linalg.eigh(H)
    return EigenDecomposition(energies, vectors)


def evolve(state: np.ndarray, eig: EigenDecomposition, t: float) -> np.ndarray:
    """Spectral evolution of a state vector or density matrix to time t."""
    state = np.asarray(state)
    dim = eig.energies.size
    phases = np.exp(-1j * eig.energies * float(t))
    V = eig.vectors
    if state.ndim == 1:
        if state.shape != (dim,):
            raise ConfigError("state vector dimension mismatch")
        return V @ (phases * (V.conj().T @ state))
    if state.shape != (dim, dim):
        raise ConfigError("density matrix dimension mismatch")
    M = V.conj().T @ state @ V
    M = M * np.outer(phases, phases.conj())
    return V @ M @ V.conj().T


def reduce_to_system(state: np.ndarray) -> np.ndarray:
    """Partial trace over everything but site 1; accepts vector or density."""
    state = np.asarray(state)
    if state.ndim == 1:
        half = state.size // 2
        r = state.reshape(2, half)
        return r @ r.conj().T
    half = state.shape[0] // 2
    r4 = state.reshape(2, half, 2, half)
    return np.trace(r4, axis1=1, axis2=3)


def polarization(rho2: np.ndarray) -> np.ndarray:
    """(px, py, pz) of a 2x2 density matrix."""
    rho2 = np.asarray(rho2)
    if rho2.shape != (2, 2):
        raise ConfigError("polarization needs a 2x2 density matrix")
    return np.array(
        [
            float(np.trace(SIGMA_X @ rho2).real),
            float(np.trace(SIGMA_Y @ rho2).real),
            float(np.trace(SIGMA_Z @ rho2).real),
        ]
    )


def system_density(p0: Polarization3) -> np.ndarray:
    return 0.5 * (
        ID2.astype(complex) + p0.px * SIGMA_X + p0.py * SIGMA_Y + p0.pz * SIGMA_Z
    )


def initial_state(kind: BathKind, p0: Polarization3, N: int, cap: int = DEFAULT_ED_CAP) -> np.ndarray:
    """Full-ring density matrix: probe with polarization p0 on site 1.

    INFINITE_T: maximally mixed bath on sites 2..N.
    ZERO_T: all bath spins down (field-aligned ground state for h > 0).
    """
    _check_cap(N, cap, "initial state", 16 * 4**N)
    rho_s = system_density(p0)
    half = 1 << (N - 1)
    if kind is BathKind.INFINITE_T:
        return np.kron(rho_s, np.eye(half) / half)
    if kind is BathKind.ZERO_T:
        bath = np.zeros((half, half))
        bath[half - 1, half - 1] = 1.0  # index of |down...down>
        return np.kron(rho_s, bath)
    raise ConfigError(f"unknown bath kind {kind!r}")


def _real_matmul(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """V @ C with real V and complex C via two real products."""
    return V @ C.real + 1j * (V @ C.imag)


def _zero_t_trajectory(params, p0, grid, blocks):
    """Pure pieces evolve block by block, then go back to spin order for site 1's halves."""
    dim = 1 << params.N
    half = dim // 2
    w, phi = np.linalg.eigh(system_density(p0))
    bath = np.zeros(half)
    bath[-1] = 1.0  # |down...down>
    pieces = [
        (float(wi), [_real_matmul(eig.vectors.T, np.kron(v, bath)[index]) for _, index, eig in blocks])
        for wi, v in zip(w, phi.T)
        if wi > 1e-15
    ]
    nt = grid.size
    samples = np.zeros((nt, 3))
    energy, purity, parity = np.zeros(nt), np.zeros(nt), np.zeros(nt)
    for lo in range(0, nt, _EVOLVE_CHUNK):
        hi = min(lo + _EVOLVE_CHUNK, nt)
        U = [np.exp(-1j * np.outer(eig.energies, grid[lo:hi])) for _, _, eig in blocks]
        coeffs = [[c[:, None] * u for c, u in zip(cs, U)] for _, cs in pieces]
        for (wi, _), cks in zip(pieces, coeffs):
            psi = np.empty((dim, hi - lo), dtype=complex)
            for (block, index, eig), ck in zip(blocks, cks):
                psi[index] = _real_matmul(eig.vectors, ck)
                weight = np.abs(ck) ** 2
                energy[lo:hi] += wi * (eig.energies[:, None] * weight).sum(axis=0)
                parity[lo:hi] += wi * (1.0 if block is Parity.EVEN else -1.0) * weight.sum(axis=0)
            up, down = psi[:half], psi[half:]
            cross = (up * down.conj()).sum(axis=0)
            samples[lo:hi, 0] += wi * 2.0 * cross.real
            samples[lo:hi, 1] += wi * (-2.0) * cross.imag
            samples[lo:hi, 2] += wi * ((np.abs(up) ** 2).sum(axis=0) - (np.abs(down) ** 2).sum(axis=0))
        for (wi, _), ci in zip(pieces, coeffs):
            for (wj, _), cj in zip(pieces, coeffs):
                overlap = sum((a.conj() * b).sum(axis=0) for a, b in zip(ci, cj))
                purity[lo:hi] += wi * wj * np.abs(overlap) ** 2
    return samples, energy, purity, parity


def _infinite_t_trajectory(params, p0, grid, blocks):
    """tr(rho(t) O) in the block eigenbases, rho(0) = (1 + p0 . sigma_1) / 2^N.

    sz_1 keeps each block.  sx_1 and sy_1 flip site 1, so they only join
    the even block to the odd one, and px, py are twice the real part of
    one even-odd sum.  <H>, purity and <parity> are constant under the phases.
    """
    dim = 1 << params.N
    half = dim // 2
    (_, index_e, eig_e), (_, index_o, eig_o) = blocks
    V_e, V_o = eig_e.vectors, eig_o.vectors
    z_e, z_o = (np.where(index < half, 1.0, -1.0)[:, None] for index in (index_e, index_o))  # sz_1
    flipped = V_o[np.searchsorted(index_o, index_e ^ half)]  # sx_1 V_o, on the even block's rows
    X = V_e.T @ flipped  # <even| sx_1 |odd>
    Y = -1j * (V_e.T @ (z_e * flipped))  # <even| sy_1 |odd>
    Z = (V_e.T @ (z_e * V_e), V_o.T @ (z_o * V_o))
    rho = [(np.eye(half) + p0.pz * Zb) / dim for Zb in Z]
    corner = (p0.px * X + p0.py * Y) / dim
    constants = (
        sum((r.diagonal() * eig.energies).sum() for r, eig in zip(rho, (eig_e, eig_o))),
        sum((r**2).sum() for r in rho) + 2.0 * (np.abs(corner) ** 2).sum(),
        np.trace(rho[0]) - np.trace(rho[1]),
    )
    G_z = [r * Zb for r, Zb in zip(rho, Z)]
    G_x, G_y = corner * X, corner * Y.conj()
    samples = np.zeros((grid.size, 3))
    for lo in range(0, grid.size, _EVOLVE_CHUNK):
        hi = min(lo + _EVOLVE_CHUNK, grid.size)
        U_e, U_o = (np.exp(-1j * np.outer(eig.energies, grid[lo:hi])) for eig in (eig_e, eig_o))
        samples[lo:hi, 0] = 2.0 * (U_e * (G_x @ U_o.conj())).sum(axis=0).real
        samples[lo:hi, 1] = 2.0 * (U_e * (G_y @ U_o.conj())).sum(axis=0).real
        pz = sum((U * _real_matmul(G, U.conj())).sum(axis=0) for G, U in zip(G_z, (U_e, U_o)))
        if np.abs(pz.imag).max() > 1e-8:
            raise XYChainError("observable acquired an imaginary part; oracle inconsistent")
        samples[lo:hi, 2] = pz.real
    return (samples, *(np.full(grid.size, float(c)) for c in constants))


def oracle_trajectory(
    params: ChainParams,
    kind: BathKind,
    p0: Polarization3,
    grid,
    cap: int = DEFAULT_ED_CAP,
) -> Trajectory:
    """Full 3-vector probe trajectory from dense diagonalization.

    The two parity blocks (dimension n = 2^(N-1)) are built and diagonalized
    one at a time.  meta carries per-sample <H>, full-state purity, and
    <parity> so runs can be audited for conservation.  Zero-T initial states
    evolve as a rank-<=2 mixture of pure states (exact); infinite-T states
    use the spectral representation of tr(rho(t) O), set up by four n x n
    products and costing O(n^2) per time point.
    """
    N = params.N
    # Peak in n x n float64 arrays: 6 while eigh runs on the second block (its H, eigh's
    # copy, output and 2 n^2 workspace, the first block's vectors: 232 MB measured at N = 12,
    # 3.1 GB at N = 14); about 20 in the infinite-T algebra (589 MB at N = 12).
    arrays = 20 if kind is BathKind.INFINITE_T else 6
    _check_cap(N, cap, "oracle trajectory", arrays * 8 * 4 ** (N - 1))
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or (grid.size and grid[0] < 0):
        raise ConfigError("grid must be 1-D, strictly increasing, nonnegative")
    if kind not in (BathKind.ZERO_T, BathKind.INFINITE_T):
        raise ConfigError(f"unknown bath kind {kind!r}")
    blocks = [
        (block, _block_index(N, block), diagonalize(build_hamiltonian(params, cap, block)))
        for block in (Parity.EVEN, Parity.ODD)
    ]
    run = _zero_t_trajectory if kind is BathKind.ZERO_T else _infinite_t_trajectory
    samples, energy, purity, parity = run(params, p0, grid, blocks)
    meta = {"p0": (p0.px, p0.py, p0.pz), "energy": energy, "purity": purity, "parity": parity}
    return Trajectory(grid, samples, params, Method.ED_ORACLE, kind, meta)


# --- fermionic layer -----------------------------------------------------


@dataclass
class FermionOperators:
    """Dense Jordan-Wigner/Fourier/Bogolyubov operators for one ring."""

    params: ChainParams
    a_minus_ops: tuple[np.ndarray, ...]

    def a_minus(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.params.N:
            raise ConfigError(f"site index {j} outside 1..{self.params.N}")
        return self.a_minus_ops[j - 1]

    def a_plus(self, j: int) -> np.ndarray:
        return self.a_minus(j).conj().T

    def b_minus(self, q) -> np.ndarray:
        """Momentum-space annihilator; q may be any integer or half-integer."""
        N = self.params.N
        q2 = _as_q2(q)
        out = np.zeros_like(self.a_minus_ops[0], dtype=complex)
        for n in range(1, N + 1):
            out += np.exp(-1j * np.pi * q2 * (n - 1) / N) * self.a_minus_ops[n - 1]
        return np.exp(1j * np.pi / 4) / np.sqrt(N) * out

    def b_plus(self, q) -> np.ndarray:
        return self.b_minus(q).conj().T

    def c_minus(self, q) -> np.ndarray:
        """Bogolyubov annihilator diagonalizing the sector Hamiltonian."""
        _, _, _, theta = spectral_point(self.params, q)
        return np.cos(theta / 2) * self.b_minus(q) - np.sin(theta / 2) * self.b_plus(-_as_q2(q) / 2)

    def c_plus(self, q) -> np.ndarray:
        return self.c_minus(q).conj().T


def build_fermion_operators(params: ChainParams, cap: int = DEFAULT_FERMION_CAP) -> FermionOperators:
    N = params.N
    _check_cap(N, cap, "fermion operator builder")
    strings = [np.ones(1 << N)]
    z_diag = np.array([1.0, -1.0])
    for j in range(1, N + 1):
        zj = np.kron(np.kron(np.ones(1 << (j - 1)), z_diag), np.ones(1 << (N - j)))
        strings.append(strings[-1] * zj)
    a_ops = tuple(strings[j - 1][:, None] * site_op(SIGMA_MINUS, j, N) for j in range(1, N + 1))
    return FermionOperators(params, a_ops)


class EigenstateBuilder:
    """Assembles many-body eigenstates of one parity sector.

    The pseudovacuum is the normalized image of the all-up state under
    the product of all Bogolyubov annihilators (ascending momentum);
    eigenstates apply creation operators in ascending momentum order on
    top of it.  Eigenvalue: sum of occupied E_q minus half the sector sum.
    """

    def __init__(self, params: ChainParams, parity: Parity, cap: int = DEFAULT_FERMION_CAP):
        self.params = params
        self.sector = sector_for(params, parity)
        table = spectral_table(params, self.sector)
        ops = build_fermion_operators(params, cap)
        self.E = table.E
        self.base_energy = -0.5 * float(table.E.sum())
        c_minus = [ops.c_minus(q2 / 2) for q2 in self.sector.q2]
        self._c_plus = [m.conj().T for m in c_minus]
        vac = np.zeros(1 << params.N, dtype=complex)
        vac[0] = 1.0  # all spins up
        for m in c_minus:
            vac = m @ vac
        norm = np.linalg.norm(vac)
        if norm < 1e-8:
            raise DegenerateVacuumError(
                f"pseudovacuum norm {norm:.2e} in {parity.value} sector: construction broke down"
            )
        self.vacuum = vac / norm
        self._index = {q2: i for i, q2 in enumerate(self.sector.q2)}

    def state(self, config: FermionConfig) -> np.ndarray:
        if config.parity is not self.sector.parity:
            raise ConfigError("configuration parity does not match the builder's sector")
        psi = self.vacuum
        for q2 in config.occupied_q2:
            if q2 not in self._index:
                raise ConfigError(f"momentum {q2}/2 not in sector (N={self.params.N})")
            psi = self._c_plus[self._index[q2]] @ psi
        norm = np.linalg.norm(psi)
        if norm < 1e-8:
            raise DegenerateVacuumError("eigenstate construction produced a null vector")
        return psi / norm

    def energy(self, config: FermionConfig) -> float:
        return self.base_energy + float(sum(self.E[self._index[q2]] for q2 in config.occupied_q2))


def construct_eigenstate(config: FermionConfig, params: ChainParams, cap: int = DEFAULT_FERMION_CAP):
    """(energy, vector) for one occupation configuration."""
    builder = _cached_builder(params, config.parity, cap)
    return builder.energy(config), builder.state(config)


@functools.lru_cache(maxsize=4)
def _cached_builder(params: ChainParams, parity: Parity, cap: int) -> EigenstateBuilder:
    return EigenstateBuilder(params, parity, cap)


@dataclass
class SpectrumReport:
    params: ChainParams
    max_mismatch: float
    dense_levels: np.ndarray
    reconstructed_levels: np.ndarray


def _sector_levels(params: ChainParams, parity: Parity):
    """All 2^(N-1) admissible (energy, config) pairs of one sector."""
    sector = sector_for(params, parity)
    table = spectral_table(params, sector)
    base = -0.5 * float(table.E.sum())
    N = params.N
    want_odd = parity is Parity.ODD
    out = []
    for mask in range(1 << N):
        occ = [k for k in range(N) if (mask >> k) & 1]
        if (len(occ) % 2 == 1) != want_odd:
            continue
        energy = base + float(table.E[occ].sum())
        config = FermionConfig(parity, tuple(sector.q2[k] for k in occ))
        out.append((energy, config))
    return out


def spectrum_equivalence(params: ChainParams, cap: int = DEFAULT_ED_CAP) -> SpectrumReport:
    """Compare dense eigenvalues with the fermionic reconstruction.

    Each parity block's sorted eigenvalues are paired elementwise with its
    sector's sorted levels; a gap above SPECTRUM_TOL raises SpectrumMismatchError
    naming the worst configuration.  The report lists both spectra sorted.
    """
    dense, pairs = [], []
    for parity in (Parity.ODD, Parity.EVEN):
        dense.append(np.linalg.eigvalsh(build_hamiltonian(params, cap, parity)))
        pairs += sorted(_sector_levels(params, parity), key=lambda ec: ec[0])
    dense = np.concatenate(dense)
    recon = np.array([e for e, _ in pairs])
    gaps = np.abs(dense - recon)
    worst = int(np.argmax(gaps))
    mismatch = float(gaps[worst])
    if mismatch > SPECTRUM_TOL:
        raise SpectrumMismatchError(
            f"level {worst} off by {mismatch:.3e} (config {pairs[worst][1]})",
            worst_config=pairs[worst][1],
            mismatch=mismatch,
        )
    return SpectrumReport(params, mismatch, np.sort(dense), np.sort(recon))


def eigen_matrix_element(
    bra: FermionConfig,
    ket: FermionConfig,
    observable: Observable,
    params: ChainParams,
    cap: int = DEFAULT_FERMION_CAP,
) -> complex:
    """<bra| sigma^alpha_1 |ket> between constructed eigenstates."""
    op = site_op(_OBSERVABLE_MATRIX[observable], 1, params.N)
    vb = _cached_builder(params, bra.parity, cap).state(bra)
    vk = _cached_builder(params, ket.parity, cap).state(ket)
    return complex(vb.conj() @ (op @ vk))
