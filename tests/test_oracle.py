"""Dense oracle: Hamiltonian, evolution, reduction, fermionic layer."""

from __future__ import annotations

import numpy as np
import pytest

from xychain import (
    BathKind,
    CapExceededError,
    ChainParams,
    ConfigError,
    EigenstateBuilder,
    FermionConfig,
    Observable,
    Parity,
    Polarization3,
    SpectrumMismatchError,
    build_fermion_operators,
    build_hamiltonian,
    build_sectors,
    construct_eigenstate,
    diagonalize,
    eigen_matrix_element,
    evolve,
    initial_state,
    oracle_trajectory,
    polarization,
    pz_closed_form,
    reduce_to_system,
    sector_for,
    spectral_table,
    spectrum_equivalence,
    sz_matrix_elements,
)
from xychain import oracle
from xychain.oracle import _OBSERVABLE_MATRIX, SIGMA_X, SIGMA_Y, SIGMA_Z, site_op

IW = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i sigma_y, real
P6 = ChainParams(N=6, kappa=1.0, gamma=1.0, h=2.0)
P0 = Polarization3(0.6, 0.0, 0.8)


def test_hamiltonian_matches_complex_construction():
    # independent rebuild with literal complex sigma_y factors
    params = ChainParams(N=4, kappa=1.3, gamma=0.4, h=2.0)
    H = build_hamiltonian(params)
    assert H.dtype == np.float64
    assert np.array_equal(H, H.T)
    N = params.N
    ref = np.zeros((2**N, 2**N), dtype=complex)
    sx = [site_op(np.array([[0.0, 1.0], [1.0, 0.0]]), j, N) for j in range(1, N + 1)]
    sy = [site_op(SIGMA_Y, j, N) for j in range(1, N + 1)]
    sz = [site_op(np.diag([1.0, -1.0]), j, N) for j in range(1, N + 1)]
    for j in range(N):
        jn = (j + 1) % N
        ref += 0.25 * params.kappa * (1 + params.gamma) * sx[j] @ sx[jn]
        ref += 0.25 * params.kappa * (1 - params.gamma) * sy[j] @ sy[jn]
        ref += 0.5 * params.h * sz[j]
    assert np.abs(ref.imag).max() < 1e-13
    assert np.abs(H - ref.real).max() < 1e-13


def _literal_hamiltonian(params):
    """The operator sum with site_op factors, accumulated bond by bond."""
    N = params.N
    cxx = 0.25 * params.kappa * (1.0 + params.gamma)
    cyy = 0.25 * params.kappa * (1.0 - params.gamma)
    H = np.zeros((2**N, 2**N))
    for j in range(1, N + 1):
        jn = 1 if j == N else j + 1
        H += cxx * (site_op(SIGMA_X, j, N) @ site_op(SIGMA_X, jn, N))
        H -= cyy * (site_op(IW, j, N) @ site_op(IW, jn, N))
        H += 0.5 * params.h * site_op(SIGMA_Z, j, N)
    return H


def _block(N, parity):
    want = 1 if parity is Parity.ODD else 0
    return np.array([i for i in range(2**N) if bin(i).count("1") % 2 == want])


@pytest.mark.parametrize("N", [2, 4, 6, 8])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_bit_built_hamiltonian_and_blocks(N, gamma):
    params = ChainParams(N=N, kappa=1.3, gamma=gamma, h=2.0)
    H = build_hamiltonian(params)
    assert np.array_equal(H, _literal_hamiltonian(params))
    for parity in (Parity.EVEN, Parity.ODD):
        idx = _block(N, parity)
        assert np.array_equal(build_hamiltonian(params, block=parity), H[np.ix_(idx, idx)])


def _reference_trajectory(params, kind, p0, grid):
    """Full-matrix eigh and the spectral evolution formulas on the whole space."""
    N = params.N
    half = 2 ** (N - 1)
    energies, V = np.linalg.eigh(_literal_hamiltonian(params))
    pi = np.diag([(-1.0) ** bin(i).count("1") for i in range(2**N)])
    U = np.exp(-1j * np.outer(energies, grid))
    if kind is BathKind.INFINITE_T:
        rho = V.T @ initial_state(kind, p0, N) @ V
        obs = [V.T @ site_op(_OBSERVABLE_MATRIX[o], 1, N) @ V for o in Observable] + [V.T @ pi @ V]
        vals = [(U * ((rho * o.T) @ U.conj())).sum(axis=0).real for o in obs]
        energy = np.full(grid.size, (rho.diagonal().real * energies).sum())
        purity = np.full(grid.size, (np.abs(rho) ** 2).sum())
        return np.stack(vals[:3], axis=1), energy, purity, vals[3]
    w, phi = np.linalg.eigh(oracle.system_density(p0))
    bath = np.zeros(half)
    bath[-1] = 1.0
    coeffs = [(V.T @ np.kron(phi[:, i], bath))[:, None] * U for i in range(2)]
    psis = [V @ c for c in coeffs]
    samples = sum(
        wi * np.array([polarization(reduce_to_system(psi[:, k])) for k in range(grid.size)])
        for wi, psi in zip(w, psis)
    )
    energy = sum(wi * (energies[:, None] * np.abs(c) ** 2).sum(axis=0) for wi, c in zip(w, coeffs))
    parity = sum(
        wi * (pi.diagonal()[:, None] * np.abs(psi) ** 2).sum(axis=0) for wi, psi in zip(w, psis)
    )
    purity = sum(
        wi * wj * np.abs((ci.conj() * cj).sum(axis=0)) ** 2
        for wi, ci in zip(w, coeffs)
        for wj, cj in zip(w, coeffs)
    )
    return samples, energy, purity, parity


@pytest.mark.parametrize("N", [6, 8, 10])
@pytest.mark.parametrize("kind", [BathKind.ZERO_T, BathKind.INFINITE_T])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_block_oracle_matches_full_matrix_reference(N, kind, gamma):
    params = ChainParams(N=N, kappa=1.0, gamma=gamma, h=2.0)
    p0 = Polarization3(0.3, -0.4, 0.5)  # mixed, so zero T evolves two pieces
    grid = np.linspace(0.0, 12.0, 260)  # crosses an evolution-chunk boundary
    traj = oracle_trajectory(params, kind, p0, grid)
    samples, energy, purity, parity = _reference_trajectory(params, kind, p0, grid)
    assert np.abs(traj.samples - samples).max() < 1e-12
    assert np.abs(traj.meta["energy"] - energy).max() < 1e-12
    assert np.abs(traj.meta["purity"] - purity).max() < 1e-12
    assert np.abs(traj.meta["parity"] - parity).max() < 1e-12


def test_memory_estimate_refuses_before_allocating(monkeypatch):
    available = oracle._mem_available()  # read from /proc/meminfo where it exists
    assert available is None or available > 0

    class Built(Exception):
        pass

    def no_build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(oracle, "build_hamiltonian", no_build)
    big = ChainParams(N=14, h=5.0)
    monkeypatch.setattr(oracle, "_mem_available", lambda: 7 * 2**30)  # a 7 GiB machine
    with pytest.raises(CapExceededError, match="GiB"):
        oracle_trajectory(big, BathKind.INFINITE_T, P0, np.array([0.0]), cap=14)
    with pytest.raises(Built):  # zero T at N = 14 (3.1 GB measured) passes the estimate
        oracle_trajectory(big, BathKind.ZERO_T, P0, np.array([0.0]), cap=14)
    monkeypatch.setattr(oracle, "_mem_available", lambda: 2**30)
    with pytest.raises(Built):  # N = 12 stays within 1 GiB at either temperature
        oracle_trajectory(ChainParams(N=12, h=5.0), BathKind.INFINITE_T, P0, np.array([0.0]))
    monkeypatch.setattr(oracle, "_mem_available", lambda: 2**20)
    with pytest.raises(CapExceededError):
        initial_state(BathKind.ZERO_T, P0, 10)  # needs 16 MiB


def test_hamiltonian_commutes_with_parity():
    H = build_hamiltonian(P6)
    pi_diag = np.where(
        np.array([bin(i).count("1") % 2 for i in range(2**6)]) == 1, -1.0, 1.0
    )
    comm = H * pi_diag[None, :] - pi_diag[:, None] * H
    assert np.abs(comm).max() == 0.0  # H only connects equal-parity states


def test_caps():
    with pytest.raises(CapExceededError):
        build_hamiltonian(ChainParams(N=16, h=5.0))  # above the hard cap
    with pytest.raises(CapExceededError):
        build_hamiltonian(ChainParams(N=14, h=5.0), cap=12)
    with pytest.raises(CapExceededError):
        build_fermion_operators(ChainParams(N=12, h=5.0))


def test_diagonalize_and_evolve():
    H = build_hamiltonian(P6)
    eig = diagonalize(H)
    assert np.all(np.diff(eig.energies) >= 0)
    with pytest.raises(ConfigError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    rng = np.random.default_rng(3)
    psi = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    psi /= np.linalg.norm(psi)
    psi_t = evolve(psi, eig, 2.1)
    assert abs(np.linalg.norm(psi_t) - 1.0) < 1e-12
    e0 = psi.conj() @ H @ psi
    et = psi_t.conj() @ H @ psi_t
    assert abs(e0 - et) < 1e-10
    # density route consistent with the vector route
    rho_t = evolve(np.outer(psi, psi.conj()), eig, 2.1)
    assert np.abs(rho_t - np.outer(psi_t, psi_t.conj())).max() < 1e-12
    with pytest.raises(ConfigError):
        evolve(psi[:5], eig, 1.0)


def test_diagonalize_tolerates_rounding_asymmetry_only():
    # the exact test decides first; the tolerant fallback (np.allclose with
    # atol 1e-12 and its default rtol 1e-5) accepts rounding-level asymmetry only
    assert diagonalize(np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])).energies.size == 2
    with pytest.raises(ConfigError):
        diagonalize(np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]]))


def test_initial_state_and_reduction_roundtrip():
    for kind in (BathKind.INFINITE_T, BathKind.ZERO_T):
        rho = initial_state(kind, P0, 5)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        # tracing the bath out sums many equal summands, so allow an ulp
        assert np.abs(polarization(reduce_to_system(rho)) - P0.as_array()).max() < 1e-14
    pure = initial_state(BathKind.ZERO_T, Polarization3(0.0, 0.0, 1.0), 4)
    assert abs(np.trace(pure @ pure) - 1.0) < 1e-14
    with pytest.raises(CapExceededError):
        initial_state(BathKind.INFINITE_T, P0, 20)


def test_infinite_t_reduced_pz_matches_closed_form():
    params = ChainParams(N=8, kappa=1.0, gamma=0.0, h=5.0)
    eig = diagonalize(build_hamiltonian(params))
    rho0 = initial_state(BathKind.INFINITE_T, Polarization3(0.0, 0.0, 1.0), 8)
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        pz_ed = polarization(reduce_to_system(evolve(rho0, eig, t)))[2]
        assert abs(pz_ed - pz_closed_form(params, 1.0, t)) < 1e-9


def test_oracle_trajectory_matches_literal_density_route():
    grid = np.array([0.0, 0.5, 1.7, 4.0])
    eig = diagonalize(build_hamiltonian(P6))
    for kind in (BathKind.ZERO_T, BathKind.INFINITE_T):
        traj = oracle_trajectory(P6, kind, P0, grid)
        rho0 = initial_state(kind, P0, 6)
        assert traj.bath is kind
        for i, t in enumerate(grid):
            ref = polarization(reduce_to_system(evolve(rho0, eig, float(t))))
            assert np.abs(traj.samples[i] - ref).max() < 1e-12
        # audit channels stay put
        assert np.ptp(traj.meta["energy"]) < 1e-10
        assert np.ptp(traj.meta["purity"]) < 1e-10
        assert np.ptp(traj.meta["parity"]) < 1e-10


def test_oracle_trajectory_grid_validation():
    with pytest.raises(ConfigError):
        oracle_trajectory(P6, BathKind.ZERO_T, P0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ConfigError):
        oracle_trajectory(P6, BathKind.ZERO_T, P0, np.array([-1.0, 1.0]))
    with pytest.raises(CapExceededError):
        oracle_trajectory(ChainParams(N=14, h=5.0), BathKind.ZERO_T, P0, np.array([0.0]))


def test_canonical_anticommutation():
    ops = build_fermion_operators(P6)
    dim = 2**6
    for i in (1, 3, 6):
        for j in (1, 4):
            anti = ops.a_minus(i) @ ops.a_plus(j) + ops.a_plus(j) @ ops.a_minus(i)
            want = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.abs(anti - want).max() < 1e-13
            zero = ops.a_minus(i) @ ops.a_minus(j) + ops.a_minus(j) @ ops.a_minus(i)
            assert np.abs(zero).max() < 1e-13


def test_momentum_anticommutation_same_sector():
    params = ChainParams(N=4, kappa=1.0, gamma=0.7, h=3.0)
    ops = build_fermion_operators(params)
    for qa in (-1.0, 0.0, 1.0, 2.0):
        for qb in (-1.0, 0.0, 1.0, 2.0):
            anti = ops.b_minus(qa) @ ops.b_plus(qb) + ops.b_plus(qb) @ ops.b_minus(qa)
            want = np.eye(2**4) if qa == qb else np.zeros((2**4, 2**4))
            assert np.abs(anti - want).max() < 1e-12
    # Bogolyubov modes inherit the algebra
    anti = ops.c_minus(1.0) @ ops.c_plus(1.0) + ops.c_plus(1.0) @ ops.c_minus(1.0)
    assert np.abs(anti - np.eye(2**4)).max() < 1e-12


def test_cross_sector_anticommutator_value():
    # {b_k, b_q^+} for k, q in different sectors is a multiple of the identity
    # with |value| = |(1/N)(1 - e^{2 pi i (k-q)}) / (1 - e^{2 pi i (k-q)/N})|
    params = ChainParams(N=4, kappa=1.0, gamma=0.5, h=3.0)
    ops = build_fermion_operators(params)
    k, q = 1.0, 0.5
    anti = ops.b_minus(k) @ ops.b_plus(q) + ops.b_plus(q) @ ops.b_minus(k)
    off = anti - np.diag(np.diag(anti))
    assert np.abs(off).max() < 1e-12
    diag = np.diag(anti)
    assert np.abs(diag - diag[0]).max() < 1e-12
    N = params.N
    z = np.exp(2j * np.pi * (k - q))
    zn = np.exp(2j * np.pi * (k - q) / N)
    expected = abs((1.0 - z) / (N * (1.0 - zn)))
    assert abs(abs(diag[0]) - expected) < 1e-12
    assert abs(abs(diag[0]) - 0.6532814824381883) < 1e-12  # frozen dense value


def test_fermionic_hamiltonian_reconstruction():
    # H = sum_sector P_sector [ sum_q E_q c_q^+ c_q^- - (1/2) sum_q E_q ]
    H = build_hamiltonian(P6)
    dim = 2**6
    ops = build_fermion_operators(P6)
    pi_diag = np.where(
        np.array([bin(i).count("1") % 2 for i in range(dim)]) == 1, -1.0, 1.0
    )
    projector = {
        Parity.EVEN: np.diag((1.0 + pi_diag) / 2.0),
        Parity.ODD: np.diag((1.0 - pi_diag) / 2.0),
    }
    recon = np.zeros((dim, dim), dtype=complex)
    for parity in (Parity.ODD, Parity.EVEN):
        sector = sector_for(P6, parity)
        table = spectral_table(P6, sector)
        h_sector = -0.5 * table.E.sum() * np.eye(dim, dtype=complex)
        for q2, energy in zip(sector.q2, table.E):
            c = ops.c_minus(q2 / 2)
            h_sector += energy * (c.conj().T @ c)
        recon += h_sector @ projector[parity]
    assert np.abs(recon.imag).max() < 1e-12
    assert np.abs(recon.real - H).max() < 1e-12


def test_eigenstates_are_eigenstates():
    H = build_hamiltonian(P6)
    for momenta in ([0], [-1, 0, 1], [-2, 0, 2], [1]):
        cfg = FermionConfig.from_momenta(momenta)
        energy, psi = construct_eigenstate(cfg, P6)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        residual = np.linalg.norm(H @ psi - energy * psi)
        assert residual < 1e-9
    # even-sector states too (vacuum and a pair)
    for momenta in ([], [-0.5, 0.5], [0.5, 1.5]):
        cfg = FermionConfig.from_momenta(momenta)
        energy, psi = construct_eigenstate(cfg, P6)
        assert np.linalg.norm(H @ psi - energy * psi) < 1e-9


def test_spectrum_equivalence_report():
    rep = spectrum_equivalence(ChainParams(N=6, kappa=1.0, gamma=0.5, h=2.0))
    assert rep.max_mismatch < 1e-10
    assert rep.dense_levels.size == 2**6
    # ground state is the even-sector pseudovacuum at strong field
    t_even = spectral_table(P6, sector_for(P6, Parity.EVEN))
    dense0 = np.linalg.eigvalsh(build_hamiltonian(P6))[0]
    assert abs(dense0 - (-0.5 * t_even.E.sum())) < 1e-12


def test_spectrum_equivalence_pairs_each_block_with_its_sector(monkeypatch):
    # swapping the sectors leaves the merged spectrum unchanged; a per-sector check must see it
    levels = oracle._sector_levels
    other = {Parity.ODD: Parity.EVEN, Parity.EVEN: Parity.ODD}
    monkeypatch.setattr(oracle, "_sector_levels", lambda params, parity: levels(params, other[parity]))
    with pytest.raises(SpectrumMismatchError):
        spectrum_equivalence(P6)


@pytest.mark.parametrize("gamma, h", [(0.5, 0.5), (1.0, 0.0)])
def test_fermionic_referee_refuses_field_below_coupling(gamma, h):
    # Where epsilon < 0 the reconstructed levels miss the dense ones (by 0.43
    # at (0.5, 0.5) and 1.0 at (1, 0)); the referee refuses rather than mismatch.
    params = ChainParams(N=6, kappa=1.0, gamma=gamma, h=h, strict=False)
    with pytest.raises(ConfigError, match="h > kappa"):
        spectrum_equivalence(params)
    for parity in Parity:
        with pytest.raises(ConfigError, match="h > kappa"):
            EigenstateBuilder(params, parity)
    with pytest.raises(ConfigError, match="h > kappa"):
        construct_eigenstate(FermionConfig.from_momenta([0]), params)


def test_matrix_elements_against_dense_states():
    sector = sector_for(P6, Parity.ODD)
    swap, pair = sz_matrix_elements(spectral_table(P6, sector))
    k = {q: sector.index_of(q) for q in (-2, -1, 0, 1, 2)}
    bra = FermionConfig.from_momenta([-1, 0, 1])
    ket = FermionConfig.from_momenta([-1, 0, 1])
    val = eigen_matrix_element(bra, ket, Observable.SZ, P6)
    assert abs(val.imag) < 1e-12
    s = -np.ones(P6.N)
    s[[k[-1], k[0], k[1]]] = 1.0
    assert abs(val.real - 0.5 * (s * np.diag(swap)).sum()) < 1e-10
    # swap: one momentum moves 1 -> 2
    ket_swap = FermionConfig.from_momenta([-1, 0, 2])
    val = eigen_matrix_element(bra, ket_swap, Observable.SZ, P6)
    assert abs(abs(val) - abs(swap[k[1], k[2]])) < 1e-10
    # pair: two momenta added on top
    ket_pair = FermionConfig.from_momenta([-2, -1, 0, 1, 2])
    val = eigen_matrix_element(bra, ket_pair, Observable.SZ, P6)
    assert abs(abs(val) - abs(pair[k[-2], k[2]])) < 1e-10
    # three-momentum rearrangement: forbidden
    ket_far = FermionConfig.from_momenta([-2, 2, 3])
    assert abs(eigen_matrix_element(bra, ket_far, Observable.SZ, P6)) < 1e-10


def test_selection_rules_transverse_vs_longitudinal():
    odd_cfg = FermionConfig.from_momenta([0])
    even_cfg = FermionConfig.from_momenta([])
    even_pair = FermionConfig.from_momenta([-0.5, 0.5])
    # sz preserves parity: zero across sectors
    assert abs(eigen_matrix_element(odd_cfg, even_cfg, Observable.SZ, P6)) < 1e-12
    # sx, sy flip parity: zero within a sector, nonzero across
    assert abs(eigen_matrix_element(odd_cfg, odd_cfg, Observable.SX, P6)) < 1e-12
    assert abs(eigen_matrix_element(even_cfg, even_pair, Observable.SY, P6)) < 1e-12
    assert abs(eigen_matrix_element(odd_cfg, even_cfg, Observable.SX, P6)) > 1e-3


def test_zero_t_oracle_against_weak_coupling():
    # small ring, strong field: the J0 envelope should already be visible
    from xychain import niemeijer_trajectory

    params = ChainParams(N=8, kappa=1.0, gamma=0.0, h=10.0)
    grid = np.linspace(0.0, 3.0, 61)
    ed = oracle_trajectory(params, BathKind.ZERO_T, P0, grid)
    weak = niemeijer_trajectory(P0, params, grid)
    assert np.abs(ed.samples - weak.samples).max() < 0.1
