"""End-to-end verification criteria.

Each test prints exactly one line of the form

    ACCEPTANCE <n>: PASS|FAIL - <measured detail>

before asserting, so a plain pytest run yields a criterion-by-criterion
scoreboard.  Criterion 8 is expected to fail: its isotropic clause asks
for behaviour the model provably does not have (see the test docstring).
"""

from __future__ import annotations

import time

import numpy as np

from xychain import (
    BathKind,
    ChainParams,
    FermionConfig,
    Parity,
    Polarization3,
    anisotropy_field_scan,
    build_hamiltonian,
    construct_eigenstate,
    detect_stages,
    diagonalize,
    evolve,
    long_time_average,
    niemeijer_trajectory,
    oracle_trajectory,
    pz_closed_form,
    pz_config_sum,
    pz_trajectory,
    quiet_cold,
    sector_for,
    spectral_table,
    spectrum_equivalence,
    sz_matrix_elements,
    timescales,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _admissible_configs(params: ChainParams, parity: Parity):
    sector = sector_for(params, parity)
    want_odd = parity is Parity.ODD
    out = []
    for mask in range(1 << params.N):
        occ = [k for k in range(params.N) if (mask >> k) & 1]
        if (len(occ) % 2 == 1) != want_odd:
            continue
        out.append(FermionConfig(parity, tuple(sector.q2[k] for k in occ)))
    return out


def test_acceptance_1_three_route_agreement():
    """Closed form, configuration sum, and dense diagonalization agree."""
    start = time.perf_counter()
    worst = 0.0
    combos = 0
    for N in (4, 6, 8):
        rng = np.random.default_rng(1)
        times = np.unique(rng.uniform(0.0, 4.0 * N, 20))
        for gamma in (0.0, 0.5, 1.0):
            for h in (2.0, 5.0):
                params = ChainParams(N=N, gamma=gamma, h=h)
                closed = np.array([pz_closed_form(params, 1.0, t) for t in times])
                config = np.array([pz_config_sum(params, 1.0, t) for t in times])
                traj = oracle_trajectory(
                    params, BathKind.INFINITE_T, Polarization3(0.0, 0.0, 1.0), times
                )
                ed = traj.samples[:, 2]
                worst = max(
                    worst,
                    float(np.abs(closed - config).max()),
                    float(np.abs(closed - ed).max()),
                    float(np.abs(config - ed).max()),
                )
                combos += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 120.0
    _report(1, ok, f"max pairwise diff {worst:.3e} over {combos} combos in {elapsed:.1f}s")


def test_acceptance_2_spectrum_reconstruction():
    """Fermionic level reconstruction matches dense spectra elementwise."""
    worst = 0.0
    for N in (4, 6, 8):
        for gamma in (0.0, 0.5, 1.0):
            for h in (2.0, 5.0):
                rep = spectrum_equivalence(ChainParams(N=N, gamma=gamma, h=h))
                worst = max(worst, rep.max_mismatch)
    ok = worst <= 1e-8
    _report(2, ok, f"max level mismatch {worst:.3e} over 18 spectra")


def test_acceptance_3_matrix_element_audit():
    """Every probe-sz matrix element between eigenstates is the diagonal /
    swap / pair-creation element that pz_config_sum sums, and parity forbids
    the rest."""
    worst_same = 0.0
    worst_cross = 0.0
    for N in (4, 6):
        sz_diag = np.repeat(np.array([1.0, -1.0]), 1 << (N - 1))
        for gamma in (0.0, 0.5, 1.0):
            for h in (2.0, 5.0):
                params = ChainParams(N=N, gamma=gamma, h=h)
                states = {}
                for parity in (Parity.ODD, Parity.EVEN):
                    states[parity] = [
                        (cfg, construct_eigenstate(cfg, params)[1])
                        for cfg in _admissible_configs(params, parity)
                    ]
                for parity, entries in states.items():
                    sector = sector_for(params, parity)
                    swap, pair = sz_matrix_elements(spectral_table(params, sector))
                    pos = {q2: k for k, q2 in enumerate(sector.q2)}
                    for i, (ca, va) in enumerate(entries):
                        for cb, vb in entries[i:]:
                            val = np.vdot(va, sz_diag * vb)
                            only_a = sorted(pos[v] for v in set(ca.occupied_q2) - set(cb.occupied_q2))
                            only_b = sorted(pos[v] for v in set(cb.occupied_q2) - set(ca.occupied_q2))
                            if not only_a and not only_b:
                                s = -np.ones(N)
                                s[[pos[v] for v in ca.occupied_q2]] = 1.0
                                ref = 0.5 * (s * np.diag(swap)).sum()
                                worst_same = max(
                                    worst_same, abs(val.real - ref), abs(val.imag)
                                )
                            elif len(only_a) == 1 and len(only_b) == 1:
                                ref = abs(swap[only_a[0], only_b[0]])
                                worst_same = max(worst_same, abs(abs(val) - ref))
                            elif (len(only_a), len(only_b)) in ((0, 2), (2, 0)):
                                a, b = only_b if only_b else only_a
                                worst_same = max(worst_same, abs(abs(val) - abs(pair[a, b])))
                            else:
                                worst_same = max(worst_same, abs(val))
                for ca, va in states[Parity.ODD]:
                    for cb, vb in states[Parity.EVEN]:
                        worst_cross = max(worst_cross, abs(np.vdot(va, sz_diag * vb)))
    ok = worst_same <= 1e-10 and worst_cross <= 1e-12
    _report(
        3,
        ok,
        f"same-sector residual {worst_same:.3e}, cross-sector leakage {worst_cross:.3e}",
    )


def test_acceptance_4_stage_boundaries_scale_with_n():
    """The regular stage ends near t = N/kappa and the first revival sits
    just past it."""
    p100 = ChainParams(N=100, h=5.0)
    rep100 = detect_stages(
        pz_trajectory(p100, 1.0, np.linspace(0.0, 400.0, 40001)), p100, 1.0
    )
    p50 = ChainParams(N=50, h=5.0)
    rep50 = detect_stages(
        pz_trajectory(p50, 1.0, np.linspace(0.0, 200.0, 20001)), p50, 1.0
    )
    ratio = rep100.t_regular_end / rep50.t_regular_end
    t_rev, h_rev = rep100.revivals[0]
    ok = (
        80.0 <= rep100.t_regular_end <= 120.0
        and 1.7 <= ratio <= 2.3
        and 100.0 <= t_rev <= 200.0
        and h_rev > 0.05
    )
    _report(
        4,
        ok,
        f"t_regular_end(100)={rep100.t_regular_end:.1f}, N-scaling ratio {ratio:.2f}, "
        f"first revival t={t_rev:.1f} height={h_rev:.3f}",
    )


def test_acceptance_5_quiet_cold_window():
    """Between decay and revival the probe is quiet and colder than its
    long-time average."""
    params = ChainParams(N=100, h=5.0)
    traj = pz_trajectory(params, 1.0, np.linspace(0.0, 2000.0, 80001))
    rep = quiet_cold(traj, params)
    target = long_time_average(1.0, 100)
    ok = (
        rep.is_cold
        and rep.mean_pz < 0.02
        and abs(rep.tail_average - target) <= 0.25 * target
    )
    _report(
        5,
        ok,
        f"window mean {rep.mean_pz:.4f}, tail average {rep.tail_average:.4f} "
        f"(infinite-time value {target:.4f}), is_cold={rep.is_cold}",
    )


def test_acceptance_6_weak_coupling_law():
    """Dense zero-temperature dynamics at strong field reproduces the
    J0 decay law, with the expected 1.35 timescale ratio."""
    params = ChainParams(N=12, gamma=0.0, h=10.0)
    grid = np.linspace(0.0, 4.0, 401)
    p0 = Polarization3(0.6, 0.0, 0.8)
    ed = oracle_trajectory(params, BathKind.ZERO_T, p0, grid)
    weak = niemeijer_trajectory(p0, params, grid)
    dev = float(np.abs(ed.samples - weak.samples).max())
    rep = timescales(ed)
    ok = dev <= 0.05 and 1.1 < rep.ratio < 1.4
    _report(6, ok, f"max |ED - J0 law| = {dev:.3e}, timescale ratio {rep.ratio:.3f}")


def test_acceptance_7_conserved_quantities():
    """Unitary evolution of random mixed states preserves trace, energy,
    purity, parity, and positivity."""
    rng = np.random.default_rng(7)
    worst = 0.0
    min_eig = np.inf
    for N in (4, 6):
        dim = 1 << N
        pi_diag = np.where(
            np.array([bin(i).count("1") % 2 for i in range(dim)]) == 1, -1.0, 1.0
        )
        for gamma in (0.0, 1.0):
            for h in (2.0, 5.0):
                params = ChainParams(N=N, gamma=gamma, h=h)
                H = build_hamiltonian(params)
                eig = diagonalize(H)
                for _ in range(10):
                    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                    rho = G @ G.conj().T
                    rho /= np.trace(rho).real
                    base = (
                        np.trace(rho).real,
                        np.trace(rho @ H).real,
                        np.trace(rho @ rho).real,
                        (pi_diag * np.diag(rho)).sum().real,
                    )
                    for t in (0.7, 3.1):
                        rt = evolve(rho, eig, t)
                        now = (
                            np.trace(rt).real,
                            np.trace(rt @ H).real,
                            np.trace(rt @ rt).real,
                            (pi_diag * np.diag(rt)).sum().real,
                        )
                        worst = max(worst, max(abs(a - b) for a, b in zip(base, now)))
                        min_eig = min(min_eig, float(np.linalg.eigvalsh(rt).min()))
    ok = worst <= 1e-10 and min_eig >= -1e-10
    _report(7, ok, f"max drift {worst:.3e}, min density eigenvalue {min_eig:.3e}")


def test_acceptance_8_field_dependence_of_late_oscillations():
    """Late-time oscillation amplitude should grow with the field at both
    gamma = 0 and gamma = 1.

    The anisotropic half is true.  The isotropic half is provably false:
    at gamma = 0 the field enters every mode energy as the same additive
    shift, which cancels identically in the squared sums that make up pz,
    so the amplitude is exactly field-independent and no implementation
    can show an increase.  This test is expected to fail; it is kept
    faithful to the stated criterion rather than weakened.
    """
    rows = anisotropy_field_scan(100, 1.0, [0.0, 1.0], [2.0, 10.0])
    amp = {(r.gamma, r.h): r.amplitude for r in rows}
    iso_gain = amp[(0.0, 10.0)] - amp[(0.0, 2.0)]
    aniso_ok = amp[(1.0, 10.0)] > amp[(1.0, 2.0)]
    iso_ok = iso_gain > 1e-6  # guard above float noise: requires a real increase
    ok = aniso_ok and iso_ok
    _report(
        8,
        ok,
        f"gamma=1 amplitudes {amp[(1.0, 2.0)]:.4f} -> {amp[(1.0, 10.0)]:.4f} (grows), "
        f"gamma=0 gain {iso_gain:.3e} (pz is exactly field-independent at gamma=0, "
        "so the isotropic clause is unsatisfiable)",
    )
