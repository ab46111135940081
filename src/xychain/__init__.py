"""Reduced dynamics of a probe spin on a finite transverse-field XY ring.

Exact free-fermion closed forms, weak-coupling Bessel approximations, a
dense exact-diagonalization oracle, and detectors for decoherence and
thermal-relaxation timescales, finite-size revivals, and the quiet-cold
window.
"""

__version__ = "0.1.0"

from .analysis import (
    QuietColdReport,
    ScanPoint,
    StageReport,
    TimescaleReport,
    anisotropy_field_scan,
    detect_stages,
    quiet_cold,
    timescales,
)
from .approx import (
    Polarization3,
    long_time_average,
    niemeijer_solution,
    niemeijer_trajectory,
    regular_stage_pz,
    smoothed_envelope,
)
from .bessel import bessel_j0
from .chain import (
    ChainParams,
    MomentumSector,
    Parity,
    SpectralTable,
    build_sectors,
    sector_for,
    spectral_table,
)
from .dynamics import (
    BathKind,
    FermionConfig,
    Method,
    Trajectory,
    pz_closed_form,
    pz_config_sum,
    pz_trajectory,
    sz_matrix_elements,
)
from .errors import (
    AnalysisError,
    CapExceededError,
    ConfigError,
    DegenerateVacuumError,
    GridTooCoarseError,
    InsufficientTailError,
    NoCrossingError,
    SpectrumMismatchError,
    XYChainError,
)
from .oracle import (
    EigenDecomposition,
    EigenstateBuilder,
    FermionOperators,
    Observable,
    SpectrumReport,
    build_fermion_operators,
    build_hamiltonian,
    construct_eigenstate,
    diagonalize,
    eigen_matrix_element,
    evolve,
    initial_state,
    oracle_trajectory,
    polarization,
    reduce_to_system,
    spectrum_equivalence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
