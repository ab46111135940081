"""Weak-coupling closed forms for the probe polarization.

The Niemeijer solution applies to an isotropic (gamma = 0) ring at zero
temperature with kappa << h, before the wrap-around time N/kappa: the
transverse components precess at the field frequency inside a J0(kappa t)
envelope and pz relaxes toward -1 with the J0^2 factor.  The same J0^2
shape governs the regular stage of the infinite-temperature pz, whose
smoothed decay is p0z/(pi kappa t) and whose long-time average is
2 p0z / N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j0
from .chain import ChainParams
from .dynamics import BathKind, Method, Trajectory
from .errors import ConfigError


@dataclass(frozen=True)
class Polarization3:
    """Bloch vector of the probe; must stay inside the unit ball."""

    px: float
    py: float
    pz: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.px, self.py, self.pz))):
            raise ConfigError("polarization components must be finite")
        if self.norm > 1.0 + 1e-9:
            raise ConfigError(f"|p| = {self.norm} exceeds 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.px**2 + self.py**2 + self.pz**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])

    @classmethod
    def from_array(cls, arr) -> "Polarization3":
        x, y, z = np.asarray(arr, dtype=np.float64)
        return cls(float(x), float(y), float(z))


def _niemeijer(p0: Polarization3, h: float, kappa: float, t: np.ndarray) -> np.ndarray:
    """(n, 3) zero-temperature weak-coupling Bloch vectors at the times t.

    A rotation at the field frequency combined with a J0(kappa t)
    contraction toward the south pole.
    """
    j = bessel_j0(kappa * t)
    c = np.cos(h * t)
    s = np.sin(h * t)
    samples = np.empty((t.size, 3))
    samples[:, 0] = j * (p0.px * c - p0.py * s)
    samples[:, 1] = j * (p0.px * s + p0.py * c)
    samples[:, 2] = -1.0 + (1.0 + p0.pz) * j * j
    return samples


def niemeijer_solution(p0: Polarization3, h: float, kappa: float, t: float) -> Polarization3:
    """Zero-temperature weak-coupling polarization at time t.

    Exact in the gamma = 0, kappa << h, t < N/kappa regime; the output is
    a valid Bloch vector for any input.
    """
    return Polarization3.from_array(_niemeijer(p0, h, kappa, np.array([float(t)]))[0])


def niemeijer_trajectory(p0: Polarization3, params: ChainParams, grid) -> Trajectory:
    """The Niemeijer solution over a grid, with regime-validity flags in meta."""
    grid = np.asarray(grid, dtype=np.float64)
    samples = _niemeijer(p0, params.h, params.kappa, grid)
    meta = {
        "p0": (p0.px, p0.py, p0.pz),
        "validity": {
            "gamma_zero": params.gamma == 0.0,
            "field_to_coupling_ratio": params.h / params.kappa,
            "grid_before_wraparound": bool(grid.size == 0 or grid[-1] < params.N / params.kappa),
        },
    }
    return Trajectory(grid, samples, params, Method.NIEMEIJER, BathKind.ZERO_T, meta)


def regular_stage_pz(p0z: float, kappa: float, t):
    """Infinite-temperature pz during the regular stage: p0z * J0(kappa t)^2."""
    j = bessel_j0(np.asarray(t, dtype=np.float64) * kappa)
    return p0z * j * j


def smoothed_envelope(p0z: float, kappa: float, t):
    """Oscillation-averaged regular-stage decay p0z/(pi kappa t); t > 0 only."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0):
        raise ConfigError("smoothed envelope is defined for t > 0 only")
    out = p0z / (np.pi * kappa * t)
    return float(out) if out.ndim == 0 else out


def long_time_average(p0z: float, N: int) -> float:
    """Infinite-time average of pz on a finite ring: 2 p0z / N."""
    if not isinstance(N, int) or N < 2 or N % 2:
        raise ConfigError(f"N must be an even integer >= 2, got {N!r}")
    return 2.0 * p0z / N
