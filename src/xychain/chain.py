"""Ring geometry, parity sectors, and single-mode spectral data.

The chain is a ring of N spin-1/2 sites (N even) with anisotropy gamma,
coupling kappa and transverse field h.  After the fermionic mapping the
Hilbert space splits into two parity sectors; each carries its own set of
N momenta.  Momenta are half-integers in the even-parity sector and
integers in the odd one, so everything downstream stores *twice* the
momentum as an exact int (``q2``) and converts to an angle 2*pi*q/N only
at evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateAngleError


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"


@dataclass(frozen=True)
class ChainParams:
    """Static parameters of the ring.

    strict=True (default) enforces the h > kappa regime in which every
    single-mode energy is positive and the Bogolyubov angle is globally
    well defined.  strict=False admits any h >= 0 but clears
    ``field_above_coupling`` so callers can see they are off-regime.
    """

    N: int
    kappa: float = 1.0
    gamma: float = 0.0
    h: float = 5.0
    strict: bool = True

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2 or self.N % 2:
            raise ConfigError(f"N must be an even integer >= 2, got {self.N!r}")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ConfigError(f"kappa must be positive and finite, got {self.kappa!r}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if not (self.h >= 0 and math.isfinite(self.h)):
            raise ConfigError(f"h must be nonnegative and finite, got {self.h!r}")
        if self.strict and not self.h > self.kappa:
            raise ConfigError(
                f"h={self.h} <= kappa={self.kappa}: outside the supported regime "
                "(pass strict=False to construct anyway)"
            )

    @property
    def field_above_coupling(self) -> bool:
        return self.h > self.kappa


@dataclass(frozen=True)
class MomentumSector:
    """One parity sector's momentum grid, stored as twice-momenta ints."""

    parity: Parity
    N: int
    q2: tuple[int, ...]

    def __post_init__(self):
        if len(self.q2) != self.N:
            raise ConfigError(f"sector must hold N={self.N} momenta, got {len(self.q2)}")
        if any(b <= a for a, b in zip(self.q2, self.q2[1:])):
            raise ConfigError("sector momenta must be strictly increasing")
        want_odd_q2 = self.parity is Parity.EVEN  # half-integer momenta
        if any((v % 2 == 0) == want_odd_q2 for v in self.q2):
            raise ConfigError(f"momentum grid does not match parity {self.parity}")

    def __len__(self) -> int:
        return self.N

    @property
    def momenta(self) -> np.ndarray:
        return np.asarray(self.q2, dtype=np.float64) / 2.0

    @property
    def angles(self) -> np.ndarray:
        """2*pi*q/N for each momentum, from exact integer q2."""
        return np.pi * np.asarray(self.q2, dtype=np.float64) / self.N

    def index_of(self, q) -> int:
        q2 = _as_q2(q)
        try:
            return self.q2.index(q2)
        except ValueError:
            raise ConfigError(f"momentum {q} not in {self.parity.value} sector (N={self.N})") from None


def _as_q2(q) -> int:
    """Twice the momentum as an exact int; rejects non-(half-)integers."""
    if isinstance(q, Fraction):
        doubled = 2 * q
        if doubled.denominator != 1:
            raise ConfigError(f"momentum {q} is not integer or half-integer")
        return int(doubled)
    doubled = 2.0 * float(q)
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ConfigError(f"momentum {q} is not integer or half-integer")
    return int(rounded)


def build_sectors(params: ChainParams) -> tuple[MomentumSector, MomentumSector]:
    """(odd, even) momentum sectors for the ring.

    Odd parity: integers -N/2+1 .. N/2; even parity: half-integers
    -N/2+1/2 .. N/2-1/2.  Both contain exactly N values; only the odd
    sector contains q = 0 and q = N/2.
    """
    N = params.N
    odd = MomentumSector(Parity.ODD, N, tuple(range(-N + 2, N + 1, 2)))
    even = MomentumSector(Parity.EVEN, N, tuple(range(-N + 1, N, 2)))
    return odd, even


def sector_for(params: ChainParams, parity: Parity) -> MomentumSector:
    odd, even = build_sectors(params)
    return odd if parity is Parity.ODD else even


@dataclass(frozen=True)
class SpectralTable:
    """Per-momentum spectral data for one sector.

    theta is the Bogolyubov angle atan2(-Gamma, epsilon), in (-pi, pi]:
    past pi/2 in magnitude where epsilon < 0, which only h <= kappa
    reaches.  cos_theta is the ratio epsilon/E used by the closed-form
    sums; it equals cos(theta) up to rounding.
    """

    params: ChainParams
    sector: MomentumSector
    epsilon: np.ndarray
    Gamma: np.ndarray
    E: np.ndarray
    theta: np.ndarray
    cos_theta: np.ndarray
    degenerate: bool


def spectral_table(params: ChainParams, sector: MomentumSector) -> SpectralTable:
    ang = sector.angles
    eps = params.h - params.kappa * np.cos(ang)
    Gam = params.gamma * params.kappa * np.sin(ang)
    E = np.hypot(eps, Gam)
    # E = 0 only off-regime (strict mode keeps E >= h - kappa > 0); such a
    # mode gets theta = 0 and ratio 1.
    dead = E == 0.0
    theta = np.where(dead, 0.0, np.arctan2(-Gam, eps))
    cos_th = np.where(dead, 1.0, eps / np.where(dead, 1.0, E))
    for arr in (eps, Gam, E, theta, cos_th):
        arr.setflags(write=False)
    return SpectralTable(params, sector, eps, Gam, E, theta, cos_th, bool(dead.any()))


def spectral_point(params: ChainParams, q) -> tuple[float, float, float, float]:
    """(epsilon, Gamma, E, theta) for a single momentum, sector-agnostic."""
    q2 = _as_q2(q)
    ang = math.pi * q2 / params.N
    eps = params.h - params.kappa * math.cos(ang)
    Gam = params.gamma * params.kappa * math.sin(ang)
    E = math.hypot(eps, Gam)
    if E == 0.0:
        raise DegenerateAngleError(f"E = 0 at q = {q2}/2: Bogolyubov angle undefined")
    return eps, Gam, E, math.atan2(-Gam, eps)


def cos_theta(table: SpectralTable, q) -> float:
    """Signed epsilon/E ratio at momentum q (exactly 1 when gamma = 0)."""
    i = table.sector.index_of(q)
    if table.E[i] == 0.0:
        raise DegenerateAngleError(f"E = 0 at q = {q}: ratio undefined")
    return float(table.cos_theta[i])
