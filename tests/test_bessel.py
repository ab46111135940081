"""J0 against an independent arbitrary-precision oracle."""

from __future__ import annotations

import inspect

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xychain import bessel
from xychain.bessel import SERIES_CUTOFF, _hankel, _trapezoid, bessel_j0

mp.mp.dps = 30


def _mp_series_j0(x, terms=80):
    """Plain alternating power series in mpmath; independent of the package."""
    x = mp.mpf(x)
    q = x * x / 4
    total = mp.mpf(1)
    term = mp.mpf(1)
    for k in range(1, terms):
        term = term * q / (k * k)
        total += term if k % 2 == 0 else -term
    return total


def test_value_at_zero_and_tiny():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(1e-8) - 1.0) < 1e-15


def test_frozen_value_at_ten():
    # mpmath dps=40: series and mp.besselj agree on -0.2459357644513483352
    assert abs(bessel_j0(10.0) - (-0.2459357644513483352)) < 1e-12


def test_first_zero_location():
    # bracketed bisection on the independent series oracle
    lo, hi = mp.mpf(2), mp.mpf(3)
    for _ in range(80):
        mid = (lo + hi) / 2
        if _mp_series_j0(lo) * _mp_series_j0(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = float((lo + hi) / 2)
    assert abs(root - 2.404825557695773) < 1e-12
    assert abs(bessel_j0(root)) < 5e-13


def test_sweep_against_mpmath():
    cut = SERIES_CUTOFF
    seam = cut + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
    xs = np.concatenate(
        [
            np.linspace(0.01, cut - 0.01, 60),
            seam,
            np.nextafter(cut, [-np.inf, np.inf]),
            np.linspace(cut + 0.01, 40.0, 30),
            np.logspace(np.log10(41.0), 4.0, 60),
            np.random.default_rng(7).uniform(0.0, 1e4, 100),
            [1e4],
        ]
    )
    vals = bessel_j0(xs)
    for x, v in zip(xs, vals):
        ref = float(mp.besselj(0, mp.mpf(float(x))))
        assert abs(v - ref) < 2e-15, f"x={x!r}: {v} vs {ref}"


def test_seam_consistency():
    # the trapezoid and Hankel branches agree in float64 where they meet
    y = np.linspace(SERIES_CUTOFF - 1.0, SERIES_CUTOFF + 1.0, 401)
    assert np.abs(_trapezoid(y) - _hankel(y)).max() < 1e-15


def test_no_longdouble():
    # plain float64 throughout: the same digits on every platform
    source = inspect.getsource(bessel)
    for name in ("longdouble", "float128", "float96", "clongdouble"):
        assert name not in source
    tables = [v for v in vars(bessel).values() if isinstance(v, np.ndarray)]
    assert tables and all(v.dtype == np.float64 for v in tables)
    xs = np.array([0.0, 1.0, SERIES_CUTOFF, 30.0, 1e4])
    assert _trapezoid(xs[:3]).dtype == _hankel(xs[3:]).dtype == bessel_j0(xs).dtype == np.float64


def test_array_scalar_consistency_and_shape():
    xs = np.array([[0.0, 1.0], [10.0, 100.0]])
    vals = bessel_j0(xs)
    assert vals.shape == xs.shape
    for idx in np.ndindex(xs.shape):
        assert vals[idx] == bessel_j0(float(xs[idx]))
    assert isinstance(bessel_j0(2.0), float)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_even_function(x):
    assert bessel_j0(x) == bessel_j0(-x)
    assert abs(bessel_j0(x)) <= 1.0 + 1e-14
