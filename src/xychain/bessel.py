"""Bessel function J0 in plain float64, without special-function dependencies.

Two branches meet at |x| = SERIES_CUTOFF = 25:

* Small x: the 64-node periodic trapezoid rule for
  J0(x) = (1/pi) int_0^pi cos(x sin t) dt (Trefethen & Weideman, SIAM Rev.
  56, 385 (2014)).  Its error is 2 sum_{m>=1} J_{64m}(x), about 2e-20 at
  x = 25.  |sin| over the 64 nodes takes the 17 values sin(pi j/32),
  j = 0..16, with weights (2, 4, ..., 4, 2)/64; j = 0 contributes cos(0) = 1.
* Large x: the Hankel expansion (Watson, Bessel Functions, section 7.21)
  with 12 terms each in P and Q, evaluated by Horner's rule in 1/x^2.  The
  first dropped term is |a_24| / 25^24 ~ 1e-19.  cos(x - pi/4) and
  sin(x - pi/4) are taken as (cos x +- sin x)/sqrt(2), so x is never rounded
  by a subtraction.

Measured against mpmath at 40 digits over [0, 1e4], including both sides of
the seam, the absolute error stays below 1e-15.  Hankel coefficients come
from their exact integer recurrence a_0 = 1,
a_{k+1} = -a_k (2k+1)^2 / (8(k+1)).
"""

from __future__ import annotations

import numpy as np

SERIES_CUTOFF = 25.0
_HANKEL_TERMS = 12
_BLOCK = 16384

# Distinct |sin| values of the 64 trapezoid nodes, j = 1..15; the weight-2
# nodes sin(0) = 0 and sin(pi/2) = 1 are handled in closed form.
_NODES = np.sin(np.pi * np.arange(1, 16) / 32)


def _hankel_coefficients(count: int) -> list[float]:
    # int / int is correctly rounded, so each float is the exact ratio rounded once
    num, den = 1, 1
    vals = [1.0]
    for k in range(1, count):
        num *= -((2 * k - 1) ** 2)
        den *= 8 * k
        vals.append(num / den)
    return vals


_A = _hankel_coefficients(2 * _HANKEL_TERMS)
# Horner coefficients in u = 1/x^2, highest power first:
# P = sum (-1)^k a_{2k} u^k and Q = (1/x) sum (-1)^k a_{2k+1} u^k.
_P = [(-1) ** k * _A[2 * k] for k in reversed(range(_HANKEL_TERMS))]
_Q = [(-1) ** k * _A[2 * k + 1] for k in reversed(range(_HANKEL_TERMS))]


def _trapezoid(y: np.ndarray) -> np.ndarray:
    """64-node trapezoid rule; y nonnegative float64 array, y <= SERIES_CUTOFF."""
    acc = 2.0 + 2.0 * np.cos(y)
    arg = np.empty_like(y)
    for s in _NODES:
        np.multiply(y, s, out=arg)
        np.cos(arg, out=arg)
        arg *= 4.0
        acc += arg
    acc *= 1.0 / 64.0
    return acc


def _hankel(y: np.ndarray) -> np.ndarray:
    """Hankel expansion; y > SERIES_CUTOFF float64 array."""
    inv = 1.0 / y
    u = inv * inv
    p = np.full_like(y, _P[0])
    q = np.full_like(y, _Q[0])
    for cp, cq in zip(_P[1:], _Q[1:]):
        p *= u
        p += cp
        q *= u
        q += cq
    q *= inv
    # sqrt(2/(pi y)) (cos(y - pi/4) P - sin(y - pi/4) Q)
    #   = sqrt(1/(pi y)) (cos y (P + Q) + sin y (P - Q)),
    # written in place into five buffers: inv, u, p, q and diff.
    diff = p - q
    p += q
    np.cos(y, out=u)
    p *= u
    np.sin(y, out=u)
    diff *= u
    p += diff
    inv *= 1.0 / np.pi
    np.sqrt(inv, out=inv)
    p *= inv
    return p


def bessel_j0(x):
    """J0(x), elementwise.  Scalar in -> float out; array in -> float64 array.

    Even in x by construction (|x| is taken first), deterministic, and
    accurate to 1e-15 absolute over [0, 1e4].
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    flat = np.abs(arr).reshape(-1)
    out = np.empty_like(flat)
    # Blocks small enough that each branch's temporaries stay in cache.
    for start in range(0, flat.size, _BLOCK):
        y = flat[start:start + _BLOCK]
        block = out[start:start + _BLOCK]
        small = y <= SERIES_CUTOFF
        block[small] = _trapezoid(y[small])
        block[~small] = _hankel(y[~small])
    res = out.reshape(arr.shape)
    return float(res) if scalar else res
