"""Exact results for the infinite 2D square-lattice Ising model.

Onsager (1944) solved the model analytically; Yang (1952) derived the
spontaneous magnetization.  These closed forms anchor the correctness
tests and draw the dashed critical line / reference curves in the Fig. 4
reproduction:

* critical temperature ``Tc = 2 / ln(1 + sqrt(2))``;
* spontaneous magnetization ``m(T) = (1 - sinh(2/T)^-4)^(1/8)`` for
  ``T < Tc``, zero above;
* internal energy per site via the complete elliptic integral K, here
  in its arithmetic-geometric-mean form.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "T_CRITICAL",
    "BETA_CRITICAL",
    "critical_temperature",
    "ellipk",
    "spontaneous_magnetization",
    "internal_energy",
]

#: Exact critical temperature in units of J / k_B.
T_CRITICAL = 2.0 / math.log(1.0 + math.sqrt(2.0))
#: Exact critical inverse temperature.
BETA_CRITICAL = 1.0 / T_CRITICAL


def critical_temperature() -> float:
    """Onsager's exact Tc = 2 / ln(1 + sqrt 2) ~ 2.269185."""
    return T_CRITICAL


def ellipk(m: float | np.ndarray) -> np.ndarray:
    """Complete elliptic integral of the first kind K(m), with m = k^2.

    Uses ``K(m) = pi / (2 AGM(1, sqrt(1 - m)))``.  The arithmetic-geometric
    mean converges quadratically, so a fixed 40 steps reach float64
    precision for every m < 1.  K is ``inf`` at m = 1 (the logarithmic
    divergence) and ``nan`` above 1, where the integral has no real value.
    """
    m = np.asarray(m, dtype=np.float64)
    a = np.ones_like(m)
    with np.errstate(invalid="ignore"):
        b = np.sqrt(1.0 - m)
    for _ in range(40):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    k = np.where(m == 1.0, np.inf, np.where(m > 1.0, np.nan, np.pi / (2.0 * a)))
    return k if k.ndim else float(k)


def spontaneous_magnetization(temperature: float | np.ndarray) -> np.ndarray:
    """Yang's exact spontaneous magnetization of the infinite lattice.

    Vectorised over temperature; returns 0 at and above Tc.
    """
    t = np.asarray(temperature, dtype=np.float64)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    with np.errstate(over="ignore"):
        s = np.sinh(2.0 / t)
    inner = 1.0 - s**-4.0
    result = np.where(t < T_CRITICAL, np.maximum(inner, 0.0) ** 0.125, 0.0)
    return result if result.ndim else float(result)


def internal_energy(temperature: float | np.ndarray) -> np.ndarray:
    """Exact internal energy per site u(T) of the infinite lattice.

    ``u = -coth(2b) * [1 + (2/pi) * (2 tanh(2b)^2 - 1) * K(k^2)]`` with
    ``k = 2 sinh(2b) / cosh(2b)^2`` and ``b = 1/T`` (:func:`ellipk`
    takes the parameter ``m = k^2``).  u(0) = -2, u(inf) = 0, and the
    slope is singular at Tc.
    """
    t = np.asarray(temperature, dtype=np.float64)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive")
    beta = 1.0 / t
    sh = np.sinh(2.0 * beta)
    ch = np.cosh(2.0 * beta)
    k = 2.0 * sh / (ch * ch)
    kprime = 2.0 * np.tanh(2.0 * beta) ** 2 - 1.0
    # At Tc, k = 1 makes K diverge logarithmically while kprime -> 0
    # linearly, so the product vanishes and u(Tc) = -sqrt(2) exactly;
    # evaluate the limit explicitly to avoid inf * 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = (2.0 / np.pi) * kprime * ellipk(k * k)
    correction = np.where(np.isfinite(correction), correction, 0.0)
    u = -(ch / sh) * (1.0 + correction)
    return u if u.ndim else float(u)
