"""Fixed composite Gauss–Legendre quadrature, vectorized over panels."""

from __future__ import annotations

from typing import Callable

import numpy as np

_M = 16  # nodes per panel: exact for polynomials of degree < 32


def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the m-point rule on [-1, 1].

    Newton's method on the three-term recurrence of P_m from the asymptotic
    guess; for m = 16 the fourth step is below rounding, and the fifth takes
    the derivative for the weights at the converged roots.
    """
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(5):
        p0, p1 = np.ones(m), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_NODES, _WEIGHTS = _legendre_rule(_M)


def integrate(f: Callable[[np.ndarray], np.ndarray], a, b) -> np.ndarray:
    """Integral of f over every panel [a, b] at once (a, b broadcast arrays).

    f maps an array of points (the panels' shape plus a node axis) to f at
    each.  Exact to rounding for f polynomial, or smooth at the panel's scale.
    """
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return np.sum(f(0.5 * (a + b) + half * _NODES) * _WEIGHTS, axis=-1) * half[..., 0]
