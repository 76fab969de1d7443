"""Concentration-bound machinery for the upper-risk consistency guarantees.

Computes the endpoint-loss constant M, the per-parameter loss range L, the
sample-size threshold n >= 3M/eps - 1, the exponential tail bound
2*exp(-(2/9) n eps^2 / L^2), and Monte Carlo checks that observed
violation frequencies respect the bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .data_model import LossSpec, ThetaGrid, TrueModel
from .errors import InvalidAlpha, NonConvexLoss, NonpositiveEpsilon
from .risk import golden_section_min, true_risk, upper_risk_batch
from .simulate import sample_chunks

_XTOL = 1e-12  # argument tolerance of the refined extrema in ``constants``


@dataclass(frozen=True)
class ConsistencyConstants:
    M: float
    L_of_theta: Callable[[float], float]
    L_max: float


def _loss_range(loss: LossSpec, thetas: np.ndarray, a: float, b: float) -> np.ndarray:
    """sup - inf of loss(theta, .) over [a, b], for each theta."""
    la = np.asarray(loss(thetas, a), dtype=float)
    lb = np.asarray(loss(thetas, b), dtype=float)
    hi = np.maximum(la, lb)
    if loss.convex_in_y:
        # Convex in y: sup at an endpoint, inf in the interior.
        _, inner = golden_section_min(lambda y: np.asarray(loss(thetas, y), dtype=float),
                                      np.full(thetas.shape, a), np.full(thetas.shape, b), _XTOL)
        return hi - np.minimum(inner, np.minimum(la, lb))
    vals = np.asarray(loss(thetas[:, None], np.linspace(a, b, 2049)), dtype=float)
    return np.maximum(hi, vals.max(axis=1)) - vals.min(axis=1)


def constants(
    loss: LossSpec, support: tuple[float, float], theta_grid: ThetaGrid
) -> ConsistencyConstants:
    """M = sup loss(., a) + sup loss(., b); L(theta) = loss range over [a, b].

    Each sup is the grid max, refined inside the cells bracketing it.
    """
    a, b = support
    grid = theta_grid.points
    ends = np.array([a, b], dtype=float)
    vals = np.asarray(loss(grid, ends[:, None]), dtype=float)
    idx = np.argmax(vals, axis=1)
    lo, hi = grid[np.maximum(idx - 1, 0)], grid[np.minimum(idx + 1, len(grid) - 1)]
    _, neg = golden_section_min(lambda t: -np.asarray(loss(t, ends), dtype=float), lo, hi, _XTOL)
    sups = np.where(lo < hi, np.maximum(vals.max(axis=1), -neg), vals.max(axis=1))

    def l_of_theta(theta: float) -> float:
        return float(_loss_range(loss, np.array([theta], dtype=float), a, b)[0])

    l_max = float(np.max(_loss_range(loss, grid, a, b)))
    return ConsistencyConstants(M=float(sups[0] + sups[1]), L_of_theta=l_of_theta, L_max=l_max)


def min_sample_size(epsilon: float, M: float) -> int:
    """Smallest n satisfying n >= 3M/epsilon - 1 (at least 1)."""
    if epsilon <= 0:
        raise NonpositiveEpsilon(f"epsilon={epsilon}")
    return max(1, math.ceil(3.0 * M / epsilon - 1.0))


def hoeffding_bound(n: int, epsilon: float, L: float) -> float:
    """Tail bound 2*exp(-(2/9) n eps^2 / L^2); 0 when the loss is constant."""
    if epsilon <= 0:
        raise NonpositiveEpsilon(f"epsilon={epsilon}")
    if L == 0.0:
        return 0.0
    return 2.0 * float(np.exp(-(2.0 / 9.0) * n * epsilon**2 / L**2))


@dataclass(frozen=True)
class BoundReport:
    epsilon: float
    n: int
    threshold_met: bool
    bound: float
    empirical_violation_rate: float
    replications: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_pointwise(
    model: TrueModel,
    loss: LossSpec,
    theta: float,
    n: int,
    epsilon: float,
    replications: int,
    seed: int,
    theta_grid: ThetaGrid | None = None,
) -> BoundReport:
    """Monte Carlo check of the pointwise deviation bound at one theta.

    The constants grid defaults to 201 points over the loss's parameter
    domain.  Deterministic given seed: replication r uses the stream keyed
    by (seed, n, r).
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    if theta_grid is None:
        theta_grid = ThetaGrid(loss.theta_domain[0], loss.theta_domain[1], 201)
    consts = constants(loss, model.support, theta_grid)
    target = true_risk(loss, model, theta)
    if not loss.convex_in_y:
        raise NonConvexLoss("closed form requires the convexity attestation")
    a, b = model.support
    violations = 0
    for rows in sample_chunks(model.support, seed, n, replications, n):
        upper = upper_risk_batch(loss, rows, a, b, [theta])
        violations += int(np.count_nonzero(np.abs(upper - target) > epsilon))
    return BoundReport(
        epsilon=epsilon,
        n=n,
        threshold_met=n >= min_sample_size(epsilon, consts.M),
        bound=hoeffding_bound(n, epsilon, consts.L_of_theta(theta)),
        empirical_violation_rate=violations / replications,
        replications=replications,
        seed=seed,
    )


def witness_uniform(
    theta_grid: ThetaGrid, epsilon: float, alpha: float, L_max: float
) -> int:
    """Hoeffding union-bound sample size for uniform deviation of the empirical risk.

    Smallest n with |grid| * 2 * exp(-2 n eps^2 / L_max^2) < alpha.  The
    upper risk's tail bound (``hoeffding_bound``) has 2/9 for 2: ~9x this n.
    """
    if epsilon <= 0:
        raise NonpositiveEpsilon(f"epsilon={epsilon}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha={alpha}")
    if L_max == 0.0:
        return 1
    n = math.ceil(L_max**2 / (2.0 * epsilon**2) * math.log(2.0 * theta_grid.count / alpha))
    return max(1, n)


@dataclass(frozen=True)
class UniformReport:
    epsilon: float
    alpha: float
    n: int
    estimated_probability: float
    within_alpha: bool
    replications: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_uniform(
    model: TrueModel,
    loss: LossSpec,
    theta_grid: ThetaGrid,
    epsilon: float,
    alpha: float,
    seed: int,
    replications: int = 1000,
) -> UniformReport:
    """Monte Carlo estimate of the uniform-deviation probability on the grid.

    Uses n = max(witness_uniform, min_sample_size).  The witness n is the
    empirical risk's, below what the upper risk's 2/9 tail bound needs, so
    the theorem does not certify the estimate; it is an observation.
    """
    consts = constants(loss, model.support, theta_grid)
    n = max(
        witness_uniform(theta_grid, epsilon, alpha, consts.L_max),
        min_sample_size(epsilon, consts.M) if consts.M > 0 else 1,
    )
    targets = np.array([true_risk(loss, model, t) for t in theta_grid.points])
    a, b = model.support
    violations = 0
    for rows in sample_chunks(model.support, seed, n, replications, n * theta_grid.count):
        uppers = upper_risk_batch(loss, rows[:, None, :], a, b, theta_grid.points)
        violations += int(np.count_nonzero(np.abs(uppers - targets).max(axis=1) > epsilon))
    est = violations / replications
    return UniformReport(
        epsilon=epsilon,
        alpha=alpha,
        n=n,
        estimated_probability=est,
        within_alpha=est < alpha,
        replications=replications,
        seed=seed,
    )
