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

import numpy as np

from .conformal import check_alpha
from .data_model import LossSpec, ThetaGrid
from .errors import NonFiniteValue, NonpositiveEpsilon
from .risk import batch_cells, true_risk_curve, upper_risk_batch
from .simulate import sample_chunks


@dataclass(frozen=True)
class ConsistencyConstants:
    M: float
    L_max: float


def _loss_range(loss: LossSpec, thetas, a: float, b: float) -> np.ndarray:
    """L(theta), sup - inf of loss(theta, .) over [a, b], per theta, exact (the ``LossSpec``
    contract): the sup at a or b, the inf there or at clip(theta, a, b)."""
    t = np.asarray(thetas, dtype=float)
    vals = loss(t[..., None], [a, b])
    return vals.max(axis=-1) - np.minimum(vals.min(axis=-1), loss(t, np.clip(t, a, b)))


def constants(
    loss: LossSpec, support: tuple[float, float], span: tuple[float, float]
) -> ConsistencyConstants:
    """M = sup loss(., a) + sup loss(., b), and L_max = sup ``_loss_range``, on the theta span.

    Both are exact, since loss(., y) is convex and loss(theta, .) convex with its min at
    y = theta (the ``LossSpec`` contract): M's sups are at the span's ends, and so is
    L_max, since L is greatest at a span end.  M and L_max must be finite
    (``NonFiniteValue``), so no draw starts with them infinite.
    """
    a, b = support
    thetas = np.array(span, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite M or L_max is refused
        m = float(loss(thetas[:, None], [a, b]).max(axis=0).sum())
        l_max = float(np.max(_loss_range(loss, thetas, a, b)))
    if not (math.isfinite(m) and math.isfinite(l_max)):  # the loss overflows on the span
        raise NonFiniteValue(f"M={m}, L_max={l_max}: loss not finite on the theta span {span}")
    return ConsistencyConstants(M=m, L_max=l_max)


def check_epsilon(epsilon: float) -> None:
    """Raise unless epsilon and epsilon**2, which the bounds use, are finite and positive."""
    if not math.isfinite(epsilon * epsilon):  # NaN, inf, or |epsilon| above 1.3e154
        raise NonFiniteValue(f"epsilon={epsilon}: epsilon or its square is not finite")
    if not (epsilon > 0 and epsilon * epsilon > 0):  # or epsilon**2 underflows to 0
        raise NonpositiveEpsilon(f"epsilon={epsilon}: epsilon or its square is not positive")


def min_sample_size(epsilon: float, M: float) -> int:
    """Smallest n satisfying n >= 3M/epsilon - 1 (at least 1)."""
    check_epsilon(epsilon)
    n = 3.0 * M / epsilon - 1.0
    if not math.isfinite(n):  # epsilon so small, or M so large, that no sample size will do
        raise NonFiniteValue(f"threshold sample size {n} for epsilon={epsilon}, M={M}")
    return max(1, math.ceil(n))


def hoeffding_bound(n: int, epsilon: float, L: float) -> float:
    """Tail bound 2*exp(-(2/9) n eps^2 / L^2); 0 when the loss is constant."""
    check_epsilon(epsilon)
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


def _deviations(support: tuple[float, float], loss: LossSpec, thetas: np.ndarray, n: int,
                replications: int, seed: int):
    """|upper risk - true risk| at every theta, as (r, len(thetas)) chunks of replications."""
    if replications < 100:  # the floor of both Monte Carlo checks
        raise ValueError(f"replications={replications}: need at least 100")
    targets, (a, b) = true_risk_curve(loss, support, thetas), support
    cells = batch_cells(n, len(thetas))
    for rows in sample_chunks(support, seed, n, replications, cells):
        yield np.abs(upper_risk_batch(loss, rows, a, b, thetas) - targets)


def pointwise_reports(support: tuple[float, float], loss: LossSpec, thetas, n: int, epsilons,
                      replications: int, seed: int) -> list[BoundReport]:
    """Monte Carlo checks of the pointwise deviation bound, in (epsilon, theta) order.

    One draw of replication r (stream keyed by (seed, n, r)) scores every theta
    and epsilon.  M is taken over the loss's theta domain.
    """
    for eps in epsilons:
        check_epsilon(eps)
    thetas = np.asarray(thetas, dtype=float)
    if not (len(thetas) and len(epsilons)):
        return []
    consts = constants(loss, support, loss.theta_domain)
    met = [n >= min_sample_size(eps, consts.M) for eps in epsilons]  # may refuse: before any draw
    ranges = _loss_range(loss, thetas, *support).tolist()
    violations = sum(np.count_nonzero(dev > np.reshape(epsilons, (-1, 1, 1)), axis=1)
                     for dev in _deviations(support, loss, thetas, n, replications, seed))
    return [BoundReport(eps, n, met_eps, hoeffding_bound(n, eps, L), int(count) / replications,
                        replications, seed)
            for eps, met_eps, counts in zip(epsilons, met, violations)
            for L, count in zip(ranges, counts)]


def verify_pointwise(support: tuple[float, float], loss: LossSpec, theta: float, n: int,
                     epsilon: float, replications: int, seed: int) -> BoundReport:
    """Monte Carlo check of the pointwise bound at one theta; see ``pointwise_reports``."""
    return pointwise_reports(support, loss, [theta], n, [epsilon], replications, seed)[0]


def witness_uniform(
    theta_grid: ThetaGrid, epsilon: float, alpha: float, L_max: float
) -> int:
    """Hoeffding union-bound sample size for uniform deviation of the empirical risk.

    Smallest n with |grid| * 2 * exp(-2 n eps^2 / L_max^2) < alpha.  The
    upper risk's tail bound (``hoeffding_bound``) has 2/9 for 2: ~9x this n.
    """
    check_epsilon(epsilon)
    check_alpha(alpha)
    if L_max == 0.0:
        return 1
    n = L_max**2 / (2.0 * epsilon**2) * math.log(2.0 * theta_grid.count / alpha)
    if not math.isfinite(n):  # epsilon or alpha so small that no sample size will do
        raise NonFiniteValue(f"witness sample size {n} for epsilon={epsilon}, alpha={alpha}")
    return max(1, math.ceil(n))


def uniform_n(loss: LossSpec, support: tuple[float, float], theta_grid: ThetaGrid,
              epsilon: float, alpha: float) -> int:
    """``verify_uniform``'s sample size: max(witness_uniform, min_sample_size)."""
    consts = constants(loss, support, (theta_grid.lo, theta_grid.hi))
    return max(witness_uniform(theta_grid, epsilon, alpha, consts.L_max),
               min_sample_size(epsilon, consts.M))


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
    support: tuple[float, float],
    loss: LossSpec,
    theta_grid: ThetaGrid,
    epsilon: float,
    alpha: float,
    seed: int,
    replications: int = 1000,
) -> UniformReport:
    """Monte Carlo estimate of the uniform-deviation probability on the grid.

    Uses n = ``uniform_n``, max(witness_uniform, min_sample_size).  The witness n is the
    empirical risk's, below what the upper risk's 2/9 tail bound needs, so
    the theorem does not certify the estimate; it is an observation.
    """
    check_epsilon(epsilon)
    n = uniform_n(loss, support, theta_grid, epsilon, alpha)
    devs = _deviations(support, loss, theta_grid.points, n, replications, seed)
    est = sum(int(np.count_nonzero(dev.max(axis=1) > epsilon)) for dev in devs) / replications
    return UniformReport(epsilon, alpha, n, est, est < alpha, replications, seed)
