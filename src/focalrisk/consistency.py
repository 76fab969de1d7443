"""Concentration-bound machinery for the upper-risk consistency guarantees.

Computes the endpoint-loss constant M, the per-parameter loss range L, the
sample-size threshold n >= 3M/eps - 1, the exponential tail bound
2*exp(-(2/9) n eps^2 / L^2), and Monte Carlo checks that observed
violation frequencies respect the bound.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .conformal import check_alpha
from .data_model import LossSpec, ThetaGrid
from .errors import DuplicateName, EmptyInput, NonFiniteValue, NonpositiveEpsilon
from .risk import batch_cells, true_risk_curve, upper_risk_batch
from .simulate import check_run, sample_chunks


def _loss_range(loss: LossSpec, thetas, a: float, b: float) -> np.ndarray:
    """L(theta), sup - inf of loss(theta, .) over [a, b], per theta, exact (the ``LossSpec``
    contract): the sup at a or b, the inf there or at clip(theta, a, b)."""
    t = np.asarray(thetas, dtype=float)
    vals = loss(t[..., None], [a, b])
    return vals.max(axis=-1) - np.minimum(vals.min(axis=-1), loss(t, np.clip(t, a, b)))


def constants(loss: LossSpec, support: tuple[float, float],
              span: tuple[float, float]) -> tuple[float, float]:
    """(M, L_max): M = sup loss(., a) + sup loss(., b), L_max = sup ``_loss_range``, on the span.

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
    return m, l_max


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
                      replications: int, seed: int) -> list[dict]:
    """Monte Carlo checks of the pointwise deviation bound, in (epsilon, theta) order.

    One draw of replication r (stream keyed by (seed, n, r)) scores every theta and epsilon.
    M is taken over the loss's theta domain, and L after the draws refuse a theta outside it.
    """
    for eps in epsilons:
        check_epsilon(eps)
    thetas = np.asarray(thetas, dtype=float)
    if not (len(thetas) and len(epsilons)):
        return []
    m, _ = constants(loss, support, loss.theta_domain)
    met = [n >= min_sample_size(eps, m) for eps in epsilons]  # may refuse: before any draw
    violations = sum(np.count_nonzero(dev > np.reshape(epsilons, (-1, 1, 1)), axis=1)
                     for dev in _deviations(support, loss, thetas, n, replications, seed))
    ranges = _loss_range(loss, thetas, *support).tolist()
    return [dict(epsilon=eps, n=n, threshold_met=met_eps, bound=hoeffding_bound(n, eps, L),
                 empirical_violation_rate=int(count) / replications, replications=replications,
                 seed=seed)
            for eps, met_eps, counts in zip(epsilons, met, violations)
            for L, count in zip(ranges, counts)]


def verify_pointwise(support: tuple[float, float], loss: LossSpec, theta: float, n: int,
                     epsilon: float, replications: int, seed: int) -> dict:
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
    m, l_max = constants(loss, support, (theta_grid.lo, theta_grid.hi))
    return max(witness_uniform(theta_grid, epsilon, alpha, l_max), min_sample_size(epsilon, m))


def verify_uniform(
    support: tuple[float, float],
    loss: LossSpec,
    theta_grid: ThetaGrid,
    epsilon: float,
    alpha: float,
    seed: int,
    replications: int = 1000,
) -> dict:
    """Monte Carlo estimate of the uniform-deviation probability on the grid.

    Uses n = ``uniform_n``, max(witness_uniform, min_sample_size).  The witness n is the
    empirical risk's, below what the upper risk's 2/9 tail bound needs, so
    the theorem does not certify the estimate; it is an observation.
    """
    check_epsilon(epsilon)
    n = uniform_n(loss, support, theta_grid, epsilon, alpha)
    devs = _deviations(support, loss, theta_grid.points, n, replications, seed)
    est = sum(int(np.count_nonzero(dev.max(axis=1) > epsilon)) for dev in devs) / replications
    return dict(epsilon=epsilon, alpha=alpha, n=n, estimated_probability=est,
                within_alpha=est < alpha, replications=replications, seed=seed)


def bound_reports(support: tuple[float, float], loss: LossSpec, thetas: list[float],
                  epsilons: list[float], ns: list[int], replications: int, seed: int,
                  alpha: float, uniform_count: int | None) -> dict[str, dict]:
    """``verify-bounds``' reports by file name: ``pointwise_reports`` at each n (none without
    a theta or an epsilon), then, given a grid count, ``verify_uniform`` at each epsilon on
    that many points of the theta domain.  Each epsilon, the names, alpha, the grid, each
    uniform n and each run are checked in that order, all before the first draw."""
    for eps in epsilons:
        check_epsilon(eps)
    for flag, values in (("--theta", thetas), ("--epsilon", epsilons)):  # they name the files
        if len({f"{v:g}" for v in values}) < len(values):
            raise DuplicateName(f"{flag} values that print alike share a file")
    if uniform_count is not None:
        check_alpha(alpha)
        grid = ThetaGrid(*loss.theta_domain, uniform_count)
    uniform_eps = [] if uniform_count is None else epsilons
    ns = ns if thetas and epsilons else []
    uniform_ns = [uniform_n(loss, support, grid, eps, alpha) for eps in uniform_eps]
    for n in ns + uniform_ns:
        check_run(n, replications, seed)
    if not ns + uniform_ns:
        raise EmptyInput("no sample size, theta or epsilon: there is no report to write")
    reports = {}
    for n in ns:
        pointwise = pointwise_reports(support, loss, thetas, n, epsilons, replications, seed)
        for report, (eps, theta) in zip(pointwise, itertools.product(epsilons, thetas)):
            reports[f"bound_n{n}_eps{eps:g}_theta{theta:g}.json"] = report
    for eps in uniform_eps:
        reports[f"uniform_eps{eps:g}.json"] = verify_uniform(
            support, loss, grid, eps, alpha, seed, replications=replications)
    return reports
