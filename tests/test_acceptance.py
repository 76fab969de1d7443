"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from focalrisk import (
    NonconformityScore,
    SimConfig,
    ThetaGrid,
    absolute_error_loss,
    constants,
    coverage_experiment,
    coverage_probability,
    focal_sets,
    hoeffding_bound,
    make_sample,
    min_sample_size,
    rank_candidate,
    run_replications,
    replication_rng,
    sample_truncated_normal,
    squared_error_loss,
    true_risk,
    upper_risk_closed_form,
    upper_risk_general,
    verify_pointwise,
)
from focalrisk.cli import main as cli_main
from focalrisk.conformal import nested_set_index
from focalrisk.consistency import _loss_range
from focalrisk.data_model import normal_mass
from focalrisk.simulate import _raw_draw

MODEL = (-3.0, 3.0)  # the support of the truncated standard normal
TRUNC_VAR = 0.97333692466254148


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_closed_form_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for loss_fn in (squared_error_loss, absolute_error_loss):
        loss = loss_fn((-2, 2))
        for _ in range(100):
            lo = rng.uniform(-4, 0)
            hi = lo + rng.uniform(0.5, 8)
            n = int(rng.integers(1, 51))
            sample = make_sample(rng.uniform(lo, hi, n), lo, hi)
            focal = focal_sets(sample, NonconformityScore.identity())
            for theta in rng.uniform(-2, 2, 20):
                general = upper_risk_general(loss, focal, theta)
                closed = upper_risk_closed_form(loss, sample, theta)
                worst = max(worst, abs(general - closed))
    for loss_fn in (squared_error_loss, absolute_error_loss):  # and at n = 2000
        loss = loss_fn((-2, 2))
        for _ in range(5):
            lo = rng.uniform(-4, 0)
            sample = make_sample(rng.uniform(lo, lo + 4, 2000), lo, lo + 4)
            focal = focal_sets(sample, NonconformityScore.identity())
            for theta in rng.uniform(-2, 2, 20):
                general = upper_risk_general(loss, focal, theta)
                closed = upper_risk_closed_form(loss, sample, theta)
                worst = max(worst, abs(general - closed))
    report(f"closed-form equivalence (max |diff| = {worst:.3g})", worst <= 1e-12)


@pytest.mark.parametrize(
    "score_name,score",
    [
        ("identity", NonconformityScore.identity()),
        ("loo-mean", NonconformityScore.DISTANCE_TO_LOO_MEAN),
    ],
    ids=["identity-score0", "loo-mean-score1"],
)
def test_criterion_2_exact_coverage(score_name, score):
    reps = 10_000
    [[emp]] = coverage_experiment(
        MODEL, [score], n=20, alphas=[0.2], replications=reps, seed=101
    )
    nominal = coverage_probability(20, nested_set_index(20, 0.2))
    half_width = 2.576 * math.sqrt(nominal * (1 - nominal) / reps)
    ok = abs(emp - nominal) <= half_width
    report(
        f"coverage identity [{score_name}]: empirical {emp:.5f} vs {nominal:.5f} "
        f"(99% CI half-width {half_width:.5f})",
        ok,
    )


def test_criterion_3_rank_uniformity():
    rng = replication_rng(77, 20, 0)
    n, draws = 20, 10_000
    counts = np.zeros(n + 1)
    for _ in range(draws):
        full = _raw_draw(np.empty(n + 1), -3, 3, normal_mass(-3, 3), rng)
        sample = make_sample(full[:n], -3, 3)
        counts[rank_candidate(sample, float(full[n]), NonconformityScore.identity()) - 1] += 1
    expected = draws / (n + 1)
    stat = float(np.sum((counts - expected) ** 2 / expected))
    crit = chi2.ppf(1 - 0.001, n)
    report(f"rank uniformity (chi2 {stat:.2f} < {crit:.2f})", stat < crit)


@pytest.fixture(scope="module")
def study():
    config = SimConfig(
        support=MODEL,
        loss=squared_error_loss((-1, 1)),
        n_values=(20, 200),
        replications=1000,
        theta_grid=ThetaGrid(-1, 1, 101),
        master_seed=7,
    )
    return config, run_replications(config)


def test_criterion_4a_minimizer_means(study):
    _, per_n = study
    mean_20 = float(np.mean(per_n[20].minimizers))
    mean_200 = float(np.mean(per_n[200].minimizers))
    ok = abs(mean_20) <= 0.15 and abs(mean_200) <= 0.05
    report(
        f"minimizer means center at 0 (n=20: {mean_20:+.4f}, n=200: {mean_200:+.4f})",
        ok,
    )


def test_criterion_4b_minimizer_concentration(study):
    _, per_n = study
    sd_20 = float(np.std(per_n[20].minimizers))
    sd_200 = float(np.std(per_n[200].minimizers))
    report(
        f"minimizer sd shrinks (n=20: {sd_20:.4f} > n=200: {sd_200:.4f})",
        sd_200 < sd_20,
    )


def test_criterion_4c_median_curve_behavior(study):
    config, per_n = study
    thetas = config.theta_grid.points
    true_curve = TRUNC_VAR + thetas**2
    ok = True
    sups = {}
    for n in (20, 200):
        s = per_n[n]
        # median of the per-replication empirical curves (streams regenerated)
        emp_curves = np.empty((config.replications, len(thetas)))
        for r in range(config.replications):
            rng = replication_rng(config.master_seed, n, r)
            sample = sample_truncated_normal(n, -3, 3, rng)
            emp_curves[r] = ((thetas[:, None] - sample.values[None, :]) ** 2).mean(axis=1)
        emp_median = np.median(emp_curves, axis=0)
        if not np.all(s.median_curve >= n * emp_median / (n + 1) - 1e-12):
            ok = False
        sups[n] = float(np.max(np.abs(s.median_curve - true_curve)))
    ok = ok and sups[200] < sups[20]
    report(
        f"median curve dominates and converges (sup dist n=20: {sups[20]:.4f}, "
        f"n=200: {sups[200]:.4f})",
        ok,
    )


def test_criterion_5_theorem_bound_respected():
    loss = squared_error_loss((-1, 1))
    M = 32.0
    reps = 1000
    ok = True
    lines = []
    for eps in (1.0, 2.0):
        n_min = min_sample_size(eps, M)
        for n in (n_min, 2 * n_min):
            for theta in (0.0, 0.5, 1.0):
                rep = verify_pointwise(
                    MODEL, loss, theta, n, eps,
                    replications=reps, seed=500,
                )
                assert rep["threshold_met"]
                p = min(rep["bound"], 1.0)
                allowance = 3.0 * math.sqrt(p * (1.0 - p) / reps)
                if rep["empirical_violation_rate"] > rep["bound"] + allowance:
                    ok = False
                lines.append(
                    f"n={n} eps={eps} theta={theta}: rate "
                    f"{rep['empirical_violation_rate']:.4f} <= bound {rep['bound']:.3g}"
                )
    report("Theorem-style bound respected on all configs", ok)
    for line in lines:
        print("  " + line)


def test_criterion_6_constants_oracle():
    m, _ = constants(squared_error_loss((-1, 1)), (-3, 3), (-1, 1))
    l0 = float(_loss_range(squared_error_loss((-1, 1)), 0.0, -3, 3))
    risk0 = true_risk(squared_error_loss((-1, 1)), MODEL, 0.0)
    ok = (
        abs(m - 32.0) <= 1e-9
        and abs(l0 - 9.0) <= 1e-9
        and abs(risk0 - TRUNC_VAR) <= 1e-12
    )
    report(
        f"constants oracle (M={m:.12f}, L(0)={l0:.12f}, R(0)={risk0:.9f})", ok
    )


def test_criterion_7_cli_determinism(tmp_path):
    base = [
        "simulate", "--n", "20", "--replications", "60", "--seed", "99",
        "--theta-count", "21", "--svg",
    ]
    assert cli_main(base + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(base + ["--out", str(tmp_path / "run2")]) == 0
    files = sorted(p.name for p in (tmp_path / "run1").iterdir())
    ok = True
    for name in files:
        if (tmp_path / "run1" / name).read_bytes() != (tmp_path / "run2" / name).read_bytes():
            ok = False
    report(f"CLI simulate determinism across reruns ({len(files)} files)", ok)
