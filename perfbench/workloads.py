"""The four benchmark workloads: the CLI commands they run and the checks on their outputs.

A workload is a list of timed units. One unit is a list of CLI argument
vectors run back to back through ``focalrisk.cli.main``; its time divided by
the data sets it processes is one data-set latency sample. The Monte Carlo
workloads (``study``, ``bounds``, ``coverage``) have one unit, a single
command whose replications are its data sets. ``single-sample`` has one unit
per input data set, each running ``predict`` twice and ``risk-curve`` once.
One pass over all units is an iteration.

Checks return (checks attempted, failure messages). They read the files the
commands wrote, so they can be run (and tested) on outputs that were changed
after the commands finished; malformed output fails a check, it does not
stop the benchmark.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerance of acceptance criterion 6, used against the stored reference outputs.
REFERENCE_TOL = 1e-7
# Tolerance of acceptance criterion 1 (closed form equals the focal sum).
CLOSED_FORM_TOL = 1e-12
DEFAULT_SEED = 0
SUPPORT = (-3.0, 3.0)
THETA_RANGE = (-1.0, 1.0)
THETA_COUNT = 101

# Full-size parameters, and the tiny ones the benchmark's own tests use.
SIZES = {
    "full": {"study_reps": 1000, "bounds_reps": 1000, "coverage_reps": 10000, "datasets": 50},
    "tiny": {"study_reps": 20, "bounds_reps": 100, "coverage_reps": 200, "datasets": 4},
}
SAMPLE_SIZES = (20, 200)
PREDICT_ALPHA = 0.1
COVERAGE_ALPHA = 0.2
SAMPLED_THETAS = 5

_TOKEN_SPLIT = re.compile(r'[\s,:{}\[\]"=]+')


@dataclass
class Unit:
    """Commands timed together; ``datasets`` is how many data sets they process."""

    commands: list[list[str]]
    outs: list[Path]
    datasets: int


@dataclass
class Workload:
    name: str
    seed: int
    work_dir: Path
    size: str
    units: list[Unit] = field(default_factory=list)
    datasets: list[np.ndarray] = field(default_factory=list)  # single-sample inputs

    @property
    def datasets_per_iteration(self) -> int:
        return sum(u.datasets for u in self.units)

    def check(self) -> tuple[int, list[str]]:
        """Run the paper-invariant checks; returns (checks attempted, failures)."""
        return CHECKS[self.name](self)

    def reference_files(self) -> list[tuple[Path, str]]:
        """(written file, path relative to the workload's reference dir) pairs
        whose numbers are compared with the stored references at the default seed."""
        pairs = []
        for i, unit in enumerate(self.units[: REFERENCE_UNITS.get(self.name, len(self.units))]):
            for j, out in enumerate(unit.outs):
                for path in sorted(out.iterdir()):
                    if path.suffix != ".svg":
                        pairs.append((path, f"{i}/{j}/{path.name}"))
        return pairs


# single-sample stores references for its first two data sets only (n = 20 and 200),
# to keep the stored outputs small.
REFERENCE_UNITS = {"single-sample": 2}


def make_workload(name: str, seed: int, work_dir: Path, size: str = "full") -> Workload:
    """Generate the inputs of a workload from its seed, under ``work_dir``."""
    if name not in MAKERS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(MAKERS)}")
    wl = Workload(name, seed, Path(work_dir), size)
    MAKERS[name](wl, SIZES[size])
    return wl


def _build_study(wl: Workload, p: dict) -> None:
    out = wl.work_dir / "out"
    reps = p["study_reps"]
    argv = ["simulate", "--n", ",".join(map(str, SAMPLE_SIZES)), "--replications", str(reps),
            "--svg", "--seed", str(wl.seed), "--out", str(out)]
    wl.units.append(Unit([argv], [out], reps * len(SAMPLE_SIZES)))


BOUNDS_THETAS = (0.0, 0.5, 1.0)
BOUNDS_NS = (95, 190)


def _build_bounds(wl: Workload, p: dict) -> None:
    out = wl.work_dir / "out"
    reps = p["bounds_reps"]
    argv = ["verify-bounds", "--theta", ",".join(f"{t:g}" for t in BOUNDS_THETAS),
            "--n", ",".join(map(str, BOUNDS_NS)), "--epsilon", "1",
            "--replications", str(reps), "--uniform", "--seed", str(wl.seed), "--out", str(out)]
    # every (n, theta) pair and the uniform check each run `reps` replications
    wl.units.append(Unit([argv], [out], reps * (len(BOUNDS_THETAS) * len(BOUNDS_NS) + 1)))


COVERAGE_SCORES = ("identity", "loo-mean")


def _build_coverage(wl: Workload, p: dict) -> None:
    out = wl.work_dir / "out"
    reps = p["coverage_reps"]
    argv = ["coverage", "--n", "20", "--alpha", f"{COVERAGE_ALPHA:g}",
            "--score", ",".join(COVERAGE_SCORES), "--replications", str(reps),
            "--seed", str(wl.seed), "--out", str(out)]
    wl.units.append(Unit([argv], [out], reps * len(COVERAGE_SCORES)))


def draw_datasets(seed: int, count: int) -> list[np.ndarray]:
    """Data sets alternating n = 20 and n = 200, standard normal truncated to the support."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = SUPPORT
    out = []
    for i in range(count):
        n = SAMPLE_SIZES[i % len(SAMPLE_SIZES)]
        vals = np.empty(0)
        while vals.size < n:
            draw = rng.standard_normal(n)
            vals = np.concatenate([vals, draw[(draw >= lo) & (draw <= hi)]])
        out.append(vals[:n])
    return out


def _build_single_sample(wl: Workload, p: dict) -> None:
    data_dir = wl.work_dir / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    lo, hi = (f"{v:g}" for v in SUPPORT)
    wl.datasets = draw_datasets(wl.seed, p["datasets"])
    for i, values in enumerate(wl.datasets):
        data = data_dir / f"d{i:03d}.txt"
        data.write_text("".join(f"{float(v)!r}\n" for v in values))
        base = wl.work_dir / "out" / f"d{i:03d}"
        outs = [base / "loo-mean", base / "identity", base / "risk-curve"]
        common = ["--data", str(data), "--lo", lo, "--hi", hi]
        commands = [
            ["predict", *common, "--score", "loo-mean", "--alpha", f"{PREDICT_ALPHA:g}", "--out", str(outs[0])],
            ["predict", *common, "--score", "identity", "--alpha", f"{PREDICT_ALPHA:g}", "--out", str(outs[1])],
            ["risk-curve", *common, "--out", str(outs[2])],
        ]
        wl.units.append(Unit(commands, outs, 1))


MAKERS = {
    "study": _build_study,
    "bounds": _build_bounds,
    "coverage": _build_coverage,
    "single-sample": _build_single_sample,
}


# ---------------------------------------------------------------- checks


class _Checks:
    """Counts checks and collects the messages of those that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def run(self, label: str, fn, *args) -> None:
        """Run a check that may also fail by raising on malformed output."""
        try:
            fn(*args)
        except (OSError, ValueError, TypeError, IndexError, KeyError, ZeroDivisionError) as e:
            self.expect(False, f"{label}: unreadable output ({type(e).__name__}: {e})")

    def result(self) -> tuple[int, list[str]]:
        return self.attempted, self.failures


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(path: Path, name: str) -> np.ndarray:
    header, rows = _csv(path)
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


def nominal_k(n: int, alpha: float) -> int:
    return max(1, min(math.ceil((1.0 - alpha) * (n + 1)), n + 1))


def _check_study(wl: Workload) -> tuple[int, list[str]]:
    c = _Checks()
    out = wl.units[0].outs[0]
    reps = SIZES[wl.size]["study_reps"]
    lo, hi = THETA_RANGE

    def per_n(n):
        med = _column(out / f"median_n{n}.csv", "value")
        band_lo = _column(out / f"band_lo_n{n}.csv", "value")
        band_hi = _column(out / f"band_hi_n{n}.csv", "value")
        c.expect(med.size == band_lo.size == band_hi.size == THETA_COUNT,
                 f"study n={n}: curves do not have {THETA_COUNT} points")
        c.expect(bool(np.all(band_lo <= med) and np.all(med <= band_hi)),
                 f"study n={n}: band_lo <= median <= band_hi violated")
        mins = np.array([float(v) for v in (out / f"minimizers_n{n}.csv").read_text().split()])
        c.expect(mins.size == reps and bool(np.all((mins >= lo) & (mins <= hi))),
                 f"study n={n}: {mins.size} minimizers, expected {reps} in [{lo}, {hi}]")
        counts = _column(out / f"histogram_n{n}.csv", "count")
        c.expect(counts.sum() == reps, f"study n={n}: histogram counts sum to {counts.sum()}, not {reps}")

    for n in SAMPLE_SIZES:
        c.run(f"study n={n}", per_n, n)
    return c.result()


def _check_bounds(wl: Workload) -> tuple[int, list[str]]:
    c = _Checks()
    out = wl.units[0].outs[0]
    reps = SIZES[wl.size]["bounds_reps"]

    def pointwise(n, theta):
        r = json.loads((out / f"bound_n{n}_eps1_theta{theta:g}.json").read_text())
        # acceptance criterion 5: past the threshold the violation rate obeys the tail bound
        ok = r["replications"] == reps and (
            not r["threshold_met"] or r["empirical_violation_rate"] <= r["bound"])
        c.expect(ok, f"bounds n={n} theta={theta:g}: violation rate "
                     f"{r['empirical_violation_rate']} exceeds bound {r['bound']}")

    def uniform():
        r = json.loads((out / "uniform_eps1.json").read_text())
        p = r["estimated_probability"]
        c.expect(r["replications"] == reps and 0.0 <= p <= 1.0
                 and r["within_alpha"] == (p < r["alpha"]),
                 f"bounds uniform: inconsistent report {r}")

    for n in BOUNDS_NS:
        for theta in BOUNDS_THETAS:
            c.run(f"bounds n={n} theta={theta:g}", pointwise, n, theta)
    c.run("bounds uniform", uniform)
    return c.result()


def _check_coverage(wl: Workload) -> tuple[int, list[str]]:
    c = _Checks()
    reps = SIZES[wl.size]["coverage_reps"]

    def rows():
        header, table = _csv(wl.units[0].outs[0] / "coverage.csv")
        c.expect(len(table) == len(COVERAGE_SCORES), f"coverage: {len(table)} rows, expected {len(COVERAGE_SCORES)}")
        for row in table:
            r = dict(zip(header, row))
            n, k, emp = int(r["n"]), int(r["k"]), float(r["empirical"])
            p = k / (n + 1)
            sigma = math.sqrt(p * (1.0 - p) / reps)
            c.expect(k == nominal_k(n, float(r["alpha"])) and float(r["nominal"]) == p
                     and int(r["reps"]) == reps and abs(emp - p) <= 4.0 * sigma,
                     f"coverage: row {row} is not within 4 sigma of k/(n+1) = {p}")

    c.run("coverage", rows)
    return c.result()


def _check_single_sample(wl: Workload) -> tuple[int, list[str]]:
    from focalrisk import conformal, risk
    from focalrisk.data_model import make_sample, squared_error_loss

    c = _Checks()
    loss = squared_error_loss(THETA_RANGE)
    identity = conformal.NonconformityScore.identity()
    pick = np.random.Generator(np.random.PCG64([wl.seed, 1]))

    def one(i, unit, values):
        n = values.size
        k = nominal_k(n, PREDICT_ALPHA)
        for out in unit.outs[:2]:
            header = (out / "prediction.txt").read_text().splitlines()[0]
            c.expect(header.startswith(f"# k={k} "), f"d{i:03d} {out.name}: header {header!r}, expected k={k}")
        # identity focal sets are the gaps between consecutive order statistics
        knots = [SUPPORT[0], *np.sort(values).tolist(), SUPPORT[1]]
        expected = [f"{v} {knots[v - 1]:.17g} {knots[v]:.17g}" for v in range(1, n + 2)]
        got = (unit.outs[1] / "focal.txt").read_text().splitlines()
        c.expect(got == expected, f"d{i:03d}: identity focal sets are not the order-statistic gaps")
        # acceptance criterion 1: the closed-form upper column equals the focal sum
        header, rows = _csv(unit.outs[2] / "risk_curve.csv")
        c.expect(len(rows) == THETA_COUNT, f"d{i:03d}: risk curve has {len(rows)} rows")
        focal = conformal.focal_sets(make_sample(values, *SUPPORT), identity)
        j = header.index("upper")
        for r in pick.choice(len(rows), size=min(SAMPLED_THETAS, len(rows)), replace=False):
            theta, upper = float(rows[r][0]), float(rows[r][j])
            general = risk.upper_risk_general(loss, focal, theta)
            c.expect(abs(upper - general) <= CLOSED_FORM_TOL * max(1.0, abs(general)),
                     f"d{i:03d}: upper risk {upper!r} at theta={theta!r} differs from the focal sum {general!r}")

    for i, (unit, values) in enumerate(zip(wl.units, wl.datasets)):
        c.run(f"d{i:03d}", one, i, unit, values)
    return c.result()


CHECKS = {
    "study": _check_study,
    "bounds": _check_bounds,
    "coverage": _check_coverage,
    "single-sample": _check_single_sample,
}


def compare_numbers(got: str, want: str, tol: float = REFERENCE_TOL) -> str | None:
    """None when the texts match token by token, numbers within ``tol``
    (relative above 1 in magnitude); otherwise a description of the first mismatch."""
    a, b = _TOKEN_SPLIT.split(got.strip()), _TOKEN_SPLIT.split(want.strip())
    if len(a) != len(b):
        return f"{len(a)} tokens, reference has {len(b)}"
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return f"{x!r} where the reference has {y!r}"
        if not abs(fx - fy) <= tol * max(1.0, abs(fy)):
            return f"{x} where the reference has {y}"
    return None
