"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import focalrisk.cli as cli  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from workloads import compare_numbers, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "risk.golden_evals_per_minimize", "quadrature.evals_per_integral",
    "conformal.rank_candidate_calls", "data_model.make_sample_calls",
    "consistency.constants_calls", "conformal.empty_focal_set_warnings",
    "simulate.values_drawn", "risk.curve_cells", "cli.bytes_written",
)


def _bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def _result(workload, trace, seed=5):
    done = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _flip_count(path: Path) -> None:
    # one more hit in the first coverage row
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[4] = repr(float(cells[4]) + 0.5)
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")


def _truncate(path: Path) -> None:
    path.write_text(path.read_text()[: len(path.read_text()) // 2])


def _exceed_bound(path: Path) -> None:
    report = json.loads(path.read_text())
    report["empirical_violation_rate"] = report["bound"] + 0.5
    path.write_text(json.dumps(report))


def _shift_upper(path: Path) -> None:
    header, *rows = path.read_text().splitlines()
    j = header.split(",").index("upper")
    cells = [r.split(",") for r in rows]
    for r in cells:
        r[j] = repr(float(r[j]) + 1e-6)
    path.write_text("\n".join([header, *(",".join(r) for r in cells)]) + "\n")


CORRUPTIONS = {
    "study": ("minimizers_n200.csv", _truncate),
    "bounds": ("bound_n95_eps1_theta0.json", _exceed_bound),
    "coverage": ("coverage.csv", _flip_count),
    "single-sample": ("risk_curve.csv", _shift_upper),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_output_makes_error_rate_positive(workload, tmp_path):
    wl = make_workload(workload, 3, tmp_path, size="tiny")
    runner = run.Runner(wl, cli)
    runner.iteration(0)
    runner.check_outputs()
    assert runner.attempted > 0 and runner.failures == []

    name, corrupt = CORRUPTIONS[workload]
    corrupt(next(tmp_path.rglob(name)))
    runner.check_outputs()
    assert len(runner.failures) / runner.attempted > 0


def test_changed_output_bytes_between_runs_fail(tmp_path):
    wl = make_workload("coverage", 3, tmp_path, size="tiny")

    class Drifting:
        calls = 0

        def main(self, argv):
            self.calls += 1
            out = Path(argv[argv.index("--out") + 1])
            out.mkdir(parents=True)
            (out / "coverage.csv").write_text(f"run {self.calls}\n")
            return 0

    runner = run.Runner(wl, Drifting())
    runner.iteration(0)
    assert runner.failures == []
    runner.iteration(1)
    assert len(runner.failures) == 1 and "changed between runs" in runner.failures[0]


def test_reference_tolerance():
    want = "theta,value\n0.5,0.97333692466254148\n"
    assert compare_numbers("theta,value\n0.5,0.97333692966254148\n", want) is None  # 5e-9 apart
    assert compare_numbers("theta,value\n0.5,0.9733371\n", want) is not None
    assert compare_numbers("theta,value\n0.5\n", want) is not None


def test_end_to_end_smoke_prints_every_metric_with_its_unit():
    lines, result = _result("study", trace=0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert spec == run.END_TO_END_UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in spec.items():
        assert f"\n{name} " in text and text.split(f"\n{name} ")[1].split("\n")[0].endswith(f" {unit}")
    for name in ("dataset_p50_ms", "dataset_p90_ms"):
        assert f"\n{name} " in text and text.split(f"\n{name} ")[1].split("\n")[0].endswith(" ms")
    assert "\nerror_rate 0 ratio" in text
    context = json.loads(lines[0].removeprefix("context "))
    assert {"git_sha", "seed", "python", "numpy", "scipy", "nproc", "cpu_model", "caches",
            "openblas_threads"} <= set(context)


def test_traced_smoke_prints_every_layer_metric_with_its_unit():
    _, result = _result("single-sample", trace=1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert spec == LAYER_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"]


@pytest.mark.parametrize("workload", ["study", "bounds", "coverage", "single-sample"])
def test_exact_counts_repeat_across_traced_runs(workload):
    first = _result(workload, trace=1)[1]["metrics"]
    second = _result(workload, trace=1)[1]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_printing_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
