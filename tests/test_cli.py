"""Black-box tests of the command-line interface."""

import json

import pytest

from focalrisk.cli import main


def run(args):
    return main(args)


class TestPredict:
    def test_basic(self, tmp_path):
        code = run([
            "predict", "--values", "1,2,3,4", "--lo", "0", "--hi", "5",
            "--score", "identity", "--alpha", "0.2", "--out", str(tmp_path),
        ])
        assert code == 0
        pred = (tmp_path / "prediction.txt").read_text().splitlines()
        assert pred[0] == "# k=4 nominal_coverage=0.80000000000000004"
        v, lo, hi = pred[1].split()
        assert (float(lo), float(hi)) == (0.0, 4.0)
        contour = (tmp_path / "contour.csv").read_text().splitlines()
        assert contour[0] == "y,contour"
        assert len(contour) == 1002
        focal = (tmp_path / "focal.txt").read_text().splitlines()
        assert len(focal) == 5

    def test_whole_support(self, tmp_path):
        code = run([
            "predict", "--values", "0.2,0.8", "--lo", "0", "--hi", "1",
            "--alpha", "0.3", "--out", str(tmp_path),
        ])
        assert code == 0
        line = (tmp_path / "prediction.txt").read_text().splitlines()[1]
        _, lo, hi = line.split()
        assert (float(lo), float(hi)) == (0.0, 1.0)

    def test_empty_data_exits_2(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("# nothing here\n")
        code = run(["predict", "--data", str(data), "--lo", "0", "--hi", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "EmptySample" in err
        assert err.count("\n") == 1

    def test_out_of_support_exits_2(self, tmp_path):
        code = run([
            "predict", "--values", "7", "--lo", "0", "--hi", "1",
            "--out", str(tmp_path),
        ])
        assert code == 2


    @pytest.mark.parametrize("bad", [
        ["--values", "1,nan"], ["--values", "1,inf"], ["--values", "1", "--lo=-inf"],
        ["--values", "1", "--hi", "nan"],
    ])
    def test_non_finite_exits_2(self, tmp_path, capsys, bad):
        assert run(["predict", *bad, "--out", str(tmp_path)]) == 2
        assert "NonFiniteValue" in capsys.readouterr().err
        assert not (tmp_path / "focal.txt").exists()


class TestRiskCurve:
    def test_values(self, tmp_path):
        code = run([
            "risk-curve", "--values", "0.2,0.8", "--lo", "0", "--hi", "1",
            "--loss", "squared", "--theta-lo", "0", "--theta-hi", "0",
            "--theta-count", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "risk_curve.csv").read_text().splitlines()
        assert lines[0] == "theta,empirical,upper,true"
        theta, emp, upper, true = lines[1].split(",")
        assert float(emp) == pytest.approx(0.34)
        assert float(upper) == pytest.approx(0.56)
        assert true == ""

    def test_with_model(self, tmp_path):
        code = run([
            "risk-curve", "--values", "0,1", "--lo", "-3", "--hi", "3",
            "--model", "truncnorm", "--theta-count", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "risk_curve.csv").read_text().splitlines()
        true_at_zero = float(lines[2].split(",")[3])
        assert true_at_zero == pytest.approx(0.97333692466254148, abs=1e-6)

    def test_csv_round_trip_bytes(self, tmp_path):
        run([
            "risk-curve", "--values", "0.2,0.8", "--lo", "0", "--hi", "1",
            "--theta-count", "7", "--out", str(tmp_path),
        ])
        text = (tmp_path / "risk_curve.csv").read_text()
        lines = text.splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            t, e, u, tv = line.split(",")
            out.append(f"{float(t):.17g},{float(e):.17g},{float(u):.17g},{tv}")
        assert "\n".join(out) + "\n" == text


class TestSimulate:
    def test_inventory_and_determinism(self, tmp_path):
        common = [
            "simulate", "--n", "8", "--replications", "10", "--seed", "42",
            "--theta-count", "11",
        ]
        assert run(common + ["--out", str(tmp_path / "a")]) == 0
        assert run(common + ["--out", str(tmp_path / "b")]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        names = {p.name for p in a.iterdir()}
        assert names == {
            "median_n8.csv", "band_lo_n8.csv", "band_hi_n8.csv",
            "minimizers_n8.csv", "histogram_n8.csv", "meta.json",
        }
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_svg_outputs(self, tmp_path):
        assert run([
            "simulate", "--n", "6", "--replications", "5", "--seed", "0",
            "--theta-count", "11", "--svg", "--out", str(tmp_path),
        ]) == 0
        svg = (tmp_path / "risk_curves.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "<script" not in svg
        assert (tmp_path / "minimizer_histograms.svg").exists()

    def test_bad_config_exits_2(self, tmp_path):
        assert run([
            "simulate", "--n", "5", "--replications", "0", "--out", str(tmp_path),
        ]) == 2


class TestVerifyBounds:
    def test_reports(self, tmp_path):
        import math

        assert run([
            "verify-bounds", "--theta", "0", "--n", "100", "--epsilon", "1",
            "--replications", "100", "--seed", "1", "--out", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "bound_n100_eps1_theta0.json").read_text())
        assert report["n"] == 100
        assert report["threshold_met"]  # 100 >= 95
        # recompute the bound independently: L(0) = 9 on [-3, 3]
        assert report["bound"] == pytest.approx(2 * math.exp(-2 / 9 * 100 / 81))

    def test_uniform_report(self, tmp_path):
        assert run([
            "verify-bounds", "--theta", "0", "--n", "50", "--epsilon", "4",
            "--replications", "100", "--seed", "1", "--uniform",
            "--alpha", "0.2", "--theta-count", "5", "--out", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "uniform_eps4.json").read_text())
        assert report["within_alpha"] in (True, False)


class TestCoverage:
    def test_csv(self, tmp_path):
        assert run([
            "coverage", "--n", "4,20", "--alpha", "0.01,0.2",
            "--score", "identity,loo-mean", "--replications", "200",
            "--seed", "3", "--out", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert lines[0] == "n,alpha,k,nominal,empirical,reps"
        assert len(lines) == 9
        # n=4, alpha=0.01 -> k=5, both coverages exactly 1
        first = lines[1].split(",")
        assert first[2] == "5"
        assert float(first[3]) == 1.0
        assert float(first[4]) == 1.0
        # identity and loo-mean rows at same (n, alpha) share the nominal column
        assert lines[5].split(",")[3] == lines[6].split(",")[3]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.5\nlo = 0\nhi = 1\nout = %s\n" % (tmp_path / "cfgout"))
        assert run([
            "--config", str(cfg), "predict", "--values", "0.2,0.8",
            "--alpha", "0.3",
        ]) == 0
        # alpha 0.3 (flag) with n=2 gives k=3: whole support
        line = (tmp_path / "cfgout" / "prediction.txt").read_text().splitlines()[0]
        assert "k=3" in line

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'o2'}\nalpha = 0.3\nlo = 0\nhi = 1\n")
        assert run(["--config", str(cfg), "predict", "--values", "0.2,0.8"]) == 0
        assert (tmp_path / "o2" / "prediction.txt").exists()

    @pytest.mark.parametrize("line, command", [
        ("loss = cubic", ["risk-curve", "--values", "0.5"]),
        ("score = bogus", ["predict", "--values", "0.5"]),
        ("theta-count = many", ["risk-curve", "--values", "0.5"]),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nlo = 0\nhi = 1\n")
        assert run(["--config", str(cfg), *command, "--out", str(tmp_path / "o")]) == 2
        assert "BadConfigValue" in capsys.readouterr().err

    def test_missing_config_exits_2(self):
        assert run(["--config", "/nonexistent.cfg", "predict", "--values", "1",
                    "--lo", "0", "--hi", "2"]) == 2


def test_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("FOCALRISK_OUT", str(tmp_path / "envout"))
    assert run(["predict", "--values", "0.5", "--lo", "0", "--hi", "1"]) == 0
    assert (tmp_path / "envout" / "prediction.txt").exists()


@pytest.mark.parametrize("support", [("10", "11"), ("40", "41")])
@pytest.mark.parametrize("command", ["simulate", "verify-bounds", "coverage"])
def test_negligible_normal_mass_exits_2(tmp_path, command, support):
    # Rejection sampling on such a support accepts ~no draw; a fresh interpreter with
    # a timeout turns a hang into a failure.
    import subprocess
    import sys
    from pathlib import Path

    import focalrisk

    argv = [command, "--lo", support[0], "--hi", support[1], "--out", str(tmp_path)]
    env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "focalrisk.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith("SupportMassTooSmall:")


def test_import_leaves_scipy_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    import focalrisk

    code = "import sys, focalrisk.cli; print('scipy' in sys.modules)"
    env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
