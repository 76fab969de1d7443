"""Black-box tests of the command-line interface."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_grid_runs_tile_the_support(self, tmp_path):
        # the runs ending at 2.5499999999999994 and starting at 2.5500000000000003 left
        # the contour point 2.55 uncovered: exit 2 after focal.txt was written
        assert run(["predict", "--values=2,2.3", "--score", "loo-mean", "--grid-points", "21",
                    "--out", str(tmp_path)]) == 0
        assert (tmp_path / "contour.csv").exists()

    def test_loo_mean_near_the_largest_float(self, tmp_path):
        # the data's sum overflowed, so ranks 1 and 2 were unattained and focal.txt held one
        # set; every rank is attained, in the same runs as for the data scaled down
        def indices(values, hi, name):
            argv = ["predict", "--values", values, "--lo", "0", "--hi", hi, "--score",
                    "loo-mean", "--grid-points", "11", "--out", str(tmp_path / name)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(argv) == 0
            text = (tmp_path / name / "focal.txt").read_text()
            return [line.split()[0] for line in text.splitlines()]

        got = indices("1e308,1.5e308", "1.7e308", "big")
        assert set(got) == {"1", "2", "3"}
        assert got == indices("1,1.5", "1.7", "small")


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

    def test_empirical_refused_before_the_support(self, tmp_path, capsys):
        # the support holds no normal mass, but the empirical column is refused first
        out = tmp_path / "out"
        assert run(["risk-curve", "--values", "1e200", "--lo", "1e199", "--hi", "1e201",
                    "--theta-lo", "0", "--theta-hi", "1", "--model", "truncnorm",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "NonFiniteValue: empirical risk is not finite on [0.0, 1.0]\n"
        assert not out.exists()


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
        # a one-point grid plots a zero-width x range
        for i, grid in enumerate([["11"], ["1", "--theta-lo=0", "--theta-hi=0"]]):
            out = tmp_path / str(i)
            assert run(["simulate", "--n", "6", "--replications", "5", "--seed", "0",
                        "--theta-count", *grid, "--svg", "--out", str(out)]) == 0
            svg = (out / "risk_curves.svg").read_text()
            assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
            assert "<script" not in svg
            assert (out / "minimizer_histograms.svg").exists()

    def test_non_finite_curve_exits_2_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["simulate", "--n", "5", "--replications", "3", "--theta-count", "5",
                    "--theta-hi", "1e200", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("NonFiniteValue: upper risk is not finite")
        assert not out.exists()

    def test_zero_replications_exits_2(self, tmp_path):
        assert run([
            "simulate", "--n", "5", "--replications", "0", "--out", str(tmp_path),
        ]) == 2

    def test_narrow_theta_range_far_from_zero(self, tmp_path):
        # every minimizer clips to 1e15, where the histogram's +-0.5 held 30 bins under an
        # ulp (0.125): the run exited 2 with numpy's "Too many bins" and wrote no file
        out = tmp_path / "out"
        assert run(["simulate", "--n", "5,8", "--replications", "20", "--theta-count", "5",
                    "--theta-lo", "1e15", "--theta-hi", "2e15", "--svg", "--out", str(out)]) == 0
        for n in (5, 8):
            rows = (out / f"histogram_n{n}.csv").read_text().splitlines()[1:]
            assert len(rows) == 30 and sum(int(r.split(",")[2]) for r in rows) == 20
        assert (out / "minimizer_histograms.svg").exists()

    def test_ticks_far_from_zero_end(self):
        # t += step stood still where step is below half an ulp of t; a child interpreter
        # with a timeout turns that hang into a failure
        import subprocess
        import sys

        import focalrisk

        code = "from focalrisk.svgplot import _ticks; print(len(_ticks(1e16, 1e16 + 4)))"
        env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=30)
        assert 1 <= int(out.stdout) <= 12, out.stderr

    def test_ticks_are_distinct(self):
        # far from 0, neighbouring ticks rounded to one float: 9 ticks, 3 values
        from focalrisk.svgplot import _ticks

        far = _ticks(1e16, 1e16 + 4)
        assert far == [1e16, 1.0000000000000002e16, 1.0000000000000004e16]
        assert _ticks(-1, 1) == [-1.0, -0.8, -0.6, -0.3999999999999999, -0.19999999999999996, 0.0,
                                 0.20000000000000018, 0.40000000000000013, 0.6000000000000001,
                                 0.8, 1.0]

    def test_tick_labels_are_distinct(self, tmp_path):
        # far from 0, six significant digits read 1e+16 for three x ticks of the curves
        # and five of the histogram, and 1e+32 for five y ticks of the curves
        assert run(["simulate", "--n", "5", "--replications", "3", "--theta-lo", "1e16",
                    "--theta-hi", "10000000000000004", "--theta-count", "5", "--svg",
                    "--out", str(tmp_path)]) == 0
        for name in ("risk_curves.svg", "minimizer_histograms.svg"):
            svg = (tmp_path / name).read_text()
            for anchor in ("middle", "end"):  # the x axis, then the y axis
                labels = re.findall(f'text-anchor="{anchor}" font-family="sans-serif" '
                                    'font-size="11">([^<]*)<', svg)
                assert len(labels) > 1 and len(set(labels)) == len(labels), (name, labels)


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

    @pytest.mark.parametrize("eps, error", [("nan", "NonFiniteValue"), ("inf", "NonFiniteValue"),
                                            ("0", "NonpositiveEpsilon"),
                                            ("1,nan", "NonFiniteValue"),
                                            ("1e308", "NonFiniteValue"),  # epsilon**2 overflows
                                            ("5e-324", "NonpositiveEpsilon")])  # underflows
    @pytest.mark.parametrize("flags", [["--n", "20"], ["--n", "20", "--uniform"],
                                       ["--n", "", "--uniform"], ["--n", ""]])
    def test_bad_epsilon_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, eps,
                                                 error, flags):
        import focalrisk.simulate as simulate

        def no_draws(*args):
            raise AssertionError("a replication was keyed")

        monkeypatch.setattr(simulate, "_streams", no_draws)
        out = tmp_path / "out"
        assert run(["verify-bounds", *flags, "--epsilon", eps, "--replications", "100",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(error + ":")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    def test_bad_uniform_alpha_exits_2_before_any_work(self, tmp_path, monkeypatch, alpha):
        # before, the pointwise reports were drawn and written first
        import focalrisk.simulate as simulate

        def no_draws(*args):
            raise AssertionError("a replication was keyed")

        monkeypatch.setattr(simulate, "_streams", no_draws)
        out = tmp_path / "out"
        assert run(["verify-bounds", "--n", "20", "--uniform", "--alpha", alpha,
                    "--replications", "100", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--theta", "0", "--epsilon", "0.5,0.5000001"],
                                       ["--theta", "0.1,0.10000001", "--epsilon", "1"],
                                       ["--n", "", "--uniform", "--epsilon", "0.5,0.5000001"]])
    def test_values_that_print_alike_exit_2(self, tmp_path, capsys, flags):
        # reports are named by {eps:g} and {theta:g}: the second report took the first's file
        out = tmp_path / "out"
        assert run(["verify-bounds", "--n", "20", *flags, "--replications", "100",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("DuplicateName: --") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify-bounds", "simulate"])
    def test_zero_sample_size_exits_2(self, tmp_path, capsys, command):
        assert run([command, "--n", "0", "--replications", "100", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("EmptySample:")

    def test_one_draw_per_replication(self, tmp_path, monkeypatch):
        # the pointwise path scores every theta and epsilon of one n from one draw
        from collections import Counter

        import focalrisk.simulate as simulate

        calls, streams = Counter(), simulate._streams

        def counted(seed, n, replications):
            for r, rng in enumerate(streams(seed, n, replications)):
                calls[seed, n, r] += 1
                yield rng

        monkeypatch.setattr(simulate, "_streams", counted)
        assert run(["verify-bounds", "--n", "30,40", "--theta", "0,0.5,1", "--epsilon", "0.5,1",
                    "--replications", "100", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert calls == Counter({(3, n, r): 1 for n in (30, 40) for r in range(100)})
        assert len(list(tmp_path.iterdir())) == 12


_SEED_RUNS = {"simulate": ["--n", "5", "--replications", "20"],
              "verify-bounds": ["--n", "5", "--replications", "100"],
              "coverage": ["--n", "5", "--replications", "50"]}


class TestSeed:
    @pytest.mark.parametrize("command", sorted(_SEED_RUNS))
    def test_negative_seed_exits_2_before_any_key(self, tmp_path, monkeypatch, capsys, command):
        import focalrisk.simulate as simulate

        def no_keys(*args):
            raise AssertionError("a key was computed")

        monkeypatch.setattr(simulate, "_philox_keys", no_keys)
        out = tmp_path / "out"
        assert run([command, *_SEED_RUNS[command], "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ValueError: seed=-1")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(_SEED_RUNS))
    def test_seed_of_three_words_keys_like_replication_rng(self, tmp_path, monkeypatch, command):
        # 2^64 is 3 uint32 words of entropy, 5 with n and r: SeedSequence's second mixing loop
        import focalrisk.simulate as simulate

        keyed, streams = [], simulate._streams

        def checked(seed, n, replications):
            for r, rng in enumerate(streams(seed, n, replications)):
                want = simulate.replication_rng(seed, n, r).bit_generator.state
                assert str(rng.bit_generator.state) == str(want)
                keyed.append(r)
                yield rng

        monkeypatch.setattr(simulate, "_streams", checked)
        argv = [command, *_SEED_RUNS[command], "--seed", str(2**64), "--out", str(tmp_path)]
        assert run(argv) == 0
        assert keyed and keyed[-1] == int(_SEED_RUNS[command][-1]) - 1


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

    def test_one_draw_per_replication(self, tmp_path, monkeypatch):
        # one draw of each (seed, n, r) serves every alpha and score
        from collections import Counter

        import focalrisk.simulate as simulate

        calls, streams = Counter(), simulate._streams

        def counted(seed, n, replications):
            for r, rng in enumerate(streams(seed, n, replications)):
                calls[seed, n, r] += 1
                yield rng

        monkeypatch.setattr(simulate, "_streams", counted)
        assert run(["coverage", "--n", "5,12", "--alpha", "0.1,0.2", "--score",
                    "identity,loo-mean", "--replications", "100", "--seed", "3",
                    "--out", str(tmp_path)]) == 0
        assert calls == Counter({(3, n, r): 1 for n in (5, 12) for r in range(100)})
        assert len((tmp_path / "coverage.csv").read_text().splitlines()) == 9


def test_abbreviated_flag_is_refused(tmp_path):
    # a flag is known only by its full name: "--rep" does not stand for --replications
    argv = ["coverage", "--n", "4", "--out", str(tmp_path / "o")]
    for abbreviated in ([*argv, "--rep", "3"], ["--conf", "x", *argv]):
        with pytest.raises(SystemExit) as exit_info:
            run(abbreviated)
        assert exit_info.value.code == 2
    assert not (tmp_path / "o").exists()
    assert run([*argv, "--replications", "3"]) == 0
    assert (tmp_path / "o" / "coverage.csv").read_text().splitlines()[1].endswith(",3")


def test_config_file_flag_is_gone(tmp_path):
    # flags are the only way to set a value: no argument reads them from a file
    cfg, out = tmp_path / "run.cfg", tmp_path / "o"
    cfg.write_text("alpha = 0.5\n")
    with pytest.raises(SystemExit) as exit_info:
        run(["--config", str(cfg), "predict", "--values", "0.2,0.8", "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()


def test_settable_values_ledger():
    # every value a run can be given; adding or removing a flag edits this ledger
    import argparse

    from focalrisk.cli import build_parser

    def flags(parser):
        return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}

    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    support, theta = {"--lo", "--hi", "--out"}, {"--loss", "--theta-lo", "--theta-hi",
                                                 "--theta-count"}
    assert parser._option_string_actions.keys() == {"-h", "--help"}
    assert {name: flags(p) for name, p in commands.items()} == {
        "predict": {*support, "--data", "--values", "--score", "--alpha", "--grid-points"},
        "risk-curve": {*support, "--data", "--values", *theta, "--model"},
        "simulate": {*support, "--n", "--replications", "--seed", *theta, "--percentile-lo",
                     "--percentile-hi", "--bins", "--svg"},
        "verify-bounds": {*support, *theta, "--theta", "--n", "--epsilon", "--replications",
                          "--seed", "--uniform", "--alpha"},
        "coverage": {*support, "--n", "--alpha", "--score", "--replications", "--seed"},
    }
    counts = {name: len(flags(p)) for name, p in commands.items()}
    assert counts == {"predict": 8, "risk-curve": 10, "simulate": 14, "verify-bounds": 14,
                      "coverage": 8}


def test_a_repeated_list_value_runs_once(tmp_path):
    assert run(["coverage", "--n", "5,5", "--alpha", "0.2,0.2", "--replications", "50",
                "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "coverage.csv").read_text().splitlines()) == 2
    assert run(["simulate", "--n", "7,7", "--replications", "3", "--theta-count", "5",
                "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "meta.json").read_text())["n_values"] == [7]


def test_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("FOCALRISK_OUT", str(tmp_path / "envout"))
    assert run(["predict", "--values", "0.5", "--lo", "0", "--hi", "1"]) == 0
    assert (tmp_path / "envout" / "prediction.txt").exists()


def _fresh_cli(argv, timeout):
    """The CLI in a fresh interpreter, with a timeout and 1 GiB of address space: a run of
    hours or an allocation of gigabytes fails its test instead of the machine."""
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import focalrisk

    def cap_memory():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    # one BLAS thread: each thread's buffers would count against the address-space cap
    env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "focalrisk.cli", *argv], env=env,
                          preexec_fn=cap_memory, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("support", [("10", "11"), ("40", "41")])
@pytest.mark.parametrize("command", ["simulate", "verify-bounds", "coverage"])
def test_negligible_normal_mass_exits_2(tmp_path, command, support):
    # Rejection sampling on such a support accepts ~no draw; a fresh interpreter with
    # a timeout turns a hang into a failure.
    out = _fresh_cli([command, "--lo", support[0], "--hi", support[1], "--out", str(tmp_path)],
                     timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith("SupportMassTooSmall:")


@pytest.mark.parametrize("command, bad", [("simulate", ["--theta-count", "0"]),
                                          ("simulate", ["--replications", "0"]),
                                          ("verify-bounds", ["--epsilon", "-1"]),
                                          ("verify-bounds", ["--uniform", "--alpha", "2"]),
                                          ("coverage", ["--alpha", "2"]),
                                          ("coverage", ["--score", "no-such-score"])])
def test_support_is_refused_before_any_other_argument(tmp_path, capsys, command, bad):
    code = run([command, "--lo", "10", "--hi", "11", *bad, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("SupportMassTooSmall:")
    assert code == run([command, *bad, "--out", str(tmp_path)])  # bad on its own too
    assert not capsys.readouterr().err.startswith("SupportMassTooSmall:")
    assert not any(tmp_path.iterdir())


def test_simulate_near_mass_floor_finishes(tmp_path):
    # [3, 4] holds normal mass 1.3e-3, just above the floor; a fresh interpreter with a
    # timeout turns a sampler that crawls there into a failure
    argv = ["simulate", "--lo", "3", "--hi", "4", "--replications", "200", "--out", str(tmp_path)]
    out = _fresh_cli(argv, timeout=20)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "minimizers_n200.csv").exists()


def test_unbounded_witness_n_is_refused_before_any_draw(tmp_path):
    # epsilon 1e-3 puts the witness n at ~1.06e9, 8.5 GB a sample.  A fresh interpreter
    # with 1 GiB of address space and a timeout turns an allocation or a crawl into a failure.
    argv = ["verify-bounds", "--n", "", "--uniform", "--epsilon", "1e-3", "--replications",
            "100", "--out", str(tmp_path)]
    out = _fresh_cli(argv, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("SampleTooLarge: sample size n=1.06291e+09")
    assert not any(tmp_path.iterdir())


def test_refused_uniform_check_writes_no_pointwise_report(tmp_path):
    # the pointwise report at n = 50 is computed, then the uniform check's witness n is refused
    argv = ["verify-bounds", "--n", "50", "--epsilon", "0.001", "--replications", "100",
            "--uniform", "--out", str(tmp_path)]
    out = _fresh_cli(argv, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("SampleTooLarge:") and out.stderr.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify-bounds", "--n", "", "--uniform", "--epsilon", "1e-2"],  # n = 1.06e7, 1000 times
    ["coverage", "--n", "300000", "--replications", "1000"],
])
def test_draws_beyond_the_run_limit_are_refused_before_any_draw(tmp_path, argv):
    # a fresh interpreter with a timeout turns a run of 1e10 draws into a failure
    out = _fresh_cli([*argv, "--out", str(tmp_path)], timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("SampleTooLarge:") and "replications exceeds" in out.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, n", [
    # the pointwise n = 20000 ran first, then the uniform n was refused
    (["verify-bounds", "--n", "20000", "--epsilon", "0.001", "--replications", "1000",
      "--uniform"], "n=1.06291e+09 times"),
    # n = 200 and 2000 ran first, then n = 300000 was refused
    (["simulate", "--n", "200,2000,300000", "--replications", "10000"], "n=300000 times"),
    # the message read n=300001: the held-out draw is not part of n
    (["coverage", "--n", "20,2000,300000", "--replications", "10000"],
     "n=300000 plus 1 held out times"),
])
def test_every_sample_size_is_refused_before_the_first_draw(tmp_path, monkeypatch, capsys, argv,
                                                             n):
    import focalrisk.simulate as simulate

    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(simulate, "_draw_block", no_draws)
    monkeypatch.setattr(simulate, "_raw_draw", no_draws)
    assert run([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SampleTooLarge: sample size " + n) and err.count("\n") == 1
    assert "replications exceeds" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, error", [
    (["simulate", "--n", "1", "--replications", "268435456"], "SampleTooLarge"),
    (["predict", "--values", "0.1,0.5", "--score", "loo-mean", "--grid-points", "1000000000"],
     "ValueError"),
    (["risk-curve", "--values", "0.1,0.5", "--theta-count", "1000000000"], "ValueError"),
    (["simulate", "--theta-count", "1000000000"], "ValueError"),
    (["verify-bounds", "--uniform", "--theta-count", "1000000000"], "ValueError"),
    # the loss overflows: numpy's RuntimeWarnings must not precede the one-line error
    (["verify-bounds", "--n", "20", "--replications", "100", "--uniform", "--theta-count", "5",
      "--theta-hi", "1e200"], "NonFiniteValue"),
    (["risk-curve", "--values", "0.1,0.2", "--theta-hi", "1e200"], "NonFiniteValue"),
    (["simulate", "--n", "5", "--replications", "3", "--theta-count", "5", "--theta-hi", "1e200"],
     "NonFiniteValue"),
    (["simulate", "--bins", "65537"], "ValueError"),
    # hi - lo overflows: linspace's RuntimeWarnings and a NaN grid point came before
    *([["predict", "--score", score, "--values=1e308,-1e308,1.5e308,-1.5e308",
        "--lo", "-1.7e308", "--hi", "1.7e308"], "NonFiniteValue"]
      for score in ("loo-mean", "identity")),
    (["risk-curve", "--values", "0.1,0.2", "--theta-lo=-1.7e308", "--theta-hi", "1.7e308"],
     "NonFiniteValue"),
    # a grid to the largest float: linspace's overflow warning came before the loss's error
    (["risk-curve", "--values", "0.1,0.2", "--theta-lo=-1.7976931348623157e308", "--theta-hi",
      "0", "--theta-count", "4"], "NonFiniteValue"),
    # a theta far outside the domain: its loss range overflowed before the domain was checked
    *([["verify-bounds", "--n", "20", "--replications", "100", "--theta", theta],
       "ThetaOutOfDomain"] for theta in ("1e300", "inf")),
])
def test_refusals_print_one_line_in_a_fresh_interpreter(tmp_path, argv, error):
    # a fresh interpreter shows what pytest's warning capture hides, and with a timeout
    # turns an allocation of gigabytes or a run of hours into a failure
    out = _fresh_cli([*argv, "--out", str(tmp_path)], timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(f"{error}:") and out.stderr.count("\n") == 1, out.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag, value", [
    (["predict", "--values", "0.5", "--hi", "1"], "--lo", "-1e-3"),
    (["risk-curve", "--values", "0.1", "--theta-count", "5"], "--theta-lo", "-1e-1"),
    (["predict", "--lo=-1", "--hi", "1"], "--values", "-0.5,0.2"),
    (["predict", "--lo=-1", "--hi", "1"], "--values", "-.5"),
    (["verify-bounds", "--n", "5", "--replications", "100"], "--theta", "-0.5,0"),
])
def test_negative_value_after_its_flag(tmp_path, argv, flag, value):
    def outputs(name, *pair):
        assert main([*argv, *pair, "--out", str(tmp_path / name)]) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    assert outputs("apart", flag, value) == outputs("joined", f"{flag}={value}")


def test_loss_choices_are_the_loss_kinds():
    # a loss the library offers but no command reaches would show here
    import argparse

    from focalrisk.cli import build_parser
    from focalrisk.data_model import LossKind

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    with_loss = {name: next(a for a in p._actions if a.dest == "loss")
                 for name, p in commands.items() if any(a.dest == "loss" for a in p._actions)}
    assert sorted(with_loss) == ["risk-curve", "simulate", "verify-bounds"]
    for action in with_loss.values():
        assert set(action.choices) == {k.value for k in LossKind}


def test_parser_keeps_no_state_between_calls(tmp_path):
    def once(name, argv, *flags):
        out = tmp_path / name
        assert main([*argv, *flags, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    curve = ["risk-curve", "--values", "0.2,0.8", "--lo", "0", "--hi", "1",
             "--theta-lo", "0", "--theta-hi", "1", "--theta-count", "5"]
    predict = ["predict", "--values", "0.2,0.8", "--lo", "0", "--hi", "1"]
    plain_curve, plain_predict = once("c0", curve), once("p0", predict)
    assert once("c1", curve, "--loss", "absolute") != plain_curve
    assert once("p1", predict, "--alpha", "0.5") != plain_predict
    assert once("c2", curve) == plain_curve
    assert once("p2", predict) == plain_predict


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


def test_import_budget(tmp_path):
    # The parser loads no numpy, so --help and every refused argument exit without it; each
    # case runs in a fresh interpreter.  A bare np.unique (inside np.percentile, say) imports
    # numpy.ma: ~9 ms and ~1.3 MiB.
    import subprocess
    import sys
    from pathlib import Path

    import focalrisk

    env = {"PYTHONPATH": str(Path(focalrisk.__file__).parents[1])}
    run_main = "from focalrisk.cli import main; raise SystemExit(main({}))"
    cases = [  # (statement, exit code)
        ("import focalrisk", 0),
        ("from focalrisk.cli import build_parser; build_parser()", 0),
        (run_main.format(["-h"]), 0),
        (run_main.format(["predict", "--alpha", "x"]), 2),
        (run_main.format(["risk-curve", "--loss", "cubic", "--values", "0.1"]), 2),
    ]
    for statement, want in cases:
        code = f"import sys\ntry:\n    {statement}\nfinally:\n    print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert (out.returncode, out.stdout.split()[-1]) == (want, "False"), statement
    # the --loss case runs last
    assert "invalid choice: 'cubic'" in out.stderr

    code = """if True:
        import sys
        from focalrisk.cli import main
        values = ["--values", "0.1,0.5,-0.3,0.2,0.7"]
        for argv in (["predict", *values, "--grid-points", "11"],
                     ["risk-curve", *values, "--theta-count", "5", "--model", "truncnorm"],
                     ["simulate", "--n", "4,6", "--replications", "7", "--theta-count", "5",
                      "--svg"],
                     ["verify-bounds", "--n", "5", "--replications", "100", "--theta-count", "5",
                      "--uniform"],
                     ["coverage", "--n", "5", "--replications", "10"]):
            assert main([*argv, "--out", sys.argv[1] + "/" + argv[0]]) == 0, argv
        print("numpy.ma" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False"]


def test_package_names_load_from_their_home_modules():
    import sys

    import focalrisk

    for name in focalrisk.__all__:
        value = getattr(focalrisk, name)
        assert value.__module__.startswith("focalrisk."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError):
        focalrisk.no_such_name
    namespace = {}
    exec("from focalrisk import *", namespace)
    assert all(namespace[name] is getattr(focalrisk, name) for name in focalrisk.__all__)


def test_literal_choices_are_the_enum_values():
    import argparse

    from focalrisk import NonconformityScore
    from focalrisk.cli import build_parser
    from focalrisk.data_model import LossKind

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = {(command, a.dest): a.choices for command, p in sub.choices.items()
               for a in p._actions if a.choices is not None}
    scores, losses = [s.value for s in NonconformityScore], sorted(k.value for k in LossKind)
    assert choices == {("predict", "score"): scores, ("risk-curve", "loss"): losses,
                       ("risk-curve", "model"): ["truncnorm"], ("simulate", "loss"): losses,
                       ("verify-bounds", "loss"): losses}


def _exit_code(argv):
    """(exit code, stderr, files written) of one in-process run; an uncaught exception fails
    the caller."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", out])
        except SystemExit as e:  # argparse refuses the argv
            code = e.code
        written = sorted(p.name for p in Path(out).rglob("*"))
    return code, err.getvalue(), written


@pytest.mark.parametrize("argv", [
    ["coverage", "--n", "20", "--replications", "0"],
    ["verify-bounds", "--n", "", "--uniform", "--replications", "0"],
    ["verify-bounds", "--n", "20", "--replications", "100", "--epsilon", "1e308"],
    ["verify-bounds", "--n", "20", "--replications", "100", "--epsilon", "1e308", "--uniform"],
    ["verify-bounds", "--n", "20", "--replications", "100", "--epsilon", "5e-324"],
    ["verify-bounds", "--n", "20", "--replications", "100", "--epsilon", "5e-324", "--uniform"],
    ["verify-bounds", "--n", "20", "--replications", "100", "--epsilon", "1e-160", "--uniform"],
    ["verify-bounds", "--n", "", "--uniform", "--alpha", "5e-324", "--theta-count", "5"],
    ["simulate", "--n", "-3"],
    ["coverage", "--n", "-2"],
    ["coverage", "--alpha", "1.5"],
    ["coverage", "--alpha", "0"],
    ["coverage", "--alpha", "-1"],
    ["coverage", "--alpha", "inf"],
    ["predict", "--values", "1,2", "--lo", "0", "--hi", "3", "--score", "loo-mean",
     "--grid-points", "1"],
    ["verify-bounds", "--n", "20", "--replications", "100", "--theta-hi", "1e200", "--uniform",
     "--theta-count", "5"],
    ["risk-curve", "--values", "0.1", "--theta-hi", "1e200", "--theta-count", "5"],
    # grids, replications and stored curves past their caps, refused before any allocation
    ["predict", "--values", "0.1,0.5", "--score", "loo-mean", "--grid-points", "1000000000"],
    ["risk-curve", "--values", "0.1", "--theta-count", "1000000000"],
    ["simulate", "--theta-count", "1000000000"],
    ["verify-bounds", "--n", "", "--uniform", "--theta-count", "1000000000"],
    ["simulate", "--n", "1", "--replications", "268435456"],
    ["simulate", "--n", "1", "--replications", "262145", "--theta-count", "1"],
    ["coverage", "--n", "1", "--replications", "262145"],
    ["simulate", "--bins", "65537"],
    # no sample size: with --svg this exited 2 after writing meta.json and risk_curves.svg;
    # without it, it exited 0 having written meta.json alone
    ["simulate", "--n", ","],
    ["simulate", "--n", ",", "--svg"],
    # a run with no row or report to write is refused, not finished with an empty output
    ["coverage", "--n", ","],
    ["coverage", "--alpha", ","],
    ["coverage", "--score", ","],
    ["verify-bounds", "--n", ","],
    ["verify-bounds", "--epsilon", ",", "--uniform"],
])
def test_residual_inputs_exit_2(argv):
    code, err, written = _exit_code(argv)
    assert code == 2 and not written
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("step, argv", [
    ("conformal.contour", ["predict", "--values", "0.1,0.5"]),
    ("svgplot.render_histograms", ["simulate", "--n", "5", "--replications", "3",
                                   "--theta-count", "5", "--svg"]),
    ("consistency.verify_uniform", ["verify-bounds", "--n", "5", "--replications", "100",
                                    "--uniform", "--theta-count", "5"]),
    ("risk.format_csv", ["risk-curve", "--values", "0.1", "--theta-count", "5"]),
    ("risk.format_csv", ["coverage", "--n", "5", "--replications", "3"]),
])
def test_a_refusal_at_the_last_step_writes_nothing(monkeypatch, step, argv):
    # every file is built before the first is written, whichever step refuses
    from focalrisk.errors import NonFiniteValue

    def refuse(*args, **kwargs):
        raise NonFiniteValue("refused at the last step")

    monkeypatch.setattr(f"focalrisk.{step}", refuse)
    code, err, written = _exit_code(argv)
    assert (code, err, written) == (2, "NonFiniteValue: refused at the last step\n", [])


@pytest.mark.parametrize("flags", [["--alpha", "0.2,1.5"], ["--score", "identity,bogus"]])
def test_coverage_checks_every_input_before_the_first_experiment(monkeypatch, flags):
    import focalrisk.simulate as simulate

    def no_experiment(*args, **kwargs):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(simulate, "coverage_experiment", no_experiment)
    assert _exit_code(["coverage", *flags])[0] == 2


_EDGES = ["0", "-1", "nan", "inf", "1e308", "5e-324", "1e-160", ""]


def _theta_ends(draw):
    """--theta-lo/--theta-hi flags: absent, overflowing the loss, near it, or swapped."""
    lo = draw(st.sampled_from([None, "-1e200", "1", "1e80"]))
    hi = draw(st.sampled_from([None, "1e200", "1e80", "-1", "-1e200"]))
    return [f"--theta-{k}={v}" for k, v in (("lo", lo), ("hi", hi)) if v is not None]


def _support_ends(draw):
    """--lo/--hi flags: absent, swapped or equal."""
    ends = draw(st.sampled_from([None, ("3", "-3"), ("0.5", "0.5"), ("-3", "-3")]))
    return [] if ends is None else [f"--lo={ends[0]}", f"--hi={ends[1]}"]


@st.composite
def _argv(draw):
    """argv of any subcommand with edge values; sizes stay tiny."""
    def pick(valid):
        return draw(st.sampled_from(_EDGES + valid))

    command = draw(st.sampled_from(["simulate", "verify-bounds", "coverage", "risk-curve",
                                    "predict"]))
    support = _support_ends(draw)
    if command == "predict":
        return ["predict", "--values", "0.1,-0.5,0.1", "--score",
                draw(st.sampled_from(["identity", "loo-mean"])), "--alpha", pick(["0.2"]),
                "--grid-points", draw(st.sampled_from(["0", "1", "5", "64", "65", "65537"])),
                *support]
    if command == "risk-curve":
        return ["risk-curve", "--values", "0.1,-0.5,0.1", "--theta-count",
                draw(st.sampled_from(["5", "65"])), "--loss",
                draw(st.sampled_from(["squared", "absolute"])),
                *draw(st.sampled_from([[], ["--model", "truncnorm"]])), *_theta_ends(draw),
                *support]
    argv = [command, "--n", pick(["1", "7", "4,30"]), "--replications", pick(["1", "100", "200"]),
            *support]
    if command == "simulate":
        grid = draw(st.sampled_from([["5"], ["6"], ["65"], ["1", "--theta-lo=0", "--theta-hi=0"]]))
        return argv + ["--theta-count", *grid, *draw(st.sampled_from([[], ["--svg"]])),
                       "--bins", draw(st.sampled_from(["0", "1", "30", "65537"])),
                       "--percentile-hi", draw(st.sampled_from(["0.95", "1.5", "nan"]))]
    if command == "coverage":
        return argv + ["--alpha", pick(["0.2", "0.5,0.1"])]
    argv += ["--loss", draw(st.sampled_from(["squared", "absolute"])), *_theta_ends(draw)]
    if draw(st.booleans()):
        # alpha 1e-160 would make the witness n ~ 2e5 (epsilon 1e-160 makes it infinite,
        # which is refused at once), so the valid epsilons stay >= 0.5; a theta end of
        # 1e80 or more makes the threshold n exceed the sampler's row limit, refused at once
        eps = pick(["0.5", "1"])
        alpha = draw(st.sampled_from([a for a in _EDGES if a != "1e-160"] + ["0.2"]))
        return argv + ["--epsilon", eps, "--alpha", alpha, "--uniform", "--theta-count", "5"]
    return argv + ["--epsilon", pick(["0.5", "1,2"]), "--alpha", pick(["0.2"])]


@settings(max_examples=150, deadline=None)
@given(argv=_argv(), small_caps=st.booleans())
# 3M/epsilon - 1 overflows to inf: was an OverflowError in min_sample_size
@example(argv=["verify-bounds", "--n", "1", "--replications", "100", "--theta-hi=1e80",
               "--epsilon", "1e-160"], small_caps=False)
# a one-point grid plotted: was a ZeroDivisionError in the curves' SVG
@example(argv=["simulate", "--n", "5", "--replications", "3", "--theta-count", "1",
               "--theta-lo=0", "--theta-hi=0", "--svg"], small_caps=False)
# a one-point grid far from 0, where the +-0.5 pad rounds away: was a ZeroDivisionError
@example(argv=["simulate", "--n", "5", "--replications", "3", "--theta-count", "1",
               "--theta-lo=1e16", "--theta-hi=1e16", "--svg"], small_caps=False)
# no sample size: exited 2 on an empty histogram list, after writing two files
@example(argv=["simulate", "--n", "", "--replications", "3", "--svg"], small_caps=False)
def test_exit_code_contract(argv, small_caps):
    # small caps put the sizes drawn above at, or one past, each cap: grid points 64,
    # replications 100, and 100 replications x 5 thetas of stored curves
    import focalrisk.conformal as conformal
    import focalrisk.data_model as data_model
    import focalrisk.simulate as simulate

    with pytest.MonkeyPatch.context() as mp:
        if small_caps:
            for module in (data_model, conformal):
                mp.setattr(module, "MAX_GRID", 64)
            mp.setattr(simulate, "_MAX_REPLICATIONS", 100)
            mp.setattr(simulate, "_MAX_CURVES", 500)
        code, err, written = _exit_code(argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    assert code == 0 or not written, (argv, written)  # a refused run writes nothing
