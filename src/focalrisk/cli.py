"""Command-line interface.

Subcommands: predict, risk-curve, simulate, verify-bounds, coverage.
Exit codes: 0 success, 2 validation error, 3 output write failure.
Flags override an optional key=value config file (--config); the default
output directory can be set via the FOCALRISK_OUT environment variable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import conformal, consistency, risk, simulate
from .data_model import (
    ThetaGrid,
    TrueModel,
    absolute_error_loss,
    make_sample,
    squared_error_loss,
)
from .errors import FocalRiskError

_SCORES = {
    "identity": conformal.NonconformityScore.identity,
    "loo-mean": conformal.NonconformityScore.distance_to_loo_mean,
}
_LOSSES = {"squared": squared_error_loss, "absolute": absolute_error_loss}


class ValidationFailure(Exception):
    pass


def _read_data(args) -> list[float]:
    if getattr(args, "values", None):
        try:
            return [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as e:
            raise ValidationFailure(f"BadNumber: {e}")
    if getattr(args, "data", None):
        try:
            text = Path(args.data).read_text()
        except OSError as e:
            raise ValidationFailure(f"UnreadableInput: {e}")
        out = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                out.append(float(line))
            except ValueError:
                raise ValidationFailure(f"BadNumber: {line!r}")
        return out
    raise ValidationFailure("MissingData: provide --data or --values")


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("FOCALRISK_OUT") or "."
    return Path(out)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _parse_list(raw, cast):
    if isinstance(raw, str):
        return [cast(v) for v in raw.split(",") if v.strip()]
    return [cast(raw)]


def cmd_predict(args) -> int:
    data = _read_data(args)
    sample = make_sample(data, args.lo, args.hi)
    focal = conformal.focal_sets(sample, _SCORES[args.score](), grid_points=args.grid_points)
    pred = conformal.prediction_set(focal, args.alpha)
    out = _out_dir(args)
    _write(out / "focal.txt", conformal.serialize_focal_system(focal))
    pred_text = f"# k={pred.k} nominal_coverage={pred.nominal_coverage:.17g}\n"
    pred_text += conformal.serialize_prediction_set(pred)
    _write(out / "prediction.txt", pred_text)
    ys = np.linspace(args.lo, args.hi, 1001)
    rows = zip(ys.tolist(), conformal.contour(focal, ys).tolist())
    _write(out / "contour.csv", risk.format_csv("y,contour", rows))
    return 0


def cmd_risk_curve(args) -> int:
    data = _read_data(args)
    sample = make_sample(data, args.lo, args.hi)
    loss = _LOSSES[args.loss]((args.theta_lo, args.theta_hi))
    grid = ThetaGrid(args.theta_lo, args.theta_hi, args.theta_count)
    emp = risk.risk_curve(loss, grid, risk.RiskKind.EMPIRICAL, sample=sample)
    upper = risk.risk_curve(loss, grid, risk.RiskKind.UPPER, sample=sample)
    true_vals = [""] * grid.count
    if args.model == "truncnorm":
        model = TrueModel.truncated_std_normal(args.lo, args.hi)
        true_vals = risk.risk_curve(loss, grid, risk.RiskKind.TRUE, model=model).values
    rows = zip(grid.points, emp.values, upper.values, true_vals)
    _write(_out_dir(args) / "risk_curve.csv", risk.format_csv("theta,empirical,upper,true", rows))
    return 0


def cmd_simulate(args) -> int:
    model = TrueModel.truncated_std_normal(args.lo, args.hi)
    loss = _LOSSES[args.loss]((args.theta_lo, args.theta_hi))
    config = simulate.SimConfig(
        model=model,
        loss=loss,
        n_values=tuple(_parse_list(args.n, int)),
        replications=args.replications,
        theta_grid=ThetaGrid(args.theta_lo, args.theta_hi, args.theta_count),
        percentiles=(args.percentile_lo, args.percentile_hi),
        histogram_bins=args.bins,
        master_seed=args.seed,
    )
    summary = simulate.run_replications(config)
    out = _out_dir(args)
    simulate.write_summary(summary, out)
    if args.svg:
        from . import svgplot

        thetas = config.theta_grid.points
        true_curve = risk.true_risk_curve(loss, model, thetas)
        palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd"]
        curves = [("true risk", "#000000", true_curve)]
        bands = []
        hists = []
        for i, (n, s) in enumerate(summary.per_n.items()):
            color = palette[i % len(palette)]
            curves.append((f"median upper risk, n={n}", color, s.median_curve.values))
            bands.append((color, s.band_lo.values, s.band_hi.values))
            hists.append((f"n={n}", color, s.histogram_edges, s.histogram_counts))
        _write(
            out / "risk_curves.svg",
            svgplot.render_curves(thetas, curves, bands, title="Upper risk across replications"),
        )
        _write(
            out / "minimizer_histograms.svg",
            svgplot.render_histograms(hists, title="Upper-risk minimizers"),
        )
    return 0


def cmd_verify_bounds(args) -> int:
    model = TrueModel.truncated_std_normal(args.lo, args.hi)
    loss = _LOSSES[args.loss]((args.theta_lo, args.theta_hi))
    out = _out_dir(args)
    thetas, epsilons = _parse_list(args.theta, float), _parse_list(args.epsilon, float)
    for eps in epsilons:
        consistency.check_epsilon(eps)
    if args.uniform:  # before any pointwise report is written
        conformal.check_alpha(args.alpha)
        grid = ThetaGrid(args.theta_lo, args.theta_hi, args.theta_count)
    for n in _parse_list(args.n, int):
        reports = consistency.pointwise_reports(
            model, loss, thetas, n, epsilons, replications=args.replications, seed=args.seed,
        )
        for report, (eps, theta) in zip(reports, itertools.product(epsilons, thetas)):
            _write(out / f"bound_n{n}_eps{eps:g}_theta{theta:g}.json", report.to_json() + "\n")
    if args.uniform:
        for eps in epsilons:
            report = consistency.verify_uniform(
                model, loss, grid, eps, args.alpha, args.seed,
                replications=args.replications,
            )
            _write(out / f"uniform_eps{eps:g}.json", report.to_json() + "\n")
    return 0


def cmd_coverage(args) -> int:
    model = TrueModel.truncated_std_normal(args.lo, args.hi)
    alphas, score_names = _parse_list(args.alpha, float), _parse_list(args.score, str)
    for alpha in alphas:  # every alpha and score name is checked before the first experiment
        conformal.check_alpha(alpha)
    for name in (s for s in score_names if s not in _SCORES):
        raise ValidationFailure(f"UnknownScore: {name}")
    scores, rows, ns = [_SCORES[name]() for name in score_names], [], _parse_list(args.n, int)
    for n in ns if alphas and scores else []:  # no row to fill needs no draw
        emp = simulate.coverage_experiment(model, scores, n, alphas, args.replications, args.seed)
        for (i, alpha), j in itertools.product(enumerate(alphas), range(len(scores))):
            k = conformal.nested_set_index(n, alpha)
            nominal = conformal.coverage_probability(n, k)
            rows.append((n, alpha, k, nominal, emp[i, j], args.replications))
    header = "n,alpha,k,nominal,empirical,reps"
    _write(_out_dir(args) / "coverage.csv", risk.format_csv(header, rows))
    return 0


def _add_support(p):
    p.add_argument("--lo", type=float, default=-3.0, help="support lower endpoint")
    p.add_argument("--hi", type=float, default=3.0, help="support upper endpoint")


def _add_theta(p):
    p.add_argument("--theta-lo", type=float, default=-1.0)
    p.add_argument("--theta-hi", type=float, default=1.0)
    p.add_argument("--theta-count", type=int, default=101)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing and ``_apply_config`` only read it."""
    parser = argparse.ArgumentParser(
        prog="focalrisk",
        description="Focal-set predictive inference and upper-risk decision tools",
        allow_abbrev=False,  # an abbreviated flag would escape the --config override check
    )
    parser.add_argument("--config", help="key=value config file (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="focal sets, prediction set, contour", allow_abbrev=False)
    p.add_argument("--data", help="input file, one number per line, # comments")
    p.add_argument("--values", help="inline comma-separated data")
    _add_support(p)
    p.add_argument("--score", choices=sorted(_SCORES), default="identity")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("risk-curve", help="empirical/upper/true risk CSV", allow_abbrev=False)
    p.add_argument("--data")
    p.add_argument("--values")
    _add_support(p)
    p.add_argument("--loss", choices=sorted(_LOSSES), default="squared")
    _add_theta(p)
    p.add_argument("--model", choices=["truncnorm"], default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_risk_curve)

    p = sub.add_parser("simulate", help="replication study", allow_abbrev=False)
    _add_support(p)
    p.add_argument("--n", default="20,200", help="comma-separated sample sizes")
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss", choices=sorted(_LOSSES), default="squared")
    _add_theta(p)
    p.add_argument("--percentile-lo", type=float, default=0.05)
    p.add_argument("--percentile-hi", type=float, default=0.95)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-bounds", help="concentration-bound reports", allow_abbrev=False)
    _add_support(p)
    p.add_argument("--loss", choices=sorted(_LOSSES), default="squared")
    _add_theta(p)
    p.add_argument("--theta", default="0", help="comma-separated theta values")
    p.add_argument("--n", default="100")
    p.add_argument("--epsilon", default="1")
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uniform", action="store_true")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("coverage", help="prediction-set coverage experiments", allow_abbrev=False)
    _add_support(p)
    p.add_argument("--n", default="20")
    p.add_argument("--alpha", default="0.2")
    p.add_argument("--score", default="identity", help="comma-separated score kinds")
    p.add_argument("--replications", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_coverage)
    # read -1e-3, -.5 and -0.5,0.2 as values: the only single-dash option is -h
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-[\d.]")
    return parser


def _load_config(path: str) -> dict:
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValidationFailure(f"UnreadableConfig: {e}")
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationFailure(f"BadConfigLine: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _apply_config(parser, args, cfg: dict, explicit: set) -> None:
    """Set config values the command line left unset, checked like their flags."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in commands.choices[args.command]._actions}
    for key, val in cfg.items():
        action = actions.get(key)
        if key in explicit or action is None:
            continue
        if action.nargs == 0:  # a store_true flag
            setattr(args, key, val.lower() in ("1", "true", "yes"))
            continue
        try:
            value = action.type(val) if action.type else val
        except ValueError:
            raise ValidationFailure(f"BadConfigValue: {key} = {val!r}")
        if action.choices is not None and value not in action.choices:
            raise ValidationFailure(f"BadConfigValue: {key} = {val!r} not in {action.choices}")
        setattr(args, key, value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            explicit = {a[2:].replace("-", "_").split("=")[0] for a in argv if a[:2] == "--"}
            _apply_config(parser, args, _load_config(args.config), explicit)
        return args.func(args)
    except (FocalRiskError, ValidationFailure, ValueError) as e:
        print(f"{type(e).__name__}: {e}" if not isinstance(e, ValidationFailure) else str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(f"WriteFailure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
