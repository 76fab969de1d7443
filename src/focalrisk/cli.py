"""Command-line interface.

Subcommands: predict, risk-curve, simulate, verify-bounds, coverage.
Exit codes: 0 success, 2 validation error, 3 output write failure.
The command line is the only way to set a run's values; the default output
directory can be set via the FOCALRISK_OUT environment variable.

Building the parser loads no numpy: each command imports the numeric modules
it uses, so --help and every refused argument exit without them.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from pathlib import Path

from .errors import EmptyInput, FocalRiskError

_LOSSES = ["absolute", "squared"]  # the LossKind values, sorted


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


def _parse_list(raw: str, cast) -> list:
    """The distinct values of a comma-separated list, in first-seen order."""
    return list(dict.fromkeys(cast(v) for v in raw.split(",") if v.strip()))


def cmd_predict(args) -> dict[str, str]:
    from . import conformal, risk
    from .data_model import make_sample

    data = _read_data(args)
    sample = make_sample(data, args.lo, args.hi)
    ys = conformal.y_grid(args.lo, args.hi, 1001)
    focal = conformal.focal_sets(sample, conformal.NonconformityScore(args.score),
                                 grid_points=args.grid_points)
    pred = conformal.prediction_set(focal, args.alpha)
    pred_text = f"# k={pred.k} nominal_coverage={pred.nominal_coverage:.17g}\n"
    pred_text += conformal.serialize_prediction_set(pred)
    rows = zip(ys.tolist(), conformal.contour(focal, ys).tolist())
    return {"focal.txt": conformal.serialize_focal_system(focal), "prediction.txt": pred_text,
            "contour.csv": risk.format_csv("y,contour", rows)}


def cmd_risk_curve(args) -> dict[str, str]:
    from . import risk
    from .data_model import LossKind, LossSpec, ThetaGrid, make_sample

    data = _read_data(args)
    sample = make_sample(data, args.lo, args.hi)
    loss = LossSpec(LossKind(args.loss), (args.theta_lo, args.theta_hi))
    grid = ThetaGrid(args.theta_lo, args.theta_hi, args.theta_count)
    support = (args.lo, args.hi) if args.model == "truncnorm" else None
    columns = risk.risk_curve(loss, grid, sample, support)
    if support is None:  # no model: the true column is left empty
        columns.append([""] * grid.count)
    rows = zip(grid.points, *columns)
    return {"risk_curve.csv": risk.format_csv("theta,empirical,upper,true", rows)}


def cmd_simulate(args) -> dict[str, str]:
    from . import risk, simulate
    from .data_model import LossKind, LossSpec, ThetaGrid, normal_mass

    normal_mass(args.lo, args.hi)  # a support is refused before any other argument
    loss = LossSpec(LossKind(args.loss), (args.theta_lo, args.theta_hi))
    config = simulate.SimConfig(
        support=(args.lo, args.hi),
        loss=loss,
        n_values=tuple(_parse_list(args.n, int)),
        replications=args.replications,
        theta_grid=ThetaGrid(args.theta_lo, args.theta_hi, args.theta_count),
        percentiles=(args.percentile_lo, args.percentile_hi),
        histogram_bins=args.bins,
        master_seed=args.seed,
    )
    per_n = simulate.run_replications(config)
    files = simulate.write_summary(config, per_n)
    if args.svg:
        from . import svgplot

        thetas = config.theta_grid.points
        true_curve = risk.true_risk_curve(loss, config.support, thetas)
        palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd"]
        curves = [("true risk", "#000000", true_curve)]
        bands = []
        hists = []
        for i, (n, s) in enumerate(per_n.items()):
            color = palette[i % len(palette)]
            curves.append((f"median upper risk, n={n}", color, s.median_curve))
            bands.append((color, s.band_lo, s.band_hi))
            hists.append((f"n={n}", color, s.histogram_edges, s.histogram_counts))
        files["risk_curves.svg"] = svgplot.render_curves(
            thetas, curves, bands, title="Upper risk across replications")
        files["minimizer_histograms.svg"] = svgplot.render_histograms(
            hists, title="Upper-risk minimizers")
    return files


def cmd_verify_bounds(args) -> dict[str, str]:
    from . import conformal, consistency, simulate
    from .data_model import LossKind, LossSpec, ThetaGrid, normal_mass

    support = (args.lo, args.hi)
    normal_mass(*support)  # a support is refused before any other argument
    loss = LossSpec(LossKind(args.loss), (args.theta_lo, args.theta_hi))
    thetas, epsilons = _parse_list(args.theta, float), _parse_list(args.epsilon, float)
    for eps in epsilons:
        consistency.check_epsilon(eps)
    for flag, values in (("--theta", thetas), ("--epsilon", epsilons)):  # they name the files
        if len({f"{v:g}" for v in values}) < len(values):
            raise ValidationFailure(f"DuplicateName: {flag} values that print alike share a file")
    if args.uniform:  # before any draw
        conformal.check_alpha(args.alpha)
        grid = ThetaGrid(args.theta_lo, args.theta_hi, args.theta_count)
    ns = _parse_list(args.n, int) if thetas and epsilons else []  # else no pointwise report
    uniform_ns = [consistency.uniform_n(loss, support, grid, eps, args.alpha)
                  for eps in epsilons] if args.uniform else []
    for n in ns + uniform_ns:  # every sample size before the first draw
        simulate.check_run(n, args.replications, args.seed)
    if not ns + uniform_ns:
        raise EmptyInput("no sample size, theta or epsilon: there is no report to write")
    reports = {}
    for n in ns:
        pointwise = consistency.pointwise_reports(
            support, loss, thetas, n, epsilons, replications=args.replications, seed=args.seed,
        )
        for report, (eps, theta) in zip(pointwise, itertools.product(epsilons, thetas)):
            reports[f"bound_n{n}_eps{eps:g}_theta{theta:g}.json"] = report
    for eps in epsilons if args.uniform else []:
        reports[f"uniform_eps{eps:g}.json"] = consistency.verify_uniform(
            support, loss, grid, eps, args.alpha, args.seed, replications=args.replications,
        )
    return {name: report.to_json() + "\n" for name, report in reports.items()}


def cmd_coverage(args) -> dict[str, str]:
    from . import conformal, risk, simulate
    from .data_model import normal_mass

    normal_mass(args.lo, args.hi)  # a support is refused before any other argument
    alphas, score_names = _parse_list(args.alpha, float), _parse_list(args.score, str)
    for alpha in alphas:  # every alpha and score name is checked before the first experiment
        conformal.check_alpha(alpha)
    known = [s.value for s in conformal.NonconformityScore]
    for name in (s for s in score_names if s not in known):
        raise ValidationFailure(f"UnknownScore: {name}")
    scores, rows = list(map(conformal.NonconformityScore, score_names)), []
    ns = _parse_list(args.n, int) if alphas and scores else []  # no alpha or score: no row
    for n in ns:  # every n, its held-out draw included, before the first draw
        simulate.check_run(n, args.replications, args.seed, held_out=1)
    if not ns:
        raise EmptyInput("no sample size, alpha or score: there is no row to write")
    for n in ns:
        emp = simulate.coverage_experiment((args.lo, args.hi), scores, n, alphas,
                                           args.replications, args.seed)
        for (i, alpha), j in itertools.product(enumerate(alphas), range(len(scores))):
            k = conformal.nested_set_index(n, alpha)
            nominal = conformal.coverage_probability(n, k)
            rows.append((n, alpha, k, nominal, emp[i, j], args.replications))
    header = "n,alpha,k,nominal,empirical,reps"
    return {"coverage.csv": risk.format_csv(header, rows)}


def _add_support(p):
    p.add_argument("--lo", type=float, default=-3.0, help="support lower endpoint")
    p.add_argument("--hi", type=float, default=3.0, help="support upper endpoint")


def _add_theta(p):
    p.add_argument("--theta-lo", type=float, default=-1.0)
    p.add_argument("--theta-hi", type=float, default=1.0)
    p.add_argument("--theta-count", type=int, default=101)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="focalrisk",
        description="Focal-set predictive inference and upper-risk decision tools",
        # a flag is known only by its full name, so a new flag never changes an old command
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="focal sets, prediction set, contour", allow_abbrev=False)
    p.add_argument("--data", help="input file, one number per line, # comments")
    p.add_argument("--values", help="inline comma-separated data")
    _add_support(p)
    p.add_argument("--score", choices=["identity", "loo-mean"], default="identity")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--grid-points", type=int, default=2001)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("risk-curve", help="empirical/upper/true risk CSV", allow_abbrev=False)
    p.add_argument("--data")
    p.add_argument("--values")
    _add_support(p)
    p.add_argument("--loss", choices=_LOSSES, default="squared")
    _add_theta(p)
    p.add_argument("--model", choices=["truncnorm"], default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_risk_curve)

    p = sub.add_parser("simulate", help="replication study", allow_abbrev=False)
    _add_support(p)
    p.add_argument("--n", default="20,200", help="comma-separated sample sizes")
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss", choices=_LOSSES, default="squared")
    _add_theta(p)
    p.add_argument("--percentile-lo", type=float, default=0.05)
    p.add_argument("--percentile-hi", type=float, default=0.95)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-bounds", help="concentration-bound reports", allow_abbrev=False)
    _add_support(p)
    p.add_argument("--loss", choices=_LOSSES, default="squared")
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        files = args.func(args)  # every file before the first write: a refused run writes none
        out = Path(args.out or os.environ.get("FOCALRISK_OUT") or ".")
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
        return 0
    except (FocalRiskError, ValidationFailure, ValueError) as e:
        print(f"{type(e).__name__}: {e}" if not isinstance(e, ValidationFailure) else str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(f"WriteFailure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
