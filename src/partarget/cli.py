"""Command-line front end.

Subcommands: value, par, bounds, grid, verify, allocate.  Every run is
fully determined by argv (plus the seed where one applies); there is no
environment or config-file state, so identical invocations produce
byte-identical output.

Exit codes: 0 success, 2 domain/precondition violations and bad usage,
1 internal numerical failure (including a failed `verify`).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import grid as grid_mod, linear, oracle, probit
from .errors import DomainError, NumericsError, PartargetError

__all__ = ["main", "run"]


def _fmt(x: float, machine: bool) -> str:
    return ("%.17g" if machine else "%.6g") % x


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, choices=("linear", "probit"))
    sub.add_argument("--mu", type=float, help="mean welfare improvement (linear only)")
    sub.add_argument("--beta-norm", type=float,
                     help="welfare standard deviation (linear only)")
    sub.add_argument("--base-rate", type=float,
                     help="share with positive welfare (probit only)")
    sub.add_argument("--gamma-s", type=float, required=True,
                     help="prediction level, the square root of r squared")
    sub.add_argument("--alpha", type=float, required=True,
                     help="access level: maximum treatable fraction")


def _add_delta_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta-alpha", type=float, required=True,
                     help="proposed access increment")
    sub.add_argument("--delta-r2", type=float, required=True,
                     help="proposed prediction increment")


def _model_params(args: argparse.Namespace):
    if args.model == "linear":
        if args.base_rate is not None:
            raise DomainError("--base-rate is only valid with --model probit")
        if args.mu is None or args.beta_norm is None:
            raise DomainError("--model linear requires --mu and --beta-norm")
        return linear.LinearParams(args.mu, args.beta_norm, args.gamma_s)
    if args.mu is not None or args.beta_norm is not None:
        raise DomainError("--mu/--beta-norm are only valid with --model linear")
    if args.base_rate is None:
        raise DomainError("--model probit requires --base-rate")
    return probit.ProbitParams(args.base_rate, args.gamma_s)


def _cmd_value(args: argparse.Namespace) -> int:
    p = _model_params(args)
    if args.model == "linear":
        v = linear.value_linear(p, args.alpha)
    else:
        v = probit.value_probit(p, args.alpha)
    print(_fmt(v, args.machine))
    return 0


def _cmd_par(args: argparse.Namespace) -> int:
    p = _model_params(args)
    d = linear.LeverDelta(args.delta_alpha, args.delta_r2)
    if args.model == "linear":
        ratio = linear.par_linear_exact(p, args.alpha, d)
    else:
        ratio = probit.par_probit_exact(p, args.alpha, d)
    print(_fmt(ratio, args.machine))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    p = _model_params(args)
    d = linear.LeverDelta(args.delta_alpha, args.delta_r2)
    if args.model == "linear":
        if args.eps is not None:
            raise DomainError("--eps is only valid with --model probit")
        pair = linear.par_linear_bounds(p, args.alpha, d)
        exact = linear.par_linear_exact(p, args.alpha, d)
    else:
        eps = 0.05 if args.eps is None else args.eps
        pair = probit.par_probit_bounds(p, args.alpha, d, eps=eps)
        exact = probit.par_probit_exact(p, args.alpha, d)
    m = args.machine
    print(f"lower {_fmt(pair.lower, m)}")
    print(f"upper {_fmt(pair.upper, m)}")
    print(f"exact {_fmt(exact, m)}")
    print(f"contained {'yes' if pair.contains(exact) else 'no'}")
    return 0


def _grid_spec_from_args(args: argparse.Namespace) -> grid_mod.GridSpec:
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read grid spec {args.spec!r}: {exc.strerror}") from exc
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise DomainError(f"grid spec {args.spec!r} is not valid JSON: {exc}") from exc
        return grid_mod.GridSpec.from_dict(doc)
    required = ("model", "alpha_lo", "alpha_hi", "gamma_lo", "gamma_hi",
                "delta_alpha", "delta_r2", "cost_access", "cost_prediction")
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise DomainError(f"grid needs either --spec or all of: {flags}")
    return grid_mod.GridSpec(
        model=args.model,
        alpha_lo=args.alpha_lo,
        alpha_hi=args.alpha_hi,
        alpha_count=args.alpha_count,
        gamma_lo=args.gamma_lo,
        gamma_hi=args.gamma_hi,
        gamma_count=args.gamma_count,
        deltas=linear.LeverDelta(args.delta_alpha, args.delta_r2),
        costs=grid_mod.CostModel(args.cost_access, args.cost_prediction),
        mu=args.mu,
        beta_norm=args.beta_norm,
        base_rate=args.base_rate,
        clip_lo=args.clip_lo,
        clip_hi=args.clip_hi,
        alpha_spacing=args.alpha_spacing,
    )


def _cmd_grid(args: argparse.Namespace) -> int:
    spec = _grid_spec_from_args(args)
    result = grid_mod.sweep_grid(spec)
    payload = grid_mod.serialize_grid(result, args.format)
    if args.out is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    p = _model_params(args)
    cfg = oracle.SimConfig(samples=args.samples, seed=args.seed)
    if args.model == "linear":
        target = linear.value_linear(p, args.alpha)
        est = oracle.simulate_linear_value(p, args.alpha, cfg)
    else:
        target = probit.value_probit(p, args.alpha)
        est = oracle.simulate_probit_value(p, args.alpha, cfg)
    m = args.machine
    z = est.z_score(target)
    ok = est.within(target, 4.0)
    print(f"closed_form {_fmt(target, m)}")
    print(f"mc_mean {_fmt(est.mean, m)}")
    print(f"mc_std_error {_fmt(est.std_error, m)}")
    print(f"z_score {_fmt(z, m)}")
    print(f"result {'pass' if ok else 'fail'} (4 standard errors)")
    return 0 if ok else 1


def _read_distribution(path: str) -> oracle.DiscreteDistribution:
    atoms = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["label", "mass", "cond_mean"]
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
            raise DomainError(
                f"distribution file must have header {','.join(expected)!r}"
            )
        for row in reader:
            try:
                atoms.append(oracle.Atom(
                    label=row["label"],
                    mass=float(row["mass"]),
                    cond_mean=float(row["cond_mean"]),
                ))
            except (TypeError, ValueError) as exc:
                raise DomainError(f"malformed distribution row {row!r}") from exc
    return oracle.DiscreteDistribution(tuple(atoms))


def _cmd_allocate(args: argparse.Namespace) -> int:
    dist = _read_distribution(args.dist)
    alloc = oracle.greedy_allocate(dist, args.alpha)
    m = args.machine
    print(f"treated {','.join(alloc.treated) if alloc.treated else '(none)'}")
    print(f"treated_mass {_fmt(alloc.treated_mass, m)}")
    print(f"welfare {_fmt(alloc.welfare, m)}")
    if args.brute_force:
        best = oracle.brute_force_allocate(dist, args.alpha)
        print(f"brute_force_treated {','.join(best.treated) if best.treated else '(none)'}")
        print(f"brute_force_welfare {_fmt(best.welfare, m)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partarget",
        description="Welfare value functions, prediction-access ratios and "
                    "cost-benefit grids for budget-constrained targeting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("value", help="evaluate the optimal-policy value function")
    _add_model_flags(sub)
    sub.set_defaults(handler=_cmd_value)

    sub = subs.add_parser("par", help="exact prediction-access ratio")
    _add_model_flags(sub)
    _add_delta_flags(sub)
    sub.set_defaults(handler=_cmd_par)

    sub = subs.add_parser("bounds", help="analytic PAR bounds plus containment check")
    _add_model_flags(sub)
    _add_delta_flags(sub)
    sub.add_argument("--eps", type=float, default=None,
                     help="slack for the probit bounds, in (0, 0.1); default 0.05")
    sub.set_defaults(handler=_cmd_bounds)

    sub = subs.add_parser("grid", help="cost-benefit grid sweep with contour")
    sub.add_argument("--spec", help="JSON grid spec file (overrides flags)")
    sub.add_argument("--model", choices=("linear", "probit"))
    sub.add_argument("--mu", type=float)
    sub.add_argument("--beta-norm", type=float)
    sub.add_argument("--base-rate", type=float)
    sub.add_argument("--alpha-lo", type=float)
    sub.add_argument("--alpha-hi", type=float)
    sub.add_argument("--alpha-count", type=int, default=20)
    sub.add_argument("--gamma-lo", type=float)
    sub.add_argument("--gamma-hi", type=float)
    sub.add_argument("--gamma-count", type=int, default=20)
    sub.add_argument("--delta-alpha", type=float)
    sub.add_argument("--delta-r2", type=float)
    sub.add_argument("--cost-access", type=float)
    sub.add_argument("--cost-prediction", type=float)
    sub.add_argument("--clip-lo", type=float, default=0.5)
    sub.add_argument("--clip-hi", type=float, default=2.0)
    sub.add_argument("--alpha-spacing", choices=("log", "linear"), default="log")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output path; stdout when omitted")
    sub.set_defaults(handler=_cmd_grid)

    sub = subs.add_parser("verify", help="Monte Carlo check of the value function")
    _add_model_flags(sub)
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("allocate", help="greedy allocation on a discrete distribution")
    sub.add_argument("--dist", required=True,
                     help="CSV file with header label,mass,cond_mean")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--brute-force", action="store_true",
                     help="also print the exhaustive optimum (at most 20 atoms)")
    sub.set_defaults(handler=_cmd_allocate)

    for sp in subs.choices.values():
        sp.add_argument("--machine", action="store_true",
                        help="print full 17-significant-digit precision")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, PartargetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
