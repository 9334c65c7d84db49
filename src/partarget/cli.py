"""Command-line front end.

Subcommands: value, par, bounds, grid, verify, allocate.  Every run is
fully determined by argv (plus the seed where one applies); there is no
environment or config-file state, so identical invocations produce
byte-identical output.

Exit codes: 0 success, 2 domain/precondition violations and bad usage,
1 internal numerical failure (including a failed `verify`) or an output
failure: stdout closed, a full disk, or a reader that left part-way.

Importing this module loads no NumPy.  A handler builds all its input records
before it imports ``grid``, so only the computation's own refusals load NumPy:
alpha outside a function's domain, a lever step out of the model's regime or
too small, a failed bounds hypothesis, a grid whose cost ratio prices no
cell, and numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from typing import NoReturn, Sequence

from . import inputs
from .errors import DomainError, PartargetError

__all__ = ["main", "run"]


def _fmt(x: float, machine: bool) -> str:
    return ("%.17g" if machine else "%.6g") % x


def _lines(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _params(args: argparse.Namespace):
    """The model's parameters, from the flags."""
    return inputs.model_params(args.model, args.gamma_s, args.mu, args.beta_norm, args.base_rate)


def _model(args: argparse.Namespace):
    """The model's functions; this loads NumPy, so it comes after the records."""
    from .grid import MODELS
    return MODELS[args.model]


def _cmd_value(args: argparse.Namespace) -> tuple[int, bytes]:
    p = _params(args)
    return 0, _lines(_fmt(_model(args).value(p, args.alpha), args.machine))


def _cmd_par(args: argparse.Namespace) -> tuple[int, bytes]:
    p, d = _params(args), inputs.LeverDelta(args.delta_alpha, args.delta_r2)
    return 0, _lines(_fmt(_model(args).par(p, args.alpha, d), args.machine))


def _cmd_bounds(args: argparse.Namespace) -> tuple[int, bytes]:
    p, d = _params(args), inputs.LeverDelta(args.delta_alpha, args.delta_r2)
    if args.eps is not None:
        if args.model != "probit":
            raise DomainError("--eps is only valid with --model probit")
        inputs.check_bounds_eps(args.alpha, args.eps)
    model = _model(args)
    pair = (model.bounds(p, args.alpha, d) if args.eps is None
            else model.bounds(p, args.alpha, d, args.eps))
    exact = model.par(p, args.alpha, d)
    m = args.machine
    return 0, _lines(f"lower {_fmt(pair.lower, m)}", f"upper {_fmt(pair.upper, m)}",
                     f"exact {_fmt(exact, m)}",
                     f"contained {'yes' if pair.contains(exact) else 'no'}")


def _grid_spec_from_args(args: argparse.Namespace) -> inputs.GridSpec:
    if args.spec is not None:
        import json
        try:  # utf-8-sig: a byte-order mark, as spreadsheets write one, is not part of the JSON
            with open(args.spec, "r", encoding="utf-8-sig") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read grid spec {args.spec!r}: {exc.strerror}") from exc
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise DomainError(f"grid spec {args.spec!r} is not valid JSON: {exc}") from exc
        return inputs.GridSpec.from_dict(doc)
    required = ("model", "alpha_lo", "alpha_hi", "gamma_lo", "gamma_hi",
                "delta_alpha", "delta_r2", "cost_access", "cost_prediction")
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise DomainError(f"grid needs either --spec or all of: {flags}")
    # The flags' dest names are the spec's field names; from_dict ignores
    # the others (format, out, ...) and fills in the defaults.
    return inputs.GridSpec.from_dict({k: v for k, v in vars(args).items() if v is not None})


def _cmd_grid(args: argparse.Namespace) -> tuple[int, bytes]:
    spec = _grid_spec_from_args(args)
    from .grid import serialize_grid, sweep_grid
    return 0, serialize_grid(sweep_grid(spec), args.format)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, bytes]:
    p, cfg = _params(args), inputs.SimConfig(samples=args.samples, seed=args.seed)
    model = _model(args)
    target = model.value(p, args.alpha)
    est = model.simulate(p, args.alpha, cfg)
    judged, v = est, target
    if not est.std_error:
        # A sample without spread, as when nothing was a hit, is judged against the
        # spread the closed form implies, in the unit u of its mean square: v = V/u.
        mean_sq, unit = model.second_moment(p, args.alpha)
        v = target / unit
        from .oracle import Estimate
        judged = Estimate(est.mean / unit, math.sqrt((mean_sq - v * v) / est.samples), est.samples)
    m = args.machine
    z = judged.z_score(v)
    ok = judged.within(v, 4.0)
    return 0 if ok else 1, _lines(
        f"closed_form {_fmt(target, m)}", f"mc_mean {_fmt(est.mean, m)}",
        f"mc_std_error {_fmt(est.std_error, m)}", f"z_score {_fmt(z, m)}",
        f"result {'pass' if ok else 'fail'} (4 standard errors)")


def _read_distribution(path: str) -> inputs.DiscreteDistribution:
    try:  # utf-8-sig: a byte-order mark, as spreadsheets write one, is not part of the header
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(
            f"cannot read distribution file {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"distribution file {path!r} is not valid UTF-8: {exc}") from exc
    import csv
    reader = csv.DictReader(io.StringIO(text, newline=""))
    expected = ["label", "mass", "cond_mean"]
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != expected:
        raise DomainError(
            f"distribution file must have header {','.join(expected)!r}"
        )
    reader.fieldnames = expected  # rows are read by the stripped names
    atoms = []
    for row in reader:
        try:
            label, mass, cond_mean = row.values()  # a field past the header's three is a fourth
            atoms.append(inputs.Atom(label, float(mass), float(cond_mean)))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed distribution row {row!r}") from exc
    return inputs.DiscreteDistribution(tuple(atoms))


def _cmd_allocate(args: argparse.Namespace) -> tuple[int, bytes]:
    dist = _read_distribution(args.dist)
    alloc = inputs.greedy_allocate(dist, args.alpha)
    m = args.machine
    lines = [f"treated {','.join(alloc.treated) if alloc.treated else '(none)'}",
             f"treated_mass {_fmt(alloc.treated_mass, m)}", f"welfare {_fmt(alloc.welfare, m)}"]
    if args.brute_force:
        best = inputs.brute_force_allocate(dist, args.alpha)
        lines += [f"brute_force_treated {','.join(best.treated) if best.treated else '(none)'}",
                  f"brute_force_welfare {_fmt(best.welfare, m)}"]
    return 0, _lines(*lines)


def _write_all(payload: bytes, path: str | None) -> None:
    """Write all of ``payload`` to the file at ``path``, or to stdout, and flush it.
    A short write, as to a reader that left part-way, is retried with the rest, which raises."""
    if path is None and sys.stdout is None:  # fd 1 was closed at start-up
        raise OSError("stdout is closed")
    with open(path, "wb") if path is not None else contextlib.nullcontext(sys.stdout.buffer) as fh:
        view = memoryview(payload)
        while view:
            view = view[fh.write(view):]
        fh.flush()


def _say(message: str) -> None:
    """Write one message line to stderr.  With stderr closed (None) or
    unwritable the line is dropped, and the exit code alone reports the failure."""
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.write(message + "\n")
        sys.stderr.flush()


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every string float() reads as a value,
    where argparse would take -1e-5 or -inf for an unknown flag."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message: str) -> NoReturn:  # usage and message go to stderr only
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(2)

    def print_help(self, file=None) -> None:  # help is output, written as every output is
        _write_all(self.format_help().encode("utf-8"), None)


# Each subcommand's help line, in the order help lists them.  Its handler is
# the function _cmd_<name>, looked up when the command runs.
_SUBCOMMANDS = {
    "value": "evaluate the optimal-policy value function",
    "par": "exact prediction-access ratio",
    "bounds": "analytic PAR bounds plus containment check",
    "grid": "cost-benefit grid sweep with contour",
    "verify": "Monte Carlo check of the value function",
    "allocate": "greedy allocation on a discrete distribution",
}


def _add_flags(sub: argparse.ArgumentParser, name: str) -> None:
    """Add the flags of subcommand ``name`` to its parser ``sub``."""
    if name in ("value", "par", "bounds", "verify"):
        sub.add_argument("--model", required=True, choices=inputs.MODEL_NAMES)
        sub.add_argument("--mu", type=float, help="mean welfare improvement (linear only)")
        sub.add_argument("--beta-norm", type=float,
                         help="welfare standard deviation (linear only)")
        sub.add_argument("--base-rate", type=float,
                         help="share with positive welfare (probit only)")
        sub.add_argument("--gamma-s", type=float, required=True,
                         help="prediction level, the square root of r squared")
        sub.add_argument("--alpha", type=float, required=True,
                         help="access level: maximum treatable fraction")
    if name in ("par", "bounds"):
        sub.add_argument("--delta-alpha", type=float, required=True,
                         help="proposed access increment")
        sub.add_argument("--delta-r2", type=float, required=True,
                         help="proposed prediction increment")
    if name == "bounds":
        sub.add_argument("--eps", type=float, default=None,
                         help="slack for the probit bounds, in (0, 0.1); default 0.05")
    elif name == "grid":
        sub.add_argument("--spec", help="JSON grid spec file (overrides flags)")
        sub.add_argument("--model", choices=inputs.MODEL_NAMES)
        # The spec's numeric fields in its order; each dest is the field's name.
        for field in ("mu", "beta_norm", "base_rate", "alpha_lo", "alpha_hi", "alpha_count",
                      "gamma_lo", "gamma_hi", "gamma_count", "delta_alpha", "delta_r2",
                      "cost_access", "cost_prediction", "clip_lo", "clip_hi"):
            count = field.endswith("_count")
            sub.add_argument("--" + field.replace("_", "-"), type=int if count else float,
                             default=20 if count else None)
        sub.add_argument("--alpha-spacing", choices=("log", "linear"))
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--out", help="output path; stdout when omitted")
    elif name == "verify":
        sub.add_argument("--samples", type=int, required=True)
        sub.add_argument("--seed", type=int, required=True)
    elif name == "allocate":
        sub.add_argument("--dist", required=True,
                         help="CSV file with header label,mass,cond_mean")
        sub.add_argument("--alpha", type=float, required=True)
        sub.add_argument("--brute-force", action="store_true",
                         help="also print the exhaustive optimum (at most 20 atoms)")
    if name != "grid":  # a grid always writes every digit
        sub.add_argument("--machine", action="store_true",
                         help="print full 17-significant-digit precision")


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of all six subcommands, with flags (and -h) only on the
    first one that a token of ``argv`` names.  argparse takes the first
    positional token for the subcommand, and one that names none is a usage
    error, so the others' flags would never be read."""
    parser = _Parser(
        prog="partarget",
        description="Welfare value functions, prediction-access ratios and "
                    "cost-benefit grids for budget-constrained targeting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if arg in _SUBCOMMANDS), None)
    for name, text in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=text, add_help=name == chosen)
        if name == chosen:
            _add_flags(sub, name)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run the command in ``argv`` (default ``sys.argv[1:]``) and return its exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        code, payload = globals()["_cmd_" + args.command](args)
        _write_all(payload, getattr(args, "out", None))
        return code
    except SystemExit as exc:  # argparse: 0 after help, 2 after a usage error
        return exc.code
    except DomainError as exc:
        _say(f"error: {exc}")
        return 2
    except PartargetError as exc:
        _say(f"numerical failure: {exc}")
        return 1
    except OSError as exc:
        _say(f"i/o error: {exc}")
        return 1


def main() -> NoReturn:
    """Run the command in ``sys.argv``, then end the process with ``os._exit``.

    ``run()`` is the in-process API.  ``main()`` flushes stdout and stderr and
    skips interpreter teardown (90 to 170 ms a command), so atexit handlers of
    a wrapping caller do not run.  A stream that is closed (None) or fails to
    flush is passed over, as ``run()`` reported any failed write; an uncaught
    exception takes the ordinary exit, which reports it as before.
    """
    if "numpy" not in sys.modules:
        # The package calls no BLAS routine, so the CLI's own process needs
        # none of the threads OpenBLAS would start as NumPy loads.  A value
        # the caller set is kept.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = run()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, OSError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
