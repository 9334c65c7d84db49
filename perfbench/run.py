"""Benchmark of the ``partarget`` CLI, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  Each workload
is a closed loop with one client: the next command starts only after the
previous one has exited, so at most one ``partarget`` process runs at a
time.  Whole rounds of commands run until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs every command twice, untraced and then through
``launch.py``, which times each layer; it reports the per-layer metrics.
Without ``--workload`` every workload runs both ways.  The last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from workloads import ITEM, WORKLOADS, Mismatch, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
ENTRY = "import sys; from partarget.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
# The MC backend the reference figures in README.md were taken with.
REFERENCE_BACKEND = "numpy"

LAYERS = ("cli", "grid", "linear", "probit", "quadrature", "gaussian", "oracle", "mcsim")


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``kind`` ("end_to_end" or "per_layer"), in
    report order, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


# ------------------------------------------------------------- processes

def spawn(args: list[str], stdout: Path, stderr: Path) -> tuple[int, float, int]:
    """Run the interpreter with ``args``; return exit code, wall seconds and
    the child's peak RSS in KiB."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    # Children cache bytecode under src/, as an installed package has it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss


def run_op(op, trace_path: Path | None = None):
    """Run one operation, plain or through the tracing launcher."""
    if op.out is not None and op.out.exists():
        op.out.unlink()
    if trace_path is None:
        args = ["-c", ENTRY, *op.argv]
    else:
        args = [str(LAUNCH), str(trace_path), *op.argv]
    out, err = WORK / "stdout", WORK / "stderr"
    spawned_at = time.time()
    code, wall, rss = spawn(args, out, err)
    stdout = out.read_bytes()
    output = stdout
    if op.out is not None:
        output = op.out.read_bytes() if op.out.exists() else b""
    return Outcome(code, stdout, err.read_bytes(), output, wall, rss, spawned_at)


def judge(op, res) -> tuple[str, str, int | None]:
    """Classify an outcome as ok, failed (the command did not do its job)
    or wrong (it completed with a wrong output)."""
    last_line = (res.stderr.decode(errors="replace").strip().splitlines() or ["(no stderr)"])[-1]
    if op.usage_error:
        if res.code == 2 and res.stderr.startswith(b"error:") and b"Traceback" not in res.stderr:
            return "ok", "", None
        return "failed", f"exit {res.code}: {last_line}", None
    if res.code not in op.ok_codes:
        return "failed", f"exit {res.code}: {last_line}", None
    try:
        return "ok", "", op.check(res)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}", None


def setup_seconds() -> float:
    """Median wall time of a cold interpreter importing partarget.cli."""
    out, err = WORK / "stdout", WORK / "stderr"
    args = ["-c", "import partarget.cli"]
    code, _, _ = spawn(args, out, err)  # compiles bytecode and fills the file cache
    if code != 0:
        raise SystemExit(f"error: importing partarget.cli failed:\n{err.read_text()}")
    return statistics.median(spawn(args, out, err)[1] for _ in range(SETUP_REPEATS))


# ------------------------------------------------------------------ trace

class TraceTotals:
    """Per-layer sums over the traced operations of one run."""

    def __init__(self) -> None:
        self.ops = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.startup_s = 0.0
        self.overhead_s = 0.0
        self.value_spans = 0
        self.gaussian_in_value = 0
        self.integrate_spans = 0
        self.integrand_calls = 0

    def add(self, doc: dict, spawned_at: float, traced_wall: float, plain_wall: float) -> None:
        self.ops += 1
        self.overhead_s += traced_wall - plain_wall
        if doc["run_start"] is not None:
            self.startup_s += doc["run_start"] - spawned_at - doc["tracer_s"]
        per_call = doc["call_overhead_s"]
        parents = {}
        for sid, parent, layer, name, start, end, child, child_calls in doc["spans"]:
            parents[sid] = (parent, name)
            self.self_s[layer] += end - start - child - child_calls * per_call
            self.calls[layer] += 1
            self.value_spans += name == "value_probit"
            self.integrate_spans += name == "integrate"
        under_value: dict[int, bool] = {0: False}

        def in_value(sid: int) -> bool:
            if sid not in under_value:
                parent, name = parents[sid]
                under_value[sid] = name == "value_probit" or in_value(parent)
            return under_value[sid]

        for parent, layer, name, calls, total, child, child_calls in doc["aggregates"]:
            self.self_s[layer] += total - child - child_calls * per_call
            if name == "integrand":
                self.integrand_calls += calls
                continue
            self.calls[layer] += calls
            if layer == "gaussian" and in_value(parent):
                self.gaussian_in_value += calls

    def metrics(self) -> dict[str, float]:
        n = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] / n
            out[f"{layer}.calls"] = self.calls[layer] / n
        out["cli.startup_ms"] = 1e3 * self.startup_s / n
        out["gaussian.calls_per_value"] = self.gaussian_in_value / max(self.value_spans, 1)
        out["quadrature.evals_per_integrate"] = self.integrand_calls / max(self.integrate_spans, 1)
        out["trace.overhead_s"] = self.overhead_s / n
        return out


# ------------------------------------------------------------ microbench

def _per_call(fn, calls: list[tuple], repeats: int = 5) -> float:
    """Median over repeats of the mean seconds per call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append((time.perf_counter() - start) / len(calls))
    return statistics.median(times)


def microbenchmarks() -> dict[str, float]:
    """Public functions of the layers called directly on fixed inputs."""
    from partarget import _backend, gaussian, grid, linear, oracle, probit

    ps = [10.0 ** (-10 + 9.7 * i / 999) for i in range(1000)]
    probit_points = [(probit.ProbitParams(b, g), a)
                     for b in (0.02, 0.3) for g in (0.2, 0.8) for a in (1e-4, 1e-3)]
    delta = linear.LeverDelta(1e-4, 1e-3)
    lin = linear.LinearParams(1.0, 10.0, 0.3)
    spec = grid.GridSpec(model="linear", alpha_lo=0.01, alpha_hi=0.7, alpha_count=60,
                         gamma_lo=0.0, gamma_hi=0.98, gamma_count=60,
                         deltas=linear.LeverDelta(0.01, 0.01), costs=grid.CostModel(1.0, 0.2),
                         mu=1.0, beta_norm=10.0, alpha_spacing="linear")
    sweep = grid.sweep_grid(spec)
    cells = len(sweep.cells)
    atoms = tuple(oracle.Atom(f"a{i}", 1.0 / 12, math.sin(i)) for i in range(11))
    atoms += (oracle.Atom("a11", 1.0 - math.fsum(a.mass for a in atoms), 0.3),)
    dist = oracle.DiscreteDistribution(atoms)
    samples = 1 << 20
    threshold = gaussian.upper_quantile(0.05)
    return {
        "gaussian.quantile_us": 1e6 * _per_call(gaussian.quantile, [(p,) for p in ps]),
        "gaussian.upper_quantile_us": 1e6 * _per_call(gaussian.upper_quantile, [(p,) for p in ps]),
        "gaussian.cdf_us": 1e6 * _per_call(gaussian.cdf, [(-8.0 + 16.0 * i / 999,) for i in range(1000)]),
        "probit.value_ms": 1e3 * _per_call(probit.value_probit, probit_points, 3),
        # PAR at 20 times those alphas, where every prediction gain clears the
        # package's noise floor.
        "probit.par_ms": 1e3 * _per_call(
            probit.par_probit_exact, [(p, 20 * a, delta) for p, a in probit_points], 3),
        "linear.par_us": 1e6 * _per_call(
            linear.par_linear_exact, [(lin, 0.4 * p, delta) for p in ps]),
        "grid.serialize_json_us_per_cell": 1e6 * _per_call(
            grid.serialize_grid, [(sweep, "json")]) / cells,
        "grid.serialize_csv_us_per_cell": 1e6 * _per_call(
            grid.serialize_grid, [(sweep, "csv")]) / cells,
        "grid.contour_us_per_cell": 1e6 * _per_call(
            grid.extract_indifference_contour, [(sweep,)]) / cells,
        "mcsim.linear_msamples_per_s": samples / 1e6 / _per_call(
            _backend.linear_sums, [(7, samples, 1.0, 3.0, math.sqrt(91.0), threshold)], 3),
        "mcsim.probit_msamples_per_s": samples / 1e6 / _per_call(
            _backend.probit_sums, [(7, samples, -1.28, 0.3, math.sqrt(0.91), threshold)], 3),
        "oracle.brute_force_subsets_per_s": (2 ** len(atoms) - 1) / _per_call(
            oracle.brute_force_allocate, [(dist, 0.5)], 3),
    }


# -------------------------------------------------------------- workloads

def environment() -> dict:
    import numpy
    import scipy

    import partarget

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mc_backend": partarget.MC_BACKEND,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    problems: list[str] = []
    failures: list[str] = []
    metrics: dict[str, float] = {}
    if trace:
        problems += [f"reference self-check: {p}" for p in reference.self_check()]
    else:
        metrics["setup_s"] = setup_seconds()

    rng = random.Random(f"{name}:{seed}")
    make_round = WORKLOADS[name]
    ops = make_round(rng, WORK)
    warm = run_op(ops[0])  # fills caches; its bytes are the determinism reference

    walls, items = [], 0.0
    rss_by_kind: dict[str, list[int]] = defaultdict(list)
    attempted = failed = 0
    grid_cells = grid_ok = grid_ops = grid_bytes = 0
    totals = TraceTotals()
    start = time.perf_counter()
    first = True
    while True:
        for op in ops:
            res = run_op(op)
            attempted += 1
            walls.append(res.wall_s)
            rss_by_kind[op.label].append(res.maxrss_kb)
            items += op.items
            status, message, ok_cells = judge(op, res)
            if status == "failed":
                failed += 1
                failures.append(f"{op.label}: {message}")
            elif status == "wrong":
                problems.append(f"{op.label}: {message}")
            if ok_cells is not None:
                grid_ops += 1
                grid_cells += op.items
                grid_ok += ok_cells
                grid_bytes += len(res.output)
            if first:
                first = False
                if (warm.stdout, warm.output) != (res.stdout, res.output):
                    problems.append(f"{op.label}: repeated command gave different bytes")
            if trace:
                trace_path = WORK / "trace.json"
                traced = run_op(op, trace_path)
                if (traced.code, traced.stdout, traced.output) != (res.code, res.stdout, res.output):
                    problems.append(f"{op.label}: traced run differs from the plain run")
                totals.add(json.loads(trace_path.read_text()), traced.spawned_at,
                           traced.wall_s, res.wall_s)
        if time.perf_counter() - start >= seconds:
            break
        ops = make_round(rng, WORK)

    if trace:
        metrics.update(totals.metrics())
        # Per cell of the sweeps that completed; 0 where the workload has none.
        metrics["grid.self_us_per_cell"] = (
            1e6 * totals.self_s["grid"] / grid_cells if grid_cells else 0.0)
        metrics["grid.output_bytes"] = grid_bytes / max(grid_ops, 1)
        metrics["grid.ok_ratio"] = grid_ok / max(grid_cells, 1)
        metrics.update(microbenchmarks())
    else:
        # With one client in a closed loop this is also the mean latency: one
        # over it, times the items per command.
        metrics["items_per_s"] = items / math.fsum(walls)
        # The heaviest kind of command, at the least of its repeats: the peak
        # of one command moves up by several MB with the machine's memory
        # state (huge pages), while real growth raises every repeat.
        metrics["peak_rss_mb"] = max(min(v) for v in rss_by_kind.values()) / 1024
    shutil.rmtree(WORK, ignore_errors=True)
    return {
        "problems": problems,
        "failures": failures,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in
                        declared_units("per_layer" if trace else "end_to_end").items()},
        },
    }


def report(name: str, seed: int, seconds: float, trace: bool, env: dict, out: dict) -> None:
    print(f"== {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
          f"(items are {ITEM[name]})")
    print("environment " + json.dumps(env))
    if env["mc_backend"] != REFERENCE_BACKEND:
        print(f"warning: MC backend {env['mc_backend']!r} differs from the reference "
              f"{REFERENCE_BACKEND!r}; Monte Carlo figures are not comparable")
    for key, m in out["result"]["metrics"].items():
        print(f"  {key:<36} {m['value']:>16.6g} {m['unit']}")
    res = out["result"]
    print(f"  attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    for line in sorted(set(out["failures"])):
        print(f"failed: {line}", file=sys.stderr)
    for line in out["problems"]:
        print(f"WRONG: {line}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args()

    if not (SRC / "partarget" / "cli.py").is_file():
        print(f"error: no partarget sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()

    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(args.workload, args.seed, args.seconds, bool(args.trace), env, out)
        print(json.dumps(out["result"]))
        return 0

    traces = (False, True) if args.trace is None else (bool(args.trace),)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in traces:
            out = run_workload(name, args.seed, args.seconds, trace)
            report(name, args.seed, args.seconds, trace, env, out)
            res = out["result"]
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for key, m in res["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
