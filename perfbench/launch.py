"""Run one ``partarget`` command with every layer traced.

    python launch.py TRACE_OUT ARG...

behaves like ``partarget ARG...`` (same stdout, stderr and exit code),
after wrapping the public functions of each package module in timing
wrappers.  The trace is kept in memory and written to TRACE_OUT as JSON
when the command ends, whether it returns, exits or raises:

* ``spans``: one record ``[id, parent, layer, name, start, end, child_s,
  child_calls]`` per call of a coarse function (a subcommand, a sweep, one
  value or PAR evaluation, a Monte Carlo kernel call).  ``child_s`` is the
  time spent inside traced callees and ``child_calls`` their number.
* ``aggregates``: ``[parent, layer, name, calls, total_s, child_s,
  child_calls]`` for hot scalar primitives (the Gaussian functions, the
  linear closed forms, the cost-benefit ratio and the quadrature
  integrand), summed per parent span instead of recorded call by call.
* ``call_overhead_s``: the measured cost of one wrapper outside the interval
  it times.  It lands in the caller, so a frame's self time is
  ``duration - child_s - child_calls * call_overhead_s``.
* ``run_start`` (wall clock, ``time.time``) and ``tracer_s``, the time the
  wrapping itself took, from which the caller derives start-up time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Module -> layer.  _backend re-exports the active Monte Carlo kernel.
LAYERS = {
    "partarget.cli": "cli",
    "partarget.grid": "grid",
    "partarget.linear": "linear",
    "partarget.probit": "probit",
    "partarget.quadrature": "quadrature",
    "partarget.gaussian": "gaussian",
    "partarget.oracle": "oracle",
    "partarget._backend": "mcsim",
    "partarget._mcsim_py": "mcsim",
    "partarget._mcsim": "mcsim",
}
HOT_LAYERS = {"gaussian", "linear"}
HOT_FUNCTIONS = {("grid", "cost_benefit")}


class Tracer:
    """Span and aggregate recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_start: float | None = None  # wall-clock time cli.run was entered
        self.aggregates: dict[tuple, list] = {}
        # One frame per active traced call:
        # [id of nearest span, child seconds, child calls].
        self._stack: list[list] = [[0, 0.0, 0]]

    def span(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans) + 1, stack[-1][0], layer, name, 0.0, 0.0, 0.0, 0]
            spans.append(record)
            frame = [record[0], 0.0, 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                stack[-1][1] += end - start
                stack[-1][2] += 1
                record[4:] = start, end, frame[1], frame[2]

        return traced

    def hot(self, layer: str, name: str, fn):
        aggregates, stack = self.aggregates, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [stack[-1][0], 0.0, 0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                stack[-1][2] += 1
                key = (frame[0], layer, name)
                agg = aggregates.get(key)
                if agg is None:
                    aggregates[key] = [1, elapsed, frame[1], frame[2]]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += frame[1]
                    agg[3] += frame[2]

        return traced

    def install(self) -> None:
        """Replace each public function of every layer module, wherever the
        package holds a reference to it (``from .x import f`` copies too)."""
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("partarget") and m is not None]
        wrappers = {}
        for mod in modules:
            layer = LAYERS.get(mod.__name__)
            if layer is None:
                continue
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or id(fn) in wrappers:
                    continue
                fn_layer = LAYERS.get(fn.__module__, layer)
                if fn_layer in HOT_LAYERS or (fn_layer, name) in HOT_FUNCTIONS:
                    wrappers[id(fn)] = self.hot(fn_layer, name, fn)
                elif fn_layer == "quadrature" and name == "integrate":
                    wrappers[id(fn)] = self._integrate(fn)
                else:
                    wrappers[id(fn)] = self.span(fn_layer, name, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(mod, name, wrappers[id(value)])

    def _integrate(self, fn):
        """Span around the integrator whose integrand is counted and timed
        as a hot call of the layer that defines it."""
        def with_traced_integrand(f, *args, **kwargs):
            layer = LAYERS.get(getattr(f, "__module__", ""), "quadrature")
            return fn(self.hot(layer, "integrand", f), *args, **kwargs)

        return self.span("quadrature", "integrate", functools.wraps(fn)(with_traced_integrand))

    def dump(self, path: str, tracer_s: float, call_overhead_s: float) -> None:
        doc = {
            "run_start": self.run_start,
            "tracer_s": tracer_s,
            "call_overhead_s": call_overhead_s,
            "spans": self.spans,
            "aggregates": [[*key, *val] for key, val in self.aggregates.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def call_overhead(calls: int = 20000) -> float:
    """Seconds a hot wrapper adds to its caller beyond the interval it records."""
    def noop():
        return None

    probe = Tracer()
    traced = probe.hot("calibration", "noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    recorded = sum(agg[1] for agg in probe.aggregates.values())
    return max(wrapped - plain - recorded, 0.0) / calls


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import partarget.cli

    begin = time.perf_counter()
    overhead = call_overhead()
    tracer = Tracer()
    tracer.install()
    tracer_s = time.perf_counter() - begin
    try:
        tracer.run_start = time.time()
        code = partarget.cli.run(argv)
    finally:
        tracer.dump(trace_path, tracer_s, overhead)
    sys.exit(code)


if __name__ == "__main__":
    main()
