"""In-memory span tracer that wraps kerrosc's public functions from outside.

The tracer records one span per call of a wrapped function: name, start,
end and the span that was open when it started (its parent).  Spans stay in
a list and are written once, when the traced process ends.  Nothing in the
library is edited: `install` rebinds each wrapped name in every loaded
`kerrosc` module that holds the same function object, so intra-package
calls such as `kerrosc.cli.integrate_wei_norman` or
`kerrosc.oracle.integrate_adaptive` go through the wrapper too.

Right-hand-side evaluations inside `integrate_adaptive` are too many to keep
as spans (266,401 for one fig. 2 oracle run), so they are aggregated into
the enclosing `integrators` span as a count and a total time.  Wrapped calls
made while an RHS evaluation runs are not recorded: their cost is RHS time.
A wrapped call made while a span of the same name is open is not recorded
either, so a layer's time is never counted twice.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer name -> (module, function) wrapped for it.  Several functions may
# feed one layer; `timemap` covers the module's public entry points that the
# CLI and the theorem check call.
WRAPPED = {
    "config.load": [("kerrosc.config", "load_config")],
    "evolution.wei_norman": [("kerrosc.evolution", "integrate_wei_norman")],
    "evolution.evolved_state": [("kerrosc.evolution", "evolved_state")],
    "evolution.linearized_ladder": [("kerrosc.evolution", "linearized_ladder")],
    "observables.autocorr": [("kerrosc.observables", "autocorrelation_series")],
    "observables.husimi": [("kerrosc.observables", "husimi_grid")],
    "kerr_states.variances": [("kerrosc.kerr_states",
                               "quadrature_variance_ratios")],
    "timemap": [("kerrosc.timemap", "rescaled_time"),
                ("kerrosc.timemap", "transformed_frequency"),
                ("kerrosc.timemap", "heisenberg_coefficients"),
                ("kerrosc.timemap", "evolve_via_timemap")],
    "oracle.exact": [("kerrosc.oracle", "integrate_exact")],
    "oracle.schrodinger": [("kerrosc.oracle", "integrate_schrodinger")],
    "integrators": [("kerrosc.integrators", "integrate_adaptive")],
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "rhs_n", "rhs_s",
                 "work")

    def __init__(self, id_, name, parent, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.rhs_n = 0
        self.rhs_s = 0.0
        self.work = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Span recorder for one process; not thread-safe (kerrosc is serial)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_rhs = 0

    def _open(self, name: str) -> Span | None:
        if self._in_rhs or any(s.name == name for s in self._stack):
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span | None):
        if span is not None:
            span.end = self.clock()
            self._stack.pop()

    def call(self, name: str, fn, args, kwargs, work=None):
        """Run fn(*args, **kwargs) inside a span; `work(args, kwargs,
        result)` returns the span's operation count."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if span is not None and work is not None:
            span.work = work(args, kwargs, result)
        return result

    def counted_rhs(self, span: Span | None, rhs):
        """RHS wrapper adding each evaluation's count and time to `span`."""
        if span is None:
            return rhs
        clock = self.clock

        def traced_rhs(t, y):
            self._in_rhs += 1
            t0 = clock()
            try:
                return rhs(t, y)
            finally:
                span.rhs_s += clock() - t0
                span.rhs_n += 1
                self._in_rhs -= 1
        return traced_rhs

    def adaptive(self, fn):
        """Wrapper for `integrate_adaptive`: a span plus RHS accounting."""
        @functools.wraps(fn)
        def wrapper(rhs, *args, **kwargs):
            span = self._open("integrators")
            try:
                return fn(self.counted_rhs(span, rhs), *args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)
        return wrapper


def _husimi_cells(args, kwargs, grid) -> int:
    state = args[0] if args else kwargs["state"]
    return int(grid.values.size) * int(state.n_trunc)


def _autocorr_points(args, kwargs, series) -> int:
    return int(series.times.size)


_WORK = {"observables.husimi": _husimi_cells,
         "observables.autocorr": _autocorr_points}


def install(tracer: Tracer) -> list[str]:
    """Wrap every function named in WRAPPED and rebind it in each loaded
    kerrosc module that refers to it.  Returns the names that were found; a
    function missing from the package is skipped and its layer reads 0."""
    found = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "kerrosc" or n.startswith("kerrosc."))]
    for layer, targets in WRAPPED.items():
        for module_name, attr in targets:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home else None
            if not callable(original):
                continue
            if layer == "integrators":
                wrapper = tracer.adaptive(original)
            else:
                wrapper = tracer.wrap(layer, original, _WORK.get(layer))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            found.append(f"{module_name}.{attr}")
    return found


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span: its duration minus the durations of its
    direct children and of the RHS evaluations it aggregated.  Grandchildren
    sit inside a child's duration, so each nested interval is subtracted
    once."""
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] - s["rhs_s"]
            for s in spans}


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals from a list of span dicts (possibly from several
    processes; ids are only compared within one list)."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    selfs = self_times(spans)
    for s in spans:
        dur = s["end"] - s["start"]
        add(f"{s['name']}.s", dur)
        add(f"{s['name']}.calls", 1)
        add(f"{s['name']}.work", s["work"])
        add(f"{s['name']}.self.s", selfs[s["id"]])
        add(f"{s['name']}.rhs_n", s["rhs_n"])
        add(f"{s['name']}.rhs.s", s["rhs_s"])
    return out
