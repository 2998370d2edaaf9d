"""Spans for the benchmark's traced mode, and the per-layer metrics taken
from them.

A span is recorded by the benchmark around each call it makes into a public
function of a totreal layer.  Calls that a layer makes into another layer
stay inside the caller's span: self time is not separated here.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import traceback


class Recorder:
    """Makes the benchmark's calls into the library.

    With ``tracing`` on, each call leaves a span ``[id, parent, layer, name,
    start, end]``; phases of a workload are spans of the layer ``bench`` and
    are the parents of the calls made inside them.  An exception raised by a
    call is kept as a failed operation and the call returns None, so the pass
    goes on.  With a ``watch`` (speed.Stopwatch), a timing segment may end
    after each call; the reference loop that follows runs outside the call's
    span.
    """

    def __init__(self, tracing: bool, watch=None):
        self.tracing = tracing
        self.watch = watch
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.errors: list[str] = []
        self._stack: list = [None]

    def call(self, fn, *args, **kw):
        try:
            return self._call(fn, *args, **kw)
        finally:
            if self.watch:
                self.watch.maybe_lap()

    def _call(self, fn, *args, **kw):
        if not self.tracing:
            try:
                return fn(*args, **kw)
            except Exception:
                self._error(fn)
                return None
        sid = len(self.spans)
        span = [sid, self._stack[-1], _layer(fn), fn.__name__, time.perf_counter(), None]
        self.spans.append(span)
        try:
            return fn(*args, **kw)
        except Exception:
            self._error(fn)
            return None
        finally:
            span[5] = time.perf_counter()

    def iterate(self, fn, *args):
        """Yield the items of generator ``fn(*args)``; with tracing on, one
        span covers each step from resuming the generator to its next item."""
        gen = fn(*args)
        while True:
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            except Exception:
                self._error(fn)
                return
            if self.tracing:
                self.add(_layer(fn), fn.__name__, t0, time.perf_counter())
            if self.watch:
                self.watch.maybe_lap()
            yield item

    def add(self, layer: str, name: str, start: float, end: float) -> None:
        """A span timed by the caller, such as a CLI process."""
        self.spans.append([len(self.spans), self._stack[-1], layer, name, start, end])

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span of the layer ``bench`` around a part of a pass."""
        if not self.tracing:
            yield
            return
        span = [len(self.spans), self._stack[-1], "bench", name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.tracing:
            self.counts[name] = self.counts.get(name, 0) + n

    def _error(self, fn) -> None:
        self.errors.append(f"{_layer(fn)}.{fn.__name__}: {traceback.format_exc(limit=-1).strip()}")

    def write(self, path: str, run_id: str) -> None:
        """Append the spans to a JSON-lines file, one object per span."""
        keys = ("id", "parent", "layer", "name", "start", "end")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span), run=run_id)) + "\n")


def _layer(fn) -> str:
    return fn.__module__.rpartition(".")[2]


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples beyond it (the
    maximum when there are ten samples or fewer; 0 when there are none)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(len(s) - 11, 0)] if len(s) > 10 else s[-1]


def durations(spans: list[list]) -> dict[str, list[float]]:
    """Span durations in seconds, keyed by ``layer.name``; phases excluded."""
    out: dict[str, list[float]] = {}
    for _, _, layer, name, t0, t1 in spans:
        if layer != "bench":
            out.setdefault(f"{layer}.{name}", []).append(t1 - t0)
    return out


# Per-layer metrics taken from spans: ``<layer>.<function>.<statistic>``.
SPAN_METRICS = [
    "fields.ideals_of_norm_up_to.busy_s",
    "fields.factor_ideal.calls",
    "fields.factor_ideal.busy_s",
    "fields.unit_reduced_generator.calls",
    "fields.unit_reduced_generator.busy_s",
    "fields.unit_reduced_generator.tail_us",
    "fields.enumerate_in_box.busy_s",
    "characters.characters_mod.busy_s",
    "characters.conductor.calls",
    "characters.conductor.busy_s",
    "eisenstein.eis_hecke_eigenvalue.calls",
    "eisenstein.eis_hecke_eigenvalue.busy_s",
    "eisenstein.eis_hecke_eigenvalue.p50_us",
    "eisenstein.eis_hecke_eigenvalue.tail_us",
    "kloosterman.weil_sweep.records",
    "kloosterman.weil_sweep.busy_s",
    "kloosterman.weil_sweep.record_p50_us",
    "kloosterman.weil_sweep.record_tail_us",
    "kloosterman.kloosterman_sum.calls",
    "kloosterman.kloosterman_sum.busy_s",
    "kloosterman.kloosterman_sum_crt.busy_s",
    "whittaker.gram_matrix.busy_s",
    "whittaker.whittaker_w.p50_us",
    "bessel_kernels.rj_kernel.busy_s",
    "bessel_kernels.wk_kernel.busy_s",
    "bessel_kernels.wk_bound.busy_s",
    "spectral.bessel_transforms.calls",
    "spectral.bessel_transforms.busy_s",
    "spectral.bessel_transforms.p50_us",
    "spectral.bessel_transforms.tail_us",
    "spectral.bessel_tilde.busy_s",
    "shifted.amplified_moment.busy_s",
    "shifted.shifted_sum.calls",
    "shifted.shifted_sum.busy_s",
]

# Statistics over a function's span durations d (seconds); weil_sweep's
# spans are records (the time between yields).
STATISTICS = {
    "calls": len,
    "records": len,
    "busy_s": sum,
    "p50_us": lambda d: 1e6 * statistics.median(d) if d else 0.0,
    "record_p50_us": lambda d: 1e6 * statistics.median(d) if d else 0.0,
    "tail_us": lambda d: 1e6 * tail(d),
    "record_tail_us": lambda d: 1e6 * tail(d),
}

# Per-layer metrics the workloads record themselves: counts of work, and
# the multiplication probes' microseconds per product.
COUNT_METRICS = [
    "fields.enumerate_in_box.points",
    "fields.element_mul_us",
    "fields.ideal_mul_us",
    "kloosterman.kloosterman_sum.residues",
    "kloosterman.moduli_distinct",
    "whittaker.whittaker_w.route_laguerre",
    "whittaker.whittaker_w.route_kbessel",
    "whittaker.whittaker_w.route_mpmath",
    "quadrature.nodes",
    "shifted.amplified_moment.r_terms",
    "shifted.amplified_moment.diagonal_count",
]

# The README commands, by the metric name of their wall time.
CLI_COMMANDS = {
    "field_info": "field info --D 5",
    "kloosterman_eval": "--field 1 kloosterman eval --r1 1 --r2 1 --c 5",
    "kloosterman_sweep": "--field 1 --format csv kloosterman sweep --cmax 200",
    "chars_eisen_count": "--field 5 chars eisen-count --level 1 --X 14",
    "eisen_constterm": "--field 1 eisen constterm --level 5",
    "whittaker_eval": "whittaker eval --q 2 --nu 0.5 --y 1.0",
    "spectral_bessel": "spectral bessel --Z 2 --t -1.5",
    "spectral_kuz_geom": "--field 5 spectral kuz-geom --r1 1 --r2 1 --level 1 --Z 1 --box 6",
    "shifted_amplify": "--field 1 shifted amplify --q 7 --L 5 --Y 40",
}

CLI_METRICS = ["cli.startup_s"] + [f"cli.{name}.wall_s" for name in CLI_COMMANDS]

TRACE_METRICS = ["trace.cold_s", "trace.untraced_cold_s", "trace.overhead_s"]

PER_LAYER = SPAN_METRICS + COUNT_METRICS + CLI_METRICS + TRACE_METRICS


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced pass; 0 where the workload does
    not call the layer.  CLI and trace metrics are left to the caller."""
    by_key = durations(spans)
    out: dict[str, float] = {}
    for metric in SPAN_METRICS:
        key, stat = metric.rsplit(".", 1)
        out[metric] = STATISTICS[stat](by_key.get(key, []))
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    return out
