"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this file once per repetition, so that the first pass sees
every module cache of totreal empty, as each CLI invocation does.  The last
line of its standard output is one JSON object:

- ``ready``: time.monotonic() when set-up ended (imports and make_field);
  run.py subtracts the time it started the process; ``ref_ready``: the
  reference loop's time right after it (speed.py);
- ``cold_s``: the first pass, in reference-speed seconds (speed.Stopwatch);
  ``warm_s``: the list of the ``--warm`` identical passes that follow it in
  the same process; ``cold_raw_s`` and ``warm_raw_s``: their wall times;
- ``attempted``, ``failed``, ``notes``, ``digests``: the correctness gate;
- with ``--trace 1``, ``layers``: the per-layer metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import time

from speed import Stopwatch, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--warm", type=int, default=1, help="timed passes after the first")
    ap.add_argument("--spans", help="with --trace 1: JSON-lines file the spans are appended to")
    ap.add_argument("--order", default="", help="cli_readme: comma-separated command order")
    a = ap.parse_args()
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    if a.workload == "cli_readme":
        result = cli_inprocess(a, reference)
    else:
        result = inprocess(a, reference)
    print(json.dumps(result))


def inprocess(a, reference: dict) -> dict:
    from spans import Recorder, layer_metrics
    from workloads import WORKLOADS, Gate

    wl = WORKLOADS[a.workload](a.seed, a.size)
    wl.setup()
    ready = time.monotonic()
    watch = Stopwatch()
    watch.start()
    result = {"ready": ready, "ref_ready": watch.first_ref}
    gate = Gate(reference)
    rec = Recorder(bool(a.trace), watch)
    out = wl.run(rec)
    result["cold_raw_s"], result["cold_s"] = watch.stop()
    wl.check(out, gate)
    result["warm_raw_s"], result["warm_s"] = [], []
    for _ in range(a.warm):
        watch = Stopwatch()
        rec2 = Recorder(False, watch)
        watch.start()
        out2 = wl.run(rec2)
        raw, calibrated = watch.stop()
        result["warm_raw_s"].append(raw)
        result["warm_s"].append(calibrated)
        wl.check(out2, gate)
        rec.errors += rec2.errors
    if a.trace:
        wl.probe(rec, out)
        multiply_probe(rec)
        result["layers"] = layer_metrics(rec.spans, rec.counts)
        result["wall_s"] = time.monotonic() - ready
        rec.write(a.spans, f"{a.workload}-seed{a.seed}-pid{os.getpid()}")
    for err in rec.errors:
        gate.check(False, err)
    result.update(attempted=gate.attempted, failed=gate.failed, notes=gate.notes, digests=gate.digests)
    return result


def multiply_probe(rec) -> None:
    """Element and ideal multiplication over Q(sqrt 5) on fixed operands,
    in microseconds per product (median of five blocks)."""
    from totreal.fields import make_field

    K = make_field(5)
    x, y = K.element(123, -45), K.element(-67, 89)
    I, J = K.ideal(K.element(7, 3)), K.ideal(K.element(11, -2))
    rec.count("fields.element_mul_us", _per_op(lambda: x * y, 2000))
    rec.count("fields.ideal_mul_us", _per_op(lambda: I * J, 200))


def _per_op(op, n: int) -> float:
    blocks = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            op()
        blocks.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(blocks)


def cli_inprocess(a, reference: dict) -> dict:
    """cli_readme in one process: set up as the CLI does; with --warm N, run
    the README commands through totreal.cli.main 1 + N times and time all
    but the first pass, checking each output's md5."""
    import shlex

    from spans import CLI_COMMANDS
    from workloads import Gate

    import totreal.cli as cli
    from totreal.fields import make_field

    make_field(1), make_field(5)
    ready = time.monotonic()
    result = {"ready": ready, "ref_ready": reference_s(), "warm_raw_s": [], "warm_s": []}
    gate = Gate(reference)
    if a.warm:
        for n_pass in range(1 + a.warm):
            watch = Stopwatch()
            watch.start()
            outputs = []
            for name in a.order.split(","):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(shlex.split(CLI_COMMANDS[name]))
                watch.maybe_lap()
                outputs.append((name, code, buf.getvalue().encode()))
            raw, calibrated = watch.stop()
            if n_pass:
                result["warm_raw_s"].append(raw)
                result["warm_s"].append(calibrated)
            for name, code, stdout in outputs:
                gate.cli_output(name, code, stdout)
    result.update(attempted=gate.attempted, failed=gate.failed, notes=gate.notes, digests=gate.digests)
    return result


if __name__ == "__main__":
    main()
