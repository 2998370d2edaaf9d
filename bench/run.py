"""The totreal benchmark: one workload per run, measured from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports totreal from ``src`` and
changes nothing there.  Each repetition is a fresh interpreter (worker.py,
or the ``totreal`` CLI for cli_readme), started one after another: a closed
loop with one caller and single-threaded BLAS.  Repetitions start while the
run's --seconds last; each timing is reported as the median over them, in
reference-speed seconds (speed.py), with the raw wall times printed too.

With ``--trace 0`` the last line of standard output is the end-to-end
metrics, with ``--trace 1`` the per-layer ones; the lines above it give each
metric's median, quartiles and sample count, the failed fraction of checks,
and the machine.  The full result is also written to
``bench/out/<workload>-<size>-trace<T>-seed<N>.json``, and with ``--trace 1`` the
spans to ``bench/out/spans-<workload>.jsonl``; compare.py compares two sets
of result files.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import CLI_COMMANDS, PER_LAYER, Recorder  # noqa: E402
from speed import calibrate, reference_s  # noqa: E402
from workloads import WORKLOADS, Gate  # noqa: E402

ALL_WORKLOADS = list(WORKLOADS) + ["cli_readme"]
END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
HARD_LIMIT_S = 170.0  # a run ends within 180 s whatever --seconds says
CLI_WARM_PASSES = 2  # timed in-process passes per cli_readme worker


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Run:
    """State of one run: its deadline, samples and correctness counts."""

    def __init__(self, args, reference: dict, spans_path: str):
        self.args = args
        self.gate = Gate(reference)
        self.spans_path = spans_path
        self.rec = Recorder(bool(args.trace))  # cli_readme's spans, taken here
        self.t_start = time.monotonic()
        self.deadline = self.t_start + args.seconds
        self.env = child_env()
        self.samples: dict[str, list[float]] = {}
        self.rep_times: list[float] = []

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_result(self, res: dict, timings: tuple[str, ...]) -> None:
        """The calibrated and raw samples of a worker's timings."""
        for t in timings:
            for key in (f"{t}_s", f"{t}_raw_s"):
                v = res[key]
                self.samples.setdefault(key, []).extend(v if isinstance(v, list) else [v])

    def time_left(self) -> float:
        return self.t_start + HARD_LIMIT_S - time.monotonic()

    def another(self) -> bool:
        """Start another repetition if it should end before the deadline."""
        if not self.rep_times:
            return True
        return time.monotonic() + statistics.median(self.rep_times) <= self.deadline

    def spawn(self, argv: list[str]) -> tuple[float, int, bytes, float]:
        """Run a child to its end; (start time, exit code, stdout, wall s)."""
        t0 = time.monotonic()
        try:
            p = subprocess.run(argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired:
            return t0, -1, b"", time.monotonic() - t0
        if p.returncode != 0:
            sys.stderr.write(p.stderr.decode(errors="replace")[-2000:])
        return t0, p.returncode, p.stdout, time.monotonic() - t0

    def worker(self, **opts) -> dict | None:
        """One worker.py repetition; its JSON result with ``setup_s`` added,
        or None when it failed (counted as one failed operation)."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--size", self.args.size]
        for k, v in opts.items():
            argv += [f"--{k}", str(v)]
        ref = reference_s()
        t0, code, out, _ = self.spawn(argv)
        if code != 0:
            self.gate.check(False, f"worker exit code {code}")
            return None
        res = json.loads(out.decode().strip().splitlines()[-1])
        res["setup_raw_s"] = res["ready"] - t0
        res["setup_s"] = calibrate(res["setup_raw_s"], ref, res["ref_ready"])
        self.gate.merge(res)
        return res


def run_inprocess(run: Run) -> dict:
    """exact_arith, kloosterman_sweep, spectral_transforms."""
    traced = run.args.trace
    layers: dict[str, list[float]] = {}
    while run.another() and run.time_left() > 0:
        t0 = time.monotonic()
        if traced:
            # an untraced and a traced first pass, for the tracing overhead
            res = run.worker(warm=0)
            if res:
                run.add("untraced_cold_s", res["cold_s"])
                run.add("untraced_cold_raw_s", res["cold_raw_s"])
            res = run.worker(warm=0, trace=1, spans=run.spans_path)
            if res:
                run.add("cold_s", res["cold_s"])
                run.add("cold_raw_s", res["cold_raw_s"])
                run.add("busy_over_wall", sum_busy(res) / res["wall_s"])
                for k, v in res["layers"].items():
                    layers.setdefault(k, []).append(v)
        else:
            res = run.worker(warm=WORKLOADS[run.args.workload].WARM_PASSES)
            if res:
                run.add_result(res, ("setup", "cold", "warm"))
        run.rep_times.append(time.monotonic() - t0)
    return {k: statistics.median(v) for k, v in layers.items()}


def sum_busy(res: dict) -> float:
    return sum(v for k, v in res["layers"].items() if k.endswith(".busy_s"))


def cli_pass(run: Run, order: list[str], traced: bool) -> tuple[dict[str, float], float]:
    """The README commands, each in a fresh ``totreal`` process: their walls
    in reference-speed seconds, each calibrated by the reference loops run
    just before and just after the process, and the raw sum of the walls."""
    walls, raw = {}, 0.0
    ref = reference_s()
    for name in order:
        argv = [sys.executable, "-m", "totreal.cli"] + shlex.split(CLI_COMMANDS[name])
        t0, code, out, wall = run.spawn(argv)
        run.gate.cli_output(name, code, out)
        ref_after = reference_s()
        walls[name] = calibrate(wall, ref, ref_after)
        raw += wall
        ref = ref_after
        if traced:
            run.rec.add("cli", name, t0, t0 + wall)
    return walls, raw


def run_cli(run: Run) -> dict:
    """cli_readme: repetitions of the nine commands in fresh processes, each
    followed by a worker that sets up and runs them twice in one process."""
    rng = random.Random(run.args.seed)
    order = list(CLI_COMMANDS) if run.args.size == "full" else ["field_info", "whittaker_eval"]
    traced = run.args.trace
    layers: dict[str, list[float]] = {}
    if traced:
        for _ in range(3):
            ref = reference_s()
            _, code, _, wall = run.spawn([sys.executable, "-c", "import totreal.cli"])
            if code == 0:
                layers.setdefault("cli.startup_s", []).append(calibrate(wall, ref, reference_s()))
    while run.another() and run.time_left() > 0:
        t0 = time.monotonic()
        rng.shuffle(order)
        if traced:
            walls, raw = cli_pass(run, order, False)
            run.add("untraced_cold_s", sum(walls.values()))
            run.add("untraced_cold_raw_s", raw)
            walls, raw = cli_pass(run, order, True)
            run.add("cold_s", sum(walls.values()))
            run.add("cold_raw_s", raw)
            for name, wall in walls.items():
                layers.setdefault(f"cli.{name}.wall_s", []).append(wall)
        else:
            walls, raw = cli_pass(run, order, False)
            run.add("cold_s", sum(walls.values()))
            run.add("cold_raw_s", raw)
            res = run.worker(warm=CLI_WARM_PASSES, order=",".join(order))
            if res:
                run.add_result(res, ("setup", "warm"))
        run.rep_times.append(time.monotonic() - t0)
    return {k: statistics.median(v) for k, v in layers.items()}


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def machine() -> dict:
    from importlib import metadata

    info = {"git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    info["cpu"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return info


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git (which would
    look in parent directories); None outside a git repository."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-tests' small inputs")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "totreal", "__init__.py")):
        print("bench/run.py: no src/totreal here; run it from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    run = Run(args, reference, os.path.join(out_dir, f"spans-{args.workload}.jsonl"))
    if args.trace:
        open(run.spans_path, "w").close()
    layers = run_cli(run) if args.workload == "cli_readme" else run_inprocess(run)
    if not run.samples.get("cold_s") or (args.trace and not run.samples.get("untraced_cold_s")):
        print("bench/run.py: no repetition completed", file=sys.stderr)
        return 1
    stats = {k: summary(v) for k, v in run.samples.items()}
    if args.trace:
        metrics = {m: layers.get(m, 0) for m in PER_LAYER}
        metrics["trace.cold_s"] = stats["cold_s"]["median"]
        metrics["trace.untraced_cold_s"] = stats["untraced_cold_s"]["median"]
        metrics["trace.overhead_s"] = metrics["trace.cold_s"] - metrics["trace.untraced_cold_s"]
        units = {m: unit_of(m) for m in PER_LAYER}
        run.rec.write(run.spans_path, f"{args.workload}-seed{args.seed}")
    else:
        metrics = {k: stats[k]["median"] for k in ("setup_s", "cold_s", "warm_s")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        units = END_TO_END
    gate = run.gate
    fail_frac = gate.failed / max(gate.attempted, 1)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
              "machine": machine(), "stats": stats, "metrics": metrics, "attempted": gate.attempted,
              "failed": gate.failed, "fail_frac": fail_frac, "notes": gate.notes, "digests": gate.digests}
    name = f"{args.workload}-{args.size}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for name, s in stats.items():
        print(f"{name:>22} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    for name, v in metrics.items():
        print(f"{name:>44} {v:.6g} {units[name]}")
    print(f"{'fail_frac':>22} {fail_frac:.6g} ({gate.failed} of {gate.attempted} checks)")
    for note in gate.notes[:5]:
        print("  failed:", note[:300])
    print("machine", json.dumps(result["machine"], sort_keys=True))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
