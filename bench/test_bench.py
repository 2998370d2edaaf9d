"""Self-tests of the benchmark.  From the root of the repository:

    python3 -m pytest -q bench/test_bench.py

They run every workload at its tiny size (about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import PER_LAYER, Recorder  # noqa: E402
from workloads import WORKLOADS, Gate  # noqa: E402

ALL = list(WORKLOADS) + ["cli_readme"]
END_TO_END = {"setup_s", "cold_s", "warm_s", "peak_rss_mb"}


def bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ALL)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    p = bench(workload, 0)
    assert p.returncode == 0, p.stderr
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert "fail_frac" in p.stdout


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_reports_every_layer_metric_and_busy_within_wall(workload):
    p = bench(workload, 1)
    assert p.returncode == 0, p.stderr
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert last["correct"]
    assert set(last["metrics"]) == set(PER_LAYER)
    with open(os.path.join(HERE, "out", f"{workload}-tiny-trace1-seed5.json")) as fh:
        res = json.load(fh)
    if workload == "cli_readme":
        walls = [v for k, v in res["metrics"].items() if k.endswith(".wall_s")]
        assert 0 < sum(walls) <= res["metrics"]["trace.cold_s"] * 1.0001
    else:
        assert 0 < res["stats"]["busy_over_wall"]["median"] <= 1.0


def test_missing_program_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = bench("exact_arith", 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def _pass(name: str):
    wl = WORKLOADS[name](5, "tiny")
    wl.setup()
    return wl, wl.run(Recorder(False))


def _failures(wl, out) -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        gate = Gate(json.load(fh))
    wl.check(out, gate)
    return gate.failed


def test_gate_counts_perturbed_exact_arith():
    wl, out = _pass("exact_arith")
    assert _failures(wl, out) == 0
    lam = out[1]["lam"][1]
    lam[3] *= 1 + 1e-9  # one Hecke eigenvalue off by 1e-9 relative
    assert _failures(wl, out) >= 1
    lam[3] /= 1 + 1e-9
    out[5]["gens"][2] = -out[5]["gens"][2]  # a different canonical generator
    assert _failures(wl, out) == 1
    out[5]["gens"][2] = -out[5]["gens"][2]
    out["shift"][0] += 1e-9
    assert _failures(wl, out) == 1
    out["shift"][0] -= 1e-9
    rep = out["amp"][0]
    rep["A"] *= 1 + 1e-8
    assert _failures(wl, out) == 1
    out["amp"][0] = None  # the call raised
    assert _failures(wl, out) == 1


def test_gate_counts_perturbed_kloosterman_sweep():
    wl, out = _pass("kloosterman_sweep")
    assert _failures(wl, out) == 0
    c, S, tau, gn, nc, margin = out[5][4]
    out[5][4] = (c, S * 1e3 + 1e3, tau, gn, nc, margin)  # beyond the Weil bound
    assert _failures(wl, out) == 1
    out[5][4] = (c, S, tau, gn, nc, margin)
    direct, crt = out["crt"][0]
    out["crt"][0] = (direct + 1e-6, crt)
    assert _failures(wl, out) == 1


def test_gate_counts_perturbed_spectral_transforms():
    wl, out = _pass("spectral_transforms")
    assert _failures(wl, out) == 0
    out["gram"][0] = out["gram"][0] + 1e-4
    assert _failures(wl, out) == 1
    out["gram"][0] = out["gram"][0] - 1e-4
    k, t, rec = out["bessel"][0]
    out["bessel"][0] = (k, t, dict(rec, tail_bound=1e-6))
    assert _failures(wl, out) == 1


def test_gate_counts_wrong_cli_output():
    with open(os.path.join(HERE, "reference.json")) as fh:
        gate = Gate(json.load(fh))
    gate.cli_output("field_info", 0, b"{}\n")
    gate.cli_output("field_info", 2, b"")
    assert (gate.attempted, gate.failed) == (4, 3)


def test_calibration_scales_wall_by_reference_speed():
    from speed import REF_S, Stopwatch, calibrate

    assert calibrate(1.0, REF_S, REF_S) == pytest.approx(1.0)
    assert calibrate(1.0, 2 * REF_S, 2 * REF_S) == pytest.approx(0.5)
    watch = Stopwatch()
    watch.start()
    sum(range(10**5))
    watch.lap()
    sum(range(10**5))
    raw, calibrated = watch.stop()
    assert raw > 0 and calibrated > 0
