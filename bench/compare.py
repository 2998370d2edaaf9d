"""Compare two sets of benchmark runs.

    python3 bench/compare.py DIR_A DIR_B [--trace 0|1]

Each directory holds result files ``<workload>-<size>-trace<T>-seed<N>.json`` as
run.py writes them to bench/out (copy that directory away between the two
sets).  For each workload and metric it prints, per set, the median, the
quartiles and the sample count of the per-run values, then the change of
the medians as a share of set A's median and set A's own spread (quartile
distance over median).  A change smaller than that spread is noise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics


def load(directory: str, trace: int) -> dict[str, dict[str, list[float]]]:
    """{"<workload> (<size>)": {metric: [value per run]}}."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}-seed*.json"))):
        with open(path) as fh:
            res = json.load(fh)
        per = out.setdefault(f"{res['workload']} ({res['size']})", {})
        for k, v in res["metrics"].items():
            per.setdefault(k, []).append(v)
        per.setdefault("fail_frac", []).append(res["fail_frac"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    A, B = load(args.a, args.trace), load(args.b, args.trace)
    for wl in sorted(set(A) | set(B)):
        print(f"== {wl}")
        print(f"{'metric':>44} {'A median [q1, q3] n':>32} {'B median [q1, q3] n':>32} {'B/A-1':>8} {'A spread':>8}")
        for m in sorted(set(A.get(wl, {})) | set(B.get(wl, {}))):
            cells, meds = [], []
            for S in (A, B):
                v = S.get(wl, {}).get(m)
                if not v:
                    cells.append(f"{'-':>32}")
                    meds.append(None)
                    continue
                q1, med, q3 = quartiles(v)
                cells.append(f"{med:>12.6g} [{q1:.4g}, {q3:.4g}] {len(v):>2}")
                meds.append((q1, med, q3))
            change = spread = ""
            if meds[0] and meds[0][1]:
                spread = f"{(meds[0][2] - meds[0][0]) / meds[0][1]:8.3f}"
                if meds[1]:
                    change = f"{meds[1][1] / meds[0][1] - 1:+8.3f}"
            print(f"{m:>44} {cells[0]} {cells[1]} {change:>8} {spread:>8}")


if __name__ == "__main__":
    main()
