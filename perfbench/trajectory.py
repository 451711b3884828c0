"""Summarise benchmark records into one point of the performance trajectory.

    python3 perfbench/trajectory.py LABEL

Reads every record that ``run.py`` left in ``perfbench/.work/results/`` and
writes ``perfbench/trajectory/LABEL.json``.  Per workload it gives, over all
seeds run, the median and quartiles of each end-to-end metric (from the
``--trace 0`` records) and the median of each per-layer metric (from the
``--trace 1`` records), plus two sets of shares: each suite's wall time as a
share of the untraced pass, and each layer's self time as a share of the
traced pass.  Runs that failed the correctness gate are listed by seed and
left out of the medians, because a suite that raised stopped early and its
timings describe a different amount of work.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / ".work" / "results"


def _spread(values: list) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / out["median"])
    return out


def summarise(records: list) -> dict:
    by_workload = defaultdict(lambda: {0: [], 1: []})
    failed = defaultdict(list)
    for rec in records:
        if rec["correct"]:
            by_workload[rec["workload"]][rec["trace"]].append(rec)
        else:
            failed[rec["workload"]].append({"seed": rec["seed"], "trace": rec["trace"],
                                            "problems": rec["problems"]})
    out = {}
    for workload, runs in sorted(by_workload.items()):
        entry: dict = {
            "failed_runs": failed[workload],
            "seconds": sorted({r["seconds"] for r in runs[0] + runs[1]}),
        }
        if runs[0]:
            entry["seeds"] = sorted(r["seed"] for r in runs[0])
            entry["end_to_end"] = {
                name: _spread([r["metrics"][name]["value"] for r in runs[0]])
                for name in runs[0][0]["metrics"]
            }
        if runs[1]:
            layers = {
                name: statistics.median(r["metrics"][name]["value"] for r in runs[1])
                for name in runs[1][0]["metrics"]
            }
            untraced = layers["run_s"]
            entry["trace_seeds"] = sorted(r["seed"] for r in runs[1])
            entry["per_layer"] = layers
            entry["suite_share_of_run_s"] = {
                name.split(".")[1]: value / untraced
                for name, value in layers.items()
                if name.startswith("suites.") and value > 0.0
            }
            entry["self_share_of_traced_run_s"] = {
                name[: -len(".self_s")]: value / layers["trace.run_s"]
                for name, value in layers.items()
                if name.endswith(".self_s") and value > 0.0
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"error: no records under {RESULTS}", file=sys.stderr)
        return 2
    point = {"label": args[0], "env": records[-1]["env"], "workloads": summarise(records)}
    target = HERE / "trajectory" / f"{args[0]}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
