#!/usr/bin/env python3
"""Summarize benchmark result files into medians, quartiles and spreads.

    python3 bench/summarize.py [RESULTS_DIR] [--json OUT]

RESULTS_DIR defaults to `.bench_work/results`, where `bench/run.py` leaves
one detail file per run. For every workload and metric it prints the median
and quartiles over the runs found and the spread, (Q3 - Q1) / median, next
to the metric's bound from BENCHMARK.json. `--json` also writes the summary
(the form `bench/baseline.json` is kept in).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results_dir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups: dict[tuple[str, bool], list[dict]] = defaultdict(list)
    for path in sorted(results_dir.glob("*.json")):
        run = json.loads(path.read_text())
        groups[(run["workload"], bool(run["trace"]))].append(run)
    summary = {"env": None, "workloads": {}}
    for (workload, trace), runs in sorted(groups.items()):
        summary["env"] = summary["env"] or runs[-1]["env"]
        values = defaultdict(list)
        for run in runs:
            for name, metric in run["result"]["metrics"].items():
                values[name].append((metric["value"], metric["unit"]))
        rows = {}
        for name, pairs in sorted(values.items()):
            vs = [v for v, _ in pairs]
            median = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            rows[name] = {"unit": pairs[0][1], "n": len(vs), "median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else None,
                          "bound": bounds.get(name)}
        key = f"{workload}{' (trace)' if trace else ''}"
        summary["workloads"][key] = {
            "runs": len(runs),
            "seeds": sorted(run["seed"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
            "attempted": sum(run["result"]["attempted"] for run in runs),
            "metrics": rows,
        }
        if trace:
            for extra in ("not_observed", "scan_table"):
                if runs[-1].get(extra):
                    summary["workloads"][key][extra] = runs[-1][extra]
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", nargs="?", default=".bench_work/results")
    p.add_argument("--json", help="also write the summary to this file")
    args = p.parse_args(argv)
    summary = summarize(Path(args.results))
    for key, w in summary["workloads"].items():
        print(f"{key}: {w['runs']} runs, {w['failed']}/{w['attempted']} failed")
        for name, r in w["metrics"].items():
            spread = "n/a" if r["spread"] is None else f"{r['spread']:.4f}"
            bound = "" if r["bound"] is None else f"  bound {r['bound']}"
            flag = " <-- over a third of the bound" if (
                r["bound"] and r["spread"] is not None and name != "setup_s"
                and r["spread"] > r["bound"] / 3) else ""
            print(f"  {name:36s} {r['median']:14.6g} {r['unit']:6s} "
                  f"q1 {r['q1']:.6g} q3 {r['q3']:.6g} spread {spread}{bound}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
