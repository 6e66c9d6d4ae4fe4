"""Merge perfbench results of a parent and a change into one before/after file.

    python3 tools/bench_pair.py --parent P1.json [P2.json ...] \\
        --change C1.json [C2.json ...] --out BENCH_<n>.json

Each input is one result file that `perfbench/run.py --trace 0` wrote to
.perfbench/results/ of its checkout, copied aside after each run (the next
run overwrites it). Runs are grouped by workload; the k-th parent run of a
workload is paired with its k-th change run, so alternate the two sides
when making them. All runs of one workload must share its seed and CLI
arguments.

Per workload the output holds, for each end-to-end metric of BENCHMARK.json,
both sides' per-run values with their median and quartiles and the number of
pairs the change won (ties count for neither); and, per run, the per-child
samples, the CSV digest, csv_exact, correct and the machine facts.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions(benchmark_path=ROOT / "BENCHMARK.json"):
    """{metric: "lower" or "higher"} for the benchmark's end-to-end metrics."""
    spec = json.loads(Path(benchmark_path).read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def load_run(path):
    """One run's summary from a perfbench result file; ValueError if it is not --trace 0."""
    data = json.loads(Path(path).read_text())
    details, result = data["details"], data["result"]
    if details["trace"] != 0:
        raise ValueError(f"{path}: a --trace {details['trace']} result, not --trace 0")
    return {
        "file": str(path),
        "workload": details["workload"],
        "seed": details["seed"],
        "cli_args": details["cli_args"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "correct": result["correct"],
        "digest": details["digest"],
        "csv_exact": details["csv_exact"],
        "samples": details["samples"],
        "machine": details["machine"],
    }


def spread(values):
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(parent, change, metric, better):
    """Both sides' values of one metric over paired runs, and the change's wins."""
    p = [r["metrics"][metric] for r in parent]
    c = [r["metrics"][metric] for r in change]
    wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(p, c))
    return {"better": better, "parent": {"runs": p, **spread(p)},
            "change": {"runs": c, **spread(c)}, "pairs": len(p),
            "change_wins": wins}


def merge(parent_runs, change_runs, better):
    """The before/after record of every workload both sides ran."""
    sides = {"parent": {}, "change": {}}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for r in runs:
            sides[side].setdefault(r["workload"], []).append(r)
    if set(sides["parent"]) != set(sides["change"]):
        raise ValueError(f"workloads differ: parent {sorted(sides['parent'])}, "
                         f"change {sorted(sides['change'])}")
    out = {}
    for name in sorted(sides["parent"]):
        parent, change = sides["parent"][name], sides["change"][name]
        if len(parent) != len(change):
            raise ValueError(f"{name}: {len(parent)} parent runs, {len(change)} change runs")
        if len({(r["seed"], tuple(r["cli_args"])) for r in parent + change}) != 1:
            raise ValueError(f"{name}: runs differ in seed or CLI arguments")
        units = parent[0]["units"]
        out[name] = {
            "seed": parent[0]["seed"],
            "cli_args": parent[0]["cli_args"],
            "metrics": {m: {"unit": units[m], **compare(parent, change, m, b)}
                        for m, b in better.items() if m in units},
            "runs": {side: [{k: r[k] for k in ("file", "metrics", "correct", "digest",
                                                "csv_exact", "samples", "machine")}
                            for r in runs]
                     for side, runs in (("parent", parent), ("change", change))},
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    p.add_argument("--change", nargs="+", required=True, help="result files of the change")
    p.add_argument("--out", required=True, help="the BENCH_*.json to write")
    args = p.parse_args(argv)
    try:
        workloads = merge([load_run(f) for f in args.parent],
                          [load_run(f) for f in args.change], directions())
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_pair: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps({"workloads": workloads}, indent=1) + "\n")
    for name, w in workloads.items():
        wall = w["metrics"].get("wall_s")
        if wall:
            print(f"{name}: wall_s {wall['parent']['median']:.3f} -> "
                  f"{wall['change']['median']:.3f} s, change won "
                  f"{wall['change_wins']}/{wall['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
