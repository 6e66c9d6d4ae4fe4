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
both sides' per-run values with their median and quartiles, the number of
pairs the change won (ties count for neither), and three verdicts:

- claim_met: there are at least ten pairs, the change won at least 9 in 10 of
  them, and its median beats the parent's by more than the parent's q3 - q1;
- unresolved: the parent's q3 - q1 is wider than the metric's bound, relative
  to the parent's median, and not every change run beats every parent run;
- regressed: the change's median is worse than the parent's by more than the
  metric's bound, relative to the parent's median.

Per workload it also holds digests_equal: whether every run of both sides
reported the same CSV digest, so whether the change kept the output's bytes.
Per run it holds the per-child samples, the CSV digest, csv_exact, correct
and the machine facts. On stdout each workload gets one line: the parent and
change medians and the change's wins of wall_s and of every metric flagged
claim_met or regressed, whether the digests agree, every metric that a
verdict flags, and every run (side and position, from 0) whose result is not
correct or whose csv_exact is not 1, grouped by its csv_exact (None where
golden.json has no digest for the run's seed).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions(benchmark_path=ROOT / "BENCHMARK.json"):
    """{metric: ("lower" or "higher", relative bound)} for the benchmark's end-to-end metrics."""
    spec = json.loads(Path(benchmark_path).read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


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


def compare(parent, change, metric, better, bound):
    """Both sides' values of one metric over paired runs, the change's wins and the verdicts."""
    p = [r["metrics"][metric] for r in parent]
    c = [r["metrics"][metric] for r in change]
    sign = 1.0 if better == "lower" else -1.0

    def beats(a, b):
        # the change's value b beats the parent's value a
        return sign * (a - b) > 0.0

    wins = sum(beats(a, b) for a, b in zip(p, c))
    ps, cs = spread(p), spread(c)
    iqr = ps["q3"] - ps["q1"]
    return {"better": better, "bound": bound, "parent": {"runs": p, **ps},
            "change": {"runs": c, **cs}, "pairs": len(p), "change_wins": wins,
            "claim_met": len(p) >= 10 and 10 * wins >= 9 * len(p)
                         and sign * (ps["median"] - cs["median"]) > iqr,
            "unresolved": iqr > bound * abs(ps["median"])
                          and not all(beats(a, b) for a in p for b in c),
            "regressed": sign * (cs["median"] - ps["median"]) > bound * abs(ps["median"])}


def merge(parent_runs, change_runs, metrics):
    """The before/after record of every workload both sides ran; metrics as directions() gives them."""
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
            "digests_equal": len({r["digest"] for r in parent + change}) == 1,
            "metrics": {m: {"unit": units[m], **compare(parent, change, m, *spec)}
                        for m, spec in metrics.items() if m in units},
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
        parts = [f"{m} {r['parent']['median']:.3f} -> {r['change']['median']:.3f} {r['unit']}, "
                 f"change won {r['change_wins']}/{r['pairs']} pairs"
                 for m, r in w["metrics"].items()
                 if m == "wall_s" or r["claim_met"] or r["regressed"]]
        parts.append(f"digests {'equal' if w['digests_equal'] else 'differ'}")
        for verdict in ("claim_met", "unresolved", "regressed"):
            flagged = [m for m, r in w["metrics"].items() if r[verdict]]
            if flagged:
                parts.append(f"{verdict.replace('_', ' ')}: {', '.join(flagged)}")
        bad = {}
        for side, runs in w["runs"].items():
            for i, r in enumerate(runs):
                if not r["correct"]:
                    bad.setdefault("not correct", []).append(f"{side} run {i}")
                if r["csv_exact"] != 1:
                    bad.setdefault(f"csv_exact {r['csv_exact']}", []).append(f"{side} run {i}")
        parts += [f"{label}: {', '.join(names)}" for label, names in bad.items()]
        print(f"{name}: {', '.join(parts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
