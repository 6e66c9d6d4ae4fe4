"""tools/bench_pair.py: merging perfbench result files into a before/after record."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

MACHINE = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11.7"}


def result_file(path, wall, rss, trace=0, seed=20240601, digest="abc", correct=True,
                csv_exact=1):
    # the shape perfbench/run.py writes: details and result of one run
    children = [{"code": 0, "wall_s": wall, "cpu_s": 1.5 * wall, "rss_mb": rss}] * 2
    data = {
        "details": {"digest": digest, "csv_exact": csv_exact, "failed_frac": 0.0, "problems": [],
                    "workload": "interp_lowd", "seed": seed, "trace": trace,
                    "cli_args": ["interp_compare", "--seed", str(seed)],
                    "samples": {"children": children, "setup_s": [0.4, 0.5, 0.45]},
                    "machine": MACHINE},
        "result": {"correct": correct, "attempted": 9, "failed": 0,
                   "metrics": {"wall_s": {"value": wall, "unit": "s"},
                               "trials_per_s": {"value": 3.0 / wall, "unit": "1/s"},
                               "setup_s": {"value": 0.45, "unit": "s"},
                               "peak_rss_mb": {"value": rss, "unit": "MB"}}},
    }
    path.write_text(json.dumps(data))
    return str(path)


def test_two_result_files_merge_into_one_pair(tmp_path, capsys):
    parent = result_file(tmp_path / "p.json", 2.5, 230.0)
    change = result_file(tmp_path / "c.json", 2.0, 229.0, digest="abc")
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--parent", parent, "--change", change, "--out", str(out)]) == 0
    assert "digests equal" in capsys.readouterr().out
    w = json.loads(out.read_text())["workloads"]["interp_lowd"]
    assert w["seed"] == 20240601 and w["digests_equal"] is True
    wall = w["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert wall["parent"]["median"] == 2.5 and wall["change"]["median"] == 2.0
    assert wall["pairs"] == 1 and wall["change_wins"] == 1
    # higher is better for throughput, and equal values win for neither side
    assert w["metrics"]["trials_per_s"]["change_wins"] == 1
    assert w["metrics"]["setup_s"]["change_wins"] == 0
    for side in ("parent", "change"):
        (run,) = w["runs"][side]
        assert run["digest"] == "abc" and run["csv_exact"] == 1 and run["correct"]
        assert len(run["samples"]["children"]) == 2 and run["machine"] == MACHINE


def test_pairs_by_position_and_quartiles(tmp_path):
    parent = [result_file(tmp_path / f"p{i}.json", wall, 230.0)
              for i, wall in enumerate((2.4, 2.6, 2.5))]
    change = [result_file(tmp_path / f"c{i}.json", wall, 231.0)
              for i, wall in enumerate((2.0, 2.7, 2.1))]
    w = bench_pair.merge([bench_pair.load_run(f) for f in parent],
                         [bench_pair.load_run(f) for f in change],
                         bench_pair.directions())["interp_lowd"]
    wall = w["metrics"]["wall_s"]
    assert wall["parent"] == {"runs": [2.4, 2.6, 2.5], "median": 2.5,
                              "q1": pytest.approx(2.45), "q3": pytest.approx(2.55)}
    assert wall["change_wins"] == 2 and wall["pairs"] == 3
    assert w["metrics"]["peak_rss_mb"]["change_wins"] == 0


def test_a_moved_digest_is_reported(tmp_path, capsys):
    # the runs still merge; only the verdict on the bytes changes
    parent = [result_file(tmp_path / f"p{i}.json", 2.5, 230.0) for i in range(2)]
    change = [result_file(tmp_path / "c0.json", 2.0, 230.0),
              result_file(tmp_path / "c1.json", 2.0, 230.0, digest="abd")]
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    assert "digests differ" in capsys.readouterr().out
    w = json.loads(out.read_text())["workloads"]["interp_lowd"]
    assert w["digests_equal"] is False
    assert [r["digest"] for r in w["runs"]["change"]] == ["abc", "abd"]


def test_summary_names_incorrect_and_inexact_runs(tmp_path, capsys):
    # both facts are stored per run; the summary line names the runs
    parent = [result_file(tmp_path / f"p{i}.json", 2.5, 230.0, correct=i != 1)
              for i in range(3)]
    change = [result_file(tmp_path / f"c{i}.json", 2.0, 230.0, csv_exact=exact)
              for i, exact in enumerate((0, 1, None))]
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.endswith(", not correct: parent run 1, csv_exact 0: change run 0, "
                         "csv_exact None: change run 2")
    runs = json.loads(out.read_text())["workloads"]["interp_lowd"]["runs"]
    assert [r["correct"] for r in runs["parent"]] == [True, False, True]
    assert [r["csv_exact"] for r in runs["change"]] == [0, 1, None]


def test_summary_is_quiet_about_good_runs(tmp_path, capsys):
    parent = [result_file(tmp_path / "p.json", 2.5, 230.0)]
    change = [result_file(tmp_path / "c.json", 2.5, 230.0)]
    assert bench_pair.main(["--parent", *parent, "--change", *change,
                            "--out", str(tmp_path / "BENCH.json")]) == 0
    out = capsys.readouterr().out
    assert "not correct" not in out and "csv_exact" not in out


@pytest.mark.parametrize("problem", ["traced", "seed", "count"])
def test_mismatched_inputs_are_refused(problem, tmp_path, capsys):
    parent = [result_file(tmp_path / "p.json", 2.5, 230.0)]
    change = [result_file(tmp_path / "c.json", 2.0, 230.0,
                          trace=1 if problem == "traced" else 0,
                          seed=777 if problem == "seed" else 20240601)]
    if problem == "count":
        change.append(result_file(tmp_path / "c2.json", 2.0, 230.0))
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("bench_pair: ")
    assert not out.exists()


def verdicts(tmp_path, parent_walls, change_walls):
    # per-metric records of synthetic paired runs; peak RSS is constant
    runs = {side: [bench_pair.load_run(result_file(tmp_path / f"{side}{i}.json", wall, 230.0))
                   for i, wall in enumerate(walls)]
            for side, walls in (("p", parent_walls), ("c", change_walls))}
    return bench_pair.merge(runs["p"], runs["c"], bench_pair.directions())["interp_lowd"]["metrics"]


PARENT_WALLS = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]


@pytest.mark.parametrize("parent, change, met", [
    (PARENT_WALLS, [2.0] * 9 + [4.0], True),  # 9 of 10 pairs, median gap over the parent's q3 - q1
    (PARENT_WALLS, [2.0] * 8 + [4.0] * 2, False),  # 8 of 10 pairs
    (PARENT_WALLS, [w - 0.01 for w in PARENT_WALLS], False),  # 10 of 10, gap under the spread
    (PARENT_WALLS[:5], [2.0] * 5, False),  # 5 of 5 pairs: too few to claim a gain
])
def test_claim_met(parent, change, met, tmp_path):
    metrics = verdicts(tmp_path, parent, change)
    assert metrics["wall_s"]["claim_met"] is met
    # throughput is better higher, and 3 / wall ranks the pairs the same way
    assert metrics["trials_per_s"]["claim_met"] is met
    assert metrics["peak_rss_mb"]["claim_met"] is False


@pytest.mark.parametrize("parent, change, unresolved", [
    # parent q3 - q1 of 2 s against 0.25 of its 4 s median, runs overlapping
    ([2.0, 3.0, 4.0, 5.0, 6.0], [3.0, 3.5, 4.0, 4.5, 5.0], True),
    # as wide, but every change run beats every parent run
    ([2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 1.1, 1.2, 1.3, 1.4], False),
    # parent q3 - q1 of 0.2 s, inside the bound
    ([4.0, 4.1, 4.2, 4.3, 4.4], [3.0, 3.5, 4.0, 4.5, 5.0], False),
])
def test_unresolved(parent, change, unresolved, tmp_path):
    metrics = verdicts(tmp_path, parent, change)
    assert metrics["wall_s"]["bound"] == 0.25
    assert metrics["wall_s"]["unresolved"] is unresolved
    assert metrics["peak_rss_mb"]["unresolved"] is False


@pytest.mark.parametrize("rss, regressed", [(230.0 * 1.06, True), (230.0 * 1.04, False)])
def test_regressed(rss, regressed, tmp_path, capsys):
    # peak RSS rising 6% and 4% against its 5% bound, wall time steady
    parent = [result_file(tmp_path / f"p{i}.json", 2.5, 230.0) for i in range(3)]
    change = [result_file(tmp_path / f"c{i}.json", 2.5, rss) for i in range(3)]
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["interp_lowd"]["metrics"]
    assert metrics["peak_rss_mb"]["bound"] == 0.05
    assert metrics["peak_rss_mb"]["regressed"] is regressed
    assert not any(metrics[m]["regressed"] for m in ("wall_s", "trials_per_s", "setup_s"))
    assert ("regressed: peak_rss_mb" in capsys.readouterr().out) is regressed


@pytest.mark.parametrize("parent_rss, change_rss, change_walls, met", [
    # peak RSS 117.7 -> 100.2 MB on every pair, wall time steady
    (117.7, 100.2, PARENT_WALLS, "peak_rss_mb"),
    # wall time and throughput gained, peak RSS steady
    (230.0, 230.0, [2.0] * 10, "wall_s, trials_per_s"),
])
def test_summary_names_every_claimed_metric(parent_rss, change_rss, change_walls, met,
                                            tmp_path, capsys):
    parent = [result_file(tmp_path / f"p{i}.json", wall, parent_rss)
              for i, wall in enumerate(PARENT_WALLS)]
    change = [result_file(tmp_path / f"c{i}.json", wall, change_rss)
              for i, wall in enumerate(change_walls)]
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith(f"claim met: {met}")
    metrics = json.loads(out.read_text())["workloads"]["interp_lowd"]["metrics"]
    assert [m for m, r in metrics.items() if r["claim_met"]] == met.split(", ")


@pytest.mark.parametrize("change_rss, shown", [
    # a claimed peak and a regressed one get their medians and wins; a peak
    # that moved within its bound does not
    (100.2, "peak_rss_mb 117.700 -> 100.200 MB, change won 10/10 pairs"),
    (125.0, "peak_rss_mb 117.700 -> 125.000 MB, change won 0/10 pairs"),
    (118.0, None),
])
def test_summary_gives_medians_of_flagged_metrics(change_rss, shown, tmp_path, capsys):
    parent = [result_file(tmp_path / f"p{i}.json", wall, 117.7)
              for i, wall in enumerate(PARENT_WALLS)]
    change = [result_file(tmp_path / f"c{i}.json", wall, change_rss)
              for i, wall in enumerate(PARENT_WALLS)]
    assert bench_pair.main(["--parent", *parent, "--change", *change,
                            "--out", str(tmp_path / "BENCH.json")]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("interp_lowd: wall_s 3.450 -> 3.450 s, change won 0/10 pairs, ")
    if shown:
        assert f", {shown}, digests equal" in line
    else:
        assert "peak_rss_mb " not in line
