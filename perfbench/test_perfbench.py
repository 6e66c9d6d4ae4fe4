"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_golden_csv_is_exact_and_a_tampered_one_is_not(tmp_path):
    w = run.WORKLOADS["spectrum"]
    out = tmp_path / "spectrum.csv"
    child = run.run_child(run.cli_cmd(w, run.DEFAULT_SEED, out))
    assert child.code == 0
    golden = run.load_golden()
    _, failed, problems, dig = run.score_child(w, child, out)
    assert (failed, problems) == (0, [])
    assert run.csv_exact(w, run.DEFAULT_SEED, dig, golden) == 1
    data = out.read_bytes()
    last_digit = max(i for i in range(len(data)) if data[i:i + 1].isdigit())
    flip = b"1" if data[last_digit:last_digit + 1] != b"1" else b"2"
    out.write_bytes(data[:last_digit] + flip + data[last_digit + 1:])
    _, _, _, tampered = run.score_child(w, child, out)
    assert run.csv_exact(w, run.DEFAULT_SEED, tampered, golden) == 0
    tally = run.Tally(w)
    tally.add(child, out)
    correct, details = tally.result(run.DEFAULT_SEED, golden)
    assert not correct and details["csv_exact"] == 0


def test_digest_ignores_only_fit_ms():
    csv = (b"d,n,trial,mode,l2_error,l2_bound_value,pointwise_max_error,fit_ms\n"
           b"2,80,0,plain,0.5,3.0,0.75,1.25\n")
    assert run.digest(csv) == run.digest(csv.replace(b"1.25", b"9.5"))
    assert run.digest(csv) != run.digest(csv.replace(b"0.75", b"0.7"))


def test_nonzero_cli_exit_fails_every_row(tmp_path):
    w = run.WORKLOADS["interp_lowd"]
    child = run.run_child([sys.executable, "-c", "import sys; sys.exit(2)"])
    assert child.code == 2
    tally = run.Tally(w)
    tally.add(child, tmp_path / "never_written.csv")
    correct, details = tally.result(run.DEFAULT_SEED, run.load_golden())
    assert not correct
    assert details["failed_frac"] == 1.0
    assert tally.attempted == tally.failed == len(w.row_keys())


def test_nan_l2_error_counts_as_failed_row():
    w = run.WORKLOADS["interp_perm"]
    lines = [",".join(run.HEADERS["interp_compare"])]
    for d, n, t, mode in w.row_keys():
        err = "nan" if (n, mode) == (160, "sorted") else "0.001"
        lines.append(f"{d},{n},{t},{mode},{err},5.0,0.01,1.0")
    problems, failed = run.check_csv(w, ("\n".join(lines) + "\n").encode())
    assert (problems, failed) == ([], 1)


def test_metric_names_are_unique_and_well_formed():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(pattern.fullmatch(name) for name in names)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_self_time_is_span_minus_children():
    # run(0..10) > fill(1..7) > sort_points(2..3); draw(7..9) under run
    spans = [["experiments.run", None, 0.0, 10.0, None],
             ["geometry.fill_distance_estimate", 0, 1.0, 7.0,
              {"domain": "cube", "d": 3, "n": 50, "pairs": 600}],
             ["geometry.sort_points", 1, 2.0, 3.0, {"rows": 4}],
             ["rng.draw", 0, 7.0, 9.0, {"values": 8}]]
    m = run.layer_metrics({"spans": spans, "wall_s": 10.0, "cpu_s": 5.0}, 8.0, 10.0)
    assert m["geometry.fill.cube.d3.n50_s"] == m["geometry.fill_s"] == 6.0
    assert m["geometry.fill.pairs_per_s"] == 100.0
    assert m["geometry.self_s"] == 6.0
    assert m["rng.draw_s"] == m["rng.self_s"] == 2.0
    assert m["experiments.self_s"] == 2.0
    assert m["trace.coverage_frac"] == 0.8
    assert m["experiments.cpu_util"] == 0.5
    assert m["trace.overhead_frac"] == 0.25
