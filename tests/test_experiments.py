"""Experiment runner tests: schemas, determinism, dominance, small-scale sanity."""

import csv
import hashlib
import io
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from conftest import pool_threads
from sortkern import _pool, experiments
from sortkern.errors import CapExceededError, ConfigError
from sortkern.experiments import (
    Experiment,
    _write_csv,
    ExperimentConfig,
    resolved_slope_depth,
    run,
    run_bounds_report,
    run_eigen_decay,
    run_interp_compare,
    run_table1,
    run_tail_curves,
)
from sortkern.geometry import Domain, cone_parameters, cube_corners, fill_distance_estimate
from sortkern.interpolation import InvariantTarget
from sortkern.kernels import KernelSpec
from sortkern.rng import stream
from sortkern.spectral import SpectrumEstimate

KERNEL = KernelSpec(amplitude=1 / (2 * math.pi), bandwidth=1.0)
NARROW = KernelSpec(amplitude=1 / (2 * math.pi), bandwidth=0.08)


def cfg(tmp_path, name, experiment, **kw):
    base = dict(experiment=experiment, kernel=KERNEL, dims=(3,), ns=(40,),
                trials=3, candidate_count=2000, mc_samples=2000,
                seed=11235, out_path=str(tmp_path / name))
    base.update(kw)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigValidation:
    def test_zero_trials_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            cfg(tmp_path, "x.csv", Experiment.TABLE1, trials=0)

    def test_empty_dims_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cfg(tmp_path, "x.csv", Experiment.TABLE1, dims=())

    def test_nonpositive_dim_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cfg(tmp_path, "x.csv", Experiment.TABLE1, dims=(3, 0))

    def test_alpha_at_one_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            cfg(tmp_path, "x.csv", Experiment.TABLE1, alpha=1.0)

    def test_non_enum_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="experiment"):
            cfg(tmp_path, "x.csv", "table1")

    def test_tail_needs_eps_grid(self, tmp_path):
        with pytest.raises(ConfigError, match="eps"):
            run_tail_curves(cfg(tmp_path, "x.csv", Experiment.TAIL_CURVES))


class TestCsvWrite:
    def test_failed_row_leaves_nothing(self, tmp_path):
        # the second row lacks a column, so writing raises mid-file
        path = tmp_path / "out.csv"
        with pytest.raises(KeyError):
            _write_csv(str(path), ["a", "b"], [{"a": 1.0, "b": 2}, {"a": 3.0}])
        assert list(tmp_path.iterdir()) == []

    def test_failed_row_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        _write_csv(str(path), ["a"], [{"a": 0.5}])
        before = path.read_bytes()
        with pytest.raises(KeyError):
            _write_csv(str(path), ["a"], [{"a": 1.0}, {}])
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestTable1:
    def test_schema_and_row_count(self, tmp_path):
        c = cfg(tmp_path, "t1.csv", Experiment.TABLE1, dims=(2, 3), ns=(20, 40))
        rows = run_table1(c)
        assert len(rows) == 4
        file_rows = read_rows(c.out_path)
        assert list(file_rows[0]) == ["d", "n", "trials", "mean_h",
                                      "mean_h_sorted", "se_h", "se_h_sorted"]
        assert len(file_rows) == 4

    def test_sorted_mean_dominated(self, tmp_path):
        c = cfg(tmp_path, "t1.csv", Experiment.TABLE1, dims=(2, 5), ns=(30,))
        for row in run_table1(c):
            assert row["mean_h_sorted"] <= row["mean_h"]
            assert row["se_h"] >= 0 and row["se_h_sorted"] >= 0

    def test_byte_identical_across_runs(self, tmp_path):
        a = cfg(tmp_path, "a.csv", Experiment.TABLE1)
        b = cfg(tmp_path, "b.csv", Experiment.TABLE1)
        run_table1(a)
        run_table1(b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = cfg(tmp_path, "a.csv", Experiment.TABLE1)
        b = cfg(tmp_path, "b.csv", Experiment.TABLE1, seed=999)
        run_table1(a)
        run_table1(b)
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        c = cfg(tmp_path, "t1.csv", Experiment.TABLE1)
        rows = run_table1(c)
        file_rows = read_rows(c.out_path)
        for mem, disk in zip(rows, file_rows):
            # 17 significant digits reproduce the double bit for bit
            assert float(disk["mean_h"]) == mem["mean_h"]
            assert float(disk["se_h_sorted"]) == mem["se_h_sorted"]


class TestTailCurves:
    def test_schema_dominance_and_monotone(self, tmp_path):
        c = cfg(tmp_path, "tc.csv", Experiment.TAIL_CURVES, trials=8,
                eps_grid=(0.2, 0.4, 0.6, 0.8))
        rows = run_tail_curves(c)
        assert len(rows) == 4
        prev = None
        for row in rows:
            assert 0.0 <= row["bound_plain"] <= 1.0
            assert 0.0 <= row["bound_sorted"] <= 1.0
            assert row["emp_p_sorted"] <= row["emp_p_plain"]
            if prev is not None:
                assert row["emp_p_plain"] <= prev["emp_p_plain"]
                assert row["emp_p_sorted"] <= prev["emp_p_sorted"]
            prev = row

    def test_exceedance_is_strict(self, tmp_path):
        # with a single trial the empirical probability is 0 or 1; an eps
        # equal to the realized h must count as no exceedance
        c = cfg(tmp_path, "tc.csv", Experiment.TAIL_CURVES, trials=1,
                eps_grid=(10.0,))
        row = run_tail_curves(c)[0]
        assert row["emp_p_plain"] == 0.0

    def test_byte_identical(self, tmp_path):
        a = cfg(tmp_path, "a.csv", Experiment.TAIL_CURVES, eps_grid=(0.3, 0.6))
        b = cfg(tmp_path, "b.csv", Experiment.TAIL_CURVES, eps_grid=(0.3, 0.6))
        run_tail_curves(a)
        run_tail_curves(b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestInterpCompare:
    def test_modes_and_schema(self, tmp_path):
        c = cfg(tmp_path, "ic.csv", Experiment.INTERP_COMPARE, kernel=NARROW,
                dims=(2,), ns=(15, 30), trials=2)
        rows = run_interp_compare(c)
        assert len(rows) == 2 * 2 * 3
        assert [r["mode"] for r in rows[:3]] == ["plain", "sorted", "perm_single"]
        file_rows = read_rows(c.out_path)
        assert list(file_rows[0]) == ["d", "n", "trial", "mode", "l2_error",
                                      "l2_bound_value", "pointwise_max_error",
                                      "fit_ms"]
        # the returned rows carry diagnostics the CSV omits
        assert "fill_distance" in rows[0] and "bound_valid" in rows[0]

    def test_errors_finite_and_bounded(self, tmp_path):
        c = cfg(tmp_path, "ic.csv", Experiment.INTERP_COMPARE, kernel=NARROW,
                dims=(2,), ns=(25,), trials=3)
        for row in run_interp_compare(c):
            assert math.isfinite(row["l2_error"])
            assert math.isfinite(row["pointwise_max_error"])
            assert row["fit_ms"] >= 0.0
            assert row["l2_error"] ** 2 <= row["l2_bound_value"]

    def test_plain_and_perm_share_bound_value(self, tmp_path):
        c = cfg(tmp_path, "ic.csv", Experiment.INTERP_COMPARE, kernel=NARROW,
                dims=(2,), ns=(15,), trials=2)
        rows = run_interp_compare(c)
        for t in range(2):
            group = rows[3 * t:3 * t + 3]
            assert group[0]["l2_bound_value"] == group[2]["l2_bound_value"]
            assert group[0]["fill_distance"] == group[2]["fill_distance"]
            assert group[1]["fill_distance"] <= group[0]["fill_distance"]

    def test_deterministic_outside_timing(self, tmp_path):
        a = cfg(tmp_path, "a.csv", Experiment.INTERP_COMPARE, kernel=NARROW,
                dims=(2,), ns=(15,), trials=2)
        b = cfg(tmp_path, "b.csv", Experiment.INTERP_COMPARE, kernel=NARROW,
                dims=(2,), ns=(15,), trials=2)
        ra = run_interp_compare(a)
        rb = run_interp_compare(b)
        for x, y in zip(ra, rb):
            for col in ("d", "n", "trial", "mode", "l2_error", "l2_bound_value",
                        "pointwise_max_error", "fill_distance", "bound_valid"):
                assert x[col] == y[col]

    # sha256 of the CSV without its fit_ms column, written by the direct
    # enumeration kernel (one full distance matrix per permutation term)
    # before the tiled evaluator replaced it; the tiled evaluator must
    # reproduce those bytes
    GOLDEN = {
        2: "843fdbf57ad6c18c648c682080401ab64b3994e37c31467ae22fe506d58b7269",
        4: "f0a4f5a418a44ec4547520d40f1bea6e1841dd1421840ec87049669fe5e466db",
    }

    @pytest.mark.parametrize("d", sorted(GOLDEN))
    def test_golden_digest(self, d, tmp_path):
        c = cfg(tmp_path, "g.csv", Experiment.INTERP_COMPARE, dims=(d,), ns=(12, 30),
                trials=2, mc_samples=5000, candidate_count=3000, seed=11,
                kernel=KernelSpec(amplitude=0.1591549, bandwidth=0.3))
        run_interp_compare(c)
        with open(c.out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("fit_ms")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for r in rows:
            w.writerow([v for i, v in enumerate(r) if i != col])
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == self.GOLDEN[d]

    def test_target_evaluated_once_per_sample(self, tmp_path, monkeypatch):
        # the error samples are shared by the three modes, so the target is
        # evaluated on the design, the MC sample and the pointwise sample once
        points = []
        value = InvariantTarget.value

        def counting(self, x):
            points.append(len(x))
            return value(self, x)
        monkeypatch.setattr(InvariantTarget, "value", counting)
        run_interp_compare(cfg(tmp_path, "ic.csv", Experiment.INTERP_COMPARE,
                               dims=(2,), trials=2, mc_samples=500))
        assert sorted(points) == sorted([40, 500, 1000] * 2)

    def test_dim_above_averaged_cap_rejected(self, tmp_path):
        c = cfg(tmp_path, "ic.csv", Experiment.INTERP_COMPARE, dims=(9,))
        with pytest.raises(ConfigError, match="averaged"):
            run_interp_compare(c)


class TestEigenDecay:
    def test_schema_and_content(self, tmp_path):
        c = cfg(tmp_path, "ed.csv", Experiment.EIGEN_DECAY, dims=(2,), ns=(60,),
                trials=3)
        rows = run_eigen_decay(c)
        j_top = 60 // 4
        assert len(rows) == 2 * (j_top - 1)
        plain = [r for r in rows if r["mode"] == "plain"]
        assert [r["j"] for r in plain] == list(range(2, j_top + 1))
        lam = [r["lambda_hat"] for r in plain]
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert len({r["slope"] for r in plain}) == 1
        assert all(r["trace_err"] <= 1e-8 for r in rows)

    def test_sorted_slope_steeper_here(self, tmp_path):
        c = cfg(tmp_path, "ed.csv", Experiment.EIGEN_DECAY, dims=(3,), ns=(80,),
                trials=3)
        rows = run_eigen_decay(c)
        slope = {r["mode"]: r["slope"] for r in rows}
        assert slope["sorted"] < slope["plain"]

    def test_too_small_m_rejected(self, tmp_path):
        c = cfg(tmp_path, "ed.csv", Experiment.EIGEN_DECAY, ns=(10,))
        with pytest.raises(ConfigError, match="m >="):
            run_eigen_decay(c)

    def test_byte_identical(self, tmp_path):
        a = cfg(tmp_path, "a.csv", Experiment.EIGEN_DECAY, dims=(2,), ns=(40,))
        b = cfg(tmp_path, "b.csv", Experiment.EIGEN_DECAY, dims=(2,), ns=(40,))
        run_eigen_decay(a)
        run_eigen_decay(b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestResolvedSlopeDepth:
    def make(self, lam):
        return SpectrumEstimate(m=len(lam), eigenvalues=np.asarray(lam, dtype=float))

    def test_truncates_at_noise_floor(self):
        lam = np.concatenate([np.geomspace(1.0, 1e-10, 8), np.full(8, 1e-18)])
        assert resolved_slope_depth([self.make(lam)], 16) == 8

    def test_clean_spectrum_keeps_cap(self):
        lam = np.geomspace(1.0, 1e-6, 12)
        assert resolved_slope_depth([self.make(lam)], 10) == 10

    def test_short_resolved_range_rejected(self):
        lam = np.concatenate([np.geomspace(1.0, 1e-2, 3), np.full(13, 1e-19)])
        with pytest.raises(ConfigError, match="slope"):
            resolved_slope_depth([self.make(lam)], 16)


class TestBoundsReport:
    def test_values_match_library(self, tmp_path):
        c = cfg(tmp_path, "br.csv", Experiment.BOUNDS_REPORT, dims=(2, 4))
        rows = run_bounds_report(c)
        assert len(rows) == 4  # nu in {1, 2} per d
        for row in rows:
            cube = cone_parameters(row["d"], Domain.CUBE)
            srt = cone_parameters(row["d"], Domain.SORTED_SIMPLEX)
            assert row["theta_cube"] == cube.theta
            assert row["radius_simplex"] == srt.radius
            assert row["tilde_constant"] > 0 and row["p_constant"] > 0

    def test_byte_identical(self, tmp_path):
        a = cfg(tmp_path, "a.csv", Experiment.BOUNDS_REPORT)
        b = cfg(tmp_path, "b.csv", Experiment.BOUNDS_REPORT)
        run_bounds_report(a)
        run_bounds_report(b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestDispatch:
    def test_run_routes_by_experiment(self, tmp_path):
        c = cfg(tmp_path, "br.csv", Experiment.BOUNDS_REPORT, dims=(2,))
        assert run(c) == run_bounds_report(
            cfg(tmp_path, "br2.csv", Experiment.BOUNDS_REPORT, dims=(2,)))


class TestCheckedUpFront:
    def test_nu_below_one_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nu"):
            cfg(tmp_path, "x.csv", Experiment.BOUNDS_REPORT, nu=0)

    def test_interp_cap_before_any_trial(self, tmp_path, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before the cap check")

        monkeypatch.setattr(experiments, "make_invariant_target", no_trial)
        monkeypatch.setattr(experiments, "_trial_draws", no_trial)
        c = cfg(tmp_path, "ic.csv", Experiment.INTERP_COMPARE, dims=(2, 7), ns=(10,))
        with pytest.raises(CapExceededError, match="averaged"):
            run_interp_compare(c)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_eps_grid_before_any_fill(self, bad, tmp_path, monkeypatch):
        def no_fill(*args, **kwargs):
            raise AssertionError("a fill-distance trial ran before the eps check")

        monkeypatch.setattr(experiments, "_fill_unit", no_fill)
        with pytest.raises(ConfigError, match="eps_grid"):
            run_tail_curves(cfg(tmp_path, "tc.csv", Experiment.TAIL_CURVES,
                                eps_grid=(0.1, bad), trials=20, ns=(50,)))
        assert list(tmp_path.iterdir()) == []


def serial_fill_trials(c, exp_id, d, n):
    """The one-trial-at-a-time loop through the public fill_distance_estimate."""
    h, hs = np.empty(c.trials), np.empty(c.trials)
    for t in range(c.trials):
        g = stream(c.seed, exp_id, d, n, t)
        X = g.random((n, d))
        C = np.vstack([g.random((c.candidate_count, d)), cube_corners(d)])
        h[t] = fill_distance_estimate(X, Domain.CUBE, C)
        hs[t] = min(fill_distance_estimate(X, Domain.SORTED_SIMPLEX, C), h[t])
    return h, hs


# d = 2 and 3 take the kd-tree path, d = 5 and 6 the pruned scan; n = 10 is
# below the prescan depth, n = 60 above it
POOL_DIMS = (2, 3, 5, 6)
POOL_NS = (10, 60)


class TestTrialPool:
    """The fill-distance units fanned out over the caller and helper threads."""

    def pool_cfg(self, tmp_path, name, experiment, trials, seed):
        return cfg(tmp_path, name, experiment, dims=POOL_DIMS, ns=POOL_NS,
                   trials=trials, seed=seed, candidate_count=1500,
                   eps_grid=(0.2, 0.5) if experiment is Experiment.TAIL_CURVES else ())

    def csv_bytes(self, tmp_path, monkeypatch, workers, experiment, trials, seed):
        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        c = self.pool_cfg(tmp_path, f"{experiment.value}-{workers}.csv", experiment,
                          trials, seed)
        run(c)
        with open(c.out_path, "rb") as fh:
            return fh.read()

    @pytest.mark.parametrize("experiment", [Experiment.TABLE1, Experiment.TAIL_CURVES])
    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("seed", [11235, 777])
    def test_one_and_two_workers_write_the_same_bytes(self, experiment, trials, seed,
                                                      tmp_path, monkeypatch):
        one = self.csv_bytes(tmp_path, monkeypatch, 1, experiment, trials, seed)
        two = self.csv_bytes(tmp_path, monkeypatch, 2, experiment, trials, seed)
        assert one == two

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_match_the_serial_public_path(self, workers, tmp_path, monkeypatch):
        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        c = self.pool_cfg(tmp_path, "t1.csv", Experiment.TABLE1, 3, 11235)
        cells = experiments._fill_trials(c, 1)
        assert sorted(cells) == sorted((d, n) for d in POOL_DIMS for n in POOL_NS)
        for (d, n), (h, hs) in cells.items():
            want_h, want_hs = serial_fill_trials(c, 1, d, n)
            assert np.array_equal(h, want_h) and np.array_equal(hs, want_hs)

    def test_first_unit_finishing_last_keeps_the_bytes(self, tmp_path, monkeypatch):
        one = self.csv_bytes(tmp_path, monkeypatch, 1, Experiment.TABLE1, 3, 11235)
        unit = experiments._fill_unit
        total = len(POOL_DIMS) * len(POOL_NS) * 3
        lock = threading.Lock()
        others_done = threading.Event()
        state = {"first": None, "done": 0, "order": []}

        def first_last(c, exp_id, key):
            with lock:
                if state["first"] is None:
                    state["first"] = key
            if key == state["first"]:
                assert others_done.wait(timeout=60), "the other units never finished"
            out = unit(c, exp_id, key)
            with lock:
                state["order"].append(key)
                state["done"] += 1
                if state["done"] == total - 1:
                    others_done.set()
            return out

        monkeypatch.setattr(experiments, "_fill_unit", first_last)
        two = self.csv_bytes(tmp_path, monkeypatch, 2, Experiment.TABLE1, 3, 11235)
        assert state["order"][-1] == state["first"]
        assert one == two

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_unit_surfaces_its_error(self, workers, tmp_path, monkeypatch):
        unit = experiments._fill_unit
        bad = {(5, 10, 1), (3, 60, 0)}

        def failing(c, exp_id, key):
            if key in bad:
                raise ConfigError(f"unit {key} failed")
            return unit(c, exp_id, key)

        monkeypatch.setattr(experiments, "_fill_unit", failing)
        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        c = self.pool_cfg(tmp_path, "t1.csv", Experiment.TABLE1, 3, 11235)
        # units go out from the largest (d, n) down, so (5, 10, 1) comes first
        with pytest.raises(ConfigError, match=r"unit \(5, 10, 1\) failed"):
            run_table1(c)
        assert list(tmp_path.iterdir()) == []
        assert pool_threads() == []

    def test_one_cpu_starts_no_thread(self, tmp_path, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread was started on one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(threading, "Thread", no_thread)
        assert _pool._worker_count() == 1
        unit = experiments._fill_unit
        callers = set()

        def record(c, exp_id, key):
            callers.add(threading.get_ident())
            return unit(c, exp_id, key)

        monkeypatch.setattr(experiments, "_fill_unit", record)
        run_table1(self.pool_cfg(tmp_path, "t1.csv", Experiment.TABLE1, 2, 11235))
        assert callers == {threading.get_ident()}

    def test_worker_count_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _pool._worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool._worker_count() == 1

    def test_fan_out_under_contention(self, monkeypatch):
        # more workers than cores and a tiny switch interval: every key is
        # computed once and lands in its own slot
        monkeypatch.setattr(_pool, "_worker_count", lambda: 8)
        calls = []

        def work(key):
            calls.append(key)
            return sum(i * key for i in range(200))

        keys = list(range(2000))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _pool._fan_out(work, keys)
        finally:
            sys.setswitchinterval(old)
        assert sorted(calls) == keys
        assert out == [sum(i * k for i in range(200)) for k in keys]
        assert pool_threads() == []

    def test_earliest_of_concurrent_failures_is_raised(self, monkeypatch):
        # key 0 fails only after key 1 has failed on the other thread
        monkeypatch.setattr(_pool, "_worker_count", lambda: 2)
        one_failed = threading.Event()

        def work(key):
            if key == 1:
                one_failed.set()
                raise ConfigError("key 1")
            if key == 0:
                assert one_failed.wait(timeout=60)
                raise ConfigError("key 0")
            return key

        with pytest.raises(ConfigError, match="key 0"):
            _pool._fan_out(work, range(10))
        assert pool_threads() == []

    def test_no_key_handed_out_after_a_failure(self, monkeypatch):
        monkeypatch.setattr(_pool, "_worker_count", lambda: 2)
        started = []

        def work(key):
            started.append(key)
            if key == 0:
                raise ConfigError("key 0")
            time.sleep(0.002)
            return key

        with pytest.raises(ConfigError, match="key 0"):
            _pool._fan_out(work, range(200))
        # each thread finishes at most the unit it holds
        assert len(started) <= 3

    def test_candidates_drawn_in_place(self, tmp_path):
        # the candidate rows equal a separate draw stacked on the corners
        for d in (2, 5, 15):
            c = cfg(tmp_path, "x.csv", Experiment.TABLE1, dims=(d,), candidate_count=300)
            X, C = experiments._trial_draws(c, 1, d, 40, 2)
            g = stream(c.seed, 1, d, 40, 2)
            assert np.array_equal(X, g.random((40, d)))
            want = np.vstack([g.random((300, d)), cube_corners(d)])
            assert C.flags.c_contiguous and np.array_equal(C, want)
