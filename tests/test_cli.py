"""CLI surface tests: parsing, defaults, exit codes, output files."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sortkern.cli as cli
from sortkern import experiments
from sortkern.experiments import ExperimentConfig
from sortkern.errors import (
    DimensionMismatchError,
    DuplicateOrbitError,
    FactorizationError,
    NumericalError,
)


def run_cli(argv):
    return cli.main(argv)


class TestParsing:
    def test_eps_range_inclusive_endpoints(self):
        assert cli._eps_range("0.05:0.2:0.05") == (0.05, 0.1, 0.15, 0.2)

    def test_eps_range_rejects_malformed(self):
        for bad in ("0.1:0.5", "a:b:c", "0.5:0.1:0.1", "0:1:0.1", "0.1:1:0",
                    "nan:1:0.1", "0.05:inf:0.05", "0.05:1:nan", "0.05:1:inf",
                    "1e-300:1:1e-300", "0.05:1e300:0.05", "0.1:0.1000000001:6e-13"):
            with pytest.raises(Exception):
                cli._eps_range(bad)

    def test_int_list(self):
        assert cli._int_list("3,6,9") == (3, 6, 9)
        with pytest.raises(Exception):
            cli._int_list("3,x")

    def test_hyphenated_experiment_names_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["bounds-report", "--d", "2", "--nu", "1"]) == 0
        assert (tmp_path / "bounds_report.csv").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default: 20240601" in out
        assert "0.05:1.5:0.05" in out


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        out = tmp_path / "br.csv"
        assert run_cli(["bounds_report", "--d", "2,3", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["d"] for r in rows} == {"2", "3"}

    def test_unknown_experiment_is_one(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_config_error_is_one(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run_cli(["table1", "--trials", "0", "--d", "2", "--n", "10",
                        "--out", out]) == 1
        assert "trials" in capsys.readouterr().err

    def test_bad_flag_value_is_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["table1", "--trials", "many"])
        assert exc.value.code == 1

    def test_bad_eps_format_is_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["tail_curves", "--eps", "nope"])
        assert exc.value.code == 1

    def test_numerical_failure_is_two(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("spectrum went sideways")
        monkeypatch.setattr(cli, "run", boom)
        assert run_cli(["table1"]) == 2
        assert "numerical failure" in capsys.readouterr().err


    def test_factorization_failure_is_two(self, monkeypatch, capsys, tmp_path):
        def boom(cfg):
            raise FactorizationError("Gram factorization failed")
        monkeypatch.setattr(cli, "run", boom)
        assert run_cli(["interp_compare", "--out", str(tmp_path / "x.csv")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [
        DuplicateOrbitError("design has points in the same permutation orbit"),
        DimensionMismatchError("dimension mismatch: 2 vs 3"),
        PermissionError(13, "Permission denied", "x.csv"),
    ])
    def test_other_failures_are_one_line_and_one(self, exc, monkeypatch, capsys, tmp_path):
        def boom(cfg):
            raise exc
        monkeypatch.setattr(cli, "run", boom)
        assert run_cli(["table1", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sortkern: error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_bad_out_path_fails_before_running(self, where, monkeypatch, capsys, tmp_path):
        def never(cfg):
            raise AssertionError("the experiment ran")
        monkeypatch.setattr(cli, "run", never)
        assert run_cli(["table1", "--out", str(tmp_path / where)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sortkern: error: output ")
        assert err.count("\n") == 1


def one_line_failure(argv, out, capsys):
    # exit 1 with a single stderr line, no warning and no output file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sortkern: error: ") and err.count("\n") == 1
    assert not out.exists()
    return err


SMALL_RUNS = [
    ["interp_compare", "--d", "2", "--n", "5", "--trials", "1", "--mc-samples", "10"],
    ["eigen_decay", "--d", "2", "--n", "40", "--trials", "1"],
    ["bounds_report", "--d", "2"],
]


class TestBadValues:
    def test_negative_seed(self, tmp_path, capsys):
        err = one_line_failure(["table1", "--d", "3", "--n", "5", "--trials", "1",
                                "--candidates", "10", "--seed", "-1"],
                               tmp_path / "t1.csv", capsys)
        assert "nonnegative" in err

    @pytest.mark.parametrize("bw", ["1e-300"])
    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda a: a[0])
    def test_tiny_bandwidth(self, argv, bw, tmp_path, capsys):
        err = one_line_failure(argv + ["--bandwidth", bw], tmp_path / "x.csv", capsys)
        assert "bandwidth" in err

    # "--flag=value", so argparse reads "-inf" as a value, not an option
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--amplitude", "--bandwidth", "--alpha"])
    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda a: a[0])
    def test_non_finite_value(self, argv, flag, value, tmp_path, capsys):
        err = one_line_failure(argv + [f"{flag}={value}"], tmp_path / "x.csv", capsys)
        assert f"{flag[2:]} must be finite" in err

    @pytest.mark.parametrize("message", [
        "Unable to allocate 2.18 TiB for an array with shape (100000000008, 3) "
        "and data type float64", ""], ids=["numpy", "bare"])
    def test_out_of_memory(self, message, tmp_path, monkeypatch, capsys):
        # the draw is faked: a real one of that size would be written to on a
        # host that overcommits memory
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(experiments, "_trial_draws", no_memory)
        err = one_line_failure(["table1", "--d", "3", "--n", "5", "--trials", "1",
                                "--candidates", "100"], tmp_path / "t1.csv", capsys)
        assert err == f"sortkern: error: {message or 'out of memory'}\n"

    @pytest.mark.parametrize("eps", ["1e-300:1:1e-300", "0.05:1e300:0.05"])
    def test_unbuildable_eps_grid(self, eps, tmp_path, capsys):
        out = tmp_path / "tc.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["tail_curves", "--eps", eps, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("sortkern: error: argument --eps") and err.count("\n") == 1
        assert not out.exists()


class TestEndToEnd:
    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda a: a[0])
    def test_small_bandwidth_runs(self, argv, tmp_path):
        # the derivative constants no longer refuse bandwidths below 1e-3
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv + ["--bandwidth", "1e-4", "--out", str(out)]) == 0
        assert out.exists()

    def test_small_table1(self, tmp_path):
        out = tmp_path / "t1.csv"
        code = run_cli(["table1", "--d", "2", "--n", "15", "--trials", "3",
                        "--candidates", "1000", "--seed", "7",
                        "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["mean_h_sorted"]) <= float(rows[0]["mean_h"])

    def test_same_command_same_bytes(self, tmp_path):
        argv = ["tail_curves", "--d", "2", "--n", "12", "--trials", "4",
                "--candidates", "1000", "--eps", "0.2:0.8:0.2", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_out_name_follows_experiment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["eigen_decay", "--d", "2", "--n", "40",
                        "--trials", "2"]) == 0
        assert (tmp_path / "eigen_decay.csv").exists()


class TestOwnedDefaults:
    def test_flags_take_config_defaults(self):
        args = cli._build_parser().parse_args(["table1"])
        got = cli._config_from_args(args)
        for f in dataclasses.fields(ExperimentConfig):
            if f.name not in ("experiment", "kernel", "eps_grid", "out_path"):
                assert getattr(got, f.name) == f.default, f.name

    def test_nu_zero_is_one_line_and_one(self, tmp_path, capsys):
        out = tmp_path / "br.csv"
        assert run_cli(["bounds_report", "--nu", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "nu" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_tail_curves_at_large_d(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert run_cli(["tail_curves", "--d", "200", "--n", "1", "--trials", "2",
                        "--candidates", "10", "--eps", "0.05:0.1:0.05",
                        "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["bound_plain"]) for r in rows] == [1.0, 1.0]
        assert [float(r["bound_sorted"]) for r in rows] == [1.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(start=st.integers(1, 2_000_000), step=st.integers(1, 1_000_000),
       count=st.integers(0, 60), extra=st.floats(0.0, 0.999))
def test_eps_range_round_trip(start, step, count, extra):
    # start and step as a user types them: decimals with up to 6 places
    start, step = start / 10 ** 6, step / 10 ** 6
    stop = start + (count + extra) * step
    grid = cli._eps_range(f"{start:.6f}:{stop!r}:{step:.6f}")
    assert len(grid) == count + 1
    assert abs(grid[0] - start) <= 1e-12
    for a, b in zip(grid, grid[1:]):
        assert a < b and abs(b - a - step) <= 1e-12
    assert grid[-1] <= stop + 1e-12 < grid[-1] + step


def readme_flag_table():
    # {flag: default} from the CLI section's table, backticks stripped
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(--[a-z-]+)` \| `([^`]*)` \|", text, flags=re.M)
    assert rows, "no flag table found in README.md"
    return dict(rows)


def test_readme_flag_table_matches_parser():
    parser = cli._build_parser()
    defaults = vars(parser.parse_args(["table1"]))
    actions = {a.option_strings[-1]: a for a in parser._actions
               if a.option_strings and a.dest != "help"}
    table = readme_flag_table()
    assert sorted(table) == sorted(actions)
    for flag, text in table.items():
        action = actions[flag]
        if flag == "--out":
            # derived from the experiment name when the flag is absent
            assert action.default is None and text == "<experiment>.csv"
            continue
        parse = action.type or str
        assert parse(text) == defaults[action.dest], flag


def fresh_python(code, *args):
    """Stdout of code run in a fresh interpreter on this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = subprocess.run([sys.executable, "-c", code, *args],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    return probe.stdout.strip()


def test_import_leaves_scipy_spatial_unloaded():
    # the kd-tree module loads on the first low-dimensional fill distance,
    # not with the CLI
    assert fresh_python(
        "import sys, sortkern.cli; print('scipy.spatial' in sys.modules)") == "False"


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg, most of the CLI's import time, loads on the first fit or
    # spectrum
    assert fresh_python(
        "import sys, sortkern.cli; print('scipy.linalg' in sys.modules)") == "False"


FIRST_FIT_PROBE = """
import sys
from sortkern import experiments
from sortkern.kernels import KernelSpec

fit, loaded = experiments.fit, []

def probe(*args, **kwargs):
    loaded.append("scipy.linalg" in sys.modules)
    return fit(*args, **kwargs)

experiments.fit = probe
experiments.run_interp_compare(experiments.ExperimentConfig(
    experiment=experiments.Experiment.INTERP_COMPARE, kernel=KernelSpec(1.0, 0.5),
    dims=(5,), ns=(6,), trials=1, mc_samples=10, candidate_count=50,
    out_path=sys.argv[1]))
print(loaded)
"""


def test_first_fit_ms_times_no_import(tmp_path):
    # the runner loads scipy.linalg before it times a fit. At d = 5 no kd-tree
    # is built, and so no scipy.spatial import loads scipy.linalg first.
    assert fresh_python(FIRST_FIT_PROBE, str(tmp_path / "out.csv")) == "[True, True, True]"


class TestMallocPin:
    """The command pins glibc's mmap threshold; library calls leave it alone.

    glibc raises its threshold when a mapped block is freed, so after a
    20 MB array a 10 MB one comes from the malloc arenas. Under the pin it
    is mapped on its own. Each probe runs in a fresh interpreter, which
    starts from glibc's defaults.
    """

    PROBE = """
import ctypes, sys
import numpy as np
from sortkern import cli, experiments, kernels
from sortkern.experiments import Experiment, ExperimentConfig
from sortkern.kernels import KernelMode, KernelSpec

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    print("no mallinfo2")
    sys.exit(0)
class Info(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in ("arena", "ordblks", "smblks", "hblks",
        "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]
libc.mallinfo2.restype = Info

def mapped(nbytes):
    base = libc.mallinfo2().hblkhd
    a = np.ones(nbytes // 8)
    grown = libc.mallinfo2().hblkhd - base
    del a
    return grown

out = sys.argv[1]
mapped(20_000_000)
before = mapped(10_000_000)
{calls}
print(before, mapped(10_000_000))
"""

    def mapped_after(self, calls, tmp_path):
        """Bytes a 10 MB array maps before and after `calls`, or None without mallinfo2."""
        # without the environment's own malloc tuning
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c", self.PROBE.replace("{calls}", calls),
             str(tmp_path / "x.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert probe.returncode == 0, probe.stderr
        if probe.stdout.strip() == "no mallinfo2":
            pytest.skip("the C library has no mallinfo2")
        return tuple(map(int, probe.stdout.split()))

    def test_command_maps_large_arrays(self, tmp_path):
        before, after = self.mapped_after(
            'assert cli.main(["table1", "--d", "3", "--n", "10", "--trials", "1", '
            '"--candidates", "100", "--out", out]) == 0', tmp_path)
        assert before < 10_000_000 <= after

    def test_library_calls_leave_malloc_policy(self, tmp_path):
        # the fill trials and the kernel evaluator both run on the pool
        before, after = self.mapped_after(
            "experiments._fill_trials(ExperimentConfig(experiment=Experiment.TABLE1, "
            "kernel=KernelSpec(1.0, 1.0), dims=(3,), ns=(10,), trials=1, "
            "candidate_count=100, out_path=out), 1)\n"
            "rng = np.random.default_rng(1)\n"
            "kernels.kernel_cross(KernelSpec(1.0, 1.0), KernelMode.PLAIN, "
            "rng.random((5000, 2)), rng.random((50, 2)))", tmp_path)
        assert before < 10_000_000 and after < 10_000_000
