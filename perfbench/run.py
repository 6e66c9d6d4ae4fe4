"""Benchmark of the sortkern CLI experiments.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The checkout root is the parent of this directory; the program is taken from
its src/sortkern, and without it the benchmark exits 2 and prints no result.
Each workload is one `sortkern` experiment at a fixed config, run as a fresh
child process `python3 -m sortkern.cli ... --seed N`. Every child runs with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, so the
numbers are a single-threaded baseline.

--trace 0 times a fresh interpreter importing sortkern.cli (setup_s, median
of SETUP_REPEATS), then runs the CLI back to back until --seconds have passed
(at least MIN_CHILDREN times) and reports medians over those children: wall_s,
trials_per_s and peak_rss_mb.

--trace 1 runs pairs of an untraced child and a child under
perfbench/tracer.py, requires both to write the same CSV, and reports the
per-layer times and work counts of the traced child (medians over pairs).

Every CSV is checked against its config and for failed rows. The CSV without
its wall-clock fit_ms column is hashed; children of one run must agree, and
at the seed in golden.json the hash must equal the golden digest there.

The last line of stdout is {"correct", "attempted", "failed", "metrics"},
with attempted and failed counted in CSV rows. The line before it holds the
details: machine facts, per-child samples, the digest, csv_exact and
failed_frac. Both are also written to .perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20240601
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# CLI children per untraced run, at least, however long one child takes
MIN_CHILDREN = 2
# a child still running after this many seconds is killed and counts as failed
CHILD_TIMEOUT_S = 150.0
# trials of the default `sortkern table1`, for table1.projected_default_s
DEFAULT_TRIALS = 200

# the interpolation workloads' kernel: a narrow Gaussian whose amplitude
# is exactly 1/(2 pi)
KERNEL_ARGS = ("--bandwidth", "0.08", "--amplitude", "0.15915494309189535")
INTERP_MODES = ("plain", "sorted", "perm_single")
SPECTRUM_MODES = ("plain", "sorted")

HEADERS = {
    "table1": ["d", "n", "trials", "mean_h", "mean_h_sorted", "se_h", "se_h_sorted"],
    "interp_compare": ["d", "n", "trial", "mode", "l2_error", "l2_bound_value",
                       "pointwise_max_error", "fit_ms"],
    "eigen_decay": ["mode", "j", "lambda_hat", "bound_covering", "bound_weyl", "slope",
                    "trace_err"],
}


@dataclass(frozen=True)
class Workload:
    """One CLI experiment at a fixed config; the seed comes from --seed."""

    name: str
    experiment: str
    dims: tuple
    ns: tuple
    trials: int
    extra: tuple = ()

    def cli_args(self, seed, out):
        return [self.experiment, "--d", ",".join(map(str, self.dims)),
                "--n", ",".join(map(str, self.ns)), "--trials", str(self.trials),
                *self.extra, "--seed", str(seed), "--out", str(out)]

    def units(self):
        """(d, n, trial) units one child completes, or spectra for eigen_decay."""
        if self.experiment == "eigen_decay":
            return len(SPECTRUM_MODES) * self.trials
        return len(self.dims) * len(self.ns) * self.trials

    def row_keys(self):
        """Leading columns of every CSV row, in order."""
        if self.experiment == "table1":
            return [(d, n) for d in self.dims for n in self.ns]
        if self.experiment == "interp_compare":
            return [(d, n, t, mode) for d in self.dims for n in self.ns
                    for t in range(self.trials) for mode in INTERP_MODES]
        return [(mode, j) for mode in SPECTRUM_MODES for j in range(2, self.ns[0] // 4 + 1)]


# Why these four: table1 is the headline experiment and spends its time in
# geometry.fill_distance_estimate (kd-tree at d = 3, pruned scan at d >= 6) and
# rng draws, with no kernel work. interp_lowd spends it in interpolation.evaluate
# and fit at d = 2, where permutation averaging is cheap. interp_perm is
# dominated by kernel_cross(PERM_SINGLE) enumerating 5! permutations; mixed
# with d = 2 it would hide the interpolation layer, and --d x --n is a cross
# product, so it is its own workload. spectrum is square Gram assembly plus
# eigh, with no fill distance. Trials are sized so one child takes seconds.
WORKLOADS = {w.name: w for w in (
    Workload("table1", "table1", (3, 6, 9, 12), (50, 500, 5000), trials=1),
    Workload("interp_lowd", "interp_compare", (2,), (80, 320, 1280), trials=1,
             extra=KERNEL_ARGS),
    Workload("interp_perm", "interp_compare", (5,), (40, 160), trials=1, extra=KERNEL_ARGS),
    Workload("spectrum", "eigen_decay", (3,), (2000,), trials=1),
)}

END_TO_END = (("wall_s", "s"), ("trials_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

FILL_CELLS = tuple((dom, d, n) for dom in ("cube", "sorted_simplex")
                   for d in (3, 6, 9, 12) for n in (50, 500, 5000))
LAYERS = ("geometry", "rng", "kernels", "interpolation", "spectral", "bounds")
PER_LAYER = (
    *((f"geometry.fill.{dom}.d{d}.n{n}_s", "s") for dom, d, n in FILL_CELLS),
    ("geometry.fill_s", "s"), ("geometry.fill.pairs", "count"),
    ("geometry.fill.pairs_per_s", "1/s"),
    ("geometry.sort_points_s", "s"), ("geometry.sort_points.rows", "count"),
    ("rng.draw_s", "s"), ("rng.values_drawn", "count"),
    *((f"kernels.kernel_cross.{mode}{suffix}", unit) for mode in INTERP_MODES
      for suffix, unit in (("_s", "s"), (".pairs", "count"), (".pairs_per_s", "1/s"))),
    ("kernels.gram_s", "s"),
    ("interpolation.fit_s", "s"), ("interpolation.fit.calls", "count"),
    ("interpolation.fit.jitter_nonzero", "count"), ("interpolation.fit.failures", "count"),
    ("interpolation.fit.first_try_ratio", "ratio"),
    ("interpolation.evaluate_s", "s"), ("interpolation.evaluate.points", "count"),
    ("interpolation.target_value_s", "s"), ("interpolation.target_value.points", "count"),
    ("spectral.nystrom_spectrum_s", "s"), ("spectral.eigh_s", "s"), ("spectral.gram_s", "s"),
    ("bounds_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("experiments.wall_s", "s"), ("experiments.self_s", "s"),
    ("experiments.cpu_util", "ratio"),
    ("trace.coverage_frac", "ratio"), ("trace.overhead_frac", "ratio"),
)


# ---------------------------------------------------------------- CSV checks

def strip_fit_ms(data):
    """The CSV without its wall-clock fit_ms column, the only varying bytes."""
    lines = data.split(b"\n")
    header = lines[0].split(b",")
    if b"fit_ms" not in header:
        return data
    col = header.index(b"fit_ms")
    return b"\n".join(b",".join(f for i, f in enumerate(line.split(b",")) if i != col)
                      for line in lines)


def digest(data):
    return hashlib.sha256(strip_fit_ms(data)).hexdigest()


def _floats(row, cols):
    return [float(row[c]) for c in cols]


def check_csv(workload, data):
    """Check one CSV against its workload's config.

    Returns (problems, failed): reasons the output is wrong, and the number
    of rows holding a failed operation (a NaN l2_error for interp_compare,
    any non-finite number otherwise).
    """
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError:
        return ["CSV is not text"], len(workload.row_keys())
    header = HEADERS[workload.experiment]
    if not lines or lines[0].split(",") != header:
        return ["unexpected header"], len(workload.row_keys())
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    keys = workload.row_keys()
    if len(rows) != len(keys) or any(len(r) != len(header) for r in rows):
        return [f"expected {len(keys)} rows of {len(header)} fields"], len(keys)
    problems, failed = [], 0
    for key, row in zip(keys, rows):
        try:
            got = tuple(type(k)(row[c]) for k, c in zip(key, header))
            if got != key:
                problems.append(f"row {got} where {key} was expected")
                continue
            if workload.experiment == "table1":
                h, hs = _floats(row, ("mean_h", "mean_h_sorted"))
                if int(row["trials"]) != workload.trials:
                    problems.append(f"row {key}: trials {row['trials']}")
                if not (math.isfinite(h) and math.isfinite(hs)):
                    failed += 1
                elif not 0.0 < hs <= h <= math.sqrt(key[0]):
                    problems.append(f"row {key}: fill distances {hs} <= {h} fail")
            elif workload.experiment == "interp_compare":
                err, bound, pw = _floats(row, ("l2_error", "l2_bound_value",
                                               "pointwise_max_error"))
                if math.isnan(err):
                    failed += 1
                elif not (err >= 0.0 and pw >= 0.0 and bound > 0.0):
                    problems.append(f"row {key}: l2 {err}, max {pw}, bound {bound}")
            else:
                lam, slope, trace_err = _floats(row, ("lambda_hat", "slope", "trace_err"))
                if not all(map(math.isfinite, (lam, slope, trace_err))):
                    failed += 1
                elif lam < 0.0 or slope >= 0.0 or not trace_err <= 1e-8:
                    problems.append(f"row {key}: lambda {lam}, slope {slope}, "
                                    f"trace_err {trace_err}")
        except (KeyError, ValueError) as exc:
            problems.append(f"row {key}: {exc}")
    return problems[:10], failed


def load_golden():
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


def csv_exact(workload, seed, dig, golden):
    """1 or 0 where golden.json has a digest for this workload and seed, else None."""
    entry = golden["digests"].get(workload.name)
    if seed != golden["seed"] or entry is None or entry["trials"] != workload.trials:
        return None
    return int(dig == entry["sha256"])


# ------------------------------------------------------------------ children

@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    # only the checkout's own source, never a sortkern from elsewhere
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd, stderr_path=None):
    """Run cmd to completion; wall time, CPU time and peak RSS of it alone."""
    with open(stderr_path or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def score_child(workload, child, csv_path):
    """Rows attempted, rows failed, problems and digest of one CLI child.

    A child that exits nonzero or writes no CSV fails every row.
    """
    attempted = len(workload.row_keys())
    if child.code != 0:
        return attempted, attempted, [f"CLI exited {child.code}"], None
    try:
        data = Path(csv_path).read_bytes()
    except OSError:
        return attempted, attempted, ["CLI wrote no CSV"], None
    problems, failed = check_csv(workload, data)
    return attempted, failed, problems, digest(data)


def check_program():
    """Exit 2 unless the checkout's own sortkern imports in a child."""
    if not (ROOT / "src" / "sortkern" / "cli.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'sortkern'}", file=sys.stderr)
        sys.exit(2)
    probe = subprocess.run([sys.executable, "-c", "import sortkern.cli as c; print(c.__file__)"],
                           cwd=ROOT, env=child_env(), capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0 or Path(probe.stdout.strip()).parent != ROOT / "src" / "sortkern":
        print(f"perfbench: sortkern.cli does not import from {ROOT / 'src'}:\n"
              f"{probe.stderr.strip()}", file=sys.stderr)
        sys.exit(2)


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_vars": {v: child_env()[v] for v in THREAD_VARS}}


# ------------------------------------------------------------------ tracing

def _top_time(spans, dur, pred):
    # time of matching spans, each counted once: a span nested inside another
    # matching span is already part of that one
    total = 0.0
    for i, s in enumerate(spans):
        if pred(s):
            p = s[1]
            while p is not None and not pred(spans[p]):
                p = spans[p][1]
            if p is None:
                total += dur[i]
    return total


def layer_metrics(trace, untraced_wall, traced_wall):
    """Per-layer metrics from one traced child's spans (see tracer.py)."""
    spans = trace["spans"]
    dur = [s[3] - s[2] for s in spans]
    inside = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] is not None:
            inside[s[1]] += dur[i]
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)

    def named(name):
        return lambda s: s[0] == name

    for i, (name, parent, _, _, counts) in enumerate(spans):
        if name == "experiments.run":
            m["experiments.wall_s"] += dur[i]
            m["experiments.self_s"] += dur[i] - inside[i]
            continue
        m[f"{name.split('.')[0]}.self_s"] += dur[i] - inside[i]
        if name == "geometry.fill_distance_estimate":
            cell = f"geometry.fill.{counts['domain']}.d{counts['d']}.n{counts['n']}_s"
            if cell in m:
                m[cell] += dur[i]
            m["geometry.fill.pairs"] += counts["pairs"]
        elif name == "geometry.sort_points":
            m["geometry.sort_points.rows"] += counts["rows"]
        elif name == "rng.draw":
            m["rng.values_drawn"] += counts["values"]
        elif name == "kernels.kernel_cross":
            m[f"kernels.kernel_cross.{counts['mode']}.pairs"] += counts["pairs"]
        elif name == "kernels.gram" and parent is not None \
                and spans[parent][0] == "spectral.nystrom_spectrum":
            m["spectral.gram_s"] += dur[i]
        elif name == "interpolation.fit":
            m["interpolation.fit.calls"] += 1
            m["interpolation.fit.failures"] += counts["failed"]
            m["interpolation.fit.jitter_nonzero"] += bool(counts["jitter"])
        elif name in ("interpolation.evaluate", "interpolation.target_value"):
            m[f"{name}.points"] += counts.get("points", 0)

    for metric, span_name in (("geometry.fill_s", "geometry.fill_distance_estimate"),
                              ("geometry.sort_points_s", "geometry.sort_points"),
                              ("rng.draw_s", "rng.draw"), ("kernels.gram_s", "kernels.gram"),
                              ("interpolation.fit_s", "interpolation.fit"),
                              ("interpolation.evaluate_s", "interpolation.evaluate"),
                              ("interpolation.target_value_s", "interpolation.target_value"),
                              ("spectral.nystrom_spectrum_s", "spectral.nystrom_spectrum"),
                              ("spectral.eigh_s", "spectral.eigh")):
        m[metric] = _top_time(spans, dur, named(span_name))
    for mode in INTERP_MODES:
        t = _top_time(spans, dur, lambda s, mode=mode: s[0] == "kernels.kernel_cross"
                      and s[4]["mode"] == mode)
        m[f"kernels.kernel_cross.{mode}_s"] = t
        pairs = m[f"kernels.kernel_cross.{mode}.pairs"]
        m[f"kernels.kernel_cross.{mode}.pairs_per_s"] = pairs / t if t > 0 else 0.0
    m["bounds_s"] = _top_time(spans, dur, lambda s: s[0].startswith("bounds."))
    fill_s = m["geometry.fill_s"]
    m["geometry.fill.pairs_per_s"] = m["geometry.fill.pairs"] / fill_s if fill_s > 0 else 0.0
    calls = m["interpolation.fit.calls"]
    clean = calls - m["interpolation.fit.failures"] - m["interpolation.fit.jitter_nonzero"]
    m["interpolation.fit.first_try_ratio"] = clean / calls if calls else 0.0
    runner = m["experiments.wall_s"]
    if runner > 0:
        m["trace.coverage_frac"] = 1.0 - m["experiments.self_s"] / runner
    if trace["wall_s"] > 0:
        m["experiments.cpu_util"] = trace["cpu_s"] / trace["wall_s"]
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


# --------------------------------------------------------------------- runs

def cli_cmd(workload, seed, csv_path):
    return [sys.executable, "-m", "sortkern.cli", *workload.cli_args(seed, csv_path)]


def traced_cmd(workload, seed, csv_path, spans_path):
    return [sys.executable, str(HERE / "tracer.py"), str(spans_path),
            *workload.cli_args(seed, csv_path)]


class Tally:
    """Rows attempted and failed, problems, and digests over a run's children."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = []

    def add(self, child, csv_path):
        attempted, failed, problems, dig = score_child(self.workload, child, csv_path)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        self.digests.append(dig)
        return dig

    def result(self, seed, golden):
        dig = self.digests[0]
        exact = csv_exact(self.workload, seed, dig, golden) if dig else None
        if len(set(self.digests)) > 1:
            self.problems.append("children of one run wrote different CSVs")
        if exact == 0:
            self.problems.append("CSV differs from the golden digest")
        details = {"digest": dig, "csv_exact": exact,
                   "failed_frac": self.failed / self.attempted, "problems": self.problems}
        correct = not self.problems and self.failed == 0
        return correct, details


def run_untraced(workload, seed, seconds, work):
    # check_program's import already filled the bytecode and file caches
    setup = [run_child([sys.executable, "-c", "import sortkern.cli"])
             for _ in range(SETUP_REPEATS)]
    if any(c.code for c in setup):
        print("perfbench: importing sortkern.cli failed", file=sys.stderr)
        sys.exit(2)
    tally, children = Tally(workload), []
    t0 = time.perf_counter()
    while True:
        csv_path = work / f"out{len(children)}.csv"
        child = run_child(cli_cmd(workload, seed, csv_path), work / "stderr.txt")
        tally.add(child, csv_path)
        children.append(child)
        median_wall = statistics.median(c.wall_s for c in children)
        if len(children) >= MIN_CHILDREN and time.perf_counter() - t0 + median_wall > seconds:
            break
    wall = statistics.median(c.wall_s for c in children)
    setup_s = statistics.median(c.wall_s for c in setup)
    metrics = {
        "wall_s": wall,
        "trials_per_s": statistics.median(
            (0 if c.code else workload.units()) / c.wall_s for c in children),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
    }
    samples = {"children": [vars(c) for c in children],
               "setup_s": [c.wall_s for c in setup]}
    if workload.name == "table1":
        # interpreter start-up is paid once per run, not once per trial
        samples["table1.projected_default_s"] = (
            setup_s + (wall - setup_s) * DEFAULT_TRIALS / workload.trials)
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}, samples


def run_traced(workload, seed, seconds, work):
    tally, pairs = Tally(workload), []
    t0 = time.perf_counter()
    while True:
        k = len(pairs)
        plain_csv, traced_csv, spans_path = (work / f"plain{k}.csv", work / f"traced{k}.csv",
                                             work / f"spans{k}.json")
        plain = run_child(cli_cmd(workload, seed, plain_csv), work / "stderr.txt")
        traced = run_child(traced_cmd(workload, seed, traced_csv, spans_path),
                           work / "stderr.txt")
        dig = tally.add(plain, plain_csv)
        if tally.add(traced, traced_csv) != dig:
            tally.problems.append("traced CSV differs from the untraced one")
        if traced.code == 0:
            trace = json.loads(spans_path.read_text())
            pairs.append(layer_metrics(trace, plain.wall_s, traced.wall_s))
        else:
            pairs.append(dict.fromkeys((name for name, _ in PER_LAYER), 0.0))
        if time.perf_counter() - t0 + (plain.wall_s + traced.wall_s) > seconds:
            break
    metrics = {name: (statistics.median(p[name] for p in pairs), unit)
               for name, unit in PER_LAYER}
    return tally, metrics, {"pairs": len(pairs)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    check_program()
    golden = load_golden()
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        run = run_traced if args.trace else run_untraced
        tally, metrics, samples = run(workload, args.seed, args.seconds, Path(tmp))
    correct, details = tally.result(args.seed, golden)
    details.update(workload=workload.name, seed=args.seed, trace=args.trace,
                   cli_args=workload.cli_args(args.seed, "OUT.csv"), samples=samples,
                   machine=machine_facts())
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
