"""List every fill distance that differs, as uint64, between two checkouts.

    python3 tools/fill_bits.py PARENT CHANGE --seed 20240601 --trials 200 \\
        --d 6,9,12 --n 50,500,5000 [--experiment table1]

PARENT and CHANGE are the roots of two checkouts of this repository. Each
one's sortkern runs in a child process of its own, with BLAS at one thread:
experiments._fill_unit over every (d, n, trial) unit of the experiment's
streams, which gives the unit's plain and sorted fill distances as the
experiment's runner computes them. The two children run at the same time.

On stdout each differing value gets one line: d, n, trial, plain or sorted,
and both sides' values as uint64; then a count. The exit status is 0 when
every value agrees, 1 when some differ and 2 when a child fails.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the experiments whose runners measure fill distances per (d, n, trial) unit
EXPERIMENTS = ("table1", "tail_curves", "interp_compare")

CHILD = """
import sys

import numpy as np

from sortkern import experiments
from sortkern.experiments import Experiment, ExperimentConfig
from sortkern.kernels import KernelSpec

seed, trials, name, dims, ns = sys.argv[1:]
exp = Experiment(name)
dims, ns = [int(d) for d in dims.split(",")], [int(n) for n in ns.split(",")]
# the fill units do not read the kernel
cfg = ExperimentConfig(experiment=exp, kernel=KernelSpec(1.0, 1.0), dims=tuple(dims),
                       ns=tuple(ns), trials=int(trials), seed=int(seed))
for d in dims:
    for n in ns:
        for t in range(cfg.trials):
            h = experiments._fill_unit(cfg, experiments._EXPERIMENT_IDS[exp], (d, n, t))
            print(d, n, t, *(int(np.float64(x).view(np.uint64)) for x in h), flush=True)
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def start(root, args, out):
    """The child that writes one checkout's fill values to the file out."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
               **{v: "1" for v in THREAD_VARS})
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(args.seed), str(args.trials), args.experiment,
         args.d, args.n],
        env=env, stdout=out, stderr=subprocess.STDOUT, text=True)


def values(child, root, out):
    """{(d, n, trial): (plain, sorted) as uint64} from the child once it ends; RuntimeError if it failed."""
    child.wait()
    out.seek(0)
    text = out.read()
    if child.returncode != 0:
        raise RuntimeError(f"{root}: child exited {child.returncode}\n{text}")
    got = {}
    for line in text.splitlines():
        d, n, t, plain, srt = map(int, line.split())
        got[d, n, t] = (plain, srt)
    return got


def differences(parent, change):
    """(d, n, trial, which, parent value, change value) for every unit value that differs."""
    out = []
    for key in sorted(parent.keys() | change.keys()):
        p, c = parent.get(key, (None, None)), change.get(key, (None, None))
        for which, a, b in zip(("plain", "sorted"), p, c):
            if a != b:
                out.append((*key, which, a, b))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="root of the first checkout")
    p.add_argument("change", help="root of the second checkout")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--d", required=True, help="comma-separated dimensions")
    p.add_argument("--n", required=True, help="comma-separated design sizes")
    p.add_argument("--experiment", choices=EXPERIMENTS, default="table1",
                   help="whose streams draw the units (default table1)")
    args = p.parse_args(argv)
    # each child writes to a file, so neither waits on a full pipe
    with tempfile.TemporaryFile("w+") as a, tempfile.TemporaryFile("w+") as b:
        children = [(root, start(root, args, out), out)
                    for root, out in ((args.parent, a), (args.change, b))]
        results = []
        for root, child, out in children:
            try:
                results.append(values(child, root, out))
            except RuntimeError as exc:
                print(f"fill_bits: {exc}", file=sys.stderr)
    if len(results) < 2:
        return 2
    parent, change = results
    diff = differences(parent, change)
    for row in diff:
        print(*row)
    print(f"{len(diff)} of {2 * len(parent.keys() | change.keys())} values differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
