"""Command-line harness for the seeded experiment suite.

Usage: sortkern <experiment> [flags]. Every flag has a default, and
`sortkern table1` reproduces the reference fill-distance table as is.
interp_compare alone needs --d: it averages over all d! permutations,
capped at d = 6, and the default dimensions reach 12.
Exit codes: 0 success, 1 configuration, input or file-system error, 2
numerical failure; each failure prints one line on stderr.
"""

import argparse
import ctypes
import dataclasses
import math
import sys

from .errors import ConfigError, FactorizationError, NumericalError, SortkernError
from .experiments import Experiment, ExperimentConfig, run
from .kernels import KernelSpec


# flags that set an ExperimentConfig field take that field's default
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}

# most points an --eps grid may have; the default grid has 30
EPS_GRID_CAP = 10_000

# glibc's mallopt parameter for the block size malloc maps on its own, and
# the value the command pins it to (glibc's own starting value)
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 * 1024


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; config errors exit 1 with one stderr line
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text):
    try:
        vals = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _eps_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric start:stop:step, got {text!r}")
    # every comparison with nan is False, so non-finite bounds are refused too
    if not (0 < start <= stop < math.inf and 0 < step < math.inf):
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    # a kept point rounds to at most stop + 1e-12, so none lies past
    # stop + 1.5e-12; a span that overflows is inf and is refused too
    span = (stop - start + 1.5e-12) / step
    if span >= EPS_GRID_CAP:
        raise argparse.ArgumentTypeError(f"range {text!r} has more than {EPS_GRID_CAP} points")
    # re-rounding keeps grid points like 0.15 free of accumulation noise
    points = (round(start + k * step, 12) for k in range(int(span) + 2))
    grid = tuple(v for v in points if v <= stop + 1e-12)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(f"step of {text!r} is below the 1e-12 grid resolution")
    return grid


def _build_parser():
    p = _Parser(prog="sortkern",
                description="Seeded kernel-canonicalization experiments; writes CSV.",
                formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    names = sorted(e.value for e in Experiment)
    p.add_argument("experiment",
                   help=f"one of: {', '.join(names)} (hyphens accepted)")
    p.add_argument("--d", type=_int_list, default=_DEFAULTS["dims"], metavar="D1,D2,...",
                   help="dimensions")
    p.add_argument("--n", type=_int_list, default=_DEFAULTS["ns"], metavar="N1,N2,...",
                   help="design sizes")
    p.add_argument("--trials", type=int, default=_DEFAULTS["trials"], help="Monte Carlo trials")
    p.add_argument("--eps", type=_eps_range, default="0.05:1.5:0.05",
                   metavar="START:STOP:STEP", help="epsilon grid for tail curves")
    p.add_argument("--amplitude", type=float, default=0.1591549,
                   help="kernel amplitude")
    p.add_argument("--bandwidth", type=float, default=1.0, help="kernel bandwidth")
    p.add_argument("--nu", type=int, default=_DEFAULTS["nu"], help="smoothness order for bounds")
    p.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"],
                   help="slack factor in sorted-mode bounds")
    p.add_argument("--mc-samples", type=int, default=_DEFAULTS["mc_samples"],
                   help="Monte Carlo samples for L2 error estimates")
    p.add_argument("--candidates", type=int, default=_DEFAULTS["candidate_count"],
                   help="candidate points per fill-distance trial")
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="master seed")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output CSV path (default: <experiment>.csv)")
    return p


def _config_from_args(args):
    name = args.experiment.replace("-", "_")
    try:
        experiment = Experiment(name)
    except ValueError:
        raise ConfigError(f"unknown experiment {args.experiment!r}; "
                          f"choose from {sorted(e.value for e in Experiment)}")
    kernel = KernelSpec(amplitude=args.amplitude, bandwidth=args.bandwidth)
    return ExperimentConfig(
        experiment=experiment, kernel=kernel, dims=args.d, ns=args.n,
        trials=args.trials, eps_grid=args.eps, nu=args.nu, alpha=args.alpha,
        mc_samples=args.mc_samples, candidate_count=args.candidates,
        seed=args.seed,
        out_path=f"{experiment.value}.csv" if args.out is None else args.out)


def _map_large_blocks():
    """Pin malloc's mmap threshold, so every large array is mapped on its own.

    glibc raises the threshold to the size of each mapped block freed, up
    to 32 MiB, so later large arrays come from the malloc arenas, and with
    the pool's threads the peak RSS of one table1 run differed from the
    next by about 10 MB. A pinned threshold maps each large array and
    unmaps it when freed, so the peak is the memory in use, at a page fault
    per page of every new one. The setting lasts for the process, so only
    the command makes it. Where the C library has no mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _map_large_blocks()
        run(cfg)
    # numerical failures are SortkernErrors too, so they are caught first
    except (NumericalError, FactorizationError) as exc:
        print(f"sortkern: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SortkernError, OSError) as exc:
        print(f"sortkern: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"sortkern: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
