"""Command-line harness for the seeded experiment suite.

Usage: sortkern <experiment> [flags]. Every flag has a default, so
`sortkern table1` reproduces the reference fill-distance table as is.
Exit codes: 0 success, 1 configuration, input or file-system error, 2
numerical failure; each failure prints one line on stderr.
"""

import argparse
import dataclasses
import math
import os
import sys

from .errors import ConfigError, FactorizationError, NumericalError, SortkernError
from .experiments import Experiment, ExperimentConfig, run
from .kernels import KernelSpec


# flags that set an ExperimentConfig field take that field's default
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; config errors must exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
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
    out = []
    k = 0
    while True:
        # re-rounding keeps grid points like 0.15 free of accumulation noise
        v = round(start + k * step, 12)
        if v > stop + 1e-12:
            break
        out.append(v)
        k += 1
    return tuple(out)


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
        seed=args.seed, out_path=args.out or f"{experiment.value}.csv")


def _check_out_path(path):
    # fail before the experiment runs, not after it has spent its time
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"output directory {folder!r} does not exist")
    if not os.access(folder, os.W_OK):
        raise ConfigError(f"output directory {folder!r} is not writable")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _check_out_path(cfg.out_path)
        run(cfg)
    # numerical failures are SortkernErrors too, so they are caught first
    except (NumericalError, FactorizationError) as exc:
        print(f"sortkern: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SortkernError, OSError) as exc:
        print(f"sortkern: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
