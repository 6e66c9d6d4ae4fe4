"""Seeded Monte Carlo experiment runners with CSV output.

Each runner consumes an ExperimentConfig, derives one independent
counter-based random stream per (experiment, d, n, trial) key from the
master seed, writes a CSV file with a header row and floats at 17
significant digits, and returns the rows as dictionaries (the returned
dictionaries may carry extra diagnostic fields beyond the CSV columns).
Identical configs produce byte-identical files, except the wall-clock
fit_ms column of the interpolation comparison. The fill-distance trials
of table1 and tail_curves run on every CPU the process may use, and so do
the fill distances and kernel work inside each interp_compare trial; no
file depends on how many CPUs there are.
"""

import csv
import functools
import math
import os
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import BoundInputs, eigen_bound_covering, eigen_bound_weyl, h_tail_bound, l2_bound, p_constant, tilde_constant
from . import _linalg
from ._pool import _fan_out
from .errors import ConfigError, FactorizationError, _above, _int_at_least
from .geometry import Domain, _fill_distances, cone_parameters, cube_corners
from .interpolation import evaluate, fit, make_invariant_target, mc_points, rmse_stderr
from .kernels import KernelMode, KernelSpec, check_mode_cap, sup_kernel_constant
from .rng import stream, substream_seed
from .spectral import decay_slope, nystrom_spectrum

# number of kernel atoms in the invariant ground-truth targets
INTERP_ATOMS = 3
# points used for the pointwise max-error column
POINTWISE_POINTS = 1000
# eigenvalues below this multiple of eps times the top one are roundoff
_NOISE_FLOOR_FACTOR = 1e3


class Experiment(Enum):
    TABLE1 = "table1"
    TAIL_CURVES = "tail_curves"
    INTERP_COMPARE = "interp_compare"
    EIGEN_DECAY = "eigen_decay"
    BOUNDS_REPORT = "bounds_report"


# stream-key prefix per experiment, fixed forever for reproducibility
_EXPERIMENT_IDS = {
    Experiment.TABLE1: 1,
    Experiment.TAIL_CURVES: 2,
    Experiment.INTERP_COMPARE: 3,
    Experiment.EIGEN_DECAY: 4,
    Experiment.BOUNDS_REPORT: 5,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully seeded description of one experiment run."""

    experiment: Experiment
    kernel: KernelSpec
    dims: tuple = (3, 6, 9, 12)
    ns: tuple = (50, 500, 5000)
    trials: int = 200
    eps_grid: tuple = ()
    nu: int = 2
    alpha: float = 1.05
    mc_samples: int = 20000
    candidate_count: int = 200000
    seed: int = 20240601
    out_path: str = "out.csv"

    def __post_init__(self):
        if not isinstance(self.experiment, Experiment):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.dims or not self.ns:
            raise ConfigError("dims and ns must be nonempty")
        for d in self.dims:
            _int_at_least("dims entry", d, 1)
        for n in self.ns:
            _int_at_least("ns entry", n, 1)
        _int_at_least("trials", self.trials, 1)
        for eps in self.eps_grid:
            _above("eps_grid entry", eps, 0.0)
        _int_at_least("nu", self.nu, 1)
        _above("alpha", self.alpha, 1.0)
        _int_at_least("mc_samples", self.mc_samples, 1)
        _int_at_least("candidate_count", self.candidate_count, 1)


def _fmt(x):
    if isinstance(x, float) or isinstance(x, np.floating):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path, header, rows):
    # written beside the target and moved into place, so a run that fails
    # while writing leaves neither a partial CSV nor the temporary file
    head, tail = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(row[col]) for col in header])
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _trial_draws(cfg, exp_id, d, n, trial):
    # one stream per (experiment, d, n, trial): design first, candidates
    # second, cube corners appended so coarse designs are probed at the
    # extremes the uniform cloud misses. The candidates are drawn straight
    # into the array that holds the corners, so no stacked copy is made.
    g = stream(cfg.seed, exp_id, d, n, trial)
    X = g.random((n, d))
    corners = cube_corners(d)
    C = np.empty((cfg.candidate_count + corners.shape[0], d))
    g.random(out=C[:cfg.candidate_count])
    C[cfg.candidate_count:] = corners
    return X, C


def _fill_unit(cfg, exp_id, key):
    """Plain and sorted fill distances of one (d, n, trial) unit."""
    return _fill_distances(*_trial_draws(cfg, exp_id, *key))


def _fill_trials(cfg, exp_id):
    """Plain and sorted fill distances of every trial, two arrays per (d, n) cell.

    The (d, n, trial) units run through _fan_out cell by cell, from the
    largest (d, n) down: the candidate arrays then shrink as the run goes,
    so each fits in memory an earlier one freed, and the longest units do
    not finish last. Each array holds its cell's trials in trial order.
    """
    cells = sorted({(d, n) for d in cfg.dims for n in cfg.ns}, reverse=True)
    keys = [(d, n, t) for d, n in cells for t in range(cfg.trials)]
    out = dict(zip(keys, _fan_out(functools.partial(_fill_unit, cfg, exp_id), keys)))
    return {(d, n): (np.array([out[d, n, t][0] for t in range(cfg.trials)]),
                     np.array([out[d, n, t][1] for t in range(cfg.trials)]))
            for d, n in cells}


def run_table1(cfg):
    """Mean fill distances (plain and sorted) per (d, n) over seeded trials."""
    cells = _fill_trials(cfg, _EXPERIMENT_IDS[Experiment.TABLE1])
    rows = []
    for d in cfg.dims:
        for n in cfg.ns:
            hs, hss = cells[d, n]
            se = hs.std(ddof=1) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
            ses = hss.std(ddof=1) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
            rows.append({
                "d": d, "n": n, "trials": cfg.trials,
                "mean_h": float(hs.mean()), "mean_h_sorted": float(hss.mean()),
                "se_h": float(se), "se_h_sorted": float(ses),
            })
    _write_csv(cfg.out_path,
               ["d", "n", "trials", "mean_h", "mean_h_sorted", "se_h", "se_h_sorted"],
               rows)
    return rows


def run_tail_curves(cfg):
    """Empirical exceedance P[h > eps] against the closed-form tail bounds."""
    if not cfg.eps_grid:
        raise ConfigError("tail curves need a nonempty eps grid")
    cells = _fill_trials(cfg, _EXPERIMENT_IDS[Experiment.TAIL_CURVES])
    rows = []
    for d in cfg.dims:
        for n in cfg.ns:
            h, hsrt = cells[d, n]
            for eps in cfg.eps_grid:
                rows.append({
                    "d": d, "n": n, "eps": float(eps),
                    "emp_p_plain": float(np.mean(h > eps)),
                    "emp_p_sorted": float(np.mean(hsrt > eps)),
                    "bound_plain": h_tail_bound(eps, n, d, 1.0, Domain.CUBE),
                    "bound_sorted": h_tail_bound(eps, n, d, 1.0, Domain.SORTED_SIMPLEX),
                })
    _write_csv(cfg.out_path,
               ["d", "n", "eps", "emp_p_plain", "emp_p_sorted",
                "bound_plain", "bound_sorted"],
               rows)
    return rows


# interpolation rows run these modes on identical data, each against the bound
# mode beside it; PermSingle's hypothesis space embeds in the Plain one
_INTERP_MODES = (
    (KernelMode.PLAIN, KernelMode.PLAIN),
    (KernelMode.SORTED, KernelMode.SORTED),
    (KernelMode.PERM_SINGLE, KernelMode.PLAIN),
)


def run_interp_compare(cfg):
    """Fit/measure/bound comparison of Plain, Sorted, PermSingle modes.

    Fit failures leave nan in the measured columns and the run continues.
    Returned rows additionally carry fill_distance and bound_valid fields
    that the CSV omits.
    """
    exp_id = _EXPERIMENT_IDS[Experiment.INTERP_COMPARE]
    # the targets and the PermSingle rows are averaged; fail before any trial
    for d in cfg.dims:
        check_mode_cap(KernelMode.PERM_SINGLE, d)
    # scipy.linalg loads here, so the first fit_ms times no import
    _linalg.load()
    rows = []
    consts = {d: sup_kernel_constant(cfg.kernel, cfg.nu, d) for d in cfg.dims}
    for d in cfg.dims:
        c_k0, c_knu = consts[d]
        for n in cfg.ns:
            for t in range(cfg.trials):
                target = make_invariant_target(
                    cfg.kernel, d, INTERP_ATOMS,
                    seed=substream_seed(cfg.seed, exp_id, d, t, 11))
                X, C = _trial_draws(cfg, exp_id, d, n, t)
                fill = dict(zip((KernelMode.PLAIN, KernelMode.SORTED), _fill_distances(X, C)))
                # the candidates are done with; freeing them lowers the peak
                # that the kernel work below adds to
                del C
                y = target.value(X)
                b = BoundInputs(nu=cfg.nu, d=d, c_k0=c_k0, c_knu=c_knu,
                                norm_h=math.sqrt(target.norm_sq),
                                rho_low=1.0, rho_high=1.0, alpha=cfg.alpha)
                # the error samples do not depend on the mode, so the target
                # is evaluated on them once per trial
                Xmc = mc_points(d, cfg.mc_samples,
                                seed=substream_seed(cfg.seed, exp_id, d, n, t, 13))
                y_mc = target.value(Xmc)
                P = stream(substream_seed(cfg.seed, exp_id, d, n, t, 14)).random(
                    (POINTWISE_POINTS, d))
                y_pw = target.value(P)
                for mode, bound_mode in _INTERP_MODES:
                    h = fill[bound_mode]
                    report = l2_bound(b, h, bound_mode)
                    t0 = time.perf_counter()
                    try:
                        f = fit(cfg.kernel, mode, X, y)
                        fit_ms = (time.perf_counter() - t0) * 1000.0
                        err, _ = rmse_stderr(y_mc - evaluate(f, Xmc))
                        pw = float(np.max(np.abs(y_pw - evaluate(f, P))))
                    except FactorizationError:
                        fit_ms = (time.perf_counter() - t0) * 1000.0
                        err = math.nan
                        pw = math.nan
                    rows.append({
                        "d": d, "n": n, "trial": t, "mode": mode.value,
                        "l2_error": err, "l2_bound_value": report.value,
                        "pointwise_max_error": pw, "fit_ms": fit_ms,
                        "fill_distance": h, "bound_valid": report.validity,
                    })
    _write_csv(cfg.out_path,
               ["d", "n", "trial", "mode", "l2_error", "l2_bound_value",
                "pointwise_max_error", "fit_ms"],
               rows)
    return rows


def resolved_slope_depth(spectra, j_top):
    """Deepest index usable for slope fits across a family of spectra.

    Eigenvalues below ~eps times the top eigenvalue are dense-solver
    roundoff, and a log-log slope fitted through them measures noise.
    Returns the largest j <= j_top with lambda_j >= _NOISE_FLOOR_FACTOR *
    eps * lambda_1 in every spectrum.
    """
    depth = j_top
    eps = float(np.finfo(float).eps)
    for s in spectra:
        lam = s.eigenvalues
        above = np.nonzero(lam >= _NOISE_FLOOR_FACTOR * eps * lam[0])[0]
        if above.size == 0:
            raise ConfigError("spectrum is entirely at the noise floor")
        depth = min(depth, int(above[-1]) + 1)
    if depth < 6:
        raise ConfigError(f"resolved spectrum too short for a slope fit: {depth}")
    return depth


def run_eigen_decay(cfg):
    """Trial-averaged Nystrom spectra against the eigenvalue bounds.

    Uses the first entries of dims and ns as the dimension and sample
    count; `trials` seeds are averaged per mode. Rows run j from 2 to
    m/4; the slope column repeats each mode's log-log slope, fitted
    from j=5 down to the shared resolved depth so the noise floor never
    enters the fit, and trace_err reports the worst trace-identity gap.
    """
    exp_id = _EXPERIMENT_IDS[Experiment.EIGEN_DECAY]
    d = cfg.dims[0]
    m = cfg.ns[0]
    if m < 24:
        raise ConfigError(f"eigen decay needs m >= 24 samples, got {m}")
    c_k0, c_knu = sup_kernel_constant(cfg.kernel, cfg.nu, d)
    b = BoundInputs(nu=cfg.nu, d=d, c_k0=c_k0, c_knu=c_knu,
                    rho_low=1.0, rho_high=1.0, alpha=cfg.alpha)
    j_top = m // 4
    # scipy.linalg loads here, not inside the first eigensolver call
    _linalg.load()
    spectra = {
        mode: [nystrom_spectrum(cfg.kernel, mode, m, d,
                                seed=substream_seed(cfg.seed, exp_id, d, m, t))
               for t in range(cfg.trials)]
        for mode in (KernelMode.PLAIN, KernelMode.SORTED)
    }
    j_slope = resolved_slope_depth(
        [s for group in spectra.values() for s in group], j_top)
    rows = []
    for mode, group in spectra.items():
        lam = np.mean([s.eigenvalues for s in group], axis=0)
        slope = float(np.mean([decay_slope(s, 5, j_slope) for s in group]))
        worst_trace = max(abs(float(s.eigenvalues.sum()) - cfg.kernel.amplitude)
                          for s in group)
        for j in range(2, j_top + 1):
            rows.append({
                "mode": mode.value, "j": j, "lambda_hat": float(lam[j - 1]),
                "bound_covering": eigen_bound_covering(j, b, mode).value,
                "bound_weyl": eigen_bound_weyl(j, b, mode).value,
                "slope": slope, "trace_err": worst_trace,
            })
    _write_csv(cfg.out_path,
               ["mode", "j", "lambda_hat", "bound_covering", "bound_weyl",
                "slope", "trace_err"],
               rows)
    return rows


def run_bounds_report(cfg):
    """All theoretical constants per (d, nu), nu swept from 1 to cfg.nu."""
    rows = []
    for d in cfg.dims:
        cube = cone_parameters(d, Domain.CUBE)
        srt = cone_parameters(d, Domain.SORTED_SIMPLEX)
        for nu in range(1, cfg.nu + 1):
            c_k0, c_knu = sup_kernel_constant(cfg.kernel, nu, d)
            b = BoundInputs(nu=nu, d=d, c_k0=c_k0, c_knu=c_knu,
                            rho_low=1.0, rho_high=1.0, alpha=cfg.alpha)
            rows.append({
                "d": d, "nu": nu, "c_k0": c_k0, "c_knu": c_knu,
                "tilde_constant": tilde_constant(b), "p_constant": p_constant(b),
                "theta_cube": cube.theta, "radius_cube": cube.radius,
                "theta_simplex": srt.theta, "radius_simplex": srt.radius,
            })
    _write_csv(cfg.out_path,
               ["d", "nu", "c_k0", "c_knu", "tilde_constant", "p_constant",
                "theta_cube", "radius_cube", "theta_simplex", "radius_simplex"],
               rows)
    return rows


_RUNNERS = {
    Experiment.TABLE1: run_table1,
    Experiment.TAIL_CURVES: run_tail_curves,
    Experiment.INTERP_COMPARE: run_interp_compare,
    Experiment.EIGEN_DECAY: run_eigen_decay,
    Experiment.BOUNDS_REPORT: run_bounds_report,
}


def run(cfg):
    """Dispatch a config to its experiment runner."""
    return _RUNNERS[cfg.experiment](cfg)
