"""Minimal-norm kernel interpolation and invariant ground-truth targets.

The fitted interpolant is f(x) = sum_i coeffs[i] * K_mode(x, x_i) with
coefficients solving the Gram system K_mode(X, X) pi = y, the unique
minimal-RKHS-norm interpolant of the data. Ground-truth targets are
finite atom combinations in the permutation-invariant RKHS, so their
norm is exactly computable and every theoretical bound can be evaluated
against a known quantity.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import shifted_solve
from .errors import ConfigError, DimensionMismatchError, FactorizationError, _int_at_least
from .geometry import _sorted_copy, as_design, as_point
from .kernels import KernelMode, KernelSpec, _cross, _gram
from .rng import stream

# diagonal jitter escalation, relative to mean diagonal magnitude
_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Interpolant:
    """Fitted minimal-norm interpolant (immutable).

    fit stores read-only arrays: a copy of the design and the coefficients.
    """

    kernel: KernelSpec
    mode: KernelMode
    design: np.ndarray
    coeffs: np.ndarray
    jitter_used: float


@dataclass(frozen=True)
class InvariantTarget:
    """Permutation-invariant target with exactly known RKHS norm.

    The target value at x is sum_j weights[j] * K_perm(x, atoms[j]) where
    K_perm is the permutation-averaged kernel, so the squared RKHS norm is
    the quadratic form weights' K_perm(Z, Z) weights. make_invariant_target
    stores read-only atoms and weights.
    """

    atoms: np.ndarray
    weights: np.ndarray
    kernel: KernelSpec
    norm_sq: float

    def value(self, x):
        """Target values at a point (scalar) or at rows of an array."""
        return _expansion(self.kernel, KernelMode.PERM_SINGLE, self.atoms, self.weights, x)


def _expansion(kernel, mode, centres, coeffs, x):
    # sum_j coeffs[j] * K_mode(x, centres[j]) at a point (a scalar) or at the
    # rows of an array, checked here once; the evaluator contracts each row
    # tile with coeffs, so no kernel matrix is held
    m = centres.shape[0]
    if np.shape(coeffs) != (m,):
        raise DimensionMismatchError(
            f"{np.shape(coeffs)} coefficients for {m} centres, need ({m},)")
    single = np.ndim(x) == 1
    X = as_point(x, centres.shape[1])[None, :] if single else as_design(x, d=centres.shape[1])
    out = _cross(kernel, mode, X, centres, coeffs=coeffs)
    return float(out[0]) if single else out


def fit(k, mode, X, y):
    """Solve the Gram system for the minimal-norm interpolant.

    The Gram matrix is factorized by Cholesky; if that fails, a diagonal
    jitter delta * trace(G)/n is added with delta escalating from 1e-12
    to 1e-6 in decade steps. The accepted solution must reproduce the
    data through the unjittered matrix to within 1e-8 * (1 + max|y|);
    jitter_used records the diagonal shift actually applied.
    """
    X = as_design(X).copy()
    X.flags.writeable = False
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(
            f"y must have one value per design point, got {y.shape} for n={X.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise ConfigError("y values must be finite")
    G = _gram(k, mode, X)
    n = X.shape[0]
    scale = np.trace(G) / n
    tol = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(y))))
    # shifted_solve gives G back unshifted, so fit holds one Gram-sized
    # array. A failed rung leaves only its message: its exception's traceback
    # would pin this frame and G until the cyclic collector runs, and numpy
    # allocations never trigger it.
    last_err = None
    for delta in _JITTER_LADDER:
        shift = delta * scale
        try:
            coeffs = shifted_solve(G, y, shift)
        except np.linalg.LinAlgError as e:
            last_err = str(e)
            continue
        resid = float(np.max(np.abs(G @ coeffs - y)))
        if resid <= tol:
            coeffs.flags.writeable = False
            return Interpolant(kernel=k, mode=mode, design=X, coeffs=coeffs,
                               jitter_used=shift)
        last_err = f"residual {resid:.3e} above tolerance {tol:.3e} at jitter {shift:.3e}"
    diag = G.diagonal()
    raise FactorizationError(
        "Gram factorization failed at maximum jitter "
        f"(n={n}, diag range [{diag.min():.3e}, {diag.max():.3e}]): {last_err}")


def evaluate(f, x):
    """Interpolant value at a point (scalar) or at rows of an array.

    Points must have finite coordinates in [0, 1]; others raise ConfigError.
    """
    return _expansion(f.kernel, f.mode, f.design, f.coeffs, x)


def _sorted_and_averaged(fs, fa, x):
    """(evaluate(fs, x), evaluate(fa, x)) from one pass of the evaluator.

    fs and fa are the sorted and the averaged interpolant fitted on one
    design with one kernel. Both modes evaluate on the canonicalized
    arguments, where the sorted kernel is the averaged kernel's first term,
    so the evaluator contracts each tile with fs's coefficients right after
    that term (kernels._evaluate). x is an (N, d) array, checked here once.
    """
    X = as_design(x, d=fa.design.shape[1])
    averaged, first = _cross(fa.kernel, fa.mode, X, fa.design, coeffs=fa.coeffs, first=fs.coeffs)
    return first, averaged


def interpolant_norm_sq(f):
    """Squared RKHS norm of the interpolant, coeffs' G coeffs."""
    G = _gram(f.kernel, f.mode, as_design(f.design))
    return float(f.coeffs @ G @ f.coeffs)


def make_invariant_target(k, d, m, seed):
    """Random invariant target: m kernel atoms at sorted-uniform centers.

    Centers are uniform cube draws mapped to the simplex by sorting;
    weights are uniform in [-1, 1]. The permutation averaging uses the
    single-sum form, valid for the isotropic Gaussian.
    """
    _int_at_least("d", d, 1)
    _int_at_least("m", m, 1)
    g = stream(seed)
    atoms = _sorted_copy(g.random((m, d)))
    weights = g.uniform(-1.0, 1.0, m)
    Gz = _gram(k, KernelMode.PERM_SINGLE, atoms)
    norm_sq = max(float(weights @ Gz @ weights), 0.0)
    atoms.flags.writeable = False
    weights.flags.writeable = False
    return InvariantTarget(atoms=atoms, weights=weights, kernel=k, norm_sq=norm_sq)


def rmse_stderr(diff):
    """Root mean square of pointwise differences and its standard error.

    The standard error is the delta-method one for the square root of the
    sample mean of diff**2; it is 0 for one sample or an exact fit. diff
    is a 1-D array-like with at least one value; anything else raises
    DimensionMismatchError.
    """
    diff = np.asarray(diff, dtype=float)
    if diff.ndim != 1 or diff.shape[0] < 1:
        raise DimensionMismatchError(f"differences must have shape (n,) with n >= 1, got shape {diff.shape}")
    sq = diff * diff
    mean = float(sq.mean())
    rmse = mean ** 0.5
    n = sq.shape[0]
    if n > 1 and rmse > 0.0:
        se_mean = float(sq.std(ddof=1)) / n ** 0.5
        stderr = se_mean / (2.0 * rmse)
    else:
        stderr = 0.0
    return rmse, stderr


def mc_points(d, mc_samples, seed):
    """The seeded uniform cube sample that l2_error averages over."""
    _int_at_least("d", d, 1)
    _int_at_least("mc_samples", mc_samples, 1)
    return stream(seed).random((mc_samples, d))


def l2_error(target, f, mc_samples, seed):
    """Monte Carlo L2(Unif) distance between target and interpolant.

    Returns (rmse, stderr): the square root of the mean squared pointwise
    difference over mc_samples seeded uniform cube points, and the
    delta-method standard error of that square root.
    """
    X = mc_points(f.design.shape[1], mc_samples, seed)
    return rmse_stderr(target.value(X) - evaluate(f, X))
