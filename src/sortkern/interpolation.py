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

from ._linalg import load
from .errors import ConfigError, DimensionMismatchError, FactorizationError, _int_at_least
from .geometry import _sorted_copy, as_design, as_point
from .kernels import KernelMode, KernelSpec, _cross, _gram
from .rng import stream

# diagonal jitter escalation, relative to mean diagonal magnitude
_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_RESIDUAL_TOL = 1e-8
_EVAL_CHUNK = 4096


@dataclass(frozen=True)
class Interpolant:
    """Fitted minimal-norm interpolant (immutable)."""

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
    the quadratic form weights' K_perm(Z, Z) weights.
    """

    atoms: np.ndarray
    weights: np.ndarray
    kernel: KernelSpec
    norm_sq: float

    def value(self, x):
        """Target values at a point (scalar) or at rows of an array."""
        X, single = _as_points(x, self.atoms.shape[1])
        out = _cross(self.kernel, KernelMode.PERM_SINGLE, X, self.atoms) @ self.weights
        return float(out[0]) if single else out


def _as_points(x, d):
    # a point or an (n, d) array, validated once per public call, as rows
    # and whether a scalar result is wanted
    single = np.ndim(x) == 1
    return (as_point(x, d)[None, :] if single else as_design(x, d=d)), single


def fit(k, mode, X, y):
    """Solve the Gram system for the minimal-norm interpolant.

    The Gram matrix is factorized by Cholesky; if that fails, a diagonal
    jitter delta * trace(G)/n is added with delta escalating from 1e-12
    to 1e-6 in decade steps. The accepted solution must reproduce the
    data through the unjittered matrix to within 1e-8 * (1 + max|y|);
    jitter_used records the diagonal shift actually applied.
    """
    X = as_design(X)
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
    linalg = load()
    # Each rung factorizes A, a copy of G with the shift added to its
    # diagonal, in place. A is exactly symmetric, so its transpose is the
    # Fortran-ordered matrix LAPACK works on, and no other Gram-sized array
    # is made. Every Gram entry is >= +0.0, so A equals G + shift * I bit
    # for bit. A failed rung leaves only its message: its exception's
    # traceback would pin this frame, G and A until the cyclic collector
    # runs, and numpy allocations never trigger it.
    A = np.empty_like(G)
    last_err = None
    for delta in _JITTER_LADDER:
        shift = delta * scale
        np.copyto(A, G)
        if shift:
            A.flat[::n + 1] += shift
        try:
            cf = linalg.cho_factor(A.T, lower=True, overwrite_a=True)
        except np.linalg.LinAlgError as e:
            last_err = str(e)
            continue
        coeffs = linalg.cho_solve(cf, y)
        resid = float(np.max(np.abs(G @ coeffs - y)))
        if resid <= tol:
            return Interpolant(kernel=k, mode=mode, design=X, coeffs=coeffs,
                               jitter_used=shift)
        last_err = f"residual {resid:.3e} above tolerance {tol:.3e} at jitter {shift:.3e}"
    diag = np.diag(G)
    raise FactorizationError(
        "Gram factorization failed at maximum jitter "
        f"(n={n}, diag range [{diag.min():.3e}, {diag.max():.3e}]): {last_err}")


def evaluate(f, x):
    """Interpolant value at a point (scalar) or at rows of an array.

    Points must have finite coordinates in [0, 1]; others raise ConfigError.
    """
    X, single = _as_points(x, f.design.shape[1])
    out = np.empty(X.shape[0])
    for s in range(0, X.shape[0], _EVAL_CHUNK):
        out[s:s + _EVAL_CHUNK] = (
            _cross(f.kernel, f.mode, X[s:s + _EVAL_CHUNK], f.design) @ f.coeffs)
    return float(out[0]) if single else out


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
    return InvariantTarget(atoms=atoms, weights=weights, kernel=k, norm_sq=norm_sq)


def rmse_stderr(diff):
    """Root mean square of pointwise differences and its standard error.

    The standard error is the delta-method one for the square root of the
    sample mean of diff**2; it is 0 for one sample or an exact fit.
    """
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
