"""Nystrom eigenvalue estimation and decay-slope extraction.

The kernel integral operator's spectrum is estimated by the eigenvalues
of (1/m) times the Gram matrix of m seeded uniform samples. The trace of
that matrix is the mean diagonal kernel value, so the estimate inherits
the operator's trace identity exactly, which the estimator checks.
"""

from dataclasses import dataclass

import numpy as np

# nystrom_spectrum looks eigh up in this module at call time, so a wrapper
# assigned to spectral.eigh, as perfbench/tracer.py assigns one, sees every call
from ._linalg import eigh
from .errors import ConfigError, NumericalError, _int_at_least
from .kernels import _gram
from .rng import stream


@dataclass(frozen=True)
class SpectrumEstimate:
    """Descending Nystrom eigenvalue estimates from m samples."""

    m: int
    eigenvalues: np.ndarray


def nystrom_spectrum(k, mode, m, d, seed):
    """Eigenvalues of (1/m) * Gram on m seeded uniform cube samples.

    Eigenvalues are returned in descending order. Small negative values
    down to -1e-10 times the leading eigenvalue are numerical noise and
    are clamped to zero; anything more negative is reported as an error,
    as is a trace mismatch beyond 1e-8 relative.
    """
    _int_at_least("m", m, 2)
    _int_at_least("d", d, 1)
    X = stream(seed).random((m, d))
    G = _gram(k, mode, X)
    trace = float(np.trace(G)) / m
    try:
        vals = eigh(G)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"symmetric eigensolver failed for m={m}, d={d}: {e}") from e
    vals = vals[::-1] / m
    lead = vals[0]
    if lead <= 0.0:
        raise NumericalError(f"leading eigenvalue {lead} is not positive")
    if vals[-1] < -1e-10 * lead:
        raise NumericalError(
            f"eigenvalue {vals[-1]:.3e} below the numerical-noise floor "
            f"{-1e-10 * lead:.3e}; Gram assembly is suspect")
    vals = np.maximum(vals, 0.0)
    total = float(vals.sum())
    if abs(total - trace) > 1e-8 * abs(trace):
        raise NumericalError(
            f"trace identity violated: sum of eigenvalues {total!r} vs "
            f"mean diagonal {trace!r}")
    return SpectrumEstimate(m=m, eigenvalues=vals)


def decay_slope(s, j_min, j_max):
    """Least-squares slope of log eigenvalue versus log index.

    Fit over j in [j_min, j_max] (1-based, inclusive); every eigenvalue
    in the range must be strictly positive.
    """
    if not (2 <= j_min < j_max <= s.m):
        raise ConfigError(
            f"need 2 <= j_min < j_max <= m, got [{j_min}, {j_max}] with m={s.m}")
    lam = s.eigenvalues[j_min - 1:j_max]
    if np.any(lam <= 0.0):
        raise NumericalError(
            f"nonpositive eigenvalue inside [{j_min}, {j_max}]; "
            "shrink the range or increase m")
    lj = np.log(np.arange(j_min, j_max + 1, dtype=float))
    ll = np.log(lam)
    lj = lj - lj.mean()
    return float(lj @ (ll - ll.mean()) / (lj @ lj))
