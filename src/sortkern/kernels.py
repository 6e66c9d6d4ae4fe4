"""The Gaussian kernel, symmetrization modes, Gram assembly, derivative constants.

Three evaluation modes turn the Gaussian into a permutation-aware kernel:
Plain leaves it untouched, Sorted canonicalizes both arguments through the
descending sort, and PermSingle averages over the d! permutations of one
argument. The Gaussian is invariant under a joint permutation of both
arguments, so this one-sided group average is also the two-sided average
over all (d!)^2 permutation pairs.

Every mode goes through one evaluator that walks row tiles of the first
argument with cache-sized buffers and reproduces, bit for bit, the result
of building one full distance matrix per permutation term.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np
from numpy.polynomial import hermite_e

from .errors import CapExceededError, ConfigError, DimensionMismatchError, DuplicateOrbitError
from .geometry import as_design, as_point, distinct_orbits, sort_points

# PERM_SINGLE sums d! terms per pair, so larger dimensions are refused
PERM_SINGLE_DIM_CAP = 6

# working-buffer bytes per row tile of kernel_cross, sized to stay in a
# core's L2 cache
_TILE_BYTES = 1 << 20

_HERMITE_GRID = 20001  # 1-D maximization grid on [-1, 1]
_SAFETY = 1.01
# below this bandwidth the grid's 1e-4 spacing misses derivative peaks
_ENVELOPE_MIN_BANDWIDTH = 1e-3


class KernelMode(Enum):
    PLAIN = "plain"
    SORTED = "sorted"
    PERM_SINGLE = "perm_single"


@dataclass(frozen=True)
class KernelSpec:
    """Base Gaussian kernel: amplitude and length-scale.

    The Gaussian is amplitude * exp(-||w - z||^2 / (2 bandwidth^2)). It is
    smooth of every order; the smoothness degree nu that the bounds use is
    theirs (BoundInputs.nu, sup_kernel_constant). A bandwidth so small that
    -2 bandwidth^2 rounds to zero is rejected.
    """

    amplitude: float
    bandwidth: float

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ConfigError(f"amplitude must be positive, got {self.amplitude}")
        if self.bandwidth <= 0.0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        if -2.0 * self.bandwidth * self.bandwidth == 0.0:
            raise ConfigError(f"bandwidth {self.bandwidth} is too small: its square underflows to zero")


def check_mode_cap(mode, d):
    """Raise if the averaged mode's d! term count is over its cap."""
    if mode is KernelMode.PERM_SINGLE and d > PERM_SINGLE_DIM_CAP:
        raise CapExceededError(
            f"{mode.value} is averaged over d! terms; d={d} exceeds the cap {PERM_SINGLE_DIM_CAP}")


def _terms(mode, d):
    # coordinate permutations summed by the mode, in itertools order
    if mode is KernelMode.PERM_SINGLE:
        return list(permutations(range(d)))
    return [tuple(range(d))]


def _plan(terms):
    # Table slots of the (p, q) coordinate pairs the terms read, and per term
    # the (level, slot) additions that rebuild its distance. Level k is the
    # sum over coordinates 0..k; lexicographic neighbours share their longest
    # common prefix, so only the levels past it are recomputed.
    pairs = sorted({(p, q) for t in terms for q, p in enumerate(t)})
    slot = {pq: i for i, pq in enumerate(pairs)}
    steps = []
    prev = ()
    for t in terms:
        keep = 0
        while keep < len(prev) and prev[keep] == t[keep]:
            keep += 1
        steps.append([(q, slot[t[q], q]) for q in range(keep, len(t))])
        prev = t
    return pairs, steps


def _buffer_count(npairs, d):
    # the table, the levels strictly between the first and the last, and
    # the distance buffer that each term's exp and product overwrite
    return npairs + max(d - 2, 0) + 1


def _tile_rows(npairs, d, m):
    """Rows of W per tile, at least one, for m columns."""
    return max(1, _TILE_BYTES // (8 * _buffer_count(npairs, d) * m))


def _evaluate(k, W, Z, terms):
    """Average over terms pi of amplitude * exp(-||W[pi] - Z||^2 / (2 bw^2)).

    Rows of W are processed in tiles whose buffers fit _TILE_BYTES. Every
    element sees the same operations in the same order as a direct
    evaluation: squared differences summed from coordinate 0 upwards,
    division by -2 bw^2, exp, amplitude product, terms summed in order,
    and one final division by the term count.
    """
    n, d = W.shape
    m = Z.shape[0]
    out = np.empty((n, m))
    if n == 0 or m == 0:
        return out
    pairs, steps = _plan(terms)
    npairs = len(pairs)
    rows = _tile_rows(npairs, d, m)
    buf = np.empty((_buffer_count(npairs, d), rows * m))
    WT = np.ascontiguousarray(W.T)
    ZT = np.ascontiguousarray(Z.T)
    scale = -2.0 * k.bandwidth * k.bandwidth
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        views = [b[:(r1 - r0) * m].reshape(r1 - r0, m) for b in buf]
        table, dist = views[:npairs], views[-1]
        # level[q] is the distance summed over coordinates 0..q: level 0 is a
        # table entry, the last level is dist
        level = [None, *views[npairs:-1], dist]
        for (p, q), T in zip(pairs, table):
            np.subtract(WT[p, r0:r1, None], ZT[q], out=T)
            np.multiply(T, T, out=T)
        acc = out[r0:r1]
        for j, step in enumerate(steps):
            for q, s in step:
                if q == 0:
                    level[0] = table[s]
                else:
                    np.add(level[q - 1], table[s], out=level[q])
            np.divide(level[d - 1], scale, out=dist)
            np.exp(dist, out=dist)
            if j == 0:
                np.multiply(dist, k.amplitude, out=acc)
            else:
                np.multiply(dist, k.amplitude, out=dist)
                np.add(acc, dist, out=acc)
        if len(terms) > 1:
            np.divide(acc, len(terms), out=acc)
    return out


def kernel_cross(k, mode, W, Z):
    """All pairwise kernel values between the rows of W and the rows of Z.

    Both arguments must be (n, d) arrays, possibly without rows, with
    finite entries in [0, 1]; anything else raises ConfigError or
    DimensionMismatchError.
    """
    W = as_design(W, min_rows=0)
    Z = as_design(Z, min_rows=0)
    if W.shape[1] != Z.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {W.shape[1]} vs {Z.shape[1]}")
    return _cross(k, mode, W, Z)


def _cross(k, mode, W, Z):
    # kernel_cross on arguments the caller has validated
    d = W.shape[1]
    check_mode_cap(mode, d)
    # sorted mode is defined on the canonical representatives; the averaged
    # mode is permutation-invariant argument-wise, so inputs are
    # canonicalized first and the sum runs over the identical term multiset
    # for any permutation of w or z, making the invariance exact in floats
    if mode is not KernelMode.PLAIN:
        W, Z = sort_points(W), sort_points(Z)
    return _evaluate(k, W, Z, _terms(mode, d))


def kernel_value(k, mode, w, z):
    """Single kernel evaluation between two 1-D points."""
    return float(kernel_cross(k, mode, as_point(w)[None], as_point(z)[None])[0, 0])


def gram(k, mode, X):
    """Kernel matrix of a design against itself.

    The result is exactly symmetric: each unordered pair's value is stored
    once and mirrored. Sorted mode requires pairwise-distinct orbits and
    reports duplicates before any factorization is attempted.
    """
    X = as_design(X)
    if mode is KernelMode.SORTED and not distinct_orbits(X):
        raise DuplicateOrbitError(
            "design has points in the same permutation orbit; the sorted "
            "kernel matrix would be singular")
    G = kernel_cross(k, mode, X, X)
    il = np.tril_indices(X.shape[0], -1)
    G[il] = G.T[il]
    return G


def _partitions(total, max_parts, _cap=None):
    # integer partitions of `total` into at most `max_parts` positive parts
    if _cap is None:
        _cap = total
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, _cap), 0, -1):
        for rest in _partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def _derivative_envelope(g, sigma):
    # max over t in [-1,1] of |d^g/dt^g exp(-t^2/(2 sigma^2))|
    # = sigma^{-g} |He_g(t/sigma)| exp(-t^2/(2 sigma^2)) via Hermite polynomials
    t = np.linspace(-1.0, 1.0, _HERMITE_GRID)
    coeffs = np.zeros(g + 1)
    coeffs[g] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(hermite_e.hermeval(t / sigma, coeffs)) * np.exp(-t * t / (2.0 * sigma * sigma))
    peak, scale = float(vals.max()), sigma ** g
    # an overflowed polynomial value (inf, or inf * 0 = nan) or an underflowed
    # sigma^g means the envelope is past the float range
    if not math.isfinite(peak) or scale == 0.0:
        return math.inf
    return peak / scale


def sup_kernel_constant(k, nu, d):
    """Sup-norm constants (C_K0, C_Knu) of the kernel and its derivatives.

    C_K0 is the maximum of |K| over the cube squared (the amplitude, for
    the Gaussian). C_Knu is the maximum over all mixed derivatives of
    total order nu of |d^alpha_1 d^beta_2 K| / (alpha! beta!). The
    Gaussian factorizes per coordinate, so the maximum reduces to integer
    partitions of nu with per-order 1-D envelopes; the grid maximum
    carries a 1.01 safety factor. For nu >= 1 a bandwidth below 1e-3, where
    the grid is too coarse, raises ConfigError; a C_Knu past the float
    range is returned as inf.
    """
    if nu < 0:
        raise ConfigError(f"nu must be >= 0, got {nu}")
    if d < 1:
        raise ConfigError(f"dimension must be >= 1, got {d}")
    c0 = k.amplitude
    if nu == 0:
        return c0, c0
    if k.bandwidth < _ENVELOPE_MIN_BANDWIDTH:
        raise ConfigError(
            f"bandwidth {k.bandwidth} is below {_ENVELOPE_MIN_BANDWIDTH}, where the "
            "derivative envelopes are not resolved")
    env = {g: _derivative_envelope(g, k.bandwidth) for g in range(1, nu + 1)}
    best = 0.0
    for part in _partitions(nu, d):
        prod = 1.0
        for g in part:
            # best split a + b = g of 1/(a! b!) puts the orders half and half
            prod *= env[g] / (math.factorial(g // 2) * math.factorial((g + 1) // 2))
        best = max(best, prod)
    return c0, c0 * _SAFETY * best
