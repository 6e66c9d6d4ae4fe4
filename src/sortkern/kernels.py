"""The Gaussian kernel, symmetrization modes, Gram assembly, derivative constants.

Three evaluation modes turn the Gaussian into a permutation-aware kernel:
Plain leaves it untouched, Sorted canonicalizes both arguments through the
descending sort, and PermSingle averages over the d! permutations of one
argument. The Gaussian is invariant under a joint permutation of both
arguments, so this one-sided group average is also the two-sided average
over all (d!)^2 permutation pairs.

Every mode goes through one evaluator that hands row tiles of the first
argument, with a bounded scratch per thread, to every CPU and reproduces,
bit for bit, the result of building one full distance matrix per
permutation term.
"""

import math
import threading
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np
from numpy.polynomial import hermite_e

from ._pool import _fan_out
from .errors import CapExceededError, ConfigError, DuplicateOrbitError, _above, _int_at_least
from .geometry import _distinct_orbits, _sorted_copy, as_design, as_point

# PERM_SINGLE sums d! terms per pair, so larger dimensions are refused
PERM_SINGLE_DIM_CAP = 6

# least elements per working buffer of a row tile of kernel_cross; a tile
# with few buffers gets longer ones (_buffer_elems). What decides whether a
# second thread pays is the length of each ufunc call, not the tile count:
# on a 2-vCPU Xeon with one BLAS thread, _cross on 4096 x 1280 at d = 2
# took 40 ms on one worker and 38-52 ms on two at 16384 elements per
# buffer, as calls of about 16 us are shorter than the GIL hand-off between
# them, but 42 against 25 ms (plain) and 99 against 55 ms (averaged) at
# 65536. Splitting one byte budget evenly among the averaged modes' dozens
# of buffers left calls even shorter, so no buffer gets fewer than 16384
# elements.
_TILE_ELEMS = 16384

# rows per band in which _gram mirrors the Gram matrix's upper triangle
_MIRROR_ROWS = 256

_HERMITE_GRID = 20001  # 1-D maximization grid on [-1, 1]
_SAFETY = 1.01


class KernelMode(Enum):
    PLAIN = "plain"
    SORTED = "sorted"
    PERM_SINGLE = "perm_single"


@dataclass(frozen=True)
class KernelSpec:
    """Base Gaussian kernel: amplitude and length-scale.

    The Gaussian is amplitude * exp(-||w - z||^2 / (2 bandwidth^2)). It is
    smooth of every order; the smoothness degree nu that the bounds use is
    theirs (BoundInputs.nu, sup_kernel_constant). Both fields must be finite
    and positive, and a bandwidth so small that -2 bandwidth^2 rounds to zero
    is rejected.
    """

    amplitude: float
    bandwidth: float

    def __post_init__(self):
        _above("amplitude", self.amplitude, 0.0)
        _above("bandwidth", self.bandwidth, 0.0)
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


def _buffer_elems(nbuf):
    # elements per buffer of a tile: a thread's nbuf buffers share 16
    # _TILE_ELEMS buffers' worth of scratch (2 MiB), but never fall below
    # _TILE_ELEMS each
    return max(_TILE_ELEMS, 16 * _TILE_ELEMS // nbuf)


def _tile_rows(m, nbuf):
    """Rows of W per tile, at least one, for m columns and nbuf buffers."""
    return max(1, _buffer_elems(nbuf) // m)


def _evaluate(k, W, Z, terms):
    """Average over terms pi of amplitude * exp(-||W[pi] - Z||^2 / (2 bw^2)).

    Rows of W are processed in tiles of about _buffer_elems elements per
    buffer, spread over the threads of _fan_out; each thread allocates its
    buffers once per call and reuses them for every tile it takes. Every
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
    nbuf = _buffer_count(npairs, d)
    rows = _tile_rows(m, nbuf)
    WT = np.ascontiguousarray(W.T)
    ZT = np.ascontiguousarray(Z.T)
    scale = -2.0 * k.bandwidth * k.bandwidth
    scratch = threading.local()

    def tile(r0):
        r1 = min(n, r0 + rows)
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty((nbuf, min(rows, n) * m))
        views = [b[:(r1 - r0) * m].reshape(r1 - r0, m) for b in scratch.buf]
        table, dist = views[:npairs], views[-1]
        # level[q] is the distance summed over coordinates 0..q: level 0 is a
        # table entry, the last level is dist
        level = [None, *views[npairs:-1], dist]
        for (p, q), T in zip(pairs, table):
            np.subtract(WT[p, r0:r1, None], ZT[q], out=T)
            np.multiply(T, T, out=T)
        acc = out[r0:r1]
        # below a bandwidth of about 1e-154 the division overflows to -inf,
        # and exp(-inf) = 0 is the exact kernel value; numpy keeps this
        # setting per thread, so each tile sets it on the thread running it
        with np.errstate(over="ignore"):
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

    _fan_out(tile, range(0, n, rows))
    return out


def kernel_cross(k, mode, W, Z):
    """All pairwise kernel values between the rows of W and the rows of Z.

    Both arguments must be (n, d) arrays of one width, possibly without
    rows, with finite entries in [0, 1]; anything else raises ConfigError
    or DimensionMismatchError.
    """
    W = as_design(W, min_rows=0)
    return _cross(k, mode, W, as_design(Z, min_rows=0, d=W.shape[1]))


def _cross(k, mode, W, Z):
    # kernel_cross on arguments the caller has validated
    d = W.shape[1]
    check_mode_cap(mode, d)
    # sorted mode is defined on the canonical representatives; the averaged
    # mode is permutation-invariant argument-wise, so inputs are
    # canonicalized first and the sum runs over the identical term multiset
    # for any permutation of w or z, making the invariance exact in floats
    if mode is not KernelMode.PLAIN:
        W, Z = _sorted_copy(W), _sorted_copy(Z)
    return _evaluate(k, W, Z, _terms(mode, d))


def kernel_value(k, mode, w, z):
    """Single kernel evaluation between two 1-D points of one width."""
    w = as_point(w)
    return float(_cross(k, mode, w[None], as_point(z, w.shape[0])[None])[0, 0])


def gram(k, mode, X):
    """Kernel matrix of a design against itself.

    The result is exactly symmetric: each unordered pair's value is stored
    once and mirrored. Sorted mode requires pairwise-distinct orbits and
    reports duplicates before any factorization is attempted.
    """
    return _gram(k, mode, as_design(X))


def _gram(k, mode, X):
    # gram on a design the caller has validated or drawn
    if mode is KernelMode.SORTED and not _distinct_orbits(X):
        raise DuplicateOrbitError(
            "design has points in the same permutation orbit; the sorted "
            "kernel matrix would be singular")
    G = _cross(k, mode, X, X)
    # the strict upper triangle is copied onto the lower one in bands of
    # _MIRROR_ROWS rows: left of the diagonal block, a band is the transposed
    # column band above it, and the diagonal block takes its lower half from
    # its own transpose. No index array is built, and no temporary is larger
    # than one diagonal block.
    n = G.shape[0]
    below = np.tri(_MIRROR_ROWS, k=-1, dtype=bool)
    for r0 in range(0, n, _MIRROR_ROWS):
        r1 = min(n, r0 + _MIRROR_ROWS)
        G[r0:r1, :r0] = G[:r0, r0:r1].T
        D = G[r0:r1, r0:r1]
        np.copyto(D, D.T, where=below[:r1 - r0, :r1 - r0])
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


def _envelope_peak(g, sigma, t):
    # max over the points t of |d^g/dt^g exp(-t^2/(2 sigma^2))|
    # = sigma^{-g} |He_g(t/sigma)| exp(-t^2/(2 sigma^2)) via Hermite polynomials
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


def _derivative_envelopes(g, sigma):
    """(grid, exact) maxima over t in [-1, 1] of |d^g/dt^g exp(-t^2/(2 sigma^2))|.

    The grid maximum reads a 20001-point grid. The exact one uses
    d/dx [He_g(x) e^{-x^2/2}] = -He_{g+1}(x) e^{-x^2/2}: in x = t/sigma
    the peak sits at a root of He_{g+1} inside |x| <= 1/sigma, or at an
    endpoint.
    """
    grid = _envelope_peak(g, sigma, np.linspace(-1.0, 1.0, _HERMITE_GRID))
    t = sigma * hermite_e.hermegauss(g + 1)[0]
    exact = _envelope_peak(g, sigma, np.concatenate([t[np.abs(t) <= 1.0], [-1.0, 1.0]]))
    return grid, exact


def _best_product(env, nu, d):
    # max over partitions of nu into at most d orders of the product of
    # the per-order envelopes over the best factorial split of each order
    best = 0.0
    for part in _partitions(nu, d):
        prod = 1.0
        for g in part:
            # best split a + b = g of 1/(a! b!) puts the orders half and half
            prod *= env[g] / (math.factorial(g // 2) * math.factorial((g + 1) // 2))
        best = max(best, prod)
    return best


def sup_kernel_constant(k, nu, d):
    """Sup-norm constants (C_K0, C_Knu) of the kernel and its derivatives.

    C_K0 is the maximum of |K| over the cube squared (the amplitude, for
    the Gaussian). C_Knu is the maximum over all mixed derivatives of
    total order nu of |d^alpha_1 d^beta_2 K| / (alpha! beta!). The
    Gaussian factorizes per coordinate, so the maximum reduces to integer
    partitions of nu with per-order 1-D envelopes. C_Knu is the grid
    maximum times a 1.01 safety factor wherever that bounds the exact
    maximum, and the exact maximum times 1.01 elsewhere, so it is an upper
    bound at every bandwidth; a C_Knu past the float range is returned as
    inf.
    """
    _int_at_least("nu", nu, 0)
    _int_at_least("d", d, 1)
    c0 = k.amplitude
    if nu == 0:
        return c0, c0
    env = {g: _derivative_envelopes(g, k.bandwidth) for g in range(1, nu + 1)}
    c_grid = c0 * _SAFETY * _best_product({g: e[0] for g, e in env.items()}, nu, d)
    best_exact = _best_product({g: e[1] for g, e in env.items()}, nu, d)
    # the grid keeps the bits of every constant it bounds; below a bandwidth
    # of about 1e-3 its 1e-4 spacing reads odd orders low by more than the
    # safety factor covers
    if c_grid >= c0 * best_exact:
        return c0, c_grid
    return c0, c0 * _SAFETY * best_exact
