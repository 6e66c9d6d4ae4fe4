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
permutation term. Given a coefficient vector, it contracts each tile with
it and returns the kernel expansion without ever holding the kernel
matrix; with BLAS at one thread that is bit for bit the product of the
full matrix with the vector. Given a second vector, it also contracts each
tile right after its first term: on the canonical arguments both modes
share, the averaged mode's first term (the identity permutation) is the
sorted kernel, so one averaged pass yields the sorted expansion too, bit
for bit.
"""

import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import permutations

import numpy as np
from numpy.polynomial import hermite_e

from ._linalg import _mirror
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
    """Raise if mode is not a KernelMode, or if the averaged mode's d! term count is over its cap."""
    if not isinstance(mode, KernelMode):
        raise ConfigError(f"unknown kernel mode {mode!r}")
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


def _tile_rows(m, nbuf, contract=False):
    """Rows of W per tile, at least one, for m columns and nbuf buffers.

    A tile contracted with coefficients has a multiple of 4 rows, at least
    4: on one BLAS thread OpenBLAS's gemv groups output rows by 4 from the
    first row it gets, so tiles that start at multiples of 4 keep the
    groups, and the floats, of one product over all rows.
    """
    rows = max(1, _buffer_elems(nbuf) // m)
    return max(4, rows - rows % 4) if contract else rows


def _evaluate(k, W, Z, terms, upper=False, coeffs=None, first=None):
    """Average over terms pi of amplitude * exp(-||W[pi] - Z||^2 / (2 bw^2)).

    Rows of W are processed in tiles of about _buffer_elems elements per
    buffer, spread over the threads of _fan_out; each thread allocates its
    buffers once per call and reuses them for every tile it takes. Every
    element sees the same operations in the same order as a direct
    evaluation: squared differences summed from coordinate 0 upwards,
    division by -2 bw^2, exp, amplitude product, terms summed in order,
    and one final division by the term count. With upper (W and Z the same
    design) a tile's columns start at its first row's diagonal, and the
    thread that computed the tile copies it onto the lower triangle
    (_linalg._mirror). The tiles' regions are disjoint, so the result is
    exactly symmetric with each unordered pair's value computed once.

    With coeffs (an (m,) vector, upper False) the result is the (n,)
    vector of the kernel matrix times coeffs: each tile's values go to one
    more buffer of its thread's scratch, which is contracted with coeffs
    into the tile's rows of the result. Tiles then have a multiple of 4
    rows (_tile_rows), and a last tile of one row joins the one before it,
    because numpy takes a one-row product through dot, not gemv.

    With first as well (an (m,) vector, coeffs given) the result is the
    pair (expansion with coeffs, expansion of terms[0] alone with first).
    Each tile contracts its accumulator with first right after term 0,
    before term 1 adds into it, so no buffer is added. Every contracted
    tile starts at a multiple of 4 rows whatever its height, so with BLAS
    at one thread the first-term values are bit for bit those of an
    evaluation over [terms[0]] alone with first as its coefficients.
    """
    n, d = W.shape
    m = Z.shape[0]
    contract = coeffs is not None
    out = np.empty(n if contract else (n, m))
    out_first = None if first is None else np.zeros(n)
    if n == 0 or m == 0:
        out.fill(0.0)
        return out if first is None else (out, out_first)
    pairs, steps = _plan(terms)
    npairs = len(pairs)
    nbuf = _buffer_count(npairs, d) + contract
    WT = np.ascontiguousarray(W.T)
    ZT = np.ascontiguousarray(Z.T)
    scale = -2.0 * k.bandwidth * k.bandwidth
    scratch = threading.local()

    # (end row, first column) of the tile at each first row
    spans = {}
    r0 = 0
    while r0 < n:
        c0 = r0 if upper else 0
        r1 = min(n, r0 + _tile_rows(m - c0, nbuf, contract))
        if contract and r1 == n - 1:
            r1 = n
        spans[r0] = r1, c0
        r0 = r1
    size = max((r1 - r0) * (m - c0) for r0, (r1, c0) in spans.items())

    def tile(r0):
        r1, c0 = spans[r0]
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty((nbuf, size))
        views = [b[:(r1 - r0) * (m - c0)].reshape(r1 - r0, m - c0) for b in scratch.buf]
        acc = views.pop() if contract else out[r0:r1, c0:]
        table, dist = views[:npairs], views[-1]
        # level[q] is the distance summed over coordinates 0..q: level 0 is a
        # table entry, the last level is dist
        level = [None, *views[npairs:-1], dist]
        for (p, q), T in zip(pairs, table):
            np.subtract(WT[p, r0:r1, None], ZT[q, c0:], out=T)
            np.multiply(T, T, out=T)
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
                    if first is not None:
                        np.matmul(acc, first, out=out_first[r0:r1])
                else:
                    np.multiply(dist, k.amplitude, out=dist)
                    np.add(acc, dist, out=acc)
        if len(terms) > 1:
            np.divide(acc, len(terms), out=acc)
        if contract:
            np.matmul(acc, coeffs, out=out[r0:r1])
        elif upper:
            _mirror(out, r0, r1)

    _fan_out(tile, list(spans))
    return out if first is None else (out, out_first)


def kernel_cross(k, mode, W, Z):
    """All pairwise kernel values between the rows of W and the rows of Z.

    Both arguments must be (n, d) arrays of one width, possibly without
    rows, with finite entries in [0, 1]; anything else raises ConfigError
    or DimensionMismatchError.
    """
    W = as_design(W, min_rows=0)
    return _cross(k, mode, W, as_design(Z, min_rows=0, d=W.shape[1]))


def _cross(k, mode, W, Z, upper=False, coeffs=None, first=None):
    # kernel_cross on arguments the caller has validated; upper (for a Gram
    # matrix), coeffs (for a kernel expansion) and first (for the first
    # term's expansion too) as in _evaluate
    d = W.shape[1]
    check_mode_cap(mode, d)
    # sorted mode is defined on the canonical representatives; the averaged
    # mode is permutation-invariant argument-wise, so inputs are
    # canonicalized first and the sum runs over the identical term multiset
    # for any permutation of w or z, making the invariance exact in floats
    if mode is not KernelMode.PLAIN:
        W, Z = _sorted_copy(W), _sorted_copy(Z)
    return _evaluate(k, W, Z, _terms(mode, d), upper, coeffs, first)


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
    # gram on a design the caller has validated or drawn; each tile of the
    # upper triangle mirrors itself onto the lower one (_evaluate)
    if mode is KernelMode.SORTED and not _distinct_orbits(X):
        raise DuplicateOrbitError(
            "design has points in the same permutation orbit; the sorted "
            "kernel matrix would be singular")
    return _cross(k, mode, X, X, upper=True)


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


@lru_cache(maxsize=4096, typed=True)
def _derivative_envelopes(g, sigma):
    """(grid, exact) maxima over t in [-1, 1] of |d^g/dt^g exp(-t^2/(2 sigma^2))|.

    The grid maximum reads a 20001-point grid. The exact one uses
    d/dx [He_g(x) e^{-x^2/2}] = -He_{g+1}(x) e^{-x^2/2}: in x = t/sigma
    the peak sits at a root of He_{g+1} inside |x| <= 1/sigma, or at an
    endpoint. Memoized per (order, bandwidth): sup_kernel_constant needs
    every order up to nu, and a sweep over nu asks for each one again.
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
