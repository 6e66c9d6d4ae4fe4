"""Sort canonicalization, orbit logic, and fill-distance geometry.

The canonical representative of a point's permutation orbit is its
coordinate vector sorted in non-increasing order; the set of all such
representatives is the fundamental simplex {x1 >= x2 >= ... >= xd}.
This module provides the sort map, orbit distinctness checks, exact
max-min fill-distance estimation over finite candidate sets (on the cube
or the sorted simplex), deterministic epsilon-covering constructions,
and the interior-cone parameters of both domains.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapExceededError, ConfigError, DimensionMismatchError, _above, _at_least, _int_at_least

# Exact NN queries via a tree are fast only in low dimension; above this
# the pruned block scan wins.
_TREE_MAX_DIM = 4

# 2^d corner enumeration is capped to keep candidate sets bounded.
CORNER_DIM_CAP = 14

# most points a covering design may have
COVERING_POINT_CAP = 10 ** 7

# working-buffer bytes of one prescan tile of the pruned scan, sized to stay
# in a core's L2 cache
_PRESCAN_TILE_BYTES = 1 << 19

# candidate rows per chunk and design points per block of the exact NN pass
_EXACT_CAND_CHUNK = 65536
_EXACT_BLOCK = 4096

# pruned scan: prescan design points, warm-set size, candidates per chunk
_PRUNE_PRESCAN = 32
_PRUNE_WARM = 512
_PRUNE_CHUNK = 32768


class Domain(Enum):
    """Approximation domain: the unit cube or its sorted fundamental simplex."""

    CUBE = "cube"
    SORTED_SIMPLEX = "sorted_simplex"


@dataclass(frozen=True)
class ConeParams:
    """Interior cone condition parameters (angle in radians, radius)."""

    theta: float
    radius: float

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 2):
            raise ConfigError(f"cone angle must lie in (0, pi/2), got {self.theta}")
        _above("radius", self.radius, 0.0)


def _check_unit_range(A, what):
    # NaN fails every comparison, so finiteness is checked on its own
    if not np.all(np.isfinite(A)):
        raise ConfigError(f"{what} coordinates must be finite")
    if np.any(A < 0.0) or np.any(A > 1.0):
        raise ConfigError(f"{what} coordinates must lie in [0, 1]")


def as_point(p):
    """Validate and return a point as a 1-D float array with finite entries in [0,1]."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] < 1:
        raise DimensionMismatchError(f"point must be a 1-D vector, got shape {p.shape}")
    _check_unit_range(p, "point")
    return p


def as_design(X, min_rows=1):
    """Validate and return a design as an (n, d) float array with finite entries in [0,1].

    The design needs at least min_rows rows and one column.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < min_rows or X.shape[1] < 1:
        raise DimensionMismatchError(f"design must be an (n, d) array, got shape {X.shape}")
    _check_unit_range(X, "design")
    return X


def sort_point(p):
    """Map a 1-D point in [0,1]^d to its orbit representative: coordinates in non-increasing order."""
    return _sorted_copy(as_point(p)[None])[0]


def sort_points(X):
    """Row-wise sort map of an (n, d) array in [0,1]: rows in non-increasing order (C-contiguous)."""
    return _sorted_copy(as_design(X, min_rows=0))


def _sorted_copy(X):
    # sort_points on a 2-D array its caller has validated, or on candidates
    # that may lie outside the cube
    S = np.array(X, dtype=float, order="C")
    _sort_rows_in_place(S)
    return S


def _sort_rows_in_place(A):
    """Sort each row of the 2-D float array A into non-increasing order, in place.

    The negated rows are sorted ascending. Negation is exact and sorting
    only moves values, so the result equals np.sort(A, axis=1)[:, ::-1]
    bit for bit.
    """
    np.negative(A, out=A)
    A.sort(axis=1)
    np.negative(A, out=A)


def distinct_orbits(X):
    """True iff the rows of X have pairwise-distinct sorted representatives.

    Comparison is exact on coordinates, matching the positive-definiteness
    requirement of the sorted kernel Gram matrix. X must be an (n, d)
    array with finite entries in [0, 1].
    """
    return _distinct_orbits(as_design(X, min_rows=0))


def _distinct_orbits(X):
    # distinct_orbits on a design its caller has validated
    return np.unique(_sorted_copy(X), axis=0).shape[0] == X.shape[0]


def cube_corners(d):
    """The 2^d vertices of [0,1]^d, or an empty set when d exceeds CORNER_DIM_CAP."""
    if d > CORNER_DIM_CAP:
        return np.empty((0, d))
    return np.indices((2,) * d).reshape(d, -1).T.astype(float)


def ball_volume(d):
    """Volume of the d-dimensional unit Euclidean ball."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def simplex_inradius(d):
    """Radius of the largest ball inscribed in {1 >= x1 >= ... >= xd >= 0}."""
    return 1.0 / (2.0 + math.sqrt(2.0) * (d - 1))


def _exact_min_sq(C, X, xsq):
    """Exact squared nearest-neighbor distance from each row of C to X."""
    out = np.empty(C.shape[0])
    n = X.shape[0]
    for s in range(0, C.shape[0], _EXACT_CAND_CHUNK):
        c = C[s:s + _EXACT_CAND_CHUNK]
        m = np.full(c.shape[0], np.inf)
        for j in range(0, n, _EXACT_BLOCK):
            T = c @ X[j:j + _EXACT_BLOCK].T
            T *= -2.0
            T += xsq[j:j + _EXACT_BLOCK][None, :]
            np.minimum(m, T.min(axis=1), out=m)
        m += np.einsum("ij,ij->i", c, c)
        out[s:s + _EXACT_CAND_CHUNK] = m
    return out


def _candidate_sq_norms(C):
    # one pass over the candidates; a NaN, an infinity or a square that
    # overflows leaves a non-finite norm
    csq = np.einsum("ij,ij->i", C, C)
    if not np.isfinite(csq).all():
        raise ConfigError("candidate coordinates and their squared norms must be finite")
    return csq


def _prescan_sq(X, C, xsq, csq, k0):
    """Squared distance from each row of C to its nearest point among X[:k0].

    Every element sees the operations of one (N, k0) product C @ X[:k0].T:
    dot product, times -2, plus the design point's squared norm, min over
    the k0 points, plus the candidate's squared norm. The product is formed
    transposed, (k0, cols) per column tile of _PRESCAN_TILE_BYTES, so the
    (N, k0) matrix never exists and the min is an elementwise minimum of
    contiguous rows. Every tile has the same width, a multiple of 64 (the
    last one is zero-padded): a partial micro-tile at a ragged edge of a
    BLAS product can round differently.
    """
    N, d = C.shape
    cols = max(64, _PRESCAN_TILE_BYTES // (8 * k0) // 64 * 64)
    XT = X[:k0]
    xs = xsq[:k0, None]
    m = np.empty(N)
    T = np.empty((k0, cols))
    for s in range(0, N, cols):
        e = min(N, s + cols)
        tile = C[s:e]
        if e - s < cols:
            tile = np.zeros((cols, d))
            tile[:e - s] = C[s:e]
        np.matmul(XT, tile.T, out=T)
        T *= -2.0
        T += xs
        np.minimum.reduce(T[:, :e - s], axis=0, out=m[s:e])
    m += csq
    return m


def _warm_set(m, warm):
    """The first `warm` indices of the best-first order, in that order.

    Best-first is descending prescan score with ties in index order, the
    order of a stable sort of -m. A partial selection finds the warm set,
    so only it and the warm pass's survivors are ever sorted.
    """
    kth = np.partition(m, m.shape[0] - warm)[m.shape[0] - warm]
    top = np.flatnonzero(m > kth)
    # ties at the boundary go in by lowest index; each run of equal scores
    # stays ascending, which the stable sort keeps
    top = np.concatenate([top, np.flatnonzero(m == kth)[:warm - top.shape[0]]])
    return top[np.argsort(-m[top], kind="stable")]


def _survivors(m, top, h2):
    """The indices after the warm set `top` in best-first order with m > h2."""
    live = m > h2
    live[top] = False
    rest = np.flatnonzero(live)
    return rest[np.argsort(-m[rest], kind="stable")]


def _maxmin_sq_pruned(X, C):
    """Exact max over rows of C of squared NN distance to X.

    A shallow prescan scores every candidate by its distance to the first
    few design points; candidates are then processed best-first in chunks,
    and the running maximum prunes candidates that provably cannot win.
    The returned value equals the full brute-force max-min exactly.
    Candidates whose coordinates or squared norms are not finite raise
    ConfigError.
    """
    n = X.shape[0]
    xsq = np.einsum("ij,ij->i", X, X)
    csq = _candidate_sq_norms(C)
    k0 = _PRUNE_PRESCAN
    if n <= k0 or C.shape[0] <= _PRUNE_WARM:
        return float(_exact_min_sq(C, X, xsq).max())
    m = _prescan_sq(X, C, xsq, csq, k0)
    top = _warm_set(m, _PRUNE_WARM)
    h2 = float(_exact_min_sq(C[top], X, xsq).max())
    rest = _survivors(m, top, h2)
    for s in range(0, rest.shape[0], _PRUNE_CHUNK):
        idx = rest[s:s + _PRUNE_CHUNK]
        idx = idx[m[idx] > h2]
        if idx.shape[0] == 0:
            continue
        c = C[idx]
        cs = csq[idx]
        mm = m[idx] - cs
        j, b = k0, k0
        while j < n and idx.shape[0]:
            # finish small tails in one shot instead of many tiny blocks
            if idx.shape[0] * (n - j) <= 262144:
                b = n - j
            k = min(b, n - j)
            T = c @ X[j:j + k].T
            T *= -2.0
            T += xsq[j:j + k][None, :]
            np.minimum(mm, T.min(axis=1), out=mm)
            alive = (mm + cs) > h2
            if alive.mean() < 0.7:
                keep = np.flatnonzero(alive)
                idx, c, cs, mm = idx[keep], c[keep], cs[keep], mm[keep]
            j += k
            b = min(2 * b, 4096)
        if idx.shape[0]:
            h2 = max(h2, float((mm + cs).max()))
    return h2


def fill_distance_estimate(X, domain, candidates):
    """Max over candidates c of the distance from c to its nearest design point.

    For Domain.SORTED_SIMPLEX both the design and the candidates are mapped
    through the sort canonicalization first, so the value is
    max_c min_i ||sort c - sort x_i||. The result is an exact max-min over
    the given finite candidate set, hence a lower estimate of the true
    supremum over the continuous domain, converging as candidates densify.
    A design with non-finite or out-of-range coordinates raises ConfigError,
    and so do candidates whose coordinates or squared norms are not finite;
    finite candidates outside the cube are allowed.
    """
    X = as_design(X)
    C = np.asarray(candidates, dtype=float)
    if C.ndim != 2:
        raise DimensionMismatchError("candidates must be an (n, d) array")
    if C.shape[0] == 0:
        raise ConfigError("candidate set is empty")
    if X.shape[1] != C.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: design d={X.shape[1]}, candidates d={C.shape[1]}")
    if not isinstance(domain, Domain):
        raise ConfigError(f"unknown domain {domain!r}")
    if domain is Domain.SORTED_SIMPLEX:
        X = _sorted_copy(X)
        C = _sorted_copy(C)
    else:
        X = np.ascontiguousarray(X)
        C = np.ascontiguousarray(C)
    return _fill_distance(X, C)


def _fill_distance(X, C):
    """Exact max-min distance from the rows of C to the rows of X.

    X is a validated design and C a nonempty candidate array of the same
    width, both C-contiguous and already in the domain's coordinates.
    Candidates whose coordinates or squared norms are not finite raise
    ConfigError. A kd-tree answers up to _TREE_MAX_DIM, the pruned scan
    above it.
    """
    if X.shape[1] <= _TREE_MAX_DIM:
        # scipy.spatial costs about half a second to import, so only the
        # low-dimensional path loads it
        from scipy.spatial import cKDTree

        _candidate_sq_norms(C)
        dist, _ = cKDTree(X).query(C, k=1)
        return float(dist.max())
    return float(math.sqrt(max(_maxmin_sq_pruned(X, C), 0.0)))


def _fill_distances(X, C):
    """Plain and sorted fill distances of the design X over the candidates C.

    X is validated and left as it is; the sorted pass sorts a copy of it.
    C is a C-contiguous candidate array the caller owns, and the sorted
    pass canonicalizes it in place, so no second candidate array is held.
    """
    X = as_design(X)
    h = _fill_distance(X, C)
    _sort_rows_in_place(C)
    return h, _fill_distance(_sorted_copy(X), C)


def covering_design(epsilon, d, domain):
    """Deterministic design whose fill distance over the domain is <= epsilon.

    Cube: the centers of a regular grid with at least 2 cells per axis and
    spacing at most 2*epsilon/sqrt(d), so every cube point lies within the
    half-diagonal epsilon of a center. SortedSimplex: the sorted-distinct
    subset of the same grid, enumerated directly as multisets of cell
    levels (roughly 1/d! as many points), which covers the simplex in the
    sorted metric by the rearrangement principle.
    """
    if not (0.0 < epsilon < 1.0):
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    _at_least("d", d, 1)
    if not isinstance(domain, Domain):
        raise ConfigError(f"unknown domain {domain!r}")
    q = max(2, math.ceil(math.sqrt(d) / (2.0 * epsilon) - 1e-9))
    if domain is Domain.CUBE:
        count = q ** d
        if count > COVERING_POINT_CAP:
            raise CapExceededError(
                f"covering grid needs {count} points, above the cap {COVERING_POINT_CAP}")
        idx = np.indices((q,) * d).reshape(d, -1).T
        return (idx + 0.5) / q
    # multisets of d cell levels, i.e. the grid's distinct sorted rows
    count = math.comb(q + d - 1, d)
    if count > COVERING_POINT_CAP:
        raise CapExceededError(
            f"simplex covering needs {count} points, above the cap {COVERING_POINT_CAP}")
    from itertools import combinations_with_replacement
    levels = np.array(list(combinations_with_replacement(range(q), d)), dtype=float)
    return (levels[:, ::-1] + 0.5) / q


def cone_parameters(d, domain):
    """Interior cone parameters of the domain.

    Cube: theta = arcsin(1/sqrt(d)), radius 1/2. SortedSimplex:
    theta = arcsin(1/d^{3/2}), radius 1/(2d+2). At d=1 both angles
    degenerate to pi/2 and are clamped just below it.
    """
    _at_least("d", d, 1)
    if domain is Domain.CUBE:
        theta = math.asin(1.0 / math.sqrt(d))
        radius = 0.5
    elif domain is Domain.SORTED_SIMPLEX:
        theta = math.asin(d ** -1.5)
        radius = 1.0 / (2.0 * d + 2.0)
    else:
        raise ConfigError(f"unknown domain {domain!r}")
    theta = min(theta, math.pi / 2 - 1e-9)
    return ConeParams(theta=theta, radius=radius)


def cone_condition_holds(h, nu, d, domain):
    """Whether the fill distance is small enough for the error theorems.

    Cube: floor(1/(8 nu^2 (sqrt(d)+1) h)) > 1.
    SortedSimplex: floor(1/(8 nu^2 (d+1) (d^{3/2}+1) h)) > 1.
    """
    _above("h", h, 0.0)
    _int_at_least("nu", nu, 1)
    _int_at_least("d", d, 1)
    if domain is Domain.CUBE:
        scale = 8.0 * nu * nu * (math.sqrt(d) + 1.0) * h
    elif domain is Domain.SORTED_SIMPLEX:
        scale = 8.0 * nu * nu * (d + 1.0) * (d ** 1.5 + 1.0) * h
    else:
        raise ConfigError(f"unknown domain {domain!r}")
    return math.floor(1.0 / scale) > 1
