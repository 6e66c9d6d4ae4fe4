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

from ._linalg import cKDTree
from .errors import CapExceededError, ConfigError, DimensionMismatchError, _above, _int_at_least

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

# pruned scan: prescan design points and elements of the work buffer that
# holds each product after it (2 MiB); both fill paths: warm-set size and
# survivors per chunk, as many as fill that buffer at _PRUNE_PRESCAN points
_PRUNE_PRESCAN = 32
_PRUNE_WARM = 512
_BLOCK_ELEMS = 1 << 18
_PRUNE_CHUNK = _BLOCK_ELEMS // _PRUNE_PRESCAN

# kd-tree path: candidates per grid cell, and each cell bound's relative
# widening and absolute one in ulps of the largest candidate coordinate
_CELL_CANDIDATES = 16
_CELL_REL = 1e-9
_CELL_ULPS = 64


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


def _shape_error(what, shape, d, min_rows=None):
    # the one message for an array argument of the wrong rank, rows or width
    form = "(d,) with" if min_rows is None else f"(n, d) with n >= {min_rows} and"
    width = "d >= 1" if d is None else f"d = {d}"
    return DimensionMismatchError(f"{what} must have shape {form} {width}, got shape {shape}")


def as_point(p, d=None):
    """Validate and return a point as a 1-D float array with finite entries in [0,1].

    The point needs d coordinates, or at least one where d is None.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] < 1 or d not in (None, p.shape[0]):
        raise _shape_error("point", p.shape, d)
    _check_unit_range(p, "point")
    return p


def as_design(X, min_rows=1, d=None):
    """Validate and return a design as an (n, d) float array with finite entries in [0,1].

    The design needs at least min_rows rows and d columns, or at least one
    column where d is None.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < min_rows or X.shape[1] < 1 or d not in (None, X.shape[1]):
        raise _shape_error("design", X.shape, d, min_rows)
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
    # distinct_orbits on a design its caller has validated. A lexicographic
    # sort puts equal rows side by side; np.unique(axis=0) would say the
    # same but imports numpy.ma on first use
    S = _sorted_copy(X)
    S = S[np.lexsort(S.T[::-1])]
    return not np.any(np.all(S[1:] == S[:-1], axis=1))


def cube_corners(d):
    """The 2^d vertices of [0,1]^d, or an empty set when d exceeds CORNER_DIM_CAP."""
    _int_at_least("d", d, 1)
    if d > CORNER_DIM_CAP:
        return np.empty((0, d))
    return np.indices((2,) * d).reshape(d, -1).T.astype(float)


def ball_volume(d):
    """Volume of the d-dimensional unit Euclidean ball."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def simplex_inradius(d):
    """Radius of the largest ball inscribed in {1 >= x1 >= ... >= xd >= 0}."""
    return 1.0 / (2.0 + math.sqrt(2.0) * (d - 1))


def _exact_max_sq(c, cs, mm, j, X2, xsq, buf, lo):
    """Max over rows of c of the exact squared distance to the design, or -inf.

    X2 is -2 times the design and xsq its rows' squared norms; cs holds the
    squared norms of c's rows and mm each row's running min of
    -2 c.x + |x|^2 over the design points before j: inf from j = 0 for the
    warm set, the prescan's from j = k0 for survivors. The rest of the
    design is taken in blocks formed in buf: from j = 0 each fills buf,
    from j > 0 they double from j until they fill it, and a tail that fits
    goes in one shot. A row is dropped once its distance so far falls to
    lo; -inf is returned where none is left.
    """
    n = X2.shape[0]
    b = j or buf.shape[0] // c.shape[0]
    while j < n and c.shape[0]:
        cap = buf.shape[0] // c.shape[0]
        k = n - j if n - j <= cap else min(b, cap)
        T = buf[:c.shape[0] * k].reshape(c.shape[0], k)
        np.matmul(c, X2[j:j + k].T, out=T)
        T += xsq[j:j + k][None, :]
        np.minimum(mm, T.min(axis=1), out=mm)
        alive = (mm + cs) > lo
        if alive.mean() < 0.7:
            keep = np.flatnonzero(alive)
            c, cs, mm = c[keep], cs[keep], mm[keep]
        j += k
        b *= 2
    return float((mm + cs).max()) if c.shape[0] else -math.inf


def _prescan_cols(k0, d):
    # columns of a prescan tile: a multiple of 64, and a float64 (k0, cols)
    # or (cols, d) array fits in _PRESCAN_TILE_BYTES where it can
    return max(64, _PRESCAN_TILE_BYTES // (8 * max(k0, d)) // 64 * 64)


def _prescan_sq(X2, C, xsq, k0, buf, idx=None):
    """Squared distance from each row of C, or of C[idx], to its nearest point among the first k0.

    X2 is -2 times the design (scaling by a power of two is exact) and xsq
    its rows' squared norms. Every element sees the operations of one
    (N, k0) product C @ X2[:k0].T: dot product, plus the design point's
    squared norm, min over the k0 points, plus the candidate's squared
    norm. The product is formed transposed, (k0, cols) per column tile, so
    the (N, k0) matrix never exists and the min is an elementwise minimum
    of contiguous rows. Each tile adds its own candidates' squared norms,
    so no array of all N norms is held; a row's norm is the same float
    whatever rows it is computed with. The product tile and the
    zero-padded tile of candidates are views of buf, and each fits in
    _PRESCAN_TILE_BYTES. Every tile has the same width, a multiple of 64:
    a partial micro-tile at a ragged edge of a BLAS product can round
    differently, but a column of a full-width product does not depend on
    the other columns. So the rows C[idx] are gathered into the padded tile
    with np.take, one tile at a time, and each gets the float the pass
    over all of C gives it; no copy of C[idx] is made.
    """
    N, d = C.shape if idx is None else (idx.shape[0], C.shape[1])
    cols = _prescan_cols(k0, d)
    XT = X2[:k0]
    xs = xsq[:k0, None]
    m = np.empty(N)
    T = buf[:k0 * cols].reshape(k0, cols)
    pad = buf[k0 * cols:(k0 + d) * cols].reshape(cols, d)
    for s in range(0, N, cols):
        e = min(N, s + cols)
        if idx is None and e - s == cols:
            tile = C[s:e]
        else:
            if idx is None:
                pad[:e - s] = C[s:e]
            else:
                # mode="clip" writes straight into out; "raise" buffers it
                np.take(C, idx[s:e], axis=0, out=pad[:e - s], mode="clip")
            pad[e - s:] = 0.0
            tile = pad
        np.matmul(XT, tile.T, out=T)
        T += xs
        np.minimum.reduce(T[:, :e - s], axis=0, out=m[s:e])
        m[s:e] += np.einsum("ij,ij->i", tile[:e - s], tile[:e - s])
    return m


def _screen_sq(X2, C, xsq, k0, buf):
    """A float32 screen of _prescan_sq's scores: (v, E), or None where it is not safe.

    v[i] is the score of row i of C in float32: per column tile of
    _prescan_sq's width the rows are copied, transposed, into a
    (d + 1, cols) float32 tile whose last row is ones, so one product with
    [X2[:k0] | xsq[:k0]] gives each dot product plus its design point's
    squared norm; then the min over the k0 points, plus the row's float32
    squared norm. The tiles are views of buf; the only array as long as C
    is v. E bounds |v[i] - m[i]| for every i, where m is _prescan_sq's
    float64 score: with R >= |c| + |x| over the candidates and the first
    k0 design points, each score is an inner product of total magnitude
    at most R^2, so each precision's rounding is at most gamma_k R^2 with
    gamma_k = k u / (1 - k u) and k = 2d + 8 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1), any
    summation order and FMA included; underflow adds at most 2^-150 per
    operation, which the absolute term k 2^-149 (1 + R)^2 covers. E is
    twice their sum. None where some v is not finite or R^2 exceeds
    2^100, far from float32's overflow.
    """
    N, d = C.shape
    k = 2 * d + 8
    if k * 2.0 ** -24 >= 0.5:
        return None
    cols = _prescan_cols(k0, d)
    A = np.empty((k0, d + 1), dtype=np.float32)
    A[:, :d] = X2[:k0]
    A[:, d] = xsq[:k0]
    f = buf.view(np.float32)
    T = f[:k0 * cols].reshape(k0, cols)
    B = f[k0 * cols:(k0 + d + 1) * cols].reshape(d + 1, cols)
    B[d] = 1.0
    v = np.empty(N, dtype=np.float32)
    cmax = 0.0
    # a candidate past float32's range becomes inf here and sends the pass
    # to the float64 prescan
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, N, cols):
            e = min(N, s + cols)
            B[:d, :e - s] = C[s:e].T
            B[:d, e - s:] = 0.0
            np.matmul(A, B, out=T)
            np.minimum.reduce(T[:, :e - s], axis=0, out=v[s:e])
            cs = np.einsum("ij,ij->j", B[:d, :e - s], B[:d, :e - s])
            v[s:e] += cs
            cmax = max(cmax, float(cs.max()))
        vmax = float(v.max())
    gamma = k * 2.0 ** -24 / (1.0 - k * 2.0 ** -24) + k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
    # cmax is a float32 norm, so it is widened by its own relative error
    R = math.sqrt(cmax * (1.0 + gamma)) + math.sqrt(float(xsq[:k0].max()) * (1.0 + gamma))
    if not (math.isfinite(vmax) and R * R <= 2.0 ** 100):
        return None
    return v, 2.0 * (gamma * R * R + k * 2.0 ** -149 * (1.0 + R) ** 2)


def _at_most(t, dtype):
    """The largest value of the float dtype at or below the float t.

    A threshold rounded to nearest could exclude a score the bound says
    must stay in.
    """
    r = dtype.type(t)
    return np.nextafter(r, dtype.type(-np.inf)) if float(r) > t else r


def _sample_floor(m, warm):
    """The warm-th largest value of a strided sample of about 16 warm values of m.

    At least warm values of m are at or above it, so it is at most the
    warm-th largest of m.
    """
    sample = m[::max(1, m.shape[0] // (16 * warm))]
    return float(np.partition(sample, sample.shape[0] - warm)[sample.shape[0] - warm])


def _warm_set(m, warm):
    """The first `warm` indices of the best-first order, in that order.

    Best-first is descending score or bound with ties in index order, the
    order of a stable sort of -m. Only the scores at or above
    _sample_floor (about N/16 of them) are copied and partitioned for the
    exact threshold: no copy as long as m is made unless nearly every
    score ties. Only the warm set and the warm pass's survivors are ever
    sorted.
    """
    idx = np.flatnonzero(m >= _sample_floor(m, warm))
    v = m[idx]
    kth = np.partition(v, v.shape[0] - warm)[v.shape[0] - warm]
    top = idx[v > kth]
    # ties at the boundary go in by lowest index; each run of equal scores
    # stays ascending, which the stable sort keeps
    top = np.concatenate([top, idx[v == kth][:warm - top.shape[0]]])
    return top[np.argsort(-m[top], kind="stable")]


def _survivors(m, top, h2):
    """The indices after the warm set `top` in best-first order with m > h2."""
    live = m > h2
    live[top] = False
    rest = np.flatnonzero(live)
    return rest[np.argsort(-m[rest], kind="stable")]


def _best_first(ub, top, lo, exact):
    """Max of lo and the exact values of the candidates outside the warm set top.

    ub bounds each candidate's exact value from above and a candidate attains
    lo. Those with ub > lo go best-first, _PRUNE_CHUNK at a time, less those
    whose ub no longer beats the running lo; exact(idx, lo) gives the max of
    their exact values, or -inf where it proves that none beats lo.
    """
    rest = _survivors(ub, top, lo)
    for s in range(0, rest.shape[0], _PRUNE_CHUNK):
        idx = rest[s:s + _PRUNE_CHUNK]
        idx = idx[ub[idx] > lo]
        if idx.shape[0]:
            lo = max(lo, exact(idx, lo))
    return lo


def _maxmin_sq_pruned(X, C):
    """Exact max over rows of C of squared NN distance to X.

    A shallow prescan scores every candidate by its distance to the first
    k0 = min(_PRUNE_PRESCAN, n) design points, an upper bound; the
    min(_PRUNE_WARM, N) best scored get exact distances, whose max is a
    witnessed lower bound. Where the prescan saw every design point the
    other scores are exact already; otherwise _best_first visits the rest.
    _exact_max_sq computes both: the warm set over the whole design, and
    each survivor chunk from its prescan minimum over the design past k0,
    dropping a candidate once it falls to the running max.

    Every decision reads the float64 prescan score m of _prescan_sq, but m
    is computed only for the candidates where it decides something, and
    the float32 screen v of _screen_sq, with |v - m| <= E, finds them:
    - the warm set: the warm-th largest m is at least the sample floor of
      v less E, so every candidate it can take has v >= that floor less
      2E. Those are scored in index order, so _warm_set over their scores
      takes the warm set of all N scores, ties included;
    - the survivors: every candidate with m > h2 has v > h2 - E. Those
      outside the warm set are scored, and the survivors, their order, the
      chunks and each survivor's starting value m - |c|^2 come from them.
    So every float of the pass is the one a full float64 prescan gives.
    Where the screen is not safe, v is that full prescan and E is 0.
    Candidate norms are computed where they are used, tile by tile or for
    the gathered rows, never for all N at once. Every product, the
    prescan's included, is formed in one work buffer of _BLOCK_ELEMS
    elements (more only for d in the thousands). The returned value equals
    the full brute-force max-min exactly. X and C are finite; the caller
    checks them.
    """
    n = X.shape[0]
    xsq = np.einsum("ij,ij->i", X, X)
    X2 = -2.0 * X
    k0 = min(_PRUNE_PRESCAN, n)
    buf = np.empty(max(_BLOCK_ELEMS, 64 * (k0 + C.shape[1])))
    warm = min(_PRUNE_WARM, C.shape[0])
    screen = _screen_sq(X2, C, xsq, k0, buf)
    v, E = screen if screen is not None else (_prescan_sq(X2, C, xsq, k0, buf), 0.0)
    S = np.flatnonzero(v >= _at_most(_sample_floor(v, warm) - 2.0 * E, v.dtype))
    top = S[_warm_set(_prescan_sq(X2, C, xsq, k0, buf, S), warm)]
    c = C[top]
    h2 = _exact_max_sq(c, np.einsum("ij,ij->i", c, c), np.full(top.shape[0], np.inf),
                       0, X2, xsq, buf, -math.inf)
    live = v > _at_most(h2 - E, v.dtype)
    live[top] = False
    P = np.flatnonzero(live)
    del v, live
    m = _prescan_sq(X2, C, xsq, k0, buf, P)
    if k0 == n:
        return max(h2, float(m.max(initial=-np.inf)))

    def exact(i, lo):
        c = C[P[i]]
        cs = np.einsum("ij,ij->i", c, c)
        return _exact_max_sq(c, cs, m[i] - cs, k0, X2, xsq, buf, lo)

    # P holds no candidate of the warm set
    return _best_first(m, P[:0], h2, exact)


def _cells_per_axis(N, d, share=1.0):
    # k for about N / _CELL_CANDIDATES occupied cells where the candidates
    # occupy a share `share` of the k^d cells, and at most N cells in all
    return max(1, min(int((N / _CELL_CANDIDATES / share) ** (1.0 / d)), int(N ** (1.0 / d))))


def _grid_cells(C, k=None):
    """Grid cell of each candidate: (cell numbers, cells per axis, origin, width, top).

    The scalar bounding box [C.min(), C.max()]^d is cut into k cells per
    axis, by default about N / _CELL_CANDIDATES in all; cell
    (i_0, ..., i_{d-1}) has number sum_j i_j k^(d-1-j) and spans
    [origin + i_j width, origin + (i_j + 1) width] on axis j; origin and
    top are C.min() and C.max(). One cell is used where there are too few
    candidates for more, or where the width would not be a normal float
    (zero or tiny span); that cell is bounded like any other.
    """
    N, d = C.shape
    origin, top = float(C.min()), float(C.max())
    k = _cells_per_axis(N, d) if k is None else k
    if (top - origin) / k < np.finfo(float).tiny:
        k = 1
    width = (top - origin) / k
    cell = np.zeros(N, dtype=np.int64)
    if k > 1:
        for j in range(d):
            # the quotient is >= 0; rounding can put C.max() at k
            i = ((C[:, j] - origin) / width).astype(np.int64)
            np.minimum(i, k - 1, out=i)
            cell *= k
            cell += i
    return cell, k, origin, width, top


def _cell_bounds(C, nearest, grid=None):
    """Per candidate of C, the bound of its grid cell on its nearest() value.

    nearest(P) gives the distance from each row of P to the design, and
    grid is _grid_cells(C, k) for some k, _grid_cells(C) by default. Each
    occupied cell is bounded by ub = nearest(centre) + half-diagonal,
    widened by _CELL_REL and by _CELL_ULPS ulps of the largest coordinate,
    which cover the rounding of the binning, the centres and every
    computed distance; so by the triangle inequality no candidate's
    nearest() exceeds its cell's ub.
    """
    cell, k, origin, width, top = _grid_cells(C) if grid is None else grid
    d = C.shape[1]
    occupied = np.flatnonzero(np.bincount(cell, minlength=k ** d))
    centres = origin + (np.stack(np.unravel_index(occupied, (k,) * d), axis=1) + 0.5) * width
    slack = 0.5 * width * math.sqrt(d) + _CELL_ULPS * np.spacing(max(-origin, top))
    ub = np.empty(k ** d)
    ub[occupied] = (nearest(centres) + slack) * (1.0 + _CELL_REL)
    return ub[cell]


def _maxmin_tree(X, C):
    """Exact max-min distance from the rows of C to X through one kd-tree of X.

    _best_first runs over _cell_bounds from the min(_PRUNE_WARM, N)
    candidates with the highest bounds. Where more candidates beat the
    warm set's max than the grid has cells, as where sorted candidates
    leave most cells of their bounding box empty and crowd the rest, the
    bounds are taken again from a finer grid whose occupied cells hold
    about _CELL_CANDIDATES each: querying its centres is cheaper than
    querying those candidates. A pruned candidate's distance is <= the
    running max, and every queried one gets the float one query of all of
    C returns for it, so the result is float(cKDTree(X).query(C)[0].max())
    bit for bit.
    """
    tree = cKDTree(X)

    def nearest(P):
        return tree.query(P, k=1)[0]

    N, d = C.shape
    grid = _grid_cells(C)
    ub = _cell_bounds(C, nearest, grid)
    top = _warm_set(ub, min(_PRUNE_WARM, N))
    lo = float(nearest(C[top]).max())
    if np.count_nonzero(ub > lo) > N / _CELL_CANDIDATES:
        cell, k = grid[:2]
        share = np.count_nonzero(np.bincount(cell, minlength=k ** d)) / k ** d
        fine = _cells_per_axis(N, d, share)
        if fine > k:
            ub = _cell_bounds(C, nearest, _grid_cells(C, fine))
    return _best_first(ub, top, lo, lambda idx, lo: float(nearest(C[idx]).max()))


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
    C = np.asarray(candidates, dtype=float)
    if C.ndim != 2 or C.shape[1] < 1:
        raise DimensionMismatchError(f"candidates must have shape (n, d) with d >= 1, got shape {C.shape}")
    if C.shape[0] == 0:
        raise ConfigError("candidate set is empty")
    X = as_design(X, d=C.shape[1])
    if not isinstance(domain, Domain):
        raise ConfigError(f"unknown domain {domain!r}")
    # a NaN, an infinity or a square that overflows leaves a non-finite norm
    if not np.isfinite(np.einsum("ij,ij->i", C, C)).all():
        raise ConfigError("candidate coordinates and their squared norms must be finite")
    to_domain = _sorted_copy if domain is Domain.SORTED_SIMPLEX else np.ascontiguousarray
    return _fill_distance(to_domain(X), to_domain(C))


def _fill_distance(X, C):
    """Exact max-min distance from the rows of C to the rows of X.

    X is a validated design and C a nonempty candidate array of the same
    width with finite coordinates and squared norms, both C-contiguous and
    already in the domain's coordinates; nothing is checked here. Both
    paths run _best_first: up to _TREE_MAX_DIM over grid-cell bounds and
    kd-tree queries (_maxmin_tree), above it over prescan bounds and
    blocked products (_maxmin_sq_pruned).
    """
    if X.shape[1] <= _TREE_MAX_DIM:
        return _maxmin_tree(X, C)
    return float(math.sqrt(max(_maxmin_sq_pruned(X, C), 0.0)))


def _fill_distances(X, C):
    """Plain and sorted fill distances of the design X over the candidates C.

    X is a design the caller drew or validated; the sorted pass sorts a copy
    of it and canonicalizes the caller's C-contiguous candidates C in place.
    The sorted distance is <= the plain one (rearrangement principle); min()
    shields that from last-ulp rounding between the two passes.
    """
    h = _fill_distance(X, C)
    _sort_rows_in_place(C)
    return h, min(_fill_distance(_sorted_copy(X), C), h)


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
    _int_at_least("d", d, 1)
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
    _int_at_least("d", d, 1)
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
    # floor(v) > 1 exactly when v >= 2; at a subnormal h, v is inf
    return 1.0 / scale >= 2.0
