"""LAPACK and the kd-tree without importing scipy.linalg or scipy.spatial.

fit needs dpotrf and dpotrs, nystrom_spectrum needs dsyevr, and the fill
path up to d = 4 needs scipy's cKDTree. This module, the only one in
sortkern that touches scipy, loads the compiled modules that hold them,
scipy/linalg/_flapack and scipy/spatial/_ckdtree, from their files alone on
first use. Importing scipy.linalg instead loads numpy.f2py, numpy.testing
and numpy.ma through scipy's array-API layer, about 0.25 s and 16 MB;
_ckdtree still imports scipy.sparse, which loads them too.

Each module loads once, under one lock: the pool's threads reach their
first kd-tree together, and a Cython module that a second thread loads
while the first is still executing it comes back half initialised. A
module that scipy has already imported is used as it is, and a loaded one
goes into sys.modules under its own name, so a later import of
scipy.linalg or scipy.spatial reuses it. Where a file is missing or fails
to load, the public scipy.linalg.lapack or scipy.spatial stands in.

shifted_solve and eigh are the only code that knows how a Gram matrix
meets LAPACK. Each takes the C-ordered, exactly symmetric matrix, hands
its transpose, the Fortran-ordered matrix LAPACK works on, to the solver
in place, and passes the arguments scipy.linalg's Cholesky factor and
solve (lower, overwriting) and eigh(eigvals_only=True, overwrite_a=True)
pass for a float64 matrix, so they give the same bits. They skip scipy's
finiteness checks: fit and nystrom_spectrum solve only Gram matrices of
validated designs. A runner that times its fits calls load() first, so no
timing absorbs the load.
"""

import os
import sys
import threading

import numpy as np

_LOCK = threading.Lock()
# scipy's private module name -> the module loaded for it
_modules = {}
# columns of G per band of shifted_solve's rebuild of G after each
# factorization; narrow bands keep each transposed strip's reads within cache
_BAND_COLS = 64


def _extension_path(name):
    # the file of scipy's compiled module `name`, or None
    import importlib.machinery
    import importlib.util

    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    stem = os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return stem + suffix
    return None


def _standalone(name):
    # scipy's compiled module `name` loaded from its file alone, or None
    import importlib.util

    path = _extension_path(name)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(name, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(name, None)
        return None
    return module


def _module(name, public):
    # the module for `name`, loaded by the first call; `public` is the
    # scipy module that has the same names
    with _LOCK:
        if name not in _modules:
            import importlib

            _modules[name] = (sys.modules.get(name) or _standalone(name)
                              or importlib.import_module(public))
        return _modules[name]


def load():
    """scipy's float64 LAPACK wrappers, loaded by the first call."""
    return _module("scipy.linalg._flapack", "scipy.linalg.lapack")


def _kdtree_module():
    # the module that holds scipy's cKDTree, loaded by the first call
    return _module("scipy.spatial._ckdtree", "scipy.spatial")


def _mirror(A, r0, r1):
    # rows r0..r1 of A's upper triangle, diagonal block included, copied onto
    # the lower triangle: the strip below the rows takes the columns past
    # their diagonal block, transposed, which share no memory with it, and
    # the block takes its lower half from its own transpose, the one copy
    # numpy makes. On the transpose of a matrix it copies the lower triangle
    # up instead.
    A[r1:, r0:r1] = A[r0:r1, r1:].T
    D = A[r0:r1, r0:r1]
    np.copyto(D, D.T, where=np.tri(r1 - r0, k=-1, dtype=bool))


def shifted_solve(G, y, shift):
    """Solution x of (G + shift * I) x = y by Cholesky, in G's own storage.

    G is a C-ordered, exactly symmetric float64 matrix whose diagonal
    entries are >= +0.0, as a Gram matrix's are, so the shifted diagonal is
    G's own at shift 0. The shift goes onto G's diagonal and G.T, the
    Fortran-ordered matrix LAPACK works on, is factorized in place. dpotrf
    writes only G's upper triangle and diagonal, failed factorizations
    included, so G is rebuilt from its lower triangle and its saved
    diagonal and comes back bit for bit, also after a raise. Raises
    np.linalg.LinAlgError where G + shift * I is not positive definite.
    """
    lapack = load()
    n = G.shape[0]
    diag = G.diagonal().copy()
    G.flat[::n + 1] = diag + shift
    try:
        c, info = lapack.dpotrf(G.T, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        if info < 0:
            raise ValueError(
                f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".')
        x, info = lapack.dpotrs(c, y, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    finally:
        for c0 in range(0, n, _BAND_COLS):
            _mirror(G.T, c0, min(n, c0 + _BAND_COLS))
        G.flat[::n + 1] = diag
    return x


def eigh(G):
    """Eigenvalues of the C-ordered symmetric float64 matrix G, ascending.

    G is overwritten: G.T, the Fortran-ordered matrix LAPACK works on, goes
    to the solver in place. Raises np.linalg.LinAlgError where the solver
    fails.
    """
    lapack = load()
    lwork, liwork, info = lapack.dsyevr_lwork(G.shape[0], lower=1)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    w, _, _, _, info = lapack.dsyevr(G.T, compute_v=0, lower=1, overwrite_a=1,
                                     lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return w


def cKDTree(data):
    """scipy's cKDTree of the rows of data."""
    return _kdtree_module().cKDTree(data)
