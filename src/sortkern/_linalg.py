"""LAPACK and the kd-tree without importing scipy.linalg or scipy.spatial.

fit needs dpotrf and dpotrs, nystrom_spectrum needs dsyevr, and the fill
path up to d = 4 needs scipy's cKDTree. This module, the only one in
sortkern that touches scipy, loads the compiled modules that hold them,
scipy/linalg/_flapack and scipy/spatial/_ckdtree, from their files alone on
first use. Importing scipy.linalg instead loads numpy.f2py, numpy.testing
and numpy.ma through scipy's array-API layer, about 0.25 s and 16 MB.

_ckdtree imports scipy.sparse and scipy._lib._util when it loads, which
load the same three, and reads only copy_if_needed from them. So it loads
with a stand-in for each of the two that is not imported yet: a bare
module, holding copy_if_needed by scipy's own rule for _util, that leaves
sys.modules when the load ends. The module keeps the real scipy package
and the value None, so cKDTree is scipy's own, and a later import of
scipy.sparse or scipy.spatial gets the real modules. For the ~10 ms of the
load this thread holds both names' import locks (importlib's private
_ModuleLockManager), and each stand-in's spec says it is still
initialising, so another thread's import of either waits for the load and
then gets the real module; a stand-in that thread was handed reads from the
real module too. Without that lock API, or on any failure of the load with
stand-ins, the stand-ins and the half-loaded module go and the load runs
without them.

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

import contextlib
import functools
import os
import sys
import threading
import types

import numpy as np

_LOCK = threading.Lock()
# scipy's private module name -> the module loaded for it
_modules = {}
# columns of G per band of shifted_solve's rebuild of G after each
# factorization; narrow bands keep each transposed strip's reads within cache
_BAND_COLS = 64
# per compiled module, the modules it imports when it loads and sortkern
# never uses, in the order scipy's own imports lock them (scipy.sparse
# imports _util), each with the values the load reads from it;
# copy_if_needed follows scipy's rule for released numpy
_STAND_INS = {
    "scipy.spatial._ckdtree": {
        "scipy.sparse": {},
        "scipy._lib._util": {
            "copy_if_needed": None if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else False},
    },
}


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


def _exec(name, path):
    # the module `name` executed from the file at path; on a failure it
    # leaves sys.modules
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


@contextlib.contextmanager
def _stood_in(names):
    # a bare module, holding the given values, in sys.modules for each of
    # `names` (name -> values) not yet imported, while the block runs. The
    # names' import locks are held throughout, taken in scipy's own import
    # order, and each stand-in's spec says it is still initialising, so
    # another thread's import of one waits on its lock and, once the
    # stand-in is gone, loads the real module. ImportError where importlib
    # has no _ModuleLockManager.
    import importlib
    from importlib._bootstrap import _ModuleLockManager
    from importlib.machinery import ModuleSpec

    # the parent packages load for real before the window, which then runs
    # only the module's own code
    for name in names:
        importlib.import_module(name.rpartition(".")[0])
    made = {}
    with contextlib.ExitStack() as locks:
        try:
            for name, values in names.items():
                locks.enter_context(_ModuleLockManager(name))
                if name in sys.modules:
                    continue
                module = types.ModuleType(name)
                module.__dict__.update(values)
                module.__getattr__ = functools.partial(_read_through, name, module)
                module.__spec__ = ModuleSpec(name, None)
                module.__spec__._initializing = True
                made[name] = sys.modules[name] = module
            yield
        finally:
            for name, module in made.items():
                if sys.modules.get(name) is module:
                    del sys.modules[name]


def _read_through(name, stand_in, attr):
    # a name the stand-in for `name` lacks: none for the loading thread,
    # whose import lock is re-entrant; for another thread that the stand-in
    # reached before the load ended (`from scipy.sparse import x`, or the
    # parent of a submodule it imports), the real module's, once the load
    # has ended
    import importlib
    from importlib._bootstrap import _ModuleLockManager

    with _ModuleLockManager(name):
        pass
    if sys.modules.get(name) is stand_in:
        raise AttributeError(f"module {name!r} has no attribute {attr!r}")
    return getattr(importlib.import_module(name), attr)


def _standalone(name):
    # scipy's compiled module `name` loaded from its file alone, or None;
    # first with stand-ins for what _STAND_INS lists for it, then without
    path = _extension_path(name)
    if path is None:
        return None
    if name in _STAND_INS:
        try:
            with _stood_in(_STAND_INS[name]):
                return _exec(name, path)
        except Exception:
            # a scipy whose module reads more than the stand-ins hold, or an
            # importlib without the lock API, takes the plain load
            pass
    try:
        return _exec(name, path)
    except ImportError:
        return None


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
