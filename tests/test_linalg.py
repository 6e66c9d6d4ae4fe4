"""_linalg: the one module that touches scipy, loading each compiled module once."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial import cKDTree

import sortkern
from sortkern.kernels import KernelMode, KernelSpec, gram
from sortkern.rng import stream
from test_cli import fresh_python

SRC = Path(sortkern.__file__).resolve().parent


def scipy_imports(source):
    """Names of the scipy modules a source imports, by statement or by call."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            names.append(node.args[0].value)
    return [n for n in names if n == "scipy" or n.startswith("scipy.")]


def test_only_linalg_imports_scipy():
    assert scipy_imports(
        "import os, scipy\nfrom scipy.spatial import cKDTree\n"
        "def f():\n    import scipy.linalg as la\n    importlib.import_module('scipy.sparse')"
    ) == ["scipy", "scipy.spatial", "scipy.linalg", "scipy.sparse"]
    importers = {p.name for p in SRC.glob("*.py") if scipy_imports(p.read_text())}
    assert importers <= {"_linalg.py"}


def transposed_linalg_args(source):
    """Calls that pass a .T attribute to a function a source takes from _linalg."""
    tree = ast.parse(source)
    functions, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "_linalg":
            functions |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules |= {a.asname or a.name for a in node.names if a.name == "_linalg"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id in functions
                or isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id in modules):
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(isinstance(a, ast.Attribute) and a.attr == "T" for a in args):
                found.append(ast.unparse(node))
    return found


def test_only_linalg_transposes_for_lapack():
    # _linalg alone knows that LAPACK works on a Gram matrix's transpose
    assert sorted(transposed_linalg_args(
        "from ._linalg import eigh, cKDTree as tree\nfrom . import _linalg as la\n"
        "from .kernels import gram\neigh(G)\ntree(X.T)\nla.shifted_solve(G, y, s=A.T)\n"
        "gram(G.T)\nla.eigh(G.copy())\nnp.dot(G.T, y)\n"
    )) == ["la.shifted_solve(G, y, s=A.T)", "tree(X.T)"]
    flagged = {p.name: transposed_linalg_args(p.read_text())
               for p in SRC.glob("*.py") if p.name != "_linalg.py"}
    assert {name: calls for name, calls in flagged.items() if calls} == {}


def thread_starters(source):
    """What a source uses that could run work on threads or processes of its own.

    threading.Thread, concurrent.futures and multiprocessing, by import,
    attribute or import call, and any call with a workers= keyword (the
    kd-tree query's own thread pool).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.keyword) and node.arg == "workers":
            found.append("workers=")
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            found.append(node.args[0].value)
    return [n for n in found
            if n in ("threading.Thread", "workers=")
            or n.split(".")[0] == "multiprocessing"
            or n == "concurrent" or n.startswith("concurrent.futures")]


def test_only_the_pool_starts_threads():
    # the Gram tiles mirror themselves onto the lower triangle, which is
    # safe only because the tiles run through _pool._fan_out and nothing
    # else spreads work over threads or processes
    assert sorted(thread_starters(
        "import threading, multiprocessing.pool\nfrom concurrent import futures\n"
        "from threading import Thread, Lock\nt = threading.Thread(target=f)\n"
        "lock = threading.Lock()\ntree.query(C, k=1, workers=2)\n"
        "def f():\n    import concurrent.futures as cf\n    importlib.import_module('multiprocessing')"
    )) == ["concurrent.futures", "concurrent.futures", "multiprocessing", "multiprocessing.pool",
           "threading.Thread", "threading.Thread", "workers="]
    users = {p.name for p in SRC.glob("*.py") if thread_starters(p.read_text())}
    assert users == {"_pool.py"}


def test_import_loads_no_scipy_module():
    assert fresh_python(
        "import sys, sortkern.cli\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])") == "[]"


LOADERS_AT_ONCE = """
import sys, threading
import numpy as np
from sortkern import _linalg

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8, timeout=60)
got, errors = [], []

def use(loader):
    # each module is used as soon as its loader returns it
    m = loader()
    if loader is _linalg.load:
        m.dpotrf(np.eye(3))
    else:
        m.cKDTree(np.eye(3)).query(np.zeros((1, 3)))
    return m

def run(i):
    loaders = (_linalg.load, _linalg._kdtree_module)
    barrier.wait()
    try:
        got.append({f.__name__: use(f) for f in loaders[::1 - 2 * (i % 2)]})
    except BaseException as e:
        errors.append(repr(e))

threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
assert not errors, errors
assert len(got) == 8 and all(g == got[0] for g in got), got
lapack, tree = got[0]["load"], got[0]["_kdtree_module"]
assert lapack.__name__ == "scipy.linalg._flapack" and hasattr(lapack, "dsyevr")
assert tree.__name__ == "scipy.spatial._ckdtree" and hasattr(tree, "cKDTree")
print("ok")
"""


def test_loaders_at_once_load_each_module_once():
    # eight threads released together all get the one module of each kind,
    # and none gets it before it is fully loaded
    assert fresh_python(LOADERS_AT_ONCE) == "ok"


TABLE1_CHILD = """
import sys
from sortkern import _pool, cli

workers = int(sys.argv[1])
_pool._worker_count = lambda: workers
sys.exit(cli.main(["table1", "--d", "3", "--n", "50,500", "--trials", "4",
                   "--candidates", "20000", "--out", sys.argv[2]]))
"""


def test_pooled_table1_loads_the_tree_once(tmp_path):
    # the pool's threads reach their first kd-tree together
    one, pooled = tmp_path / "one.csv", tmp_path / "pooled.csv"
    fresh_python(TABLE1_CHILD, "1", str(one))
    fresh_python(TABLE1_CHILD, "4", str(pooled))
    assert pooled.read_bytes() == one.read_bytes()


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


CHILD_DIGEST = """
import hashlib, sys
import numpy as np
from sortkern import _linalg

setup, inputs, broken = sys.argv[1:]
if setup == "before":
    import scipy.linalg, scipy.spatial
elif setup == "missing":
    _linalg._extension_path = lambda name: None
elif setup == "broken":
    _linalg._extension_path = lambda name: broken
G, y, X, C = np.load(inputs).values()
parts = [_linalg.shifted_solve(G.copy(), y, 0.0), _linalg.eigh(G.copy()),
         _linalg.cKDTree(X).query(C)[0]]
standalone = "scipy.linalg" not in sys.modules and "scipy.spatial" not in sys.modules
if setup == "after":
    import scipy.linalg, scipy.spatial
    # the public modules reuse the loaded ones
    assert scipy.linalg.lapack.dpotrf is _linalg.load().dpotrf
    assert scipy.spatial.cKDTree is _linalg._kdtree_module().cKDTree
h = hashlib.sha256()
for part in parts:
    h.update(np.ascontiguousarray(part).tobytes())
print(standalone, h.hexdigest())
"""


@pytest.mark.parametrize("setup, standalone", [
    ("alone", True), ("after", True), ("before", False), ("missing", False), ("broken", False)])
def test_same_bits_with_and_without_public_scipy(setup, standalone, tmp_path):
    # scipy.linalg and scipy.spatial imported after or before the standalone
    # load, and the public modules standing in for a missing file and for
    # one that fails to load, all give the public functions' bits
    rng = stream(41)
    X, C = rng.random((150, 3)), rng.random((2000, 3))
    G, y = gram(KernelSpec(1.0, 0.3), KernelMode.PLAIN, X), rng.normal(size=150)
    np.savez(tmp_path / "inputs.npz", G=G, y=y, X=X, C=C)
    broken = tmp_path / "broken.so"
    broken.write_bytes(b"not a shared object")
    want = digest([scipy.linalg.cho_solve(scipy.linalg.cho_factor(G, lower=True), y),
                   scipy.linalg.eigh(G, eigvals_only=True), cKDTree(X).query(C)[0]])
    got = fresh_python(CHILD_DIGEST, setup, str(tmp_path / "inputs.npz"), str(broken))
    assert got == f"{standalone} {want}"


# the modules the kd-tree load stands in for, and what they would load
STOOD_IN = ("scipy.sparse", "scipy._lib._util")
HEAVY = (*STOOD_IN, "scipy._lib._array_api", "numpy.f2py", "numpy.testing", "numpy.ma")

TREE_QUERY = """
import sys
import numpy as np
from sortkern import _linalg

def bare():
    # the stood-in names whose module in sys.modules has no file of its own
    return [n for n in {names} if n in sys.modules and "__file__" not in vars(sys.modules[n])]

def query():
    rng = np.random.default_rng(5)
    return _linalg.cKDTree(rng.random((40, 2))).query(rng.random((300, 2)))[0]
"""


def tree_child(code, *args):
    return fresh_python(TREE_QUERY.format(names=STOOD_IN) + code, *args)


def test_fill_distance_loads_no_heavy_module():
    # the d <= 4 fill path loads the kd-tree without scipy.sparse and what it
    # loads; numpy.matrixlib, always loaded, shares a prefix with numpy.ma
    loaded = tree_child(
        "from sortkern.geometry import Domain, fill_distance_estimate\n"
        "rng = np.random.default_rng(3)\n"
        "fill_distance_estimate(rng.random((30, 2)), Domain.CUBE, rng.random((500, 2)))\n"
        "assert 'scipy.spatial._ckdtree' in sys.modules and 'numpy.matrixlib' in sys.modules\n"
        f"print(sorted(m for m in sys.modules if any(m == h or m.startswith(h + '.') for h in {HEAVY})))")
    assert loaded == "[]"


def test_tree_load_leaves_no_stand_in():
    # neither name stays imported, and the module keeps the real scipy
    # package and scipy's own copy_if_needed, and no module of either name
    assert tree_child(
        "query()\n"
        f"print(bare(), [n for n in {STOOD_IN} if n in sys.modules])\n"
        "tree = _linalg._kdtree_module()\n"
        f"held = [k for k, v in vars(tree).items() if getattr(v, '__name__', None) in {STOOD_IN}]\n"
        "import scipy._lib._util\n"
        "print(held, tree.scipy is sys.modules['scipy'],"
        " tree.copy_if_needed is scipy._lib._util.copy_if_needed)") == "[] []\n[] True True"


def test_later_scipy_imports_get_the_real_modules():
    # the public package reuses the loaded class, and scipy.sparse, which the
    # class needs only for sparse_distance_matrix, imports for real
    assert tree_child(
        "query()\n"
        "import scipy.spatial, scipy.sparse\n"
        "assert scipy.spatial.cKDTree is _linalg._kdtree_module().cKDTree\n"
        "t = scipy.spatial.cKDTree(np.eye(3))\n"
        "D = t.sparse_distance_matrix(t, 1.5)\n"
        "assert scipy.sparse.issparse(D) and type(D).__module__.startswith('scipy.sparse.')\n"
        "print(bare(), scipy.sparse.__file__ is not None, D.nnz)") == "[] True 9"


def test_imported_scipy_sparse_stays_the_same_object():
    assert tree_child(
        "import scipy.sparse\n"
        "before = sys.modules['scipy.sparse']\n"
        "query()\n"
        "print(sys.modules['scipy.sparse'] is before, bare())") == "True []"


WINDOW_IMPORT = """
import threading, time
opened, done = threading.Event(), threading.Event()
exec_module = _linalg._exec

def held_open(name, path):
    # the load with its stand-ins in place waits until the importing thread
    # is blocked on an import lock
    if bare():
        opened.set()
        done.wait(30)
    return exec_module(name, path)

_linalg._exec = held_open
got = {}

def importer():
    opened.wait(30)
    ns = {}
    try:
        exec(sys.argv[1], ns)
        got["module"] = sys.modules[ns["m"] if isinstance(ns["m"], str) else ns["m"].__name__]
    except BaseException as e:
        got["error"] = repr(e)

def blocked(thread):
    frame = sys._current_frames().get(thread.ident)
    return frame is not None and frame.f_code.co_name == "acquire" and "importlib" in frame.f_code.co_filename

def release(thread):
    opened.wait(30)
    got["blocked"] = any(blocked(thread) or time.sleep(0.001) for _ in range(10000))
    done.set()

t = threading.Thread(target=importer)
r = threading.Thread(target=release, args=(t,))
t.start(); r.start()
query()
t.join(30); r.join(30)
assert not t.is_alive() and not r.is_alive()
print(got.get("error"), got["blocked"], hasattr(got.get("module"), "__file__"), bare())
"""


@pytest.mark.parametrize("statement", [
    "import scipy.sparse as m",
    "from scipy.sparse import csr_matrix; m = csr_matrix.__module__",
    "from scipy._lib._util import check_random_state; m = check_random_state.__module__",
    "import scipy.sparse.linalg as m",
])
def test_import_on_another_thread_waits_for_the_real_module(statement):
    # a thread that imports a stood-in module while the load runs waits on
    # its import lock, then gets the real module, also through a name read
    # from the stand-in (`from ... import`) or a submodule of it
    assert tree_child(WINDOW_IMPORT, statement) == "None True True []"


@pytest.mark.parametrize("setup", [
    # a _ckdtree that reads a name the stand-ins lack
    "_linalg._STAND_INS['scipy.spatial._ckdtree']['scipy._lib._util'] = {}",
    # an importlib without the private module-lock API
    "import importlib.util, importlib.machinery, types\n"
    "sys.modules['importlib._bootstrap'] = types.ModuleType('importlib._bootstrap')",
])
def test_load_without_working_stand_ins_takes_the_plain_path(setup):
    # the load runs again without stand-ins, importing scipy.sparse, and its
    # queries give the public class's bits
    rng = np.random.default_rng(5)
    X, C = rng.random((40, 2)), rng.random((300, 2))
    want = digest([cKDTree(X).query(C)[0]])
    got = tree_child(
        f"import hashlib\n{setup}\n"
        "print(hashlib.sha256(query().tobytes()).hexdigest(), bare(), 'scipy.sparse' in sys.modules,"
        " _linalg._kdtree_module().copy_if_needed)")
    assert got == f"{want} [] True None"
