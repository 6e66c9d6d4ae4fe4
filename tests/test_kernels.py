"""Kernels: evaluation modes, Gram assembly, derivative sup-constants."""

import math
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from scipy.linalg import cholesky

import _oracles as oracle
from conftest import pool_threads
from sortkern import _pool, kernels
from sortkern.errors import CapExceededError, ConfigError, DimensionMismatchError, DuplicateOrbitError
from sortkern.interpolation import make_invariant_target
from sortkern.kernels import (
    KernelMode,
    KernelSpec,
    gram,
    kernel_cross,
    kernel_value,
    sup_kernel_constant,
)
from sortkern.spectral import nystrom_spectrum

AMP = 1.0 / (2.0 * math.pi)
# slack for the exact-sup oracle's own rounding, far below the grid's misses
# (up to 1.2% at a bandwidth of 1e-3)
ORACLE_RTOL = 1e-12


def unit_kernel(bandwidth=1.0):
    return KernelSpec(amplitude=AMP, bandwidth=bandwidth)


def gauss(w, z, amp=AMP, sig=1.0):
    w, z = np.asarray(w, float), np.asarray(z, float)
    return amp * math.exp(-np.sum((w - z) ** 2) / (2.0 * sig * sig))


def brute_eval(mode, w, z, amp=AMP, sig=1.0):
    # direct enumeration over permutation group elements
    w, z = np.asarray(w, float), np.asarray(z, float)
    d = len(w)
    perms = list(permutations(range(d)))
    if mode is KernelMode.PLAIN:
        return gauss(w, z, amp, sig)
    if mode is KernelMode.SORTED:
        return gauss(np.sort(w)[::-1], np.sort(z)[::-1], amp, sig)
    return sum(gauss(w[list(p)], z, amp, sig) for p in perms) / len(perms)


def brute_double(w, z, amp=AMP, sig=1.0):
    # the two-sided group average over all (d!)^2 permutation pairs
    w, z = np.asarray(w, float), np.asarray(z, float)
    perms = list(permutations(range(len(w))))
    total = sum(
        gauss(w[list(p)], z[list(q)], amp, sig) for p in perms for q in perms)
    return total / len(perms) ** 2


class TestEval:
    def test_plain_at_coincident_points(self):
        k = unit_kernel()
        assert kernel_value(k, KernelMode.PLAIN, [0.3, 0.4], [0.3, 0.4]) == pytest.approx(AMP, rel=1e-15)

    def test_sorted_same_orbit(self):
        k = unit_kernel()
        v = kernel_value(k, KernelMode.SORTED, [0.0, 0.2], [0.2, 0.0])
        assert v == pytest.approx(AMP, rel=1e-15)

    def test_perm_double_enumeration(self):
        # the Gaussian is invariant under joint permutations, so the one-sided
        # group average equals the two-sided (d!)^2 double enumeration
        k = unit_kernel()
        rng = np.random.default_rng(4)
        pairs = [([0.0, 0.2], [0.2, 0.0])]
        pairs += [(rng.random(d), rng.random(d)) for d in (1, 2, 3, 4)]
        for w, z in pairs:
            v = kernel_value(k, KernelMode.PERM_SINGLE, w, z)
            assert v == pytest.approx(brute_double(w, z), rel=1e-14)

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_matches_brute_enumeration(self, mode):
        rng = np.random.default_rng(5)
        k = KernelSpec(amplitude=0.7, bandwidth=0.9)
        for d in (1, 2, 3):
            w, z = rng.random(d), rng.random(d)
            got = kernel_value(k, mode, w, z)
            assert got == pytest.approx(brute_eval(mode, w, z, 0.7, 0.9), rel=1e-13)

    def test_sorted_equals_plain_on_sorted_inputs(self):
        rng = np.random.default_rng(6)
        k = unit_kernel()
        W, Z = rng.random((8, 4)), rng.random((8, 4))
        Ws = np.sort(W, 1)[:, ::-1]
        Zs = np.sort(Z, 1)[:, ::-1]
        a = kernel_cross(k, KernelMode.SORTED, W, Z)
        b = kernel_cross(k, KernelMode.PLAIN, Ws, Zs)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", [KernelMode.SORTED, KernelMode.PERM_SINGLE])
    def test_permutation_invariance(self, mode):
        rng = np.random.default_rng(7)
        k = unit_kernel()
        d = 3
        w, z = rng.random(d), rng.random(d)
        base = kernel_value(k, mode, w, z)
        for p in permutations(range(d)):
            for q in permutations(range(d)):
                v = kernel_value(k, mode, w[list(p)], z[list(q)])
                assert v == pytest.approx(base, abs=1e-12)

    def test_diagonal_dominance(self):
        # strict form holds for Plain and Sorted; the averaged mode only obeys
        # the positive-semidefinite Cauchy-Schwarz form (the average over
        # mismatched permutation pairs can exceed the averaged diagonal)
        rng = np.random.default_rng(9)
        k = unit_kernel()
        for _ in range(20):
            w, z = rng.random(3), rng.random(3)
            for mode in (KernelMode.PLAIN, KernelMode.SORTED):
                assert kernel_value(k, mode, w, w) >= kernel_value(k, mode, w, z)
            mode = KernelMode.PERM_SINGLE
            kww = kernel_value(k, mode, w, w)
            kzz = kernel_value(k, mode, z, z)
            kwz = kernel_value(k, mode, w, z)
            assert kwz * kwz <= kww * kzz + 1e-15

    def test_factorial_caps(self):
        k = unit_kernel()
        assert kernel_value(k, KernelMode.PERM_SINGLE, np.zeros(6), np.zeros(6)) > 0.0
        with pytest.raises(CapExceededError):
            kernel_value(k, KernelMode.PERM_SINGLE, np.zeros(7), np.zeros(7))

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.inf], [3.0, -2.0]])
    def test_invalid_points_rejected(self, bad):
        k = unit_kernel()
        ok = np.random.default_rng(2).random((4, 2))
        for mode in KernelMode:
            with pytest.raises(ConfigError):
                kernel_cross(k, mode, np.vstack([ok, bad]), ok)
            with pytest.raises(ConfigError):
                kernel_cross(k, mode, ok, np.vstack([bad, ok]))


class TestGram:
    def test_single_point(self):
        k = unit_kernel()
        # d=1: every mode coincides with the plain kernel
        for mode in KernelMode:
            G = gram(k, mode, [[0.4]])
            assert G.shape == (1, 1)
            assert G[0, 0] == pytest.approx(AMP, rel=1e-15)
        for mode in (KernelMode.PLAIN, KernelMode.SORTED):
            assert gram(k, mode, [[0.3, 0.6]])[0, 0] == pytest.approx(AMP, rel=1e-15)

    def test_duplicate_orbit_rejected(self):
        k = unit_kernel()
        with pytest.raises(DuplicateOrbitError):
            gram(k, KernelMode.SORTED, [[0.1, 0.2], [0.2, 0.1]])

    def test_plain_cholesky_succeeds(self):
        k = unit_kernel()
        X = np.random.default_rng(10).random((10, 3))
        L = cholesky(gram(k, KernelMode.PLAIN, X), lower=True)
        assert np.all(np.diag(L) > 0)

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_exact_symmetry(self, mode):
        rng = np.random.default_rng(11)
        k = unit_kernel()
        X = rng.random((25, 4))
        G = gram(k, mode, X)
        assert np.array_equal(G, G.T)

    def test_entries_match_eval(self):
        rng = np.random.default_rng(12)
        k = unit_kernel()
        X = rng.random((6, 3))
        for mode in KernelMode:
            G = gram(k, mode, X)
            for i in range(6):
                for j in range(i, 6):
                    assert G[i, j] == pytest.approx(kernel_value(k, mode, X[i], X[j]), rel=1e-13)

    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("n", [1, 2, kernels._MIRROR_ROWS - 1, kernels._MIRROR_ROWS,
                                   kernels._MIRROR_ROWS + 1, 2000])
    def test_banded_mirror_matches_index_mirror(self, mode, n):
        # the bands copy the entries the strict lower triangle's index
        # gather copied, bit for bit
        k = unit_kernel(0.3)
        X = np.random.default_rng(n).random((n, 3))
        want = kernels._cross(k, mode, X, X)
        il = np.tril_indices(n, -1)
        want[il] = want.T[il]
        assert np.array_equal(gram(k, mode, X).view(np.uint64), want.view(np.uint64))


def enum_cross(k, mode, W, Z):
    return oracle.kernel_cross_enum(k.amplitude, k.bandwidth, mode.value, W, Z)


def buffer_count(mode, d):
    # working buffers of one tile of kernel_cross in this mode and dimension
    return kernels._buffer_count(len(kernels._plan(kernels._terms(mode, d))[0]), d)


def tile_geometry(m, mode, d):
    # (rows per tile, elements per buffer) that kernel_cross uses for m
    # columns in this mode and dimension, under the current _TILE_ELEMS
    nbuf = buffer_count(mode, d)
    return kernels._tile_rows(m, nbuf), kernels._buffer_elems(nbuf)


class TestBitIdentity:
    """The tiled evaluator against the direct enumeration, with array_equal."""

    K = KernelSpec(amplitude=AMP, bandwidth=0.3)

    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_rows_around_one_tile(self, mode, d):
        rng = np.random.default_rng(40 + d)
        Z = rng.random((7, d))
        rows, _ = tile_geometry(7, mode, d)
        for n in (rows - 1, rows, rows + 1):
            W = rng.random((n, d))
            assert np.array_equal(kernel_cross(self.K, mode, W, Z),
                                  enum_cross(self.K, mode, W, Z))

    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_one_column_and_columns_over_budget(self, mode, d):
        rng = np.random.default_rng(60 + d)
        _, budget = tile_geometry(1, mode, d)
        assert tile_geometry(budget + 1, mode, d)[0] == 1
        for n, m in ((9, 1), (3, budget + 1)):
            W, Z = rng.random((n, d)), rng.random((m, d))
            assert np.array_equal(kernel_cross(self.K, mode, W, Z),
                                  enum_cross(self.K, mode, W, Z))

    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_many_small_tiles(self, mode, d, monkeypatch):
        # a tiny budget puts a few rows in each tile, so the distance
        # levels are rebuilt on every tile; eight tiles, the last one ragged
        monkeypatch.setattr(kernels, "_TILE_ELEMS", 16)
        rows, _ = tile_geometry(5, mode, d)
        rng = np.random.default_rng(80 + d)
        W, Z = rng.random((8 * rows - 1, d)), rng.random((5, d))
        k = KernelSpec(amplitude=0.7, bandwidth=0.08)
        assert np.array_equal(kernel_cross(k, mode, W, Z), enum_cross(k, mode, W, Z))

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_empty_design(self, mode):
        Z = np.random.default_rng(3).random((4, 3))
        got = kernel_cross(self.K, mode, np.empty((0, 3)), Z)
        assert got.shape == (0, 4)
        assert np.array_equal(got, enum_cross(self.K, mode, np.empty((0, 3)), Z))

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_gram_symmetric_across_tiles(self, mode, monkeypatch):
        monkeypatch.setattr(kernels, "_TILE_ELEMS", 16)
        X = np.random.default_rng(13).random((30, 3))
        G = gram(self.K, mode, X)
        assert np.array_equal(G, G.T)
        iu = np.triu_indices(30)
        assert np.array_equal(G[iu], enum_cross(self.K, mode, X, X)[iu])


@pytest.mark.parametrize("mode", list(KernelMode))
@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("m", [1, 7, 1280, 5000])
def test_tile_scratch_budget(mode, d, m):
    # a thread's scratch is at most 2 MiB, or 16384 elements per buffer where
    # the buffers outnumber 16; the averaged mode at d >= 5 keeps exactly
    # those 16384-element buffers, so its peak memory cannot grow unnoticed
    nbuf = buffer_count(mode, d)
    rows, _ = tile_geometry(m, mode, d)
    scratch = nbuf * rows * m * 8
    assert scratch <= max(2 * 1024 * 1024, nbuf * 16384 * 8)
    if mode is KernelMode.PERM_SINGLE and d >= 5:
        assert scratch == nbuf * max(1, 16384 // m) * m * 8


class TestEvaluatorPool:
    """The evaluator's row tiles fanned out over the caller and helper threads."""

    K = KernelSpec(amplitude=0.7, bandwidth=0.08)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("mode", list(KernelMode))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_workers_match_enumeration(self, workers, mode, d, monkeypatch):
        # 7 columns and a budget of 20 give tiles of 2 to 22 rows; 19 tiles
        # less one row give each thread several, and a ragged last one
        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        monkeypatch.setattr(kernels, "_TILE_ELEMS", 20)
        rows, _ = tile_geometry(7, mode, d)
        rng = np.random.default_rng(100 + d)
        W, Z = rng.random((19 * rows - 1, d)), rng.random((7, d))
        assert np.array_equal(kernel_cross(self.K, mode, W, Z), enum_cross(self.K, mode, W, Z))

    def test_overflowing_divide_is_silent_on_every_thread(self, monkeypatch):
        # numpy keeps its error state per thread, so each helper sets its own
        monkeypatch.setattr(_pool, "_worker_count", lambda: 2)
        monkeypatch.setattr(kernels, "_TILE_ELEMS", 4)
        k = KernelSpec(amplitude=1.0, bandwidth=1e-160)
        W = np.random.default_rng(5).random((200, 2))
        for mode in KernelMode:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kernel_cross(k, mode, W, W[:3])
            with np.errstate(over="ignore"):
                want = enum_cross(k, mode, W, W[:3])
            assert np.array_equal(got, want) and got[:3].diagonal().all()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failing_tile_is_raised_and_joins_helpers(self, workers, monkeypatch):
        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        monkeypatch.setattr(kernels, "_TILE_ELEMS", 8)
        fan_out = kernels._fan_out
        ran = []

        def failing(fn, keys):
            keys = list(keys)
            bad = keys[len(keys) // 2]

            def tile(r0):
                ran.append(r0)
                if r0 == bad:
                    raise FloatingPointError(f"tile {r0} failed")
                return fn(r0)

            return fan_out(tile, keys)

        monkeypatch.setattr(kernels, "_fan_out", failing)
        W = np.random.default_rng(6).random((400, 3))
        with pytest.raises(FloatingPointError, match="tile 200 failed"):
            kernel_cross(self.K, KernelMode.PERM_SINGLE, W, W[:4])
        assert pool_threads() == []
        assert 200 in ran and len(ran) < 200


class TestSupConstants:
    def test_nu0_is_amplitude(self):
        c0, cnu = sup_kernel_constant(unit_kernel(), 0, 3)
        assert c0 == AMP
        assert cnu == AMP

    def test_nu1_d1(self):
        _, c1 = sup_kernel_constant(unit_kernel(), 1, 1)
        assert c1 == pytest.approx(1.01 * AMP * math.exp(-0.5), rel=1e-6)

    def test_nu2_at_least_amplitude(self):
        c0, c2 = sup_kernel_constant(unit_kernel(), 2, 1)
        assert c2 >= c0
        assert c2 == pytest.approx(1.01 * AMP, rel=1e-9)

    def test_c0_always_amplitude(self):
        k = KernelSpec(amplitude=0.37, bandwidth=0.8)
        for nu in (0, 1, 2, 3):
            c0, _ = sup_kernel_constant(k, nu, 4)
            assert c0 == 0.37

    @pytest.mark.parametrize("nu,d,sig", [(1, 2, 1.0), (2, 2, 0.8), (3, 2, 1.2), (3, 1, 0.7), (4, 3, 1.0)])
    def test_matches_multiindex_enumeration(self, nu, d, sig):
        # independent oracle: enumerate every mixed derivative multi-index
        # (alpha, beta) with |alpha| + |beta| = nu; the Gaussian factorizes,
        # so each coordinate's factor maximizes separately on a 1-D grid
        amp = 0.5
        t = np.linspace(-1.0, 1.0, 40001)
        phi = np.exp(-t * t / (2.0 * sig * sig))

        def envelope(g):
            c = np.zeros(g + 1)
            c[g] = 1.0
            return np.max(np.abs(hermite_e.hermeval(t / sig, c)) * phi) / sig ** g

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for head in range(total + 1):
                for rest in compositions(total - head, parts - 1):
                    yield (head,) + rest

        best = 0.0
        for s in range(nu + 1):
            # alpha takes order s, beta the remaining nu - s
            for alpha in compositions(s, d):
                for beta in compositions(nu - s, d):
                    prod = 1.0
                    for a, b in zip(alpha, beta):
                        prod *= envelope(a + b) / (math.factorial(a) * math.factorial(b))
                    best = max(best, prod)
        want = amp * best
        k = KernelSpec(amplitude=amp, bandwidth=sig)
        _, got = sup_kernel_constant(k, nu, d)
        assert got / 1.01 == pytest.approx(want, rel=1e-6)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            KernelSpec(amplitude=0.0, bandwidth=1.0)
        with pytest.raises(ConfigError):
            KernelSpec(amplitude=1.0, bandwidth=-1.0)
        with pytest.raises(ConfigError):
            sup_kernel_constant(unit_kernel(), -1, 2)


class TestSmallBandwidth:
    """Bandwidth limits of the kernel and of its derivative constants."""

    def test_underflowing_scale_rejected(self):
        # -2 * bw^2 rounds to zero at 1e-300, but not at 1e-160
        with pytest.raises(ConfigError, match="bandwidth"):
            KernelSpec(amplitude=1.0, bandwidth=1e-300)
        k = KernelSpec(amplitude=1.0, bandwidth=1e-160)
        assert kernel_value(k, KernelMode.PLAIN, [0.5], [0.5]) == 1.0

    def test_overflowing_divide_is_silent(self):
        # below about 1e-154 the squared distance over -2 bw^2 overflows to
        # -inf, and exp(-inf) = 0 is the exact value
        k = KernelSpec(amplitude=1.0, bandwidth=1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_cross(k, KernelMode.PLAIN, [[0.1, 0.2]], [[0.3, 0.4]]) == 0.0
            assert kernel_cross(k, KernelMode.SORTED, [[0.1, 0.2]], [[0.2, 0.1]]) == 1.0

    @pytest.mark.parametrize("bw", [9.99e-4, 1e-4, 1e-5, 1e-100])
    def test_small_bandwidth_bounds_exact_sup(self, bw):
        # below 1e-3 the grid misses the derivative peaks, and the exact
        # peaks take over, so no accepted bandwidth is refused
        k = KernelSpec(amplitude=1.0, bandwidth=bw)
        for nu, d in ((1, 2), (3, 1), (2, 3)):
            got = sup_kernel_constant(k, nu, d)[1]
            assert math.isfinite(got)
            assert got >= oracle.sup_kernel_constant_exact(1.0, bw, nu, d) * (1.0 - ORACLE_RTOL)
        # nu = 0 needs no envelope: the constant is the amplitude
        assert sup_kernel_constant(k, 0, 2) == (1.0, 1.0)

    def test_smallest_accepted_bandwidth(self):
        sig = 1e-3
        _, c1 = sup_kernel_constant(KernelSpec(amplitude=1.0, bandwidth=sig), 1, 1)
        assert c1 == pytest.approx(1.01 * math.exp(-0.5) / sig, rel=1e-6)

    def test_envelope_overflow_is_inf(self):
        # sigma^-110 overflows a float; no numpy warning escapes
        k = KernelSpec(amplitude=1.0, bandwidth=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sup_kernel_constant(k, 110, 1)[1] == math.inf

    # C_Knu at (nu, d) = (1, 1), (2, 3), (3, 2), (4, 5), (6, 2), as computed
    # by the grid alone, before the bandwidth limits and exact peaks were added
    @pytest.mark.parametrize("bw, want", [
        (0.08, ["0x1.37fe18a79821ep+0", "0x1.91ddc155be7d7p+4", "0x1.b14c958d56420p+7",
                "0x1.ea8f32812b082p+11", "0x1.c11ed9dd01c59p+18"]),
        (1.0, ["0x1.8f59b92870cf4p-4", "0x1.49357502a8566p-3", "0x1.c658ec616e6aep-4",
               "0x1.49357502a8566p-3", "0x1.edd02f83fc819p-4"]),
    ])
    def test_reference_bandwidths_keep_their_bits(self, bw, want):
        k = KernelSpec(amplitude=0.15915494309189535, bandwidth=bw)
        got = [sup_kernel_constant(k, nu, d)[1]
               for nu, d in ((1, 1), (2, 3), (3, 2), (4, 5), (6, 2))]
        assert got == [float.fromhex(h) for h in want]


@settings(max_examples=40, deadline=None)
@given(log_bw=st.floats(-6.0, 1.0), nu=st.integers(1, 12), d=st.integers(1, 12))
@example(log_bw=-3.0, nu=11, d=1)
@example(log_bw=-3.0, nu=7, d=1)
def test_sup_constant_bounds_exact_sup(log_bw, nu, d):
    bw = 10.0 ** log_bw
    _, got = sup_kernel_constant(KernelSpec(amplitude=AMP, bandwidth=bw), nu, d)
    assert got >= oracle.sup_kernel_constant_exact(AMP, bw, nu, d) * (1.0 - ORACLE_RTOL)


class TestCheckedOnce:
    """Checks that each live in one place still guard every entry point."""

    @pytest.mark.parametrize("entry, mode", [
        *((name, KernelMode.PERM_SINGLE) for name in
          ("kernel_cross", "gram", "nystrom_spectrum", "make_invariant_target")),
    ])
    def test_averaged_cap_at_d7(self, entry, mode):
        k = unit_kernel()
        X = np.random.default_rng(3).random((4, 7))
        calls = {
            "kernel_cross": lambda: kernel_cross(k, mode, X, X),
            "gram": lambda: gram(k, mode, X),
            "nystrom_spectrum": lambda: nystrom_spectrum(k, mode, 4, 7, seed=1),
            "make_invariant_target": lambda: make_invariant_target(k, 7, 3, seed=1),
        }
        with pytest.raises(CapExceededError, match="averaged"):
            calls[entry]()

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_gram_rejects_nan_design(self, mode):
        with pytest.raises(ConfigError, match="finite"):
            gram(unit_kernel(), mode, [[0.1, 0.2], [np.nan, 0.5]])

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_kernel_value_rejects_matrices(self, mode):
        k = unit_kernel()
        W = [[0.1, 0.2], [0.9, 0.9]]
        Z = [[0.1, 0.2], [0.5, 0.5]]
        for w, z in ((W, Z), (W, Z[0]), (W[0], Z), (0.5, 0.5)):
            with pytest.raises(DimensionMismatchError):
                kernel_value(k, mode, w, z)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), n=st.integers(1, 6), m=st.integers(1, 6),
       levels=st.sampled_from([0, 2, 5]), seed=st.integers(0, 2 ** 32 - 1))
def test_sorted_kernel_bitwise_permutation_invariant(d, n, m, levels, seed):
    # levels > 0 snaps coordinates to a coarse grid, so rows carry ties
    g = np.random.default_rng(seed)
    W, Z = g.random((n, d)), g.random((m, d))
    if levels:
        W, Z = np.round(W * levels) / levels, np.round(Z * levels) / levels
    k = unit_kernel(bandwidth=float(g.uniform(0.05, 2.0)))
    base = kernel_cross(k, KernelMode.SORTED, W, Z)

    def shuffle_rows(A):
        # an independent random permutation of each row's coordinates
        return np.take_along_axis(A, np.argsort(g.random(A.shape), axis=1), axis=1)

    assert np.array_equal(kernel_cross(k, KernelMode.SORTED, shuffle_rows(W), Z), base)
    assert np.array_equal(kernel_cross(k, KernelMode.SORTED, W, shuffle_rows(Z)), base)
