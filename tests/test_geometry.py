"""Geometry: sort map, orbits, fill-distance estimation, coverings, cones."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import _oracles as oracle
from sortkern import experiments, geometry, interpolation, kernels, spectral
from sortkern.bounds import subcube_classification
from sortkern.errors import CapExceededError, ConfigError, DimensionMismatchError
from sortkern.experiments import Experiment, ExperimentConfig
from sortkern.geometry import (
    ConeParams,
    Domain,
    as_design,
    as_point,
    ball_volume,
    cone_condition_holds,
    cone_parameters,
    covering_design,
    cube_corners,
    distinct_orbits,
    fill_distance_estimate,
    simplex_inradius,
    sort_point,
    sort_points,
)
from sortkern.kernels import KernelMode, KernelSpec


def brute_fill(X, C, sorted_metric=False):
    # independent max-min oracle via a dense distance matrix
    X = np.asarray(X, float)
    C = np.asarray(C, float)
    if sorted_metric:
        X = np.sort(X, axis=1)[:, ::-1]
        C = np.sort(C, axis=1)[:, ::-1]
    return cdist(C, X).min(axis=1).max()


class TestSortPoint:
    def test_descending(self):
        assert np.array_equal(sort_point([0.2, 0.7, 0.1]), [0.7, 0.2, 0.1])

    def test_already_sorted_identity(self):
        assert np.array_equal(sort_point([0.9, 0.5, 0.5]), [0.9, 0.5, 0.5])

    def test_singleton(self):
        assert np.array_equal(sort_point([0.4]), [0.4])

    def test_idempotent_and_norm_preserving(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 7):
            p = rng.random(d)
            s = sort_point(p)
            assert np.array_equal(sort_point(s), s)
            assert math.isclose(np.linalg.norm(s), np.linalg.norm(p), rel_tol=1e-15)
            assert sorted(s) == sorted(p)

    @pytest.mark.parametrize("shape", [(0, 3), (5, 1), (4097, 2), (10000, 5), (9000, 12)])
    def test_rows_descending_across_blocks(self, shape):
        # negation is exact and sorting only moves values, so the sort map
        # equals the reversed ascending sort bit for bit
        X = np.random.default_rng(13).random(shape)
        X[:, :1] = X[:, -1:]  # ties between the first and last column
        want = np.sort(X, axis=1)[:, ::-1].view(np.uint64)
        for arg in (X, np.asfortranarray(X), X[::-1].copy()[::-1]):
            S = sort_points(arg)
            assert S.flags.c_contiguous and np.array_equal(S.view(np.uint64), want)

    @pytest.mark.parametrize("d", [2, 3, 6, 12])
    def test_trial_candidates_sorted_in_place_bitwise(self, d, tmp_path):
        # the candidate arrays of the fill trials, cube corners included
        c = ExperimentConfig(experiment=Experiment.TABLE1, kernel=KernelSpec(1.0, 1.0),
                             dims=(d,), candidate_count=5000,
                             out_path=str(tmp_path / "x.csv"))
        _, C = experiments._trial_draws(c, 1, d, 50, 0)
        want = np.sort(C, axis=1)[:, ::-1].view(np.uint64)
        geometry._sort_rows_in_place(C)
        assert np.array_equal(C.view(np.uint64), want)

    def test_rowwise_matches_pointwise(self):
        rng = np.random.default_rng(12)
        X = rng.random((40, 5))
        S = sort_points(X)
        for i in range(40):
            assert np.array_equal(S[i], sort_point(X[i]))


class TestDistinctOrbits:
    def test_same_orbit(self):
        assert distinct_orbits([[0.1, 0.2], [0.2, 0.1]]) is False

    def test_distinct(self):
        assert distinct_orbits([[0.1, 0.2], [0.3, 0.1]]) is True

    def test_single_point(self):
        assert distinct_orbits([[0.5, 0.5]]) is True

    @pytest.mark.parametrize("X, want", [
        (np.empty((0, 3)), True),
        ([[0.3, 0.1]], True),
        ([[0.3, 0.1], [0.3, 0.1]], False),
        ([[0.3, 0.1], [0.1, 0.3]], False),
        ([[0.5, 0.25, 0.0], [0.0, 0.5, 0.25], [1.0, 0.5, 0.25]], False),
        ([[0.5, 0.25, 0.0], [0.25, 0.5, 0.5], [1.0, 0.5, 0.25]], True),
        ([[0.0, 0.5], [0.5, -0.0]], False),
        ([[-0.0, -0.0], [0.0, 0.0], [1.0, 0.0]], False),
        ([[0.25, 0.0], [0.5, 0.25], [1.0, 0.0], [0.0, 1.0]], False),
        ([[0.25], [0.5], [0.25]], False),
    ])
    def test_matches_unique_rows(self, X, want):
        # rows equal after the sort map, with -0.0 equal to +0.0, are one orbit,
        # as np.unique(axis=0) counts them
        X = np.asarray(X, dtype=float)
        assert (np.unique(sort_points(X), axis=0).shape[0] == X.shape[0]) is want
        assert distinct_orbits(X) is want


class TestFillDistance:
    def test_center_to_corners(self):
        h = fill_distance_estimate([[0.5, 0.5]], Domain.CUBE, cube_corners(2))
        assert h == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_design_covers_candidates(self):
        rng = np.random.default_rng(3)
        X = rng.random((20, 3))
        assert fill_distance_estimate(X, Domain.CUBE, X) == 0.0

    def test_simplex_vertices(self):
        C = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        h = fill_distance_estimate([[1.0, 0.0]], Domain.SORTED_SIMPLEX, C)
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_empty_candidates(self):
        with pytest.raises(ConfigError):
            fill_distance_estimate([[0.5, 0.5]], Domain.CUBE, np.empty((0, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fill_distance_estimate([[0.5, 0.5]], Domain.CUBE, [[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize("d", [2, 6])
    @pytest.mark.parametrize("dom", list(Domain))
    def test_invalid_design_rejected(self, d, dom):
        # both the kd-tree path (d <= 4) and the pruned scan validate the
        # design: a NaN design used to return nan, a scaled one a number
        rng = np.random.default_rng(90 + d)
        X, C = rng.random((60, d)), rng.random((800, d))
        bad_nan = X.copy()
        bad_nan[3, 1] = np.nan
        for bad in (bad_nan, 3.0 * X):
            with pytest.raises(ConfigError):
                fill_distance_estimate(bad, dom, C)

    @pytest.mark.parametrize("d,n,nc", [(2, 60, 500), (3, 150, 800), (4, 40, 300)])
    def test_matches_brute_force_tree_path(self, d, n, nc):
        rng = np.random.default_rng(100 + d)
        X, C = rng.random((n, d)), rng.random((nc, d))
        for dom in Domain:
            got = fill_distance_estimate(X, dom, C)
            assert same_bits(got, one_tree_query(X, C, dom))

    @pytest.mark.parametrize("d,n,nc", [(5, 80, 3000), (6, 700, 5000), (9, 1500, 20000)])
    def test_matches_brute_force_pruned_path(self, d, n, nc):
        rng = np.random.default_rng(200 + d)
        X, C = rng.random((n, d)), rng.random((nc, d))
        for dom, srt in ((Domain.CUBE, False), (Domain.SORTED_SIMPLEX, True)):
            got = fill_distance_estimate(X, dom, C)
            assert got == pytest.approx(brute_fill(X, C, srt), rel=1e-12)

    def test_pruned_path_with_duplicate_candidates(self):
        # candidates equal to design rows must prune to zero distance cleanly
        rng = np.random.default_rng(7)
        X = rng.random((300, 6))
        C = np.vstack([X, rng.random((4000, 6))])
        got = fill_distance_estimate(X, Domain.CUBE, C)
        assert got == pytest.approx(brute_fill(X, C), rel=1e-12)


def in_domain(X, C, dom):
    # design and candidates in the domain's coordinates, C-contiguous
    if dom is Domain.SORTED_SIMPLEX:
        X, C = sort_points(X), np.sort(C, axis=1)[:, ::-1]
    return np.ascontiguousarray(X), np.ascontiguousarray(C)


def in_domain_pairs(X, C):
    # (design, candidates) in the cube's and in the sorted simplex's
    # coordinates, C-contiguous
    return [in_domain(X, C, dom) for dom in Domain]


def one_tree_query(X, C, dom):
    # the kd-tree path's oracle: one query of every candidate in the domain's
    # coordinates
    from scipy.spatial import cKDTree

    X, C = in_domain(X, C, dom)
    return float(cKDTree(X).query(C, k=1)[0].max())


def same_bits(a, b):
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


def adversarial_cloud(kind, d, n, nc, seed):
    # a design and candidates built to stress the pruned scan's ordering
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        # coordinates on a 5-level lattice: prescan scores tie exactly,
        # also across the warm-set boundary
        return rng.integers(0, 5, (n, d)) / 4.0, rng.integers(0, 5, (nc, d)) / 4.0
    X = rng.random((n, d))
    if kind == "uniform":
        C = rng.random((nc, d))
    elif kind == "duplicates":
        C = rng.random((nc // 5 + 1, d))[rng.integers(0, nc // 5 + 1, nc)]
    elif kind == "design_rows":
        C = np.vstack([X[rng.integers(0, n, nc // 2)], rng.random((nc - nc // 2, d))])
    elif kind == "all_tied":
        C = np.repeat(rng.random((1, d)), nc, axis=0)
    return X, C


class TestPrunedScanOracle:
    """The tiled prescan and partial selection against the full-argsort scan,
    compared with ==: same warm set, same visiting order, same float."""

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates", "design_rows", "all_tied"])
    @pytest.mark.parametrize("d", [5, 6, 9, 12])
    @pytest.mark.parametrize("n", [32, 33, 200])
    @pytest.mark.parametrize("nc", [512, 513, 4165])
    def test_bit_identical(self, kind, d, n, nc):
        X, C = adversarial_cloud(kind, d, n, nc, seed=1000 * d + 10 * n + nc % 7)
        for A, B in ((X, C), (sort_points(X), sort_points(C))):
            A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
            assert geometry._maxmin_sq_pruned(A, B) == oracle.maxmin_sq_pruned(A, B)

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates", "design_rows"])
    @pytest.mark.parametrize("warm,chunk,prescan",
                             [(1, 7, 32), (64, 100, 16), (64, 100, 8), (511, 4096, 32), (8000, 4096, 32)])
    def test_bit_identical_small_warm_and_chunks(self, kind, warm, chunk, prescan, monkeypatch):
        # many survivor chunks, and a running maximum that moves between
        # them; a warm set larger than the 6000 candidates holds them all
        X, C = adversarial_cloud(kind, 6, 300, 6000, seed=warm + chunk)
        monkeypatch.setattr(geometry, "_PRUNE_PRESCAN", prescan)
        monkeypatch.setattr(geometry, "_PRUNE_WARM", warm)
        monkeypatch.setattr(geometry, "_PRUNE_CHUNK", chunk)
        want = oracle.maxmin_sq_pruned(X, C, prescan=prescan, warm=warm, chunk=chunk)
        assert geometry._maxmin_sq_pruned(X, C) == want

    @pytest.mark.parametrize("d", [5, 6, 12])
    @pytest.mark.parametrize("nc", [1, 2, 3, 511, 512, 513, 5000])
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 513, 4097])
    def test_degenerate_shapes_bit_identical(self, n, nc, d):
        # a one-row or one-column product goes through gemv, which can round
        # differently from a block; a prescan that saw every design point
        # still sends the warm set through the exact pass
        rng = np.random.default_rng(10000 * d + 10 * n + nc)
        for A, B in in_domain_pairs(rng.random((n, d)), rng.random((nc, d))):
            got = np.float64(geometry._maxmin_sq_pruned(A, B))
            assert got.view(np.uint64) == np.float64(oracle.maxmin_sq_pruned(A, B)).view(np.uint64)

    def test_exact_pass_sees_only_the_warm_set(self, monkeypatch):
        # the prescan of a 10-point design sees every point: the exact loop
        # runs once, on the warm set, and on no other candidate
        rng = np.random.default_rng(16)
        X, C = rng.random((10, 6)), rng.random((200_000, 6))
        exact, rows = geometry._exact_max_sq, []

        def counted(c, *args):
            rows.append(c.shape[0])
            return exact(c, *args)

        monkeypatch.setattr(geometry, "_exact_max_sq", counted)
        assert geometry._maxmin_sq_pruned(X, C) == oracle.maxmin_sq_pruned(X, C)
        assert len(rows) == 1 and rows[0] <= 512

    @pytest.mark.parametrize("d", [6, 12])
    def test_peak_memory_is_bounded(self, d):
        # every product after the prescan is formed in one 2 MiB buffer, so
        # a pass stays below one d = 12 candidate array (19.2 MB)
        rng = np.random.default_rng(d)
        for X, C in in_domain_pairs(rng.random((5000, d)), rng.random((200_000, d))):
            tracemalloc.start()
            try:
                geometry._fill_distance(X, C)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16e6

    @pytest.mark.parametrize("d", [6, 12])
    def test_pass_holds_one_score_array(self, d):
        # the float32 screen is the one array as long as the candidates: no
        # float64 score array, no array of candidate norms, and the warm set
        # copies no score array
        rng = np.random.default_rng(d)
        for X, C in in_domain_pairs(rng.random((50, d)), rng.random((200_000, d))):
            tracemalloc.start()
            try:
                geometry._maxmin_sq_pruned(X, C)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * (4 * C.shape[0] + 8 * geometry._BLOCK_ELEMS)

    @pytest.mark.parametrize("kind", ["lattice", "duplicates", "all_tied"])
    def test_visit_order_matches_stable_sort(self, kind):
        # warm set and survivors in the order a stable argsort of every
        # score visits them, with tied scores across the warm boundary
        X, C = adversarial_cloud(kind, 6, 200, 4165, seed=1)
        xsq = np.einsum("ij,ij->i", X, X)
        buf = np.empty(geometry._BLOCK_ELEMS)
        m = geometry._prescan_sq(-2.0 * X, C, xsq, 32, buf)
        order = np.argsort(-m, kind="stable")
        assert m[order[511]] == m[order[512]]
        top = geometry._warm_set(m, 512)
        assert np.array_equal(top, order[:512])
        for h2 in np.unique(m)[::7]:
            rest = order[512:]
            assert np.array_equal(geometry._survivors(m, top, h2), rest[m[rest] > h2])

    @pytest.mark.parametrize("nc", [2047, 2048, 2049, 4096 + 63])
    def test_prescan_tiles_match_one_product(self, nc):
        # ragged last tiles: the score of every candidate is the one the
        # single (N, 32) product gives
        rng = np.random.default_rng(nc)
        X, C = rng.random((100, 9)), rng.random((nc, 9))
        xsq, csq = np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", C, C)
        T = C @ X[:32].T
        T *= -2.0
        T += xsq[:32][None, :]
        buf = np.empty(geometry._BLOCK_ELEMS)
        assert np.array_equal(geometry._prescan_sq(-2.0 * X, C, xsq, 32, buf), T.min(axis=1) + csq)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(5, 9), n=st.integers(1, 120), nc=st.integers(1, 1500),
           seed=st.integers(0, 2 ** 32 - 1), levels=st.sampled_from([0, 2, 5]),
           repeat=st.booleans())
    def test_equals_brute_force(self, d, n, nc, seed, levels, repeat):
        rng = np.random.default_rng(seed)
        X, C = rng.random((n, d)), rng.random((nc, d))
        if levels:
            X, C = np.round(X * (levels - 1)) / (levels - 1), np.round(C * (levels - 1)) / (levels - 1)
        if repeat:
            C = np.vstack([C, X, C[: nc // 2]])
        want = cdist(C, X, "sqeuclidean").min(axis=1).max()
        assert abs(geometry._maxmin_sq_pruned(X, C) - want) <= 1e-12

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates", "design_rows", "all_tied"])
    @pytest.mark.parametrize("d", [5, 6, 12])
    @pytest.mark.parametrize("n", [10, 200])
    def test_screen_within_its_bound(self, kind, d, n):
        # |v - m| <= E for every candidate, the bound every screened
        # decision rests on
        X, C = adversarial_cloud(kind, d, n, 5000, seed=10 * d + n)
        for A, B in in_domain_pairs(X, C):
            m, (v, E) = prescan_and_screen(A, B)
            assert v.dtype == np.float32 and 0.0 < E < 1e-3
            assert np.all(np.abs(v.astype(float) - m) <= E)
            assert_pruned_matches_oracle(A, B)

    @pytest.mark.parametrize("scale", [2.0 ** 51, 1e20, 1e39, 1e150])
    @pytest.mark.parametrize("n", [10, 200])
    def test_float32_overflow_takes_the_float64_prescan(self, scale, n, monkeypatch):
        # a few candidates past the screen's safe range: at 2^51, R^2 exceeds
        # 2^100; at 1e20 their float32 squares overflow, at 1e39 the cast
        # itself; at 1e150 every float32 step does, while the float64
        # squares stay finite
        rng = np.random.default_rng(7)
        X, C = rng.random((n, 6)), rng.random((5000, 6))
        C[::997] *= scale
        assert prescan_and_screen(X, C)[1] is None
        full, prescan = [], geometry._prescan_sq

        def spy(X2, C, xsq, k0, buf, idx=None):
            full.append(idx is None)
            return prescan(X2, C, xsq, k0, buf, idx)

        monkeypatch.setattr(geometry, "_prescan_sq", spy)
        assert_pruned_matches_oracle(X, C)
        assert full[0]

    @pytest.mark.parametrize("scale", [1e-20, 1e-39, 1e-310])
    def test_subnormal_coordinates(self, scale):
        # at 1e-20 the float32 squares are subnormal, at 1e-39 the float32
        # coordinates too and at 1e-310 the float64 ones: the screen keeps
        # few or no bits of the scores, which the bound's absolute term covers
        rng = np.random.default_rng(8)
        X, C = scale * rng.random((200, 6)), scale * rng.random((3000, 6))
        for A, B in in_domain_pairs(X, C):
            m, (v, E) = prescan_and_screen(A, B)
            assert np.all(np.abs(v.astype(float) - m) <= E)
            assert_pruned_matches_oracle(A, B)

    @pytest.mark.parametrize("shift,scale", [(-1.0, 3.0), (1e3, 1.0), (-2e6, 4e6)])
    def test_out_of_cube_candidates(self, shift, scale):
        # finite candidates outside the cube, which fill_distance_estimate
        # accepts: the screen still runs, with a bound that grows with them
        rng = np.random.default_rng(9)
        X, C = rng.random((200, 6)), shift + scale * rng.random((5000, 6))
        for A, B in in_domain_pairs(X, C):
            m, (v, E) = prescan_and_screen(A, B)
            assert np.all(np.abs(v.astype(float) - m) <= E)
            assert_pruned_matches_oracle(A, B)
        want = np.float64(math.sqrt(oracle.maxmin_sq_pruned(X, C)))
        assert same_bits(fill_distance_estimate(X, Domain.CUBE, C), want)

    @pytest.mark.parametrize("kind", ["lattice", "near_tied"])
    def test_warm_set_is_the_stable_sorts(self, kind, monkeypatch):
        # the exact pass gets the warm set that a stable sort of every
        # float64 score picks, in that order: on a lattice cloud whose 512th
        # and 513th best-first scores tie, and on 4000 candidates within
        # 3e-7 of one point, where the sample floor is the 512th largest
        # screen score itself and float32 rounding reorders the scores
        if kind == "lattice":
            X, C = adversarial_cloud("lattice", 6, 200, 20_000, seed=5)
        else:
            rng = np.random.default_rng(5)
            X, C = rng.random((200, 6)), rng.random(6) + 3e-7 * rng.random((4000, 6))
        m = prescan_and_screen(X, C)[0]
        order = np.argsort(-m, kind="stable")
        if kind == "lattice":
            assert m[order[511]] == m[order[512]]
        passes, exact = [], geometry._exact_max_sq

        def recorded(c, *args):
            passes.append(c.copy())
            return exact(c, *args)

        monkeypatch.setattr(geometry, "_exact_max_sq", recorded)
        assert_pruned_matches_oracle(X, C)
        assert np.array_equal(passes[0], C[order[:512]])

    def test_survivor_just_above_the_warm_max(self):
        # 512 far candidates, each on a later design point's doorstep, are
        # the warm set; one candidate past the first design point, whose
        # distance beats theirs by E/4, must survive on its screen score
        rng = np.random.default_rng(11)
        near = np.vstack([np.zeros((1, 6)), 0.01 + 0.09 * rng.random((31, 6))])
        far = 0.5 + 0.5 * rng.random((512, 6))
        step = rng.normal(size=(512, 6))
        X = np.vstack([near, far + 0.01 * step / np.linalg.norm(step, axis=1, keepdims=True)])
        C = np.vstack([far, near + 1e-6 * rng.random((32, 6))])
        h2 = oracle.maxmin_sq_pruned(X, C)
        E = prescan_and_screen(X, C)[1][1]
        C = np.vstack([C, -math.sqrt((h2 + E / 4) / 6) * np.ones((1, 6))])
        assert oracle.maxmin_sq_pruned(X, C) > h2
        assert_pruned_matches_oracle(X, C)

    @pytest.mark.parametrize("n", [10, 200])
    @pytest.mark.parametrize("nc", [2047, 2049, 7000])
    def test_gathered_scores_match_the_full_pass(self, n, nc):
        # random and ragged index subsets, sorted or not and with repeats,
        # gathered tile by tile: each row gets the float of the full pass
        rng = np.random.default_rng(nc + n)
        X, C = rng.random((n, 9)), rng.random((nc, 9))
        xsq = np.einsum("ij,ij->i", X, X)
        buf = np.empty(geometry._BLOCK_ELEMS)
        full = geometry._prescan_sq(-2.0 * X, C, xsq, min(32, n), buf)
        for size in sorted({1, 63, 64, min(2048, nc), min(2049, nc), nc}):
            for idx in (np.sort(rng.choice(nc, size, replace=False)), rng.integers(0, nc, size)):
                got = geometry._prescan_sq(-2.0 * X, C, xsq, min(32, n), buf, idx)
                assert np.array_equal(got.view(np.uint64), full[idx].view(np.uint64))

    def test_thresholds_round_toward_inclusion(self):
        rng = np.random.default_rng(10)
        for t in np.concatenate([rng.normal(size=1000), [0.0, 1e-45, -1e-45, 2.0 ** -149]]):
            r = geometry._at_most(float(t), np.dtype(np.float32))
            assert r.dtype == np.float32 and float(r) <= t
            assert float(np.nextafter(r, np.float32(np.inf))) > t
            assert geometry._at_most(float(t), np.dtype(float)) == t


def prescan_and_screen(X, C):
    # the float64 prescan scores of X's first design points and the float32
    # screen of them, (v, E) or None, as _maxmin_sq_pruned forms both
    xsq = np.einsum("ij,ij->i", X, X)
    k0 = min(geometry._PRUNE_PRESCAN, X.shape[0])
    buf = np.empty(max(geometry._BLOCK_ELEMS, 64 * (k0 + X.shape[1])))
    m = geometry._prescan_sq(-2.0 * X, C, xsq, k0, buf)
    return m, geometry._screen_sq(-2.0 * X, C, xsq, k0, buf)


def assert_pruned_matches_oracle(X, C):
    got = np.float64(geometry._maxmin_sq_pruned(X, C))
    assert got.view(np.uint64) == np.float64(oracle.maxmin_sq_pruned(X, C)).view(np.uint64)


def warm_scores(kind, N, seed):
    # scores for the warm-set selection: tied, on few levels, or with every
    # high score off the sample's stride
    rng = np.random.default_rng(seed)
    if kind == "all_tied":
        return np.full(N, 0.25)
    if kind == "levels":
        return rng.integers(0, 5, N) / 4.0
    if kind == "off_stride":
        m = np.zeros(N)
        m[1::2] = rng.random(N // 2)
        return m
    return rng.random(N)


class TestWarmSet:
    """_warm_set against the first `warm` indices of a stable sort of -m."""

    @staticmethod
    def check(m, warm):
        want = np.argsort(-m, kind="stable")[:warm]
        assert np.array_equal(geometry._warm_set(m, warm), want)

    @pytest.mark.parametrize("kind", ["uniform", "levels", "all_tied", "off_stride"])
    @pytest.mark.parametrize("warm", [1, 7, 512])
    def test_sizes_around_the_sample(self, kind, warm):
        # N = 1, N = warm, and N on both sides of 16 and 32 times warm, where
        # the sample's stride goes from 1 to 2
        for N in sorted({1, warm, 16 * warm - 1, 16 * warm, 16 * warm + 1,
                         32 * warm - 1, 32 * warm + 1, 200 * warm + 3}):
            m = warm_scores(kind, N, seed=N + warm)
            self.check(m, min(warm, N))

    def test_ties_straddle_the_threshold(self):
        m = warm_scores("levels", 40_000, seed=3)
        order = np.argsort(-m, kind="stable")
        assert m[order[510]] == m[order[511]] == m[order[512]]
        self.check(m, 512)

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates", "design_rows", "all_tied"])
    @pytest.mark.parametrize("n", [32, 200])
    def test_prescan_scores(self, kind, n):
        X, C = adversarial_cloud(kind, 6, n, 20_000, seed=n)
        for A, B in in_domain_pairs(X, C):
            xsq = np.einsum("ij,ij->i", A, A)
            buf = np.empty(geometry._BLOCK_ELEMS)
            self.check(geometry._prescan_sq(-2.0 * A, B, xsq, 32, buf), 512)


class TestCandidateValidation:
    @pytest.mark.parametrize("d", [2, 6])
    @pytest.mark.parametrize("n", [20, 60])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_candidates_rejected(self, d, n, bad):
        # kd-tree path (d <= 4) and pruned scan, with and without the
        # prescan; 1e200 is finite but its square overflows
        rng = np.random.default_rng(d + n)
        X, C = rng.random((n, d)), rng.random((900, d))
        C[417, d - 1] = bad
        for dom in Domain:
            with pytest.raises(ConfigError, match="finite"):
                fill_distance_estimate(X, dom, C)

    @pytest.mark.parametrize("d", [2, 6])
    def test_out_of_range_candidates_allowed(self, d):
        rng = np.random.default_rng(30 + d)
        X, C = rng.random((60, d)), 3.0 * rng.random((900, d)) - 1.0
        got = fill_distance_estimate(X, Domain.CUBE, C)
        assert got == pytest.approx(brute_fill(X, C), rel=1e-12)

    @pytest.mark.parametrize("shape", [(900,), (900, 0), (900, 2, 1)])
    def test_candidate_shape_blames_the_candidates(self, shape):
        with pytest.raises(DimensionMismatchError, match="^candidates must have shape"):
            fill_distance_estimate(np.full((5, 2), 0.5), Domain.CUBE, np.zeros(shape))


class TestDominance:
    def test_rearrangement_pairs(self):
        # sorting two points never increases their distance
        rng = np.random.default_rng(42)
        for d in (2, 3, 5, 8, 12):
            W = rng.random((20000, d))
            Z = rng.random((20000, d))
            plain = np.linalg.norm(W - Z, axis=1)
            srt = np.linalg.norm(np.sort(W, 1) - np.sort(Z, 1), axis=1)
            assert np.all(srt <= plain + 1e-12)

    @pytest.mark.parametrize("d", [2, 3, 6, 9])
    def test_fill_distance_dominance(self, d):
        rng = np.random.default_rng(50 + d)
        X = rng.random((100, d))
        C = rng.random((5000, d))
        hs = fill_distance_estimate(X, Domain.SORTED_SIMPLEX, C)
        h = fill_distance_estimate(X, Domain.CUBE, C)
        assert hs <= h + 1e-12


class TestCovering:
    def test_cube_2d_example(self):
        X = covering_design(math.sqrt(2) / 4, 2, Domain.CUBE)
        want = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        assert set(map(tuple, X)) == want

    def test_simplex_2d_example(self):
        X = covering_design(math.sqrt(2) / 4, 2, Domain.SORTED_SIMPLEX)
        want = {(0.25, 0.25), (0.75, 0.25), (0.75, 0.75)}
        assert set(map(tuple, X)) == want

    def test_1d_example(self):
        for dom in Domain:
            X = covering_design(0.6, 1, dom)
            assert set(map(tuple, X)) == {(0.25,), (0.75,)}

    @pytest.mark.parametrize("eps,d", [(0.4, 2), (0.3, 3), (0.35, 5)])
    def test_covers_random_points(self, eps, d):
        rng = np.random.default_rng(60 + d)
        C = rng.random((10000, d))
        Xc = covering_design(eps, d, Domain.CUBE)
        assert brute_fill(Xc, C) <= eps + 1e-12
        Xs = covering_design(eps, d, Domain.SORTED_SIMPLEX)
        assert brute_fill(Xs, C, sorted_metric=True) <= eps + 1e-12

    def test_simplex_never_larger_and_2d_count(self):
        for eps, d in ((0.2, 2), (0.1, 2), (0.2, 3)):
            nc = len(covering_design(eps, d, Domain.CUBE))
            ns = len(covering_design(eps, d, Domain.SORTED_SIMPLEX))
            assert ns <= nc
            if d == 2:
                q = round(math.sqrt(nc))
                assert ns == q * (q + 1) // 2

    def test_epsilon_validation(self):
        with pytest.raises(ConfigError):
            covering_design(0.0, 2, Domain.CUBE)
        with pytest.raises(ConfigError):
            covering_design(1.0, 2, Domain.CUBE)

    def test_point_count_cap(self):
        with pytest.raises(CapExceededError):
            covering_design(0.01, 8, Domain.CUBE)


class TestCones:
    def test_cube_d4(self):
        cp = cone_parameters(4, Domain.CUBE)
        assert cp.theta == pytest.approx(math.pi / 6, abs=1e-15)
        assert cp.radius == 0.5

    def test_simplex_d4(self):
        cp = cone_parameters(4, Domain.SORTED_SIMPLEX)
        assert cp.theta == pytest.approx(math.asin(1 / 8), abs=1e-15)
        assert cp.radius == pytest.approx(0.1, abs=1e-15)

    def test_d1_clamped(self):
        for dom in Domain:
            cp = cone_parameters(1, dom)
            assert cp.theta == pytest.approx(math.pi / 2 - 1e-9, abs=1e-15)
            assert cp.theta < math.pi / 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            ConeParams(theta=math.pi / 2, radius=0.5)
        with pytest.raises(ConfigError):
            ConeParams(theta=0.3, radius=0.0)

    def test_condition_examples(self):
        assert cone_condition_holds(0.01, 1, 2, Domain.CUBE) is True
        assert cone_condition_holds(0.1, 1, 2, Domain.CUBE) is False
        assert cone_condition_holds(0.001, 1, 2, Domain.SORTED_SIMPLEX) is True

    def test_condition_validation(self):
        with pytest.raises(ConfigError):
            cone_condition_holds(0.0, 1, 2, Domain.CUBE)
        with pytest.raises(ConfigError):
            cone_condition_holds(0.01, 0, 2, Domain.CUBE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_condition_rejects_non_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            cone_condition_holds(bad, 1, 2, Domain.CUBE)


class TestHelpers:
    def test_cube_corners(self):
        c = cube_corners(3)
        assert c.shape == (8, 3)
        assert set(map(tuple, c)) == {tuple(b) for b in np.indices((2,) * 3).reshape(3, -1).T}
        assert cube_corners(20).shape == (0, 20)

    def test_ball_volume(self):
        assert ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)

    def test_simplex_inradius(self):
        assert simplex_inradius(1) == pytest.approx(0.5, rel=1e-15)
        assert simplex_inradius(2) < simplex_inradius(1)

    def test_validators(self):
        with pytest.raises(ConfigError):
            as_point([0.5, 1.5])
        with pytest.raises(DimensionMismatchError):
            as_point([[0.5]])
        with pytest.raises(ConfigError):
            as_design([[0.5, -0.1]])
        with pytest.raises(DimensionMismatchError):
            as_design([0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validators_reject_non_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            as_point([0.5, bad])
        with pytest.raises(ConfigError, match="finite"):
            as_design([[0.5, 0.2], [bad, 0.1]])


class TestSortPointShape:
    @pytest.mark.parametrize("bad", [0.5, [[0.1, 0.2], [0.3, 0.4]], [[0.4, 0.2]]])
    def test_non_vectors_rejected(self, bad):
        with pytest.raises(DimensionMismatchError):
            sort_point(bad)

    def test_matches_sort_points_row(self):
        X = np.random.default_rng(4).random((5, 4))
        for row, srt in zip(X, sort_points(X)):
            assert np.array_equal(sort_point(row), srt)


class TestSortValidation:
    @pytest.mark.parametrize("bad", [[3.0, -2.0], [math.nan, 0.5], [0.5, math.inf], [1.5, 0.5]])
    def test_sort_map_rejects(self, bad):
        with pytest.raises(ConfigError):
            sort_point(bad)
        with pytest.raises(ConfigError):
            sort_points([bad])
        with pytest.raises(ConfigError):
            distinct_orbits([bad, bad])

    def test_distinct_orbits_shape(self):
        with pytest.raises(DimensionMismatchError):
            distinct_orbits([0.1, 0.2])


K_WIDTH = KernelSpec(1.0, 0.5)
ROWS2, ROWS3 = np.full((4, 2), 0.5), np.full((4, 3), 0.5)


def fitted_at_d2():
    return interpolation.fit(K_WIDTH, KernelMode.PLAIN, [[0.1, 0.2], [0.7, 0.4]], [1.0, 2.0])


class TestWidthRule:
    """as_point and as_design own the width rule, with one message for every caller."""

    @pytest.mark.parametrize("call, want, got", [
        (lambda: kernels.kernel_cross(K_WIDTH, KernelMode.PLAIN, ROWS3, ROWS2), 3, "4, 2"),
        (lambda: kernels.kernel_cross(K_WIDTH, KernelMode.PLAIN, ROWS2, ROWS3), 2, "4, 3"),
        (lambda: kernels.kernel_value(K_WIDTH, KernelMode.SORTED, [0.1, 0.2, 0.3], [0.1, 0.2]),
         3, "2,"),
        (lambda: interpolation.evaluate(fitted_at_d2(), ROWS3), 2, "4, 3"),
        (lambda: interpolation.evaluate(fitted_at_d2(), [0.1, 0.2, 0.3]), 2, "3,"),
        (lambda: interpolation.make_invariant_target(K_WIDTH, 3, 2, seed=1).value(ROWS2),
         3, "4, 2"),
        (lambda: subcube_classification([0.1, 0.2, 0.3], 0.01, 1, 2), 2, "3,"),
        (lambda: fill_distance_estimate(ROWS2, Domain.CUBE, ROWS3), 3, "4, 2"),
    ], ids=["kernel_cross_z", "kernel_cross_w", "kernel_value", "evaluate_rows",
            "evaluate_point", "target_value", "subcube_classification",
            "fill_distance_estimate"])
    def test_wrong_width_has_one_message(self, call, want, got):
        pattern = (r"^(point must have shape \(d,\) with|design must have shape \(n, d\) "
                   rf"with n >= \d+ and) d = {want}, got shape \({got}\)$")
        with pytest.raises(DimensionMismatchError, match=pattern):
            call()


class TestChecksPerCall:
    """Range checks and sorted rows per public call in sorted mode.

    Each public call checks each array argument once and then calls the
    unchecked forms below it; a call that draws its own arrays checks none.
    """

    # (range checks, rows sorted) for a 5-point design and 7 query points
    # at d = 3, 3 target atoms and 6 Nystrom samples
    EXPECTED = {
        "fit": (1, 15), "gram": (1, 15), "kernel_cross": (2, 12),
        "kernel_value": (2, 2), "make_invariant_target": (0, 9),
        "target_value": (1, 10), "nystrom_spectrum": (0, 18), "evaluate": (1, 12),
        "interpolant_norm_sq": (1, 15), "fill_distance_estimate": (1, 12),
        "sort_point": (1, 1), "sort_points": (1, 5), "distinct_orbits": (1, 5),
    }

    def test_counts(self, monkeypatch):
        k, mode = KernelSpec(1.0, 0.5), KernelMode.SORTED
        X = np.random.default_rng(0).random((5, 3))
        P = np.random.default_rng(1).random((7, 3))
        y = X.sum(axis=1)
        f = interpolation.fit(k, mode, X, y)
        target = interpolation.make_invariant_target(k, 3, 3, seed=1)
        calls = {
            "fit": lambda: interpolation.fit(k, mode, X, y),
            "gram": lambda: kernels.gram(k, mode, X),
            "kernel_cross": lambda: kernels.kernel_cross(k, mode, X, P),
            "kernel_value": lambda: kernels.kernel_value(k, mode, X[0], P[0]),
            "make_invariant_target": lambda: interpolation.make_invariant_target(k, 3, 3, seed=1),
            "target_value": lambda: target.value(P),
            "nystrom_spectrum": lambda: spectral.nystrom_spectrum(k, mode, 6, 3, seed=2),
            "evaluate": lambda: interpolation.evaluate(f, P),
            "interpolant_norm_sq": lambda: interpolation.interpolant_norm_sq(f),
            "fill_distance_estimate":
                lambda: fill_distance_estimate(X, Domain.SORTED_SIMPLEX, P),
            "sort_point": lambda: sort_point(X[0]),
            "sort_points": lambda: sort_points(X),
            "distinct_orbits": lambda: distinct_orbits(X),
        }
        counts = [0, 0]
        check, sort_rows = geometry._check_unit_range, geometry._sort_rows_in_place

        def counted_check(A, what):
            counts[0] += 1
            check(A, what)

        def counted_sort(A):
            counts[1] += A.shape[0]
            sort_rows(A)

        monkeypatch.setattr(geometry, "_check_unit_range", counted_check)
        monkeypatch.setattr(geometry, "_sort_rows_in_place", counted_sort)
        got = {}
        for name, call in calls.items():
            counts[:] = [0, 0]
            call()
            got[name] = tuple(counts)
        assert got == self.EXPECTED


class TestTreeWorkers:
    """Whatever the pool's worker count, the kd-tree path queries on its caller's thread."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", range(1, 5))
    def test_workers_match_one_query(self, d, workers, monkeypatch):
        from scipy.spatial import cKDTree

        from sortkern import _pool

        rng = np.random.default_rng(500 + d)
        X, C = rng.random((37, d)), rng.random((4321, d))
        plain = one_tree_query(X, C, Domain.CUBE)
        srt = min(one_tree_query(X, C, Domain.SORTED_SIMPLEX), plain)
        threads = []

        class RecordingTree(cKDTree):
            def query(self, x, k=1, eps=0, p=2, distance_upper_bound=np.inf, workers=1):
                threads.append(workers)
                return super().query(x, k, eps, p, distance_upper_bound, workers)

        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        monkeypatch.setattr(geometry, "cKDTree", RecordingTree)
        assert same_bits(geometry._fill_distance(X, C), plain)
        got = geometry._fill_distances(X, C)
        assert same_bits(got[0], plain) and same_bits(got[1], srt)
        assert threads and set(threads) == {1}


# lattice levels per axis whose points fall on the grid's cell boundaries:
# (levels - 1) is a multiple of the cells per axis of levels^d candidates
BOUNDARY_LEVELS = {1: 65, 2: 17, 3: 7, 4: 5}


def tree_adversary(kind, d, seed):
    # a design and candidates built to stress the kd-tree path's cell bound
    rng = np.random.default_rng(seed)
    X = rng.random((40, d))
    if kind == "outside_cube":
        return X, 3.0 * rng.random((3000, d)) - 1.0
    if kind == "far_cluster":
        return X, 1e6 + 1e-6 * rng.random((3000, d))
    if kind == "cell_boundaries":
        q = BOUNDARY_LEVELS[d]
        C = np.indices((q,) * d).reshape(d, -1).T / (q - 1.0)
        return C[rng.integers(0, C.shape[0], 30)], C
    if kind == "far_design":
        # distances near 1 from candidates whose coordinates are near 1e-4:
        # the rounding of a distance is many ulps of the largest coordinate,
        # so only the relative widening makes the bound hold
        return 0.5 + 0.5 * X, 1e-4 * rng.uniform(0.5, 1.0) * rng.random((3000, d))
    if kind == "zero_span":
        return X, np.repeat(rng.random((1, d)), 3000, axis=0)
    if kind == "subnormal_span":
        # a span whose cell width is not a normal float: one cell, with
        # more candidates than the warm set, so its bound decides the rest
        return X, 1e-309 * rng.random((3000, d))
    if kind == "one_candidate":
        return X, rng.random((1, d))
    if kind == "design_rows":
        return X, np.vstack([X[rng.integers(0, 40, 2000)], rng.random((500, d))])
    # candidates within 1e-12 of a design point near 1.0, all on one side
    # of it, so at d = 1 the triangle inequality is tight, over a span that
    # leaves each rounded cell centre a random fraction of an ulp off: the
    # relative widening of bounds near 1e-12 covers far less than an ulp of
    # the coordinates, so only the absolute slack makes the bound hold
    p = 1.0 - 1e-13 * rng.random(d)
    return np.vstack([X, p]), p - 1e-12 * rng.uniform(0.5, 1.0) * rng.random((3000, d))


TREE_ADVERSARIES = ["outside_cube", "far_cluster", "cell_boundaries", "far_design", "zero_span",
                    "subnormal_span", "one_candidate", "design_rows", "near_design_point"]


class TestTreeGrid:
    """The kd-tree path's grid bound: the float of one full query, from few queries."""

    @pytest.mark.parametrize("kind", TREE_ADVERSARIES)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", range(1, 5))
    def test_adversaries_match_one_query(self, kind, d, workers, monkeypatch):
        # the (seed, domain) fills run on a pool of this many workers, as the
        # experiments' trials run theirs
        from sortkern import _pool

        cases = []
        for seed in range(3):
            X, C = tree_adversary(kind, d, 10 * d + seed)
            if kind == "cell_boundaries":
                q, k = BOUNDARY_LEVELS[d], geometry._grid_cells(C)[1]
                assert k > 1 and (q - 1) % k == 0
            cases += [(X, dom, C) for dom in Domain]
        monkeypatch.setattr(_pool, "_worker_count", lambda: workers)
        got = _pool._fan_out(lambda case: fill_distance_estimate(*case), cases)
        for (X, dom, C), h in zip(cases, got):
            assert same_bits(h, one_tree_query(X, C, dom))

    @pytest.mark.parametrize("kind", TREE_ADVERSARIES)
    @pytest.mark.parametrize("d", range(1, 5))
    def test_no_candidate_exceeds_its_cell_bound(self, kind, d):
        # the invariant the pruning rests on, for every candidate rather
        # than only for the maximum
        from scipy.spatial import cKDTree

        for seed in range(3):
            X, C = tree_adversary(kind, d, 10 * d + seed)
            for dom in Domain:
                A, B = in_domain(X, C, dom)
                tree = cKDTree(A)

                def nearest(P):
                    return tree.query(P, k=1)[0]

                assert np.all(nearest(B) <= geometry._cell_bounds(B, nearest))

    def test_queries_far_fewer_points_than_candidates(self, monkeypatch):
        from scipy.spatial import cKDTree

        queried = []

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(geometry, "cKDTree", CountingTree)
        rng = np.random.default_rng(3)
        X, C = rng.random((500, 3)), rng.random((200_000, 3))
        got = fill_distance_estimate(X, Domain.CUBE, C)
        monkeypatch.undo()
        assert same_bits(got, one_tree_query(X, C, Domain.CUBE))
        # the occupied cells' centres, the warm set and any survivors
        assert 2 <= len(queried) <= 3 and sum(queried) < 200_000 // 10

    def test_sorted_table1_pass_queries_few_points(self, monkeypatch):
        # table1's draw for (d = 3, n = 5000, trial 2) at its default seed:
        # its sorted pass queried 150k of 200k points when every candidate
        # that survived the warm cells went to one query
        from scipy.spatial import cKDTree

        queried = []

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        cfg = ExperimentConfig(experiment=Experiment.TABLE1, kernel=KernelSpec(1.0, 1.0))
        X, C = experiments._trial_draws(cfg, experiments._EXPERIMENT_IDS[Experiment.TABLE1], 3, 5000, 2)
        monkeypatch.setattr(geometry, "cKDTree", CountingTree)
        got = fill_distance_estimate(X, Domain.SORTED_SIMPLEX, C)
        monkeypatch.undo()
        assert same_bits(got, one_tree_query(X, C, Domain.SORTED_SIMPLEX))
        assert sum(queried) < 40_000


class TestOccupiedGrid:
    """The kd-tree path's finer grid, taken where many candidates beat the warm set."""

    @pytest.mark.parametrize("kind", TREE_ADVERSARIES)
    @pytest.mark.parametrize("d", range(1, 5))
    def test_finer_grids_bound_every_candidate(self, kind, d):
        # the occupied-share grid and grids of 2 and 3 times the cells per
        # axis keep the bound the pruning rests on
        from scipy.spatial import cKDTree

        X, C = tree_adversary(kind, d, 20 * d)
        for dom in Domain:
            A, B = in_domain(X, C, dom)
            tree = cKDTree(A)

            def nearest(P):
                return tree.query(P, k=1)[0]

            cell, k = geometry._grid_cells(B)[:2]
            share = np.count_nonzero(np.bincount(cell, minlength=k ** d)) / k ** d
            for fine in {geometry._cells_per_axis(*B.shape, share), 2 * k, 3 * k}:
                grid = geometry._grid_cells(B, fine)
                assert np.all(nearest(B) <= geometry._cell_bounds(B, nearest, grid))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sorted_cells_hold_about_16_candidates(self, d):
        # the share of the box sorted candidates occupy sizes the finer
        # grid; cube candidates occupy every cell, so theirs is the same
        N = 200_000
        C = np.random.default_rng(d).random((N, d))
        for B, finer in ((C, False), (sort_points(C), True)):
            cell, k = geometry._grid_cells(B)[:2]
            share = np.count_nonzero(np.bincount(cell, minlength=k ** d)) / k ** d
            fine = geometry._cells_per_axis(N, d, share)
            assert (fine > k) is finer
            occupied = np.count_nonzero(np.bincount(geometry._grid_cells(B, fine)[0]))
            assert 0.5 * N / 16 <= occupied <= 1.1 * N / 16

    def test_crowded_sorted_pass_takes_the_finer_grid(self, monkeypatch):
        # table1's draw for (d = 3, n = 5000, trial 5) at its default seed:
        # 145k of its 200k sorted candidates beat the warm set in the grid
        # of all cells, and the pass queried them all
        from scipy.spatial import cKDTree

        queried, grids = [], []

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        bounds = geometry._cell_bounds

        def recorded(C, nearest, grid=None):
            grids.append(grid[1])
            return bounds(C, nearest, grid)

        cfg = ExperimentConfig(experiment=Experiment.TABLE1, kernel=KernelSpec(1.0, 1.0))
        X, C = experiments._trial_draws(cfg, experiments._EXPERIMENT_IDS[Experiment.TABLE1], 3, 5000, 5)
        monkeypatch.setattr(geometry, "cKDTree", CountingTree)
        monkeypatch.setattr(geometry, "_cell_bounds", recorded)
        got = fill_distance_estimate(X, Domain.SORTED_SIMPLEX, C)
        monkeypatch.undo()
        assert same_bits(got, one_tree_query(X, C, Domain.SORTED_SIMPLEX))
        assert len(grids) == 2 and grids[1] > grids[0]
        assert sum(queried) < 40_000
