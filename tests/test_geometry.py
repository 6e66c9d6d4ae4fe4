"""Geometry: sort map, orbits, fill-distance estimation, coverings, cones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import _oracles as oracle
from sortkern import experiments, geometry, interpolation, kernels, spectral
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
        for dom, srt in ((Domain.CUBE, False), (Domain.SORTED_SIMPLEX, True)):
            got = fill_distance_estimate(X, dom, C)
            assert got == pytest.approx(brute_fill(X, C, srt), rel=1e-12)

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
    @pytest.mark.parametrize("warm,chunk,prescan", [(1, 7, 32), (64, 100, 16), (511, 4096, 32)])
    def test_bit_identical_small_warm_and_chunks(self, kind, warm, chunk, prescan, monkeypatch):
        # many survivor chunks, and a running maximum that moves between them
        X, C = adversarial_cloud(kind, 6, 300, 6000, seed=warm + chunk)
        monkeypatch.setattr(geometry, "_PRUNE_PRESCAN", prescan)
        monkeypatch.setattr(geometry, "_PRUNE_WARM", warm)
        monkeypatch.setattr(geometry, "_PRUNE_CHUNK", chunk)
        want = oracle.maxmin_sq_pruned(X, C, prescan=prescan, warm=warm, chunk=chunk)
        assert geometry._maxmin_sq_pruned(X, C) == want

    @pytest.mark.parametrize("kind", ["lattice", "duplicates", "all_tied"])
    def test_visit_order_matches_stable_sort(self, kind):
        # warm set and survivors in the order a stable argsort of every
        # score visits them, with tied scores across the warm boundary
        X, C = adversarial_cloud(kind, 6, 200, 4165, seed=1)
        xsq = np.einsum("ij,ij->i", X, X)
        m = geometry._prescan_sq(X, C, xsq, np.einsum("ij,ij->i", C, C), 32)
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
        assert np.array_equal(geometry._prescan_sq(X, C, xsq, csq, 32), T.min(axis=1) + csq)

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


class TestChecksPerCall:
    """Range checks and sorted rows per public call in sorted mode.

    The sort map and the orbit check validate their input once; the layers
    above call their unchecked forms on input they have validated, so no
    other call checks or sorts more than before the sort map validated.
    """

    # (range checks, rows sorted) for a 5-point design and 7 query points
    # at d = 3, 3 target atoms and 6 Nystrom samples
    EXPECTED = {
        "fit": (4, 15), "gram": (3, 15), "kernel_cross": (2, 12),
        "kernel_value": (4, 2), "make_invariant_target": (3, 9),
        "target_value": (1, 10), "nystrom_spectrum": (3, 18), "evaluate": (1, 12),
        "interpolant_norm_sq": (3, 15), "fill_distance_estimate": (1, 12),
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
