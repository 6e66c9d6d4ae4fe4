"""Interpolation: fitting, canonicalization, invariant targets, L2 error."""

import gc
import math
import re
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from sortkern.errors import ConfigError, DimensionMismatchError, DuplicateOrbitError, FactorizationError
from sortkern.interpolation import (
    Interpolant,
    InvariantTarget,
    evaluate,
    fit,
    interpolant_norm_sq,
    l2_error,
    make_invariant_target,
    rmse_stderr,
)
from sortkern import _linalg, _pool, interpolation, kernels
from sortkern.experiments import (
    _EXPERIMENT_IDS,
    INTERP_ATOMS,
    Experiment,
    ExperimentConfig,
    _trial_draws,
)
from sortkern.kernels import KernelMode, KernelSpec, gram, kernel_cross
from sortkern.rng import stream, substream_seed

AMP = 1.0 / (2.0 * math.pi)


def unit_kernel():
    return KernelSpec(amplitude=AMP, bandwidth=1.0)


def well_conditioned():
    """A plain-mode kernel, design and data whose fit needs no jitter."""
    X = np.random.default_rng(5).random((12, 3))
    return unit_kernel(), KernelMode.PLAIN, X, np.random.default_rng(6).normal(size=12)


def near_duplicate_orbits():
    """A sorted-mode kernel, design and data whose fit needs jitter.

    Eight points and their swapped copies moved by 1e-8 lie on nearly equal
    orbits, so the sorted Gram matrix's Cholesky fails unjittered; the
    data come from an invariant target, so a jittered fit reproduces them.
    """
    k = unit_kernel()
    B = np.random.default_rng(1).random((8, 2))
    X = np.vstack([B, B[:, ::-1] + 1e-8])
    return k, KernelMode.SORTED, X, make_invariant_target(k, 2, 3, seed=77).value(X)


def interp_lowd_trial():
    """The kernel, n = 1280 design and data of the interp_lowd benchmark's trial 0.

    The kernel is the benchmark's bandwidth-0.08 Gaussian with amplitude
    1/(2 pi), and the plain Gram matrix needs the first jitter rung.
    """
    k = KernelSpec(amplitude=AMP, bandwidth=0.08)
    cfg = ExperimentConfig(experiment=Experiment.INTERP_COMPARE, kernel=k, dims=(2,),
                           ns=(1280,), trials=1, seed=20240601)
    exp_id = _EXPERIMENT_IDS[Experiment.INTERP_COMPARE]
    X, _ = _trial_draws(cfg, exp_id, 2, 1280, 0)
    target = make_invariant_target(k, 2, INTERP_ATOMS,
                                   seed=substream_seed(cfg.seed, exp_id, 2, 0, 11))
    return k, KernelMode.PLAIN, X, target.value(X)


class TestFit:
    def test_single_point_solve(self):
        f = fit(unit_kernel(), KernelMode.PLAIN, [[0.5, 0.5]], [2.0])
        assert f.coeffs[0] == pytest.approx(4.0 * math.pi, rel=1e-13)
        assert f.jitter_used == 0.0

    def test_zero_data_zero_coeffs(self):
        rng = np.random.default_rng(1)
        X = rng.random((12, 3))
        for mode in (KernelMode.PLAIN, KernelMode.SORTED):
            f = fit(unit_kernel(), mode, X, np.zeros(12))
            assert np.all(f.coeffs == 0.0)

    def test_sorted_fit_residuals(self):
        k = unit_kernel()
        rng = np.random.default_rng(2)
        X = rng.random((20, 2))
        target = make_invariant_target(k, 2, 3, seed=77)
        y = target.value(X)
        f = fit(k, KernelMode.SORTED, X, y)
        resid = np.abs(evaluate(f, X) - y)
        assert resid.max() <= 1e-8 * (1.0 + np.abs(y).max())

    def test_duplicate_orbits_rejected(self):
        with pytest.raises(DuplicateOrbitError):
            fit(unit_kernel(), KernelMode.SORTED, [[0.1, 0.2], [0.2, 0.1]], [1.0, 2.0])

    def test_non_finite_design_rejected(self):
        # the range check alone let NaN through to scipy's own ValueError
        X = np.random.default_rng(4).random((6, 2))
        X[2, 0] = np.nan
        for mode in (KernelMode.PLAIN, KernelMode.SORTED):
            with pytest.raises(ConfigError, match="finite"):
                fit(unit_kernel(), mode, X, np.zeros(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_is_bad_input(self, bad):
        # bad data, not a numerical failure, so the CLI exits 1 for it, not 2
        with pytest.raises(ConfigError, match="^y values must be finite$"):
            fit(unit_kernel(), KernelMode.PLAIN, [[0.1, 0.2], [0.7, 0.4]], [1.0, bad])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fit(unit_kernel(), KernelMode.PLAIN, [[0.1, 0.2]], [1.0, 2.0])

    def test_jitter_recorded_on_near_duplicates(self):
        # two copies of each orbit, 1e-8 apart, make the sorted Gram matrix
        # singular at working precision; the ladder must rescue the fit
        k, mode, X, y = near_duplicate_orbits()
        G = gram(k, mode, X)
        with pytest.raises(LinAlgError):
            cho_factor(G, lower=True)
        f = fit(k, mode, X, y)
        assert f.jitter_used > 0.0
        assert np.abs(G @ f.coeffs - y).max() <= 1e-8 * (1.0 + np.abs(y).max())

    @pytest.mark.parametrize("design, jittered", [
        (well_conditioned, False), (near_duplicate_orbits, True), (interp_lowd_trial, True)])
    def test_matches_shifted_factorization(self, design, jittered):
        # the shift goes onto the diagonal of one copy of G, factorized in
        # place, and gives the coefficients of G + shift * I bit for bit
        k, mode, X, y = design()
        f = fit(k, mode, X, y)
        G = gram(k, mode, X)
        want = cho_solve(cho_factor(G + f.jitter_used * np.eye(len(X)), lower=True), y)
        assert (f.jitter_used > 0.0) == jittered
        assert np.array_equal(f.coeffs.view(np.uint64), want.view(np.uint64))

    def test_leaves_no_memory_behind(self):
        # A failed rung's exception, kept past its except block, pinned fit's
        # frame through its traceback: G, the failed factor and the shifted
        # copies, 37.5 MiB on this design. That cycle waits for the cyclic
        # collector, and numpy allocations never trigger it.
        k, mode, X, y = interp_lowd_trial()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = fit(k, mode, X, y)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert f.jitter_used == pytest.approx(1e-12 * AMP, rel=1e-12)
        assert left <= 1e6

    def test_failure_reports_diagnostics(self):
        # conflicting values on one orbit cannot be interpolated by any
        # permutation-invariant function
        k = unit_kernel()
        X = np.array([[0.1, 0.2], [0.2, 0.1 + 1e-16], [0.7, 0.3]])
        with pytest.raises(FactorizationError, match="jitter"):
            fit(k, KernelMode.SORTED, X, [1.0, -1.0, 0.5])

    def test_failure_reports_the_unshifted_diagonal(self):
        # one orbit with two values defeats every rung; the averaged kernel's
        # diagonal varies over the design, and the message gives G's own
        # range, not that of a shifted or factorized diagonal
        k = unit_kernel()
        X = np.array([[0.1, 0.2], [0.2, 0.1], [0.7, 0.3]])
        D = np.diag(gram(k, KernelMode.PERM_SINGLE, X))
        assert D.min() < D.max()
        with pytest.raises(FactorizationError,
                           match=re.escape(f"diag range [{D.min():.3e}, {D.max():.3e}]")):
            fit(k, KernelMode.PERM_SINGLE, X, [1.0, -1.0, 0.5])

    @pytest.mark.parametrize("design", [well_conditioned, near_duplicate_orbits, interp_lowd_trial])
    def test_rejected_residual_moves_to_the_next_rung(self, design, monkeypatch):
        # A first solution that fails the residual check sends fit one rung
        # up. That rung factorizes G rebuilt after the solve, plus its shift,
        # so its coefficients are those of G + shift * I bit for bit.
        k, mode, X, y = design()
        G = gram(k, mode, X)
        n = len(X)
        scale = np.trace(G) / n
        rung = [delta * scale for delta in interpolation._JITTER_LADDER].index(
            fit(k, mode, X, y).jitter_used)
        solve = interpolation.shifted_solve
        calls = []

        def perturbed(G, b, shift):
            # counts solutions: a rung that fails to factorize raises first
            x = solve(G, b, shift)
            calls.append(1)
            return x + 1.0 if len(calls) == 1 else x

        monkeypatch.setattr(interpolation, "shifted_solve", perturbed)
        f = fit(k, mode, X, y)
        shift = interpolation._JITTER_LADDER[rung + 1] * scale
        want = cho_solve(cho_factor(G + shift * np.eye(n), lower=True), y)
        assert len(calls) == 2 and f.jitter_used == shift
        assert same_bits(f.coeffs, want)

    def test_peak_memory_is_one_gram_matrix(self, monkeypatch):
        # G is factorized in place and rebuilt after every rung, so fit holds
        # one Gram-sized array; the rest is tile scratch (two workers' worth
        # here). A shifted copy of G per fit peaked at 2.0 Gram sizes.
        monkeypatch.setattr(_pool, "_worker_count", lambda: 2)
        k, mode, X, y = interp_lowd_trial()
        n = len(X)
        _linalg.load()
        tracemalloc.start()
        try:
            f = fit(k, mode, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.jitter_used > 0.0
        assert peak <= 1.5 * n * n * 8

    def test_stored_arrays_are_read_only_copies(self):
        # The interpolant used to keep the caller's design: after the caller
        # moved a point, the same evaluate read -0.5611 instead of -0.5606.
        rng = np.random.default_rng(9)
        X = rng.random((20, 2))
        f = fit(KernelSpec(amplitude=AMP, bandwidth=0.2), KernelMode.PLAIN, X,
                rng.normal(size=20))
        before = evaluate(f, [0.1, 0.2])
        X[0] = [0.9, 0.9]
        assert evaluate(f, [0.1, 0.2]) == before
        t = make_invariant_target(unit_kernel(), 2, 3, seed=8)
        for a in (f.design, f.coeffs, t.atoms, t.weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def scipy_rung(k, mode, X, y):
    """The shift of fit's ladder at which scipy.linalg first solves the system."""
    G = gram(k, mode, X)
    n = len(X)
    tol = interpolation._RESIDUAL_TOL * (1.0 + np.max(np.abs(y)))
    for delta in interpolation._JITTER_LADDER:
        shift = delta * np.trace(G) / n
        try:
            coeffs = cho_solve(cho_factor(G + shift * np.eye(n), lower=True), y)
        except LinAlgError:
            continue
        if np.max(np.abs(G @ coeffs - y)) <= tol:
            return shift
    return None


class TestLapackCalls:
    """_linalg.shifted_solve gives scipy.linalg's bits, failures included, and gives G back."""

    @pytest.mark.parametrize("mode, d, n, bandwidth", [
        (KernelMode.PLAIN, 2, 200, 0.1), (KernelMode.SORTED, 3, 150, 0.3),
        (KernelMode.PERM_SINGLE, 4, 60, 0.3), (KernelMode.PERM_SINGLE, 5, 160, 0.3)])
    def test_factor_and_solve_match_scipy(self, mode, d, n, bandwidth):
        rng = stream(7)
        G = gram(KernelSpec(AMP, bandwidth), mode, rng.random((n, d)))
        y = rng.normal(size=n)
        want = cho_solve(cho_factor(G, lower=True), y)
        assert same_bits(_linalg.shifted_solve(G.copy(), y, 0.0), want)

    def test_shifted_factor_matches_scipy(self):
        # the interp_lowd trial's plain system at the rung it needs
        k, mode, X, y = interp_lowd_trial()
        G = gram(k, mode, X)
        shift = 1e-12 * np.trace(G) / len(X)
        want = cho_solve(cho_factor(G + shift * np.eye(len(X)), lower=True), y)
        assert same_bits(_linalg.shifted_solve(G.copy(), y, shift), want)

    def test_not_positive_definite_raises_as_scipy(self):
        k, mode, X, y = near_duplicate_orbits()
        G = gram(k, mode, X)
        with pytest.raises(LinAlgError) as want:
            cho_factor(G, lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            _linalg.shifted_solve(G.copy(), y, 0.0)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("design, delta, fails", [
        (well_conditioned, 0.0, False), (interp_lowd_trial, 1e-12, False),
        (near_duplicate_orbits, 0.0, True), (interp_lowd_trial, 0.0, True)])
    def test_gives_the_gram_matrix_back(self, design, delta, fails):
        # dpotrf overwrites G's upper triangle and diagonal, also where it
        # fails; fit takes its residual against the G it gets back
        k, mode, X, y = design()
        G = gram(k, mode, X)
        A = G.copy()
        try:
            _linalg.shifted_solve(A, y, delta * np.trace(G) / len(X))
            failed = False
        except np.linalg.LinAlgError:
            failed = True
        assert failed == fails
        assert same_bits(A, G)

    @pytest.mark.parametrize("design", [well_conditioned, near_duplicate_orbits, interp_lowd_trial])
    def test_fit_lands_on_scipy_rung(self, design):
        k, mode, X, y = design()
        assert fit(k, mode, X, y).jitter_used == scipy_rung(k, mode, X, y)


class TestEvaluate:
    def test_reproduces_data(self):
        k = unit_kernel()
        rng = np.random.default_rng(3)
        X = rng.random((15, 3))
        y = rng.normal(size=15)
        for mode in (KernelMode.PLAIN, KernelMode.SORTED):
            f = fit(k, mode, X, y)
            assert np.abs(evaluate(f, X) - y).max() <= 1e-8 * (1.0 + np.abs(y).max())
        # the averaged kernel's Gram is numerically rank-deficient for
        # arbitrary data; invariant target values are representable
        t = make_invariant_target(k, 3, 3, seed=30)
        ty = t.value(X)
        f = fit(k, KernelMode.PERM_SINGLE, X, ty)
        assert np.abs(evaluate(f, X) - ty).max() <= 1e-8 * (1.0 + np.abs(ty).max())

    def test_sorted_permutation_invariance_exact(self):
        k = unit_kernel()
        rng = np.random.default_rng(4)
        X = rng.random((10, 3))
        f = fit(k, KernelMode.SORTED, X, rng.normal(size=10))
        x = rng.random(3)
        vals = {evaluate(f, x[list(p)]) for p in
                [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]}
        assert len(vals) == 1

    def test_perm_mode_invariance(self):
        k = unit_kernel()
        rng = np.random.default_rng(5)
        X = rng.random((8, 3))
        t = make_invariant_target(k, 3, 2, seed=31)
        f = fit(k, KernelMode.PERM_SINGLE, X, t.value(X))
        x = rng.random(3)
        base = evaluate(f, x)
        for p in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            assert evaluate(f, x[list(p)]) == base

    def test_canonicalization_identity(self):
        # sorted-mode interpolant == plain interpolant on the sorted design,
        # composed with sort; the construction makes this exact
        k = unit_kernel()
        rng = np.random.default_rng(6)
        for d in (2, 3, 5):
            X = rng.random((50, d))
            t = make_invariant_target(k, d, 3, seed=60 + d)
            y = t.value(X)
            fs = fit(k, KernelMode.SORTED, X, y)
            fp = fit(k, KernelMode.PLAIN, np.sort(X, axis=1)[:, ::-1], y)
            Z = rng.random((1000, d))
            Zs = np.sort(Z, axis=1)[:, ::-1]
            assert np.abs(evaluate(fs, Z) - evaluate(fp, Zs)).max() <= 1e-10

    def test_dimension_mismatch(self):
        f = fit(unit_kernel(), KernelMode.PLAIN, [[0.5, 0.5]], [1.0])
        with pytest.raises(DimensionMismatchError):
            evaluate(f, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.inf], [3.0, -2.0]])
    def test_invalid_points_rejected(self, bad):
        f = fit(unit_kernel(), KernelMode.SORTED, np.random.default_rng(4).random((5, 2)),
                np.arange(5.0))
        with pytest.raises(ConfigError):
            evaluate(f, bad)
        rows = np.random.default_rng(5).random((9, 2))
        rows[6] = bad
        with pytest.raises(ConfigError):
            evaluate(f, rows)

    def test_points_validated_once_per_call(self, monkeypatch):
        # one check for the whole array, none per row tile; at two centres
        # a tile holds 32768 rows, so 100001 points span four tiles
        f = fit(unit_kernel(), KernelMode.PLAIN, [[0.2, 0.4], [0.9, 0.1]], [1.0, -1.0])
        calls = []
        check = interpolation.as_design
        monkeypatch.setattr(interpolation, "as_design",
                            lambda *args, **kwargs: calls.append(1) or check(*args, **kwargs))
        monkeypatch.setattr(kernels, "as_design", None)  # kernel_cross is not called
        evaluate(f, np.random.default_rng(6).random((100001, 2)))
        assert calls == [1]

    @pytest.mark.parametrize("length", [0, 11, 13])
    def test_coefficient_length_checked_before_kernel_work(self, length, monkeypatch):
        # a coefficient or weight vector of the wrong length is reported with
        # both lengths, before any kernel value is computed
        k, mode, X, _ = well_conditioned()
        bad_f = Interpolant(kernel=k, mode=mode, design=X, coeffs=np.ones(length),
                            jitter_used=0.0)
        t = make_invariant_target(k, 3, 12, seed=4)
        bad_t = InvariantTarget(atoms=t.atoms, weights=np.ones(length), kernel=k,
                                norm_sq=t.norm_sq)
        monkeypatch.setattr(interpolation, "_cross", None)
        for call in (lambda x: evaluate(bad_f, x), bad_t.value):
            for x in (X[0], X):
                with pytest.raises(DimensionMismatchError, match=rf"\({length},\) .* 12 centres"):
                    call(x)

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_holds_no_kernel_matrix(self, mode, monkeypatch):
        # 21000 points against 1280 centres at d = 2, on two threads: each
        # holds one tile's buffers, about 2 MiB, never the kernel matrix
        # (215 MB) or a block of it of thousands of rows (42 MB per 4096)
        monkeypatch.setattr(_pool, "_worker_count", lambda: 2)
        rng = np.random.default_rng(7)
        f = Interpolant(kernel=KernelSpec(amplitude=AMP, bandwidth=0.08), mode=mode,
                        design=rng.random((1280, 2)), coeffs=rng.uniform(-1.0, 1.0, 1280),
                        jitter_used=0.0)
        X = rng.random((21000, 2))
        tracemalloc.start()
        try:
            evaluate(f, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


class TestMinimalNorm:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fitted_norm_is_minimal(self, n):
        # any coefficient vector over an enlarged center set that satisfies
        # the interpolation constraints has RKHS norm >= the fitted one
        k = unit_kernel()
        rng = np.random.default_rng(40 + n)
        X = rng.random((n, 2))
        y = rng.normal(size=n)
        f = fit(k, KernelMode.PLAIN, X, y)
        base = interpolant_norm_sq(f)
        centers = np.vstack([X, rng.random((6, 2))])
        A = kernel_cross(k, KernelMode.PLAIN, X, centers)
        Gc = gram(k, KernelMode.PLAIN, centers)
        for _ in range(100):
            beta0 = rng.normal(size=centers.shape[0])
            # project onto the affine constraint set A beta = y
            corr, *_ = np.linalg.lstsq(A, A @ beta0 - y, rcond=None)
            beta = beta0 - corr
            assert np.abs(A @ beta - y).max() <= 1e-6
            assert base <= beta @ Gc @ beta + 1e-6


class TestInvariantTarget:
    def test_single_atom_norm(self):
        k = unit_kernel()
        t = make_invariant_target(k, 2, 1, seed=5)
        kv = kernel_cross(k, KernelMode.PERM_SINGLE, t.atoms, t.atoms)[0, 0]
        assert t.norm_sq == pytest.approx(t.weights[0] ** 2 * kv, rel=1e-13)

    def test_zero_weights(self):
        k = unit_kernel()
        t = make_invariant_target(k, 2, 3, seed=8)
        z = InvariantTarget(atoms=t.atoms, weights=np.zeros(3), kernel=k, norm_sq=0.0)
        assert z.norm_sq == 0.0
        assert np.all(z.value(np.random.default_rng(0).random((10, 2))) == 0.0)
        # no atoms at all: the empty sum
        e = InvariantTarget(atoms=np.empty((0, 2)), weights=np.empty(0), kernel=k, norm_sq=0.0)
        assert np.array_equal(e.value(np.random.default_rng(0).random((10, 2))), np.zeros(10))

    def test_norm_matches_double_average(self):
        # the single-sum norm equals the one from the two-sided average over
        # all (d!)^2 permutation pairs, since the Gaussian is isotropic
        k = unit_kernel()
        t = make_invariant_target(k, 2, 3, seed=42)
        perms = [list(p) for p in permutations(range(2))]
        Gd = sum(kernel_cross(k, KernelMode.PLAIN, t.atoms[:, p], t.atoms[:, q])
                 for p in perms for q in perms) / len(perms) ** 2
        want = t.weights @ Gd @ t.weights
        assert t.norm_sq == pytest.approx(want, abs=1e-12)

    def test_value_is_permutation_invariant(self):
        k = unit_kernel()
        t = make_invariant_target(k, 3, 4, seed=9)
        x = np.random.default_rng(1).random(3)
        base = t.value(x)
        for p in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            assert t.value(x[list(p)]) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, -np.inf], [3.0, -2.0]])
    def test_invalid_points_rejected(self, bad):
        t = make_invariant_target(unit_kernel(), 2, 3, seed=12)
        with pytest.raises(ConfigError):
            t.value(bad)
        with pytest.raises(ConfigError):
            t.value(np.array([[0.1, 0.2], bad]))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_chunked_values_match_one_product(self, d):
        # values come one contracted row tile at a time, each row with the
        # float that one product over all the rows gives it
        t = make_invariant_target(unit_kernel(), d, INTERP_ATOMS, seed=20 + d)
        rng = np.random.default_rng(30 + d)
        for n in (1, 2, 3, 5, 80, 1000, 4095, 4096, 4097, 5001, 8193, 20000, 20001, 20003):
            X = rng.random((n, d))
            whole = kernels._cross(t.kernel, KernelMode.PERM_SINGLE, X, t.atoms) @ t.weights
            assert np.array_equal(t.value(X).view(np.uint64), whole.view(np.uint64))

    def test_atoms_in_simplex(self):
        t = make_invariant_target(unit_kernel(), 4, 6, seed=10)
        assert np.all(np.diff(t.atoms, axis=1) <= 0)

    @pytest.mark.parametrize("d, m, match", [
        (0, 3, "d must be finite and >= 1"),
        (2, 0, "m must be finite and >= 1"),
        (2.5, 3, "d must be an integer"),
        (2, 1.5, "m must be an integer"),
    ])
    def test_bad_counts_rejected(self, d, m, match):
        # the atom array's shape comes from d and m, so they are checked
        # before the draw
        with pytest.raises(ConfigError, match=f"^{match}"):
            make_invariant_target(unit_kernel(), d, m, seed=3)

    def test_deterministic_in_seed(self):
        a = make_invariant_target(unit_kernel(), 2, 3, seed=11)
        b = make_invariant_target(unit_kernel(), 2, 3, seed=11)
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.weights, b.weights)
        assert a.norm_sq == b.norm_sq


class TestL2Error:
    def test_rmse_stderr_counts_samples(self):
        # a list is an array of its values; a 2-D or empty input is refused,
        # where one row of two samples read a standard error of 0.0
        diff = np.array([0.3, -1.2, 0.5, 2.0])
        assert rmse_stderr(list(diff)) == rmse_stderr(diff)
        rmse, se = rmse_stderr(diff)
        sq = diff * diff
        assert rmse == math.sqrt(sq.mean())
        assert se == sq.std(ddof=1) / 2.0 / (2.0 * rmse)
        assert rmse_stderr([0.5]) == (0.5, 0.0)
        for bad in ([[1.0, 2.0]], np.array([[1.0], [2.0]]), [], np.empty(0), 1.0):
            with pytest.raises(DimensionMismatchError, match="shape"):
                rmse_stderr(bad)

    def test_zero_target_zero_fit(self):
        k = unit_kernel()
        rng = np.random.default_rng(12)
        X = rng.random((10, 2))
        t = make_invariant_target(k, 2, 2, seed=13)
        zero = InvariantTarget(atoms=t.atoms, weights=np.zeros(2), kernel=k, norm_sq=0.0)
        f = fit(k, KernelMode.SORTED, X, np.zeros(10))
        err, se = l2_error(zero, f, 500, seed=14)
        assert err == 0.0
        assert se == 0.0

    def test_zero_interpolant_measures_target(self):
        k = unit_kernel()
        t = make_invariant_target(k, 2, 3, seed=15)
        f = Interpolant(kernel=k, mode=KernelMode.SORTED,
                        design=np.array([[0.5, 0.4]]), coeffs=np.zeros(1),
                        jitter_used=0.0)
        err, se = l2_error(t, f, 4000, seed=16)
        g = stream(16)
        Xmc = g.random((4000, 2))
        want = float(np.sqrt(np.mean(t.value(Xmc) ** 2)))
        assert err == pytest.approx(want, rel=1e-12)
        assert err > 0.0
        assert se > 0.0

    def test_error_decreases_with_n(self):
        k = unit_kernel()
        t = make_invariant_target(k, 2, 3, seed=17)
        rng = np.random.default_rng(18)
        errors = []
        for n in (10, 40, 160):
            X = rng.random((n, 2))
            f = fit(k, KernelMode.SORTED, X, t.value(X))
            err, _ = l2_error(t, f, 4000, seed=19)
            errors.append(err)
        assert errors[2] < errors[1] < errors[0]

    def test_sorted_beats_plain_in_median(self):
        # a shorter length-scale keeps errors well above the solver floor,
        # so the mode comparison measures approximation, not roundoff
        k = KernelSpec(amplitude=AMP, bandwidth=0.08)
        for d, n in ((2, 20), (2, 80), (3, 20)):
            plain, srt = [], []
            for trial in range(20):
                t = make_invariant_target(k, d, 3, seed=1000 + trial)
                X = stream(2000 + trial, d, n).random((n, d))
                y = t.value(X)
                fp = fit(k, KernelMode.PLAIN, X, y)
                fs = fit(k, KernelMode.SORTED, X, y)
                plain.append(l2_error(t, fp, 2000, seed=3000 + trial)[0])
                srt.append(l2_error(t, fs, 2000, seed=3000 + trial)[0])
            assert np.median(srt) <= np.median(plain)
