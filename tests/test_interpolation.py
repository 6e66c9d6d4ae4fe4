"""Interpolation: fitting, canonicalization, invariant targets, L2 error."""

import gc
import math
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
)
from sortkern import interpolation, kernels
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
        # one check for the whole array, none per evaluation chunk
        f = fit(unit_kernel(), KernelMode.PLAIN, [[0.2, 0.4], [0.9, 0.1]], [1.0, -1.0])
        calls = []
        check = interpolation.as_design
        monkeypatch.setattr(interpolation, "as_design",
                            lambda *args, **kwargs: calls.append(1) or check(*args, **kwargs))
        monkeypatch.setattr(kernels, "as_design", None)  # kernel_cross is not called
        evaluate(f, np.random.default_rng(6).random((3 * interpolation._EVAL_CHUNK + 1, 2)))
        assert calls == [1]


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
