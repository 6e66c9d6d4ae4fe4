"""Spectral: Nystrom estimates, trace identity, slopes, bound dominance."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from sortkern import _linalg, _pool
from sortkern.bounds import BoundInputs, eigen_bound_covering, eigen_bound_weyl
from sortkern.errors import ConfigError, NumericalError
from sortkern.kernels import KernelMode, KernelSpec, gram, sup_kernel_constant
from sortkern.rng import stream
from sortkern.spectral import SpectrumEstimate, decay_slope, nystrom_spectrum

AMP = 1.0 / (2.0 * math.pi)


def unit_kernel():
    return KernelSpec(amplitude=AMP, bandwidth=1.0)


class TestNystrom:
    def test_m1_rejected(self):
        with pytest.raises(ConfigError):
            nystrom_spectrum(unit_kernel(), KernelMode.PLAIN, 1, 2, seed=0)

    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_trace_is_amplitude(self, mode):
        # isotropic diagonal: K_mode(x, x) = amplitude for plain and sorted
        s = nystrom_spectrum(unit_kernel(), mode, 60, 3, seed=3)
        assert s.eigenvalues.sum() == pytest.approx(AMP, rel=1e-12)

    def test_trace_matches_averaged_diagonal(self):
        # the averaged kernel's diagonal is below the amplitude; the trace
        # identity holds against the mode's own diagonal
        from sortkern.kernels import gram
        k = unit_kernel()
        s = nystrom_spectrum(k, KernelMode.PERM_SINGLE, 60, 3, seed=3)
        X = stream(3).random((60, 3))
        diag = np.diag(gram(k, KernelMode.PERM_SINGLE, X)).mean()
        assert s.eigenvalues.sum() == pytest.approx(diag, rel=1e-12)
        assert s.eigenvalues.sum() < AMP

    def test_descending_and_nonnegative(self):
        s = nystrom_spectrum(unit_kernel(), KernelMode.SORTED, 150, 2, seed=5)
        assert np.all(np.diff(s.eigenvalues) <= 0.0)
        assert np.all(s.eigenvalues >= 0.0)

    def test_deterministic(self):
        a = nystrom_spectrum(unit_kernel(), KernelMode.PLAIN, 80, 2, seed=9)
        b = nystrom_spectrum(unit_kernel(), KernelMode.PLAIN, 80, 2, seed=9)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sorted_head_and_tail_vs_plain(self):
        # matched samples: sorting concentrates spectral mass in the head,
        # so the sorted tail must fall below the plain tail
        p = nystrom_spectrum(unit_kernel(), KernelMode.PLAIN, 400, 2, seed=7)
        s = nystrom_spectrum(unit_kernel(), KernelMode.SORTED, 400, 2, seed=7)
        assert s.eigenvalues[0] >= p.eigenvalues[0] * 0.98
        tail = slice(19, 60)
        assert s.eigenvalues[tail].sum() <= p.eigenvalues[tail].sum()

    def test_sorted_equals_plain_on_sorted_samples(self):
        # operator-level canonicalization identity
        k = unit_kernel()
        m, d, seed = 120, 3, 11
        s = nystrom_spectrum(k, KernelMode.SORTED, m, d, seed=seed)
        from sortkern.geometry import sort_points
        X = sort_points(stream(seed).random((m, d)))
        vals = eigh(gram(k, KernelMode.PLAIN, X), eigvals_only=True)[::-1] / m
        vals = np.maximum(vals, 0.0)
        assert np.abs(s.eigenvalues - vals).max() <= 1e-9

    @pytest.mark.parametrize("mode", list(KernelMode))
    def test_matches_eigh_of_an_untouched_copy(self, mode):
        # the solver overwrites the Gram matrix's transpose in place and gets
        # the eigenvalues it got from its own copy, bit for bit
        k = KernelSpec(amplitude=AMP, bandwidth=0.3)
        m, d, seed = 300, 3, 13
        G = gram(k, mode, stream(seed).random((m, d)))
        want = np.maximum(eigh(G.copy(), eigvals_only=True)[::-1] / m, 0.0)
        got = nystrom_spectrum(k, mode, m, d, seed=seed).eigenvalues
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("mode, d, m", [
        (KernelMode.PLAIN, 2, 400), (KernelMode.SORTED, 3, 500), (KernelMode.PERM_SINGLE, 5, 160)])
    def test_eigh_matches_scipy(self, mode, d, m):
        # the solver nystrom_spectrum calls gives scipy.linalg.eigh's bits
        G = gram(KernelSpec(amplitude=AMP, bandwidth=0.3), mode, stream(17).random((m, d)))
        want = eigh(G, eigvals_only=True)
        got = _linalg.eigh(G.copy())
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_peak_memory_is_one_gram_matrix(self, mode, monkeypatch):
        # assembly, mirror and eigensolver share one Gram-sized array; the
        # rest is tile scratch (two workers' worth here). An index-gather
        # mirror alone peaked at 2.4 Gram sizes.
        monkeypatch.setattr(_pool, "_worker_count", lambda: 2)
        m = 2000
        tracemalloc.start()
        try:
            nystrom_spectrum(unit_kernel(), mode, m, 3, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * m * m * 8


class TestDecaySlope:
    def fake(self, lam):
        lam = np.asarray(lam, dtype=float)
        return SpectrumEstimate(m=len(lam), eigenvalues=lam)

    def test_exact_power_law(self):
        j = np.arange(1, 101, dtype=float)
        s = self.fake(j ** -2)
        assert decay_slope(s, 2, 100) == pytest.approx(-2.0, abs=1e-10)

    def test_flat_spectrum(self):
        s = self.fake(np.full(50, 0.3))
        assert decay_slope(s, 2, 50) == pytest.approx(0.0, abs=1e-12)

    def test_range_validation(self):
        s = self.fake(np.arange(1, 31, dtype=float)[::-1])
        with pytest.raises(ConfigError):
            decay_slope(s, 1, 10)
        with pytest.raises(ConfigError):
            decay_slope(s, 5, 5)
        with pytest.raises(ConfigError):
            decay_slope(s, 2, 31)

    def test_nonpositive_rejected(self):
        lam = np.concatenate([np.geomspace(1, 1e-3, 20), [0.0]])
        with pytest.raises(NumericalError):
            decay_slope(self.fake(lam), 2, 21)

    def test_sorted_slope_steeper_on_average(self):
        k = unit_kernel()
        ps, ss = [], []
        for seed in range(20):
            p = nystrom_spectrum(k, KernelMode.PLAIN, 200, 2, seed=seed)
            s = nystrom_spectrum(k, KernelMode.SORTED, 200, 2, seed=seed)
            ps.append(decay_slope(p, 5, 40))
            ss.append(decay_slope(s, 5, 40))
        ps, ss = np.array(ps), np.array(ss)
        se = (ps - ss).std(ddof=1) / math.sqrt(len(ps))
        assert ss.mean() <= ps.mean() + 2 * se


class TestBoundDominance:
    @pytest.mark.parametrize("d", [2, 3])
    def test_eigenvalues_below_both_bounds(self, d):
        k = unit_kernel()
        nu = 2
        c0, cn = sup_kernel_constant(k, nu, d)
        b = BoundInputs(nu=nu, d=d, c_k0=c0, c_knu=cn)
        for seed in range(5):
            for mode in (KernelMode.PLAIN, KernelMode.SORTED):
                s = nystrom_spectrum(k, mode, 400, d, seed=seed)
                for j in range(5, 101, 5):
                    lam = s.eigenvalues[j - 1]
                    assert lam <= eigen_bound_weyl(j, b, mode).value
                    assert lam <= eigen_bound_covering(j, b, mode).value
