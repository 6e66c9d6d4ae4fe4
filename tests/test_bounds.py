"""Bounds: worked examples, oracle equivalence, structural ratios, validity."""

import math

import numpy as np
import pytest

import _oracles as oracle
from sortkern import bounds
from sortkern.bounds import (
    BoundInputs,
    Region,
    error_tail_bound,
    error_tail_valid,
    eigen_bound_covering,
    eigen_bound_fill,
    eigen_bound_weyl,
    h_tail_bound,
    h_tail_valid,
    l2_bound,
    p_constant,
    pointwise_bound,
    subcube_classification,
    tilde_constant,
)
from sortkern.errors import ConfigError
from sortkern.geometry import Domain, simplex_inradius
from sortkern.kernels import KernelMode


def inputs(**kw):
    base = dict(nu=1, d=1, c_k0=1.0, c_knu=1.0, norm_h=1.0,
                rho_low=1.0, rho_high=1.0, alpha=1.05)
    base.update(kw)
    return BoundInputs(**base)


class TestConstants:
    def test_tilde_examples(self):
        assert tilde_constant(inputs(nu=1, d=1)) == 384.0
        assert tilde_constant(inputs(nu=1, d=2)) == 1280.0
        assert tilde_constant(inputs(c_knu=0.0)) == 0.0

    def test_tilde_overflow_to_inf(self):
        assert tilde_constant(inputs(nu=400, d=300)) == math.inf

    def test_p_examples(self):
        assert p_constant(inputs(nu=1, d=1)) == 16.0
        assert p_constant(inputs(nu=1, d=2)) == pytest.approx(16.0 * 2 ** 4.5, rel=1e-15)

    def test_degenerate_density_rejected(self):
        with pytest.raises(ConfigError):
            inputs(rho_low=0.0, rho_high=0.0)
        with pytest.raises(ConfigError):
            inputs(rho_high=0.5, rho_low=1.0)
        with pytest.raises(ConfigError):
            inputs(alpha=1.0)


class TestPointwise:
    def test_zero_norm(self):
        b = inputs(norm_h=0.0, nu=1, d=2)
        for mode in (KernelMode.PLAIN, KernelMode.SORTED):
            for region in Region:
                assert pointwise_bound(b, 0.001, mode, region).value == 0.0

    def test_plain_example(self):
        r = pointwise_bound(inputs(nu=1, d=2), 0.001, KernelMode.PLAIN)
        assert r.value == pytest.approx(math.sqrt(1280 * 0.001), rel=1e-14)
        assert r.validity is True

    def test_sorted_near_diagonal_example(self):
        r = pointwise_bound(inputs(nu=1, d=2), 0.001, KernelMode.SORTED,
                            Region.NEAR_DIAGONAL)
        assert r.value == pytest.approx(3.2, rel=1e-14)

    def test_validity_fails_at_large_h(self):
        r = pointwise_bound(inputs(nu=1, d=2), 0.2, KernelMode.PLAIN)
        assert r.validity is False
        assert r.value > 0.0


class TestL2:
    def test_plain_example(self):
        r = l2_bound(inputs(nu=1, d=1), 0.01, KernelMode.PLAIN)
        assert r.value == pytest.approx(3.84, rel=1e-14)
        assert r.validity is True

    def test_sorted_exact_example(self):
        r = l2_bound(inputs(nu=1, d=1), 0.01, KernelMode.SORTED)
        assert r.value == pytest.approx(4.4544, rel=1e-14)

    def test_monotone_vanishing_in_h(self):
        b = inputs(nu=2, d=3, c_knu=0.7)
        hs = np.geomspace(1e-7, 0.5, 30)
        for mode in (KernelMode.PLAIN, KernelMode.SORTED):
            vals = [l2_bound(b, h, mode).value for h in hs]
            assert all(x < y for x, y in zip(vals, vals[1:]))
            assert vals[0] < 1e-4

    def test_alpha_form_validity(self):
        b = inputs(nu=1, d=2)
        ok = l2_bound(b, 1e-6, KernelMode.SORTED, form="alpha")
        assert ok.validity is True
        assert ok.value == pytest.approx(1280 * 1.05 * 1e-6, rel=1e-13)
        # growth factor 1 + P h exceeds alpha at this h while the cone
        # condition still holds
        bad = l2_bound(b, 2e-4, KernelMode.SORTED, form="alpha")
        assert bad.validity is False


class TestHTail:
    def test_1d_example(self):
        v = h_tail_bound(0.2, 100, 1, 1.0, Domain.CUBE)
        assert v == pytest.approx(15.0 * 0.9 ** 100, rel=1e-13)

    def test_sorted_is_cube_over_factorial(self):
        for d, eps, n in ((3, 1.2, 50), (2, 0.9, 120), (4, 1.4, 80)):
            cube = h_tail_bound(eps, n, d, 1.0, Domain.CUBE)
            srt = h_tail_bound(eps, n, d, 1.0, Domain.SORTED_SIMPLEX)
            assert 0.0 < cube < 1.0
            assert srt == pytest.approx(cube / math.factorial(d), rel=1e-13)

    def test_decays_in_n(self):
        vals = [h_tail_bound(0.5, n, 2, 1.0, Domain.CUBE) for n in (50, 200, 800)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6

    def test_clipped_to_unit_interval(self):
        assert h_tail_bound(0.05, 1, 3, 1.0, Domain.CUBE) == 1.0
        for eps in np.linspace(0.05, 3.0, 40):
            v = h_tail_bound(eps, 30, 3, 1.0, Domain.CUBE)
            assert 0.0 <= v <= 1.0

    def test_precondition_helper(self):
        assert h_tail_valid(0.8, 3, Domain.CUBE) is True
        assert h_tail_valid(1.2, 3, Domain.CUBE) is False
        r = simplex_inradius(3)
        assert h_tail_valid(r * 0.99, 3, Domain.SORTED_SIMPLEX) is True
        assert h_tail_valid(r * 1.01, 3, Domain.SORTED_SIMPLEX) is False


class TestErrorTail:
    def test_1d_example(self):
        # norm_h^2 * Ctilde = 0.96 <= 1, so M = 1
        b = inputs(nu=1, d=1, norm_h=0.05)
        v = error_tail_bound(0.25, 200, b, KernelMode.PLAIN)
        assert v == pytest.approx(12.0 * 0.875 ** 200, rel=1e-13)

    def test_sorted_prefactor_ratio_when_m_is_one(self):
        b = inputs(nu=1, d=3, norm_h=0.0)
        for eps, n in ((0.9, 400), (1.2, 300)):
            plain = error_tail_bound(eps, n, b, KernelMode.PLAIN)
            srt = error_tail_bound(eps, n, b, KernelMode.SORTED)
            if 0.0 < plain < 1.0:
                assert srt == pytest.approx(plain / 6.0, rel=1e-13)

    def test_decays_in_n(self):
        b = inputs(nu=1, d=1, norm_h=0.05)
        vals = [error_tail_bound(0.25, n, b, KernelMode.PLAIN) for n in (100, 400, 1600)]
        assert vals[0] > vals[1] > vals[2]

    def test_precondition_helper(self):
        b = inputs(nu=1, d=2)
        assert error_tail_valid(0.001, b, KernelMode.PLAIN) is True
        assert error_tail_valid(0.5, b, KernelMode.PLAIN) is False


class TestEigenBounds:
    def test_fill_example(self):
        b = inputs(nu=1, d=1, c_k0=1 / (2 * math.pi))
        r = eigen_bound_fill(5, 0.01, b, KernelMode.PLAIN)
        assert r.value == pytest.approx(math.sqrt(384 / (2 * math.pi)) * 0.1, rel=1e-13)

    def test_fill_sorted_ratio_is_alpha(self):
        b = inputs(nu=2, d=3, c_k0=0.3, c_knu=0.8, alpha=1.07)
        plain = eigen_bound_fill(9, 0.03, b, KernelMode.PLAIN).value
        srt = eigen_bound_fill(9, 0.03, b, KernelMode.SORTED).value
        assert srt / plain == pytest.approx(1.07, rel=1e-14)

    def test_covering_example(self):
        b = inputs(nu=1, d=1)
        r = eigen_bound_covering(100, b, KernelMode.PLAIN)
        assert r.value == pytest.approx(2.4, rel=1e-13)

    def test_covering_sorted_ratio(self):
        b = inputs(nu=2, d=4, c_k0=0.5, c_knu=1.3, alpha=1.05)
        plain = eigen_bound_covering(17, b, KernelMode.PLAIN).value
        srt = eigen_bound_covering(17, b, KernelMode.SORTED).value
        want = 1.05 / math.factorial(4) ** (2 / 8)
        assert srt / plain == pytest.approx(want, rel=1e-13)

    def test_weyl_example(self):
        b = inputs(nu=1, d=1)
        for j in (1, 4, 50):
            r = eigen_bound_weyl(j, b, KernelMode.PLAIN)
            assert r.value == pytest.approx(8.0 / (2 * math.pi * j), rel=1e-13)

    def test_weyl_sorted_ratio(self):
        b = inputs(nu=3, d=2, c_knu=0.9)
        plain = eigen_bound_weyl(11, b, KernelMode.PLAIN).value
        srt = eigen_bound_weyl(11, b, KernelMode.SORTED).value
        assert srt / plain == pytest.approx(1.0 / 2.0 ** 0.5, rel=1e-13)
        # the ratio collapses to 1 when nu = d
        b2 = inputs(nu=2, d=2, c_knu=0.9)
        assert eigen_bound_weyl(7, b2, KernelMode.SORTED).value == pytest.approx(
            eigen_bound_weyl(7, b2, KernelMode.PLAIN).value, rel=1e-14)

    def test_weyl_decays_faster_than_covering(self):
        b = inputs(nu=2, d=2, c_k0=0.2, c_knu=0.2)
        for mode in (KernelMode.PLAIN, KernelMode.SORTED):
            w = [eigen_bound_weyl(j, b, mode).value for j in (10, 1000)]
            c = [eigen_bound_covering(j, b, mode).value for j in (10, 1000)]
            assert w[1] / w[0] < c[1] / c[0]

    def test_perm_mode_rejected(self):
        with pytest.raises(ConfigError):
            eigen_bound_weyl(5, inputs(), KernelMode.PERM_SINGLE)


class TestSubcubeClassification:
    def test_two_regimes(self):
        # nu=1, d=2, h=0.005: l = 0.0966, q = 10 cells per axis
        assert subcube_classification([0.05, 0.55], 0.005, 1, 2) is Region.INTERIOR
        assert subcube_classification([0.52, 0.57], 0.005, 1, 2) is Region.NEAR_DIAGONAL

    def test_right_edge_in_last_cell(self):
        assert subcube_classification([1.0, 0.55], 0.005, 1, 2) is Region.INTERIOR

    def test_degenerate_grid_is_near_diagonal(self):
        assert subcube_classification([0.1, 0.9], 0.2, 1, 2) is Region.NEAR_DIAGONAL

    def test_1d_always_interior(self):
        assert subcube_classification([0.3], 0.005, 1, 1) is Region.INTERIOR


class TestOracleEquivalence:
    def test_random_draws(self):
        rng = np.random.default_rng(777)
        for _ in range(40):
            nu = int(rng.integers(1, 5))
            d = int(rng.integers(1, 11))
            c0 = float(rng.uniform(0.1, 5.0))
            cn = float(rng.uniform(0.1, 5.0))
            norm = float(rng.uniform(0.0, 3.0))
            rl = float(rng.uniform(0.2, 1.0))
            rh = float(rng.uniform(rl, 2.0))
            al = float(rng.uniform(1.001, 2.0))
            h = float(rng.uniform(1e-4, 0.5))
            eps = float(rng.uniform(0.01, 2.0))
            n = int(rng.integers(1, 500))
            j = int(rng.integers(2, 200))
            b = BoundInputs(nu=nu, d=d, c_k0=c0, c_knu=cn, norm_h=norm,
                            rho_low=rl, rho_high=rh, alpha=al)
            assert tilde_constant(b) == pytest.approx(oracle.tilde_c(nu, d, cn), rel=1e-12)
            assert p_constant(b) == pytest.approx(oracle.p_c(nu, d, rh), rel=1e-12)
            for srt, mode in ((False, KernelMode.PLAIN), (True, KernelMode.SORTED)):
                for nd, region in ((False, Region.INTERIOR), (True, Region.NEAR_DIAGONAL)):
                    got = pointwise_bound(b, h, mode, region).value
                    want = oracle.pointwise(norm, nu, d, cn, h, srt, nd)
                    assert got == pytest.approx(want, rel=1e-12)
                got = l2_bound(b, h, mode).value
                assert got == pytest.approx(
                    oracle.l2(norm, nu, d, cn, rh, h, srt), rel=1e-12)
                got = l2_bound(b, h, mode, form="alpha").value
                assert got == pytest.approx(
                    oracle.l2(norm, nu, d, cn, rh, h, srt, alpha_form=True, alpha=al),
                    rel=1e-12)
                dom = Domain.SORTED_SIMPLEX if srt else Domain.CUBE
                got = h_tail_bound(eps, n, d, rl, dom)
                assert got == pytest.approx(
                    oracle.h_tail(eps, n, d, rl, srt), rel=1e-12, abs=1e-300)
                got = error_tail_bound(eps, n, b, mode)
                assert got == pytest.approx(
                    oracle.error_tail(eps, n, nu, d, cn, norm, rl, rh, srt),
                    rel=1e-12, abs=1e-300)
                got = eigen_bound_fill(j, h, b, mode).value
                assert got == pytest.approx(
                    oracle.eigen_fill(nu, d, c0, cn, h, srt, al), rel=1e-12)
                got = eigen_bound_covering(j, b, mode).value
                assert got == pytest.approx(
                    oracle.eigen_covering(j, nu, d, c0, cn, srt, al), rel=1e-12)
                got = eigen_bound_weyl(j, b, mode).value
                assert got == pytest.approx(
                    oracle.eigen_weyl(j, nu, d, cn, rl, srt), rel=1e-12)

    def test_plain_pointwise_ignores_region(self):
        b = inputs(nu=2, d=3, c_knu=0.4)
        a = pointwise_bound(b, 0.01, KernelMode.PLAIN, Region.INTERIOR).value
        c = pointwise_bound(b, 0.01, KernelMode.PLAIN, Region.NEAR_DIAGONAL).value
        assert a == c


class TestMonotonicity:
    def test_nondecreasing_in_norm_and_cknu(self):
        hs = 0.02
        for f, unpack in ((lambda b: pointwise_bound(b, hs, KernelMode.SORTED).value, None),
                          (lambda b: l2_bound(b, hs, KernelMode.SORTED).value, None)):
            prev = -1.0
            for norm in (0.0, 0.5, 1.0, 2.0):
                v = f(inputs(nu=2, d=3, norm_h=norm))
                assert v >= prev
                prev = v
            prev = -1.0
            for cn in (0.0, 0.3, 1.0, 4.0):
                v = f(inputs(nu=2, d=3, c_knu=cn))
                assert v >= prev
                prev = v


class TestTailOverflow:
    """Tail bounds at dimensions where the display overflows a float."""

    @pytest.mark.parametrize("d", [200, 400])
    @pytest.mark.parametrize("domain", list(Domain))
    def test_h_tail_large_d(self, d, domain):
        assert h_tail_bound(0.05, 1, d, 1.0, domain) == 1.0

    @pytest.mark.parametrize("d", [200, 400])
    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_error_tail_large_d(self, d, mode):
        b = inputs(nu=2, d=d, c_k0=0.16, c_knu=0.4, norm_h=0.5)
        assert error_tail_bound(0.05, 1, b, mode) == 1.0

    def test_log_space_matches_direct(self, monkeypatch):
        # the log-space path, forced by an overflowing ball volume, against
        # the direct display wherever that is finite and inside (0, 1)
        h_args = [(eps, n, d, 0.8, dom) for d in (2, 3, 5, 8) for eps in (0.05, 0.2, 0.5, 1.0)
                  for n in (1, 10, 1000, 10 ** 5) for dom in Domain]
        e_args = [(eps, n, inputs(nu=nu, d=d, c_k0=0.16, c_knu=0.4, norm_h=0.001,
                                  rho_low=0.7), mode)
                  for d in (1, 2, 3) for nu in (1, 2) for eps in (0.2, 0.5, 0.9)
                  for n in (1, 100, 10 ** 4) for mode in (KernelMode.PLAIN, KernelMode.SORTED)]
        direct = [h_tail_bound(*a) for a in h_args] + [error_tail_bound(*a) for a in e_args]

        def overflow(d):
            raise OverflowError("forced")

        monkeypatch.setattr(bounds, "ball_volume", overflow)
        logs = [h_tail_bound(*a) for a in h_args] + [error_tail_bound(*a) for a in e_args]
        inside = [(x, y) for x, y in zip(direct, logs) if 1e-250 < x < 1.0]
        assert len(inside) >= 40
        for x, y in inside:
            assert y == pytest.approx(x, rel=1e-9)
        for x, y in zip(direct, logs):
            if x in (0.0, 1.0):
                assert y == x


class TestNuOwner:
    def test_nu_below_one_rejected(self):
        with pytest.raises(ConfigError, match="nu"):
            inputs(nu=0)
