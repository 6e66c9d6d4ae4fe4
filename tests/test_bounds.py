"""Bounds: worked examples, oracle equivalence, structural ratios, validity."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from sortkern.errors import ConfigError, DimensionMismatchError
from sortkern.experiments import Experiment, ExperimentConfig
from sortkern.geometry import (
    ConeParams,
    Domain,
    cone_condition_holds,
    cone_parameters,
    covering_design,
    simplex_inradius,
)
from sortkern.interpolation import mc_points
from sortkern.kernels import KernelMode, KernelSpec, sup_kernel_constant
from sortkern.spectral import nystrom_spectrum


def inputs(**kw):
    base = dict(nu=1, d=1, c_k0=1.0, c_knu=1.0, norm_h=1.0,
                rho_low=1.0, rho_high=1.0, alpha=1.05)
    base.update(kw)
    return BoundInputs(**base)


KERNEL = KernelSpec(1.0, 1.0)


def config(**kw):
    base = dict(experiment=Experiment.TABLE1, kernel=KERNEL, dims=(2,), ns=(5,))
    base.update(kw)
    return ExperimentConfig(**base)


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

    @pytest.mark.parametrize("eps", [5e-324, 1e-323, 2e-323])
    @pytest.mark.parametrize("domain", list(Domain))
    def test_underflowing_radius_is_one(self, eps, domain):
        # eps/4 underflows to zero below 2e-323: no decay, vacuous bound
        assert h_tail_bound(eps, 10, 3, 1.0, domain) == 1.0


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

    @pytest.mark.parametrize("b,eps,n", [
        # Ctilde overflows to inf, so M is infinite
        (inputs(nu=60, d=12, c_knu=1e300), 0.1, 100),
        # M is finite but eps/M is far below the smallest float
        (inputs(nu=1, d=2, norm_h=1e150), 1e-300, 10),
        # norm_h^2 overflows a float, so M is infinite
        (inputs(nu=1, d=2, norm_h=1e200), 0.1, 10),
    ])
    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_underflowed_radius_is_one(self, b, eps, n, mode):
        assert error_tail_bound(eps, n, b, mode) == 1.0

    def test_oracle_grid(self):
        # the fill tail at radius (eps/M)^(1/nu) against the direct display,
        # wherever the display is a float strictly inside (1e-300, 1)
        compared = 0
        for nu, d, cn, norm, eps, n in itertools.product(
                (1, 2, 3, 5), (1, 2, 3, 6, 12), (0.01, 1.0, 1e3), (0.0, 0.1, 1.0, 10.0),
                (1e-6, 1e-3, 0.05, 0.3, 1.0, 5.0), (1, 10, 1000, 10 ** 5)):
            b = inputs(nu=nu, d=d, c_knu=cn, norm_h=norm, rho_low=0.8, rho_high=1.5)
            for srt, mode in ((False, KernelMode.PLAIN), (True, KernelMode.SORTED)):
                try:
                    want = oracle.error_tail(eps, n, nu, d, cn, norm, 0.8, 1.5, srt)
                except OverflowError:
                    continue
                if 1e-300 < want < 1.0:
                    assert error_tail_bound(eps, n, b, mode) == pytest.approx(want, rel=1e-12)
                    compared += 1
        assert compared >= 700


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
    """Bounds at inputs where the display overflows a float."""

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

    @pytest.mark.parametrize("call", [
        lambda m: l2_bound(inputs(nu=1, d=2, norm_h=1e200), 0.01, m),
        lambda m: l2_bound(inputs(nu=40, d=2), 1e10, m),
        lambda m: pointwise_bound(inputs(nu=40, d=2), 1e10, m),
        lambda m: pointwise_bound(inputs(nu=40, d=2), 1e10, m, Region.NEAR_DIAGONAL),
        lambda m: eigen_bound_fill(5, 1e20, inputs(nu=40, d=2), m),
        # inf * 0: an overflowed factor meets an underflowed or zero one
        lambda m: l2_bound(inputs(nu=200, d=50, c_k0=0.16), 1e-3, m),
        lambda m: pointwise_bound(inputs(nu=200, d=50, c_k0=0.16), 1e-3, m),
        lambda m: l2_bound(inputs(norm_h=0.0, c_knu=math.inf), 0.01, m),
        lambda m: pointwise_bound(inputs(norm_h=0.0, c_knu=math.inf), 0.01, m),
        lambda m: eigen_bound_fill(5, 0.01, inputs(c_k0=0.0, c_knu=math.inf), m),
    ], ids=["l2_norm_h", "l2_h", "pointwise_h", "pointwise_near_h", "eigen_fill_h",
            "l2_inf_times_underflow", "pointwise_inf_times_underflow", "l2_zero_norm_inf_c",
            "pointwise_zero_norm_inf_c", "eigen_fill_zero_c0_inf_c"])
    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_report_overflow_is_inf(self, call, mode):
        r = call(mode)
        assert (r.value, r.validity) == (math.inf, False)

    LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    CONSTANT = st.one_of(st.sampled_from([0.0, math.inf]), LOG_UNIFORM)

    @settings(max_examples=300, deadline=None)
    @given(nu=st.integers(1, 200), d=st.integers(1, 60), c_k0=CONSTANT, c_knu=CONSTANT,
           norm_h=CONSTANT, h=LOG_UNIFORM, eps=LOG_UNIFORM,
           mode=st.sampled_from([KernelMode.PLAIN, KernelMode.SORTED]))
    @example(nu=200, d=50, c_k0=0.16, c_knu=1.0, norm_h=1.0, h=1e-3, eps=1e-3,
             mode=KernelMode.PLAIN)
    @example(nu=200, d=50, c_k0=0.16, c_knu=1.0, norm_h=1.0, h=1e-3, eps=1e-3,
             mode=KernelMode.SORTED)
    def test_no_bound_is_nan(self, nu, d, c_k0, c_knu, norm_h, h, eps, mode):
        b = inputs(nu=nu, d=d, c_k0=c_k0, c_knu=c_knu, norm_h=norm_h)
        assert not math.isnan(tilde_constant(b)) and not math.isnan(p_constant(b))
        reports = [pointwise_bound(b, h, mode, region) for region in Region]
        reports += [l2_bound(b, h, mode, form) for form in ("exact", "alpha")]
        reports += [eigen_bound_fill(5, h, b, mode), eigen_bound_covering(5, b, mode),
                    eigen_bound_weyl(5, b, mode)]
        for r in reports:
            assert not math.isnan(r.value)
            assert math.isfinite(r.value) or r.validity is False
        domain = Domain.CUBE if mode is KernelMode.PLAIN else Domain.SORTED_SIMPLEX
        for tail in (h_tail_bound(eps, 10, d, 1.0, domain), error_tail_bound(eps, 10, b, mode)):
            assert 0.0 <= tail <= 1.0


class TestNonFiniteRejected:
    """h and epsilon must be finite and positive; NaN fails every comparison."""

    BAD = [math.nan, math.inf, -math.inf, 0.0, -0.1]

    @pytest.mark.parametrize("bad", BAD)
    def test_h_tail_bound(self, bad):
        with pytest.raises(ConfigError, match="epsilon"):
            h_tail_bound(bad, 10, 3, 1.0, Domain.CUBE)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_error_tail_bound(self, bad, mode):
        with pytest.raises(ConfigError, match="epsilon"):
            error_tail_bound(bad, 10, inputs(nu=2, d=3), mode)

    @pytest.mark.parametrize("bad", BAD)
    def test_error_tail_valid(self, bad):
        with pytest.raises(ConfigError, match="epsilon"):
            error_tail_valid(bad, inputs(nu=2, d=3), KernelMode.PLAIN)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_pointwise_bound(self, bad, mode):
        with pytest.raises(ConfigError, match="h must"):
            pointwise_bound(inputs(nu=2, d=3), bad, mode)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("mode", [KernelMode.PLAIN, KernelMode.SORTED])
    def test_l2_bound(self, bad, mode):
        with pytest.raises(ConfigError, match="h must"):
            l2_bound(inputs(nu=2, d=3), bad, mode)

    @pytest.mark.parametrize("bad", BAD)
    def test_eigen_bound_fill(self, bad):
        with pytest.raises(ConfigError, match="h must"):
            eigen_bound_fill(5, bad, inputs(nu=2, d=3), KernelMode.PLAIN)

    @pytest.mark.parametrize("bad", BAD)
    def test_subcube_classification_h(self, bad):
        with pytest.raises(ConfigError, match="h must"):
            subcube_classification([0.1, 0.2, 0.3], bad, 2, 3)

    @pytest.mark.parametrize("x", [[math.nan, 0.2, 0.3], [math.inf, 0.2, 0.3], [1.5, 0.2, 0.3],
                                   [-0.1, 0.2, 0.3]])
    def test_subcube_classification_x(self, x):
        with pytest.raises(ConfigError):
            subcube_classification(x, 0.01, 2, 3)

    @pytest.mark.parametrize("x", [[0.1, 0.2], [[0.1, 0.2, 0.3]], 0.5])
    def test_subcube_classification_shape(self, x):
        with pytest.raises(DimensionMismatchError):
            subcube_classification(x, 0.01, 2, 3)

    # every scalar parameter checked by errors._at_least or errors._above:
    # (name in the message, a call passing the value to that parameter alone)
    ROUTED = {
        "KernelSpec.amplitude": ("amplitude", lambda v: KernelSpec(v, 1.0)),
        "KernelSpec.bandwidth": ("bandwidth", lambda v: KernelSpec(1.0, v)),
        "sup_kernel_constant.nu": ("nu", lambda v: sup_kernel_constant(KERNEL, v, 2)),
        "sup_kernel_constant.d": ("d", lambda v: sup_kernel_constant(KERNEL, 2, v)),
        "ExperimentConfig.dims": ("dims entry", lambda v: config(dims=(2, v))),
        "ExperimentConfig.ns": ("ns entry", lambda v: config(ns=(5, v))),
        "ExperimentConfig.trials": ("trials", lambda v: config(trials=v)),
        "ExperimentConfig.eps_grid": ("eps_grid entry", lambda v: config(eps_grid=(0.1, v))),
        "ExperimentConfig.nu": ("nu", lambda v: config(nu=v)),
        "ExperimentConfig.alpha": ("alpha", lambda v: config(alpha=v)),
        "ExperimentConfig.mc_samples": ("mc_samples", lambda v: config(mc_samples=v)),
        "ExperimentConfig.candidate_count": ("candidate_count", lambda v: config(candidate_count=v)),
        "BoundInputs.nu": ("nu", lambda v: inputs(nu=v)),
        "BoundInputs.d": ("d", lambda v: inputs(d=v)),
        "BoundInputs.rho_low": ("rho_low", lambda v: inputs(rho_low=v)),
        "BoundInputs.rho_high": ("rho_high", lambda v: inputs(rho_high=v)),
        "BoundInputs.alpha": ("alpha", lambda v: inputs(alpha=v)),
        "subcube_classification.h": ("h", lambda v: subcube_classification([0.1, 0.2], v, 1, 2)),
        "pointwise_bound.h": ("h", lambda v: pointwise_bound(inputs(), v, KernelMode.PLAIN)),
        "l2_bound.h": ("h", lambda v: l2_bound(inputs(), v, KernelMode.PLAIN)),
        "h_tail_bound.epsilon": ("epsilon", lambda v: h_tail_bound(v, 10, 2, 1.0, Domain.CUBE)),
        "h_tail_bound.n": ("n", lambda v: h_tail_bound(0.1, v, 2, 1.0, Domain.CUBE)),
        "h_tail_bound.rho_low": ("rho_low", lambda v: h_tail_bound(0.1, 10, 2, v, Domain.CUBE)),
        "error_tail_valid.epsilon": ("epsilon",
                                     lambda v: error_tail_valid(v, inputs(), KernelMode.PLAIN)),
        "error_tail_bound.epsilon": ("epsilon",
                                     lambda v: error_tail_bound(v, 10, inputs(), KernelMode.PLAIN)),
        "error_tail_bound.n": ("n", lambda v: error_tail_bound(0.1, v, inputs(), KernelMode.PLAIN)),
        "eigen_bound_fill.j": ("j", lambda v: eigen_bound_fill(v, 0.1, inputs(), KernelMode.PLAIN)),
        "eigen_bound_fill.h": ("h", lambda v: eigen_bound_fill(5, v, inputs(), KernelMode.PLAIN)),
        "eigen_bound_covering.j": ("j", lambda v: eigen_bound_covering(v, inputs(), KernelMode.PLAIN)),
        "eigen_bound_weyl.j": ("j", lambda v: eigen_bound_weyl(v, inputs(), KernelMode.PLAIN)),
        "ConeParams.radius": ("radius", lambda v: ConeParams(0.5, v)),
        "covering_design.d": ("d", lambda v: covering_design(0.5, v, Domain.CUBE)),
        "cone_parameters.d": ("d", lambda v: cone_parameters(v, Domain.CUBE)),
        "cone_condition_holds.h": ("h", lambda v: cone_condition_holds(v, 1, 2, Domain.CUBE)),
        "cone_condition_holds.nu": ("nu", lambda v: cone_condition_holds(0.01, v, 2, Domain.CUBE)),
        "cone_condition_holds.d": ("d", lambda v: cone_condition_holds(0.01, 1, v, Domain.CUBE)),
        "nystrom_spectrum.m": ("m", lambda v: nystrom_spectrum(KERNEL, KernelMode.PLAIN, v, 2, 1)),
        "nystrom_spectrum.d": ("d", lambda v: nystrom_spectrum(KERNEL, KernelMode.PLAIN, 8, v, 1)),
        "mc_points.mc_samples": ("mc_samples", lambda v: mc_points(2, v, 1)),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,call", ROUTED.values(), ids=list(ROUTED))
    def test_parameter_table(self, name, call, bad):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be finite"):
            call(bad)

    @pytest.mark.parametrize("name", ["c_k0", "c_knu", "norm_h"])
    def test_overflowing_constants(self, name):
        # computed constants reach inf past the float range, so only NaN
        # and negative values are refused
        assert getattr(inputs(**{name: math.inf}), name) == math.inf
        for bad in (math.nan, -math.inf, -1.0):
            with pytest.raises(ConfigError, match=f"^{name} must be >= 0"):
                inputs(**{name: bad})


class TestNuOwner:
    def test_nu_below_one_rejected(self):
        with pytest.raises(ConfigError, match="nu"):
            inputs(nu=0)


class TestIntegerParameters:
    """nu, d and the experiment's counts must be integers: errors._int_at_least."""

    # (name in the message, a call passing the value to that parameter alone)
    ROUTED = {
        "BoundInputs.nu": ("nu", lambda v: inputs(nu=v)),
        "BoundInputs.d": ("d", lambda v: inputs(d=v)),
        "sup_kernel_constant.nu": ("nu", lambda v: sup_kernel_constant(KERNEL, v, 2)),
        "sup_kernel_constant.d": ("d", lambda v: sup_kernel_constant(KERNEL, 2, v)),
        "cone_condition_holds.nu": ("nu", lambda v: cone_condition_holds(0.01, v, 2, Domain.CUBE)),
        "cone_condition_holds.d": ("d", lambda v: cone_condition_holds(0.01, 1, v, Domain.CUBE)),
        "ExperimentConfig.dims": ("dims entry", lambda v: config(dims=(2, v))),
        "ExperimentConfig.ns": ("ns entry", lambda v: config(ns=(5, v))),
        "ExperimentConfig.trials": ("trials", lambda v: config(trials=v)),
        "ExperimentConfig.nu": ("nu", lambda v: config(nu=v)),
        "ExperimentConfig.mc_samples": ("mc_samples", lambda v: config(mc_samples=v)),
        "ExperimentConfig.candidate_count": ("candidate_count", lambda v: config(candidate_count=v)),
        "subcube_classification.nu": ("nu",
                                      lambda v: subcube_classification([0.1, 0.2], 0.01, v, 2)),
        "subcube_classification.d": ("d",
                                     lambda v: subcube_classification([0.1, 0.2], 0.01, 1, v)),
        "h_tail_bound.d": ("d", lambda v: h_tail_bound(0.1, 10, v, 1.0, Domain.CUBE)),
        "h_tail_valid.d": ("d", lambda v: h_tail_valid(0.1, v, Domain.SORTED_SIMPLEX)),
    }

    @pytest.mark.parametrize("name,call", ROUTED.values(), ids=list(ROUTED))
    def test_non_integer_rejected(self, name, call):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an integer"):
            call(1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0, -1])
    @pytest.mark.parametrize("key", ["subcube_classification.nu", "subcube_classification.d",
                                     "h_tail_bound.d", "h_tail_valid.d"])
    def test_out_of_range_rejected(self, key, bad):
        name, call = self.ROUTED[key]
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            call(bad)

    def test_numpy_integers_accepted(self):
        b = inputs(nu=np.int64(2), d=np.int32(3))
        assert tilde_constant(b) == tilde_constant(inputs(nu=2, d=3))
        assert h_tail_bound(0.5, 10, np.int64(2), 1.0, Domain.CUBE) == \
            h_tail_bound(0.5, 10, 2, 1.0, Domain.CUBE)
