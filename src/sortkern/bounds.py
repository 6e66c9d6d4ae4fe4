"""Closed-form error, tail-probability, and eigenvalue bounds.

Every function evaluates one displayed inequality from the theory:
pointwise and L2 interpolation error bounds driven by the fill distance,
tail probabilities for the fill distance of random designs and for the
resulting interpolation error, and three eigenvalue decay bounds for the
kernel integral operator. Values carry their preconditions: reports
expose a validity flag, tail bounds expose separate precondition helpers
and clip to [0,1] where the raw display would be a vacuous probability.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, _above, _at_least, _int_at_least
from .geometry import Domain, as_point, ball_volume, cone_condition_holds, simplex_inradius
from .kernels import KernelMode


class Region(Enum):
    """Subcube classification for the pointwise error theorem."""

    INTERIOR = "interior"
    NEAR_DIAGONAL = "near_diagonal"


@dataclass(frozen=True)
class BoundInputs:
    """Shared parameters of the theoretical bounds."""

    nu: int
    d: int
    c_k0: float
    c_knu: float
    norm_h: float = 1.0
    rho_low: float = 1.0
    rho_high: float = 1.0
    alpha: float = 1.05

    def __post_init__(self):
        _int_at_least("nu", self.nu, 1)
        _int_at_least("d", self.d, 1)
        # computed constants that overflow to inf by design (sup_kernel_constant
        # past the float range): NaN fails the comparison, inf passes
        for name in ("c_k0", "c_knu", "norm_h"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")
        _above("rho_low", self.rho_low, 0.0)
        _at_least("rho_high", self.rho_high, self.rho_low)
        _above("alpha", self.alpha, 1.0)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its value and whether its preconditions hold."""

    value: float
    validity: bool


def _mode_domain(mode):
    # the domain whose fill distance and cone condition a mode's bounds use
    if mode is KernelMode.PLAIN:
        return Domain.CUBE
    if mode is KernelMode.SORTED:
        return Domain.SORTED_SIMPLEX
    raise ConfigError(
        f"bounds are stated for Plain and Sorted modes, got {mode!r}")


def _display(direct, *factors):
    """Evaluate a bound's display, direct(), as written, so a finite value keeps its bits.

    The one overflow policy of this module: where the display overflows a
    float (OverflowError) or meets inf * 0 (NaN), its value is inf, the
    vacuous upper bound. Where one of factors, the display's factors that
    may be 0, is exactly 0, the value is exactly 0, even where another
    factor is inf or overflows.
    """
    if 0.0 in factors:
        return 0.0
    try:
        value = direct()
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(value) else value


def tilde_constant(b):
    """The packed constant 8 * binom(nu+2d, 2d) * C_Knu * (16 nu^2 d)^nu."""
    return _display(lambda: 8.0 * float(math.comb(b.nu + 2 * b.d, 2 * b.d)) * b.c_knu
                    * (16.0 * b.nu * b.nu * b.d) ** b.nu, b.c_knu)


def p_constant(b):
    """The sorted-refinement constant 8 * rho_high * 2^nu * nu^2 * d^(2nu+5/2)."""
    return _display(lambda: 8.0 * b.rho_high * 2.0 ** b.nu * b.nu * b.nu
                    * b.d ** (2.0 * b.nu + 2.5))


def subcube_classification(x, h, nu, d):
    """Classify a point for the pointwise theorem's two-regime split.

    The cube is cut into q^d cells of side 1/q with q = floor(1/l),
    l = 8 nu^2 (sqrt(d)+1) h; a point is Interior when its coordinate
    cell indices are pairwise distinct, NearDiagonal otherwise (some
    coordinates share a cell, where sorting can halve distances).
    """
    _int_at_least("nu", nu, 1)
    _int_at_least("d", d, 1)
    x = as_point(x, d)
    _above("h", h, 0.0)
    v = 1.0 / (8.0 * nu * nu * (math.sqrt(d) + 1.0) * h)
    if v < 1.0:
        return Region.NEAR_DIAGONAL
    if math.isinf(v):
        # cells of width 0: one per distinct coordinate
        cells = x.tolist()
    else:
        # Python integers stay exact where an int64 cast of x * q overflows
        q = math.floor(v)
        cells = [min(math.floor(c * q), q - 1) for c in x.tolist()]
    return Region.INTERIOR if len(set(cells)) == d else Region.NEAR_DIAGONAL


def pointwise_bound(b, h, mode, region=Region.INTERIOR):
    """Pointwise interpolation error bound at fill distance h.

    Plain: norm_h * sqrt(Ctilde * h^nu), valid under the cube cone
    condition. Sorted Interior: the same display with the sorted fill
    distance, valid under the simplex condition. Sorted NearDiagonal:
    norm_h * sqrt(Ctilde * (2 d^2 h)^nu), covering cells where sorting
    contracts distances.
    """
    _above("h", h, 0.0)
    dom = _mode_domain(mode)
    near = dom is Domain.SORTED_SIMPLEX and region is Region.NEAR_DIAGONAL
    ctilde = tilde_constant(b)
    value = _display(lambda: b.norm_h * math.sqrt(
        ctilde * (2.0 * b.d * b.d * h if near else h) ** b.nu), b.norm_h, ctilde)
    validity = math.isfinite(value) and cone_condition_holds(h, b.nu, b.d, dom)
    return BoundReport(value=value, validity=validity)


def l2_bound(b, h, mode, form="exact"):
    """L2(Unif) squared-error bound at fill distance h.

    Plain: norm_h^2 * Ctilde * h^nu. Sorted, form="exact":
    norm_h^2 * Ctilde * (1 + P h) * h^nu. Sorted, form="alpha":
    norm_h^2 * Ctilde * alpha * h^nu, additionally requiring
    (1 + P h) <= alpha for validity.
    """
    _above("h", h, 0.0)
    if form not in ("exact", "alpha"):
        raise ConfigError(f"form must be 'exact' or 'alpha', got {form!r}")
    dom = _mode_domain(mode)
    validity = cone_condition_holds(h, b.nu, b.d, dom)
    factor = 1.0
    if dom is Domain.SORTED_SIMPLEX:
        growth = 1.0 + p_constant(b) * h
        if form == "alpha":
            factor = b.alpha
            validity = validity and growth <= b.alpha
        else:
            factor = growth
    ctilde = tilde_constant(b)
    value = _display(lambda: b.norm_h ** 2 * ctilde * h ** b.nu * factor, b.norm_h, ctilde)
    validity = validity and math.isfinite(value)
    return BoundReport(value=value, validity=validity)


def h_tail_valid(epsilon, d, domain):
    """Ball-fit precondition of the fill-distance tail bound."""
    _int_at_least("d", d, 1)
    if domain is Domain.CUBE:
        return 0.0 < epsilon <= 1.0
    if domain is Domain.SORTED_SIMPLEX:
        return 0.0 < epsilon <= simplex_inradius(d)
    raise ConfigError(f"unknown domain {domain!r}")


def h_tail_bound(epsilon, n, d, rho_low, domain):
    """Tail probability bound P[fill distance > epsilon] for n iid points.

    Cube: (1/omega_d) (6/eps)^d (1 - rho_low omega_d (eps/4)^d)^n;
    SortedSimplex divides the prefactor by d!. The value is clipped to
    [0,1] (the display exceeds 1 where it is vacuous); where the decay
    base would be negative (epsilon far beyond the precondition, see
    h_tail_valid) it is floored at zero. Where the display overflows a
    float (large d), it is evaluated in log space; where epsilon/4
    underflows to zero, the value is 1.
    """
    _above("epsilon", epsilon, 0.0)
    _int_at_least("n", n, 1)
    _int_at_least("d", d, 1)
    _above("rho_low", rho_low, 0.0)
    if domain not in (Domain.CUBE, Domain.SORTED_SIMPLEX):
        raise ConfigError(f"unknown domain {domain!r}")
    if epsilon / 4.0 == 0.0:
        # no decay against a prefactor far past the float range, and no
        # logarithm of epsilon/4 for the log-space path
        return 1.0
    srt = domain is Domain.SORTED_SIMPLEX

    def direct():
        wd = ball_volume(d)
        pref = (6.0 / epsilon) ** d / wd
        if srt:
            pref /= math.factorial(d)
        return pref * max(1.0 - rho_low * wd * (epsilon / 4.0) ** d, 0.0) ** n

    value = _display(direct)
    if value == math.inf:
        # log of the ball volume, finite where math.gamma overflows
        log_wd = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
        log_pref = d * math.log(6.0 / epsilon) - log_wd - (math.lgamma(d + 1.0) if srt else 0.0)
        log_t = math.log(rho_low) + log_wd + d * math.log(epsilon / 4.0)
        if log_t >= 0.0:
            return 0.0
        log_value = log_pref + n * math.log1p(-math.exp(log_t))
        value = 1.0 if log_value >= 0.0 else math.exp(log_value)
    return min(max(value, 0.0), 1.0)


def error_tail_valid(epsilon, b, mode):
    """Floor precondition of the error tail bound, at h = epsilon^(1/nu)."""
    _above("epsilon", epsilon, 0.0)
    return cone_condition_holds(epsilon ** (1.0 / b.nu), b.nu, b.d, _mode_domain(mode))


def error_tail_bound(epsilon, n, b, mode):
    """Tail probability bound P[squared L2 error > epsilon] for n iid points.

    The squared error is at most M h^nu, with M = max(1, norm_h^2 Ctilde)
    (Plain) or M = max(1, norm_h^2 Ctilde (1 + P epsilon^(1/nu))) (Sorted),
    so the bound is h_tail_bound in the mode's domain at the radius
    (epsilon/M)^(1/nu), and 1 where that radius underflows to zero. An
    exactly zero norm_h or Ctilde makes the product exactly 0, so M = 1,
    even where the other factor is infinite. Precondition via
    error_tail_valid.
    """
    _above("epsilon", epsilon, 0.0)
    # checked here too: an underflowed radius answers before h_tail_bound sees n
    _int_at_least("n", n, 1)
    domain = _mode_domain(mode)
    growth = 1.0
    if domain is Domain.SORTED_SIMPLEX:
        growth = 1.0 + p_constant(b) * epsilon ** (1.0 / b.nu)
    ctilde = tilde_constant(b)
    m = max(1.0, _display(lambda: b.norm_h ** 2 * ctilde * growth, b.norm_h, ctilde))
    # in log form, so an infinite M or a tiny epsilon/M gives a radius, not an overflow
    r = math.exp((math.log(epsilon) - math.log(m)) / b.nu)
    return h_tail_bound(r, n, b.d, b.rho_low, domain) if r > 0.0 else 1.0


def eigen_bound_fill(j, h, b, mode):
    """Eigenvalue bound from the fill distance of a (j-1)-point design.

    Plain: sqrt(C_K0 Ctilde) h^(nu/2); Sorted multiplies by alpha and
    takes h in the sorted metric.
    """
    _int_at_least("j", j, 2)
    _above("h", h, 0.0)
    factor = b.alpha if _mode_domain(mode) is Domain.SORTED_SIMPLEX else 1.0
    ctilde = tilde_constant(b)
    value = _display(lambda: math.sqrt(b.c_k0 * ctilde) * h ** (b.nu / 2.0) * factor, b.c_k0, ctilde)
    return BoundReport(value=value, validity=math.isfinite(value))


def eigen_bound_covering(j, b, mode):
    """Eigenvalue bound via the deterministic covering design at index j.

    Plain: sqrt(8 binom(nu+2d,2d) C_K0 C_Knu) (48 nu^2 d)^(nu/2)
    / (omega_d j)^(nu/(2d)); Sorted puts d! omega_d j in the denominator
    and multiplies by alpha.
    """
    _int_at_least("j", j, 2)
    srt = _mode_domain(mode) is Domain.SORTED_SIMPLEX
    value = _display(
        lambda: math.sqrt(8.0 * float(math.comb(b.nu + 2 * b.d, 2 * b.d)) * b.c_k0 * b.c_knu)
        * (48.0 * b.nu * b.nu * b.d) ** (b.nu / 2.0)
        / (ball_volume(b.d) * j * (math.factorial(b.d) if srt else 1)) ** (b.nu / (2.0 * b.d))
        * (b.alpha if srt else 1.0), b.c_k0, b.c_knu)
    return BoundReport(value=value, validity=math.isfinite(value))


def eigen_bound_weyl(j, b, mode):
    """Eigenvalue bound through Weyl's law, decaying like j^(-nu/d).

    Plain: ((nu+d)!/d!) (C_Knu/(2 pi)^nu) ((1+nu) d^nu omega_d /
    rho_low)^(nu/d) / j^(nu/d); Sorted divides by (d!)^(nu/d - 1).
    """
    _int_at_least("j", j, 1)
    srt = _mode_domain(mode) is Domain.SORTED_SIMPLEX
    value = _display(
        lambda: math.factorial(b.nu + b.d) / math.factorial(b.d) * b.c_knu / (2.0 * math.pi) ** b.nu
        * ((1.0 + b.nu) * float(b.d) ** b.nu * ball_volume(b.d) / b.rho_low) ** (b.nu / b.d)
        / float(j) ** (b.nu / b.d)
        / (math.factorial(b.d) ** (b.nu / b.d - 1.0) if srt else 1.0), b.c_knu)
    return BoundReport(value=value, validity=math.isfinite(value))
