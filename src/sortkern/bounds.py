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

import numpy as np

from .errors import ConfigError
from .geometry import Domain, ball_volume, cone_condition_holds, simplex_inradius
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
        if self.nu < 1:
            raise ConfigError(f"nu must be >= 1, got {self.nu}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.c_k0 < 0.0 or self.c_knu < 0.0:
            raise ConfigError("kernel sup-constants must be nonnegative")
        if self.norm_h < 0.0:
            raise ConfigError(f"norm_h must be >= 0, got {self.norm_h}")
        if self.rho_low <= 0.0:
            raise ConfigError(f"rho_low must be positive, got {self.rho_low}")
        if self.rho_high < self.rho_low:
            raise ConfigError("rho_high must be >= rho_low")
        if self.alpha <= 1.0:
            raise ConfigError(f"alpha must be > 1, got {self.alpha}")


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


def tilde_constant(b):
    """The packed constant 8 * binom(nu+2d, 2d) * C_Knu * (16 nu^2 d)^nu.

    Overflow is returned as +inf rather than raised.
    """
    try:
        return 8.0 * float(math.comb(b.nu + 2 * b.d, 2 * b.d)) * b.c_knu \
            * (16.0 * b.nu * b.nu * b.d) ** b.nu
    except OverflowError:
        return math.inf


def p_constant(b):
    """The sorted-refinement constant 8 * rho_high * 2^nu * nu^2 * d^(2nu+5/2)."""
    try:
        return 8.0 * b.rho_high * 2.0 ** b.nu * b.nu * b.nu * b.d ** (2.0 * b.nu + 2.5)
    except OverflowError:
        return math.inf


def subcube_classification(x, h, nu, d):
    """Classify a point for the pointwise theorem's two-regime split.

    The cube is cut into q^d cells of side 1/q with q = floor(1/l),
    l = 8 nu^2 (sqrt(d)+1) h; a point is Interior when its coordinate
    cell indices are pairwise distinct, NearDiagonal otherwise (some
    coordinates share a cell, where sorting can halve distances).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != d:
        raise ConfigError(f"x must be a {d}-vector, got shape {x.shape}")
    if h <= 0.0:
        raise ConfigError(f"h must be positive, got {h}")
    q = math.floor(1.0 / (8.0 * nu * nu * (math.sqrt(d) + 1.0) * h))
    if q < 1:
        return Region.NEAR_DIAGONAL
    idx = np.minimum((x * q).astype(int), q - 1)
    return Region.INTERIOR if len(set(idx.tolist())) == d else Region.NEAR_DIAGONAL


def pointwise_bound(b, h, mode, region=Region.INTERIOR):
    """Pointwise interpolation error bound at fill distance h.

    Plain: norm_h * sqrt(Ctilde * h^nu), valid under the cube cone
    condition. Sorted Interior: the same display with the sorted fill
    distance, valid under the simplex condition. Sorted NearDiagonal:
    norm_h * sqrt(Ctilde * (2 d^2 h)^nu), covering cells where sorting
    contracts distances.
    """
    if h <= 0.0:
        raise ConfigError(f"h must be positive, got {h}")
    dom = _mode_domain(mode)
    ct = tilde_constant(b)
    near = dom is Domain.SORTED_SIMPLEX and region is Region.NEAR_DIAGONAL
    arg = (2.0 * b.d * b.d * h) ** b.nu if near else h ** b.nu
    value = b.norm_h * math.sqrt(ct * arg)
    validity = math.isfinite(value) and cone_condition_holds(h, b.nu, b.d, dom)
    return BoundReport(value=value, validity=validity)


def l2_bound(b, h, mode, form="exact"):
    """L2(Unif) squared-error bound at fill distance h.

    Plain: norm_h^2 * Ctilde * h^nu. Sorted, form="exact":
    norm_h^2 * Ctilde * (1 + P h) * h^nu. Sorted, form="alpha":
    norm_h^2 * Ctilde * alpha * h^nu, additionally requiring
    (1 + P h) <= alpha for validity.
    """
    if h <= 0.0:
        raise ConfigError(f"h must be positive, got {h}")
    if form not in ("exact", "alpha"):
        raise ConfigError(f"form must be 'exact' or 'alpha', got {form!r}")
    dom = _mode_domain(mode)
    ct = tilde_constant(b)
    base = b.norm_h ** 2 * ct * h ** b.nu
    validity = cone_condition_holds(h, b.nu, b.d, dom)
    if dom is Domain.SORTED_SIMPLEX:
        growth = 1.0 + p_constant(b) * h
        if form == "alpha":
            value = base * b.alpha
            validity = validity and growth <= b.alpha
        else:
            value = base * growth
    else:
        value = base
    validity = validity and math.isfinite(value)
    return BoundReport(value=value, validity=validity)


def _log_ball_volume(d):
    # log of geometry.ball_volume, finite where its math.gamma overflows
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def _tail_from_logs(log_pref, log_t, n):
    # exp(log_pref) * max(1 - exp(log_t), 0)^n clipped to [0, 1], for tail
    # displays whose factors overflow a float
    if log_t >= 0.0:
        return 0.0
    log_value = log_pref + n * math.log1p(-math.exp(log_t))
    return 1.0 if log_value >= 0.0 else math.exp(log_value)


def h_tail_valid(epsilon, d, domain):
    """Ball-fit precondition of the fill-distance tail bound."""
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
    float (large d), it is evaluated in log space.
    """
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if rho_low <= 0.0:
        raise ConfigError(f"rho_low must be positive, got {rho_low}")
    if domain not in (Domain.CUBE, Domain.SORTED_SIMPLEX):
        raise ConfigError(f"unknown domain {domain!r}")
    srt = domain is Domain.SORTED_SIMPLEX
    try:
        wd = ball_volume(d)
        pref = (6.0 / epsilon) ** d / wd
        if srt:
            pref /= math.factorial(d)
        base = max(1.0 - rho_low * wd * (epsilon / 4.0) ** d, 0.0)
        value = pref * base ** n
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        log_wd = _log_ball_volume(d)
        log_pref = d * math.log(6.0 / epsilon) - log_wd - (math.lgamma(d + 1.0) if srt else 0.0)
        log_t = math.log(rho_low) + log_wd + d * math.log(epsilon / 4.0)
        value = _tail_from_logs(log_pref, log_t, n)
    return min(max(value, 0.0), 1.0)


def error_tail_valid(epsilon, b, mode):
    """Floor precondition of the error tail bound, at h = epsilon^(1/nu)."""
    return cone_condition_holds(epsilon ** (1.0 / b.nu), b.nu, b.d, _mode_domain(mode))


def error_tail_bound(epsilon, n, b, mode):
    """Tail probability bound P[squared L2 error > epsilon] for n iid points.

    With M = max(1, norm_h^2 Ctilde) (Plain) or
    M = max(1, norm_h^2 Ctilde (1 + P epsilon^(1/nu))) (Sorted):
    (6^d/omega_d) (M/eps)^(d/nu) (1 - (rho_low omega_d/4^d)(eps/M)^(d/nu))^n,
    with the Sorted prefactor divided by d!. Clipped to [0,1] and
    evaluated in log space where it overflows, like h_tail_bound;
    precondition via error_tail_valid.
    """
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    srt = _mode_domain(mode) is Domain.SORTED_SIMPLEX
    ct = tilde_constant(b)
    if srt:
        m = max(1.0, b.norm_h ** 2 * ct * (1.0 + p_constant(b) * epsilon ** (1.0 / b.nu)))
    else:
        m = max(1.0, b.norm_h ** 2 * ct)
    power = b.d / b.nu
    try:
        wd = ball_volume(b.d)
        pref = 6.0 ** b.d / (math.factorial(b.d) * wd) if srt else 6.0 ** b.d / wd
        ratio = (epsilon / m) ** power
        base = max(1.0 - (b.rho_low * wd / 4.0 ** b.d) * ratio, 0.0)
        value = pref * (m / epsilon) ** power * base ** n
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        log_wd = _log_ball_volume(b.d)
        log_ratio = power * (math.log(epsilon) - math.log(m))
        log_pref = (b.d * math.log(6.0) - log_wd - (math.lgamma(b.d + 1.0) if srt else 0.0)
                    - log_ratio)
        log_t = math.log(b.rho_low) + log_wd - b.d * math.log(4.0) + log_ratio
        value = _tail_from_logs(log_pref, log_t, n)
    return min(max(value, 0.0), 1.0)


def eigen_bound_fill(j, h, b, mode):
    """Eigenvalue bound from the fill distance of a (j-1)-point design.

    Plain: sqrt(C_K0 Ctilde) h^(nu/2); Sorted multiplies by alpha and
    takes h in the sorted metric.
    """
    if j < 2:
        raise ConfigError(f"j must be >= 2, got {j}")
    if h <= 0.0:
        raise ConfigError(f"h must be positive, got {h}")
    srt = _mode_domain(mode) is Domain.SORTED_SIMPLEX
    value = math.sqrt(b.c_k0 * tilde_constant(b)) * h ** (b.nu / 2.0)
    if srt:
        value *= b.alpha
    return BoundReport(value=value, validity=math.isfinite(value))


def eigen_bound_covering(j, b, mode):
    """Eigenvalue bound via the deterministic covering design at index j.

    Plain: sqrt(8 binom(nu+2d,2d) C_K0 C_Knu) (48 nu^2 d)^(nu/2)
    / (omega_d j)^(nu/(2d)); Sorted puts d! omega_d j in the denominator
    and multiplies by alpha.
    """
    if j < 2:
        raise ConfigError(f"j must be >= 2, got {j}")
    srt = _mode_domain(mode) is Domain.SORTED_SIMPLEX
    try:
        lead = math.sqrt(8.0 * float(math.comb(b.nu + 2 * b.d, 2 * b.d)) * b.c_k0 * b.c_knu)
        num = (48.0 * b.nu * b.nu * b.d) ** (b.nu / 2.0)
        den_arg = ball_volume(b.d) * j
        if srt:
            den_arg *= math.factorial(b.d)
        value = lead * num / den_arg ** (b.nu / (2.0 * b.d))
        if srt:
            value *= b.alpha
    except OverflowError:
        value = math.inf
    return BoundReport(value=value, validity=math.isfinite(value))


def eigen_bound_weyl(j, b, mode):
    """Eigenvalue bound through Weyl's law, decaying like j^(-nu/d).

    Plain: ((nu+d)!/d!) (C_Knu/(2 pi)^nu) ((1+nu) d^nu omega_d /
    rho_low)^(nu/d) / j^(nu/d); Sorted divides by (d!)^(nu/d - 1).
    """
    if j < 1:
        raise ConfigError(f"j must be >= 1, got {j}")
    srt = _mode_domain(mode) is Domain.SORTED_SIMPLEX
    try:
        lead = math.factorial(b.nu + b.d) / math.factorial(b.d) \
            * b.c_knu / (2.0 * math.pi) ** b.nu
        geom = ((1.0 + b.nu) * float(b.d) ** b.nu * ball_volume(b.d) / b.rho_low) \
            ** (b.nu / b.d)
        value = lead * geom / float(j) ** (b.nu / b.d)
        if srt:
            value /= math.factorial(b.d) ** (b.nu / b.d - 1.0)
    except OverflowError:
        value = math.inf
    return BoundReport(value=value, validity=math.isfinite(value))
