"""Independent re-implementations that the package is tested against.

The closed-form bounds are written directly from the displayed formulas
with plain math-module arithmetic. The kernel evaluation is the direct
enumeration that the tiled kernel_cross replaced: one full (n, m)
distance matrix per permutation term, with the same per-element operation
order, so the package must match it bit for bit. The pruned max-min scan
is the one the tiled prescan and partial selection replaced: a full
(N, 32) prescan matrix and a stable argsort of every candidate; the
package must return the same float. The exact derivative sup-norm constant
maximizes each 1-D envelope on a grid and refines every local maximum by
golden-section search. Nothing here shares code with the package.
"""

import math
from itertools import permutations

import numpy as np


def omega(d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def tilde_c(nu, d, c_knu):
    return 8.0 * math.comb(nu + 2 * d, 2 * d) * c_knu * (16.0 * nu * nu * d) ** nu


def p_c(nu, d, rho_high):
    return 8.0 * rho_high * 2.0 ** nu * nu * nu * d ** (2.0 * nu + 2.5)


def pointwise(norm_h, nu, d, c_knu, h, sorted_mode, near_diagonal):
    ct = tilde_c(nu, d, c_knu)
    if sorted_mode and near_diagonal:
        return norm_h * math.sqrt(ct * (2.0 * d * d * h) ** nu)
    return norm_h * math.sqrt(ct * h ** nu)


def l2(norm_h, nu, d, c_knu, rho_high, h, sorted_mode, alpha_form=False, alpha=1.05):
    ct = tilde_c(nu, d, c_knu)
    if not sorted_mode:
        return norm_h ** 2 * ct * h ** nu
    if alpha_form:
        return norm_h ** 2 * ct * alpha * h ** nu
    return norm_h ** 2 * ct * (1.0 + p_c(nu, d, rho_high) * h) * h ** nu


def h_tail(eps, n, d, rho_low, sorted_domain):
    pref = (6.0 / eps) ** d / omega(d)
    if sorted_domain:
        pref /= math.factorial(d)
    base = 1.0 - rho_low * omega(d) * (eps / 4.0) ** d
    if base < 0.0:
        base = 0.0
    return min(max(pref * base ** n, 0.0), 1.0)


def error_tail(eps, n, nu, d, c_knu, norm_h, rho_low, rho_high, sorted_mode):
    ct = tilde_c(nu, d, c_knu)
    if sorted_mode:
        m = max(1.0, norm_h ** 2 * ct * (1.0 + p_c(nu, d, rho_high) * eps ** (1.0 / nu)))
        pref = 6.0 ** d / (math.factorial(d) * omega(d))
    else:
        m = max(1.0, norm_h ** 2 * ct)
        pref = 6.0 ** d / omega(d)
    val = pref * (m / eps) ** (d / nu)
    base = 1.0 - (rho_low * omega(d) / 4.0 ** d) * (eps / m) ** (d / nu)
    if base < 0.0:
        base = 0.0
    return min(max(val * base ** n, 0.0), 1.0)


def eigen_fill(nu, d, c_k0, c_knu, h, sorted_mode, alpha=1.05):
    v = math.sqrt(c_k0 * tilde_c(nu, d, c_knu)) * h ** (nu / 2.0)
    return alpha * v if sorted_mode else v


def eigen_covering(j, nu, d, c_k0, c_knu, sorted_mode, alpha=1.05):
    lead = math.sqrt(8.0 * math.comb(nu + 2 * d, 2 * d) * c_k0 * c_knu)
    num = (48.0 * nu * nu * d) ** (nu / 2.0)
    if sorted_mode:
        den = (math.factorial(d) * omega(d) * j) ** (nu / (2.0 * d))
        return alpha * lead * num / den
    den = (omega(d) * j) ** (nu / (2.0 * d))
    return lead * num / den


def eigen_weyl(j, nu, d, c_knu, rho_low, sorted_mode):
    lead = math.factorial(nu + d) / math.factorial(d) * c_knu / (2.0 * math.pi) ** nu
    geom = ((1.0 + nu) * d ** nu * omega(d) / rho_low) ** (nu / d)
    v = lead * geom / j ** (nu / d)
    if sorted_mode:
        v /= math.factorial(d) ** (nu / d - 1.0)
    return v


def _sort_rows(X):
    return np.ascontiguousarray(np.sort(X, axis=1)[:, ::-1])


def _pairwise_sq(A, B):
    # per-coordinate accumulation: (a-b)^2 terms are bitwise symmetric in (a,b)
    D = np.zeros((A.shape[0], B.shape[0]))
    for k in range(A.shape[1]):
        diff = A[:, k, None] - B[None, :, k]
        D += diff * diff
    return D


def _gauss(amplitude, bandwidth, D2):
    return amplitude * np.exp(D2 / (-2.0 * bandwidth * bandwidth))


def _all_perms(X):
    # rows of X expanded to every coordinate permutation: (n, d!, d)
    d = X.shape[1]
    perms = np.array(list(permutations(range(d))))
    return X[:, perms.T].transpose(0, 2, 1)


def kernel_cross_enum(amplitude, bandwidth, mode, W, Z):
    """Gaussian kernel matrix by direct enumeration; mode is "plain",
    "sorted" or "perm_single"."""
    W = np.asarray(W, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if mode == "plain":
        return _gauss(amplitude, bandwidth, _pairwise_sq(W, Z))
    if mode == "sorted":
        return _gauss(amplitude, bandwidth, _pairwise_sq(_sort_rows(W), _sort_rows(Z)))
    if mode != "perm_single":
        raise ValueError(f"unknown mode {mode!r}")
    PW = _all_perms(_sort_rows(W))
    Zc = _sort_rows(Z)
    out = np.zeros((W.shape[0], Z.shape[0]))
    for j in range(PW.shape[1]):
        out += _gauss(amplitude, bandwidth, _pairwise_sq(PW[:, j], Zc))
    return out / PW.shape[1]


def _exact_min_sq(C, X, xsq, cand_chunk=65536, block=4096):
    out = np.empty(C.shape[0])
    n = X.shape[0]
    for s in range(0, C.shape[0], cand_chunk):
        c = C[s:s + cand_chunk]
        m = np.full(c.shape[0], np.inf)
        for j in range(0, n, block):
            T = c @ X[j:j + block].T
            T *= -2.0
            T += xsq[j:j + block][None, :]
            np.minimum(m, T.min(axis=1), out=m)
        m += np.einsum("ij,ij->i", c, c)
        out[s:s + cand_chunk] = m
    return out


def maxmin_sq_pruned(X, C, prescan=32, warm=512, chunk=32768):
    """Squared max-min distance by the full-prescan, full-argsort scan."""
    n = X.shape[0]
    xsq = np.einsum("ij,ij->i", X, X)
    if n <= prescan or C.shape[0] <= warm:
        return float(_exact_min_sq(C, X, xsq).max())
    csq = np.einsum("ij,ij->i", C, C)
    k0 = prescan
    T = C @ X[:k0].T
    T *= -2.0
    T += xsq[:k0][None, :]
    m = T.min(axis=1)
    m += csq
    order = np.argsort(-m, kind="stable")
    h2 = float(_exact_min_sq(C[order[:warm]], X, xsq).max())
    rest = order[warm:]
    rest = rest[m[rest] > h2]
    for s in range(0, rest.shape[0], chunk):
        idx = rest[s:s + chunk]
        idx = idx[m[idx] > h2]
        if idx.shape[0] == 0:
            continue
        c = C[idx]
        cs = csq[idx]
        mm = m[idx] - cs
        j, b = k0, k0
        while j < n and idx.shape[0]:
            if idx.shape[0] * (n - j) <= 262144:
                b = n - j
            k = min(b, n - j)
            T = c @ X[j:j + k].T
            T *= -2.0
            T += xsq[j:j + k][None, :]
            np.minimum(mm, T.min(axis=1), out=mm)
            alive = (mm + cs) > h2
            if alive.mean() < 0.7:
                keep = np.flatnonzero(alive)
                idx, c, cs, mm = idx[keep], c[keep], cs[keep], mm[keep]
            j += k
            b = min(2 * b, 4096)
        if idx.shape[0]:
            h2 = max(h2, float((mm + cs).max()))
    return h2


def _hermite_e(g, x):
    # probabilists' Hermite polynomial by He_{k+1} = x He_k - k He_{k-1}
    prev, cur = np.ones_like(x), x
    if g == 0:
        return prev
    for k in range(1, g):
        prev, cur = cur, x * cur - k * prev
    return cur


def _envelope(g, x):
    return np.abs(_hermite_e(g, x)) * np.exp(-x * x / 2.0)


def _golden_max(f, lo, hi, iters=120):
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    for _ in range(iters):
        c, e = b - r * (b - a), a + r * (b - a)
        if f(c) >= f(e):
            b = e
        else:
            a = c
    return f((a + b) / 2.0)


def derivative_sup(g, sigma, points=20001):
    """max over |t| <= 1 of |d^g/dt^g exp(-t^2 / (2 sigma^2))|.

    In x = t/sigma the envelope is sigma^-g |He_g(x)| exp(-x^2/2), even in
    x and decreasing past sqrt(4g + 6), beyond every extremum; so a grid on
    [0, min(1/sigma, that radius)] with each local maximum refined finds it.
    """
    top = min(1.0 / sigma, math.sqrt(4.0 * g + 6.0) + 1.0)
    x = np.linspace(0.0, top, points)
    v = _envelope(g, x)
    best = max(v[0], v[-1])
    step = x[1] - x[0]
    for i in np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])) + 1:
        best = max(best, _golden_max(lambda u: float(_envelope(g, np.array(u))),
                                     x[i] - step, x[i] + step))
    return float(best) / sigma ** g


def _partitions_of(total, parts, cap):
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions_of(total - first, parts - 1, first):
            yield (first,) + rest


def sup_kernel_constant_exact(amplitude, sigma, nu, d):
    """The exact C_Knu of the Gaussian: the factorized maximum over the
    partitions of nu into at most d orders, with no safety factor."""
    env = {g: derivative_sup(g, sigma) for g in range(1, nu + 1)}
    best = 0.0
    for part in _partitions_of(nu, d, nu):
        prod = 1.0
        for g in part:
            prod *= env[g] / (math.factorial(g // 2) * math.factorial(g - g // 2))
        best = max(best, prod)
    return amplitude * best
