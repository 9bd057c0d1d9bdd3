"""Benchmark test statistics for the two-equation model: the S/T sufficient
statistics, the likelihood-ratio statistic with conditional (CLR) critical
values, Lagrange-multiplier and Anderson-Rubin statistics, and the profile
likelihood that realizes the LR/BLR tests on the structural hypothesis."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import GeneralDesign, IvSample
from .bootstrap import RetryDrawError
from .quasilik import SingularNuisanceError, _inv_sqrt_psd, positive_definite


@dataclass(frozen=True)
class STPair:
    """Sufficient-statistic vectors for a hypothesized beta0."""

    s: np.ndarray
    t: np.ndarray
    beta0: float


def st_vectors(sample: IvSample, beta0: float) -> STPair:
    """S and T vectors at beta0, with the symmetric square root of the
    instrument Gram matrix and the error covariance taken as the identity."""
    z = sample.z
    gram_inv_sqrt = _inv_sqrt_psd(z @ z.T)
    norm = np.sqrt(1.0 + beta0 * beta0)
    s = gram_inv_sqrt @ (z @ (sample.y1 - beta0 * sample.y2)) / norm
    t = gram_inv_sqrt @ (z @ (beta0 * sample.y1 + sample.y2)) / norm
    return STPair(s=s, t=t, beta0=float(beta0))


def st_quadratics(q11, q12, q22, v):
    """S'S, T'T and S'T at the hypothesized value v for omega = I, from the
    profile quadratics q11 = y1'P y1, q12 = y1'P y2, q22 = y2'P y2 (P the
    projection on the instruments), elementwise over arrays."""
    den = 1.0 + v * v
    ss = (q11 - 2 * v * q12 + v * v * q22) / den
    tt = (v * v * q11 + 2 * v * q12 + q22) / den
    st = (v * q11 + (1 - v * v) * q12 - v * q22) / den
    return ss, tt, st


def tclr_from(ss, tt, st):
    """t_clr from S'S, T'T and S'T, elementwise over arrays."""
    d = ss - tt
    return d + np.sqrt(d * d + 4.0 * st * st)


def ar_from(ss, n_instruments):
    """Anderson-Rubin statistic from S'S, elementwise over arrays."""
    return ss / n_instruments


def lm_from(tt, st):
    """Lagrange-multiplier statistic from T'T and S'T, elementwise over arrays."""
    return st * st / tt


_LOG_BIG = 600.0  # the tail sums rescale by exp(-600): log_scale stays exact
_BIG = math.exp(_LOG_BIG)


def _chi2_tail(x, df, upper):
    """Upper (upper=True) or lower tail probability of chi-square(df) at x > 0.

    With h = x/2 and the terms t_a = h**a e**-h / Gamma(a + 1), a = df/2 - m
    for integers m, the upper tail is sum_{a < df/2} t_a, plus erfc(sqrt(h))
    for odd df, and the lower tail is sum_{a >= df/2} t_a.  The terms come
    from the recurrence t_{a+1} = t_a h / (a + 1), started from the lowest
    a at e**-h times a closed form; they are carried as t * exp(log_scale)
    and rescaled by e**-600 when they grow, so no e**-h underflows.
    """
    h = 0.5 * x
    odd = df % 2
    a, t = (0.5, 2.0 * math.sqrt(h / math.pi)) if odd else (0.0, 1.0)
    log_scale, total = -h, 0.0
    while a < 0.5 * df or not upper and (a <= h or t > 1e-17 * total):
        if (a < 0.5 * df) == upper:
            total += t
        t *= h / (a + 1.0)
        a += 1.0
        if t > _BIG:
            t, total, log_scale = t / _BIG, total / _BIG, log_scale + _LOG_BIG
    tail = total * math.exp(log_scale)
    return tail + math.erfc(math.sqrt(h)) if upper and odd else tail


def chi2_ppf(p, df):
    """Chi-square(df) quantile at p, for p in (0, 1) and an integer df >= 1.

    Newton's method on the tail holding the smaller probability (the upper
    one for p >= 1/2, where 1 - p is exact), kept inside a bracket of the
    quantile by bisection.  It starts from the Wilson-Hilferty approximation
    or a lower bound of the quantile, whichever is larger.  The tests hold
    it within 4 ulp of a 40-digit reference over df 1-200.
    """
    try:
        df, p = operator.index(df), float(p)
    except TypeError:
        raise ValueError(f"chi2_ppf needs a scalar p and an integer df, got {p!r}, {df!r}") from None
    if df < 1 or not 0.0 < p < 1.0:
        raise ValueError(f"chi2_ppf needs p in (0, 1) and df >= 1, got p={p}, df={df}")
    upper = p >= 0.5
    target = 1.0 - p if upper else p
    # normal quantile of the smaller tail (Abramowitz & Stegun 26.2.23)
    w = math.sqrt(-2.0 * math.log(target))
    z = w - (2.515517 + w * (0.802853 + w * 0.010328)) / (
        1.0 + w * (1.432788 + w * (0.189269 + w * 0.001308)))
    c = 2.0 / (9.0 * df)
    base = 1.0 - c + (z if upper else -z) * math.sqrt(c)
    # the lower tail is at most h**(df/2) / Gamma(df/2 + 1), so x <= quantile
    x = max(df * max(base, 0.0) ** 3,
            2.0 * math.exp((math.log(p) + math.lgamma(0.5 * df + 1.0)) * 2.0 / df))
    if x == 0.0:  # the quantile is below the smallest double
        return 0.0
    log_norm = 0.5 * df * math.log(2.0) + math.lgamma(0.5 * df)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        tail = _chi2_tail(x, df, upper)
        if (tail > target) == upper:  # x below the quantile
            lo = x
        else:
            hi = x
        density = math.exp((0.5 * df - 1.0) * math.log(x) - 0.5 * x - log_norm)
        delta = (tail - target) / target
        if delta <= -1.0 or density == 0.0:
            x_new = math.nan  # no Newton step: bisect
        else:
            # far from the quantile, Newton on log(tail), where a power-law
            # tail is close to linear; near it, Newton on the tail
            gap = tail - target if abs(delta) < 0.5 else math.log1p(delta) * tail
            x_new = x + gap / density if upper else x - gap / density
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(x_new - x) <= 1e-15 * x + 1e-320:  # or a few subnormal spacings
            return x_new
        x = x_new
    raise ArithmeticError(f"chi2_ppf did not converge at p={p}, df={df}")


def t_clr(pair: STPair) -> float:
    """S'S - T'T + sqrt((S'S - T'T)^2 + 4 (S'T)^2), always >= 0."""
    return float(tclr_from(float(pair.s @ pair.s), float(pair.t @ pair.t),
                           float(pair.s @ pair.t)))


def t_lm(pair: STPair) -> float:
    """(S'T)^2 / T'T, compared against the chi-square(1) quantile."""
    tt = float(pair.t @ pair.t)
    if tt <= 0.0:
        raise ValueError("T'T = 0: the Lagrange-multiplier statistic is undefined")
    return lm_from(tt, float(pair.s @ pair.t))


def t_ar(pair: STPair, n_instruments: Optional[int] = None) -> float:
    """S'S / J, compared against the chi-square(J)/J quantile."""
    J = n_instruments if n_instruments is not None else pair.s.size
    return ar_from(float(pair.s @ pair.s), J)


def _chi2_cdf(x, df):
    """Chi-square(df) distribution function at each x > 0 of an array, with
    F_0 = 1: one minus the finite upper-tail sum of _chi2_tail, its terms
    taken in logs."""
    h = 0.5 * x
    a = 0.5 * (df % 2)
    tail = np.frompyfunc(math.erfc, 1, 1)(np.sqrt(h)).astype(float) if df % 2 else 0.0
    while a < 0.5 * df:
        tail = tail + np.exp(a * np.log(h) - h - math.lgamma(a + 1.0))
        a += 1.0
    return 1.0 - tail


@functools.cache
def _clr_curve(k: int, alpha: float):
    """Degree-64 Chebyshev interpolant, in u = tau / (tau + k) on [0, 1], of
    the exact conditional critical value of t_clr given T'T = tau.

    Under H0, S ~ N(0, I_k) and t_clr <= 2c exactly when
    (tau + c) S1^2 + c (S2^2 + ... + Sk^2) <= c (c + tau); with
    S1^2 = c sin^2(phi) that has probability
        int_0^{pi/2} sqrt(2c/pi) e^{-c sin^2(phi)/2} F_{k-1}((c + tau) cos^2(phi)) cos(phi) dphi
    (Moreira 2003; Andrews, Moreira & Stock 2006), taken by 32-node
    Gauss-Legendre on two panels split where F_{k-1}'s argument is
    2 (k + 40), so the second panel holds its rise at large tau.  c is found
    by bisection between the tau -> infinity and tau = 0 limits, the
    chi-square(1) and chi-square(k) quantiles.
    """
    from numpy.polynomial import Chebyshev, legendre

    x, w = legendre.leggauss(32)
    x, w = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]

    def cdf(c, tau):
        split = np.arccos(np.sqrt(np.minimum(1.0, 2.0 * (k + 40) / (c + tau))))[:, None]
        phi = np.concatenate([split * x, split + (0.5 * np.pi - split) * x], axis=1)
        wts = np.concatenate([split * w, (0.5 * np.pi - split) * w], axis=1)
        c, tau = c[:, None], tau[:, None]
        f = (np.sqrt(2.0 * c / np.pi) * np.exp(-0.5 * c * np.sin(phi) ** 2)
             * _chi2_cdf((c + tau) * np.cos(phi) ** 2, k - 1) * np.cos(phi))
        return np.sum(wts * f, axis=1)

    def critical(u):
        tau = k * u / (1.0 - u)
        lo = np.full_like(u, chi2_ppf(1.0 - alpha, 1))
        hi = np.full_like(u, chi2_ppf(1.0 - alpha, k))
        while np.any(hi - lo > 1e-15 * hi):
            mid = 0.5 * (lo + hi)
            below = cdf(mid, tau) < 1.0 - alpha
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return lo + hi  # 2c, on the t_clr scale

    return Chebyshev.interpolate(critical, 64, domain=[0.0, 1.0])


def clr_critical_values(taus, n_instruments: int, alpha: float) -> np.ndarray:
    """Conditional critical values of t_clr at each ||T||^2 in ``taus``, from
    the exact law of the statistic given T'T (see _clr_curve).  The
    curve of each (n_instruments, alpha) is built on first use."""
    taus = np.asarray(taus, dtype=float)
    try:
        k, alpha = operator.index(n_instruments), float(alpha)
    except TypeError:
        raise ValueError(f"n_instruments must be an integer, got {n_instruments!r}") from None
    if k < 1 or not 0.0 < alpha < 1.0:
        raise ValueError(f"need n_instruments >= 1 and alpha in (0, 1), "
                         f"got {n_instruments}, {alpha}")
    if not np.all((taus >= 0.0) & (taus < np.inf)):
        raise ValueError("every ||T||^2 must be finite and >= 0")
    return _clr_curve(k, alpha)(taus / (taus + k))


def clr_critical(t_norm2: float, n_instruments: int, alpha: float) -> float:
    """Conditional critical value of t_clr given ||T||^2 = t_norm2: the
    batch of one of clr_critical_values."""
    return float(clr_critical_values([t_norm2], n_instruments, alpha)[0])


def _profile_quadratics(sample: IvSample, weights: Optional[np.ndarray]):
    """The 2x2 matrix M and the scalar C_u of the (weighted) profile
    likelihood.

    For fixed beta the nuisance coefficients solve a weighted least-squares
    problem; profiling them out leaves
        value(beta) = -0.5 * (C_u - d' M d / d'd),  d = (beta, 1),
    with M = W' G_u^{-1} W, G_u = Z diag(u) Z' and W = Z diag(u) (y1, y2).
    A G_u that fails ``quasilik.positive_definite`` has no maximizer: that
    raises RetryDrawError for weights, so the caller can redraw, and
    SingularNuisanceError for the unweighted sample.
    """
    z = sample.z
    y = np.stack([sample.y1, sample.y2], axis=1)  # (n, 2)
    n = sample.n_obs
    u = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"weights must be ({n},), got {u.shape}")
    G_u = (z * u[None, :]) @ z.T  # (J, J)
    W = (z * u[None, :]) @ y  # (J, 2): columns pair with d
    C_u = float(np.einsum("ni,ni,n->", y, y, u))
    if not positive_definite(G_u):
        if weights is None:
            raise SingularNuisanceError("instrument Gram matrix is not positive definite")
        raise RetryDrawError("weighted instrument Gram matrix is not positive definite")
    return W.T @ np.linalg.solve(G_u, W), C_u


def ams_profile_loglik(sample: IvSample, beta: float,
                       weights: Optional[np.ndarray] = None) -> float:
    """Profile (optionally weighted) Gaussian log-likelihood at beta.

    The coefficient vector is profiled out at its weighted least-squares
    solution for fixed beta; the returned value omits the constant
    normalization, so noiseless data give exactly zero.  A Gram matrix that
    is not positive definite raises (see _profile_quadratics).  An infinite
    beta gives the limit of the profile as |beta| grows.
    """
    M, C_u = _profile_quadratics(sample, weights)
    # beta = +-inf is the limit along the direction d = (1, 0)
    d = np.array([1.0, 0.0]) if np.isinf(beta) else np.array([beta, 1.0])
    return -0.5 * (C_u - float(d @ M @ d) / float(d @ d))


def _top_eigvec_2x2(h11, h12, h22):
    """Top eigenvalue and unit eigenvector (vx, vy) of the symmetric 2x2
    matrices [[h11, h12], [h12, h22]], elementwise over arrays."""
    lmax = 0.5 * (h11 + h22) + np.sqrt(0.25 * (h11 - h22) ** 2 + h12 ** 2)
    # of the two forms of the eigenvector, take the one free of cancellation
    upper = h11 >= h22
    vx = np.where(upper, lmax - h22, h12)
    vy = np.where(upper, h12, lmax - h11)
    vx = np.where((vx == 0.0) & (vy == 0.0), 1.0, vx)  # h = h11 * I: any vector
    nrm = np.hypot(vx, vy)
    return lmax, vx / nrm, vy / nrm


def _sup_profile_g(M: np.ndarray):
    """Maximize g(beta) = d' M d / d'd, d = (beta, 1), in closed form.

    The supremum over all directions d is the top eigenpair of M.  When
    the eigenvector has no second component the supremum is approached as
    beta -> infinity, and beta_max is returned as inf.
    """
    gmax, dx, dy = _top_eigvec_2x2(M[0, 0], M[0, 1], M[1, 1])
    beta_max = np.inf if dy == 0.0 else float(dx / dy)
    return beta_max, float(gmax)


def profile_sup(sample: IvSample, weights: Optional[np.ndarray] = None):
    """Supremum over beta of the (weighted) profile likelihood.

    Returns (beta_max, sup_value), both in closed form (see
    _sup_profile_g); beta_max is inf when the supremum is only approached
    as beta grows without bound.
    """
    M, C_u = _profile_quadratics(sample, weights)
    beta_max, gmax = _sup_profile_g(M)
    return beta_max, -0.5 * (C_u - gmax)


def ams_lr_statistic(sample: IvSample, beta0: float) -> float:
    """Likelihood-ratio statistic of H0: beta = beta0 on the t_clr scale.

    Evaluates 4 * [sup_beta profile - profile(beta0)]; this equals
    t_clr(st_vectors(sample, beta0)) exactly.  (The t_clr convention is
    twice the usual 2-log-likelihood-ratio, hence the factor 4 here rather
    than 2.)
    """
    _, sup_val = profile_sup(sample)
    prof0 = ams_profile_loglik(sample, beta0)
    return 4.0 * (sup_val - prof0)


def ams_blr_statistic(sample: IvSample, weights,
                      center: Optional[float] = None) -> float:
    """Bootstrap likelihood-ratio statistic on the t_clr scale.

    The restricted optimum fixes beta at the full-sample profile maximizer
    (the centered bootstrap hypothesis) while the nuisance coefficients stay
    free under the weighted objective.  Pass ``center`` to pin beta at some
    other value, e.g. the hypothesized beta0.  One draw at a time, this is
    the reference that harness._blr_quantiles is tested against.
    """
    if center is None:
        center, _ = profile_sup(sample)
    _, sup_w = profile_sup(sample, weights)
    prof_c = ams_profile_loglik(sample, center, weights)
    stat = 4.0 * (sup_w - prof_c)
    return stat


def benchmark_design(sample: IvSample) -> GeneralDesign:
    """Two-equation sample mapped to the linear quasi-likelihood layout at
    its recorded truth (outcome equation scaled by beta_star)."""
    if sample.truth is None:
        raise ValueError("sample must carry its generating truth")
    beta = sample.truth.beta_star
    eta = np.stack([beta * sample.z.T, sample.z.T])
    zk = np.stack([sample.y1, sample.y2])
    return GeneralDesign(eta=eta, zk=zk, penalty=0.0)
