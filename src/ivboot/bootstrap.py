"""Multiplier bootstrap for the quasi log-likelihood: Gaussian N(1,1)
weights, the bootstrap likelihood-ratio statistic centered at the
full-sample fit, empirical critical values, the test decision, and the
draw-and-redraw kernel of every multiplier bootstrap."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import GeneralDesign, as_generator, chunk_rows
from . import quasilik

MAX_RETRY_FRACTION = 0.01


class RetryDrawError(RuntimeError):
    """Weighted normal matrix not positive definite; redraw the weights."""


class BootstrapAbortError(RuntimeError):
    """A bootstrap redrew more weight vectors than its budget allows."""


def check_redraws(n_redraws: int, n_boot: int) -> None:
    """The abort rule of every multiplier bootstrap: a bootstrap of n_boot
    draws may redraw at most max(1, floor(MAX_RETRY_FRACTION * n_boot))
    weight vectors, counting every redrawn vector, also one redrawn again."""
    limit = max(1, int(MAX_RETRY_FRACTION * n_boot))
    if n_redraws > limit:
        raise BootstrapAbortError(
            f"bootstrap aborted: too many indefinite weighted draws ({n_redraws} "
            f"redraws exceed the limit of {limit} for {n_boot} draws)")


@dataclass(frozen=True)
class TestOutcome:
    """Statistic, critical value, and decision of one test."""

    name: str
    statistic: float
    critical_value: float
    reject: bool
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BootstrapRun:
    """Bootstrap draws of the statistic and the resulting critical quantile.

    ``z_star_alpha`` is the right-continuous empirical (1-alpha) quantile of
    (T_BLR - J)/sqrt(J) over the draws.
    """

    n_boot: int
    t_blr_samples: np.ndarray
    z_star_alpha: float
    alpha: float
    n_retries: int = 0
    dim: int = 0


def t_blr(design: GeneralDesign, weights, projector,
          theta_tilde: Optional[np.ndarray] = None) -> float:
    """Bootstrap likelihood-ratio statistic with the hypothesis centered at
    the full-sample maximizer: sup L_boot - sup over {Pi(theta - theta_tilde) = 0}.

    ``quasilik.weighted_lr`` of the weights' sums.  Negative weights can make
    the weighted normal matrix indefinite: that raises RetryDrawError.
    """
    u = np.asarray(weights, dtype=float)
    if u.shape != (design.n_obs,):
        raise ValueError(f"weights must be ({design.n_obs},), got {u.shape}")
    if theta_tilde is None:
        theta_tilde = quasilik.mle(design)
    features, n_null = quasilik.lr_features(design, projector, theta_tilde)
    value, pd = quasilik.weighted_lr(design, n_null, u @ features)
    if not pd:
        raise RetryDrawError("weighted normal matrix is not positive definite")
    return float(value)


def boot_wilks_gap(design: GeneralDesign, weights, projector,
                   theta_star=None, expected_fisher=None, exact: bool = False) -> float:
    """| sqrt(2 T_BLR) - ||xi_s_boot|| |.

    With ``exact=True`` the score uses the weighted sample quantities
    expanded at the full-sample maximizer, for which the quadratic identity
    is exact; otherwise the centered gradient at ``theta_star`` and
    ``expected_fisher`` (default: the sample normal matrix plus the
    penalty) give the rate-style gap, through the score of the centered
    resampled gradient sum_i (u_i - 1) grad l_i(theta_star).
    """
    u = np.asarray(weights, dtype=float)
    theta_tilde = quasilik.mle(design)
    t = t_blr(design, u, projector, theta_tilde=theta_tilde)
    if exact:
        F_b = (np.einsum("kij,i,kil->jl", design.eta, u, design.eta)
               + design.penalty * u.mean() * np.eye(design.dim))
        g_b = u @ quasilik.grad_contributions(design, theta_tilde)
        sd = quasilik.score_from_parts(g_b, F_b, projector)
    else:
        if theta_star is None:
            raise ValueError("theta_star required unless exact=True")
        F = expected_fisher
        if F is None:
            F = quasilik.normal_matrix(design) + design.penalty * np.eye(design.dim)
        g = (u - 1.0) @ quasilik.grad_contributions(design, theta_star)
        sd = quasilik.score_from_parts(g, F, projector)
    return float(abs(np.sqrt(2.0 * max(t, 0.0)) - np.linalg.norm(sd.xi_s)))


def empirical_upper_quantile(samples: np.ndarray, alpha: float):
    """Right-continuous empirical (1-alpha) quantile: order statistic at
    index ceil((1-alpha) * B), clamped to 1..B, of the last axis.

    Returns a float for a vector and an array for a stack of vectors.
    """
    B = samples.shape[-1]
    k = int(np.ceil((1.0 - alpha) * B))
    k = min(max(k, 1), B)
    q = np.partition(samples, k - 1, axis=-1)[..., k - 1]
    return float(q) if q.ndim == 0 else q


def sum_law(F: np.ndarray):
    """The law of the multiplier-bootstrap sums F'u, u ~ N(1, 1) i.i.d., for
    features F (..., n, d): mean F'1 and the thin-QR factor R of F, with
    min(n, d) rows.  F'u = F'1 + R'Q'(u - 1) and Q'(u - 1) ~ N(0, I), so
    F'1 + zR with z ~ N(0, I) is N(F'1, F'F), whatever the rank of F."""
    return F.sum(axis=-2), np.linalg.qr(F, mode="r")


def multiplier_bootstrap(law, n_boot: int, statistic, gen: np.random.Generator,
                         shared=None):
    """n_boot kept values (R, n_boot) of ``statistic`` for R bootstraps with
    the sum law (mean (R, d), factor (R, k, d)) of ``sum_law``, and the
    number of draws redrawn.  ``statistic(sums, r, common)`` gives the
    values and verdicts of sum rows (R', m, d) of the bootstraps in slice r.

    One (n_boot, k) block z of normals is drawn first and shared by the R
    bootstraps: bootstrap r's sums are mean[r] + z factor[r], so each
    bootstrap has the law it would have alone, and the R bootstraps are
    common random numbers.  The sums are formed for as many whole
    bootstraps as chunk_rows(16 d) draws hold (a draw's d sums and the
    statistic's work on them), or for one bootstrap, whose statistic then
    takes pieces of chunk_rows(16 d) sum rows, as
    statistic(sums[None], slice(r, r + 1), common); each piece is
    evaluated before the next is formed.  z meets each factor in one
    (n_boot, k) x (k, d) product: BLAS rounds a row of a product
    differently with the number of rows.

    ``shared``, if given, does the part of the statistic's work that is
    the same for every bootstrap, on sums whose columns of mean and factor
    are the same for every bootstrap: shared(sums (m, d)) runs once per
    piece of draws, on the first bootstrap's sums, and its result is
    passed as ``common`` with the pieces of every bootstrap; otherwise
    ``common`` is None.

    After the block, bootstrap by bootstrap, the draws with a False
    verdict are redrawn as one block on the same stream until n_boot are
    kept, in draw order: the normals and draws that a draw-by-draw loop
    keeps.  Redrawn draws are their bootstrap's own, so their ``common`` is
    None.  Each bootstrap is one under check_redraws.  With R = 1 this
    consumes the stream of a lone bootstrap.
    """
    mean, factor = law
    R, k, d = factor.shape
    values = np.empty((R, n_boot))
    ok = np.empty((R, n_boot), dtype=bool)
    z = gen.standard_normal((n_boot, k))
    rows = chunk_rows(16 * d)
    per_chunk = max(1, rows // n_boot)
    common = [None] * len(range(0, n_boot, rows))
    buf = np.empty((min(per_chunk, R), n_boot, d))  # one chunk's sums, reused
    for r0 in range(0, R, per_chunk):
        r = slice(r0, min(r0 + per_chunk, R))
        sums = np.matmul(z, factor[r], out=buf[:r.stop - r0])
        sums += mean[r, None]
        for i, b in enumerate(range(0, n_boot, rows)):
            piece = sums[:, b:b + rows]
            if shared is not None and r0 == 0:
                common[i] = shared(piece[0])
            values[r, b:b + rows], ok[r, b:b + rows] = statistic(piece, r, common[i])
    n_redrawn = 0
    for r in np.flatnonzero(~ok.all(axis=1)):
        kept, redraws = [values[r, ok[r]]], 0
        while need := n_boot - sum(map(len, kept)):
            for redraws in range(redraws + 1, redraws + need + 1):
                check_redraws(redraws, n_boot)  # one redraw at a time
            sums = mean[r] + gen.standard_normal((need, k)) @ factor[r]
            value, ok_r = statistic(sums[None], slice(r, r + 1), None)
            kept.append(value[0, ok_r[0]])
        values[r] = np.concatenate(kept)
        n_redrawn += redraws
    return values, n_redrawn


def boot_quantile(design: GeneralDesign, projector, n_boot: int, alpha: float,
                  rng) -> BootstrapRun:
    """Draw n_boot multiplier-bootstrap statistics and locate the critical
    quantile of (T_BLR - J)/sqrt(J).

    A draw sees its weights only through their sums over the
    ``quasilik.lr_features``, so ``multiplier_bootstrap`` draws the sums,
    J(J+1)/2 + J + 1 normals a draw, not n.  ``n_retries`` counts redraws.
    """
    if n_boot < 100:
        raise ValueError(f"n_boot must be >= 100, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    features, n_null = quasilik.lr_features(design, projector, quasilik.mle(design))
    values, retries = multiplier_bootstrap(
        sum_law(features[None]), n_boot,
        lambda sums, r, common: quasilik.weighted_lr(design, n_null, sums), as_generator(rng))
    J = design.dim
    z = empirical_upper_quantile((values[0] - J) / np.sqrt(J), alpha)
    return BootstrapRun(n_boot=n_boot, t_blr_samples=values[0], z_star_alpha=z,
                        alpha=alpha, n_retries=retries, dim=J)


def blr_test(design: GeneralDesign, projector, t_lr_value: float,
             run: BootstrapRun) -> TestOutcome:
    """Accept/reject H0 by comparing T_LR with J + z_star_alpha * sqrt(J)."""
    J = design.dim
    threshold = J + run.z_star_alpha * np.sqrt(J)
    return TestOutcome(
        name="BLR",
        statistic=float(t_lr_value),
        critical_value=float(threshold),
        reject=bool(t_lr_value > threshold),
        info={"alpha": run.alpha, "n_boot": run.n_boot, "n_retries": run.n_retries,
              "z_star_alpha": run.z_star_alpha},
    )
