"""Rectified Gaussian distribution and its copula.

A rectified Gaussian vector is max(a, nu) componentwise for nu ~ N(0, Sigma).
Zeros in the data correspond to coordinates stuck at their thresholds, and the
law marginalizes to any coordinate subset, which is what makes the pairwise
maximum-likelihood estimation of Sigma work. This module provides sampling,
the four-branch bivariate likelihood, pairwise correlation estimation, full
matrix assembly, zero-pattern probabilities, and ``copula_loglik_rows``: the
one copula log-density kernel, batched by zero pattern, that both models
score with (the exact form adds the rectified-block orthant term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DataError, NumericError
from .stat_core import (
    LOG_2PI,
    ConditionalGaussian,
    bivariate_normal_cdf,
    clamp_probability,
    conditional_gaussian,
    mvn_logpdf,
    mvn_orthant_logprob,
    mvn_orthant_mc,
    repair_correlation,
    std_normal_cdf,
    std_normal_logcdf,
    std_normal_logpdf,
)

RHO_BRACKET = 0.9999
GRID_POINTS = 41
BRENT_TOL = 1e-6
BRENT_MAXITER = 200
# Estimator points per row for the exact copula term (mvn_orthant_logprob).
DEFAULT_MC_SAMPLES = 512
# Shared Monte Carlo draws for zero_pattern_logprob (mvn_orthant_mc).
PATTERN_MC_SAMPLES = 4096
# Two-zero orthants whose closed form is below this go to the estimator: the
# closed form's absolute error of about 1e-16 is a relative one of 1e-8 here.
CLOSED_FORM_MIN = 1e-8


@dataclass(frozen=True)
class RgdParams:
    """Correlation matrix and per-coordinate thresholds (-inf allowed)."""

    sigma: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        if a.shape != (sigma.shape[0],):
            raise ValueError("thresholds must match sigma dimension")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class ZeroPattern:
    """Partition of coordinate indices into the zero set and its complement."""

    zero_set: tuple[int, ...]
    positive_set: tuple[int, ...]

    def __post_init__(self):
        zero = tuple(sorted(int(i) for i in self.zero_set))
        pos = tuple(sorted(int(i) for i in self.positive_set))
        all_idx = sorted(zero + pos)
        if all_idx != list(range(len(all_idx))):
            raise ValueError("zero and positive sets must partition 0..D-1")
        object.__setattr__(self, "zero_set", zero)
        object.__setattr__(self, "positive_set", pos)

    @property
    def dim(self) -> int:
        return len(self.zero_set) + len(self.positive_set)


def sample_rgd(params: RgdParams, n: int, seed: int) -> np.ndarray:
    """Draw n rows of max(a, nu) with nu ~ N(0, sigma); deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        lower = np.linalg.cholesky(params.sigma)
    except np.linalg.LinAlgError:
        raise NumericError("sigma is not positive definite") from None
    z = rng.standard_normal((int(n), params.dim))
    nu = z @ lower.T
    return np.maximum(params.a, nu)


def _log_bivariate_density(w_i, w_j, rho: float):
    """log of the bivariate standard normal density at (w_i, w_j)."""
    om = 1.0 - rho * rho
    quad = (w_i * w_i - 2.0 * rho * w_i * w_j + w_j * w_j) / om
    return -LOG_2PI - 0.5 * math.log(om) - 0.5 * quad


def _log_mixed_branch(w_obs, a_zero: float, rho: float):
    """log phi1(w_obs) + log Phi((a_zero - rho*w_obs)/sqrt(1-rho^2))."""
    s = math.sqrt(1.0 - rho * rho)
    return std_normal_logpdf(w_obs) + std_normal_logcdf((a_zero - rho * w_obs) / s)


def pair_loglik(
    w_i: float,
    w_j: float,
    rho: float,
    a_i: float,
    a_j: float,
    zero_i: bool | None = None,
    zero_j: bool | None = None,
) -> float:
    """Log-likelihood of one bivariate rectified observation.

    The branch is selected by whether each coordinate sits at its threshold.
    Callers that know the original data should pass the zero flags explicitly;
    the default infers them by exact comparison with the thresholds, which is
    safe because the omega transform assigns (rather than computes) w = a.
    """
    rho = float(rho)
    if not abs(rho) < 1.0:
        raise ValueError("correlation must satisfy |rho| < 1")
    zi = (w_i == a_i) if zero_i is None else bool(zero_i)
    zj = (w_j == a_j) if zero_j is None else bool(zero_j)
    branches = _pair_branches(
        np.array([w_i], dtype=float),
        np.array([w_j], dtype=float),
        np.array([zi]),
        np.array([zj]),
        a_i,
        a_j,
    )
    return _pair_total_loglik(rho, *branches)


def _pair_branches(w_i, w_j, zi, zj, a_i, a_j) -> tuple:
    """Split paired samples into the arguments of _pair_total_loglik."""
    both_pos = ~zi & ~zj
    return (
        int((zi & zj).sum()),
        w_j[zi & ~zj],
        w_i[~zi & zj],
        w_i[both_pos],
        w_j[both_pos],
        float(a_i),
        float(a_j),
    )


def _pair_total_loglik(
    rho: float,
    n00: int,
    w_j_only_i_zero: np.ndarray,
    w_i_only_j_zero: np.ndarray,
    w_i_both: np.ndarray,
    w_j_both: np.ndarray,
    a_i: float,
    a_j: float,
) -> float:
    """Summed four-branch log-likelihood: both rectified (orthant mass), one
    rectified (density of the other times a conditional CDF), none (density)."""
    total = 0.0
    if n00:
        total += n00 * math.log(clamp_probability(bivariate_normal_cdf(a_i, a_j, rho)))
    if w_j_only_i_zero.size:
        total += float(np.sum(_log_mixed_branch(w_j_only_i_zero, a_i, rho)))
    if w_i_only_j_zero.size:
        total += float(np.sum(_log_mixed_branch(w_i_only_j_zero, a_j, rho)))
    if w_i_both.size:
        total += float(np.sum(_log_bivariate_density(w_i_both, w_j_both, rho)))
    return total


def estimate_rho(
    w_i,
    w_j,
    a_i: float,
    a_j: float,
    zero_i=None,
    zero_j=None,
) -> float:
    """Maximize the summed pair log-likelihood over rho in (-1, 1).

    A 41-point grid scan brackets the optimum before a bounded Brent polish
    (the likelihood is assumed unimodal; the scan guards against a bad
    bracket). Without any rectified value in either coordinate the likelihood
    is purely Gaussian and the estimate is the sample correlation.
    """
    w_i = np.asarray(w_i, dtype=float)
    w_j = np.asarray(w_j, dtype=float)
    if w_i.shape != w_j.shape or w_i.ndim != 1:
        raise DataError("paired samples must be equal-length vectors")
    n = w_i.size
    if n < 10:
        raise DataError("need at least 10 paired samples")
    zi = (w_i == a_i) if zero_i is None else np.asarray(zero_i, dtype=bool)
    zj = (w_j == a_j) if zero_j is None else np.asarray(zero_j, dtype=bool)

    both_zero = zi & zj
    if np.all(both_zero):
        raise DataError("no information: every pair is rectified in both coordinates")
    if not zi.any() and not zj.any():
        corr = float(np.corrcoef(w_i, w_j)[0, 1])
        if not np.isfinite(corr):
            raise NumericError("sample correlation undefined (constant coordinate)")
        return float(np.clip(corr, -RHO_BRACKET, RHO_BRACKET))

    args = _pair_branches(w_i, w_j, zi, zj, a_i, a_j)

    grid = np.linspace(-RHO_BRACKET, RHO_BRACKET, GRID_POINTS)
    values = np.array([_pair_total_loglik(r, *args) for r in grid])
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, GRID_POINTS - 1)]
    res = minimize_scalar(
        lambda r: -_pair_total_loglik(r, *args),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": BRENT_TOL, "maxiter": BRENT_MAXITER},
    )
    if not res.success:
        raise NumericError(f"pairwise likelihood maximization failed: {res.message}")
    return float(np.clip(res.x, -RHO_BRACKET, RHO_BRACKET))


def assemble_sigma(
    omega: np.ndarray,
    a,
    use_mle: bool,
    zero_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Build the full correlation matrix from omega-transformed columns.

    With use_mle, every pair goes through estimate_rho; otherwise the plain
    sample correlation over all rows (rectified values included) is taken.
    The result is passed through repair_correlation either way.
    """
    omega = np.asarray(omega, dtype=float)
    a = np.asarray(a, dtype=float)
    if omega.ndim != 2:
        raise DataError("omega must be a matrix")
    d = omega.shape[1]
    if a.shape != (d,):
        raise DataError("threshold vector must match omega columns")
    if zero_mask is None:
        zero_mask = omega == a
    else:
        zero_mask = np.asarray(zero_mask, dtype=bool)
        if zero_mask.shape != omega.shape:
            raise DataError("zero mask must match omega shape")
    if use_mle:
        sigma = np.eye(d)
        for i in range(d):
            for j in range(i + 1, d):
                rho = estimate_rho(
                    omega[:, i],
                    omega[:, j],
                    float(a[i]),
                    float(a[j]),
                    zero_i=zero_mask[:, i],
                    zero_j=zero_mask[:, j],
                )
                sigma[i, j] = sigma[j, i] = rho
    else:
        sigma = np.corrcoef(omega, rowvar=False)
        if not np.all(np.isfinite(sigma)):
            raise NumericError("sample correlation undefined (constant column)")
        np.fill_diagonal(sigma, 1.0)
    return repair_correlation(sigma)


def copula_loglik_rows(
    sigma,
    a,
    omega,
    positive,
    exact: bool = False,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    base_seed: int = 0,
) -> np.ndarray:
    """Gaussian-copula log-density of each row, grouped by zero pattern.

    ``positive`` marks the coordinates that are not rectified; omega is read
    only there. Each pattern costs one batched term on its positive block,
    log N(omega_pos; 0, sigma_pos) - sum log phi(omega_pos), skipped for a
    single coordinate, where it is 0 under a unit diagonal. That is the
    approximate form. The exact form (which reads the thresholds ``a``) adds
    each row's orthant term log P(nu_zero <= a_zero | nu_pos = omega_pos),
    minus sum log Phi(a_zero). The conditional law is computed once per
    pattern. The orthant is closed form for one zero, and for two zeros down
    to CLOSED_FORM_MIN. Rows below it and rows with three or more zeros go to
    one mvn_orthant_logprob call per zero count with ``mc_samples`` points
    per row and shifts drawn from ``base_seed``.
    """
    sigma = np.asarray(sigma, dtype=float)
    omega = np.asarray(omega, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    n, d = omega.shape
    if sigma.shape != (d, d) or positive.shape != omega.shape:
        raise ValueError("sigma, omega and the positive mask disagree in shape")
    if exact:
        a = np.asarray(a, dtype=float)
        if a.shape != (d,):
            raise ValueError("thresholds must match sigma dimension")
    total = np.zeros(n)
    # zero count -> [(rows, conditional covariance, upper bounds per row)]
    orthants: dict[int, list] = {}
    log_phi_a = np.zeros(n)
    patterns, inverse = np.unique(positive, axis=0, return_inverse=True)
    for g, pattern in enumerate(patterns):
        rows = np.flatnonzero(inverse == g)
        pos = np.flatnonzero(pattern)
        if pos.size >= 2:
            block = omega[rows[:, None], pos]
            total[rows] += mvn_logpdf(block, sigma[pos[:, None], pos])
            total[rows] -= std_normal_logpdf(block).sum(axis=1)
        if not exact or pos.size == d:
            continue
        zero = np.flatnonzero(~pattern)
        a_zero = a[zero]
        if not np.isfinite(a_zero).all():
            i = int(zero[~np.isfinite(a_zero)][0])
            raise ValueError(
                f"pattern impossible: coordinate {i} has no zero mass (threshold -inf)"
            )
        if pos.size:
            cond = conditional_gaussian(sigma, pos, omega[rows[:, None], pos].T)
            upper, cov = a_zero[:, None] - cond.mean, cond.cov
        else:
            upper = np.repeat(a_zero[:, None], rows.size, axis=1)
            cov = sigma[zero[:, None], zero]
        orthants.setdefault(zero.size, []).append((rows, cov, upper.T))
        log_phi_a[rows] = float(np.sum(std_normal_logcdf(a_zero)))
    for count, groups in orthants.items():
        rows = np.concatenate([r for r, _, _ in groups])
        cov = np.concatenate([np.broadcast_to(c, (r.size, *c.shape)) for r, c, _ in groups])
        upper = np.concatenate([u for _, _, u in groups])
        if count > 2:
            total[rows] += mvn_orthant_logprob(cov, upper, mc_samples, base_seed)
            continue
        sd = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 1e-300))
        z = upper / sd
        if count == 1:
            total[rows] += std_normal_logcdf(z[:, 0])
        else:
            r = np.clip(cov[:, 0, 1] / (sd[:, 0] * sd[:, 1]), -1 + 1e-12, 1 - 1e-12)
            p = bivariate_normal_cdf(z[:, 0], z[:, 1], r)
            tail = p < CLOSED_FORM_MIN
            total[rows[~tail]] += np.log(p[~tail])
            if tail.any():
                total[rows[tail]] += mvn_orthant_logprob(
                    cov[tail], upper[tail], mc_samples, base_seed
                )
    return total - log_phi_a


def zero_pattern_logprob(
    params: RgdParams,
    pattern: ZeroPattern,
    mc_samples: int = PATTERN_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """log P(the rectified law produces exactly this zero pattern).

    Closed form for D <= 2, mvn_orthant_mc over N(0, sigma) otherwise. One
    seed gives every pattern the same draws, so the probabilities of all 2^D
    patterns sum to exactly 1.
    """
    if pattern.dim != params.dim:
        raise ValueError("pattern dimension mismatch")
    a = params.a
    zero = list(pattern.zero_set)
    d = params.dim
    if d == 1:
        q = float(std_normal_cdf(a[0]))
        p = q if zero else 1.0 - q
        return float(np.log(clamp_probability(p)))
    if d == 2:
        q0 = float(std_normal_cdf(a[0]))
        q1 = float(std_normal_cdf(a[1]))
        rho = float(params.sigma[0, 1])
        both = (
            bivariate_normal_cdf(a[0], a[1], rho)
            if np.isfinite(a[0]) and np.isfinite(a[1])
            else 0.0
        )
        if len(zero) == 2:
            p = both
        elif len(zero) == 0:
            p = 1.0 - q0 - q1 + both
        elif zero == [0]:
            p = q0 - both
        else:
            p = q1 - both
        return float(np.log(clamp_probability(p)))
    is_zero = np.zeros(d, dtype=bool)
    is_zero[zero] = True
    est = mvn_orthant_mc(
        ConditionalGaussian(mean=np.zeros(d), cov=params.sigma),
        np.where(is_zero, a, np.inf),
        mc_samples,
        seed,
        lower=np.where(is_zero, -np.inf, a),
    )
    return float(np.log(clamp_probability(est.estimate)))
