"""Gaussian primitives shared by every other module.

Scalar standard-normal helpers, a bivariate normal CDF accurate to better
than 1e-8, multivariate normal log-density, Gaussian conditioning,
correlation-matrix repair, the seeded Monte Carlo estimator of box
probabilities, and the seed derivation every seeded caller shares. All
functions are pure; random state is always caller-supplied as a seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import NumericError

# Probabilities are clamped to this range before any log; keeps degenerate
# tails at a large-but-finite penalty instead of -inf.
PROB_FLOOR = 1e-15
PROB_CEIL = 1.0 - 1e-15
LOG_PROB_FLOOR = math.log(PROB_FLOOR)

LOG_2PI = math.log(2.0 * math.pi)

# Evaluation chunk cap (rows times centers per block) for kernel sums.
CHUNK_BUDGET = 4_000_000


def sub_seed(seed: int, stream: int) -> int:
    """Independent child seed for one stream (or row) of a seeded computation."""
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


def clamp_probability(p):
    """Clip a probability (scalar or array) into [1e-15, 1 - 1e-15]."""
    return np.clip(p, PROB_FLOOR, PROB_CEIL)


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(out) if out.ndim == 0 else out


def std_normal_logpdf(x):
    x = np.asarray(x, dtype=float)
    out = -0.5 * (x * x + LOG_2PI)
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def std_normal_logcdf(x):
    out = log_ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on the open interval (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


# Gauss-Legendre nodes/weights used by the bivariate CDF, selected by |rho|.
_GL_X = (
    np.array([-0.9324695142031522, -0.6612093864662647, -0.2386191860831970]),
    np.array([
        -0.9815606342467191, -0.9041172563704750, -0.7699026741943050,
        -0.5873179542866171, -0.3678314989981802, -0.1252334085114692,
    ]),
    np.array([
        -0.9931285991850949, -0.9639719272779138, -0.9122344282513259,
        -0.8391169718222188, -0.7463319064601508, -0.6360536807265150,
        -0.5108670019508271, -0.3737060887154196, -0.2277858511416451,
        -0.07652652113349733,
    ]),
)
_GL_W = (
    np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904]),
    np.array([
        0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
        0.2031674267230659, 0.2334925365383547, 0.2491470458134029,
    ]),
    np.array([
        0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
        0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
        0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
        0.1527533871307259,
    ]),
)


def bivariate_normal_cdf(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for a standard bivariate normal with correlation rho.

    Drezner-Wesolowsky quadrature in the form refined by Genz: the integrand
    over the correlation path is handled by fixed-order Gauss-Legendre rules
    (6, 12 or 20 points depending on |rho|), with a separate expansion near
    |rho| = 1. Absolute error well below 1e-8.
    """
    rho = float(rho)
    if not abs(rho) < 1.0:
        raise ValueError("correlation must satisfy |rho| < 1")
    a = float(a)
    b = float(b)
    if math.isnan(a) or math.isnan(b):
        raise ValueError("bounds must not be NaN")
    if a == -math.inf or b == -math.inf:
        return 0.0
    if a == math.inf and b == math.inf:
        return 1.0
    if a == math.inf:
        return float(ndtr(b))
    if b == math.inf:
        return float(ndtr(a))

    if abs(rho) < 0.3:
        ng = 0
    elif abs(rho) < 0.75:
        ng = 1
    else:
        ng = 2
    xs, ws = _GL_X[ng], _GL_W[ng]

    h = -a
    k = -b
    hk = h * k
    bvn = 0.0
    if abs(rho) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(rho)
        for xi, wi in zip(xs, ws):
            for sgn in (1.0, -1.0):
                sn = math.sin(asr * (sgn * xi + 1.0) / 2.0)
                bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (4.0 * math.pi) + ndtr(-h) * ndtr(-k)
    else:
        if rho < 0.0:
            k = -k
            hk = -hk
        a2 = (1.0 - rho) * (1.0 + rho)
        av = math.sqrt(a2)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / a2 + hk) / 2.0
        if asr > -100.0:
            bvn = av * math.exp(asr) * (
                1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0
                + c * d * a2 * a2 / 5.0
            )
        if hk > -100.0:
            bb = math.sqrt(bs)
            bvn -= (
                math.exp(-hk / 2.0) * math.sqrt(2.0 * math.pi) * ndtr(-bb / av)
                * bb * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
            )
        av = av / 2.0
        for xi, wi in zip(xs, ws):
            for sgn in (1.0, -1.0):
                x2 = (av * (sgn * xi + 1.0)) ** 2
                rs = math.sqrt(1.0 - x2)
                asr = -(bs / x2 + hk) / 2.0
                if asr > -100.0:
                    bvn += (
                        av * wi * math.exp(asr)
                        * (math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                           - (1.0 + c * x2 * (1.0 + d * x2)))
                    )
        bvn = -bvn / (2.0 * math.pi)
        if rho > 0.0:
            bvn += ndtr(-max(h, k))
        else:
            bvn = -bvn
            if k > h:
                bvn += ndtr(k) - ndtr(h)
    return float(min(max(bvn, 0.0), 1.0))


def mvn_logpdf(x, cov) -> float | np.ndarray:
    """Zero-mean multivariate normal log-density via Cholesky factorization.

    x may be a single point of shape (D,) or a batch of shape (n, D).
    """
    cov = np.asarray(cov, dtype=float)
    x = np.asarray(x, dtype=float)
    d = cov.shape[0]
    if cov.shape != (d, d):
        raise ValueError("covariance must be square")
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        cond = float(np.linalg.cond(cov))
        raise NumericError(
            f"covariance is not positive definite (condition number {cond:.3e})"
        ) from None
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != d:
        raise ValueError("point dimension does not match covariance")
    sol = solve_triangular(lower, pts.T, lower=True).T
    quad = np.sum(sol * sol, axis=1)
    logdet = 2.0 * np.sum(np.log(np.diag(lower)))
    out = -0.5 * (d * LOG_2PI + logdet + quad)
    return float(out[0]) if single else out


class ConditionalGaussian(NamedTuple):
    """Mean and covariance of the unobserved block given the observed one."""

    mean: np.ndarray
    cov: np.ndarray


def conditional_gaussian(
    cov: np.ndarray,
    cond_idx: Sequence[int],
    cond_values: Sequence[float],
) -> ConditionalGaussian:
    """Condition a zero-mean Gaussian on a subset of coordinates.

    Returns the distribution of the remaining coordinates (ascending index
    order) given that the coordinates in ``cond_idx`` equal ``cond_values``.
    """
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    obs = np.asarray(sorted(cond_idx), dtype=int)
    vals_in = np.asarray(cond_values, dtype=float)
    # Values arrive in the caller's cond_idx order; align them to sorted obs.
    order = np.argsort(np.asarray(cond_idx, dtype=int))
    vals = vals_in[order]
    if obs.size == 0 or obs.size >= d:
        raise ValueError("conditioning set must be a nonempty proper subset")
    free = np.setdiff1d(np.arange(d), obs)
    s_oo = cov[np.ix_(obs, obs)]
    s_fo = cov[np.ix_(free, obs)]
    s_ff = cov[np.ix_(free, free)]
    try:
        gain = np.linalg.solve(s_oo, np.eye(obs.size))
    except np.linalg.LinAlgError:
        raise NumericError(
            f"observed block {tuple(int(i) for i in obs)} is singular"
        ) from None
    if not np.all(np.isfinite(gain)):
        raise NumericError(
            f"observed block {tuple(int(i) for i in obs)} is singular"
        )
    proj = s_fo @ gain
    mean = proj @ vals
    cc = s_ff - proj @ s_fo.T
    cc = 0.5 * (cc + cc.T)
    return ConditionalGaussian(mean=mean, cov=cc)


EIG_FLOOR = 1e-6


def repair_correlation(raw: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Project an almost-correlation matrix onto valid correlation matrices.

    Eigenvalues are clipped at ``floor`` and the diagonal renormalized to 1;
    the pair of projections is iterated because the renormalization alone can
    push the smallest eigenvalue back under the floor. A positive definite
    input is returned unchanged (up to symmetrization).
    """
    raw = np.asarray(raw, dtype=float)
    d = raw.shape[0]
    if raw.shape != (d, d):
        raise ValueError("correlation matrix must be square")
    if not np.allclose(raw, raw.T, atol=1e-8):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(raw), 1.0, atol=1e-6):
        raise ValueError("correlation matrix must have unit diagonal")
    mat = 0.5 * (raw + raw.T)
    np.fill_diagonal(mat, 1.0)

    eigvals = np.linalg.eigvalsh(mat)
    if eigvals[0] >= floor:
        return mat

    for _ in range(100):
        vals, vecs = np.linalg.eigh(mat)
        vals = np.maximum(vals, floor)
        mat = (vecs * vals) @ vecs.T
        scale = 1.0 / np.sqrt(np.diag(mat))
        mat = mat * np.outer(scale, scale)
        mat = 0.5 * (mat + mat.T)
        np.fill_diagonal(mat, 1.0)
        if np.linalg.eigvalsh(mat)[0] >= floor * (1.0 - 1e-9):
            break
    lam_min = np.linalg.eigvalsh(mat)[0]
    if lam_min < floor:
        # Uniform blend toward identity keeps the diagonal at exactly 1.
        eps = (floor - lam_min) / (1.0 - floor) + 1e-12
        mat = (mat + eps * np.eye(d)) / (1.0 + eps)
        np.fill_diagonal(mat, 1.0)
    return mat


class OrthantEstimate(NamedTuple):
    estimate: float
    std_error: float


def mvn_orthant_mc(
    cond: ConditionalGaussian,
    upper: Sequence[float],
    n_samples: int,
    seed: int,
    lower: Sequence[float] | None = None,
) -> OrthantEstimate:
    """Monte Carlo estimate of P(lower < nu <= upper) under N(mean, cov).

    ``lower`` defaults to -inf. Uses antithetic standard-normal draws through
    a triangular (or, for semidefinite covariances, eigenvalue) factor.
    Deterministic given seed, so boxes that partition the space get estimates
    summing to exactly 1; n_samples is rounded up to an even count so every
    draw has its mirror.
    """
    mean = np.asarray(cond.mean, dtype=float)
    cov = np.asarray(cond.cov, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = mean.shape[0]
    lower = np.full(d, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    if cov.shape != (d, d) or upper.shape != (d,) or lower.shape != (d,):
        raise ValueError("dimension mismatch between mean, cov and bounds")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        if vals[0] < -1e-10 * max(1.0, abs(vals[-1])):
            raise NumericError(
                "orthant covariance is not positive semi-definite"
            ) from None
        factor = vecs * np.sqrt(np.maximum(vals, 0.0))
    half = (int(n_samples) + 1) // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((half, d))
    pts_a = mean + z @ factor.T
    pts_b = mean - z @ factor.T
    in_a = np.all((pts_a <= upper) & (pts_a > lower), axis=1).astype(float)
    in_b = np.all((pts_b <= upper) & (pts_b > lower), axis=1).astype(float)
    pair_means = 0.5 * (in_a + in_b)
    estimate = float(np.mean(pair_means))
    if half > 1:
        std_error = float(np.std(pair_means, ddof=1) / math.sqrt(half))
    else:
        std_error = 0.5
    return OrthantEstimate(estimate=estimate, std_error=std_error)
