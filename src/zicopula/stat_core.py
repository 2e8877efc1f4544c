"""Gaussian primitives shared by every other module.

Scalar standard-normal helpers, the bivariate normal CDF through Owen's T,
the one factorisation layer every module factors through (Cholesky factors,
per-item solves and block inverses, each failure one NumericError) and the
one read-only rule for shared arrays, multivariate normal log-density,
Gaussian conditioning, correlation-matrix repair, the one orthant
log-probability (closed form up to two coordinates, a batched quasi-Monte
Carlo estimator above), the blocks every chunked kernel sum is cut into,
the seed derivation every seeded caller shares, and the held-out pick
rule. All functions but read_only are pure; seeds are caller-supplied.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp, owens_t

from .errors import DataError, NumericError

# Probabilities are clamped to this range before any log; keeps degenerate
# tails at a large-but-finite penalty instead of -inf.
PROB_FLOOR = 1e-15
PROB_CEIL = 1.0 - 1e-15
LOG_PROB_FLOOR = math.log(PROB_FLOOR)

LOG_2PI = math.log(2.0 * math.pi)

# Elements (float64: 2 MiB) in one block of a chunked kernel sum; read
# only by ``blocks``.
CHUNK_BUDGET = 1 << 18


def sub_seed(seed: int, stream: int) -> int:
    """Independent child seed for one stream (or row) of a seeded computation."""
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


def pick_best(grid, score, what: str):
    """The first value of ``grid`` with the highest held-out ``score(value)``.
    A value whose fit raises DataError or NumericError, or whose score is
    NaN, scores -inf; DataError if no value scores above -inf."""
    best, best_score = None, -math.inf
    for value in grid:
        try:
            value_score = score(value)
        except (DataError, NumericError):
            continue
        if value_score > best_score:  # False for NaN
            best, best_score = value, value_score
    if best is None:
        raise DataError(f"no {what} of {tuple(grid)} scores above -inf on the held-out rows")
    return best


def blocks(n_items: int, item_size: int):
    """(lo, hi) bounds of consecutive blocks covering range(n_items), of
    CHUNK_BUDGET // item_size items each (at least one) but the last. A
    one-item remainder joins the block before it: numpy sums a one-column
    block pairwise, not in row order, so it alone could change a bit."""
    step = max(1, CHUNK_BUDGET // max(1, item_size))
    lo = 0
    while lo < n_items:
        hi = min(n_items, lo + step)
        if n_items - hi == 1:
            hi = n_items
        yield lo, hi
        lo = hi


def clamp_probability(p):
    """Clip a probability (scalar or array) into [1e-15, 1 - 1e-15]."""
    return np.clip(p, PROB_FLOOR, PROB_CEIL)


def logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """log of the column sums of exp(a), shifted by each column's maximum;
    -inf for a column that is all -inf. ``a`` is not written to."""
    top = a.max(axis=0)
    shift = np.where(top > -np.inf, top, 0.0)
    t = a - shift
    np.exp(t, out=t)
    with np.errstate(divide="ignore"):
        return shift + np.log(t.sum(axis=0))


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x * x = inf past 1.3e154: a density of 0
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


# Owen's T of a bound this far out is 0 and Phi is exactly 0 or 1 in double
# precision, so infinite bounds are clipped here and need no branch.
_BVN_BOUND_CLIP = 40.0
# A bound closer to 0 than this is evaluated at +_BVN_TINY: Phi2 is
# continuous, so the error is at most _BVN_TINY, and nothing divides by 0.
_BVN_TINY = 1e-150


def bivariate_normal_cdf(a, b, rho):
    """P(X <= a, Y <= b) for a standard bivariate normal with correlation rho.

    Owen's reduction to his T function (Owen 1956, Ann. Math. Stat. 27(4)):
    Phi2 = (Phi(h) + Phi(k)) / 2 - T(h, (k - rho h) / (h s))
    - T(k, (h - rho k) / (k s)) - beta, with s = sqrt(1 - rho^2) and
    beta = 1/2 where exactly one of h, k is negative. The absolute error is
    about 1e-16, so the relative error grows below about 1e-8.

    Scalar arguments give a float; array arguments broadcast.
    """
    h, k, rho = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(rho, dtype=float)
    )
    if not (np.abs(rho) < 1.0).all():
        raise ValueError("correlation must satisfy |rho| < 1")
    if np.isnan(h).any() or np.isnan(k).any():
        raise ValueError("bounds must not be NaN")
    h, k = (
        np.where(np.abs(x) < _BVN_TINY, _BVN_TINY, x.clip(-_BVN_BOUND_CLIP, _BVN_BOUND_CLIP))
        for x in (h, k)
    )
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    out = (
        0.5 * (ndtr(h) + ndtr(k) - ((h < 0.0) != (k < 0.0)))
        - owens_t(h, (k - rho * h) / (h * s))
        - owens_t(k, (h - rho * k) / (k * s))
    ).clip(0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def read_only(array):
    """``array`` made read-only in place and returned (None passes through):
    a loaded model or a cache hands its arrays to every caller it serves,
    and none of them may write to them."""
    if array is not None:
        array.flags.writeable = False
    return array


def cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of one covariance (d, d) or a stack (n, d, d);
    NumericError names the condition number of the first block that is not
    positive definite. LAPACK factors each block of a stack on its own."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        for block in cov.reshape(-1, *cov.shape[-2:]):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise NumericError(
                    f"covariance is not positive definite (condition number "
                    f"{float(np.linalg.cond(block)):.3e})"
                ) from None
        raise


def solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a[i], b[i]) for each item i of the stacks a (n, m, m)
    and b (n, m, k), in one batched call; if an item is singular, every item
    is solved on its own and a singular one is NaN."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i, (a_i, b_i) in enumerate(zip(a, b)):
            try:
                out[i] = np.linalg.solve(a_i, b_i)
            except np.linalg.LinAlgError:
                pass
        return out


def block_inverse(stack: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Inverses of a stack of observed blocks (n, p, p); NumericError names
    the first singular one by its coordinates ``index[i]``."""
    inv = solve_each(stack, np.broadcast_to(np.eye(stack.shape[1]), stack.shape))
    singular = ~np.isfinite(inv).all(axis=(1, 2))
    if singular.any():
        i = int(np.flatnonzero(singular)[0])
        raise NumericError(f"observed block {tuple(int(k) for k in index[i])} is singular")
    return inv


def mvn_logpdf(x, cov) -> float | np.ndarray:
    """Zero-mean multivariate normal log-density via Cholesky factorization.

    x may be a single point of shape (D,) or a batch of shape (n, D).
    """
    cov = np.asarray(cov, dtype=float)
    x = np.asarray(x, dtype=float)
    d = cov.shape[0]
    if cov.shape != (d, d):
        raise ValueError("covariance must be square")
    lower = cholesky(cov)
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
    ``cond_values`` may also be a (len(cond_idx), m) matrix, one column per
    point: the covariance is shared and the mean is then (D - k, m).
    """
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    idx = np.asarray(cond_idx, dtype=int)
    # Values arrive in the caller's cond_idx order; align them to sorted obs.
    order = np.argsort(idx)
    obs = idx[order]
    vals = np.asarray(cond_values, dtype=float)[order]
    if obs.size == 0 or obs.size >= d:
        raise ValueError("conditioning set must be a nonempty proper subset")
    is_free = np.ones(d, dtype=bool)
    is_free[obs] = False
    free = np.flatnonzero(is_free)
    s_oo = cov[obs[:, None], obs]
    s_fo = cov[free[:, None], obs]
    s_ff = cov[free[:, None], free]
    proj = s_fo @ block_inverse(s_oo[None], obs[None])[0]
    mean = proj @ vals
    cc = s_ff - proj @ s_fo.T
    cc = 0.5 * (cc + cc.T)
    return ConditionalGaussian(mean=mean, cov=cc)


EIG_FLOOR = 1e-6


def repair_correlation(raw: np.ndarray) -> np.ndarray:
    """Project an almost-correlation matrix onto valid correlation matrices.

    Eigenvalues are clipped at ``EIG_FLOOR`` and the diagonal renormalized to 1;
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
    if eigvals[0] >= EIG_FLOOR:
        return mat

    for _ in range(100):
        vals, vecs = np.linalg.eigh(mat)
        vals = np.maximum(vals, EIG_FLOOR)
        mat = (vecs * vals) @ vecs.T
        scale = 1.0 / np.sqrt(np.diag(mat))
        mat = mat * np.outer(scale, scale)
        mat = 0.5 * (mat + mat.T)
        np.fill_diagonal(mat, 1.0)
        if np.linalg.eigvalsh(mat)[0] >= EIG_FLOOR * (1.0 - 1e-9):
            break
    lam_min = np.linalg.eigvalsh(mat)[0]
    if lam_min < EIG_FLOOR:
        # Uniform blend toward identity keeps the diagonal at exactly 1.
        eps = (EIG_FLOOR - lam_min) / (1.0 - EIG_FLOOR) + 1e-12
        mat = (mat + eps * np.eye(d)) / (1.0 + eps)
        np.fill_diagonal(mat, 1.0)
    return mat


# Independent random shifts of the lattice in mvn_orthant_logprob; a call's
# point count is rounded up to a multiple of this.
QMC_SHIFTS = 8
# Newton steps and gradient tolerance of its minimax tilt. Any tilt keeps
# the estimator unbiased; one near the saddle point is what keeps the
# variance small, so the tolerance is loose. The steps reach it in 3-4
# iterations on well-conditioned orthants and in about 8 on conditionals of
# a correlation at EIG_FLOOR; a row still short of it after the last step is
# sampled untilted.
TILT_MAX_STEPS = 15
TILT_TOL = 1e-3
# Two-coordinate orthants whose closed form is below this go to the
# estimator: the closed form's absolute error of about 1e-16 is a relative
# one of 1e-8 here.
CLOSED_FORM_MIN = 1e-8


# Bound of a padded coordinate in _minimax_tilt. It must be finite (an
# infinite bound gives NaN curvature); at 40, log Phi is 0 and the Mills
# ratio exactly 0.
_TILT_PAD = _BVN_BOUND_CLIP


def _richtmyer_generator(dim: int) -> np.ndarray:
    """Richtmyer lattice generator: the fractional parts of sqrt(prime)."""
    primes: list[int] = []
    n = 2
    while len(primes) < dim:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return np.sqrt(np.array(primes, dtype=float)) % 1.0


def _minimax_tilt(samplers, dim: int) -> list[np.ndarray]:
    """Botev's minimax exponential tilt of each row's sequential sampler.

    The saddle point (Botev 2017, JRSS B 79(1)) of
    psi(x, mu) = sum_k mu_k^2 / 2 - x_k mu_k + log Phi(bound_k - mu_k - (lower x)_k)
    in the first q - 1 coordinates of x and mu (mu_q = 0), by Newton steps.
    ``samplers`` is a list of (lower, bound) pairs of at most ``dim``
    coordinates, ``lower`` the strictly lower part of the unit-diagonal
    factor, and each gets back its rows' tilts. All rows are solved in one
    pass: a row of q coordinates is embedded in the last q of dim, after
    dim - q padded ones with zero rows and columns in ``lower`` and bound
    _TILT_PAD. The padded coordinates start at their saddle x = mu = 0 with
    zero gradient and are coupled to no other coordinate, so the real ones
    take the same Newton steps as in a call of their own. A row whose steps
    do not converge keeps mu = 0, the untilted sampler, which is unbiased as
    well, only noisier in the tail.
    """
    edges = np.cumsum([0, *(b.shape[0] for _, b in samplers)])
    pads = [dim - b.shape[1] for _, b in samplers]
    n, m = edges[-1], dim - 1
    lower = np.zeros((n, dim, dim))
    bound = np.full((n, dim), _TILT_PAD)
    for (low, b), pad, lo, hi in zip(samplers, pads, edges[:-1], edges[1:]):
        lower[lo:hi, pad:, pad:] = low
        bound[lo:hi, pad:] = b
    # Start x at Genz's sequence of truncated-normal means E[z_k | z_k <=
    # bound_k - (lower x)_k]: it saves about three steps.
    x = np.zeros((n, dim))
    for k in range(m):
        t = bound[:, k] - np.einsum("rj,rj->r", lower[:, k, :k], x[:, :k])
        x[:, k] = -np.exp(-0.5 * t * t - 0.5 * LOG_2PI - log_ndtr(t))
    mu = np.zeros((n, dim))
    diag = np.arange(m)
    done = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    for _ in range(TILT_MAX_STEPS):
        # Rows step on their own until they converge, so a row's tilt does
        # not depend on the other rows of the call.
        act = np.flatnonzero(~done & ~failed)
        if act.size == 0:
            break
        low, xa, ma = lower[act], x[act], mu[act]
        ut = bound[act] - ma - np.einsum("rkj,rj->rk", low, xa)
        mills = np.exp(-0.5 * ut * ut - 0.5 * LOG_2PI - log_ndtr(ut))
        grad = np.concatenate(
            [(-ma - np.einsum("rk,rkj->rj", mills, low))[:, :m], (ma - xa - mills)[:, :m]],
            axis=1,
        )
        conv = np.all(np.abs(grad) < TILT_TOL, axis=1)
        done[act[conv]] = True
        act, low, ut, mills, grad = act[~conv], low[~conv], ut[~conv], mills[~conv], grad[~conv]
        dmills = -mills * (mills + ut)
        scaled = dmills[:, :, None] * low
        jac = np.zeros((act.size, 2 * m, 2 * m))
        jac[:, :m, :m] = np.einsum("rki,rkj->rij", low, scaled)[:, :m, :m]
        jac[:, m:, :m] = scaled[:, :m, :m]
        jac[:, m + diag, diag] -= 1.0
        jac[:, :m, m:] = np.swapaxes(jac[:, m:, :m], 1, 2)
        jac[:, m + diag, m + diag] = 1.0 + dmills[:, :m]
        # A singular Jacobian's step is NaN: it stops only its own row.
        step = solve_each(jac, grad[:, :, None])[:, :, 0]
        failed[act] = ~np.isfinite(step).all(axis=1)
        x[act, :m] -= step[:, :m]
        mu[act, :m] -= step[:, m:]
    tilt = np.where(done[:, None], mu, 0.0)
    return [tilt[lo:hi, pad:] for pad, lo, hi in zip(pads, edges[:-1], edges[1:])]


def mvn_orthant_logprob(
    groups, n_points: int, seed: int, dim: int | None = None
) -> list[np.ndarray]:
    """log P(nu <= upper[r]) for nu ~ N(0, cov[r]), one array per group.

    ``groups`` is a list of (cov (n, q, q), upper (n, q)) stacks. One
    coordinate is log Phi, and two are Owen's closed form
    (bivariate_normal_cdf) down to CLOSED_FORM_MIN; there the variances are
    floored at 1e-300 and the correlation clipped inside +-(1 - 1e-12), so
    an indefinite 2 x 2 stack still gives a value. Every other row goes to
    Genz's separation-of-variables estimator (Genz 1992, JCGS 1(2); Genz &
    Bretz 2009, LNS 195) on a randomly shifted Richtmyer lattice with the
    tent transform: ``_orthant_standardise`` standardises each row's
    covariance and puts its most restrictive bound first; ``_minimax_tilt``
    shifts its sequential truncated-normal sampler by Botev's minimax tilt,
    one solve for all groups' rows embedded in ``dim`` coordinates (default:
    the widest of them), which keeps the relative error small far into the
    tail and on nearly singular covariances; ``_orthant_sample``
    accumulates the weights in log space and averages them over points by
    a max-shifted log-mean-exp, so tiny probabilities keep their value
    instead of rounding to 0.

    n_points per row is rounded up to a multiple of QMC_SHIFTS; the shifts
    come from ``seed`` alone, so a row's estimate does not depend on the
    other rows. The shifted lattice depends only on its width, point count
    and seed: ``_lattice`` builds it once per key and keeps the last
    LATTICE_CACHE_SIZE read-only. The tilt's width moves an estimate by
    rounding (about 1e-13), so a caller whose calls hold different groups
    passes a fixed ``dim``.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    out, samplers = [], []
    for g, (cov, upper) in enumerate(groups):
        cov = np.asarray(cov, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n, q = upper.shape
        if cov.shape != (n, q, q):
            raise ValueError("dimension mismatch between covariances and bounds")
        est = np.full(n, q > 2)
        logp = np.empty(n)
        if q <= 2:
            sd = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 1e-300))
            z = upper / sd
            if q == 1:
                logp = log_ndtr(z[:, 0])
            else:
                r = np.clip(cov[:, 0, 1] / (sd[:, 0] * sd[:, 1]), -1 + 1e-12, 1 - 1e-12)
                prob = bivariate_normal_cdf(z[:, 0], z[:, 1], r)
                est = prob < CLOSED_FORM_MIN
                logp[~est] = np.log(prob[~est])
        out.append(logp)
        if est.any():
            samplers.append((g, est, *_orthant_standardise(cov[est], upper[est])))
    if samplers:
        pooled = [(low, b) for *_, low, b in samplers]
        tilts = _minimax_tilt(pooled, dim or max(b.shape[1] for _, b in pooled))
        for (g, est, low, b), tilt in zip(samplers, tilts):
            out[g][est] = _orthant_sample(low, b, tilt, n_points, seed)
    return out


def _orthant_standardise(cov, upper) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sampler: the strictly lower part of its unit-diagonal
    Cholesky factor and its scaled bounds, most restrictive bound first.
    With z ~ N(0, I), nu_k <= upper_k iff z_k <= bound_k - (lower z)_k."""
    d = upper.shape[1]
    var = np.diagonal(cov, axis1=1, axis2=2)
    if not np.all(var > 0.0):
        raise NumericError("orthant covariance is not positive definite")
    sd = np.sqrt(var)
    bound = upper / sd
    order = np.argsort(bound, axis=1, kind="stable")
    bound = np.take_along_axis(bound, order, axis=1)
    corr = cov / (sd[:, :, None] * sd[:, None, :])
    corr = np.take_along_axis(corr, order[:, :, None], axis=1)
    corr = np.take_along_axis(corr, order[:, None, :], axis=2)
    chol = cholesky(corr)
    diag = np.diagonal(chol, axis1=1, axis2=2)
    return chol / diag[:, :, None] - np.eye(d), bound / diag


# Lattices _lattice keeps; one per (width, points, seed), so a model of D
# coordinates scored at one seed and point count needs at most D - 2.
LATTICE_CACHE_SIZE = 16


@functools.lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice(width: int, per_shift: int, seed: int) -> np.ndarray:
    """log u at the estimator's QMC_SHIFTS * per_shift points of ``width``
    coordinates: the Richtmyer lattice, each of its QMC_SHIFTS copies
    shifted by a uniform draw from ``seed``, through the tent transform.
    Read-only: every call with this key shares it."""
    shifts = np.random.Generator(np.random.PCG64(seed)).random((QMC_SHIFTS, 1, width))
    steps = np.arange(1, per_shift + 1)[None, :, None] * _richtmyer_generator(width)
    tent = np.abs(2.0 * ((steps + shifts) % 1.0) - 1.0).reshape(QMC_SHIFTS * per_shift, width)
    return read_only(np.log(np.maximum(tent, np.finfo(float).tiny)))


def _orthant_sample(
    lower: np.ndarray, bound: np.ndarray, tilt: np.ndarray, n_points: int, seed: int
) -> np.ndarray:
    """The tilted estimator of each row's orthant log-probability from its
    standardised sampler (``lower``, ``bound``) and tilt (last entry 0)."""
    n, d = bound.shape
    log_u = _lattice(d - 1, -(-int(n_points) // QMC_SHIFTS), int(seed))
    out = np.empty(n)
    for lo, hi in blocks(n, log_u.shape[0] * d):
        b, low, mu = bound[lo:hi], lower[lo:hi], tilt[lo:hi, :, None]
        z = np.empty((d - 1, b.shape[0], log_u.shape[0]))
        # The first factor does not depend on the point.
        log_e = log_ndtr(b[:, :1] - mu[:, 0])
        log_w = log_e
        for k in range(1, d):
            z[k - 1] = mu[:, k - 1] + ndtri_exp(log_u[:, k - 1] + log_e)
            log_w = log_w + mu[:, k - 1] * (0.5 * mu[:, k - 1] - z[k - 1])
            earlier = np.einsum("rj,jrp->rp", low[:, k, :k], z[:k])
            log_e = log_ndtr(b[:, k:k + 1] - mu[:, k] - earlier)
            log_w = log_w + log_e
        top = np.max(log_w, axis=1, keepdims=True)
        out[lo:hi] = top[:, 0] + np.log(np.mean(np.exp(log_w - top), axis=1))
    return out
