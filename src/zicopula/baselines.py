"""Conventional density-estimation baselines: EM-fitted Gaussian mixtures
and product-kernel KDE, scored by log-likelihood like the main models."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, NumericError
from .stat_core import LOG_2PI, blocks, logsumexp_columns, pick_best

GMM_MAX_ITER = 500
GMM_TOL = 1e-6
GMM_MAX_REINITS = 3
# Added to every covariance at each EM step.
GMM_REG = 1e-6

_GMM_GRID = (1, 2, 4, 8, 16)
_KDE_GRID = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class GmmModel:
    """Mixture weights, means, and regularized full covariances."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariances, dtype=float)
        if w.ndim != 1 or mu.ndim != 2 or cov.ndim != 3:
            raise ValueError("weights, means, covariances must be 1-D, 2-D, 3-D")
        k, d = mu.shape
        if w.shape != (k,) or cov.shape != (k, d, d):
            raise ValueError("component shapes disagree")
        if not (np.isfinite(w).all() and np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise ValueError("weights, means and covariances must be finite")
        if abs(w.sum() - 1.0) > 1e-9 or (w < 0).any():
            raise ValueError("weights must form a probability vector")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class KdeModel:
    """Training points with one Gaussian bandwidth per dimension."""

    centers: np.ndarray
    bandwidths: np.ndarray

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float)
        bandwidths = np.asarray(self.bandwidths, dtype=float)
        if centers.ndim != 2 or bandwidths.shape != (centers.shape[1],):
            raise ValueError("centers must be 2-D with one bandwidth per column")
        if not (np.isfinite(centers).all() and np.isfinite(bandwidths).all()):
            raise ValueError("centers and bandwidths must be finite")
        if (bandwidths <= 0).any():
            raise ValueError("bandwidths must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "bandwidths", bandwidths)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _centered(x: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(k, d, n): the rows of x minus each mean, one dimension per row, so
    every elementwise step runs along the n rows."""
    return x.T[None, :, :] - means[:, :, None]


def _component_logpdfs(centered: np.ndarray, model: GmmModel) -> np.ndarray:
    """(k, n) log weight plus log normal density of each row under each
    component, all components in one batched Cholesky step; `centered` is
    `_centered(x, model.means)`."""
    try:
        lower = np.linalg.cholesky(model.covariances)
    except np.linalg.LinAlgError:
        raise NumericError("a mixture covariance is not positive definite") from None
    with np.errstate(over="ignore"):  # a row past the float range is infinitely far
        white = np.linalg.inv(lower) @ centered
    quad = np.einsum("kdn,kdn->kn", white, white)
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
    log_norm = np.log(model.weights) - 0.5 * (model.dim * LOG_2PI + logdet)
    return log_norm[:, None] - 0.5 * quad


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    means = [data[rng.integers(n)]]
    # Squared distance from each row to its nearest chosen mean.
    dist2 = np.sum((data - means[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = dist2.sum()
        if total <= 0:
            means.append(data[rng.integers(n)])
        else:
            means.append(data[rng.choice(n, p=dist2 / total)])
        dist2 = np.minimum(dist2, np.sum((data - means[-1]) ** 2, axis=1))
    return np.array(means)


def fit_gmm(
    data,
    k: int,
    seed: int = 0,
) -> GmmModel:
    """EM fit with k-means++ seeding and per-step covariance regularization."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DataError("expected a 2-D data matrix")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n, d = x.shape
    if n < k * (d + 1):
        raise DataError(f"need at least {k * (d + 1)} rows to fit {k} components")

    rng = np.random.Generator(np.random.PCG64(seed))
    means = _kmeans_pp_init(x, k, rng)
    base_cov = np.cov(x, rowvar=False).reshape(d, d) + GMM_REG * np.eye(d)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)
    model = GmmModel(weights=weights, means=means, covariances=covs)
    centered = _centered(x, means)

    prev = -np.inf
    reinits = 0
    for _ in range(GMM_MAX_ITER):
        joint = _component_logpdfs(centered, model)
        row_ll = logsumexp_columns(joint)
        mean_ll = float(row_ll.mean())

        resp = np.exp(joint - row_ll)
        counts = resp.sum(axis=1)
        empty = np.flatnonzero(counts < 1e-6)
        if empty.size:
            if reinits >= GMM_MAX_REINITS:
                raise NumericError("component keeps collapsing to empty")
            reinits += 1
            means = model.means.copy()
            covs = model.covariances.copy()
            for j in empty:
                dist2 = np.min(
                    [np.sum((x - m) ** 2, axis=1) for m in means], axis=0
                )
                means[j] = x[int(np.argmax(dist2))]
                covs[j] = base_cov
            model = GmmModel(weights=model.weights, means=means, covariances=covs)
            centered = _centered(x, means)
            prev = -np.inf  # restart convergence tracking after the jolt
            continue

        weights = counts / n
        means = (resp @ x) / counts[:, None]
        centered = _centered(x, means)
        covs = (resp[:, None, :] * centered) @ centered.transpose(0, 2, 1)
        covs = covs / counts[:, None, None] + GMM_REG * np.eye(d)
        model = GmmModel(weights=weights, means=means, covariances=covs)
        if mean_ll - prev < GMM_TOL and np.isfinite(prev):
            break
        prev = mean_ll
    return model


def gmm_loglik_rows(model: GmmModel, data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise DataError(f"expected {model.dim} columns")
    return logsumexp_columns(_component_logpdfs(_centered(x, model.means), model))


def _silverman_multi(data: np.ndarray, multiplier: float) -> np.ndarray:
    n, d = data.shape
    spread = data.std(axis=0, ddof=1) if n > 1 else np.zeros(d)
    factor = (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    h = multiplier * spread * factor
    fallback = np.maximum(1e-6, 1e-2 * np.abs(data.mean(axis=0)))
    return np.where(h > 0, h, fallback)


def fit_kde_multi(data, multiplier: float = 1.0) -> KdeModel:
    """Product-Gaussian KDE with per-dimension Silverman bandwidths."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("expected a nonempty 2-D data matrix")
    if multiplier <= 0:
        raise ValueError("bandwidth multiplier must be positive")
    return KdeModel(centers=x, bandwidths=_silverman_multi(x, multiplier))


def kde_loglik_rows(model: KdeModel, data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise DataError(f"expected {model.dim} columns")
    n_centers, d = model.centers.shape
    h = model.bandwidths
    log_norm = float(np.log(h).sum() + 0.5 * d * LOG_2PI + np.log(n_centers))
    with np.errstate(over="ignore"):  # a row past the float range is infinitely far
        points = x / h
    centers = model.centers / h
    out = np.empty(x.shape[0])
    bounds = list(blocks(x.shape[0], n_centers))
    # One buffer for every block, each filled and scaled in place.
    buf = np.empty(n_centers * max((hi - lo for lo, hi in bounds), default=0))
    for lo, hi in bounds:
        block = buf[: n_centers * (hi - lo)].reshape(n_centers, hi - lo)
        cdist(centers, points[lo:hi], "sqeuclidean", out=block)
        block *= -0.5
        out[lo:hi] = logsumexp_columns(block) - log_norm
    return out


def _validation_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    cut = max(1, int(round(0.8 * n)))
    return order[:cut], order[cut:]


def _tune(data, seed: int, grid, fit, loglik_rows, what: str):
    """Pick a grid value on an 80/20 held-out split, then refit on all rows."""
    x = np.asarray(data, dtype=float)
    train, val = _validation_split(x.shape[0], seed)
    best = pick_best(grid, lambda v: float(loglik_rows(fit(x[train], v), x[val]).mean()), what)
    return fit(x, best)


def tune_gmm(data, seed: int = 0) -> GmmModel:
    """Pick k on an 80/20 held-out split, then refit on all rows."""
    fit = functools.partial(fit_gmm, seed=seed)
    return _tune(data, seed, _GMM_GRID, fit, gmm_loglik_rows, "mixture size")


def tune_kde(data, seed: int = 0) -> KdeModel:
    """Pick the bandwidth multiplier on an 80/20 split, then refit on all rows."""
    return _tune(data, seed, _KDE_GRID, fit_kde_multi, kde_loglik_rows, "bandwidth multiplier")
