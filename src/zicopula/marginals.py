"""Per-variable marginal machinery for zero-inflated nonnegative data.

Each column is summarized by its zero rate q, a reflected-Gaussian kernel
density over the strictly positive entries, and the threshold a = quantile(q)
used by the rectified-copula model. The omega transform maps data through
the zero-inflated CDF onto the standard normal scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .stat_core import CHUNK_BUDGET, std_normal_cdf, std_normal_pdf, std_normal_quantile

# Both copula models refuse to fit fewer training rows than this.
MIN_FIT_ROWS = 50

# omega stays finite for out-of-range points by clamping the CDF here.
CDF_FLOOR = 1e-9
CDF_CEIL = 1.0 - 1e-9

_DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class MarginalModel:
    """Fitted marginal: zero rate, positive-part KDE, rescale factor, threshold."""

    q: float
    kde_centers: np.ndarray
    bandwidth: float
    rescale_b: float
    a: float

    def __post_init__(self) -> None:
        centers = np.asarray(self.kde_centers, dtype=float)
        if centers.ndim != 1 or centers.size == 0 or not np.isfinite(centers).all():
            raise ValueError("kde_centers must be a nonempty vector of finite values")
        if not 0.0 <= self.q < 1.0:
            raise ValueError("zero rate q must lie in [0, 1)")
        if not (self.bandwidth > 0 and self.rescale_b > 0):
            raise ValueError("bandwidth and rescale_b must be positive")
        object.__setattr__(self, "kde_centers", centers)


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(std, IQR/1.34) * n^(-1/5)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    sd = float(np.std(values, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0.0:
        # Degenerate spread (all positives equal); keep the kernel usable.
        return max(1e-6, 1e-2 * abs(float(np.mean(values))))
    return 0.9 * spread * n ** (-0.2)


def fit_marginal(column, bandwidth_scale: float = 1.0) -> MarginalModel:
    """Fit zero rate and positive-part KDE for one nonnegative column."""
    column = np.asarray(column, dtype=float)
    if column.ndim != 1 or column.size == 0:
        raise DataError("marginal fit needs a nonempty 1-D column")
    if np.any(column < 0) or not np.all(np.isfinite(column)):
        raise DataError("column must be finite and nonnegative")
    positives = column[column > 0]
    if positives.size == 0:
        raise DataError("degenerate variable: column is identically zero")
    if positives.size < 2:
        raise DataError("need at least 2 strictly positive entries to fit a density")
    q = float((column == 0).sum() / column.size)
    h = silverman_bandwidth(positives) * float(bandwidth_scale)
    a = std_normal_quantile(q) if q > 0 else -math.inf
    return MarginalModel(
        q=q,
        kde_centers=np.sort(positives),
        bandwidth=float(h),
        rescale_b=1.0,
        a=float(a),
    )


def _chunked(n_points: int, n_centers: int):
    step = max(1, CHUNK_BUDGET // max(1, n_centers))
    for start in range(0, n_points, step):
        yield start, min(n_points, start + step)


def positive_pdf(m: MarginalModel, x):
    """Reflected-kernel density of the positive part, evaluated at x > 0."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    pts = np.atleast_1d(x)
    if np.any(pts <= 0):
        raise ValueError("positive_pdf is defined for strictly positive x")
    c = m.kde_centers
    h = m.bandwidth
    out = np.empty(pts.shape, dtype=float)
    for lo, hi in _chunked(pts.size, c.size):
        block = pts[lo:hi, None]
        out[lo:hi] = np.mean(
            std_normal_pdf((block - c) / h) + std_normal_pdf((block + c) / h),
            axis=1,
        ) / h
    return float(out[0]) if scalar else out


def positive_logpdf(m: MarginalModel, x):
    dens = positive_pdf(m, x)
    return np.log(np.maximum(dens, _DENSITY_FLOOR))


def positive_cdf(m: MarginalModel, x):
    """CDF of the positive part alone (reflected-kernel mass on (0, x])."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    pts = np.atleast_1d(x)
    if np.any(pts < 0):
        raise ValueError("cdf arguments must be nonnegative")
    c = m.kde_centers
    h = m.bandwidth
    out = np.empty(pts.shape, dtype=float)
    for lo, hi in _chunked(pts.size, c.size):
        block = pts[lo:hi, None]
        # Reflected kernel: mass of one center on (0, x] is
        # Phi((x-c)/h) + Phi((x+c)/h) - 1, which vanishes at x = 0.
        out[lo:hi] = np.mean(
            std_normal_cdf((block - c) / h) + std_normal_cdf((block + c) / h) - 1.0,
            axis=1,
        )
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def marginal_cdf(m: MarginalModel, x):
    """Zero-inflated CDF q + (1-q) * F_tilde(x); equals q at x = 0."""
    tail = positive_cdf(m, x)
    out = m.q + (1.0 - m.q) * tail
    return out


def normal_scores(cdf, q=0.0):
    """Phi^-1 of q + (1 - q) F for positive-part CDF values F, clamped to
    [CDF_FLOOR, CDF_CEIL]. With the zero rate q this is the zero-inflated
    omega of zibt; with q = 0 it is zicar's parent omega Phi^-1(F)."""
    return std_normal_quantile(np.clip(q + (1.0 - q) * cdf, CDF_FLOOR, CDF_CEIL))


def omega_transform(m: MarginalModel, x):
    """Map data to the standard normal scale; zeros map to the threshold a."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    pts = np.atleast_1d(x)
    out = np.full(pts.shape, m.a, dtype=float)
    pos = pts > 0
    if np.any(pos):
        out[pos] = normal_scores(positive_cdf(m, pts[pos]), m.q)
    return float(out[0]) if scalar else out


def rescale_factor(m: MarginalModel, positives) -> float:
    """Scale divisor b = exp(-mean log density) over the training positives.

    Dividing the column by b and refitting recenters the average positive
    log-density at zero.
    """
    positives = np.asarray(positives, dtype=float)
    if positives.size == 0:
        raise DataError("rescale_factor needs at least one positive value")
    mean_log = float(np.mean(positive_logpdf(m, positives)))
    return math.exp(-mean_log)


def as_data_matrix(data, dim: int | None = None) -> np.ndarray:
    """Validate a nonnegative finite 2-D data matrix, optionally its width."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DataError("expected a 2-D data matrix")
    if not np.isfinite(arr).all():
        raise DataError("data must be finite")
    if (arr < 0).any():
        raise DataError("negative values are not allowed")
    if dim is not None and arr.shape[1] != dim:
        raise DataError(f"expected {dim} columns, got {arr.shape[1]}")
    return arr


def fit_columns(
    data: np.ndarray,
    use_rescale: bool = True,
    bandwidth_scale: float = 1.0,
) -> tuple[list[MarginalModel], np.ndarray, np.ndarray]:
    """Fit every column, optionally running the rescale-and-refit pass.

    Returns (models, b, scaled_data) where scaled_data = data / b columnwise
    and each model carries its rescale divisor. With use_rescale=False, b is
    all ones and scaled_data is the input.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DataError("expected a 2-D data matrix")
    n, d = data.shape
    b = np.ones(d, dtype=float)
    models: list[MarginalModel] = []
    for j in range(d):
        col = data[:, j]
        try:
            first = fit_marginal(col, bandwidth_scale)
        except DataError as exc:
            raise DataError(f"column {j + 1}: {exc}") from None
        if use_rescale:
            b[j] = rescale_factor(first, col[col > 0])
            refit = fit_marginal(col / b[j], bandwidth_scale)
            models.append(replace(refit, rescale_b=float(b[j])))
        else:
            models.append(first)
    scaled = data / b
    return models, b, scaled


class PositiveTerms:
    """Fitted columns evaluated at the positive entries of one data matrix.

    ``positive`` marks the positive entries of the data divided by the
    rescale divisors. ``logpdf`` holds each column's positive_logpdf there
    and ``cdf`` its positive-part CDF F, both 0 at the zeros. Each is
    evaluated on first use only: a fit reads F, a scorer both.
    """

    def __init__(self, models, rescales, data) -> None:
        self.models = tuple(models)
        self.rescales = np.asarray(rescales, dtype=float)
        self.data = np.asarray(data, dtype=float)
        self.positive = self.scaled > 0

    @property
    def scaled(self) -> np.ndarray:
        # Recomputed on use, so a benchmark seed holding many of these keeps
        # one copy of each data set.
        return self.data / self.rescales

    def _per_column(self, evaluate) -> np.ndarray:
        scaled = self.scaled
        out = np.zeros(scaled.shape)
        for j, m in enumerate(self.models):
            pos = self.positive[:, j]
            if pos.any():
                out[pos, j] = evaluate(m, scaled[pos, j])
        return out

    @functools.cached_property
    def logpdf(self) -> np.ndarray:
        return self._per_column(positive_logpdf)

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        return self._per_column(positive_cdf)

    def check_columns(self, models) -> None:
        """Raise unless these terms were evaluated with exactly ``models``."""
        if len(models) != len(self.models) or any(
            a is not b for a, b in zip(models, self.models)
        ):
            raise ValueError("marginal terms were evaluated with other fitted columns")


def fit_positive_terms(
    data, use_rescale: bool = True, bandwidth_scale: float = 1.0
) -> PositiveTerms:
    """Marginal stage of both copula fits: validate the training matrix, fit
    its columns and return them with their terms at the training rows."""
    arr = as_data_matrix(data)
    if arr.shape[0] < MIN_FIT_ROWS:
        raise DataError(f"need at least {MIN_FIT_ROWS} rows, got {arr.shape[0]}")
    models, b, _ = fit_columns(arr, use_rescale=use_rescale, bandwidth_scale=bandwidth_scale)
    return PositiveTerms(models, b, arr)
