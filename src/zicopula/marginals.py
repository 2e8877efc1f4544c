"""Per-variable marginal machinery for zero-inflated nonnegative data.

Each column is summarized by its zero rate q, a reflected-Gaussian kernel
density over the strictly positive entries, and the threshold a = quantile(q)
used by the rectified-copula model. The omega transform maps data through
the zero-inflated CDF onto the standard normal scale.

The kernel sums behind the density and the CDF are read off a grid built by
FFT (``_KernelGrid``) wherever that is accurate, and summed exactly elsewhere.
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
    """Fitted marginal: zero rate, positive-part KDE and rescale factor."""

    q: float
    kde_centers: np.ndarray
    bandwidth: float
    rescale_b: float

    def __post_init__(self) -> None:
        for name in ("q", "bandwidth", "rescale_b"):
            object.__setattr__(self, name, float(getattr(self, name)))
        centers = np.asarray(self.kde_centers, dtype=float)
        if centers.ndim != 1 or centers.size == 0 or not np.isfinite(centers).all():
            raise ValueError("kde_centers must be a nonempty vector of finite values")
        if not (centers > 0).all():
            raise ValueError("kde_centers must be positive")
        if not 0.0 <= self.q < 1.0:
            raise ValueError("zero rate q must lie in [0, 1)")
        if not (self.bandwidth > 0 and self.rescale_b > 0):
            raise ValueError("bandwidth and rescale_b must be positive")
        object.__setattr__(self, "kde_centers", centers)

    @functools.cached_property
    def a(self) -> float:
        """The rectified copula's threshold Phi^-1(q); -inf when q = 0."""
        return std_normal_quantile(self.q) if self.q > 0 else -math.inf

    @functools.cached_property
    def _grid(self) -> _KernelGrid | None:
        """The column's kernel-sum grid, built on first use; None for a
        column under GRID_MIN_CENTERS centers, which is summed exactly."""
        if self.kde_centers.size < GRID_MIN_CENTERS:
            return None
        return _KernelGrid(self)


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
    return MarginalModel(q=q, kde_centers=np.sort(positives), bandwidth=h, rescale_b=1.0)


# Kernel sums on a grid (_KernelGrid). Nodes sit at m h / GRID_STEPS for
# integers m, anchored at 0, so a change of units moves no node relative to
# the data. Each center goes to its nearest node and the powers of its
# offset up to GRID_MOMENTS go with it (a Taylor expansion of its kernel);
# FFT convolutions give the sums at every node, and a point is read off the
# six nodes around it by Lagrange interpolation. Relative to the term of a
# center z bandwidths away, the expansion is off by at most
# (2 GRID_STEPS)^-5 / 120 |He_5(z)| and the interpolation by
# 0.0049 GRID_STEPS^-6 |He_6(z)|: 4e-8 and 1.2e-7 at z = 5.9, the farthest
# a point the grid serves can be from every center (phi(5.9) is about
# GRID_DENSITY_FLOOR).
GRID_STEPS = 32
GRID_MOMENTS = 4
# Kernel reach in bandwidths: phi(9) = 1e-18 is 1e-10 of the floor density.
GRID_REACH = 9
# Density times bandwidth below this is summed exactly: FFT rounding error
# is about 1e-16 of the largest sum, a growing share of a small one.
GRID_DENSITY_FLOOR = 1e-8
# F within this of 0 or 1 is summed exactly. The grid's F was off by up to
# 1.3e-11 in tests (and FFT rounding moves it by about 1e-15 when the
# inputs move by a rounding error), and omega = Phi^-1(F) magnifies that by
# 1 / phi(omega): up to 300 inside this bound, 1.7e8 at the omega clamp.
GRID_CDF_TAIL = 1e-3
# Columns with fewer centers are summed exactly. This is not a cost
# crossover: a build takes 0.2-0.5 ms up to 128 centers, about one exact
# density and CDF at the training values near 100 centers but less than
# one at 2,000 points for any size (2-core x86 host). It keeps small
# columns, and the closed-form tests of one or a few centers, on the
# exact path.
GRID_MIN_CENTERS = 64
# Most nodes one grid holds (1,024 bandwidths); beyond them points are
# summed exactly.
GRID_MAX_NODES = 1 << 15
# Interpolation stencil: nodes floor(t) - 2 .. floor(t) + 3 around t.
_STENCIL = np.arange(-2, 4)
_STENCIL_DENOM = [math.prod(int(j - i) for i in _STENCIL if i != j) for j in _STENCIL]


@functools.lru_cache(maxsize=None)
def _grid_spectra(n_fft: int) -> tuple:
    """The spectra a _KernelGrid of FFT size ``n_fft`` convolves with, which
    depend on nothing else: the Gaussian kernel ``gauss``, the rotation
    -i theta, the powers (-i theta)^(p - 1) / p! for p = 1 .. GRID_MOMENTS,
    and the spectrum of the step kernel Phi - H. Read-only; sizes are powers
    of two up to twice GRID_MAX_NODES, so the cache stays small.

    A center at node j + a: phi((d - a) / k) and Phi((d - a) / k) at node
    offset d, expanded in a. Term p of the density kernel has the spectrum
    gauss (-i theta)^p / p!, and of the CDF kernel -gauss / k (-i theta)^(p -
    1) / p! for p >= 1. Phi itself, the p = 0 term, is H + (Phi - H): H by
    cumulative sum, Phi - H (which decays) by convolution.
    """
    k, reach = GRID_STEPS, GRID_STEPS * GRID_REACH
    theta = 2.0 * math.pi / n_fft * np.arange(n_fft // 2 + 1)
    gauss = k * np.exp(-0.5 * (k * theta) ** 2)
    rotation = -1j * theta
    powers = [np.ones(theta.size, dtype=complex)]
    for p in range(2, GRID_MOMENTS + 1):
        powers.append(powers[-1] * rotation / p)
    d = np.arange(-reach, reach + 1)
    step_kernel = np.zeros(n_fft)
    step_kernel[d] = std_normal_cdf(d / k) - (d > 0) - 0.5 * (d == 0)
    step_spec = np.fft.rfft(step_kernel)
    for array in (gauss, rotation, *powers, step_spec):
        array.setflags(write=False)
    return gauss, rotation, tuple(powers), step_spec


class _KernelGrid:
    """Reflected-kernel density ``pdf`` and positive-part CDF ``cdf`` of one
    fitted column at ``nodes`` consecutive nodes from node ``first``."""

    def __init__(self, m: MarginalModel) -> None:
        k, reach = GRID_STEPS, GRID_STEPS * GRID_REACH
        n, h = m.kde_centers.size, m.bandwidth
        self.step = h / k
        self.floor = GRID_DENSITY_FLOOR / h
        # Node numbers below are relative to lo, the node of the lowest center.
        u = m.kde_centers / self.step
        lo = np.rint(u.min())
        u = u - lo
        last = int(min(np.rint(u.max()) + reach, GRID_MAX_NODES - 1 - reach))
        u = u[u <= last + reach]  # the centers that reach a node
        pos = np.rint(u)
        offset = u - pos
        pos = pos.astype(np.intp)
        size = last + reach + 1  # plain sums at nodes -reach .. last
        n_fft = 1 << (max(int(pos.max()) + 1 + 2 * reach, size) - 1).bit_length()
        gauss, rotation, powers, step_spec = _grid_spectra(n_fft)
        counts = np.bincount(pos, minlength=size - reach).astype(float)
        spec_0 = np.fft.rfft(counts, n_fft)
        pdf_spec = spec_0.copy()
        cdf_spec = np.zeros_like(spec_0)
        moment = np.ones_like(offset)
        for power in powers:
            moment = moment * offset
            spec_p = np.fft.rfft(np.bincount(pos, moment), n_fft)
            pdf_spec += spec_p * power * rotation
            cdf_spec -= spec_p * power
        cdf_spec = cdf_spec * gauss / k + spec_0 * step_spec

        def at_nodes(spec):
            out = np.fft.irfft(spec, n_fft)
            return np.concatenate([out[n_fft - reach :], out[: size - reach]])

        heaviside = np.zeros(size)
        heaviside[reach:] = counts[: size - reach]
        plain_pdf = at_nodes(pdf_spec * gauss)
        plain_cdf = at_nodes(cdf_spec) + np.cumsum(heaviside) - 0.5 * heaviside

        def plain(values, nodes):
            i = nodes + reach
            inside = (i >= 0) & (i < size)
            return np.where(inside, values[np.where(inside, i, 0).astype(np.intp)], 0.0)

        # The reflected kernel: f(x) = g(x) + g(-x) and F(x) = G(x) - G(-x)
        # for the plain sums g and G, which vanish beyond the nodes built.
        # Two nodes below 0 continue f and F as even and odd functions, for
        # the stencils of points near 0.
        first = max(-reach, -lo) + _STENCIL[0]
        nodes = np.arange(first, last + 1, dtype=float)
        mirror = -nodes - 2.0 * lo
        self.first = lo + first
        self.nodes = nodes.size
        self.pdf = (plain(plain_pdf, nodes) + plain(plain_pdf, mirror)) / (n * h)
        self.cdf = (plain(plain_cdf, nodes) - plain(plain_cdf, mirror)) / n

    def read(self, x: np.ndarray, cdf: bool) -> tuple[np.ndarray, np.ndarray]:
        """Density (or CDF) at x and the mask of points the grid serves."""
        t = np.minimum(x / self.step, self.first + self.nodes)
        base = np.floor(t)
        start = base + _STENCIL[0] - self.first
        on = (start >= 0) & (start + _STENCIL.size <= self.nodes)
        idx = np.where(on, start, 0).astype(np.intp)
        s = t - base
        pdf = np.zeros(s.shape)
        cdf_values = np.zeros(s.shape)
        for j, denom in enumerate(_STENCIL_DENOM):
            w = np.full(s.shape, 1.0 / denom)
            for i in _STENCIL:
                if i != _STENCIL[j]:
                    w = w * (s - i)
            pdf += w * self.pdf[idx + j]
            if cdf:
                cdf_values += w * self.cdf[idx + j]
        on &= pdf >= self.floor
        if not cdf:
            return pdf, on
        on &= (cdf_values >= GRID_CDF_TAIL) & (cdf_values <= 1.0 - GRID_CDF_TAIL)
        return cdf_values, on


def _chunked(n_points: int, n_centers: int):
    step = max(1, CHUNK_BUDGET // max(1, n_centers))
    for start in range(0, n_points, step):
        yield start, min(n_points, start + step)


def _exact_sums(m: MarginalModel, pts: np.ndarray, cdf: bool) -> np.ndarray:
    c = m.kde_centers
    h = m.bandwidth
    out = np.empty(pts.shape, dtype=float)
    for lo, hi in _chunked(pts.size, c.size):
        block = pts[lo:hi, None]
        if cdf:
            # Reflected kernel: mass of one center on (0, x] is
            # Phi((x-c)/h) + Phi((x+c)/h) - 1, which vanishes at x = 0.
            out[lo:hi] = np.mean(
                std_normal_cdf((block - c) / h) + std_normal_cdf((block + c) / h) - 1.0,
                axis=1,
            )
        else:
            out[lo:hi] = np.mean(
                std_normal_pdf((block - c) / h) + std_normal_pdf((block + c) / h),
                axis=1,
            ) / h
    return out


def _kernel_sums(m: MarginalModel, pts: np.ndarray, cdf: bool) -> np.ndarray:
    """Density or CDF at pts: from the grid where it serves the point, else
    the exact sum. Both choices depend on the model and the point alone."""
    if m._grid is None:
        return _exact_sums(m, pts, cdf)
    out, on = m._grid.read(pts, cdf)
    if not on.all():
        out[~on] = _exact_sums(m, pts[~on], cdf)
    return out


def positive_pdf(m: MarginalModel, x):
    """Reflected-kernel density of the positive part, evaluated at x > 0."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    pts = np.atleast_1d(x)
    if np.any(pts <= 0):
        raise ValueError("positive_pdf is defined for strictly positive x")
    out = _kernel_sums(m, pts, cdf=False)
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
    out = np.clip(_kernel_sums(m, pts, cdf=True), 0.0, 1.0)
    return float(out[0]) if scalar else out


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


def fit_columns(data: np.ndarray, bandwidth_scale: float = 1.0) -> list[MarginalModel]:
    """Fit every column and run the rescale-and-refit pass; each model
    carries its rescale divisor."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DataError("expected a 2-D data matrix")
    models: list[MarginalModel] = []
    for j in range(data.shape[1]):
        col = data[:, j]
        try:
            first = fit_marginal(col, bandwidth_scale)
        except DataError as exc:
            raise DataError(f"column {j + 1}: {exc}") from None
        b = rescale_factor(first, col[col > 0])
        refit = fit_marginal(col / b, bandwidth_scale)
        models.append(replace(refit, rescale_b=b))
    return models


class PositiveTerms:
    """Fitted columns evaluated at the positive entries of one data matrix.

    ``positive`` marks the positive entries of the data divided by the
    columns' rescale divisors. ``logpdf`` holds each column's positive_logpdf
    there and ``cdf`` its positive-part CDF F, both 0 at the zeros. Each is
    evaluated on first use only: a fit reads F, a scorer both.
    """

    def __init__(self, models, data) -> None:
        self.models = tuple(models)
        self.rescales = np.array([m.rescale_b for m in self.models])
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


def fit_positive_terms(data, bandwidth_scale: float = 1.0) -> PositiveTerms:
    """Marginal stage of both copula fits: validate the training matrix, fit
    its columns and return them with their terms at the training rows."""
    arr = as_data_matrix(data)
    if arr.shape[0] < MIN_FIT_ROWS:
        raise DataError(f"need at least {MIN_FIT_ROWS} rows, got {arr.shape[0]}")
    return PositiveTerms(fit_columns(arr, bandwidth_scale=bandwidth_scale), arr)
