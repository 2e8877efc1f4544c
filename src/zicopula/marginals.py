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
from .rgd_copula import DEFAULT_MC_SAMPLES, PatternTable, pattern_loglik_rows
from .stat_core import blocks, read_only, std_normal_cdf, std_normal_pdf, std_normal_quantile

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
        if not (0 < self.bandwidth < math.inf and 0 < self.rescale_b < math.inf):
            raise ValueError("bandwidth and rescale_b must be positive and finite")
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
    if not 0 < bandwidth_scale < math.inf:
        raise ValueError(f"bandwidth_scale must be positive and finite, got {bandwidth_scale!r}")
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
# crossover: a build takes 0.13-0.67 ms up to 128 centers (more for more
# nodes), about one exact density and CDF at the training values near 64
# centers but less than one at 2,000 points for any size (2-core x86-64
# host). It keeps small columns, and the closed-form tests of one or a few
# centers, on the exact path.
GRID_MIN_CENTERS = 64
# Most nodes one grid holds (1,024 bandwidths); beyond them points are
# summed exactly.
GRID_MAX_NODES = 1 << 15
# Interpolation stencil: nodes floor(t) - 2 .. floor(t) + 3 around t, and
# in row j the positions of the nodes other than node j.
_STENCIL = np.arange(-2, 4)
_STENCIL_DENOM = np.array([math.prod(int(j - i) for i in _STENCIL if i != j) for j in _STENCIL])
_STENCIL_OTHERS = np.array([np.flatnonzero(_STENCIL != j) for j in _STENCIL])


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
        read_only(array)
    return gauss, rotation, tuple(powers), step_spec


def _window(values: np.ndarray, start: int, stop: int) -> np.ndarray:
    """values[:, start:stop], with zeros at the indices outside values."""
    out = np.zeros((values.shape[0], stop - start))
    lo = max(start, 0)
    hi = max(lo, min(stop, values.shape[1]))
    out[:, lo - start : hi - start] = values[:, lo:hi]
    return out


class _KernelGrid:
    """Reflected-kernel density and positive-part CDF of one fitted column,
    the rows of ``values``, at ``nodes`` consecutive nodes from node
    ``first``."""

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
        # Row p: the centers' offsets to the power p, binned at their nodes.
        binned = np.empty((GRID_MOMENTS + 1, n_fft))
        moment = np.ones_like(offset)
        for row in binned:
            row[:] = np.bincount(pos, moment, minlength=n_fft)
            moment = moment * offset
        spectra = np.fft.rfft(binned)
        pdf_spec, cdf_spec = spectra[0].copy(), np.zeros_like(spectra[0])
        for spec_p, power in zip(spectra[1:], powers):
            term = spec_p * power
            pdf_spec += term * rotation
            cdf_spec -= term
        cdf_spec = cdf_spec * gauss / k + spectra[0] * step_spec
        # Plain sums g and G at nodes -reach .. last, at index node + reach.
        sums = np.fft.irfft(np.stack([pdf_spec * gauss, cdf_spec]), n_fft)
        plain = np.concatenate([sums[:, -reach:], sums[:, : size - reach]], axis=1)
        heaviside = np.zeros(size)
        heaviside[reach:] = binned[0, : size - reach]
        plain[1] = plain[1] + np.cumsum(heaviside) - 0.5 * heaviside

        # The reflected kernel: f(x) = g(x) + g(-x) and F(x) = G(x) - G(-x)
        # for the plain sums g and G, which vanish beyond the nodes built.
        # Two nodes below 0 continue f and F as even and odd functions, for
        # the stencils of points near 0.
        first = int(max(-reach, -lo)) + int(_STENCIL[0])
        self.first = lo + first
        self.nodes = last + 1 - first
        top = -first - 2 * int(lo) + reach  # the index of node -first - 2 lo
        at = _window(plain, first + reach, size)
        mirror = _window(plain, top + 1 - self.nodes, top + 1)[:, ::-1]
        # A loaded model's grid serves many commands.
        self.values = read_only(np.stack([(at[0] + mirror[0]) / (n * h), (at[1] - mirror[1]) / n]))

    def read(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Density and CDF at x, each with the mask of points the grid
        serves, from one six-node stencil."""
        t = np.minimum(x / self.step, self.first + self.nodes)
        base = np.floor(t)
        start = base + _STENCIL[0] - self.first
        on = (start >= 0) & (start + _STENCIL.size <= self.nodes)
        idx = np.where(on, start, 0).astype(np.intp)
        diffs = (t - base) - _STENCIL[:, None]
        weights = (1.0 / _STENCIL_DENOM)[:, None] * diffs[_STENCIL_OTHERS[:, 0]]
        for others in _STENCIL_OTHERS.T[1:]:
            weights *= diffs[others]
        # Python's sum adds the six rows in stencil order, for every n.
        rows = idx + np.arange(_STENCIL.size)[:, None]
        pdf, cdf = sum(weights[:, None] * self.values[:, rows].swapaxes(0, 1))
        on &= pdf >= self.floor
        return pdf, cdf, on, on & (cdf >= GRID_CDF_TAIL) & (cdf <= 1.0 - GRID_CDF_TAIL)


def _exact_sums(m: MarginalModel, pts: np.ndarray, cdf: bool) -> np.ndarray:
    c = m.kde_centers
    h = m.bandwidth
    out = np.empty(pts.shape, dtype=float)
    for lo, hi in blocks(pts.size, c.size):
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


def _grid_sums(m: MarginalModel, pts: np.ndarray) -> tuple:
    """Density, CDF and the masks of the points the grid serves for each:
    one read of the column's grid, or no point served without one."""
    if m._grid is None:
        return np.empty(pts.shape), np.empty(pts.shape), *[np.zeros(pts.shape, dtype=bool)] * 2
    return m._grid.read(pts)


def _exact_elsewhere(m: MarginalModel, pts, values, on, cdf: bool) -> np.ndarray:
    """values, with the exact sum at every point off the grid. Which path a
    point takes depends on the model and the point alone."""
    if not on.all():
        values[~on] = _exact_sums(m, pts[~on], cdf)
    return values


def positive_pdf(m: MarginalModel, x):
    """Reflected-kernel density of the positive part, evaluated at x > 0."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    pts = np.atleast_1d(x)
    if np.any(pts <= 0):
        raise ValueError("positive_pdf is defined for strictly positive x")
    pdf, _, on, _ = _grid_sums(m, pts)
    out = _exact_elsewhere(m, pts, pdf, on, cdf=False)
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
    _, cdf, _, on = _grid_sums(m, pts)
    out = np.clip(_exact_elsewhere(m, pts, cdf, on, cdf=True), 0.0, 1.0)
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
    there and ``cdf`` its positive-part CDF F, both 0 at the zeros. Both are
    computed at construction from one grid read per column.
    """

    def __init__(self, models, data) -> None:
        self.models = tuple(models)
        self.rescales = np.array([m.rescale_b for m in self.models])
        self.data = np.asarray(data, dtype=float)
        scaled = self.scaled
        self.positive = scaled > 0
        self.logpdf = np.zeros(self.data.shape)
        self.cdf = np.zeros(self.data.shape)
        for j, m in enumerate(self.models):
            pos = self.positive[:, j]
            if pos.any():
                pts = scaled[pos, j]
                pdf, cdf, on_pdf, on_cdf = _grid_sums(m, pts)
                pdf = _exact_elsewhere(m, pts, pdf, on_pdf, cdf=False)
                self.logpdf[pos, j] = np.log(np.maximum(pdf, _DENSITY_FLOOR))
                cdf = _exact_elsewhere(m, pts, cdf, on_cdf, cdf=True)
                self.cdf[pos, j] = np.clip(cdf, 0.0, 1.0)

    @property
    def scaled(self) -> np.ndarray:
        # Recomputed on use, so a benchmark seed holding many of these keeps
        # one copy of each data set. A value past the float range once
        # divided is +inf, which every term reads as beyond all centers.
        with np.errstate(over="ignore"):
            return self.data / self.rescales

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


@dataclass(frozen=True)
class CopulaModel:
    """Fitted columns and the copula correlation over them: the record both
    copula models extend."""

    marginals: tuple[MarginalModel, ...]
    sigma: np.ndarray

    def __post_init__(self) -> None:
        marginals = tuple(self.marginals)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (len(marginals), len(marginals)):
            raise ValueError("sigma dimension must match the marginals")
        if not np.isfinite(sigma).all():
            raise ValueError("sigma must be finite")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def rescales(self) -> np.ndarray:
        """Each column's rescale divisor, as its marginal stores it."""
        return np.array([m.rescale_b for m in self.marginals])

    def terms(self, data) -> PositiveTerms:
        """The model's columns evaluated at the rows of a data matrix of its
        width."""
        return PositiveTerms(self.marginals, as_data_matrix(data, dim=self.dim))

    def _orthant_thresholds(self) -> np.ndarray | None:
        """The thresholds of the copula term's orthant; None: the model
        scores the approximate form."""
        return None

    def _zero_terms(self, positive: np.ndarray) -> tuple:
        """(start, at_zero, at_positive, q) of terms_loglik_rows."""
        raise NotImplementedError

    @functools.cached_property
    def patterns(self) -> PatternTable:
        """The copula term's zero-pattern table, built on first use and kept:
        a model that load_model hands to several commands factors each of
        its zero patterns once."""
        return PatternTable(self.sigma, self._orthant_thresholds())


def terms_loglik_rows(
    model: CopulaModel,
    terms: PositiveTerms,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    base_seed: int = 0,
) -> np.ndarray:
    """Log-likelihood of each row under a copula model, from its columns
    evaluated at the rows to score. The model's zero term starts each row
    and adds at_zero[j] at a zero in column j, at_positive[j] at a positive
    entry; a positive entry also adds log g(x / b) - log b, and every row
    the copula term on the model's pattern table, with omega taken at the
    model's zero rates q. Only the exact form reads mc_samples and
    base_seed."""
    terms.check_columns(model.marginals)
    positive = terms.positive
    total, at_zero, at_positive, q = model._zero_terms(positive)
    # log b is the change-of-variables term: the marginal was fit on x / b,
    # so its density in original units is g(x / b) / b.
    log_b = np.log(terms.rescales)
    for j in range(model.dim):
        pos = positive[:, j]
        total[~pos] += at_zero[j]
        total[pos] += at_positive[j] + terms.logpdf[pos, j] - log_b[j]
    omega = np.where(positive, normal_scores(terms.cdf, q), 0.0)
    return total + pattern_loglik_rows(model.patterns, omega, positive, mc_samples, base_seed)
