"""Rectified Gaussian distribution and its copula.

A rectified Gaussian vector is max(a, nu) componentwise for nu ~ N(0, Sigma).
Zeros in the data correspond to coordinates stuck at their thresholds, and the
law marginalizes to any coordinate subset, which is what makes the pairwise
maximum-likelihood estimation of Sigma work. This module provides sampling,
the four-branch bivariate likelihood, pairwise correlation estimation, full
matrix assembly, zero-pattern probabilities, and ``pattern_loglik_rows``:
the one copula log-density kernel that both models score with, each on its
own ``PatternTable`` (the exact form adds the rectified-block orthant term).
It is batched by zero pattern: a table factors each pattern once,
the new patterns with the same number of positives in one stacked
factorisation and one stacked conditioning solve, and keeps the factors for
the next call; every row the orthant estimator serves shares one
minimax-tilt solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericError
from .stat_core import (
    LOG_2PI,
    LOG_PROB_FLOOR,
    PROB_CEIL,
    PROB_FLOOR,
    bivariate_normal_cdf,
    block_inverse,
    cholesky,
    clamp_probability,
    mvn_orthant_logprob,
    read_only,
    repair_correlation,
    std_normal_logcdf,
    std_normal_logpdf,
)

RHO_BRACKET = 0.9999
GRID_POINTS = 41
# Runs per one-zero group in the bounds that prune estimate_rho's scan.
SCAN_RUNS = 16
# The Newton polish of estimate_rho stops at a step below NEWTON_TOL; with
# bisection as its fallback it needs about 60 steps at most.
NEWTON_TOL = 1e-9
NEWTON_MAXITER = 100
# Estimator points per row for the exact copula term (mvn_orthant_logprob).
DEFAULT_MC_SAMPLES = 512
# Rectified draws (sample_rgd) that zero_pattern_logprob counts patterns in.
PATTERN_MC_SAMPLES = 4096


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
        if not np.isfinite(sigma).all():
            raise ValueError("sigma must be finite")
        if np.isnan(a).any() or np.isposinf(a).any():
            raise ValueError("thresholds must be finite or -inf")
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
    nu = rng.standard_normal((int(n), params.dim)) @ cholesky(params.sigma).T
    return np.maximum(params.a, nu)


def _gaussian_pair_loglik(rho, m, s_ii, s_jj, s_ij):
    """Summed log-density of m bivariate standard normal points at correlation
    rho, from their sums s_ii, s_jj, s_ij of w_i^2, w_j^2 and w_i w_j; rho
    may be an array."""
    om = 1.0 - rho * rho
    return m * (-LOG_2PI - 0.5 * np.log(om)) - 0.5 * (s_ii - 2.0 * rho * s_ij + s_jj) / om


def _gaussian_pair_derivs(rho: float, m, s_ii, s_jj, s_ij) -> tuple[float, float]:
    """First and second rho-derivatives of _gaussian_pair_loglik."""
    om = 1.0 - rho * rho
    quad = s_ii - 2.0 * rho * s_ij + s_jj
    num = s_ij * om - rho * quad
    g = m * rho / om + num / om**2
    h = m * (1.0 + rho * rho) / om**2 + (4.0 * rho * num - quad * om) / om**3
    return g, h


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
    return float(_pair_total_loglik(rho, *branches))


def _pair_branches(w_i, w_j, zi, zj, a_i, a_j) -> tuple:
    """Reduce paired samples to the arguments of _pair_total_loglik: the
    double-zero count, the positive values of the one-zero rows, and the
    count and sums of squares and products of the both-positive rows."""
    both_pos = ~zi & ~zj
    wi_pos = w_i[both_pos]
    wj_pos = w_j[both_pos]
    return (
        int((zi & zj).sum()),
        w_j[zi & ~zj],
        w_i[~zi & zj],
        wi_pos.size,
        float(wi_pos @ wi_pos),
        float(wj_pos @ wj_pos),
        float(wi_pos @ wj_pos),
        float(a_i),
        float(a_j),
    )


def _pair_total_loglik(
    rho,
    n00: int,
    w_j_only_i_zero: np.ndarray,
    w_i_only_j_zero: np.ndarray,
    m: int,
    s_ii: float,
    s_jj: float,
    s_ij: float,
    a_i: float,
    a_j: float,
) -> np.ndarray:
    """Summed four-branch log-likelihood: both rectified (orthant mass), one
    rectified (density of the other times a conditional CDF), none (density,
    from the m both-positive rows' sums of squares and products).

    ``rho`` is a scalar or an array; the result has its shape, the sum over
    the rows at each of its values.
    """
    rho = np.asarray(rho, dtype=float)
    total = np.zeros(rho.shape)
    if n00:
        total += n00 * np.log(clamp_probability(bivariate_normal_cdf(a_i, a_j, rho)))
    r = rho[..., None]
    s = np.sqrt(1.0 - r * r)
    for w, a in ((w_j_only_i_zero, a_i), (w_i_only_j_zero, a_j)):
        if w.size:
            total += std_normal_logpdf(w).sum()
            total += std_normal_logcdf((a - r * w) / s).sum(axis=-1)
    if m:
        total += _gaussian_pair_loglik(rho, m, s_ii, s_jj, s_ij)
    return total


def _scan_bounds(grid: np.ndarray, args: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on _pair_total_loglik(grid, *args) at every
    grid point, from SCAN_RUNS runs of each one-zero group.

    Each group is sorted once and cut into runs. At a given rho, z = (a -
    rho w)/s is monotone in w and log Phi increases, so a run adds between
    count * log Phi(z) at its two ends. The double-zero, both-positive and
    log phi terms are exact, so a group of at most SCAN_RUNS rows (one row
    per run) gives both bounds equal to the exact value up to rounding.
    """
    n00, w_j_only_i_zero, w_i_only_j_zero, m, s_ii, s_jj, s_ij, a_i, a_j = args
    empty = np.empty(0)
    lower = upper = _pair_total_loglik(grid, n00, empty, empty, m, s_ii, s_jj, s_ij, a_i, a_j)
    r = grid[:, None]
    s = np.sqrt(1.0 - r * r)
    for w, a in ((w_j_only_i_zero, a_i), (w_i_only_j_zero, a_j)):
        if w.size:
            w = np.sort(w)
            runs = min(SCAN_RUNS, w.size)
            edges = np.arange(runs + 1) * w.size // runs
            first = std_normal_logcdf((a - r * w[edges[:-1]]) / s)
            last = std_normal_logcdf((a - r * w[edges[1:] - 1]) / s)
            count = np.diff(edges).astype(float)
            logpdf = std_normal_logpdf(w).sum()
            lower = lower + logpdf + np.minimum(first, last) @ count
            upper = upper + logpdf + np.maximum(first, last) @ count
    return lower, upper


def _pair_score(
    rho: float,
    n00: int,
    w_j_only_i_zero: np.ndarray,
    w_i_only_j_zero: np.ndarray,
    m: int,
    s_ii: float,
    s_jj: float,
    s_ij: float,
    a_i: float,
    a_j: float,
) -> tuple[float, float]:
    """First and second derivative (g, h) of _pair_total_loglik at a scalar rho.

    A one-zero row adds lambda(z) dz/drho with z = (a - rho w)/s, s^2 = 1 -
    rho^2, lambda = phi/Phi and dz/drho = (rho a - w)/s^3. The double zeros
    add n00 phi2/Phi2 by Plackett's identity dPhi2/drho = phi2, and nothing
    where the likelihood clamps Phi2 and is flat.
    """
    g = h = 0.0
    if n00:
        p = bivariate_normal_cdf(a_i, a_j, rho)
        if PROB_FLOOR < p < PROB_CEIL:
            sums = (a_i * a_i, a_j * a_j, a_i * a_j)
            ratio = np.exp(_gaussian_pair_loglik(rho, 1, *sums)) / p
            dlog, _ = _gaussian_pair_derivs(rho, 1, *sums)
            g += n00 * ratio
            h += n00 * ratio * (dlog - ratio)
    s = np.sqrt(1.0 - rho * rho)
    for w, a in ((w_j_only_i_zero, a_i), (w_i_only_j_zero, a_j)):
        if w.size:
            z = (a - rho * w) / s
            dz = (rho * a - w) / s**3
            d2z = a / s**3 + 3.0 * rho * dz / (s * s)
            lam = np.exp(std_normal_logpdf(z) - std_normal_logcdf(z))
            g += float(lam @ dz)
            h += float(lam @ (d2z - (z + lam) * dz * dz))
    if m:
        gm, hm = _gaussian_pair_derivs(rho, m, s_ii, s_jj, s_ij)
        g += gm
        h += hm
    return g, h


def estimate_rho(
    w_i,
    w_j,
    a_i: float,
    a_j: float,
    zero_i=None,
    zero_j=None,
) -> float:
    """Maximize the summed pair log-likelihood over rho in (-1, 1).

    The rows are reduced once to _pair_branches, so only the one-zero rows
    are visited per evaluation. A 41-point grid scan brackets the optimum
    (the likelihood is assumed unimodal; the scan guards against a bad
    bracket) between the neighbours of its best point. The scan evaluates
    the likelihood exactly only where _scan_bounds says the grid's maximum
    can be; those points go through the same elementwise arithmetic as a
    scan of the whole grid, so the best point, its value and the result
    keep their bits. Newton steps on the analytic score and curvature then
    polish it inside that bracket, which shrinks to the score's sign
    change; a step that leaves the bracket or meets non-negative curvature
    is replaced by bisection. The result is never below the scan's best
    point. Without any rectified value in either coordinate the likelihood
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
        if not (np.ptp(w_i) > 0 and np.ptp(w_j) > 0):
            raise NumericError("sample correlation undefined (constant coordinate)")
        corr = float(np.corrcoef(w_i, w_j)[0, 1])
        return float(np.clip(corr, -RHO_BRACKET, RHO_BRACKET))

    args = _pair_branches(w_i, w_j, zi, zj, a_i, a_j)

    grid = np.linspace(-RHO_BRACKET, RHO_BRACKET, GRID_POINTS)
    # Only points whose upper bound reaches the best lower bound, less a
    # rounding margin, can hold the grid's maximum; the rest stay at -inf.
    lower, upper = _scan_bounds(grid, args)
    floor = lower.max()
    keep = upper >= floor - 1e-9 * (1.0 + abs(floor))
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        keep[:] = True
    values = np.full(GRID_POINTS, -np.inf)
    values[keep] = _pair_total_loglik(grid[keep], *args)
    best = int(np.argmax(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, GRID_POINTS - 1)])
    # An end of the grid may be a spurious maximum where the likelihood
    # flattens out or turns up again towards |rho| = 1, so the polish starts
    # inside the bracket there.
    rho = float(grid[best]) if 0 < best < GRID_POINTS - 1 else 0.5 * (lo + hi)
    # Safeguarded Newton (Numerical Recipes' rtsafe): a Newton step is taken
    # only if it stays in the bracket and is at most half the step before
    # the last, so the bracket shrinks at least as fast as by bisection.
    step = step_before = hi - lo
    for _ in range(NEWTON_MAXITER):
        g, h = _pair_score(rho, *args)
        if not (np.isfinite(g) and np.isfinite(h)):
            raise NumericError(
                f"pairwise likelihood maximization failed: score not finite at rho={rho}"
            )
        if g > 0.0:
            lo = rho
        else:
            hi = rho
        newton = rho - g / h if h < 0.0 else np.nan
        if lo <= newton <= hi and abs(newton - rho) <= 0.5 * abs(step_before):
            new = newton
        else:
            new = 0.5 * (lo + hi)
        step_before, step = step, new - rho
        rho = new
        if abs(step) <= NEWTON_TOL:
            break
    else:
        raise NumericError(
            f"pairwise likelihood maximization failed: no convergence in {NEWTON_MAXITER} steps"
        )
    # The bracket may hold two maxima and the polish may find the lower one;
    # the result is never below the scan's best point.
    if _pair_total_loglik(rho, *args) < values[best]:
        rho = float(grid[best])
    return float(np.clip(rho, -RHO_BRACKET, RHO_BRACKET))


def assemble_sigma(
    omega: np.ndarray,
    a,
    use_mle: bool,
    zero_mask: np.ndarray,
) -> np.ndarray:
    """Build the full correlation matrix from omega-transformed columns.

    zero_mask marks the rectified entries. With use_mle, every pair goes
    through estimate_rho; otherwise the plain sample correlation over all
    rows (rectified values included) is taken. The result is passed through
    repair_correlation either way.
    """
    omega = np.asarray(omega, dtype=float)
    a = np.asarray(a, dtype=float)
    if omega.ndim != 2:
        raise DataError("omega must be a matrix")
    d = omega.shape[1]
    if a.shape != (d,):
        raise DataError("threshold vector must match omega columns")
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
        if not (np.ptp(omega, axis=0) > 0).all():
            raise NumericError("sample correlation undefined (constant column)")
        # corrcoef of one column is 0-d.
        sigma = np.corrcoef(omega, rowvar=False).reshape(d, d)
        np.fill_diagonal(sigma, 1.0)
    return repair_correlation(sigma)


# Zero patterns one PatternTable keeps: all 2^D of them up to D = 10. Each
# takes at most 2 D^2 floats of factors, 2.3 KB at D = 12.
PATTERN_TABLE_SIZE = 1024


class _Stack(NamedTuple):
    """The factors of the patterns with p positives, one slot per pattern;
    a field is None where no row of that p reads it."""

    pos: np.ndarray  # (g, p) positive coordinates, ascending
    zero: np.ndarray  # (g, d - p) zero coordinates, ascending
    chol: np.ndarray | None  # (g, p, p) Cholesky factors of sigma_pos; p >= 2
    logdet: np.ndarray | None  # (g,) their log-determinants
    proj: np.ndarray | None  # (g, d - p, p) sigma_zp sigma_pp^-1; exact, 0 < p < d
    cov: np.ndarray | None  # (g, d - p, d - p) the zeros' conditional covariance; ditto
    log_phi_a: np.ndarray | None  # (g,) sum log Phi(a_zero); exact, p < d


def _join(old: _Stack | None, new: _Stack) -> _Stack:
    """The slots of ``new`` after those of ``old`` (if any), read-only: a
    model's table serves every command the model does."""
    if old is not None:
        new = _Stack(*(None if o is None else np.concatenate([o, n]) for o, n in zip(old, new)))
    return _Stack(*map(read_only, new))


class PatternTable:
    """The factors of sigma that the copula term reads per zero pattern,
    built once per pattern and kept.

    Rows are grouped by their pattern's code: the positive mask packed into
    bits, one big-endian integer of any width. A pattern not in the table is
    factored with the other new patterns of its call, one stacked call per
    number of positives p: the Cholesky factor and log-determinant of its
    positive block and, in the exact form (thresholds ``a`` given), the
    projection and symmetrised conditional covariance of its zero block and
    sum log Phi(a_zero). LAPACK factors each matrix of a stack on its own,
    so a pattern's factors do not depend on the patterns beside it, and a
    warm table scores the bytes of a cold one. A failed build stores
    nothing. The table keeps at most PATTERN_TABLE_SIZE patterns; a call
    that would pass that uses its new patterns' factors and drops them.
    """

    def __init__(self, sigma, a=None) -> None:
        self.sigma = read_only(np.array(sigma, dtype=float))
        self.a = None if a is None else read_only(np.array(a, dtype=float))
        if self.a is not None and self.a.shape != self.sigma.shape[:1]:
            raise ValueError("thresholds must match sigma dimension")
        self._slots: dict[bytes, tuple[int, int]] = {}  # code -> (p, slot)
        self._stacks: dict[int, _Stack] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def factors(self, keys: list, patterns: np.ndarray) -> tuple[dict, dict]:
        """The slots and stacks holding every pattern of ``keys`` (their
        positive masks ``patterns``): the table's own, or copies with the
        new patterns appended, which the table keeps if they fit."""
        new = [i for i, key in enumerate(keys) if key not in self._slots]
        if not new:
            return self._slots, self._stacks
        slots, stacks = dict(self._slots), dict(self._stacks)
        for p, group, stack in self._factor(patterns[new]):
            start = 0 if p not in stacks else stacks[p].pos.shape[0]
            stacks[p] = _join(stacks.get(p), stack)
            for slot, i in enumerate(group, start):
                slots[keys[new[i]]] = (p, slot)
        if len(slots) <= PATTERN_TABLE_SIZE:
            self._slots, self._stacks = slots, stacks
        return slots, stacks

    def _factor(self, patterns: np.ndarray):
        """(p, indices into ``patterns``, their _Stack) for each number of
        positives p among the positive masks ``patterns``, ascending."""
        sigma, a = self.sigma, self.a
        d = sigma.shape[0]
        if a is not None:
            impossible = ~patterns & ~np.isfinite(a)
            if impossible.any():
                i = int(np.flatnonzero(impossible[impossible.any(axis=1)][0])[0])
                raise ValueError(
                    f"pattern impossible: coordinate {i} has no zero mass (threshold -inf)"
                )
        counts = patterns.sum(axis=1)
        # Each pattern's positive coordinates, then its zero coordinates, ascending.
        order = np.argsort(~patterns, axis=1, kind="stable")
        out = []
        for p in np.unique(counts):
            group = np.flatnonzero(counts == p)
            pos, zero = order[group, :p], order[group, p:]
            s_oo = sigma[pos[:, :, None], pos[:, None, :]]
            chol = logdet = proj = cov = log_phi_a = None
            if p >= 2:
                chol = cholesky(s_oo)
                logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
            if a is not None and p < d:
                if p:
                    gain = block_inverse(s_oo, pos)
                    s_fo = sigma[zero[:, :, None], pos[:, None, :]]
                    proj = s_fo @ gain
                    s_ff = sigma[zero[:, :, None], zero[:, None, :]]
                    cov = s_ff - proj @ np.swapaxes(s_fo, 1, 2)
                    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
                log_phi_a = std_normal_logcdf(a[zero]).sum(axis=1)
            out.append((p, group, _Stack(pos, zero, chol, logdet, proj, cov, log_phi_a)))
        return out


def pattern_loglik_rows(
    table: PatternTable,
    omega,
    positive,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    base_seed: int = 0,
) -> np.ndarray:
    """Gaussian-copula log-density of each row under the sigma and
    thresholds of ``table``, which factors the patterns it does not hold yet.
    omega is read only where ``positive``. Without thresholds it is
    log N(omega_pos; 0, sigma_pos) - sum log phi(omega_pos), 0 for one
    coordinate; the exact form adds log P(nu_zero <= a_zero | nu_pos =
    omega_pos) - sum log Phi(a_zero). A row's value does not depend on the
    other rows, nor on what the table held before. The orthant terms of all
    zero counts are one mvn_orthant_logprob call, its estimator's rows
    embedded in the dimension of sigma, ``mc_samples`` points per row and
    shifts drawn from ``base_seed``."""
    sigma, a = table.sigma, table.a
    omega = np.asarray(omega, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    n, d = omega.shape
    if sigma.shape != (d, d) or positive.shape != omega.shape:
        raise ValueError("sigma, omega and the positive mask disagree in shape")
    packed = np.packbits(positive, axis=1)
    codes = np.ascontiguousarray(packed).view(f"V{packed.shape[1]}")[:, 0]
    codes, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    keys = [code.tobytes() for code in codes]
    slots, stacks = table.factors(keys, positive[first])
    found = np.array([slots[key] for key in keys], dtype=np.intp).reshape(-1, 2)
    row_p, row_slot = found[inverse.reshape(n)].T
    total = np.zeros(n)
    log_phi_a = np.zeros(n)
    orthant_rows, orthants = [], []
    for p in np.unique(found[:, 0]):
        rows = np.flatnonzero(row_p == p)
        stack, slot = stacks[p], row_slot[rows]
        x = omega[rows[:, None], stack.pos[slot]]
        if p >= 2:
            total[rows] += _gaussian_block_logpdf(x, stack.chol[slot], stack.logdet[slot])
            total[rows] -= std_normal_logpdf(x).sum(axis=1)
        if a is None or p == d:
            continue
        if p:
            cov = stack.cov[slot]
            upper = a[stack.zero[slot]] - np.einsum("rkj,rj->rk", stack.proj[slot], x)
        else:
            cov = np.broadcast_to(sigma, (rows.size, d, d))
            upper = np.broadcast_to(a, (rows.size, d))
        log_phi_a[rows] = stack.log_phi_a[slot]
        orthant_rows.append(rows)
        orthants.append((cov, upper))
    if orthants:
        logps = mvn_orthant_logprob(orthants, mc_samples, base_seed, d)
        for rows, logp in zip(orthant_rows, logps):
            total[rows] += logp
    return total - log_phi_a


def _gaussian_block_logpdf(x: np.ndarray, low: np.ndarray, logdet: np.ndarray) -> np.ndarray:
    """log N(x_r; 0, low_r low_r^T) for each row r of x, by forward
    substitution on its Cholesky factor ``low_r`` of log-determinant
    ``logdet_r``."""
    p = x.shape[1]
    sol = np.empty_like(x)
    for i in range(p):
        sol[:, i] = (x[:, i] - np.einsum("rj,rj->r", low[:, i, :i], sol[:, :i])) / low[:, i, i]
    return -0.5 * (p * LOG_2PI + logdet + np.sum(sol * sol, axis=1))


def zero_pattern_logprob(
    params: RgdParams,
    pattern: ZeroPattern,
    mc_samples: int = PATTERN_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """log P(the rectified law produces exactly this zero pattern).

    For D <= 2 this is the orthant P(S nu <= S a) of mvn_orthant_logprob,
    with S = diag(+-1) reflecting the positive coordinates: a positive
    coordinate at a -inf threshold always is one and drops out, and a zero
    coordinate there never is. Otherwise it is the share of ``mc_samples``
    draws of sample_rgd that show the pattern, since a coordinate is
    rectified exactly when its latent value is at or below its threshold.
    One seed gives every pattern the same draws, so the probabilities of
    all 2^D patterns sum to exactly 1. Either way it is floored at
    LOG_PROB_FLOOR.
    """
    if pattern.dim != params.dim:
        raise ValueError("pattern dimension mismatch")
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    a = params.a
    is_zero = np.zeros(params.dim, dtype=bool)
    is_zero[list(pattern.zero_set)] = True
    if params.dim <= 2:
        keep = np.isfinite(a)
        if np.isneginf(a[is_zero]).any() or not keep.any():
            return LOG_PROB_FLOOR if is_zero.any() else 0.0
        sign = np.where(is_zero, 1.0, -1.0)[keep]
        cov = params.sigma[np.ix_(keep, keep)] * np.outer(sign, sign)
        (logp,) = mvn_orthant_logprob([(cov[None], sign[None] * a[keep])], mc_samples, seed)
        return max(float(logp[0]), LOG_PROB_FLOOR)
    rectified = sample_rgd(params, mc_samples, seed) == a
    return float(np.log(clamp_probability(np.mean(np.all(rectified == is_zero, axis=1)))))
