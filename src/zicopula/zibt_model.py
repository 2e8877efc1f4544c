"""Zero-inflated density model on a rectified Gaussian copula.

Zeros are produced by thresholding a latent Gaussian, so zero occurrence
and positive magnitudes share one correlation matrix.  Each variable
contributes its zero mass q at zero and a KDE density on the positives;
the copula ties the coordinates together through thresholds a = Phi^-1(q)
and a correlation estimated by pairwise likelihood over all four
zero/positive branch combinations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .marginals import (
    MarginalModel,
    PositiveTerms,
    as_data_matrix,
    fit_positive_terms,
    normal_scores,
)
from .rgd_copula import (
    DEFAULT_MC_SAMPLES,
    PATTERN_MC_SAMPLES,
    RgdParams,
    ZeroPattern,
    assemble_sigma,
    copula_loglik_rows,
    zero_pattern_logprob,
)
from .stat_core import LOG_PROB_FLOOR, PROB_FLOOR, std_normal_quantile

# Stand-in threshold for variables that never hit zero in training: a test
# zero there would otherwise sit at -inf and break the copula evaluation.
_PATCHED_THRESHOLD = float(std_normal_quantile(PROB_FLOOR))


@dataclass(frozen=True)
class ZibtModel:
    """Fitted marginals plus the rectified-copula correlation; each column's
    threshold is its marginal's Phi^-1(q)."""

    marginals: tuple[MarginalModel, ...]
    sigma: np.ndarray
    likelihood_mode: str = "approx"

    def __post_init__(self) -> None:
        marginals = tuple(self.marginals)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (len(marginals), len(marginals)):
            raise ValueError("sigma dimension must match the marginals")
        if not np.isfinite(sigma).all():
            raise ValueError("sigma must be finite")
        if self.likelihood_mode not in ("exact", "approx"):
            raise ValueError("likelihood_mode must be 'exact' or 'approx'")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @functools.cached_property
    def copula(self) -> RgdParams:
        """The rectified-copula law: sigma and the marginals' thresholds."""
        return RgdParams(self.sigma, np.array([m.a for m in self.marginals]))

    @property
    def rescales(self) -> np.ndarray:
        """Each column's rescale divisor, as its marginal stores it."""
        return np.array([m.rescale_b for m in self.marginals])


def fit_zibt(
    data,
    use_mle_sigma: bool = True,
    likelihood_mode: str = "approx",
    bandwidth_scale: float = 1.0,
) -> ZibtModel:
    """Fit marginals, thresholds, and the copula correlation."""
    train = fit_positive_terms(data, bandwidth_scale=bandwidth_scale)
    return fit_zibt_copula(train, use_mle_sigma, likelihood_mode)


def fit_zibt_copula(
    train: PositiveTerms,
    use_mle_sigma: bool = True,
    likelihood_mode: str = "approx",
) -> ZibtModel:
    """Copula stage of fit_zibt: the correlation on fitted columns."""
    a = np.array([m.a for m in train.models])
    q = np.array([m.q for m in train.models])
    omega = np.where(train.positive, normal_scores(train.cdf, q), a)
    sigma = assemble_sigma(omega, a, use_mle_sigma, zero_mask=~train.positive)
    return ZibtModel(train.models, sigma, likelihood_mode)


def zibt_loglik_rows(
    model: ZibtModel,
    data,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    base_seed: int = 0,
) -> np.ndarray:
    """Log-likelihood of each row under the fitted rectified-copula law."""
    arr = as_data_matrix(data, dim=model.dim)
    terms = PositiveTerms(model.marginals, arr)
    return zibt_loglik_terms(model, terms, mc_samples, base_seed)


def zibt_loglik_terms(
    model: ZibtModel,
    terms: PositiveTerms,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    base_seed: int = 0,
) -> np.ndarray:
    """Copula stage of zibt_loglik_rows, on the model's columns evaluated at
    the rows to score."""
    terms.check_columns(model.marginals)
    positive = terms.positive
    total = np.zeros(positive.shape[0])
    log_b = np.log(terms.rescales)
    for j, m in enumerate(model.marginals):
        pos = positive[:, j]
        # log q floored so zeros in a column that never had any stay finite.
        total[~pos] += max(np.log(m.q), LOG_PROB_FLOOR) if m.q > 0 else LOG_PROB_FLOOR
        total[pos] += np.log1p(-m.q) + terms.logpdf[pos, j] - log_b[j]

    q = np.array([m.q for m in model.marginals])
    total += copula_loglik_rows(
        model.sigma,
        np.where(np.isfinite(model.copula.a), model.copula.a, _PATCHED_THRESHOLD),
        np.where(positive, normal_scores(terms.cdf, q), 0.0),
        positive,
        exact=model.likelihood_mode == "exact",
        mc_samples=mc_samples,
        base_seed=base_seed,
    )
    return total


def zero_pattern_prob(
    model: ZibtModel,
    pattern: ZeroPattern,
    mc_samples: int = PATTERN_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """Probability that a draw from the fitted law shows this zero pattern."""
    return float(np.exp(zero_pattern_logprob(model.copula, pattern, mc_samples, seed)))
