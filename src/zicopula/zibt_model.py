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
    CopulaModel,
    PositiveTerms,
    fit_positive_terms,
    normal_scores,
    terms_loglik_rows,
)
from .rgd_copula import (
    DEFAULT_MC_SAMPLES,
    PATTERN_MC_SAMPLES,
    RgdParams,
    ZeroPattern,
    assemble_sigma,
    zero_pattern_logprob,
)
from .stat_core import LOG_PROB_FLOOR, PROB_FLOOR, read_only, std_normal_quantile

# Stand-in threshold for variables that never hit zero in training: a test
# zero there would otherwise sit at -inf and break the copula evaluation.
_PATCHED_THRESHOLD = float(std_normal_quantile(PROB_FLOOR))


@dataclass(frozen=True)
class ZibtModel(CopulaModel):
    """Fitted marginals plus the rectified-copula correlation; each column's
    threshold is its marginal's Phi^-1(q)."""

    likelihood_mode: str = "approx"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.likelihood_mode not in ("exact", "approx"):
            raise ValueError("likelihood_mode must be 'exact' or 'approx'")

    @functools.cached_property
    def copula(self) -> RgdParams:
        """The rectified-copula law: sigma and the marginals' thresholds."""
        # Cached: every command a loaded model serves shares it.
        return RgdParams(self.sigma, read_only(np.array([m.a for m in self.marginals])))

    def _orthant_thresholds(self) -> np.ndarray | None:
        if self.likelihood_mode == "approx":
            return None
        return np.where(np.isfinite(self.copula.a), self.copula.a, _PATCHED_THRESHOLD)

    def _zero_terms(self, positive: np.ndarray) -> tuple:
        # log q floored so zeros in a column that never had any stay finite.
        q = np.array([m.q for m in self.marginals])
        with np.errstate(divide="ignore"):
            at_zero = np.maximum(np.log(q), LOG_PROB_FLOOR)
        return np.zeros(positive.shape[0]), at_zero, np.log1p(-q), q


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
    return terms_loglik_rows(model, model.terms(data), mc_samples, base_seed)


def zero_pattern_prob(
    model: ZibtModel,
    pattern: ZeroPattern,
    mc_samples: int = PATTERN_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """Probability that a draw from the fitted law shows this zero pattern."""
    return float(np.exp(zero_pattern_logprob(model.copula, pattern, mc_samples, seed)))
