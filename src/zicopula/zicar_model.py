"""Zero-inflated density model built from a masked Gaussian-copula parent.

The joint law factorizes into a distribution over zero/positive masks and,
given the positive set, the parent density restricted to it: per-variable
KDE marginals tied together by a Gaussian copula.  The copula correlation
is estimated from jointly positive rows only, so zeros never distort it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .marginals import (
    CopulaModel,
    PositiveTerms,
    fit_positive_terms,
    normal_scores,
    terms_loglik_rows,
)
from .mask_model import (
    BernoulliMask,
    RbmMask,
    fit_bernoulli,
    fit_rbm,
    mask_logprob_rows,
)
from .stat_core import repair_correlation, std_normal_quantile

MIN_JOINT_POSITIVE = 10


@dataclass(frozen=True)
class ZicarModel(CopulaModel):
    """Fitted parent marginals, copula correlation, mask distribution."""

    mask: BernoulliMask | RbmMask

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mask.dim != self.dim:
            raise ValueError("mask dimension must match the marginals")

    def _zero_terms(self, positive: np.ndarray) -> tuple:
        # The mask law scores the zeros; omega is the parent's Phi^-1(F).
        none = np.zeros(self.dim)
        return mask_logprob_rows(self.mask, positive), none, none, 0.0


def _sigma_from_joint_positives(train: PositiveTerms) -> np.ndarray:
    positive = train.positive
    d = positive.shape[1]
    omega = np.where(positive, normal_scores(train.cdf), np.nan)
    sigma = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            joint = positive[:, i] & positive[:, j]
            count = int(joint.sum())
            if count < MIN_JOINT_POSITIVE:
                warnings.warn(
                    f"columns {i + 1} and {j + 1}: only {count} jointly positive "
                    "rows; correlation falls back to 0",
                    stacklevel=3,
                )
                continue
            x, y = omega[joint, i], omega[joint, j]
            if not (np.ptp(x) > 0 and np.ptp(y) > 0):
                warnings.warn(
                    f"columns {i + 1} and {j + 1}: degenerate joint positives; "
                    "correlation falls back to 0",
                    stacklevel=3,
                )
                continue
            sigma[i, j] = sigma[j, i] = float(np.corrcoef(x, y)[0, 1])
    return repair_correlation(sigma)


def _sigma_from_all_rows(data: np.ndarray) -> np.ndarray:
    n, d = data.shape
    omega = np.empty((n, d))
    for j in range(d):
        u = rankdata(data[:, j]) / (n + 1.0)
        omega[:, j] = std_normal_quantile(u)
    varies = np.ptp(omega, axis=0) > 0
    if not varies.all():
        warnings.warn("constant ranks in some column; correlation falls back to 0",
                      stacklevel=3)
    sigma = np.zeros((d, d))
    sigma[np.ix_(varies, varies)] = np.corrcoef(omega[:, varies], rowvar=False)
    np.fill_diagonal(sigma, 1.0)
    return repair_correlation(sigma)


def fit_zicar(
    data,
    mask_kind: str = "bernoulli",
    use_mle_sigma: bool = True,
    n_hidden: int | None = None,
    seed: int = 0,
    bandwidth_scale: float = 1.0,
) -> ZicarModel:
    """Fit marginals, mask, and copula correlation from nonnegative data."""
    train = fit_positive_terms(data, bandwidth_scale=bandwidth_scale)
    return fit_zicar_copula(train, mask_kind, use_mle_sigma, n_hidden, seed)


def fit_zicar_copula(
    train: PositiveTerms,
    mask_kind: str = "bernoulli",
    use_mle_sigma: bool = True,
    n_hidden: int | None = None,
    seed: int = 0,
) -> ZicarModel:
    """Copula stage of fit_zicar: mask law and correlation on fitted columns."""
    masks = train.positive  # the zeros the columns' q and the scorer read
    d = masks.shape[1]
    if mask_kind == "bernoulli":
        mask = fit_bernoulli(masks)
    elif mask_kind == "rbm":
        hidden = 2 * d if n_hidden is None else int(n_hidden)
        mask = fit_rbm(masks, hidden, seed=seed)
    else:
        raise ValueError("mask_kind must be 'bernoulli' or 'rbm'")

    if use_mle_sigma:
        sigma = _sigma_from_joint_positives(train)
    else:
        sigma = _sigma_from_all_rows(train.scaled)
    return ZicarModel(marginals=train.models, mask=mask, sigma=sigma)


def zicar_loglik_rows(model: ZicarModel, data) -> np.ndarray:
    """Log-likelihood of each row: mask + positive marginals + copula."""
    return terms_loglik_rows(model, model.terms(data))
