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
    MarginalModel,
    PositiveTerms,
    as_data_matrix,
    fit_positive_terms,
    normal_scores,
)
from .mask_model import (
    BernoulliMask,
    RbmMask,
    binarize,
    fit_bernoulli,
    fit_rbm,
    mask_logprob_rows,
)
from .rgd_copula import copula_loglik_rows
from .stat_core import repair_correlation, std_normal_quantile

MIN_JOINT_POSITIVE = 10


@dataclass(frozen=True)
class ZicarModel:
    """Fitted parent marginals, mask distribution, copula correlation."""

    marginals: tuple[MarginalModel, ...]
    mask: BernoulliMask | RbmMask
    sigma: np.ndarray

    def __post_init__(self) -> None:
        marginals = tuple(self.marginals)
        sigma = np.asarray(self.sigma, dtype=float)
        d = len(marginals)
        if sigma.shape != (d, d):
            raise ValueError("sigma dimension must match the marginals")
        mask_dim = self.mask.dim
        if mask_dim != d:
            raise ValueError("mask dimension must match the marginals")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def rescales(self) -> np.ndarray:
        """Each column's rescale divisor, as its marginal stores it."""
        return np.array([m.rescale_b for m in self.marginals])


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
            rho = float(np.corrcoef(omega[joint, i], omega[joint, j])[0, 1])
            if not np.isfinite(rho):
                warnings.warn(
                    f"columns {i + 1} and {j + 1}: degenerate joint positives; "
                    "correlation falls back to 0",
                    stacklevel=3,
                )
                rho = 0.0
            sigma[i, j] = sigma[j, i] = rho
    return repair_correlation(sigma)


def _sigma_from_all_rows(data: np.ndarray) -> np.ndarray:
    n, d = data.shape
    omega = np.empty((n, d))
    for j in range(d):
        u = rankdata(data[:, j]) / (n + 1.0)
        omega[:, j] = std_normal_quantile(u)
    sigma = np.corrcoef(omega, rowvar=False)
    bad = ~np.isfinite(sigma)
    if bad.any():
        warnings.warn("constant ranks in some column; correlation falls back to 0",
                      stacklevel=3)
        sigma[bad] = 0.0
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
    masks = binarize(train.data)
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
    arr = as_data_matrix(data, dim=model.dim)
    return zicar_loglik_terms(model, PositiveTerms(model.marginals, arr))


def zicar_loglik_terms(model: ZicarModel, terms: PositiveTerms) -> np.ndarray:
    """Copula stage of zicar_loglik_rows, on the model's columns evaluated at
    the rows to score."""
    terms.check_columns(model.marginals)
    positive = terms.positive
    total = mask_logprob_rows(model.mask, positive.astype(float))

    # log b is the change-of-variables term: the marginal was fit on x / b,
    # so its density in original units is g(x / b) / b.
    log_b = np.log(terms.rescales)
    for j in range(model.dim):
        pos = positive[:, j]
        total[pos] += terms.logpdf[pos, j] - log_b[j]

    omega = np.where(positive, normal_scores(terms.cdf), 0.0)
    return total + copula_loglik_rows(model.sigma, None, omega, positive)
