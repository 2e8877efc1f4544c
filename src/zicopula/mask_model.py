"""Distributions over binary zero/positive masks.

Two mask families: independent Bernoulli zero rates, and a small
restricted Boltzmann machine trained with one-step contrastive
divergence whose normalizer is computed exactly by enumerating the
visible states.  Mask vectors use 1 for a positive entry and 0 for a
zero entry throughout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .errors import DataError
from .stat_core import LOG_PROB_FLOOR

logger = logging.getLogger(__name__)

MAX_EXACT_DIM = 20
CD_BATCH_SIZE = 64
CD_LEARNING_RATE = 0.05
_ENUM_CHUNK = 1 << 16


def binarize(data: np.ndarray) -> np.ndarray:
    """Map a nonnegative data matrix to its positivity indicator."""
    arr = np.asarray(data, dtype=float)
    return (arr > 0).astype(float)


def _validate_binary(masks: np.ndarray, context: str) -> np.ndarray:
    arr = np.asarray(masks, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{context} expects a 2-d mask matrix")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DataError(f"{context} requires a nonempty mask matrix")
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ValueError(f"{context} expects binary entries")
    return arr


@dataclass(frozen=True)
class BernoulliMask:
    """Independent per-variable zero rates."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if q.ndim != 1:
            raise ValueError("q must be a vector")
        if not np.isfinite(q).all():
            raise ValueError("q must be finite")
        # q = 1 would make every observed positive impossible.
        if (q < 0).any() or (q >= 1).any():
            raise ValueError("each zero rate must lie in [0, 1)")
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class RbmMask:
    """Binary RBM over mask vectors with an exactly computed normalizer."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray
    log_z: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        vb = np.asarray(self.visible_bias, dtype=float)
        hb = np.asarray(self.hidden_bias, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must be a matrix")
        if vb.shape != (w.shape[0],) or hb.shape != (w.shape[1],):
            raise ValueError("bias shapes must match the weight matrix")
        if not (np.isfinite(w).all() and np.isfinite(vb).all() and np.isfinite(hb).all()):
            raise ValueError("RBM parameters must be finite")
        if not np.isfinite(self.log_z):
            raise ValueError("log_z must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "visible_bias", vb)
        object.__setattr__(self, "hidden_bias", hb)
        object.__setattr__(self, "log_z", float(self.log_z))

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.n_visible


def enumerate_states(dim: int) -> np.ndarray:
    """All binary vectors of the given length, one per row, in counting order."""
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    if dim > MAX_EXACT_DIM:
        raise DataError("exact normalization out of scope")
    codes = np.arange(1 << dim, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    return bits.astype(float)


def free_energy(
    weights: np.ndarray,
    visible_bias: np.ndarray,
    hidden_bias: np.ndarray,
    visible: np.ndarray,
) -> np.ndarray:
    """RBM free energy of visible rows, hidden units summed analytically."""
    v = np.atleast_2d(np.asarray(visible, dtype=float))
    activation = hidden_bias[None, :] + v @ weights
    softplus = np.logaddexp(0.0, activation)
    return -(v @ visible_bias) - softplus.sum(axis=1)


def compute_log_z(
    weights: np.ndarray,
    visible_bias: np.ndarray,
    hidden_bias: np.ndarray,
) -> float:
    """Exact log partition function by visible-state enumeration."""
    d = weights.shape[0]
    if d > MAX_EXACT_DIM:
        raise DataError("exact normalization out of scope")
    total = 1 << d
    pieces = []
    for start in range(0, total, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        states = ((codes[:, None] >> np.arange(d - 1, -1, -1)) & 1).astype(float)
        pieces.append(logsumexp(-free_energy(weights, visible_bias, hidden_bias, states)))
    return float(logsumexp(pieces))


def fit_bernoulli(masks: np.ndarray) -> BernoulliMask:
    """Per-column zero fractions of a binary mask matrix."""
    arr = _validate_binary(masks, "fit_bernoulli")
    return BernoulliMask(q=1.0 - arr.mean(axis=0))


def _pseudo_loglik(
    weights: np.ndarray,
    visible_bias: np.ndarray,
    hidden_bias: np.ndarray,
    visible: np.ndarray,
) -> float:
    """Mean log pseudo-likelihood over all rows and single-bit flips."""
    v = visible
    base_activation = hidden_bias[None, :] + v @ weights
    base_softplus = np.logaddexp(0.0, base_activation)
    total = 0.0
    for i in range(v.shape[1]):
        sign = 1.0 - 2.0 * v[:, i]
        flipped = np.logaddexp(0.0, base_activation + sign[:, None] * weights[i][None, :])
        delta_f = -sign * visible_bias[i] - (flipped - base_softplus).sum(axis=1)
        total += float(np.log(expit(delta_f)).mean())
    return total / v.shape[1]


def fit_rbm(
    masks: np.ndarray,
    n_hidden: int,
    epochs: int = 200,
    seed: int = 0,
) -> RbmMask:
    """Train an RBM on mask rows with one-step contrastive divergence."""
    arr = _validate_binary(masks, "fit_rbm")
    n, d = arr.shape
    if d > MAX_EXACT_DIM:
        raise DataError("exact normalization out of scope")
    if n_hidden < 1:
        raise ValueError("n_hidden must be positive")

    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.normal(0.0, 0.01, size=(d, n_hidden))
    visible_bias = np.zeros(d)
    hidden_bias = np.zeros(n_hidden)

    for epoch in range(epochs):
        shuffled = arr[rng.permutation(n)]
        # One draw per epoch reads the same stream as one draw per batch.
        uniforms = rng.random((n, n_hidden))
        for start in range(0, n, CD_BATCH_SIZE):
            v0 = shuffled[start:start + CD_BATCH_SIZE]
            ph0 = expit(hidden_bias[None, :] + v0 @ weights)
            h0 = (uniforms[start:start + CD_BATCH_SIZE] < ph0).astype(float)
            # Reconstruction uses probabilities, not samples; the sampled
            # reconstruction is too noisy to learn sharp pattern support.
            pv1 = expit(visible_bias[None, :] + h0 @ weights.T)
            ph1 = expit(hidden_bias[None, :] + pv1 @ weights)
            batch = v0.shape[0]
            weights += CD_LEARNING_RATE * (v0.T @ ph0 - pv1.T @ ph1) / batch
            visible_bias += CD_LEARNING_RATE * ((v0 - pv1).sum(axis=0) / batch)
            hidden_bias += CD_LEARNING_RATE * ((ph0 - ph1).sum(axis=0) / batch)
        if logger.isEnabledFor(logging.DEBUG):
            npl = -_pseudo_loglik(weights, visible_bias, hidden_bias, arr)
            logger.debug("epoch %d: negative pseudo-likelihood %.6f", epoch + 1, npl)

    log_z = compute_log_z(weights, visible_bias, hidden_bias)
    return RbmMask(weights=weights, visible_bias=visible_bias,
                   hidden_bias=hidden_bias, log_z=log_z)


def mask_logprob_rows(model: BernoulliMask | RbmMask, masks: np.ndarray) -> np.ndarray:
    """Floored log mask probabilities for each binary row."""
    arr = _validate_binary(masks, "mask_logprob_rows")
    if isinstance(model, BernoulliMask):
        if arr.shape[1] != model.dim:
            raise ValueError("mask width does not match the model dimension")
        with np.errstate(divide="ignore"):
            log_zero = np.log(model.q)
        log_pos = np.log1p(-model.q)
        terms = np.where(arr > 0, log_pos[None, :], log_zero[None, :])
        logp = terms.sum(axis=1)
    elif isinstance(model, RbmMask):
        if arr.shape[1] != model.n_visible:
            raise ValueError("mask width does not match the model dimension")
        logp = -free_energy(model.weights, model.visible_bias,
                            model.hidden_bias, arr) - model.log_z
    else:
        raise TypeError("model must be a BernoulliMask or RbmMask")
    return np.maximum(logp, LOG_PROB_FLOOR)
