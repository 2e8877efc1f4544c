"""Distributions over binary zero/positive masks.

Two mask families: independent Bernoulli zero rates, and a small
restricted Boltzmann machine whose normalizer is computed exactly by
enumerating the visible states.  Up to ``EXACT_FIT_MAX_DIM`` columns the
RBM is fit by its exact penalised likelihood over pattern counts; above
that, by one-step contrastive divergence.  Mask vectors use 1 for a
positive entry and 0 for a zero entry throughout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .errors import DataError
from .stat_core import LOG_PROB_FLOOR, logsumexp_columns

logger = logging.getLogger(__name__)

MAX_EXACT_DIM = 20
# Crossover of the two RBM fits at 2,000 rows and 2D hidden units (2-core x86
# host, one BLAS thread, best of 3): the exact fit takes 0.39-0.41 s at D = 8
# against 0.64-0.67 s for contrastive divergence, and 0.96-1.75 s at D = 10
# against 0.72-0.80 s, because its cost per step grows as 2^D.
EXACT_FIT_MAX_DIM = 8
# L-BFGS stops when no gradient entry exceeds gtol; ftol = 0 turns off the
# relative-decrease stop, which would otherwise end most fits short of it.
_EXACT_FIT_OPTIONS = {"maxiter": 15_000, "gtol": 1e-5, "ftol": 0.0}
CD_BATCH_SIZE = 64
CD_LEARNING_RATE = 0.05
_ENUM_CHUNK_BITS = 16


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


def _bit_places(dim: int) -> np.ndarray:
    """Each mask column's place value in its state's integer code. Column 0
    is the most significant bit, so the codes 0, 1, ... count through the
    states in enumerate_states order."""
    return 1 << np.arange(dim - 1, -1, -1, dtype=np.int64)


def enumerate_states(dim: int) -> np.ndarray:
    """All binary vectors of the given length, one per row, in counting order."""
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    if dim > MAX_EXACT_DIM:
        raise DataError("exact normalization out of scope")
    codes = np.arange(1 << dim, dtype=np.int64)
    return ((codes[:, None] & _bit_places(dim)) != 0).astype(float)


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
    # One chunk of 2^_ENUM_CHUNK_BITS states per state of the leading
    # columns, so that D = 20 never holds all 2^20 states at once.
    lead = max(d - _ENUM_CHUNK_BITS, 0)
    states = np.empty((1 << (d - lead), d))
    states[:, lead:] = enumerate_states(d - lead)
    pieces = []
    for head in enumerate_states(lead):
        states[:, :lead] = head
        pieces.append(logsumexp_columns(-free_energy(weights, visible_bias, hidden_bias, states)))
    return float(logsumexp_columns(np.array(pieces)))


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


def _unpack(params: np.ndarray, d: int, n_hidden: int) -> tuple:
    """Weights, visible bias and hidden bias from one flat parameter vector."""
    split = d * n_hidden
    return params[:split].reshape(d, n_hidden), params[split : split + d], params[split + d :]


def _exact_objective(params: np.ndarray, states: np.ndarray, freq: np.ndarray,
                     n_hidden: int, prior: float) -> tuple[float, np.ndarray]:
    """Penalised mean negative log-likelihood of pattern frequencies and its
    gradient, with log Z from one pass over every visible state."""
    weights, visible_bias, hidden_bias = _unpack(params, states.shape[1], n_hidden)
    activation = hidden_bias + states @ weights
    # softplus and expit from one exp; np.logaddexp costs several times more.
    tail = np.exp(-np.abs(activation))
    softplus = np.maximum(activation, 0.0) + np.log1p(tail)
    sigmoid = np.where(activation >= 0.0, 1.0, tail) / (1.0 + tail)
    neg_energy = states @ visible_bias + softplus @ np.ones(n_hidden)
    shift = neg_energy.max()
    mass = np.exp(neg_energy - shift)
    total = mass.sum()
    value = shift + np.log(total) - freq @ neg_energy + 0.5 * prior * (weights * weights).sum()
    # d(value)/d(-F(s)) = p(s) - freq(s); -F is linear in the visible bias
    # and its derivative in the hidden bias and the weights runs through expit.
    resid = mass / total - freq
    grad = np.concatenate([
        ((states.T * resid) @ sigmoid + prior * weights).ravel(),
        states.T @ resid,
        resid @ sigmoid,
    ])
    return float(value), grad


def _fit_rbm_exact(arr: np.ndarray, weights: np.ndarray) -> tuple:
    """Exact MAP fit on the mask rows' pattern frequencies, from ``weights``
    and zero biases."""
    n, d = arr.shape
    n_hidden = weights.shape[1]
    codes = (arr @ _bit_places(d)).astype(np.int64)
    freq = np.bincount(codes, minlength=1 << d) / n
    start = np.concatenate([weights.ravel(), np.zeros(d + n_hidden)])
    result = minimize(
        _exact_objective, start, args=(enumerate_states(d), freq, n_hidden, 1.0 / n),
        method="L-BFGS-B", jac=True, options=_EXACT_FIT_OPTIONS,
    )
    logger.debug("exact RBM fit: %d iterations, %s, objective %.9f",
                 result.nit, result.message, result.fun)
    if not result.success:
        logger.warning("exact RBM fit did not converge after %d iterations: %s",
                       result.nit, result.message)
    return _unpack(result.x, d, n_hidden)


def _fit_rbm_cd(arr: np.ndarray, weights: np.ndarray, epochs: int,
                rng: np.random.Generator) -> tuple:
    """One-step contrastive divergence from ``weights`` and zero biases,
    updating ``weights`` in place."""
    n = arr.shape[0]
    n_hidden = weights.shape[1]
    visible_bias = np.zeros(arr.shape[1])
    hidden_bias = np.zeros(n_hidden)
    bounds = [(start, min(start + CD_BATCH_SIZE, n)) for start in range(0, n, CD_BATCH_SIZE)]
    rate = CD_LEARNING_RATE
    # The updates are in place, so this view follows the weights.
    weights_t = weights.T
    for epoch in range(epochs):
        shuffled = arr[rng.permutation(n)]
        # One draw per epoch reads the same stream as one draw per batch.
        uniforms = rng.random((n, n_hidden))
        for start, stop in bounds:
            v0 = shuffled[start:stop]
            ph0 = expit(hidden_bias + v0 @ weights)
            h0 = (uniforms[start:stop] < ph0).astype(float)
            # Reconstruction uses probabilities, not samples; the sampled
            # reconstruction is too noisy to learn sharp pattern support.
            pv1 = expit(visible_bias + h0 @ weights_t)
            ph1 = expit(hidden_bias + pv1 @ weights)
            batch = stop - start
            weights += rate * (v0.T @ ph0 - pv1.T @ ph1) / batch
            visible_bias += rate * ((v0 - pv1).sum(axis=0) / batch)
            hidden_bias += rate * ((ph0 - ph1).sum(axis=0) / batch)
        if logger.isEnabledFor(logging.DEBUG):
            npl = -_pseudo_loglik(weights, visible_bias, hidden_bias, arr)
            logger.debug("epoch %d: negative pseudo-likelihood %.6f", epoch + 1, npl)
    return weights, visible_bias, hidden_bias


def fit_rbm(
    masks: np.ndarray,
    n_hidden: int,
    epochs: int = 200,
    seed: int = 0,
) -> RbmMask:
    """Fit an RBM to mask rows.

    Up to ``EXACT_FIT_MAX_DIM`` columns the fit is exact: the rows reduce to
    the frequencies of their 2^D patterns, and L-BFGS minimises the mean
    negative log-likelihood plus ||W||^2 / (2n), the MAP estimate under
    independent N(0, 1) priors on the weights with unpenalised biases.  The
    prior fixes the penalty at 1/n by that rule, not by tuning; without it
    the weights diverge whenever a pattern never occurs.  This fit depends on
    the rows only through pattern counts, so it does not depend on row order.
    Above ``EXACT_FIT_MAX_DIM`` columns, where 2^D enumeration per step costs
    more than sampling, the fit is one-step contrastive divergence over
    ``epochs`` passes of 64-row batches; ``epochs`` is used by that path only.
    Both start from the same seeded N(0, 0.01^2) weights and zero biases.
    """
    arr = _validate_binary(masks, "fit_rbm")
    d = arr.shape[1]
    if d > MAX_EXACT_DIM:
        raise DataError("exact normalization out of scope")
    if n_hidden < 1:
        raise ValueError("n_hidden must be positive")

    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.normal(0.0, 0.01, size=(d, n_hidden))
    if d <= EXACT_FIT_MAX_DIM:
        weights, visible_bias, hidden_bias = _fit_rbm_exact(arr, weights)
    else:
        weights, visible_bias, hidden_bias = _fit_rbm_cd(arr, weights, epochs, rng)
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
