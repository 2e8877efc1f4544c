"""Distributions over binary zero/positive masks.

Two mask families: independent Bernoulli zero rates, and a small
restricted Boltzmann machine whose normalizer is computed exactly by
enumerating the visible states.  The RBM is fit by its exact penalised
likelihood over pattern counts, on masks of up to ``EXACT_FIT_MAX_DIM``
columns.  Mask vectors use 1 for a positive entry and 0 for a zero entry
throughout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DataError
from .stat_core import LOG_PROB_FLOOR, blocks, logsumexp_columns

logger = logging.getLogger(__name__)

MAX_EXACT_DIM = 20
# Widest mask fit_rbm takes: the credit-card shape's 12 columns. The fit's
# cost per L-BFGS step grows as 2^D. At 21,000 training rows (2D hidden
# units, one BLAS thread, 2-core x86 host) it took 6-12 s on the credit law
# and 12-16 s on zibt and zicar truths at D = 12, against 29-87 s at D = 13
# and 69-175 s at D = 14.
EXACT_FIT_MAX_DIM = 12
# L-BFGS stops when no gradient entry exceeds gtol; ftol = 0 turns off the
# relative-decrease stop, which would otherwise end most fits short of it.
_EXACT_FIT_OPTIONS = {"maxiter": 15_000, "gtol": 1e-5, "ftol": 0.0}


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
    def n_hidden(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def _bit_places(dim: int) -> np.ndarray:
    """Each mask column's place value in its state's integer code. Column 0
    is the most significant bit, so the codes 0, 1, ... count through the
    states in enumerate_states order."""
    return 1 << np.arange(dim - 1, -1, -1, dtype=np.int64)


def states_of(codes, dim: int) -> np.ndarray:
    """The binary vectors of length dim with the given integer codes, one per row."""
    return ((np.asarray(codes)[:, None] & _bit_places(dim)) != 0).astype(float)


def enumerate_states(dim: int) -> np.ndarray:
    """All binary vectors of the given length, one per row, in counting order."""
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    if dim > MAX_EXACT_DIM:
        raise DataError("exact normalization out of scope")
    return states_of(np.arange(1 << dim), dim)


def map_states(fn, dim: int, n_hidden: int) -> np.ndarray:
    """fn of every state of enumerate_states(dim), in counting order. fn sees
    the states in stat_core.blocks(2**dim, n_hidden), so that a block's
    hidden-unit activations stay within one CHUNK_BUDGET at any dim."""
    if dim > MAX_EXACT_DIM:
        raise DataError("exact normalization out of scope")
    spans = blocks(1 << dim, n_hidden)
    return np.concatenate([fn(states_of(np.arange(lo, hi), dim)) for lo, hi in spans])


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
    energies = map_states(lambda v: free_energy(weights, visible_bias, hidden_bias, v),
                          *weights.shape)
    return float(logsumexp_columns(-energies))


def fit_bernoulli(masks: np.ndarray) -> BernoulliMask:
    """Per-column zero fractions of a binary mask matrix."""
    arr = _validate_binary(masks, "fit_bernoulli")
    return BernoulliMask(q=1.0 - arr.mean(axis=0))


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


def fit_rbm(
    masks: np.ndarray,
    n_hidden: int,
    seed: int = 0,
) -> RbmMask:
    """Fit an RBM to mask rows.

    The fit is exact: the rows reduce to the frequencies of their 2^D
    patterns, and L-BFGS minimises the mean negative log-likelihood plus
    ||W||^2 / (2n), the MAP estimate under independent N(0, 1) priors on the
    weights with unpenalised biases.  The prior fixes the penalty at 1/n by
    that rule, not by tuning; without it the weights diverge whenever a
    pattern never occurs.  This fit depends on the rows only through pattern
    counts, so it does not depend on row order.  It starts from seeded
    N(0, 0.01^2) weights and zero biases.  Masks of more than
    ``EXACT_FIT_MAX_DIM`` columns raise DataError.
    """
    arr = _validate_binary(masks, "fit_rbm")
    n, d = arr.shape
    if d > EXACT_FIT_MAX_DIM:
        raise DataError(f"the RBM mask fit takes at most {EXACT_FIT_MAX_DIM} columns, "
                        f"got {d}; use --mask bernoulli")
    if n_hidden < 1:
        raise ValueError("n_hidden must be positive")

    codes = (arr @ _bit_places(d)).astype(np.int64)
    freq = np.bincount(codes, minlength=1 << d) / n
    rng = np.random.Generator(np.random.PCG64(seed))
    start = np.concatenate([rng.normal(0.0, 0.01, size=d * n_hidden), np.zeros(d + n_hidden)])
    result = minimize(
        _exact_objective, start, args=(enumerate_states(d), freq, n_hidden, 1.0 / n),
        method="L-BFGS-B", jac=True, options=_EXACT_FIT_OPTIONS,
    )
    logger.debug("exact RBM fit: %d iterations, %s, objective %.9f",
                 result.nit, result.message, result.fun)
    if not result.success:
        logger.warning("exact RBM fit did not converge after %d iterations: %s",
                       result.nit, result.message)
    weights, visible_bias, hidden_bias = _unpack(result.x, d, n_hidden)
    log_z = compute_log_z(weights, visible_bias, hidden_bias)
    return RbmMask(weights=weights, visible_bias=visible_bias,
                   hidden_bias=hidden_bias, log_z=log_z)


def mask_logprob_rows(model: BernoulliMask | RbmMask, masks: np.ndarray) -> np.ndarray:
    """Floored log mask probabilities for each binary row."""
    arr = _validate_binary(masks, "mask_logprob_rows")
    if not isinstance(model, (BernoulliMask, RbmMask)):
        raise TypeError("model must be a BernoulliMask or RbmMask")
    if arr.shape[1] != model.dim:
        raise ValueError("mask width does not match the model dimension")
    if isinstance(model, BernoulliMask):
        with np.errstate(divide="ignore"):
            log_zero = np.log(model.q)
        log_pos = np.log1p(-model.q)
        terms = np.where(arr > 0, log_pos[None, :], log_zero[None, :])
        logp = terms.sum(axis=1)
    else:
        logp = -free_energy(model.weights, model.visible_bias,
                            model.hidden_bias, arr) - model.log_z
    return np.maximum(logp, LOG_PROB_FLOOR)
