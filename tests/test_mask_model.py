"""Tests for the binary mask distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import expit
from hypothesis import strategies as st

from zicopula.errors import DataError
from zicopula.mask_model import (
    CD_BATCH_SIZE,
    CD_LEARNING_RATE,
    BernoulliMask,
    RbmMask,
    binarize,
    compute_log_z,
    enumerate_states,
    fit_bernoulli,
    fit_rbm,
    mask_logprob_rows,
)

LOG_FLOOR = np.log(1e-15)


def test_binarize_mixed_matrix():
    out = binarize(np.array([[0.0, 2.5], [1.0, 0.0]]))
    assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_binarize_all_zero_row():
    out = binarize(np.zeros((1, 4)))
    assert np.array_equal(out, np.zeros((1, 4)))


def test_binarize_strictly_positive():
    out = binarize(np.full((3, 2), 0.7))
    assert np.array_equal(out, np.ones((3, 2)))


def test_fit_bernoulli_half_zero_column():
    model = fit_bernoulli(np.array([[0.0], [0.0], [1.0], [1.0]]))
    assert model.q[0] == pytest.approx(0.5)


def test_fit_bernoulli_all_ones_column():
    model = fit_bernoulli(np.ones((6, 3)))
    assert np.array_equal(model.q, np.zeros(3))


def test_fit_bernoulli_recovers_rate():
    rng = np.random.Generator(np.random.PCG64(4))
    masks = (rng.random((10_000, 1)) >= 0.25).astype(float)
    model = fit_bernoulli(masks)
    # binomial 3 sigma: 3 * sqrt(0.25 * 0.75 / 1e4) = 0.013
    assert abs(model.q[0] - 0.25) <= 0.015


def test_fit_bernoulli_empty_matrix_rejected():
    with pytest.raises(DataError):
        fit_bernoulli(np.empty((0, 2)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_fit_bernoulli_row_permutation_invariant(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    masks = (rng.random((40, 3)) < 0.6).astype(float)
    if (masks == 0).all(axis=0).any():
        masks[0] = 1.0
    base = fit_bernoulli(masks)
    shuffled = fit_bernoulli(masks[rng.permutation(40)])
    assert np.array_equal(base.q, shuffled.q)


def test_bernoulli_mask_rejects_certain_zero():
    with pytest.raises(ValueError):
        BernoulliMask(q=np.array([0.3, 1.0]))
    with pytest.raises(ValueError):
        BernoulliMask(q=np.array([-0.1]))


def test_mask_logprob_fair_bernoulli():
    model = BernoulliMask(q=np.array([0.5, 0.5]))
    for state in enumerate_states(2):
        assert mask_logprob_rows(model, state[None, :])[0] == pytest.approx(np.log(0.25))


def test_mask_logprob_impossible_pattern_floored():
    model = BernoulliMask(q=np.array([0.0, 0.5]))
    assert mask_logprob_rows(model, np.array([[0.0, 1.0]]))[0] == pytest.approx(LOG_FLOOR)


def test_bernoulli_normalization_and_marginals():
    model = BernoulliMask(q=np.array([0.2, 0.7, 0.45]))
    states = enumerate_states(3)
    probs = np.exp(mask_logprob_rows(model, states))
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    for i in range(3):
        zero_mass = probs[states[:, i] == 0].sum()
        assert zero_mass == pytest.approx(model.q[i], abs=1e-10)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_bernoulli_normalization_random_rates(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    model = BernoulliMask(q=rng.uniform(0.0, 0.95, size=4))
    probs = np.exp(mask_logprob_rows(model, enumerate_states(4)))
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_rbm_learns_independent_half_rates():
    rng = np.random.Generator(np.random.PCG64(2))
    masks = (rng.random((4000, 2)) < 0.5).astype(float)
    model = fit_rbm(masks, n_hidden=4, seed=0)
    probs = np.exp(mask_logprob_rows(model, enumerate_states(2)))
    assert np.abs(probs - 0.25).max() <= 0.05


def test_rbm_learns_xor_support():
    masks = np.array([[0.0, 1.0], [1.0, 0.0]] * 300)
    model = fit_rbm(masks, n_hidden=4, seed=0)
    probs = np.exp(mask_logprob_rows(model, enumerate_states(2)))
    assert probs[0b01] + probs[0b10] >= 0.9


def test_rbm_point_mass_recovery():
    masks = np.tile(np.array([[1.0, 0.0, 1.0]]), (500, 1))
    model = fit_rbm(masks, n_hidden=6, seed=7)
    probs = np.exp(mask_logprob_rows(model, enumerate_states(3)))
    assert probs[0b101] >= 0.95


def test_rbm_normalization_exact():
    rng = np.random.Generator(np.random.PCG64(9))
    model = RbmMask(
        weights=rng.normal(0.0, 0.8, size=(10, 7)),
        visible_bias=rng.normal(0.0, 0.5, size=10),
        hidden_bias=rng.normal(0.0, 0.5, size=7),
        log_z=0.0,
    )
    model = RbmMask(
        weights=model.weights,
        visible_bias=model.visible_bias,
        hidden_bias=model.hidden_bias,
        log_z=compute_log_z(model.weights, model.visible_bias, model.hidden_bias),
    )
    probs = np.exp(mask_logprob_rows(model, enumerate_states(10)))
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_rbm_marginal_consistency():
    masks = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 200)
    model = fit_rbm(masks, n_hidden=3, epochs=50, seed=1)
    states = enumerate_states(2)
    probs = np.exp(mask_logprob_rows(model, states))
    for i in range(2):
        zero_mass = probs[states[:, i] == 0].sum()
        per_pattern = sum(
            np.exp(mask_logprob_rows(model, s[None, :])[0])
            for s in states
            if s[i] == 0
        )
        assert zero_mass == pytest.approx(per_pattern, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_fit_rbm_dimension_cap():
    masks = np.ones((4, 21))
    with pytest.raises(DataError, match="exact normalization out of scope"):
        fit_rbm(masks, n_hidden=2, epochs=1)


def test_fit_rbm_deterministic_in_seed():
    rng = np.random.Generator(np.random.PCG64(3))
    masks = (rng.random((200, 3)) < 0.4).astype(float)
    a = fit_rbm(masks, n_hidden=2, epochs=10, seed=42)
    b = fit_rbm(masks, n_hidden=2, epochs=10, seed=42)
    c = fit_rbm(masks, n_hidden=2, epochs=10, seed=43)
    assert np.array_equal(a.weights, b.weights)
    assert a.log_z == b.log_z
    assert not np.array_equal(a.weights, c.weights)


def _reference_cd(masks, n_hidden, epochs, seed):
    """One-step contrastive divergence drawing the hidden uniforms one batch
    at a time, in stream order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, d = masks.shape
    weights = rng.normal(0.0, 0.01, size=(d, n_hidden))
    visible_bias = np.zeros(d)
    hidden_bias = np.zeros(n_hidden)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, CD_BATCH_SIZE):
            v0 = masks[order[start:start + CD_BATCH_SIZE]]
            ph0 = expit(hidden_bias[None, :] + v0 @ weights)
            h0 = (rng.random(ph0.shape) < ph0).astype(float)
            pv1 = expit(visible_bias[None, :] + h0 @ weights.T)
            ph1 = expit(hidden_bias[None, :] + pv1 @ weights)
            batch = v0.shape[0]
            weights += CD_LEARNING_RATE * (v0.T @ ph0 - pv1.T @ ph1) / batch
            visible_bias += CD_LEARNING_RATE * (v0 - pv1).mean(axis=0)
            hidden_bias += CD_LEARNING_RATE * (ph0 - ph1).mean(axis=0)
    return weights, visible_bias, hidden_bias


@pytest.mark.parametrize(
    "n, d, n_hidden",
    [(1999, 5, 8), (CD_BATCH_SIZE, 3, 2), (130, 4, 5)],
)
def test_fit_rbm_matches_per_batch_draws(n, d, n_hidden):
    # The hidden-unit uniforms may be drawn in any grouping that reads the
    # same PCG64 stream, but the fit must stay bit-identical to one draw per
    # batch, including a short last batch (1999 = 31 * 64 + 15).
    rng = np.random.Generator(np.random.PCG64(n))
    masks = (rng.random((n, d)) < 0.6).astype(float)
    model = fit_rbm(masks, n_hidden=n_hidden, epochs=4, seed=11)
    weights, visible_bias, hidden_bias = _reference_cd(masks, n_hidden, 4, seed=11)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.visible_bias, visible_bias)
    assert np.array_equal(model.hidden_bias, hidden_bias)
    assert model.log_z == compute_log_z(weights, visible_bias, hidden_bias)


def test_cached_log_z_matches_recomputation():
    rng = np.random.Generator(np.random.PCG64(6))
    masks = (rng.random((150, 4)) < 0.5).astype(float)
    model = fit_rbm(masks, n_hidden=3, epochs=20, seed=2)
    recomputed = compute_log_z(model.weights, model.visible_bias, model.hidden_bias)
    assert model.log_z == pytest.approx(recomputed, abs=1e-12)


def test_mask_logprob_rows_matches_single_pattern():
    model = BernoulliMask(q=np.array([0.3, 0.6, 0.1]))
    states = enumerate_states(3)
    batch = mask_logprob_rows(model, states)
    for row, logp in zip(states, batch):
        assert mask_logprob_rows(model, row[None, :])[0] == pytest.approx(logp, abs=1e-14)


def test_mask_logprob_dimension_mismatch():
    model = BernoulliMask(q=np.array([0.3, 0.6]))
    with pytest.raises(ValueError):
        mask_logprob_rows(model, np.array([[0.0, 1.0, 1.0]]))


def test_mask_logprob_rows_rejects_nonbinary():
    model = BernoulliMask(q=np.array([0.3, 0.6]))
    with pytest.raises(ValueError):
        mask_logprob_rows(model, np.array([[0.5, 1.0]]))
