"""Tests for the binary mask distributions."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicopula import mask_model
from zicopula.errors import DataError
from zicopula.mask_model import (
    EXACT_FIT_MAX_DIM,
    BernoulliMask,
    RbmMask,
    compute_log_z,
    enumerate_states,
    fit_bernoulli,
    fit_rbm,
    mask_logprob_rows,
)
from zicopula.stat_core import LOG_PROB_FLOOR, sub_seed
from zicopula.synth_bench import make_ground_truth, sample_dataset

LOG_FLOOR = np.log(1e-15)


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
    model = fit_rbm(masks, n_hidden=3, seed=1)
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
    with pytest.raises(DataError, match="at most 12 columns, got 21; use --mask bernoulli"):
        fit_rbm(masks, n_hidden=2)


def test_fit_rbm_refuses_one_column_past_the_exact_fit():
    assert EXACT_FIT_MAX_DIM == 12
    rng = np.random.Generator(np.random.PCG64(2))
    masks = (rng.random((200, 13)) < 0.6).astype(float)
    with pytest.raises(DataError, match="got 13; use --mask bernoulli"):
        fit_rbm(masks, n_hidden=2)


def _rbm_bytes(model):
    return (model.weights.tobytes(), model.visible_bias.tobytes(),
            model.hidden_bias.tobytes(), np.float64(model.log_z).tobytes())


def test_fit_rbm_deterministic_in_seed():
    rng = np.random.Generator(np.random.PCG64(3))
    masks = (rng.random((200, 3)) < 0.4).astype(float)
    a = fit_rbm(masks, n_hidden=2, seed=42)
    b = fit_rbm(masks, n_hidden=2, seed=42)
    c = fit_rbm(masks, n_hidden=2, seed=43)
    assert _rbm_bytes(a) == _rbm_bytes(b)
    assert not np.array_equal(a.weights, c.weights)


def _pattern_freq(masks):
    n, d = masks.shape
    codes = (masks @ (1 << np.arange(d - 1, -1, -1))).astype(np.int64)
    return np.bincount(codes, minlength=1 << d) / n


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_exact_objective_gradient_matches_central_differences(d, n_hidden, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(5, 200))
    masks = (rng.random((n, d)) < 0.6).astype(float)
    # An all-positive column leaves every pattern with a zero there unseen.
    masks[:, int(rng.integers(d))] = 1.0
    freq = _pattern_freq(masks)
    assert (freq == 0).any()
    states = enumerate_states(d)
    params = rng.normal(0.0, 1.0, size=d * n_hidden + d + n_hidden)
    _, grad = mask_model._exact_objective(params, states, freq, n_hidden, 1.0 / n)
    step = 1e-6
    numeric = np.empty_like(params)
    for k in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[k] += step
        lo[k] -= step
        numeric[k] = (
            mask_model._exact_objective(hi, states, freq, n_hidden, 1.0 / n)[0]
            - mask_model._exact_objective(lo, states, freq, n_hidden, 1.0 / n)[0]
        ) / (2.0 * step)
    np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-7)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_exact_fit_row_permutation_invariant(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    # The widest mask the fit takes, and a narrow one.
    for n, d, n_hidden in ((300, 4, 3), (200, EXACT_FIT_MAX_DIM, 2)):
        masks = (rng.random((n, d)) < rng.uniform(0.2, 0.9, size=d)).astype(float)
        base = fit_rbm(masks, n_hidden=n_hidden, seed=5)
        shuffled = fit_rbm(masks[rng.permutation(n)], n_hidden=n_hidden, seed=5)
        assert _rbm_bytes(base) == _rbm_bytes(shuffled)


def test_exact_fit_stops_below_gradient_tolerance():
    rng = np.random.Generator(np.random.PCG64(8))
    rates = np.array([0.9, 0.7, 0.5, 0.3, 1.0])
    # The widest mask the fit takes, and a narrow one.
    for n, d, n_hidden in ((2_000, 5, 10), (200, EXACT_FIT_MAX_DIM, 2)):
        masks = (rng.random((n, d)) < np.resize(rates, d)).astype(float)
        model = fit_rbm(masks, n_hidden=n_hidden, seed=3)
        params = np.concatenate([model.weights.ravel(), model.visible_bias, model.hidden_bias])
        _, grad = mask_model._exact_objective(
            params, enumerate_states(d), _pattern_freq(masks), n_hidden, 1.0 / n
        )
        assert np.abs(grad).max() <= mask_model._EXACT_FIT_OPTIONS["gtol"]


def test_exact_fit_recovers_pattern_frequencies():
    # Six hidden units can represent any law on three bits; at 4,000 rows the
    # N(0, 1) weight prior moves no pattern probability by more than 0.01.
    rng = np.random.Generator(np.random.PCG64(5))
    probs = np.array([0.3, 0.05, 0.1, 0.2, 0.02, 0.08, 0.15, 0.1])
    states = enumerate_states(3)
    masks = states[rng.choice(8, size=4_000, p=probs)]
    model = fit_rbm(masks, n_hidden=6, seed=0)
    fitted = np.exp(mask_logprob_rows(model, states))
    assert np.abs(fitted - _pattern_freq(masks)).max() <= 0.01


@pytest.mark.parametrize(
    "kind, d",
    [("zibt", 5), ("zicar", 5), ("zicar", 10), ("zibt", 10)],
    ids=["zibt", "zicar", "zicar-10", "zibt-10"],
)
def test_exact_fit_beats_cd_on_held_out_masks(kind, d):
    # Desk seed 0 as the benchmark draws it (D = 5), and D = 10: 2,000
    # training rows, 1,000 held-out rows and 2D hidden units, against the
    # independent Bernoulli law. zibt zeros depend on each other, so the
    # RBM must beat it there (by 0.37 and 0.53 nats/row at D = 5 and 10).
    # On the zicar truths the fit sits 0.004 and 0.023 nats/row below it,
    # an overfit at gtol 1e-5, so no margin is asserted there.
    truth = make_ground_truth(kind, d, 0)
    train = sample_dataset(truth, 2_000, sub_seed(0, 1)) > 0
    held_out = sample_dataset(truth, 1_000, sub_seed(0, 2)) > 0
    exact_rows = mask_logprob_rows(fit_rbm(train, n_hidden=2 * d, seed=sub_seed(0, 4)), held_out)
    assert (exact_rows > LOG_PROB_FLOOR).all()
    if kind == "zibt":
        bernoulli_rows = mask_logprob_rows(fit_bernoulli(train), held_out)
        assert exact_rows.mean() > bernoulli_rows.mean()


def test_exact_fit_logs_its_outcome(caplog):
    rng = np.random.Generator(np.random.PCG64(1))
    masks = (rng.random((500, 4)) < 0.5).astype(float)
    with caplog.at_level(logging.DEBUG, logger="zicopula.mask_model"):
        fit_rbm(masks, n_hidden=4, seed=0)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert "iterations" in record.getMessage() and "objective" in record.getMessage()


def test_exact_fit_warns_at_iteration_cap(caplog, monkeypatch):
    monkeypatch.setitem(mask_model._EXACT_FIT_OPTIONS, "maxiter", 3)
    rng = np.random.Generator(np.random.PCG64(1))
    masks = (rng.random((500, 4)) < 0.5).astype(float)
    with caplog.at_level(logging.WARNING, logger="zicopula.mask_model"):
        fit_rbm(masks, n_hidden=4, seed=0)
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert "did not converge" in record.getMessage()


def test_cached_log_z_matches_recomputation():
    rng = np.random.Generator(np.random.PCG64(6))
    masks = (rng.random((150, 4)) < 0.5).astype(float)
    model = fit_rbm(masks, n_hidden=3, seed=2)
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
