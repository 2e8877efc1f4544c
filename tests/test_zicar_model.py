"""Tests for the masked Gaussian-copula density model."""

import dataclasses
import warnings

import numpy as np
import pytest

from zicopula.errors import DataError
from zicopula.marginals import PositiveTerms, positive_logpdf
from zicopula.mask_model import enumerate_states, fit_rbm, mask_logprob_rows
from zicopula.zicar_model import fit_zicar, zicar_loglik_rows


def _correlated_sample(n, rho, zero_rate, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    chol = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    z = rng.standard_normal((n, 2)) @ chol.T
    x = np.exp(0.4 * z + 0.1)
    x[rng.random((n, 2)) < zero_rate] = 0.0
    return x


def test_independent_columns_yield_small_offdiagonals():
    rng = np.random.Generator(np.random.PCG64(1))
    x = np.exp(0.5 * rng.standard_normal((10_000, 3)))
    x[rng.random((10_000, 3)) < 0.3] = 0.0
    model = fit_zicar(x)
    assert np.abs(model.sigma - np.eye(3)).max() <= 0.05


def test_sigma_recovery_on_copula_parent():
    x = _correlated_sample(10_000, rho=0.6, zero_rate=0.25, seed=2)
    model = fit_zicar(x)
    assert model.sigma[0, 1] == pytest.approx(0.6, abs=0.1)


def test_joint_positive_mle_beats_rank_ablation():
    x = _correlated_sample(10_000, rho=0.6, zero_rate=0.25, seed=3)
    full = fit_zicar(x, use_mle_sigma=True)
    ablated = fit_zicar(x, use_mle_sigma=False)
    assert abs(full.sigma[0, 1] - 0.6) < abs(ablated.sigma[0, 1] - 0.6)


def test_rbm_mask_fits_correlated_zeros_better():
    rng = np.random.Generator(np.random.PCG64(3))
    n = 3000
    patterns = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    idx = rng.choice(4, size=n, p=[0.4, 0.1, 0.1, 0.4])
    x = rng.gamma(2.0, 1.0, size=(n, 2)) * patterns[idx]
    empirical = np.bincount(idx, minlength=4) / n

    states = enumerate_states(2)
    bern = fit_zicar(x, mask_kind="bernoulli")
    rbm = fit_zicar(x, mask_kind="rbm", seed=0)
    bern_err = np.abs(np.exp(mask_logprob_rows(bern.mask, states)) - empirical).max()
    rbm_err = np.abs(np.exp(mask_logprob_rows(rbm.mask, states)) - empirical).max()
    assert rbm_err < bern_err


def test_univariate_loglik_branches():
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.gamma(2.0, 1.0, size=(500, 1))
    x[rng.random(500) < 0.4, 0] = 0.0
    model = fit_zicar(x)
    q = model.marginals[0].q
    assert zicar_loglik_rows(model, np.array([[0.0]]))[0] == pytest.approx(np.log(q))
    b = model.rescales[0]
    value = 1.7
    expected = (
        np.log1p(-q)
        + positive_logpdf(model.marginals[0], np.array([value / b]))[0]
        - np.log(b)
    )
    assert zicar_loglik_rows(model, np.array([[value]]))[0] == pytest.approx(expected)


def test_identity_sigma_is_pure_additivity():
    x = _correlated_sample(800, rho=0.5, zero_rate=0.3, seed=5)
    model = fit_zicar(x)
    indep = dataclasses.replace(model, sigma=np.eye(2))
    rows = x[:40]
    got = zicar_loglik_rows(indep, rows)

    positive = rows > 0
    expected = mask_logprob_rows(model.mask, positive.astype(float))
    for j, m in enumerate(model.marginals):
        pos = positive[:, j]
        scaled = rows[pos, j] / model.rescales[j]
        expected[pos] += positive_logpdf(m, scaled) - np.log(model.rescales[j])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_mask_term_recovered_exactly_under_identity_sigma():
    x = _correlated_sample(600, rho=0.4, zero_rate=0.35, seed=6)
    model = dataclasses.replace(fit_zicar(x), sigma=np.eye(2))
    row = None
    for candidate in x:
        if (candidate > 0).all():
            row = candidate
            break
    marginal_sum = 0.0
    for j, m in enumerate(model.marginals):
        marginal_sum += positive_logpdf(m, np.array([row[j] / model.rescales[j]]))[0]
        marginal_sum -= np.log(model.rescales[j])
    got = zicar_loglik_rows(model, row[None, :])[0] - marginal_sum
    all_positive = np.ones((1, 2))
    assert got == pytest.approx(mask_logprob_rows(model.mask, all_positive)[0], abs=1e-12)


def _gl_nodes(hi, n):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * hi * (t + 1.0), 0.5 * hi * w


def test_total_mass_bivariate():
    x = _correlated_sample(2000, rho=0.5, zero_rate=0.3, seed=7)
    model = fit_zicar(x)
    hi = [x[:, j].max() * 2.0 + 6.0 for j in range(2)]

    p00 = np.exp(zicar_loglik_rows(model, np.array([[0.0, 0.0]]))[0])
    u1, w1 = _gl_nodes(hi[1], 160)
    line0 = np.sum(
        w1 * np.exp(zicar_loglik_rows(model, np.column_stack([np.zeros_like(u1), u1])))
    )
    u0, w0 = _gl_nodes(hi[0], 160)
    line1 = np.sum(
        w0 * np.exp(zicar_loglik_rows(model, np.column_stack([u0, np.zeros_like(u0)])))
    )
    g0, g1 = np.meshgrid(u0, u1, indexing="ij")
    vals = np.exp(
        zicar_loglik_rows(model, np.column_stack([g0.ravel(), g1.ravel()]))
    ).reshape(g0.shape)
    quadrant = float((np.outer(w0, w1) * vals).sum())

    states = enumerate_states(2)
    mask_probs = np.exp(mask_logprob_rows(model.mask, states))
    assert quadrant == pytest.approx(mask_probs[0b11], abs=1e-3)
    total = p00 + line0 + line1 + quadrant
    assert total == pytest.approx(1.0, abs=1e-3)


def test_scoring_is_deterministic():
    x = _correlated_sample(900, rho=0.2, zero_rate=0.2, seed=8)
    model = fit_zicar(x)
    first = zicar_loglik_rows(model, x[:100])
    second = zicar_loglik_rows(model, x[:100])
    assert np.array_equal(first, second)


def test_rescale_centers_mean_log_density():
    x = _correlated_sample(3000, rho=0.3, zero_rate=0.25, seed=9)
    model = fit_zicar(x)
    for j, m in enumerate(model.marginals):
        col = x[:, j] / model.rescales[j]
        mean_log = positive_logpdf(m, col[col > 0]).mean()
        assert abs(mean_log) <= 0.05


def test_fit_rejects_small_samples():
    x = np.abs(np.random.default_rng(0).normal(size=(49, 2))) + 0.1
    with pytest.raises(DataError, match="at least 50 rows"):
        fit_zicar(x)


def test_fit_rejects_negative_values():
    x = np.ones((60, 2))
    x[0, 0] = -0.5
    with pytest.raises(DataError, match="negative"):
        fit_zicar(x)


def test_degenerate_column_is_named():
    rng = np.random.Generator(np.random.PCG64(10))
    x = rng.gamma(2.0, 1.0, size=(100, 2))
    x[:, 1] = 0.0
    with pytest.raises(DataError, match="column 2"):
        fit_zicar(x)


def test_sparse_joint_positives_fall_back_to_zero():
    rng = np.random.Generator(np.random.PCG64(11))
    x = np.zeros((60, 2))
    x[:30, 0] = rng.gamma(2.0, 1.0, size=30)
    x[30:, 1] = rng.gamma(2.0, 1.0, size=30)
    with pytest.warns(UserWarning, match="jointly positive"):
        model = fit_zicar(x)
    assert model.sigma[0, 1] == 0.0


def _fit_recording_warnings(x, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_zicar(x, **kwargs)
    return model, [(w.category, str(w.message)) for w in caught]


def test_indicator_column_falls_back_without_numpy_warnings():
    # A 0/1 column: its positives are all 1, so its omega is constant on the
    # jointly positive rows.
    rng = np.random.Generator(np.random.PCG64(14))
    x = np.column_stack([rng.gamma(2.0, 1.0, 400), (rng.random(400) < 0.6).astype(float)])
    model, caught = _fit_recording_warnings(x, mask_kind="bernoulli")
    assert [c for c, _ in caught] == [UserWarning]
    assert "degenerate joint positives" in caught[0][1]
    assert model.sigma[0, 1] == 0.0


@pytest.mark.parametrize("use_mle_sigma, message", [
    (True, "degenerate joint positives"),
    (False, "constant ranks in some column"),
])
def test_constant_column_falls_back_without_numpy_warnings(use_mle_sigma, message):
    rng = np.random.Generator(np.random.PCG64(15))
    x = np.column_stack([rng.gamma(2.0, 1.0, 200), np.full(200, 5.0), rng.gamma(2.0, 1.0, 200)])
    model, caught = _fit_recording_warnings(x, use_mle_sigma=use_mle_sigma)
    assert [c for c, _ in caught] == [UserWarning] * (2 if use_mle_sigma else 1)
    assert all(message in m for _, m in caught)
    assert model.sigma[0, 1] == model.sigma[1, 2] == 0.0
    assert model.sigma[0, 2] != 0.0


def test_scoring_validates_input():
    x = _correlated_sample(400, rho=0.1, zero_rate=0.2, seed=12)
    model = fit_zicar(x)
    with pytest.raises(DataError, match="negative"):
        zicar_loglik_rows(model, np.array([[-1.0, 2.0]]))
    with pytest.raises(DataError, match="columns"):
        zicar_loglik_rows(model, np.ones((5, 3)))


def test_single_row_matches_batch():
    x = _correlated_sample(500, rho=0.4, zero_rate=0.3, seed=13)
    model = fit_zicar(x)
    batch = zicar_loglik_rows(model, x[:20])
    singles = np.array([zicar_loglik_rows(model, row[None, :])[0] for row in x[:20]])
    # Batched linear algebra may reorder float ops relative to row-at-a-time.
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


def test_model_validation_rejects_shape_mismatch():
    x = _correlated_sample(400, rho=0.1, zero_rate=0.2, seed=14)
    model = fit_zicar(x)
    with pytest.raises(ValueError):
        dataclasses.replace(model, sigma=np.eye(3))


def test_mask_fit_reads_the_zeros_the_columns_read():
    # Entry [0, 0] is positive but underflows to 0 once divided by its
    # column's rescale divisor (about 1.7e6): the column's zero rate and the
    # scorer read it as a zero, so the mask must be fit on it as one too.
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.lognormal(13.0, 1.0, size=(400, 2))
    x[rng.random(x.shape) < 0.2] = 0.0
    x[0, 0] = 1e-320
    model = fit_zicar(x, "bernoulli")
    positive = PositiveTerms(model.marginals, x).positive
    assert not positive[0, 0]
    np.testing.assert_allclose(model.mask.q, [m.q for m in model.marginals], rtol=0, atol=1e-12)
    for seed in (0, 7):
        got = fit_zicar(x, "rbm", seed=seed).mask
        want = fit_rbm(positive, 2 * x.shape[1], seed=seed)
        for name in ("weights", "visible_bias", "hidden_bias"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.log_z == want.log_z
