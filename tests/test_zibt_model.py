"""Tests for the rectified-copula density model."""

import dataclasses
import time

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from zicopula.errors import DataError
from zicopula.marginals import omega_transform, positive_logpdf
from zicopula.rgd_copula import RgdParams, ZeroPattern
from zicopula.zibt_model import (
    ZibtModel,
    fit_zibt,
    zero_pattern_prob,
    zibt_loglik_rows,
)


def rectified_sample(n, sigma, q, seed, scale=1.5):
    """Draw from the rectified-copula law with exponential positive parts."""
    rng = np.random.Generator(np.random.PCG64(seed))
    chol = np.linalg.cholesky(sigma)
    nu = rng.standard_normal((n, len(q))) @ chol.T
    thresholds = ndtri(q)
    x = np.zeros_like(nu)
    for j, rate in enumerate(q):
        pos = nu[:, j] > thresholds[j]
        u = (ndtr(nu[pos, j]) - rate) / (1.0 - rate)
        x[pos, j] = -scale * np.log1p(-np.clip(u, 0.0, 1.0 - 1e-12))
    return x


TWO_COL_SIGMA = np.array([[1.0, 0.55], [0.55, 1.0]])


def test_sigma_recovery_from_rectified_data():
    x = rectified_sample(10_000, TWO_COL_SIGMA, np.array([0.3, 0.2]), seed=1)
    model = fit_zibt(x)
    assert model.copula.sigma[0, 1] == pytest.approx(0.55, abs=0.1)


def test_pairwise_mle_beats_plain_correlation():
    x = rectified_sample(10_000, TWO_COL_SIGMA, np.array([0.3, 0.2]), seed=1)
    full = fit_zibt(x, use_mle_sigma=True)
    ablated = fit_zibt(x, use_mle_sigma=False)
    full_err = abs(full.copula.sigma[0, 1] - 0.55)
    ablated_err = abs(ablated.copula.sigma[0, 1] - 0.55)
    assert full_err < ablated_err


def test_no_zeros_reduces_to_gaussian_copula():
    x = rectified_sample(5000, TWO_COL_SIGMA, np.array([0.0, 0.0]), seed=2)
    model = fit_zibt(x)
    omega = np.column_stack(
        [
            omega_transform(m, x[:, j] / model.rescales[j])
            for j, m in enumerate(model.marginals)
        ]
    )
    empirical = np.corrcoef(omega.T)[0, 1]
    assert model.copula.sigma[0, 1] == pytest.approx(empirical, abs=1e-3)
    assert np.isneginf(model.copula.a).all()


def _marginal_only_loglik(model, rows):
    positive = rows > 0
    out = np.zeros(rows.shape[0])
    for j, m in enumerate(model.marginals):
        pos = positive[:, j]
        out[~pos] += np.log(m.q)
        scaled = rows[pos, j] / model.rescales[j]
        out[pos] += (
            np.log1p(-m.q) + positive_logpdf(m, scaled) - np.log(model.rescales[j])
        )
    return out


@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_identity_sigma_scores_are_marginal_sums(mode):
    x = rectified_sample(1500, TWO_COL_SIGMA, np.array([0.3, 0.2]), seed=3)
    model = fit_zibt(x, likelihood_mode=mode)
    indep = dataclasses.replace(
        model, copula=RgdParams(sigma=np.eye(2), a=model.copula.a)
    )
    rows = x[:80]
    got = zibt_loglik_rows(indep, rows)
    np.testing.assert_allclose(got, _marginal_only_loglik(model, rows), atol=1e-10)


def _gl_nodes(hi, n):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * hi * (t + 1.0), 0.5 * hi * w


def test_exact_mode_total_probability_bivariate():
    x = rectified_sample(2000, TWO_COL_SIGMA, np.array([0.3, 0.2]), seed=4)
    model = fit_zibt(x, likelihood_mode="exact")
    hi = [x[:, j].max() * 2.0 + 8.0 for j in range(2)]

    p00 = np.exp(zibt_loglik_rows(model, np.zeros((1, 2)))[0])
    u1, w1 = _gl_nodes(hi[1], 140)
    u0, w0 = _gl_nodes(hi[0], 140)
    line0 = np.sum(
        w1 * np.exp(zibt_loglik_rows(model, np.column_stack([np.zeros_like(u1), u1])))
    )
    line1 = np.sum(
        w0 * np.exp(zibt_loglik_rows(model, np.column_stack([u0, np.zeros_like(u0)])))
    )
    g0, g1 = np.meshgrid(u0, u1, indexing="ij")
    vals = np.exp(
        zibt_loglik_rows(model, np.column_stack([g0.ravel(), g1.ravel()]))
    ).reshape(g0.shape)
    quadrant = float((np.outer(w0, w1) * vals).sum())
    assert p00 + line0 + line1 + quadrant == pytest.approx(1.0, abs=2e-3)


def test_all_zero_row_branches():
    x = rectified_sample(3000, TWO_COL_SIGMA, np.array([0.3, 0.2]), seed=5)
    approx = fit_zibt(x, likelihood_mode="approx")
    exact = dataclasses.replace(approx, likelihood_mode="exact")
    row = np.zeros(2)
    q0, q1 = approx.marginals[0].q, approx.marginals[1].q
    assert zibt_loglik_rows(approx, row[None, :])[0] == pytest.approx(np.log(q0) + np.log(q1))
    pattern = ZeroPattern(zero_set=(0, 1), positive_set=())
    assert zibt_loglik_rows(exact, row[None, :])[0] == pytest.approx(
        np.log(zero_pattern_prob(exact, pattern)), abs=1e-10
    )


def test_block_independence_makes_approx_exact():
    sigma = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.6],
            [0.0, 0.6, 1.0],
        ]
    )
    x = rectified_sample(3000, sigma, np.array([0.4, 0.1, 0.1]), seed=6)
    model = fit_zibt(x)
    forced = dataclasses.replace(model, copula=RgdParams(sigma=sigma, a=model.copula.a))
    exact = dataclasses.replace(forced, likelihood_mode="exact")
    rows = x[(x[:, 0] == 0) & (x[:, 1] > 0) & (x[:, 2] > 0)][:25]
    np.testing.assert_allclose(
        zibt_loglik_rows(forced, rows), zibt_loglik_rows(exact, rows), atol=1e-10
    )


def test_zero_pattern_prob_independent_product():
    x = rectified_sample(4000, np.eye(2), np.array([0.35, 0.15]), seed=7)
    model = fit_zibt(x)
    indep = dataclasses.replace(model, copula=RgdParams(np.eye(2), model.copula.a))
    q0, q1 = indep.marginals[0].q, indep.marginals[1].q
    cases = {
        ((0, 1), ()): q0 * q1,
        ((0,), (1,)): q0 * (1 - q1),
        ((1,), (0,)): (1 - q0) * q1,
        ((), (0, 1)): (1 - q0) * (1 - q1),
    }
    for (zero, pos), want in cases.items():
        got = zero_pattern_prob(indep, ZeroPattern(zero_set=zero, positive_set=pos))
        assert got == pytest.approx(want, abs=1e-12)


def test_zero_pattern_prob_rises_with_correlation():
    x = rectified_sample(6000, TWO_COL_SIGMA, np.array([0.3, 0.25]), seed=8)
    model = fit_zibt(x)
    pattern = ZeroPattern(zero_set=(0, 1), positive_set=())
    both = zero_pattern_prob(model, pattern)
    q0, q1 = model.marginals[0].q, model.marginals[1].q
    assert model.copula.sigma[0, 1] > 0.2
    assert both > q0 * q1


def test_zero_pattern_probs_partition_unity():
    sigma = np.array(
        [
            [1.0, 0.3, 0.1],
            [0.3, 1.0, 0.4],
            [0.1, 0.4, 1.0],
        ]
    )
    x = rectified_sample(4000, sigma, np.array([0.3, 0.35, 0.2]), seed=9)
    model = fit_zibt(x)
    total = 0.0
    for bits in range(8):
        zero = tuple(i for i in range(3) if bits >> i & 1)
        pos = tuple(i for i in range(3) if not bits >> i & 1)
        total += zero_pattern_prob(
            model, ZeroPattern(zero_set=zero, positive_set=pos), seed=0
        )
    # One shared seed partitions the same draws, so the sum is exact.
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_far_tail_corruption_lowers_score(mode):
    x = rectified_sample(4000, TWO_COL_SIGMA, np.array([0.25, 0.2]), seed=10)
    model = fit_zibt(x, likelihood_mode=mode)
    clean = x[(x > 0).all(axis=1)][:10]
    spike = np.percentile(x[x[:, 0] > 0, 0], 99.9) * 4.0
    corrupted = clean.copy()
    corrupted[:, 0] = spike
    drop = zibt_loglik_rows(model, corrupted) - zibt_loglik_rows(model, clean)
    assert (drop < 0).all()


def test_threshold_consistency_after_fit():
    x = rectified_sample(3000, TWO_COL_SIGMA, np.array([0.3, 0.2]), seed=11)
    model = fit_zibt(x)
    for j, m in enumerate(model.marginals):
        assert ndtr(model.copula.a[j]) == pytest.approx(m.q, abs=1e-9)


def test_unseen_zero_in_fully_positive_column_is_finite_penalty():
    rng = np.random.Generator(np.random.PCG64(12))
    x = np.column_stack(
        [
            rng.gamma(2.0, 1.0, size=2000),
            rectified_sample(2000, np.eye(1), np.array([0.3]), seed=13)[:, 0],
        ]
    )
    for mode in ("approx", "exact"):
        model = fit_zibt(x, likelihood_mode=mode)
        assert np.isneginf(model.copula.a[0])
        weird, typical = zibt_loglik_rows(model, np.array([[0.0, 1.0], x[0]]))
        assert np.isfinite(weird)
        assert weird < typical - 20.0


def test_exact_scoring_deterministic_per_seed():
    sigma = 0.5 * np.eye(4) + 0.5 * np.ones((4, 4))
    x = rectified_sample(2000, sigma, np.full(4, 0.45), seed=14)
    model = fit_zibt(x, likelihood_mode="exact")
    rows = x[:60]
    first = zibt_loglik_rows(model, rows, base_seed=5)
    second = zibt_loglik_rows(model, rows, base_seed=5)
    assert np.array_equal(first, second)
    counts = (rows == 0).sum(axis=1)
    assert (counts >= 3).any()  # some rows exercise the orthant estimator


def test_approx_scoring_scales_to_fifteen_dimensions():
    rng = np.random.Generator(np.random.PCG64(15))
    raw = rng.normal(size=(15, 15))
    sigma = raw @ raw.T
    scale = np.sqrt(np.diag(sigma))
    sigma = sigma / np.outer(scale, scale)
    q = rng.uniform(0.1, 0.4, 15)
    train = rectified_sample(1000, sigma, q, seed=16)
    test = rectified_sample(10_000, sigma, q, seed=17)
    model = fit_zibt(train)
    start = time.monotonic()
    out = zibt_loglik_rows(model, test)
    elapsed = time.monotonic() - start
    assert np.isfinite(out).all()
    assert elapsed < 10.0


def test_fit_validation():
    with pytest.raises(DataError, match="at least 50 rows"):
        fit_zibt(np.ones((10, 2)))
    x = rectified_sample(200, np.eye(2), np.array([0.2, 0.2]), seed=18)
    x[0, 0] = -1.0
    with pytest.raises(DataError, match="negative"):
        fit_zibt(x)


def test_scoring_validation():
    x = rectified_sample(300, np.eye(2), np.array([0.2, 0.2]), seed=19)
    model = fit_zibt(x)
    with pytest.raises(DataError, match="columns"):
        zibt_loglik_rows(model, np.ones((4, 3)))
    with pytest.raises(DataError, match="negative"):
        zibt_loglik_rows(model, np.array([[1.0, -2.0]]))


def test_single_row_matches_batch_in_approx_mode():
    x = rectified_sample(800, TWO_COL_SIGMA, np.array([0.3, 0.2]), seed=20)
    model = fit_zibt(x)
    batch = zibt_loglik_rows(model, x[:30])
    singles = np.array([zibt_loglik_rows(model, row[None, :])[0] for row in x[:30]])
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


def test_model_validation():
    x = rectified_sample(300, np.eye(2), np.array([0.2, 0.2]), seed=21)
    model = fit_zibt(x)
    with pytest.raises(ValueError, match="likelihood_mode"):
        dataclasses.replace(model, likelihood_mode="fast")
    with pytest.raises(ValueError, match="inconsistent"):
        dataclasses.replace(
            model, copula=RgdParams(model.copula.sigma, model.copula.a + 0.5)
        )
