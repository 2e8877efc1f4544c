import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import logsumexp

from zicopula import baselines
from zicopula.baselines import (
    GMM_REG,
    GmmModel,
    _centered,
    _component_logpdfs,
    _validation_split,
    fit_gmm,
    fit_kde_multi,
    gmm_loglik_rows,
    kde_loglik_rows,
    tune_gmm,
    tune_kde,
)
from zicopula.errors import DataError, NumericError
from zicopula.stat_core import LOG_2PI, mvn_logpdf


def test_single_component_recovers_mean_and_cov():
    rng = np.random.Generator(np.random.PCG64(0))
    data = rng.normal(loc=[2.0, -1.0], scale=[1.0, 0.5], size=(4000, 2))
    model = fit_gmm(data, 1, seed=0)
    np.testing.assert_allclose(model.means[0], [2.0, -1.0], atol=0.05)
    np.testing.assert_allclose(
        np.diag(model.covariances[0]), [1.0, 0.25], atol=0.05
    )


def test_two_clusters_recovered():
    rng = np.random.Generator(np.random.PCG64(1))
    a = rng.normal(loc=5.0, scale=0.7, size=(1500, 2))
    b = rng.normal(loc=-5.0, scale=0.7, size=(1500, 2))
    model = fit_gmm(np.vstack([a, b]), 2, seed=1)
    np.testing.assert_allclose(np.sort(model.weights), [0.5, 0.5], atol=0.05)
    lo, hi = model.means[np.argsort(model.means[:, 0])]
    np.testing.assert_allclose(lo, [-5.0, -5.0], atol=0.1)
    np.testing.assert_allclose(hi, [5.0, 5.0], atol=0.1)


def test_em_loglik_monotone():
    rng = np.random.Generator(np.random.PCG64(2))
    data = np.vstack(
        [
            rng.normal(loc=0.0, size=(400, 3)),
            rng.normal(loc=4.0, size=(400, 3)),
        ]
    )
    _, trace = fit_gmm(data, 2, seed=0, return_trace=True)
    assert len(trace) >= 2
    diffs = np.diff(trace)
    assert (diffs >= -1e-9).all()


def test_gmm_loglik_matches_naive_sum():
    rng = np.random.Generator(np.random.PCG64(3))
    means = rng.normal(size=(3, 2))
    covs = np.array([np.eye(2) * s for s in (0.5, 1.0, 2.0)])
    model = GmmModel(weights=np.array([0.2, 0.3, 0.5]), means=means, covariances=covs)
    pts = rng.normal(size=(50, 2))
    naive = np.log(
        sum(
            w * np.exp(mvn_logpdf(pts - mu, cov))
            for w, mu, cov in zip(model.weights, model.means, model.covariances)
        )
    )
    np.testing.assert_allclose(gmm_loglik_rows(model, pts), naive, atol=1e-10)
    assert gmm_loglik_rows(model, pts[:1])[0] == pytest.approx(naive[0], abs=1e-10)


@st.composite
def _mixtures_and_rows(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=5))
    scale = draw(st.floats(min_value=1e-2, max_value=1e2))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    means = rng.normal(0.0, scale, size=(k, d))
    factors = rng.normal(0.0, scale, size=(k, d, d))
    covs = factors @ factors.transpose(0, 2, 1) + GMM_REG * np.eye(d)
    # Component 0 sits on a zero atom in one column, as EM leaves a component
    # whose rows are all zero there: variance GMM_REG, no covariance.
    atom = draw(st.integers(min_value=0, max_value=d - 1))
    covs[0, atom, :] = covs[0, :, atom] = 0.0
    covs[0, atom, atom] = GMM_REG
    means[0, atom] = 0.0
    x = means[rng.integers(k, size=40)] + rng.normal(0.0, scale, size=(40, d))
    x[::2, atom] = 0.0
    return GmmModel(rng.dirichlet(np.ones(k)), means, covs), x


@settings(max_examples=60, deadline=None)
@given(_mixtures_and_rows())
def test_component_logpdfs_match_per_component_loop(case):
    model, x = case
    batched = _component_logpdfs(_centered(x, model.means), model)
    loop = np.stack(
        [
            np.log(w) + mvn_logpdf(x - mu, cov)
            for w, mu, cov in zip(model.weights, model.means, model.covariances)
        ]
    )
    # atol covers the few values where the log weight, the normaliser and
    # the quadratic form cancel to near 0.
    np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=1e-12)


def test_indefinite_covariance_raises_numeric_error():
    covs = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    model = GmmModel(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)), covariances=covs)
    with pytest.raises(NumericError, match="positive definite"):
        gmm_loglik_rows(model, np.zeros((3, 2)))


def test_tune_gmm_skips_a_collapsing_k():
    rng = np.random.Generator(np.random.PCG64(0))
    data = np.where(rng.random((60, 2)) < 0.5, 0.0, rng.lognormal(size=(60, 2)))
    train, _ = _validation_split(data.shape[0], 0)
    with pytest.raises(NumericError, match="collapsing"):
        fit_gmm(data[train], 16, seed=0)
    assert tune_gmm(data, seed=0).k < 16


def test_gmm_needs_enough_rows():
    with pytest.raises(DataError, match="at least"):
        fit_gmm(np.ones((5, 2)), 2)


def test_gmm_rejects_bad_shapes():
    model = fit_gmm(np.random.default_rng(0).normal(size=(50, 2)), 1)
    with pytest.raises(DataError, match="columns"):
        gmm_loglik_rows(model, np.ones((4, 3)))


def test_gmm_weights_validated():
    with pytest.raises(ValueError, match="probability vector"):
        GmmModel(
            weights=np.array([0.7, 0.7]),
            means=np.zeros((2, 1)),
            covariances=np.ones((2, 1, 1)),
        )


def test_kde_single_center_closed_form():
    model = fit_kde_multi(np.array([[1.0, 2.0]]))
    h = model.bandwidths
    expected = float(-np.sum(np.log(h)) - np.log(2.0 * np.pi))
    assert kde_loglik_rows(model, np.array([[1.0, 2.0]]))[0] == pytest.approx(expected, abs=1e-12)


def test_kde_silverman_bandwidth_value():
    data = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    model = fit_kde_multi(data)
    expected = data.std(ddof=1) * (4.0 / (3.0 * 5.0)) ** (1.0 / 5.0)
    assert model.bandwidths[0] == pytest.approx(expected, rel=1e-12)


def test_kde_density_integrates_to_one():
    rng = np.random.Generator(np.random.PCG64(4))
    model = fit_kde_multi(rng.normal(size=(300, 2)))
    nodes, wts = leggauss(120)
    lo, hi = -8.0, 8.0
    t = 0.5 * (nodes + 1.0) * (hi - lo) + lo
    w = 0.5 * (hi - lo) * wts
    gx, gy = np.meshgrid(t, t, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    dens = np.exp(kde_loglik_rows(model, grid)).reshape(t.size, t.size)
    assert (dens * np.outer(w, w)).sum() == pytest.approx(1.0, abs=1e-3)


def test_kde_chunking_matches_direct():
    rng = np.random.Generator(np.random.PCG64(5))
    model = fit_kde_multi(rng.normal(size=(40, 3)))
    pts = rng.normal(size=(17, 3))
    batched = kde_loglik_rows(model, pts)
    single = np.array([kde_loglik_rows(model, p[None, :])[0] for p in pts])
    np.testing.assert_allclose(batched, single, atol=1e-12)


def _kde_brute_force(model, x):
    z = (x[:, None, :] - model.centers[None, :, :]) / model.bandwidths
    n, d = model.centers.shape
    log_norm = np.log(model.bandwidths).sum() + 0.5 * d * LOG_2PI + np.log(n)
    return logsumexp(-0.5 * np.sum(z * z, axis=2), axis=1) - log_norm


def test_kde_matches_brute_force_sum(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(9))
    train = rng.normal(0.0, [3.0, 30.0, 0.3], size=(250, 3))
    model = fit_kde_multi(train)
    h = model.bandwidths
    near = rng.normal(0.0, [3.0, 30.0, 0.3], size=(150, 3))
    # 50 bandwidths beyond every center in every column: each kernel term
    # underflows to 0, so only the shifted log-sum-exp stays finite.
    far = np.array([train.max(axis=0) + 50.0 * h, train.min(axis=0) - 50.0 * h])
    x = np.vstack([near, far])
    want = _kde_brute_force(model, x)
    assert np.isfinite(want).all() and (want[-2:] < -3000).all()
    # Seven rows per chunk: the batch spans many chunks and ends on a short one.
    monkeypatch.setattr(baselines, "CHUNK_BUDGET", 7 * train.shape[0])
    np.testing.assert_allclose(kde_loglik_rows(model, x), want, rtol=1e-12, atol=0)


def test_baselines_finite_on_zero_inflated_data():
    rng = np.random.Generator(np.random.PCG64(6))
    data = np.where(
        rng.random((500, 3)) < 0.4, 0.0, rng.lognormal(size=(500, 3))
    )
    gmm = fit_gmm(data, 4, seed=0)
    kde = fit_kde_multi(data)
    assert np.isfinite(gmm_loglik_rows(gmm, data)).all()
    assert np.isfinite(kde_loglik_rows(kde, data)).all()


def test_tune_gmm_picks_two_for_two_clusters():
    rng = np.random.Generator(np.random.PCG64(7))
    a = rng.normal(loc=6.0, scale=0.5, size=(400, 2))
    b = rng.normal(loc=-6.0, scale=0.5, size=(400, 2))
    model = tune_gmm(np.vstack([a, b]), seed=0)
    assert model.k >= 2


def test_tune_kde_multiplier_from_grid():
    rng = np.random.Generator(np.random.PCG64(8))
    data = rng.normal(size=(400, 2))
    tuned = tune_kde(data, seed=0)
    base = fit_kde_multi(data)
    ratio = tuned.bandwidths[0] / base.bandwidths[0]
    assert min(abs(ratio - m) for m in (0.5, 1.0, 2.0)) < 1e-9
