import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from zicopula.baselines import (
    GmmModel,
    fit_gmm,
    fit_kde_multi,
    gmm_loglik_rows,
    kde_loglik_rows,
    tune_gmm,
    tune_kde,
)
from zicopula.errors import DataError
from zicopula.stat_core import mvn_logpdf


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
