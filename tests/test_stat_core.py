from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicopula import stat_core as sc
from zicopula.errors import NumericError


def test_std_normal_pdf_values() -> None:
    assert sc.std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    assert sc.std_normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-12)
    assert sc.std_normal_pdf(-1.0) == sc.std_normal_pdf(1.0)


def test_std_normal_cdf_values() -> None:
    assert sc.std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert sc.std_normal_cdf(math.inf) == 1.0
    assert sc.std_normal_cdf(-math.inf) == 0.0
    # Quadrature oracle: integrate the pdf up to 1.959964 on a fine grid.
    grid = np.linspace(-12.0, 1.959964, 400001)
    oracle = np.trapezoid(sc.std_normal_pdf(grid), grid)
    assert sc.std_normal_cdf(1.959964) == pytest.approx(oracle, abs=1e-9)
    assert sc.std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-8)


def test_std_normal_quantile_roundtrip() -> None:
    ps = np.concatenate([
        np.array([1e-6, 1e-4, 0.025, 0.5, 0.975, 1 - 1e-4, 1 - 1e-6]),
        np.linspace(0.001, 0.999, 199),
    ])
    xs = sc.std_normal_quantile(ps)
    back = sc.std_normal_cdf(xs)
    assert np.max(np.abs(back - ps)) <= 1e-9
    assert sc.std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert sc.std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert sc.std_normal_quantile(0.025) == pytest.approx(-sc.std_normal_quantile(0.975), abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
def test_std_normal_quantile_domain(bad: float) -> None:
    with pytest.raises(ValueError):
        sc.std_normal_quantile(bad)


def test_bivariate_cdf_quadrant_values() -> None:
    assert sc.bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)
    closed = 0.25 + math.asin(0.5) / (2 * math.pi)
    assert sc.bivariate_normal_cdf(0.0, 0.0, 0.5) == pytest.approx(closed, abs=1e-10)


def test_bivariate_cdf_marginalizes_at_infinity() -> None:
    for b in (-1.3, 0.0, 2.2):
        for rho in (-0.8, 0.1, 0.95):
            assert sc.bivariate_normal_cdf(math.inf, b, rho) == pytest.approx(
                sc.std_normal_cdf(b), abs=1e-12
            )
            assert sc.bivariate_normal_cdf(b, math.inf, rho) == pytest.approx(
                sc.std_normal_cdf(b), abs=1e-12
            )
    assert sc.bivariate_normal_cdf(-math.inf, 0.3, 0.5) == 0.0
    assert sc.bivariate_normal_cdf(math.inf, math.inf, -0.4) == 1.0


def test_bivariate_cdf_independence_factorizes() -> None:
    grid = np.linspace(-3.5, 3.5, 15)
    for a in grid:
        for b in grid:
            want = sc.std_normal_cdf(a) * sc.std_normal_cdf(b)
            assert sc.bivariate_normal_cdf(a, b, 0.0) == pytest.approx(want, abs=1e-10)


def test_bivariate_cdf_symmetry_and_monotonicity() -> None:
    pts = np.linspace(-2.5, 2.5, 9)
    rhos = np.linspace(-0.95, 0.95, 9)
    for a in pts:
        for b in pts:
            for r in rhos:
                v = sc.bivariate_normal_cdf(a, b, r)
                assert v == pytest.approx(sc.bivariate_normal_cdf(b, a, r), abs=1e-12)
    # Nondecreasing along each argument.
    for r in rhos:
        vals = [sc.bivariate_normal_cdf(a, 0.7, r) for a in pts]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    for a in pts:
        vals = [sc.bivariate_normal_cdf(a, 0.2, r) for r in rhos]
        assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))


def test_bivariate_cdf_matches_library_oracle() -> None:
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(11)
    for _ in range(60):
        rho = float(rng.uniform(-0.995, 0.995))
        a, b = rng.normal(size=2) * 2.0
        ref = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).cdf([a, b])
        assert sc.bivariate_normal_cdf(a, b, rho) == pytest.approx(float(ref), abs=1e-8)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
def test_bivariate_cdf_rejects_degenerate_rho(rho: float) -> None:
    with pytest.raises(ValueError):
        sc.bivariate_normal_cdf(0.0, 0.0, rho)


def _plackett_reference(h: float, k: float, rho: float) -> float:
    """Plackett's identity, Phi2 = Phi(h) Phi(k) + int_0^rho phi2(h, k; t) dt,
    by adaptive quadrature; the density vanishes at an infinite bound."""
    from scipy.integrate import quad

    base = float(sc.std_normal_cdf(h) * sc.std_normal_cdf(k))
    if not (math.isfinite(h) and math.isfinite(k)):
        return base

    def density(t: float) -> float:
        om = (1.0 - t) * (1.0 + t)
        return math.exp(-(h * h - 2.0 * t * h * k + k * k) / (2.0 * om)) / (
            2.0 * math.pi * math.sqrt(om)
        )

    val, _ = quad(density, 0.0, rho, epsabs=1e-16, epsrel=1e-13, limit=500)
    return base + val


_PHI2_BOUNDS = [-math.inf, -40.0, -9.0, -1.3, -0.0, -5e-324, -1e-200,
                0.0, 5e-324, 1e-200, 0.7, 8.0, 40.0, math.inf]


def test_bivariate_cdf_arrays_match_scalar_path() -> None:
    # Owen's T against Plackett's identity, with infinite, signed-zero,
    # subnormal and far bounds, and correlations up to 0.9999 either way.
    rhos = [-0.9999, -0.9, -0.5, -1e-3, 1e-3, 0.5, 0.9, 0.9999]
    a, b, r = np.meshgrid(_PHI2_BOUNDS, _PHI2_BOUNDS, rhos, indexing="ij")
    got = sc.bivariate_normal_cdf(a, b, r)
    assert isinstance(got, np.ndarray) and got.shape == a.shape
    want = [_plackett_reference(x, y, z) for x, y, z in zip(a.flat, b.flat, r.flat)]
    np.testing.assert_allclose(got.ravel(), want, rtol=0.0, atol=1e-14)
    # One body for scalars and arrays: each scalar call is a float equal to
    # its array element.
    scalar = [sc.bivariate_normal_cdf(x, y, z) for x, y, z in zip(a.flat, b.flat, r.flat)]
    assert all(type(v) is float for v in scalar)
    np.testing.assert_allclose(got.ravel(), scalar, rtol=0.0, atol=1e-15)
    # Broadcasting a scalar correlation over arrays of bounds.
    row = sc.bivariate_normal_cdf(np.array(_PHI2_BOUNDS), 0.3, -0.6)
    np.testing.assert_allclose(
        row, [sc.bivariate_normal_cdf(x, 0.3, -0.6) for x in _PHI2_BOUNDS], rtol=0.0, atol=1e-15
    )
    with pytest.raises(ValueError, match="NaN"):
        sc.bivariate_normal_cdf(np.array([0.0, math.nan]), 0.0, 0.5)
    with pytest.raises(ValueError, match="NaN"):
        sc.bivariate_normal_cdf(0.0, np.array([math.nan]), 0.5)
    with pytest.raises(ValueError, match="rho"):
        sc.bivariate_normal_cdf(np.zeros(2), np.zeros(2), np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="rho"):
        sc.bivariate_normal_cdf(np.zeros(2), np.zeros(2), math.nan)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bivariate_cdf_tends_to_unit_correlation_limits(sign: float) -> None:
    # At |rho| = 1 - 2^-52, sqrt(1 - rho^2) is about 2e-8: Phi2 sits within
    # about that of its limit, Phi(min(h, k)) for rho -> 1 and
    # max(0, Phi(h) + Phi(k) - 1) for rho -> -1.
    a, b = np.meshgrid(_PHI2_BOUNDS, _PHI2_BOUNDS, indexing="ij")
    got = sc.bivariate_normal_cdf(a, b, sign * (1.0 - 2.0**-52))
    fa, fb = sc.std_normal_cdf(a), sc.std_normal_cdf(b)
    limit = np.minimum(fa, fb) if sign > 0 else np.maximum(0.0, fa + fb - 1.0)
    np.testing.assert_allclose(got, limit, rtol=0.0, atol=1e-7)


def test_mvn_logpdf_normalizing_constant() -> None:
    assert sc.mvn_logpdf([0.0, 0.0], np.eye(2)) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)
    assert sc.mvn_logpdf([1.0, 1.0], np.eye(2)) == pytest.approx(-math.log(2 * math.pi) - 1.0, abs=1e-12)


def test_mvn_logpdf_matches_quadrature_normalization() -> None:
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    x = np.array([1.0, 1.0])
    # Oracle: unnormalized kernel on a grid, normalized by trapezoid mass.
    g = np.linspace(-9.0, 9.0, 1201)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    inv = np.linalg.inv(cov)
    quad = inv[0, 0] * xx**2 + 2 * inv[0, 1] * xx * yy + inv[1, 1] * yy**2
    kernel = np.exp(-0.5 * quad)
    mass = np.trapezoid(np.trapezoid(kernel, g, axis=1), g)
    oracle = -0.5 * float(x @ inv @ x) - math.log(mass)
    assert sc.mvn_logpdf(x, cov) == pytest.approx(oracle, abs=1e-5)


def test_mvn_logpdf_integrates_to_one() -> None:
    g = np.linspace(-8.0, 8.0, 481)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    for rho in (-0.9, -0.3, 0.0, 0.55, 0.9):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        dens = np.exp(sc.mvn_logpdf(pts, cov)).reshape(xx.shape)
        total = np.trapezoid(np.trapezoid(dens, g, axis=1), g)
        assert total == pytest.approx(1.0, abs=1e-4)


def test_mvn_logpdf_reports_conditioning_on_failure() -> None:
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericError, match="condition"):
        sc.mvn_logpdf([0.0, 0.0], bad)


def test_conditional_gaussian_independence() -> None:
    out = sc.conditional_gaussian(np.eye(4), [1, 3], [0.7, -0.2])
    assert np.allclose(out.mean, 0.0)
    assert np.allclose(out.cov, np.eye(2))


def test_conditional_gaussian_bivariate_form() -> None:
    rho = 0.65
    w = 1.4
    out = sc.conditional_gaussian(np.array([[1, rho], [rho, 1]]), [1], [w])
    assert out.mean[0] == pytest.approx(rho * w, abs=1e-12)
    assert out.cov[0, 0] == pytest.approx(1 - rho**2, abs=1e-12)


def test_conditional_gaussian_matches_inversion_oracle() -> None:
    rng = np.random.default_rng(5)
    base = rng.normal(size=(3, 6))
    cov = base @ base.T / 6
    d = np.sqrt(np.diag(cov))
    cov = cov / np.outer(d, d)
    vals = np.array([0.3, -1.1])
    out = sc.conditional_gaussian(cov, [0, 2], vals)
    s = [1]
    o = [0, 2]
    gain = cov[np.ix_(s, o)] @ np.linalg.inv(cov[np.ix_(o, o)])
    mean = gain @ vals
    cc = cov[np.ix_(s, s)] - gain @ cov[np.ix_(o, s)]
    assert np.allclose(out.mean, mean, atol=1e-12)
    assert np.allclose(out.cov, cc, atol=1e-12)


def test_conditional_gaussian_total_covariance_reconstruction() -> None:
    rng = np.random.default_rng(17)
    for _ in range(8):
        base = rng.normal(size=(4, 8))
        cov = base @ base.T / 8
        d = np.sqrt(np.diag(cov))
        cov = cov / np.outer(d, d)
        obs = [0, 2]
        free = [1, 3]
        cols = []
        for k in range(len(obs)):
            unit = np.zeros(len(obs))
            unit[k] = 1.0
            cols.append(sc.conditional_gaussian(cov, obs, unit).mean)
        gain = np.column_stack(cols)
        cc = sc.conditional_gaussian(cov, obs, np.zeros(len(obs))).cov
        rebuilt = cc + gain @ cov[np.ix_(obs, obs)] @ gain.T
        assert np.allclose(rebuilt, cov[np.ix_(free, free)], atol=1e-10)


def test_conditional_gaussian_rejects_singular_block() -> None:
    cov = np.eye(3)
    cov[0, 1] = cov[1, 0] = 1.0  # duplicated coordinate
    with pytest.raises(NumericError, match="0, 1"):
        sc.conditional_gaussian(cov, [0, 1], [0.0, 0.0])


def test_repair_leaves_valid_matrices_alone() -> None:
    assert np.array_equal(sc.repair_correlation(np.eye(4)), np.eye(4))
    pd = np.array([[1.0, 0.9], [0.9, 1.0]])
    assert np.allclose(sc.repair_correlation(pd), pd, atol=1e-12)


def test_repair_fixes_indefinite_triple() -> None:
    raw = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    assert np.linalg.eigvalsh(raw)[0] < 0  # oracle: input is indefinite
    out = sc.repair_correlation(raw)
    assert np.linalg.eigvalsh(out)[0] >= 1e-6 * (1 - 1e-6)
    assert np.allclose(np.diag(out), 1.0)
    assert np.allclose(out, out.T)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_repair_output_is_always_a_correlation_matrix(dim: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-0.999, 0.999, size=(dim, dim))
    raw = 0.5 * (raw + raw.T)
    np.fill_diagonal(raw, 1.0)
    out = sc.repair_correlation(raw)
    assert np.allclose(out, out.T, atol=1e-12)
    assert np.allclose(np.diag(out), 1.0, atol=1e-12)
    off = out[~np.eye(dim, dtype=bool)]
    assert np.all(np.abs(off) < 1.0)
    assert np.linalg.eigvalsh(out)[0] >= 0.0


def test_orthant_mc_univariate_matches_cdf() -> None:
    cond = sc.ConditionalGaussian(mean=np.array([0.4]), cov=np.array([[2.25]]))
    est = sc.mvn_orthant_mc(cond, [1.0], 20000, seed=3)
    exact = sc.std_normal_cdf((1.0 - 0.4) / 1.5)
    assert abs(est.estimate - exact) <= 3 * est.std_error
    assert est.std_error > 0


def test_orthant_mc_independent_product() -> None:
    cond = sc.ConditionalGaussian(mean=np.zeros(2), cov=np.eye(2))
    est = sc.mvn_orthant_mc(cond, [0.5, -0.3], 20000, seed=9)
    exact = sc.std_normal_cdf(0.5) * sc.std_normal_cdf(-0.3)
    assert abs(est.estimate - exact) <= 3 * est.std_error


def test_orthant_mc_correlated_matches_bivariate_cdf() -> None:
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    cond = sc.ConditionalGaussian(mean=np.zeros(2), cov=cov)
    est = sc.mvn_orthant_mc(cond, [0.3, -0.2], 40000, seed=7)
    exact = sc.bivariate_normal_cdf(0.3, -0.2, 0.6)
    assert abs(est.estimate - exact) <= 3 * est.std_error


def test_orthant_mc_deterministic_and_validates() -> None:
    cond = sc.ConditionalGaussian(mean=np.zeros(2), cov=np.eye(2))
    a = sc.mvn_orthant_mc(cond, [0.1, 0.1], 999, seed=42)
    b = sc.mvn_orthant_mc(cond, [0.1, 0.1], 999, seed=42)
    assert a == b
    with pytest.raises(ValueError):
        sc.mvn_orthant_mc(cond, [0.1], 100, seed=0)
    with pytest.raises(ValueError):
        sc.mvn_orthant_mc(cond, [0.1, 0.1], 0, seed=0)
    bad = sc.ConditionalGaussian(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericError):
        sc.mvn_orthant_mc(bad, [0.0, 0.0], 100, seed=0)


def test_orthant_mc_accepts_semidefinite_cov() -> None:
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    cond = sc.ConditionalGaussian(mean=np.zeros(2), cov=cov)
    est = sc.mvn_orthant_mc(cond, [0.5, 0.5], 20000, seed=1)
    assert abs(est.estimate - sc.std_normal_cdf(0.5)) <= 3 * max(est.std_error, 1e-6)


def test_probability_clamp_bounds() -> None:
    assert sc.clamp_probability(0.0) == 1e-15
    assert sc.clamp_probability(1.0) == 1.0 - 1e-15
    assert sc.clamp_probability(0.5) == 0.5
    arr = sc.clamp_probability(np.array([-1.0, 0.5, 2.0]))
    assert arr[0] == 1e-15 and arr[2] == 1.0 - 1e-15


def test_orthant_logprob_closed_forms() -> None:
    # One coordinate: a single Phi, no points involved.
    cov = np.array([[[2.25]], [[0.5]]])
    upper = np.array([[0.6], [-7.0]])
    got = sc.mvn_orthant_logprob(cov, upper, 64, seed=0)
    np.testing.assert_allclose(got, sc.std_normal_logcdf(upper[:, 0] / np.sqrt(cov[:, 0, 0])))
    # Independent coordinates: the product of the marginals for any point.
    cov = np.diag([1.0, 0.25, 4.0, 1.0])[None]
    upper = np.array([[0.3, -0.4, -6.0, 1.2]])
    want = np.sum(sc.std_normal_logcdf(upper[0] / np.sqrt(np.diag(cov[0]))))
    assert sc.mvn_orthant_logprob(cov, upper, 64, seed=1)[0] == pytest.approx(want, abs=1e-12)
    # Two coordinates against the bivariate closed form, bulk and tail.
    for a, b, rho in [(0.3, -0.2, 0.6), (-3.0, -2.5, -0.4), (-5.0, -4.0, 0.9)]:
        got = sc.mvn_orthant_logprob(
            np.array([[[1.0, rho], [rho, 1.0]]]), np.array([[a, b]]), 512, seed=2
        )[0]
        assert got == pytest.approx(math.log(sc.bivariate_normal_cdf(a, b, rho)), abs=1e-3)


def test_orthant_logprob_row_does_not_depend_on_its_batch() -> None:
    rng = np.random.default_rng(4)
    covs, uppers = [], []
    for _ in range(6):
        m = rng.standard_normal((4, 6))
        covs.append(m @ m.T / 6.0)
        uppers.append(rng.normal(-1.5, 1.0, 4))
    covs, uppers = np.array(covs), np.array(uppers)
    batch = sc.mvn_orthant_logprob(covs, uppers, 512, seed=9)
    alone = [sc.mvn_orthant_logprob(covs[i:i + 1], uppers[i:i + 1], 512, seed=9)[0]
             for i in range(6)]
    np.testing.assert_allclose(batch, alone, rtol=1e-13, atol=1e-12)
    assert np.array_equal(batch, sc.mvn_orthant_logprob(covs, uppers, 512, seed=9))
    assert not np.array_equal(batch, sc.mvn_orthant_logprob(covs, uppers, 512, seed=10))


def test_orthant_logprob_validates() -> None:
    cov, upper = np.eye(3)[None], np.zeros((1, 3))
    with pytest.raises(ValueError):
        sc.mvn_orthant_logprob(cov, np.zeros((1, 2)), 64, seed=0)
    with pytest.raises(ValueError):
        sc.mvn_orthant_logprob(np.eye(3)[None].repeat(2, axis=0), upper, 64, seed=0)
    with pytest.raises(ValueError):
        sc.mvn_orthant_logprob(cov, upper, 0, seed=0)
    bad = np.array([[[1.0, 0.0], [0.0, -1.0]]])
    with pytest.raises(NumericError):
        sc.mvn_orthant_logprob(bad, np.zeros((1, 2)), 64, seed=0)


# Accuracy gate of the exact copula term: conditional orthants of d = 3-5
# coordinates with probabilities from 1e-1 to 1e-12, against scipy's
# multivariate normal CDF. Each case conditions a random correlation of
# dimension d + 2 on its last two coordinates and puts bound i at t * s_i
# conditional standard deviations, s_i = 1 + 0.3 z_i with z_i standard
# normal, t chosen per probability. Without the minimax tilt the d = 5 tail
# misses by up to 5 nats.
GATE_T = {
    3: (0.03, -1.0, -1.89, -2.53, -3.05),
    4: (-0.1, -0.96, -1.69, -2.22, -2.66),
    5: (0.41, -0.37, -0.96, -1.37, -1.7),
}
GATE_LOG_ERR = 0.05


def _oracle_logprob(cov, upper) -> float:
    from scipy.stats import multivariate_normal

    p = multivariate_normal.cdf(
        upper, mean=np.zeros(upper.size), cov=cov, maxpts=200_000 * upper.size,
        abseps=1e-300, releps=1e-5, rng=np.random.default_rng(0),
    )
    return math.log(p)


@pytest.mark.parametrize("d", sorted(GATE_T))
def test_orthant_logprob_matches_oracle_in_the_tail(d: int) -> None:
    from zicopula.rgd_copula import DEFAULT_MC_SAMPLES

    rng = np.random.default_rng(100 + d)
    m = rng.standard_normal((d + 2, d + 4))
    sigma = m @ m.T
    sigma /= np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    cond = sc.conditional_gaussian(sigma, [d, d + 1], [1.2, -0.7])
    scale = np.sqrt(np.diag(cond.cov)) * (1.0 + 0.3 * rng.standard_normal(d))
    probs = []
    for t in GATE_T[d]:
        upper = t * scale
        want = _oracle_logprob(cond.cov, upper)
        probs.append(math.exp(want))
        for seed in range(3):
            got = sc.mvn_orthant_logprob(cond.cov[None], upper[None], DEFAULT_MC_SAMPLES, seed)
            assert abs(got[0] - want) < GATE_LOG_ERR, (t, seed, got[0], want)
    assert min(probs) < 2e-12 and max(probs) > 5e-2


def test_orthant_logprob_matches_oracle_at_the_eigenvalue_floor() -> None:
    # The fitted D=8 benchmark model has sigma at EIG_FLOOR, so its
    # conditional covariances are nearly singular. This corrupted row has
    # three zeros. Plain separation of variables in the given order misses
    # its log-probability (about -15.6) by more than 1e5 nats, and by 0.09
    # with the tilt but without the reordering.
    from zicopula.marginals import PositiveTerms, normal_scores
    from zicopula.rgd_copula import DEFAULT_MC_SAMPLES
    from zicopula.synth_bench import corrupt, make_ground_truth, sample_dataset
    from zicopula.zibt_model import fit_zibt

    truth = make_ground_truth("zibt", 8, 0)
    train = sample_dataset(truth, 1000, 0)
    model = fit_zibt(train, likelihood_mode="exact")
    sigma, a = model.copula.sigma, model.copula.a
    assert np.linalg.eigvalsh(sigma)[0] < 1.01 * sc.EIG_FLOOR
    normal = sample_dataset(truth, 400, 7)
    row = corrupt(normal, train, 8)[6:7]
    terms = PositiveTerms(model.marginals, row)
    omega = normal_scores(terms.cdf, np.array([m.q for m in model.marginals]))[0]
    pos = np.flatnonzero(terms.positive[0])
    zero = np.flatnonzero(~terms.positive[0])
    assert zero.size == 3
    cond = sc.conditional_gaussian(sigma, pos, omega[pos])
    assert np.linalg.eigvalsh(cond.cov)[0] < 1e-5
    upper = a[zero] - cond.mean
    want = _oracle_logprob(cond.cov, upper)
    for seed in range(3):
        got = sc.mvn_orthant_logprob(cond.cov[None], upper[None], DEFAULT_MC_SAMPLES, seed)
        assert abs(got[0] - want) < GATE_LOG_ERR, (seed, got[0], want)
