from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from zicopula import marginals as mg
from zicopula.errors import DataError
from zicopula.stat_core import std_normal_cdf, std_normal_pdf


def _model(centers, h, q=0.0):
    return mg.MarginalModel(
        q=q,
        kde_centers=np.sort(np.asarray(centers, dtype=float)),
        bandwidth=h,
        rescale_b=1.0,
    )


def test_fit_counts_zeros() -> None:
    m = mg.fit_marginal([0, 0, 1, 2, 3, 4])
    assert m.q == pytest.approx(1 / 3)
    assert std_normal_cdf(m.a) == pytest.approx(m.q, abs=1e-9)


def test_fit_all_positive_column() -> None:
    m = mg.fit_marginal([1.0, 2.0, 0.5, 3.0])
    assert m.q == 0.0
    assert m.a == -math.inf


def test_fit_rejects_degenerate_columns() -> None:
    with pytest.raises(DataError, match="degenerate"):
        mg.fit_marginal([0.0, 0.0, 0.0])
    with pytest.raises(DataError):
        mg.fit_marginal([0.0, 0.0, 3.0])
    with pytest.raises(DataError):
        mg.fit_marginal([-1.0, 2.0, 3.0])


def test_fit_recovers_zero_inflated_exponential() -> None:
    rng = np.random.default_rng(123)
    n = 10_000
    keep = rng.uniform(size=n) > 0.3
    x = rng.exponential(size=n) * keep
    m = mg.fit_marginal(x)
    assert abs(m.q - 0.3) <= 0.02

    # Density quality oracle: integrated squared error against the true
    # Exp(1) density, compared with a plain histogram baseline.
    grid = np.linspace(1e-3, 8.0, 1500)
    truth = np.exp(-grid)
    kde_ise = np.trapezoid((mg.positive_pdf(m, grid) - truth) ** 2, grid)
    pos = x[x > 0]
    counts, edges = np.histogram(pos, bins="sturges", density=True)
    idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, len(counts) - 1)
    hist = np.where((grid >= edges[0]) & (grid <= edges[-1]), counts[idx], 0.0)
    hist_ise = np.trapezoid((hist - truth) ** 2, grid)
    assert kde_ise < hist_ise


def test_positive_pdf_single_center_reflection() -> None:
    c, h = 2.0, 0.7
    m = _model([c], h)
    want = (std_normal_pdf(0.0) + std_normal_pdf(2 * c / h)) / h
    assert mg.positive_pdf(m, c) == pytest.approx(want, rel=1e-12)


def test_positive_pdf_normalizes_and_decays() -> None:
    rng = np.random.default_rng(7)
    m = mg.fit_marginal(rng.gamma(2.0, 1.5, size=400))
    top = float(m.kde_centers[-1] + 12 * m.bandwidth)
    grid = np.linspace(1e-9, top, 40001)
    total = np.trapezoid(mg.positive_pdf(m, grid), grid)
    assert total == pytest.approx(1.0, abs=1e-4)
    assert mg.positive_pdf(m, m.kde_centers[-1] + 20 * m.bandwidth) < 1e-12


def test_positive_pdf_rejects_nonpositive() -> None:
    m = _model([1.0, 2.0], 0.3)
    with pytest.raises(ValueError):
        mg.positive_pdf(m, 0.0)
    with pytest.raises(ValueError):
        mg.positive_pdf(m, np.array([1.0, -2.0]))


def test_marginal_cdf_boundary_values() -> None:
    m = _model([1.0, 4.0], 0.4, q=0.25)
    # Zero-inflated CDF q + (1 - q) F(x): q at x = 0, 1 far out.
    assert m.q + (1 - m.q) * mg.positive_cdf(m, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert m.q + (1 - m.q) * mg.positive_cdf(m, 1e6) == pytest.approx(1.0, abs=1e-12)


def test_marginal_cdf_two_center_midpoint() -> None:
    m = _model([5.0, 15.0], 0.5, q=0.2)
    cdf = m.q + (1 - m.q) * mg.positive_cdf(m, 10.0)
    assert cdf == pytest.approx(0.2 + 0.8 * 0.5, abs=1e-6)


def test_marginal_cdf_monotone_in_unit_interval() -> None:
    rng = np.random.default_rng(3)
    col = rng.lognormal(size=300) * (rng.uniform(size=300) > 0.3)
    m = mg.fit_marginal(col)
    grid = np.linspace(0.0, float(col.max()) * 1.5, 400)
    vals = m.q + (1 - m.q) * mg.positive_cdf(m, grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_omega_transform_zero_maps_to_threshold() -> None:
    m = _model([1.0, 2.0], 0.3, q=0.5)
    assert mg.omega_transform(m, 0.0) == pytest.approx(0.0, abs=1e-12)
    m2 = _model([1.0, 2.0], 0.3, q=0.3)
    assert mg.omega_transform(m2, 0.0) == pytest.approx(-0.5244005127080409, abs=1e-9)


def test_omega_transform_median_maps_to_zero() -> None:
    rng = np.random.default_rng(21)
    m = mg.fit_marginal(rng.gamma(3.0, 1.0, size=2000))
    lo, hi = 1e-6, float(m.kde_centers[-1] * 4)
    for _ in range(200):  # bisect the fitted positive-part median
        mid = 0.5 * (lo + hi)
        if mg.positive_cdf(m, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert mg.omega_transform(m, 0.5 * (lo + hi)) == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-6, max_value=1.5),
)
def test_omega_transform_strictly_increasing(x: float, gap: float) -> None:
    # Bounds keep the CDF inside the clamp interval; beyond it the transform
    # deliberately saturates to stay finite.
    m = _model([0.8, 2.0, 5.0, 9.0], 0.6, q=0.4)
    lo = mg.omega_transform(m, x)
    hi = mg.omega_transform(m, x + gap)
    assert hi > lo
    assert lo > m.a


def test_omega_pushforward_is_truncated_normal() -> None:
    from scipy.stats import kstest

    rng = np.random.default_rng(99)
    n = 10_000
    col = rng.lognormal(mean=0.5, sigma=0.8, size=n) * (rng.uniform(size=n) > 0.25)
    m = mg.fit_marginal(col)
    pos = col[col > 0]
    w = mg.omega_transform(m, pos)
    qa = std_normal_cdf(m.a)

    def trunc_cdf(t):
        return np.clip((std_normal_cdf(t) - qa) / (1 - qa), 0.0, 1.0)

    stat = kstest(w, trunc_cdf).statistic
    assert stat <= 0.03


def test_omega_zero_mass_matches_zero_rate() -> None:
    rng = np.random.default_rng(5)
    col = rng.exponential(size=500) * (rng.uniform(size=500) > 0.35)
    m = mg.fit_marginal(col)
    w = mg.omega_transform(m, col)
    assert np.mean(w == m.a) == np.mean(col == 0)


def test_rescale_factor_scales_with_data() -> None:
    rng = np.random.default_rng(31)
    x = rng.gamma(2.0, 2.0, size=800)
    m1 = mg.fit_marginal(x)
    m2 = mg.fit_marginal(2 * x)
    b1 = mg.rescale_factor(m1, x)
    b2 = mg.rescale_factor(m2, 2 * x)
    assert b2 == pytest.approx(2 * b1, rel=1e-9)


def test_rescale_refit_centers_log_density() -> None:
    rng = np.random.default_rng(13)
    data = np.column_stack([
        rng.exponential(0.02, size=600) * (rng.uniform(size=600) > 0.3),
        rng.lognormal(3.0, 1.0, size=600) * (rng.uniform(size=600) > 0.1),
    ])
    terms = mg.PositiveTerms(mg.fit_columns(data), data)
    assert np.all(terms.rescales > 0)
    scaled = terms.scaled
    for j, m in enumerate(terms.models):
        pos = scaled[:, j][scaled[:, j] > 0]
        mean_log = float(np.mean(mg.positive_logpdf(m, pos)))
        assert abs(mean_log) <= 0.05
        # Fixed point: a second rescale pass moves b by no more than 5%.
        assert mg.rescale_factor(m, pos) == pytest.approx(1.0, abs=0.05)


def test_fit_columns_names_offending_column() -> None:
    data = np.column_stack([np.ones(50), np.zeros(50)])
    with pytest.raises(DataError, match="column 2"):
        mg.fit_columns(data)


def _brute_force(c, h, x):
    """Reflected-kernel density and positive-part CDF summed term by term."""
    pdf, cdf = np.empty(x.size), np.empty(x.size)
    for lo in range(0, x.size, 256):
        z1 = (x[lo : lo + 256, None] - c) / h
        z2 = (x[lo : lo + 256, None] + c) / h
        pdf[lo : lo + 256] = np.sum(np.exp(-0.5 * z1 * z1) + np.exp(-0.5 * z2 * z2), axis=1) / (
            c.size * h * math.sqrt(2.0 * math.pi)
        )
        cdf[lo : lo + 256] = np.sum(ndtr(z1) + ndtr(z2) - 1.0, axis=1) / c.size
    return pdf, np.clip(cdf, 0.0, 1.0)


@st.composite
def _positive_columns(draw):
    n = draw(st.integers(min_value=50, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["lognormal", "gamma", "two clusters"]))
    if kind == "lognormal":
        mu = draw(st.floats(min_value=-3.0, max_value=8.0))
        return rng.lognormal(mu, draw(st.floats(min_value=0.05, max_value=2.5)), n)
    if kind == "gamma":
        shape = draw(st.floats(min_value=0.2, max_value=20.0))
        return rng.gamma(shape, draw(st.floats(min_value=1e-2, max_value=1e3)), n)
    centers = draw(st.lists(st.floats(min_value=0.5, max_value=200.0), min_size=2, max_size=2))
    spreads = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=2, max_size=2))
    first = rng.random(n) < draw(st.floats(min_value=0.02, max_value=0.98))
    draws = np.where(first, rng.normal(centers[0], spreads[0], n), rng.normal(centers[1], spreads[1], n))
    return np.abs(draws) + 1e-9


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_positive_columns())
def test_grid_matches_brute_force_sums(col) -> None:
    # The grid serves a point only where it is within |d log f| < 1e-6 and
    # |d F| < 1e-8 of the exact sums; every other point takes the exact sum.
    m = mg.fit_marginal(col)
    c, h = m.kde_centers, m.bandwidth
    sweep = np.linspace(0.0, c.max() + 12.0 * h, 1001)[1:]
    x = np.concatenate([c, sweep])
    want_pdf, want_cdf = _brute_force(c, h, x)
    pdf, cdf = mg.positive_pdf(m, x), mg.positive_cdf(m, x)
    if m._grid is None:
        on = on_cdf = np.zeros(x.size, dtype=bool)
    else:
        on, on_cdf = m._grid.read(x, cdf=False)[1], m._grid.read(x, cdf=True)[1]
    assert np.all(np.abs(np.log(pdf[on]) - np.log(want_pdf[on])) < 1e-6)
    assert np.all(np.abs(cdf[on_cdf] - want_cdf[on_cdf]) < 1e-8)
    # Subnormal densities carry no relative precision (and positive_logpdf
    # floors them at 1e-300), hence the atol.
    np.testing.assert_allclose(pdf[~on], want_pdf[~on], rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(cdf[~on_cdf], want_cdf[~on_cdf], rtol=1e-12, atol=0)
    assert mg.positive_cdf(m, 0.0) == 0.0


def test_mixed_grid_and_tail_batch_equals_points_alone() -> None:
    rng = np.random.default_rng(41)
    m = mg.fit_marginal(rng.lognormal(0.0, 1.5, size=500))
    c, h = m.kde_centers, m.bandwidth
    x = np.concatenate([c[::25], c[-1] + h * np.array([4.0, 7.0, 30.0, 1e4]), [1e-12]])
    for cdf, evaluate in ((False, mg.positive_pdf), (True, mg.positive_cdf)):
        on = m._grid.read(x, cdf)[1]
        assert on.any() and not on.all()
        batch = evaluate(m, x)
        alone = np.array([evaluate(m, xi) for xi in x])
        assert np.array_equal(batch, alone)
