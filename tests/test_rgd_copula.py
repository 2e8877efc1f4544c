from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from zicopula import rgd_copula as rc
from zicopula import stat_core as sc
from zicopula.errors import DataError


def _params(sigma, a):
    return rc.RgdParams(sigma=np.asarray(sigma, dtype=float), a=np.asarray(a, dtype=float))


def test_sample_without_thresholds_is_gaussian() -> None:
    from scipy.stats import kstest

    sigma = np.array([[1.0, 0.45], [0.45, 1.0]])
    p = _params(sigma, [-math.inf, -math.inf])
    w = rc.sample_rgd(p, 10_000, seed=4)
    for j in range(2):
        assert kstest(w[:, j], sc.std_normal_cdf).statistic <= 0.02


def test_sample_univariate_zero_threshold_rectifies_half() -> None:
    p = _params([[1.0]], [0.0])
    w = rc.sample_rgd(p, 10_000, seed=8)
    frac = float(np.mean(w[:, 0] == 0.0))
    sigma3 = 3 * math.sqrt(0.25 / 10_000)
    assert abs(frac - 0.5) <= sigma3


def test_sample_joint_rectification_matches_orthant_mass() -> None:
    p = _params([[1.0, 0.8], [0.8, 1.0]], [0.0, 0.0])
    n = 20_000
    w = rc.sample_rgd(p, n, seed=15)
    both = float(np.mean((w[:, 0] == 0.0) & (w[:, 1] == 0.0)))
    target = sc.bivariate_normal_cdf(0.0, 0.0, 0.8)
    assert abs(both - target) <= 3 * math.sqrt(target * (1 - target) / n)


def test_sample_is_deterministic_per_seed() -> None:
    p = _params([[1.0, 0.2], [0.2, 1.0]], [0.1, -0.4])
    assert np.array_equal(rc.sample_rgd(p, 64, seed=5), rc.sample_rgd(p, 64, seed=5))
    assert not np.array_equal(rc.sample_rgd(p, 64, seed=5), rc.sample_rgd(p, 64, seed=6))


def test_pair_loglik_independence_factorizes() -> None:
    ai, aj = -0.2, 0.7
    qi, qj = sc.std_normal_cdf(ai), sc.std_normal_cdf(aj)
    both = rc.pair_loglik(ai, aj, 0.0, ai, aj)
    assert both == pytest.approx(math.log(qi * qj), abs=1e-10)
    wj = 1.3
    mixed = rc.pair_loglik(ai, wj, 0.0, ai, aj)
    want = sc.std_normal_logpdf(wj) + math.log(qi)
    assert mixed == pytest.approx(want, abs=1e-10)


def test_pair_loglik_branches_integrate_to_one() -> None:
    rho, ai, aj = 0.5, -0.2, 0.4
    mass = math.exp(rc.pair_loglik(ai, aj, rho, ai, aj))
    gj = np.linspace(aj + 1e-9, aj + 12.0, 4000)
    mass += np.trapezoid(np.exp([rc.pair_loglik(ai, w, rho, ai, aj) for w in gj]), gj)
    gi = np.linspace(ai + 1e-9, ai + 12.0, 4000)
    mass += np.trapezoid(np.exp([rc.pair_loglik(w, aj, rho, ai, aj) for w in gi]), gi)
    wi, wj = np.meshgrid(gi, gj, indexing="ij")
    dens = np.exp(
        -(wi**2 - 2 * rho * wi * wj + wj**2) / (2 * (1 - rho**2))
    ) / (2 * math.pi * math.sqrt(1 - rho**2))
    mass += np.trapezoid(np.trapezoid(dens, gj, axis=1), gi)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_pair_loglik_continuous_in_rho() -> None:
    # Steep growth near |rho| = 1 is fine; a genuine jump would not shrink
    # when the grid is refined, so flag points whose midpoint value stays
    # far from the chord.
    ai, aj = 0.3, -0.5
    grid = np.linspace(-0.995, 0.995, 399)
    for (wi, wj) in [(ai, aj), (ai, 1.1), (0.8, aj), (0.8, 1.1)]:
        vals = np.array([rc.pair_loglik(wi, wj, r, ai, aj) for r in grid])
        assert np.all(np.isfinite(vals))
        for k in range(len(grid) - 1):
            jump = abs(vals[k + 1] - vals[k])
            if jump > 0.05:
                mid = rc.pair_loglik(wi, wj, 0.5 * (grid[k] + grid[k + 1]), ai, aj)
                chord = 0.5 * (vals[k] + vals[k + 1])
                assert abs(mid - chord) <= 0.3 * jump + 1e-9


def test_pair_loglik_rejects_degenerate_rho() -> None:
    with pytest.raises(ValueError):
        rc.pair_loglik(0.0, 0.0, 1.0, 0.0, 0.0)


def test_estimate_rho_recovers_truth() -> None:
    p = _params([[1.0, 0.6], [0.6, 1.0]], [-0.5, 0.5])
    w = rc.sample_rgd(p, 10_000, seed=2)
    est = rc.estimate_rho(w[:, 0], w[:, 1], -0.5, 0.5)
    assert abs(est - 0.6) <= 0.05


def test_estimate_rho_recovers_independence() -> None:
    p = _params([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    w = rc.sample_rgd(p, 10_000, seed=12)
    est = rc.estimate_rho(w[:, 0], w[:, 1], 0.0, 0.0)
    assert abs(est) <= 0.05


def test_estimate_rho_handles_majority_zero_columns() -> None:
    # Zero rate 0.7 on both coordinates: thresholds sit above 0.
    a = sc.std_normal_quantile(0.7)
    p = _params([[1.0, 0.5], [0.5, 1.0]], [a, a])
    w = rc.sample_rgd(p, 10_000, seed=31)
    est = rc.estimate_rho(w[:, 0], w[:, 1], a, a)
    assert abs(est - 0.5) <= 0.05


def test_estimate_rho_without_rectification_is_sample_correlation() -> None:
    p = _params([[1.0, 0.3], [0.3, 1.0]], [-math.inf, -math.inf])
    w = rc.sample_rgd(p, 10_000, seed=3)
    est = rc.estimate_rho(w[:, 0], w[:, 1], -math.inf, -math.inf)
    corr = float(np.corrcoef(w[:, 0], w[:, 1])[0, 1])
    assert est == pytest.approx(corr, abs=1e-3)


def test_estimate_rho_swap_symmetric() -> None:
    p = _params([[1.0, 0.6], [0.6, 1.0]], [-0.5, 0.5])
    w = rc.sample_rgd(p, 4000, seed=9)
    fwd = rc.estimate_rho(w[:, 0], w[:, 1], -0.5, 0.5)
    rev = rc.estimate_rho(w[:, 1], w[:, 0], 0.5, -0.5)
    assert fwd == pytest.approx(rev, abs=2e-6)


def test_estimate_rho_error_cases() -> None:
    with pytest.raises(DataError):
        rc.estimate_rho(np.zeros(5), np.zeros(5), 0.0, 0.0)
    allzero = np.zeros(50)
    with pytest.raises(DataError, match="no information"):
        rc.estimate_rho(allzero, allzero, 0.0, 0.0)


def test_assemble_sigma_pairwise_beats_plain_correlation() -> None:
    sigma = np.array([
        [1.0, 0.55, -0.35],
        [0.55, 1.0, 0.25],
        [-0.35, 0.25, 1.0],
    ])
    a = np.array([-0.2, 0.3, 0.0])
    p = _params(sigma, a)
    w = rc.sample_rgd(p, 10_000, seed=21)
    with_mle = rc.assemble_sigma(w, a, use_mle=True)
    without = rc.assemble_sigma(w, a, use_mle=False)
    err_mle = float(np.linalg.norm(with_mle - sigma))
    err_plain = float(np.linalg.norm(without - sigma))
    assert err_mle <= 0.1
    assert err_plain > err_mle


def test_assemble_sigma_flags_agree_without_ties() -> None:
    sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
    a = np.array([-math.inf, -math.inf])
    w = rc.sample_rgd(_params(sigma, a), 5000, seed=6)
    with_mle = rc.assemble_sigma(w, a, use_mle=True)
    without = rc.assemble_sigma(w, a, use_mle=False)
    assert np.allclose(with_mle, without, atol=1e-3)


def _copula(p, omega, zero, exact):
    """copula_loglik_rows for one row whose coordinates in `zero` are rectified."""
    positive = np.ones(p.dim, dtype=bool)
    positive[list(zero)] = False
    omega = np.asarray(omega, dtype=float)[None, :]
    return rc.copula_loglik_rows(p.sigma, p.a, omega, positive[None, :], exact=exact)[0]


def test_copula_exact_identity_matrix_is_flat() -> None:
    p = _params(np.eye(3), [0.0, 0.5, -0.5])
    omega = np.array([0.0, 1.2, 0.7])
    for zero in [(), (0,), (0, 1)]:
        assert _copula(p, omega, zero, exact=True) == pytest.approx(0.0, abs=1e-9)


def test_copula_exact_all_positive_is_gaussian_copula() -> None:
    sigma = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 1.0]])
    p = _params(sigma, [-1.0, 0.0, -0.5])
    omega = np.array([0.4, 1.1, -0.2])
    got = _copula(p, omega, (), exact=True)
    want = sc.mvn_logpdf(omega, sigma) - float(np.sum(sc.std_normal_logpdf(omega)))
    assert got == pytest.approx(want, abs=1e-12)
    # Thresholds at -inf change nothing for all-positive patterns.
    p2 = _params(sigma, [-math.inf] * 3)
    assert _copula(p2, omega, (), exact=True) == pytest.approx(want, abs=1e-12)


def test_copula_exact_single_zero_matches_hand_algebra() -> None:
    rho = 0.55
    a = np.array([-0.3, -0.8])
    p = _params([[1.0, rho], [rho, 1.0]], a)
    w2 = 0.9
    got = _copula(p, [a[0], w2], (0,), exact=True)
    want = sc.std_normal_logcdf((a[0] - rho * w2) / math.sqrt(1 - rho**2))
    want -= sc.std_normal_logcdf(a[0])
    assert got == pytest.approx(want, abs=1e-12)


def test_copula_exact_rejects_inconsistent_pattern() -> None:
    pinf = _params([[1.0, 0.2], [0.2, 1.0]], [-math.inf, 0.0])
    with pytest.raises(ValueError, match="no zero mass"):
        _copula(pinf, [-math.inf, 0.9], (0,), exact=True)


def _log_orthant_reference(h: float, k: float, rho: float) -> float:
    """log P(X <= h, Y <= k) by Plackett's identity integrated from t = -1:
    the mass there is max(0, Phi(h) + Phi(k) - 1) = 0 for h + k <= 0, so the
    probability is the integral of phi2(h, k; t) over t in (-1, rho]. Taken in
    log space and shifted by its maximum, it holds far below 1e-300."""
    from scipy.integrate import quad
    from scipy.optimize import minimize_scalar

    assert h + k <= 0.0
    def log_density(t: float) -> float:
        return rc._log_bivariate_density(h, k, t)

    inner = minimize_scalar(lambda t: -log_density(t), bounds=(-1.0 + 1e-15, rho),
                            method="bounded", options={"xatol": 1e-12})
    peak, top = max((-inner.fun, inner.x), (log_density(rho), rho))
    val, _ = quad(lambda t: math.exp(log_density(t) - peak), -1.0, rho,
                  points=[top], limit=500, epsabs=0.0, epsrel=1e-10)
    return peak + math.log(val)


@pytest.mark.parametrize(
    "sigma, a, w",
    [
        # Conditional correlation -0.14 and +0.87 between the two zeros.
        ([[1.0, 0.5, 0.8], [0.5, 1.0, 0.7], [0.8, 0.7, 1.0]], [-0.5, -0.3, -1.0],
         np.linspace(-0.5, 20.1, 42)),
        ([[1.0, 0.9, 0.6], [0.9, 1.0, 0.5], [0.6, 0.5, 1.0]], [-0.2, 0.4, -1.0],
         np.linspace(0.5, 48.9, 45)),
    ],
)
def test_copula_exact_two_zero_tail_matches_quadrature(sigma, a, w) -> None:
    # Raising the one positive coordinate moves the conditional orthant of the
    # two zeros from about 0.2 down to just above 1e-300; the two-zero term
    # stays within 0.05 nats of the quadrature reference all the way.
    assert _log_orthant_reference(-37.0, -2.0, 0.0) == pytest.approx(
        sc.std_normal_logcdf(-37.0) + sc.std_normal_logcdf(-2.0), abs=1e-9
    )
    sigma, a = np.array(sigma), np.array(a)
    omega = np.column_stack([np.full((w.size, 2), a[:2]), w])
    positive = np.zeros(omega.shape, dtype=bool)
    positive[:, 2] = True
    got = rc.copula_loglik_rows(sigma, a, omega, positive, exact=True)
    got += float(np.sum(sc.std_normal_logcdf(a[:2])))
    cov = sigma[:2, :2] - np.outer(sigma[:2, 2], sigma[:2, 2])
    sd = np.sqrt(np.diag(cov))
    h = (a[0] - sigma[0, 2] * w) / sd[0]
    k = (a[1] - sigma[1, 2] * w) / sd[1]
    want = np.array([_log_orthant_reference(x, y, cov[0, 1] / (sd[0] * sd[1]))
                     for x, y in zip(h, k)])
    assert math.log(1e-300) < want.min() < math.log(1e-290)
    assert want.max() > math.log(0.05)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=0.05)


def test_copula_approx_identity_and_block_independence() -> None:
    p = _params(np.eye(3), [0.2, -0.1, 0.3])
    om = np.array([0.2, 0.5, 1.1])
    assert _copula(p, om, (0,), exact=False) == pytest.approx(0.0, abs=1e-12)
    sigma = np.eye(3)
    sigma[1, 2] = sigma[2, 1] = 0.5
    pb = _params(sigma, [0.2, -0.1, 0.3])
    approx = _copula(pb, om, (0,), exact=False)
    exact = _copula(pb, om, (0,), exact=True)
    assert approx == pytest.approx(exact, abs=1e-12)


def test_copula_approx_close_to_exact_for_mild_correlation() -> None:
    sigma = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
    p = _params(sigma, [0.1, -0.4, 0.2])
    om = np.array([p.a[0], 0.3, 0.5])  # typical positive values
    approx = _copula(p, om, (0,), exact=False)
    exact = _copula(p, om, (0,), exact=True)

    # Monte Carlo oracle for the conditional orthant term, 1e5 draws.
    cond = sc.conditional_gaussian(sigma, [1, 2], om[[1, 2]])
    rng = np.random.default_rng(1)
    draws = cond.mean[0] + math.sqrt(cond.cov[0, 0]) * rng.standard_normal(100_000)
    mc_orthant = math.log(np.mean(draws <= p.a[0]))
    mc_exact = approx + mc_orthant - sc.std_normal_logcdf(p.a[0])
    assert exact == pytest.approx(mc_exact, abs=0.02)
    assert abs(approx - exact) <= 0.2


def test_copula_approx_empty_positive_set_is_zero() -> None:
    p = _params([[1.0, 0.2], [0.2, 1.0]], [0.0, 0.5])
    assert _copula(p, [0.0, 0.5], (0, 1), exact=False) == 0.0


def test_zero_pattern_logprob_independence() -> None:
    a = np.array([0.1, -0.4, 0.6])
    p = _params(np.eye(3), a)
    q = sc.std_normal_cdf(a)
    pat = rc.ZeroPattern(zero_set=(0, 2), positive_set=(1,))
    want = math.log(q[0]) + math.log(1 - q[1]) + math.log(q[2])
    got = rc.zero_pattern_logprob(p, pat, mc_samples=200_000, seed=2)
    assert got == pytest.approx(want, abs=0.05)


def test_zero_pattern_logprob_univariate_and_bivariate_closed_forms() -> None:
    p1 = _params([[1.0]], [0.3])
    q1 = sc.std_normal_cdf(0.3)
    assert rc.zero_pattern_logprob(p1, rc.ZeroPattern((0,), ())) == pytest.approx(math.log(q1), abs=1e-12)
    assert rc.zero_pattern_logprob(p1, rc.ZeroPattern((), (0,))) == pytest.approx(math.log(1 - q1), abs=1e-12)
    rho = -0.45
    p2 = _params([[1.0, rho], [rho, 1.0]], [0.2, -0.3])
    total = 0.0
    for zero in [(), (0,), (1,), (0, 1)]:
        pos = tuple(i for i in range(2) if i not in zero)
        total += math.exp(rc.zero_pattern_logprob(p2, rc.ZeroPattern(zero, pos)))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_zero_pattern_logprob_exhaustive_sum_matches_one() -> None:
    sigma = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, -0.3], [0.2, -0.3, 1.0]])
    p = _params(sigma, [0.1, -0.4, 0.6])
    total = 0.0
    for bits in itertools.product([False, True], repeat=3):
        zero = tuple(i for i in range(3) if bits[i])
        pos = tuple(i for i in range(3) if not bits[i])
        total += math.exp(
            rc.zero_pattern_logprob(p, rc.ZeroPattern(zero, pos), mc_samples=20_000, seed=5)
        )
    # Shared draws partition the sample space, so the sum is exact.
    assert total == pytest.approx(1.0, abs=1e-12)


def test_marginal_pairs_are_again_rectified_gaussian() -> None:
    sigma = np.array([
        [1.0, 0.55, -0.35],
        [0.55, 1.0, 0.25],
        [-0.35, 0.25, 1.0],
    ])
    a = np.array([-0.2, 0.3, 0.0])
    w3 = rc.sample_rgd(_params(sigma, a), 10_000, seed=40)
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        pair_sigma = np.array([[1.0, sigma[i, j]], [sigma[i, j], 1.0]])
        w2 = rc.sample_rgd(_params(pair_sigma, a[[i, j]]), 10_000, seed=41 + i + 3 * j)
        proj = w3[:, [i, j]]
        qs = np.linspace(0.05, 0.95, 7)
        gx = np.quantile(np.concatenate([proj[:, 0], w2[:, 0]]), qs)
        gy = np.quantile(np.concatenate([proj[:, 1], w2[:, 1]]), qs)
        worst = 0.0
        for x in gx:
            for y in gy:
                f1 = np.mean((proj[:, 0] <= x) & (proj[:, 1] <= y))
                f2 = np.mean((w2[:, 0] <= x) & (w2[:, 1] <= y))
                worst = max(worst, abs(float(f1 - f2)))
        assert worst <= 0.03
