from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zicopula import rgd_copula as rc
from zicopula import stat_core as sc
from zicopula.cli import CREDIT_COLUMNS_FULL, read_data_csv
from zicopula.cli import main as cli_main
from zicopula.errors import DataError, NumericError
from zicopula.marginals import fit_positive_terms, normal_scores

STANDIN_CSV = Path(__file__).resolve().parents[1] / "data" / "credit_standin.csv"


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


def test_estimate_rho_error_cases(monkeypatch) -> None:
    with pytest.raises(DataError):
        rc.estimate_rho(np.zeros(5), np.zeros(5), 0.0, 0.0)
    allzero = np.zeros(50)
    with pytest.raises(DataError, match="no information"):
        rc.estimate_rho(allzero, allzero, 0.0, 0.0)
    w = rc.sample_rgd(_params([[1.0, 0.6], [0.6, 1.0]], [-0.5, 0.5]), 400, seed=2)
    monkeypatch.setattr(rc, "NEWTON_MAXITER", 1)
    with pytest.raises(NumericError, match="maximization failed"):
        rc.estimate_rho(w[:, 0], w[:, 1], -0.5, 0.5)


@pytest.mark.parametrize("estimate", [
    lambda w: rc.estimate_rho(w[:, 0], w[:, 1], -math.inf, -math.inf),
    lambda w: rc.assemble_sigma(w, np.full(2, -math.inf), use_mle=False),
], ids=["estimate_rho", "assemble_sigma"])
def test_constant_coordinate_raises_without_numpy_warnings(estimate) -> None:
    w = np.column_stack([np.full(100, 5.0), np.random.default_rng(7).standard_normal(100)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="sample correlation undefined"):
            estimate(w)
    assert caught == []


def _pair_sample(n, rho, a_i, a_j, seed, no_both_positive=False):
    """Rectified pair draws with their zero flags; optionally only the rows
    with at least one zero, so the both-positive branch is empty."""
    w = rc.sample_rgd(_params([[1.0, rho], [rho, 1.0]], [a_i, a_j]), n, seed=seed)
    zi, zj = w[:, 0] == a_i, w[:, 1] == a_j
    if no_both_positive:
        keep = zi | zj
        w, zi, zj = w[keep], zi[keep], zj[keep]
    return w[:, 0], w[:, 1], zi, zj


def _dense_reference_max(args) -> float:
    """Maximum of the pair log-likelihood over the bracket of estimate_rho's
    41-point scan: a 2001-point grid across it, then scipy's bounded Brent
    between the neighbours of the best grid point.

    The reference stays inside the scan's bracket because the scan assumes a
    unimodal likelihood: a peak narrower than its spacing elsewhere is missed
    by design (about 1 in 700 random pairs, all without both-positive rows,
    e.g. 70 double zeros and 578 one-zero rows peaking at rho = 0.98 while
    the scan brackets -0.9), and that is not what this test measures.
    """
    from scipy.optimize import minimize_scalar

    scan = np.linspace(-rc.RHO_BRACKET, rc.RHO_BRACKET, rc.GRID_POINTS)
    best = int(np.argmax(rc._pair_total_loglik(scan, *args)))
    grid = np.linspace(scan[max(best - 1, 0)], scan[min(best + 1, scan.size - 1)], 2001)
    values = rc._pair_total_loglik(grid, *args)
    best = int(np.argmax(values))
    res = minimize_scalar(
        lambda r: -float(rc._pair_total_loglik(r, *args)),
        bounds=(grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-13, "maxiter": 500},
    )
    return max(float(values[best]), -float(res.fun))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(20, 600),
    rho=st.floats(-0.97, 0.97),
    a_i=st.floats(-1.5, 3.0),
    a_j=st.floats(-1.5, 3.0),
    seed=st.integers(0, 2**16),
    no_both_positive=st.booleans(),
)
def test_estimate_rho_attains_the_dense_reference_maximum(
    n, rho, a_i, a_j, seed, no_both_positive
) -> None:
    # Majority-zero columns (a > 0) and pairs without a both-positive row
    # have near-flat likelihoods where rho itself is poorly determined, so
    # the estimate is judged by the likelihood it reaches.
    w_i, w_j, zi, zj = _pair_sample(n, rho, a_i, a_j, seed, no_both_positive)
    assume(w_i.size >= 10 and not np.all(zi & zj))
    est = rc.estimate_rho(w_i, w_j, a_i, a_j, zi, zj)
    if not zi.any() and not zj.any():
        return
    args = rc._pair_branches(w_i, w_j, zi, zj, a_i, a_j)
    assert float(rc._pair_total_loglik(est, *args)) >= _dense_reference_max(args) - 1e-9


def _full_scan_estimate_rho(args) -> float:
    """estimate_rho on rows reduced to _pair_branches, as it was before its
    scan was pruned by _scan_bounds: _pair_total_loglik at all 41 grid
    points, then the same safeguarded Newton polish."""
    grid = np.linspace(-rc.RHO_BRACKET, rc.RHO_BRACKET, rc.GRID_POINTS)
    values = rc._pair_total_loglik(grid, *args)
    best = int(np.argmax(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, rc.GRID_POINTS - 1)])
    rho = float(grid[best]) if 0 < best < rc.GRID_POINTS - 1 else 0.5 * (lo + hi)
    step = step_before = hi - lo
    for _ in range(rc.NEWTON_MAXITER):
        g, h = rc._pair_score(rho, *args)
        assert np.isfinite(g) and np.isfinite(h)
        if g > 0.0:
            lo = rho
        else:
            hi = rho
        newton = rho - g / h if h < 0.0 else np.nan
        if lo <= newton <= hi and abs(newton - rho) <= 0.5 * abs(step_before):
            new = newton
        else:
            new = 0.5 * (lo + hi)
        step_before, step = step, new - rho
        rho = new
        if abs(step) <= rc.NEWTON_TOL:
            break
    else:
        raise AssertionError("no convergence")
    if rc._pair_total_loglik(rho, *args) < values[best]:
        rho = float(grid[best])
    return float(np.clip(rho, -rc.RHO_BRACKET, rc.RHO_BRACKET))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(10, 600),
    rho=st.floats(-0.97, 0.97),
    a_i=st.floats(-2.5, 3.0),
    a_j=st.floats(-2.5, 3.0),
    seed=st.integers(0, 2**16),
    no_both_positive=st.booleans(),
)
def test_estimate_rho_keeps_the_bits_of_the_full_scan(
    n, rho, a_i, a_j, seed, no_both_positive
) -> None:
    # Thresholds up to 3 give majority-zero columns, down to -2.5 and n from
    # 10 give one-zero groups smaller than SCAN_RUNS.
    w_i, w_j, zi, zj = _pair_sample(n, rho, a_i, a_j, seed, no_both_positive)
    assume(w_i.size >= 10 and not np.all(zi & zj) and (zi.any() or zj.any()))
    args = rc._pair_branches(w_i, w_j, zi, zj, a_i, a_j)
    assert rc.estimate_rho(w_i, w_j, a_i, a_j, zi, zj) == _full_scan_estimate_rho(args)


def test_credit_sigma_keeps_the_bits_of_the_full_scan(tmp_path) -> None:
    train_csv = tmp_path / "train.csv"
    cli_main(["ingest-credit", "--raw", str(STANDIN_CSV), "--out-train", str(train_csv),
              "--out-test", str(tmp_path / "test.csv")])
    train = fit_positive_terms(read_data_csv(train_csv))
    a = np.array([m.a for m in train.models])
    q = np.array([m.q for m in train.models])
    omega = np.where(train.positive, normal_scores(train.cdf, q), a)
    d = omega.shape[1]
    reference = np.eye(d)
    for i, j in itertools.combinations(range(d), 2):
        args = rc._pair_branches(omega[:, i], omega[:, j], ~train.positive[:, i],
                                 ~train.positive[:, j], a[i], a[j])
        reference[i, j] = reference[j, i] = _full_scan_estimate_rho(args)
    sigma = rc.assemble_sigma(omega, a, use_mle=True, zero_mask=~train.positive)
    assert np.array_equal(sigma, sc.repair_correlation(reference))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(10, 600),
    rho=st.floats(-0.97, 0.97),
    a_i=st.floats(-2.5, 3.0),
    a_j=st.floats(-2.5, 3.0),
    seed=st.integers(0, 2**16),
    no_both_positive=st.booleans(),
)
def test_scan_bounds_bracket_the_pair_loglik(n, rho, a_i, a_j, seed, no_both_positive) -> None:
    w_i, w_j, zi, zj = _pair_sample(n, rho, a_i, a_j, seed, no_both_positive)
    assume(not np.all(zi & zj))
    args = rc._pair_branches(w_i, w_j, zi, zj, a_i, a_j)
    grid = np.linspace(-rc.RHO_BRACKET, rc.RHO_BRACKET, rc.GRID_POINTS)
    exact = rc._pair_total_loglik(grid, *args)
    lower, upper = rc._scan_bounds(grid, args)
    margin = 1e-9 * (1.0 + np.abs(exact))
    assert np.all(lower <= exact + margin) and np.all(exact <= upper + margin)
    if max(args[1].size, args[2].size) <= rc.SCAN_RUNS:
        # One row per run: both bounds are the exact value.
        assert np.all(np.abs(lower - exact) <= margin)
        assert np.all(np.abs(upper - exact) <= margin)


@pytest.mark.parametrize(
    "rho, a_i, a_j, no_both_positive",
    [(0.6, -0.5, 0.5, False), (-0.4, 0.8, 1.2, False), (0.3, 1.0, -0.2, True)],
)
def test_pair_score_matches_finite_differences(rho, a_i, a_j, no_both_positive) -> None:
    w_i, w_j, zi, zj = _pair_sample(400, rho, a_i, a_j, 7, no_both_positive)
    args = rc._pair_branches(w_i, w_j, zi, zj, a_i, a_j)
    assert args[0] and args[1].size and args[2].size
    assert (args[3] == 0) == no_both_positive

    def f(r):
        return float(rc._pair_total_loglik(r, *args))

    for r in (-0.9, -0.3, 0.0, 0.45, 0.9):
        g, h = rc._pair_score(r, *args)
        eps = 1e-5
        g_fd = (f(r + eps) - f(r - eps)) / (2 * eps)
        eps = 1e-4
        h_fd = (f(r + eps) - 2 * f(r) + f(r - eps)) / eps**2
        assert g == pytest.approx(g_fd, rel=1e-6, abs=1e-5)
        assert h == pytest.approx(h_fd, rel=1e-5, abs=1e-2)


def test_pair_total_loglik_matches_row_wise_sum() -> None:
    from scipy.stats import multivariate_normal, norm

    a_i, a_j = 0.2, -0.4
    w_i, w_j, zi, zj = _pair_sample(500, 0.5, a_i, a_j, 3)
    args = rc._pair_branches(w_i, w_j, zi, zj, a_i, a_j)
    assert args[0] and args[1].size and args[2].size and args[3]
    for rho in (-0.9, -0.2, 0.0, 0.5, 0.9):
        s = math.sqrt(1.0 - rho * rho)
        bvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        rows = []
        for wi, wj, z_i, z_j in zip(w_i, w_j, zi, zj):
            if z_i and z_j:
                rows.append(math.log(sc.clamp_probability(sc.bivariate_normal_cdf(a_i, a_j, rho))))
            elif z_i:
                rows.append(norm.logpdf(wj) + norm.logcdf((a_i - rho * wj) / s))
            elif z_j:
                rows.append(norm.logpdf(wi) + norm.logcdf((a_j - rho * wi) / s))
            else:
                rows.append(bvn.logpdf([wi, wj]))
        want = math.fsum(rows)
        assert float(rc._pair_total_loglik(rho, *args)) == pytest.approx(want, rel=1e-12)
        per_row = math.fsum(
            rc.pair_loglik(wi, wj, rho, a_i, a_j, z_i, z_j)
            for wi, wj, z_i, z_j in zip(w_i, w_j, zi, zj)
        )
        assert per_row == pytest.approx(want, rel=1e-12)


def test_assemble_sigma_memory_stays_per_pair() -> None:
    # 2,100 x 12 credit-shaped omega: the pairwise MLE holds one pair's
    # one-zero rows times the 41 grid points at a time, never an array over
    # all rows and pairs (which would need several MB here).
    header = STANDIN_CSV.open().readline().strip().split(",")
    raw = np.loadtxt(STANDIN_CSV, delimiter=",", skiprows=1,
                     usecols=[header.index(c) for c in CREDIT_COLUMNS_FULL])
    rows = np.random.default_rng(0).integers(0, raw.shape[0], 2100)
    train = fit_positive_terms(np.maximum(raw[rows], 0.0))
    a = np.array([m.a for m in train.models])
    q = np.array([m.q for m in train.models])
    omega = np.where(train.positive, normal_scores(train.cdf, q), a)
    tracemalloc.start()
    try:
        rc.assemble_sigma(omega, a, use_mle=True, zero_mask=~train.positive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
    """pattern_loglik_rows for one row whose coordinates in `zero` are rectified."""
    positive = np.ones(p.dim, dtype=bool)
    positive[list(zero)] = False
    omega = np.asarray(omega, dtype=float)[None, :]
    table = rc.PatternTable(p.sigma, p.a if exact else None)
    return rc.pattern_loglik_rows(table, omega, positive[None, :])[0]


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
        return rc._gaussian_pair_loglik(t, 1, h * h, k * k, h * k)

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
    got = rc.pattern_loglik_rows(rc.PatternTable(sigma, a), omega, positive)
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


def _reference_row(sigma, a, w, positive, exact, estimate=True) -> tuple[float, bool]:
    """One row of pattern_loglik_rows from the single-row primitives, and
    whether the orthant estimator serves it (its value is NaN then, unless
    ``estimate``)."""
    pos, zero = np.flatnonzero(positive), np.flatnonzero(~positive)
    total = 0.0
    if pos.size >= 2:
        total += sc.mvn_logpdf(w[pos], sigma[np.ix_(pos, pos)])
        total -= float(np.sum(sc.std_normal_logpdf(w[pos])))
    if not exact or zero.size == 0:
        return total, False
    if pos.size:
        cond = sc.conditional_gaussian(sigma, pos, w[pos])
        upper, cov = a[zero] - cond.mean, cond.cov
    else:
        upper, cov = a[zero], sigma[np.ix_(zero, zero)]
    total -= float(np.sum(sc.std_normal_logcdf(a[zero])))
    sd = np.sqrt(np.diag(cov))
    if zero.size == 1:
        return total + sc.std_normal_logcdf(upper[0] / sd[0]), False
    if zero.size == 2:
        r = np.clip(cov[0, 1] / (sd[0] * sd[1]), -1 + 1e-12, 1 - 1e-12)
        p = sc.bivariate_normal_cdf(upper[0] / sd[0], upper[1] / sd[1], r)
        if p >= sc.CLOSED_FORM_MIN:
            return total + math.log(p), False
    if not estimate:
        return math.nan, True
    orthant = sc.mvn_orthant_logprob([(cov[None], upper[None])], rc.DEFAULT_MC_SAMPLES, 0)[0][0]
    return total + orthant, True


def _stacked_case(d: int, seed: int, at_floor: bool):
    """A batch with every zero count from 0 to d (two patterns per count, two
    rows per pattern) whose positives are a draw of N(0, sigma). At the
    floor, sigma is a rank d - 1 correlation repaired to EIG_FLOOR;
    otherwise it is well conditioned and, for d >= 3, three more two-zero
    rows have their positives placed so that the zeros' conditional means
    sit 6 to 12 above their thresholds: tail rows for the estimator."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d - 1 if at_floor else d + 2))
    sigma = m @ m.T
    sigma = sc.repair_correlation(sigma / np.sqrt(np.outer(np.diag(sigma), np.diag(sigma))))
    a = rng.normal(-0.3, 0.8, d)
    masks = []
    for count in range(d + 1):
        for _ in range(2):
            mask = np.ones(d, dtype=bool)
            mask[rng.choice(d, count, replace=False)] = False
            masks += [mask, mask]
    positive = np.array(masks)
    nu = rng.standard_normal(positive.shape) @ np.linalg.cholesky(sigma).T
    omega = np.where(positive, nu, 0.0)
    if d >= 3 and not at_floor:
        for _ in range(3):
            mask = np.ones(d, dtype=bool)
            mask[rng.choice(d, 2, replace=False)] = False
            pos, zero = np.flatnonzero(mask), np.flatnonzero(~mask)
            proj = sigma[np.ix_(zero, pos)] @ np.linalg.inv(sigma[np.ix_(pos, pos)])
            w = np.zeros(d)
            w[pos] = np.linalg.pinv(proj) @ (a[zero] + rng.uniform(6.0, 12.0))
            positive = np.vstack([positive, mask])
            omega = np.vstack([omega, w])
    return sigma, a, omega, positive


# Worst measured difference between the stacked pass and the row-by-row
# reference, over 200 seeds for each d and sigma kind: 1.5e-10 of
# max(1, |score|), on two-zero closed-form rows at the floor (3.3e-11 on
# well-conditioned rows, estimator rows included).
STACKED_TOL = 1e-9


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    at_floor=st.booleans(),
)
def test_copula_rows_match_row_by_row_reference(d, seed, at_floor) -> None:
    sigma, a, omega, positive = _stacked_case(d, seed, at_floor)
    for exact in (False, True):
        # At the floor the estimator is not stable under rounding: the
        # conditional covariances are nearly singular, and a 3e-16 relative
        # change of a row's bounds was seen to flip its tilt between
        # converged and untilted and its estimate by 177 nats. The rows it
        # would serve are left out there.
        ref = [
            _reference_row(sigma, a, omega[i], positive[i], exact, estimate=not at_floor)
            for i in range(len(omega))
        ]
        served = np.array([by_estimator for _, by_estimator in ref])
        if exact and d >= 4 and not at_floor:
            assert served[-3:].all()  # the tail rows
        keep = ~served if at_floor else np.ones(served.size, dtype=bool)
        want = np.array([value for value, _ in ref])[keep]
        table = rc.PatternTable(sigma, a if exact else None)
        got = rc.pattern_loglik_rows(table, omega[keep], positive[keep])
        np.testing.assert_allclose(got, want, rtol=STACKED_TOL, atol=STACKED_TOL)


def test_copula_stacked_pass_keeps_error_contracts() -> None:
    # A positive block that is not positive definite, among valid patterns
    # with as many positives.
    sigma = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 1.2], [0.2, 1.2, 1.0]])
    a = np.array([-0.2, 0.1, -0.4])
    positive = np.array([[True, True, False], [True, False, True], [False, True, True]])
    omega = np.where(positive, 0.5, 0.0)
    for exact in (False, True):
        rc.pattern_loglik_rows(rc.PatternTable(sigma, a if exact else None), omega[:2],
                               positive[:2])
        with pytest.raises(NumericError, match="not positive definite"):
            rc.pattern_loglik_rows(rc.PatternTable(sigma, a if exact else None), omega, positive)
    # A singular observed block: coordinate 0 has no variance.
    sigma = np.diag([0.0, 1.0, 1.0])
    positive = np.array([[False, True, False], [True, False, False], [False, False, True]])
    omega = np.where(positive, 0.5, 0.0)
    approx = rc.pattern_loglik_rows(rc.PatternTable(sigma), omega, positive)
    assert approx.tolist() == [0.0] * 3
    with pytest.raises(NumericError, match=r"observed block \(0,\) is singular"):
        rc.pattern_loglik_rows(rc.PatternTable(sigma, a), omega, positive)


def test_pattern_table_keeps_error_contracts_and_no_partial_entry() -> None:
    # The cases above, each failing twice on one table that already holds
    # the batch's valid patterns: the same NumericError both times and on a
    # fresh table, and a valid batch scored afterwards equal to a fresh
    # table's scores. Each failing batch also holds a new valid pattern with
    # fewer positives, built before the failure: the table must not keep it.
    sigma = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 1.2], [0.2, 1.2, 1.0]])
    a = np.array([-0.2, 0.1, -0.4])
    mixed = np.array([[True, True, False], [True, False, True], [False, True, True],
                      [True, False, False]])
    # Coordinate 0 has no variance: conditioning on it fails, while a zero
    # there is an orthant coordinate, which takes a zero variance.
    lone = np.array([[False, True, True], [True, False, False], [False, False, False]])
    cases = [
        (sigma, None, mixed, [0, 1], "not positive definite"),
        (sigma, a, mixed, [0, 1], "not positive definite"),
        (np.diag([0.0, 1.0, 1.0]), a, lone, [0], r"observed block \(0,\) is singular"),
    ]
    for sigma, thresholds, positive, good, message in cases:
        omega = np.where(positive, 0.5, 0.0)
        table = rc.PatternTable(sigma, thresholds)
        before = rc.pattern_loglik_rows(table, omega[good], positive[good])
        errors = []
        for fresh in (False, False, True):
            with pytest.raises(NumericError, match=message) as failed:
                scored = rc.PatternTable(sigma, thresholds) if fresh else table
                rc.pattern_loglik_rows(scored, omega, positive)
            errors.append(str(failed.value))
            assert len(table) == len(good)
        assert errors[0] == errors[1] == errors[2]
        after = rc.pattern_loglik_rows(table, omega[good], positive[good])
        cold = rc.pattern_loglik_rows(rc.PatternTable(sigma, thresholds), omega[good],
                                      positive[good])
        assert np.array_equal(after, cold) and np.array_equal(after, before)


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
    # Coordinate 0 is never rectified: a pattern with a zero there has the
    # floor, and a positive there drops out of the reflected orthant.
    p2 = _params([[1.0, rho], [rho, 1.0]], [-np.inf, 0.3])
    want = {(): math.log(1 - q1), (0,): sc.LOG_PROB_FLOOR, (1,): math.log(q1),
            (0, 1): sc.LOG_PROB_FLOOR}
    total = 0.0
    for zero, value in want.items():
        pos = tuple(i for i in range(2) if i not in zero)
        got = rc.zero_pattern_logprob(p2, rc.ZeroPattern(zero, pos))
        assert got == pytest.approx(value, abs=1e-12)
        total += math.exp(got)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_zero_pattern_logprob_exhaustive_sum_matches_one() -> None:
    from scipy.stats import multivariate_normal

    sigma = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, -0.3], [0.2, -0.3, 1.0]])
    a = np.array([0.1, -0.4, 0.6])
    p = _params(sigma, a)
    n = 20_000
    total = 0.0
    for bits in itertools.product([False, True], repeat=3):
        zero = tuple(i for i in range(3) if bits[i])
        pos = tuple(i for i in range(3) if not bits[i])
        pattern = rc.ZeroPattern(zero, pos)
        log_got = rc.zero_pattern_logprob(p, pattern, mc_samples=n, seed=5)
        assert rc.zero_pattern_logprob(p, pattern, mc_samples=n, seed=5) == log_got
        got = math.exp(log_got)
        total += got
        # P(nu_zero <= a_zero, nu_pos > a_pos): flip the sign of the positives.
        sign = np.where(bits, 1.0, -1.0)
        want = float(multivariate_normal(cov=sigma * np.outer(sign, sign)).cdf(sign * a))
        assert abs(got - want) <= 4.0 * math.sqrt(want * (1.0 - want) / n)
    # Shared draws partition the sample space, so the sum is exact.
    assert total == pytest.approx(1.0, abs=1e-12)


def test_zero_pattern_logprob_validates() -> None:
    p = _params(np.eye(3), [0.1, -0.4, 0.6])
    pattern = rc.ZeroPattern((0,), (1, 2))
    with pytest.raises(ValueError, match="pattern dimension mismatch"):
        rc.zero_pattern_logprob(p, rc.ZeroPattern((0,), (1,)))
    for n in (0, -3):
        with pytest.raises(ValueError, match="mc_samples must be at least 1"):
            rc.zero_pattern_logprob(p, pattern, mc_samples=n)
    # Not positive definite: the sampler has no Cholesky factor to draw with.
    sigma = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    with pytest.raises(NumericError, match="not positive definite"):
        rc.zero_pattern_logprob(_params(sigma, [0.1, -0.4, 0.6]), pattern)


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
