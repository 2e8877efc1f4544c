import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicopula import synth_bench
from zicopula.baselines import gmm_loglik_rows, kde_loglik_rows, tune_gmm, tune_kde
from zicopula.errors import DataError
from zicopula.mask_model import RbmMask
from zicopula.stat_core import std_normal_cdf, sub_seed
from zicopula.synth_bench import (
    BANDWIDTH_GRID,
    PRESETS,
    BenchResult,
    SigmoidMix,
    ZibtInverseMap,
    _bench_one_seed,
    auc,
    corrupt,
    default_variants,
    make_ground_truth,
    run_benchmark,
    sample_dataset,
    sigma_l2_error,
)
from zicopula.zibt_model import fit_zibt, zibt_loglik_rows
from zicopula.zicar_model import fit_zicar, zicar_loglik_rows


def test_ground_truth_sigma_is_correlation_matrix():
    for kind in ("zicar", "zibt"):
        truth = make_ground_truth(kind, 6, seed=1)
        sigma = truth.sigma_true
        np.testing.assert_allclose(np.diag(sigma), 1.0, atol=1e-12)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(sigma).min() > 0
        assert len(truth.monotone_maps) == 6


def test_ground_truth_kinds_validated():
    with pytest.raises(ValueError, match="kind"):
        make_ground_truth("gauss", 3)
    with pytest.raises(ValueError, match="dim"):
        make_ground_truth("zibt", 0)


def test_zicar_truth_carries_rbm_mask():
    truth = make_ground_truth("zicar", 4, seed=0)
    assert isinstance(truth.mask_truth, RbmMask)
    assert truth.mask_truth.n_hidden == 4
    assert np.isfinite(truth.mask_truth.log_z)


def test_zibt_truth_thresholds_below_half():
    truth = make_ground_truth("zibt", 5, seed=2)
    assert truth.mask_truth is None
    for m in truth.monotone_maps:
        # Zero rates are drawn from U(0, 0.5); the stored threshold is the
        # empirical quantile of the anchor draw, so allow slack for M=1e4.
        assert std_normal_cdf(m.threshold) < 0.52


def test_sampling_is_deterministic():
    for kind in ("zicar", "zibt"):
        truth = make_ground_truth(kind, 3, seed=5)
        first = sample_dataset(truth, 400, seed=9)
        second = sample_dataset(truth, 400, seed=9)
        np.testing.assert_array_equal(first, second)
        assert (first >= 0).all()


def test_zibt_zero_rates_match_thresholds():
    truth = make_ground_truth("zibt", 4, seed=7)
    x = sample_dataset(truth, 10_000, seed=3)
    for j, m in enumerate(truth.monotone_maps):
        p = float(std_normal_cdf(m.threshold))
        se = math.sqrt(p * (1.0 - p) / x.shape[0])
        assert abs((x[:, j] == 0).mean() - p) <= 3.0 * se + 1e-12


def test_zicar_zero_rates_match_mask_marginals():
    from zicopula.mask_model import enumerate_states, mask_logprob_rows

    truth = make_ground_truth("zicar", 3, seed=0)
    states = enumerate_states(3)
    probs = np.exp(mask_logprob_rows(truth.mask_truth, states))
    x = sample_dataset(truth, 10_000, seed=1)
    for j in range(3):
        p = float(probs[states[:, j] == 0].sum())
        se = math.sqrt(p * (1.0 - p) / x.shape[0])
        assert abs((x[:, j] == 0).mean() - p) <= 3.0 * se + 1e-12
    positives = x[x > 0]
    assert ((positives > 0) & (positives < 1)).all()


def test_zibt_generator_self_consistency():
    truth = make_ground_truth("zibt", 2, seed=3)
    x = sample_dataset(truth, 10_000, seed=11)
    model = fit_zibt(x)
    for j, m in enumerate(model.marginals):
        assert m.q == pytest.approx(
            float(std_normal_cdf(truth.monotone_maps[j].threshold)), abs=0.02
        )
    assert model.copula.sigma[0, 1] == pytest.approx(
        truth.sigma_true[0, 1], abs=0.1
    )


def test_sigmoid_mix_monotone_and_validated():
    mix = SigmoidMix(
        weights=np.array([0.3, 0.3, 0.4]),
        slopes=np.array([0.5, 1.0, 1.5]),
        centers=np.array([-1.0, 0.0, 2.0]),
    )
    x = np.linspace(-6.0, 6.0, 200)
    y = mix.apply(x)
    assert (np.diff(y) >= 0).all()
    assert ((y > 0) & (y < 1)).all()
    with pytest.raises(ValueError, match="probability vector"):
        SigmoidMix(np.array([0.7, 0.7]), np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="positive"):
        SigmoidMix(np.array([0.5, 0.5]), np.array([1.0, -1.0]), np.array([0.0, 0.0]))


@given(st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_inverse_map_zero_below_threshold(w):
    imap = ZibtInverseMap(
        threshold=-0.5,
        omega_anchors=np.array([-0.5, 0.0, 1.0, 2.0]),
        value_anchors=np.array([0.1, 0.4, 0.8, 0.9]),
    )
    out = float(imap.apply(w))
    if w <= -0.5:
        assert out == 0.0
    else:
        assert 0.1 <= out <= 0.9


def test_inverse_map_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ZibtInverseMap(0.0, np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="positive"):
        ZibtInverseMap(0.0, np.array([0.0, 1.0]), np.array([-1.0, 2.0]))


def test_corruption_preserves_zero_pattern_and_range():
    truth = make_ground_truth("zicar", 3, seed=4)
    train = sample_dataset(truth, 2_000, seed=1)
    test = sample_dataset(truth, 500, seed=2)
    bad = corrupt(test, train, seed=7)
    np.testing.assert_array_equal(bad == 0, test == 0)
    for j in range(3):
        pos = train[train[:, j] > 0, j]
        lo, hi = np.percentile(pos, [1.0, 99.0])
        vals = bad[bad[:, j] > 0, j]
        assert ((vals >= lo) & (vals <= hi)).all()


def test_corrupted_columns_are_uncorrelated():
    truth = make_ground_truth("zibt", 2, seed=3)
    train = sample_dataset(truth, 4_000, seed=1)
    test = sample_dataset(truth, 4_000, seed=2)
    bad = corrupt(test, train, seed=5)
    both = (bad[:, 0] > 0) & (bad[:, 1] > 0)
    r = np.corrcoef(bad[both, 0], bad[both, 1])[0, 1]
    assert abs(r) <= 0.05


def test_corruption_needs_positive_training_values():
    train = np.zeros((100, 2))
    train[:, 0] = 1.0
    with pytest.raises(DataError, match="column 2"):
        corrupt(np.ones((5, 2)), train)
    with pytest.raises(DataError, match="columns"):
        corrupt(np.ones((5, 3)), np.ones((100, 2)))


def test_auc_hand_counted_example():
    assert auc([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(7.0 / 9.0)


def test_auc_extremes_and_ties():
    assert auc([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert auc([3.0, 4.0], [1.0, 2.0]) == 0.0
    assert auc([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auc_random_scores_near_half():
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.normal(size=5_000)
    b = rng.normal(size=5_000)
    assert auc(a, b) == pytest.approx(0.5, abs=0.02)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.Generator(np.random.PCG64(1))
    normal = rng.normal(size=300)
    abnormal = rng.normal(loc=0.5, size=300)
    base = auc(normal, abnormal)
    assert auc(3.0 * normal + 2.0, 3.0 * abnormal + 2.0) == pytest.approx(base)


def test_sigma_l2_error_value_and_validation():
    est = np.eye(2)
    ref = np.eye(2) + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert sigma_l2_error(est, ref) == pytest.approx(math.sqrt(0.02))
    with pytest.raises(ValueError, match="shape"):
        sigma_l2_error(np.eye(2), np.eye(3))


def test_presets_match_protocol():
    assert PRESETS["paper"].n_train == 10_000
    assert PRESETS["paper"].n_test == 5_000
    assert len(PRESETS["paper"].seeds) == 15
    assert PRESETS["desk"].n_train == 2_000
    assert PRESETS["desk"].n_test == 1_000
    assert len(PRESETS["desk"].seeds) == 5


def test_run_benchmark_rejects_unknowns():
    with pytest.raises(ValueError, match="preset"):
        run_benchmark("zibt", 2, preset="huge")
    with pytest.raises(ValueError, match="tag"):
        run_benchmark("zibt", 2, variants=("zibt-fancy",), seeds=(0,))


def test_run_benchmark_refuses_rbm_masks_past_their_width_before_drawing(monkeypatch):
    class Reached(Exception):
        pass

    def stand_in(*args):
        raise Reached

    monkeypatch.setattr(synth_bench, "make_ground_truth", stand_in)
    for kind in ("zibt", "zicar"):
        with pytest.raises(DataError) as refused:
            run_benchmark(kind, 13, seeds=(0,))
        message = str(refused.value)
        assert "zicar-full" in message and "--variants" in message and "--mask" not in message
        assert ("zicar-no-mle" in message) == (kind == "zicar")
    with pytest.raises(DataError, match="^zicar-no-mle: "):
        run_benchmark("zicar", 13, variants=("gmm", "zicar-no-mle"), seeds=(0,))
    # Without an RBM mask, or at twelve columns, the run goes on to draw data.
    with pytest.raises(Reached):
        run_benchmark("zicar", 13, variants=("zicar-no-rbm", "zibt-full"), seeds=(0,))
    with pytest.raises(Reached):
        run_benchmark("zicar", 12, seeds=(0,))


def test_run_benchmark_rows_and_determinism():
    kwargs = dict(
        kind="zibt",
        dim=2,
        preset="desk",
        variants=("zibt-approx", "gmm"),
        seeds=(0,),
    )
    rows = run_benchmark(**kwargs)
    again = run_benchmark(**kwargs)
    assert [r.model_tag for r in rows] == ["zibt-approx", "gmm"]
    for r, s in zip(rows, again):
        assert r.model_tag == s.model_tag and r.seed == s.seed
        assert r.auc == s.auc
        assert 0.0 <= r.auc <= 1.0
        assert (
            math.isnan(r.sigma_l2_error)
            and math.isnan(s.sigma_l2_error)
            or r.sigma_l2_error == s.sigma_l2_error
        )
    assert math.isfinite(rows[0].sigma_l2_error)
    assert math.isnan(rows[1].sigma_l2_error)


def _alone(kind, tag, dim, seed, n_train, n_test, mc_samples) -> BenchResult:
    """One benchmark variant fitted and scored on its own through the public
    fit_* and *_loglik_rows, following the benchmark protocol step by step."""
    truth = make_ground_truth(kind, dim, seed)
    train = sample_dataset(truth, n_train, sub_seed(seed, 1))
    normal = sample_dataset(truth, n_test, sub_seed(seed, 2))
    abnormal = corrupt(normal, train, sub_seed(seed, 3))
    val = sample_dataset(truth, n_test, sub_seed(seed, 9))
    sigma = None
    if tag.startswith("zibt"):
        bw = max(BANDWIDTH_GRID, key=lambda b: float(zibt_loglik_rows(
            fit_zibt(train, likelihood_mode="approx", bandwidth_scale=b), val).mean()))
        model = fit_zibt(
            train,
            use_mle_sigma=tag != "zibt-no-mle",
            likelihood_mode="approx" if tag == "zibt-approx" else "exact",
            bandwidth_scale=bw,
        )
        nll_n = -zibt_loglik_rows(model, normal, mc_samples, sub_seed(seed, 5))
        nll_a = -zibt_loglik_rows(model, abnormal, mc_samples, sub_seed(seed, 6))
        sigma = model.copula.sigma
    elif tag.startswith("zicar"):
        bw = max(BANDWIDTH_GRID, key=lambda b: float(zicar_loglik_rows(
            fit_zicar(train, mask_kind="bernoulli", bandwidth_scale=b), val).mean()))
        model = fit_zicar(
            train,
            mask_kind="bernoulli" if tag == "zicar-no-rbm" else "rbm",
            use_mle_sigma=tag != "zicar-no-mle",
            seed=sub_seed(seed, 4),
            bandwidth_scale=bw,
        )
        nll_n, nll_a = -zicar_loglik_rows(model, normal), -zicar_loglik_rows(model, abnormal)
        sigma = model.sigma
    elif tag == "gmm":
        model = tune_gmm(train, seed=sub_seed(seed, 7))
        nll_n, nll_a = -gmm_loglik_rows(model, normal), -gmm_loglik_rows(model, abnormal)
    else:
        model = tune_kde(train, seed=sub_seed(seed, 8))
        nll_n, nll_a = -kde_loglik_rows(model, normal), -kde_loglik_rows(model, abnormal)
    err = float("nan") if sigma is None else sigma_l2_error(sigma, truth.sigma_true)
    return BenchResult(tag, kind, dim, seed, auc(nll_n, nll_a), err)


@pytest.mark.parametrize("kind, single", [("zibt", "zibt-no-mle"), ("zicar", "zibt-full")])
def test_shared_bench_rows_equal_independent_fits(kind, single):
    # The benchmark shares column fits, marginal terms and zibt fits across
    # variants; each row must still be exactly what fitting it alone gives,
    # whatever else ran before it.
    size = dict(dim=3, seed=0, n_train=300, n_test=150, mc_samples=256)
    rows = _bench_one_seed(kind, variants=default_variants(kind), **size)
    assert [r.model_tag for r in rows] == list(default_variants(kind))
    for row in rows:
        np.testing.assert_equal(
            dataclasses.astuple(row), dataclasses.astuple(_alone(kind, row.model_tag, **size))
        )
    (alone,) = _bench_one_seed(kind, variants=(single,), **size)
    (shared,) = [r for r in rows if r.model_tag == single]
    np.testing.assert_equal(dataclasses.astuple(alone), dataclasses.astuple(shared))


def test_bench_fits_the_rbm_mask_once_per_seed(monkeypatch):
    # zicar-full and zicar-no-mle fit the same RBM (same binarised rows, same
    # seed); the bench fits it once and both rows equal their own fits.
    from zicopula import zicar_model

    calls = []
    fit_rbm = zicar_model.fit_rbm
    monkeypatch.setattr(
        zicar_model, "fit_rbm", lambda *a, **k: calls.append(1) or fit_rbm(*a, **k)
    )
    size = dict(dim=3, seed=0, n_train=300, n_test=150, mc_samples=256)
    tags = ("zicar-full", "zicar-no-rbm", "zicar-no-mle")
    rows = _bench_one_seed("zicar", variants=tags, **size)
    assert len(calls) == 1
    for row in rows:
        np.testing.assert_equal(
            dataclasses.astuple(row), dataclasses.astuple(_alone("zicar", row.model_tag, **size))
        )



# Calls one default-variant seed makes at n_train=300, n_test=150, D = 3,
# measured on the runner that kept its shared fits in a keyed cache dict.
_SEED_WORK = {
    "zibt": {"fit_positive_terms": 4, "PositiveTerms": 12, "fit_zibt_copula": 5,
             "zicar sigma": 5, "fit_rbm": 1, "tune_gmm": 1, "tune_kde": 1},
    "zicar": {"fit_positive_terms": 4, "PositiveTerms": 10, "fit_zibt_copula": 4,
              "zicar sigma": 7, "fit_rbm": 1, "tune_gmm": 1, "tune_kde": 1},
}


@pytest.mark.parametrize("kind", ["zibt", "zicar"])
def test_bench_seed_fits_each_shared_stage_as_often_as_before(kind, monkeypatch):
    from zicopula import marginals, synth_bench, zicar_model

    calls = []

    def counted(module, name, label=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(label or name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("fit_positive_terms", "fit_zibt_copula", "tune_gmm", "tune_kde"):
        counted(synth_bench, name)
    for name in ("_sigma_from_joint_positives", "_sigma_from_all_rows"):
        counted(zicar_model, name, "zicar sigma")
    counted(zicar_model, "fit_rbm")
    counted(marginals.PositiveTerms, "__init__", "PositiveTerms")
    _bench_one_seed(kind, 3, 0, 300, 150, default_variants(kind), 256)
    assert {label: calls.count(label) for label in set(calls)} == _SEED_WORK[kind]
