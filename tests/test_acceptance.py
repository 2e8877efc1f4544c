"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single CRITERION line on success (visible with -s or -rA);
a failed assert leaves the criterion marked FAILED by pytest itself.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from zicopula.baselines import (
    gmm_loglik_rows,
    kde_loglik_rows,
    tune_gmm,
    tune_kde,
)
from zicopula.cli import main as cli_main
from zicopula.cli import read_data_csv
from zicopula.marginals import PositiveTerms, fit_columns, positive_logpdf
from zicopula.mask_model import (
    BernoulliMask,
    RbmMask,
    compute_log_z,
    enumerate_states,
    mask_logprob_rows,
)
from zicopula.rgd_copula import (
    RgdParams,
    ZeroPattern,
    estimate_rho,
    pair_loglik,
    sample_rgd,
)
from zicopula.stat_core import (
    bivariate_normal_cdf,
    mvn_logpdf,
    std_normal_cdf,
    std_normal_quantile,
)
from zicopula.synth_bench import (
    BANDWIDTH_GRID,
    auc,
    corrupt,
    make_ground_truth,
    run_benchmark,
    sample_dataset,
)
from zicopula.zibt_model import fit_zibt, zero_pattern_prob, zibt_loglik_rows
from zicopula.zicar_model import fit_zicar, zicar_loglik_rows

REPO_ROOT = Path(__file__).resolve().parents[1]
STANDIN_CSV = REPO_ROOT / "data" / "credit_standin.csv"


def _gl_nodes(lo, hi, n):
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * (t + 1.0) + lo, 0.5 * (hi - lo) * w


def test_criterion_1_numeric_primitives():
    p = np.linspace(1e-9, 1.0 - 1e-9, 2001)
    p_err = np.abs(std_normal_cdf(std_normal_quantile(p)) - p).max()
    # Beyond |x| ~ 5.2 the spacing of doubles near Phi(x) ~ 1 divided by
    # phi(x) exceeds 1e-9, so no double implementation can round-trip there.
    x = np.linspace(-5.0, 5.0, 2001)
    x_err = np.abs(std_normal_quantile(std_normal_cdf(x)) - x).max()
    assert p_err <= 1e-9
    assert x_err <= 1e-9

    closed_form = 0.25 + math.asin(0.5) / (2.0 * math.pi)
    phi2_err = abs(bivariate_normal_cdf(0.0, 0.0, 0.5) - closed_form)
    assert phi2_err <= 1e-8

    u, w = _gl_nodes(-8.0, 8.0, 160)
    g0, g1 = np.meshgrid(u, u, indexing="ij")
    sigma = np.array([[1.0, 0.7], [0.7, 1.0]])
    dens = np.exp(
        mvn_logpdf(np.column_stack([g0.ravel(), g1.ravel()]), sigma)
    ).reshape(g0.shape)
    mass_err = abs(float((np.outer(w, w) * dens).sum()) - 1.0)
    assert mass_err <= 1e-4
    print(
        f"CRITERION 1: PASS - roundtrip {max(p_err, x_err):.1e}, "
        f"closed-form {phi2_err:.1e}, quadrature {mass_err:.1e}"
    )


def test_criterion_2_rectified_distribution():
    n = 200_000
    rho, a0, a1 = 0.5, -0.3, 0.4
    params = RgdParams(sigma=np.array([[1.0, rho], [rho, 1.0]]), a=np.array([a0, a1]))
    w = sample_rgd(params, n, seed=0)
    p_both = bivariate_normal_cdf(a0, a1, rho)
    p_only0 = std_normal_cdf(a0) - p_both
    p_only1 = std_normal_cdf(a1) - p_both
    checks = [
        (((w[:, 0] == a0) & (w[:, 1] == a1)).mean(), p_both),
        (((w[:, 0] == a0) & (w[:, 1] > a1)).mean(), p_only0),
        (((w[:, 0] > a0) & (w[:, 1] == a1)).mean(), p_only1),
    ]
    worst_z = 0.0
    for emp, prob in checks:
        se = math.sqrt(prob * (1.0 - prob) / n)
        worst_z = max(worst_z, abs(emp - prob) / se)
    assert worst_z <= 3.0

    sigma3 = np.array([[1.0, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 1.0]])
    a3 = np.array([0.2, -0.4, 0.1])
    keep = [0, 2]
    big = sample_rgd(RgdParams(sigma=sigma3, a=a3), 10_000, seed=1)[:, keep]
    sub = sample_rgd(
        RgdParams(sigma=sigma3[np.ix_(keep, keep)], a=a3[keep]), 10_000, seed=2
    )
    worst_ks_p = 1.0
    for j, aj in enumerate(a3[keep]):
        r1 = (big[:, j] == aj).mean()
        r2 = (sub[:, j] == aj).mean()
        pool = 0.5 * (r1 + r2)
        z = abs(r1 - r2) / math.sqrt(pool * (1.0 - pool) * 2.0 / 10_000)
        assert z <= 3.0
        ks = ks_2samp(big[big[:, j] > aj, j], sub[sub[:, j] > aj, j])
        worst_ks_p = min(worst_ks_p, ks.pvalue)
        assert ks.pvalue > 0.01

    worst_mass = 0.0
    for rho_c, ai, aj in [(0.5, -0.5, 0.5), (-0.6, 0.3, 0.3), (0.0, 0.0, -0.2)]:
        total = math.exp(pair_loglik(ai, aj, rho_c, ai, aj))
        ti, wi = _gl_nodes(ai, 9.0, 200)
        tj, wj = _gl_nodes(aj, 9.0, 200)
        total += sum(
            wgt * math.exp(pair_loglik(ai, t, rho_c, ai, aj))
            for t, wgt in zip(tj, wj)
        )
        total += sum(
            wgt * math.exp(pair_loglik(t, aj, rho_c, ai, aj))
            for t, wgt in zip(ti, wi)
        )
        ti, wi = _gl_nodes(ai, 9.0, 120)
        tj, wj = _gl_nodes(aj, 9.0, 120)
        dens = np.array(
            [[pair_loglik(x, y, rho_c, ai, aj) for y in tj] for x in ti]
        )
        total += float(wi @ np.exp(dens) @ wj)
        worst_mass = max(worst_mass, abs(total - 1.0))
        assert abs(total - 1.0) <= 1e-4
    print(
        f"CRITERION 2: PASS - rectified-mass worst z={worst_z:.2f}, "
        f"marginalizability worst KS p={worst_ks_p:.3f}, "
        f"four-branch mass err {worst_mass:.1e}"
    )


def test_criterion_3_pairwise_mle_recovery():
    worst = 0.0
    for rho_star in (-0.6, 0.0, 0.6):
        for a in ((-0.5, 0.5), (0.5, 0.5)):
            params = RgdParams(
                sigma=np.array([[1.0, rho_star], [rho_star, 1.0]]),
                a=np.array(a),
            )
            w = sample_rgd(params, 10_000, seed=42)
            rho_hat = estimate_rho(w[:, 0], w[:, 1], a[0], a[1])
            worst = max(worst, abs(rho_hat - rho_star))
            assert abs(rho_hat - rho_star) <= 0.05

    rho_star = 0.6
    truth = np.array([[1.0, rho_star], [rho_star, 1.0]])
    wins = 0
    for seed in range(5):
        params = RgdParams(sigma=truth, a=np.array([-0.5, 0.5]))
        w = sample_rgd(params, 10_000, seed=seed)
        rho_mle = estimate_rho(w[:, 0], w[:, 1], -0.5, 0.5)
        rho_ties = float(np.corrcoef(w[:, 0], w[:, 1])[0, 1])
        err_mle = np.linalg.norm(
            np.array([[1.0, rho_mle], [rho_mle, 1.0]]) - truth
        )
        err_ties = np.linalg.norm(
            np.array([[1.0, rho_ties], [rho_ties, 1.0]]) - truth
        )
        wins += err_mle < err_ties
    assert wins >= 4
    print(
        f"CRITERION 3: PASS - worst |rho_hat - rho*| = {worst:.4f}, "
        f"MLE beats tied correlation in {wins}/5 seeds"
    )


@pytest.fixture(scope="session")
def desk_means():
    """Mean AUC per model tag at desk scale (D=5, 2000 train, 5 seeds)."""
    means = {}
    for kind in ("zicar", "zibt"):
        rows = run_benchmark(kind, 5, preset="desk")
        by_tag = {}
        for row in rows:
            by_tag.setdefault(row.model_tag, []).append(row.auc)
        means[kind] = {tag: float(np.mean(v)) for tag, v in by_tag.items()}
    return means


def test_criterion_4_desk_scale_ordering(desk_means):
    zibt = desk_means["zibt"]
    zicar = desk_means["zicar"]
    assert zibt["zibt-full"] >= zibt["zicar-full"] + 0.02
    assert zibt["zibt-full"] >= max(zibt["gmm"], zibt["kde"]) + 0.02
    assert zicar["zicar-full"] >= zicar["zibt-full"] + 0.02
    assert zicar["zicar-full"] >= max(zicar["gmm"], zicar["kde"]) + 0.02
    print(
        "CRITERION 4: PASS - zibt data: "
        f"zibt-full {zibt['zibt-full']:.4f} vs zicar-full {zibt['zicar-full']:.4f}, "
        f"gmm {zibt['gmm']:.4f}, kde {zibt['kde']:.4f}; zicar data: "
        f"zicar-full {zicar['zicar-full']:.4f} vs zibt-full {zicar['zibt-full']:.4f}, "
        f"gmm {zicar['gmm']:.4f}, kde {zicar['kde']:.4f}"
    )


def test_criterion_5_ablation_directions(desk_means):
    zibt = desk_means["zibt"]
    zicar = desk_means["zicar"]
    assert zibt["zibt-no-mle"] < zibt["zibt-full"]
    assert zicar["zicar-no-mle"] < zicar["zicar-full"]

    exact = zibt["zibt-full"]
    approx = zibt["zibt-approx"]
    within_band = approx >= exact - 0.05
    exact_ahead = exact > approx
    assert within_band or exact_ahead
    if within_band:
        branch = f"approx within 0.05 of exact ({approx:.4f} vs {exact:.4f})"
    else:
        branch = f"exact ahead of approx ({exact:.4f} vs {approx:.4f})"
    print(
        "CRITERION 5: PASS - MLE removal drops AUC "
        f"(zibt {zibt['zibt-full']:.4f}->{zibt['zibt-no-mle']:.4f}, "
        f"zicar {zicar['zicar-full']:.4f}->{zicar['zicar-no-mle']:.4f}); "
        f"approx-mode branch recorded: {branch}"
    )


def _bivariate_total_mass(loglik_rows, model, train, hi_pad, nodes):
    hi = [train[:, j].max() * 2.0 + hi_pad for j in range(2)]
    p00 = float(np.exp(loglik_rows(model, np.zeros((1, 2)))[0]))
    u0, w0 = _gl_nodes(0.0, hi[0], nodes)
    u1, w1 = _gl_nodes(0.0, hi[1], nodes)
    line0 = float(
        np.sum(
            w1
            * np.exp(loglik_rows(model, np.column_stack([np.zeros_like(u1), u1])))
        )
    )
    line1 = float(
        np.sum(
            w0
            * np.exp(loglik_rows(model, np.column_stack([u0, np.zeros_like(u0)])))
        )
    )
    g0, g1 = np.meshgrid(u0, u1, indexing="ij")
    dens = np.exp(
        loglik_rows(model, np.column_stack([g0.ravel(), g1.ravel()]))
    ).reshape(g0.shape)
    quadrant = float((np.outer(w0, w1) * dens).sum())
    return p00 + line0 + line1 + quadrant


def test_criterion_6_normalization_suite():
    truth = make_ground_truth("zicar", 2, seed=7)
    x = sample_dataset(truth, 2000, seed=11)
    zicar = fit_zicar(x)
    zicar_mass = _bivariate_total_mass(zicar_loglik_rows, zicar, x, 6.0, 160)
    assert zicar_mass == pytest.approx(1.0, abs=2e-3)

    truth = make_ground_truth("zibt", 2, seed=3)
    x = sample_dataset(truth, 2000, seed=5)
    zibt = fit_zibt(x, likelihood_mode="exact")
    zibt_mass = _bivariate_total_mass(zibt_loglik_rows, zibt, x, 8.0, 140)
    assert zibt_mass == pytest.approx(1.0, abs=2e-3)

    rng = np.random.default_rng(0)
    states = enumerate_states(10)
    bern = BernoulliMask(q=rng.uniform(0.05, 0.6, size=10))
    bern_err = abs(float(np.exp(mask_logprob_rows(bern, states)).sum()) - 1.0)
    assert bern_err <= 1e-10
    weights = rng.normal(0.0, 0.2, size=(10, 6))
    visible = rng.normal(0.0, 0.3, size=10)
    hidden = rng.normal(0.0, 0.3, size=6)
    rbm = RbmMask(
        weights=weights,
        visible_bias=visible,
        hidden_bias=hidden,
        log_z=compute_log_z(weights, visible, hidden),
    )
    rbm_err = abs(float(np.exp(mask_logprob_rows(rbm, states)).sum()) - 1.0)
    assert rbm_err <= 1e-10

    truth = make_ground_truth("zibt", 3, seed=1)
    x3 = sample_dataset(truth, 2000, seed=2)
    m3 = fit_zibt(x3, likelihood_mode="exact")
    total = 0.0
    for bits in itertools.product((0, 1), repeat=3):
        zero = tuple(i for i, b in enumerate(bits) if b == 0)
        pos = tuple(i for i, b in enumerate(bits) if b == 1)
        total += zero_pattern_prob(m3, ZeroPattern(zero_set=zero, positive_set=pos), seed=0)
    # A shared seed makes the Monte Carlo estimates partition the same draws,
    # so the sum is exact rather than merely within 3 sigma.
    pattern_err = abs(total - 1.0)
    assert pattern_err <= 1e-9
    print(
        f"CRITERION 6: PASS - bivariate mass zicar {zicar_mass:.6f} / "
        f"zibt {zibt_mass:.6f}, mask sums {max(bern_err, rbm_err):.1e}, "
        f"D=3 pattern sum err {pattern_err:.1e}"
    )


def test_criterion_7_rescaling_contract():
    worst = 0.0
    for kind in ("zicar", "zibt"):
        truth = make_ground_truth(kind, 4, seed=9)
        data = sample_dataset(truth, 3000, seed=13)
        terms = PositiveTerms(fit_columns(data), data)
        for j, marginal in enumerate(terms.models):
            col = terms.scaled[:, j]
            offset = float(positive_logpdf(marginal, col[col > 0]).mean())
            worst = max(worst, abs(offset))
            assert abs(offset) <= 0.05
    print(f"CRITERION 7: PASS - worst per-column mean log density {worst:.1e}")


def _real_credit_path():
    env = os.environ.get("ZICOPULA_UCI_CSV")
    if env:
        return Path(env)
    return REPO_ROOT / "data" / "UCI_Credit_Card.csv"


def _tuned_zibt(train, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(train.shape[0])
    cut = int(round(train.shape[0] * 0.8))
    fit_part, val_part = train[order[:cut]], train[order[cut:]]
    best_bw, best_ll = None, -np.inf
    for bw in BANDWIDTH_GRID:
        candidate = fit_zibt(fit_part, likelihood_mode="approx", bandwidth_scale=bw)
        ll = float(zibt_loglik_rows(candidate, val_part).mean())
        if ll > best_ll:
            best_bw, best_ll = bw, ll
    return fit_zibt(train, likelihood_mode="exact", bandwidth_scale=best_bw)


def test_criterion_8_credit_pipeline(tmp_path):
    real = _real_credit_path()
    if real.exists():
        aucs = {"zibt": [], "gmm": [], "kde": []}
        n_train = n_test = None
        for seed in range(5):
            train_csv = tmp_path / f"train{seed}.csv"
            test_csv = tmp_path / f"test{seed}.csv"
            rc = cli_main(
                [
                    "ingest-credit",
                    "--raw",
                    str(real),
                    "--small",
                    "--out-train",
                    str(train_csv),
                    "--out-test",
                    str(test_csv),
                    "--seed",
                    str(seed),
                ]
            )
            assert rc == 0
            train = read_data_csv(train_csv)
            test = read_data_csv(test_csv)
            n_train, n_test = train.shape[0], test.shape[0]
            assert (train >= 0).all() and (test >= 0).all()
            abnormal = corrupt(test.copy(), train, seed=1000 + seed)

            model = _tuned_zibt(train, seed)
            nll_n = -zibt_loglik_rows(model, test, base_seed=seed)
            nll_a = -zibt_loglik_rows(model, abnormal, base_seed=seed + 500)
            aucs["zibt"].append(auc(nll_n, nll_a))
            gmm = tune_gmm(train, seed=seed)
            aucs["gmm"].append(
                auc(-gmm_loglik_rows(gmm, test), -gmm_loglik_rows(gmm, abnormal))
            )
            kde = tune_kde(train, seed=seed)
            aucs["kde"].append(
                auc(-kde_loglik_rows(kde, test), -kde_loglik_rows(kde, abnormal))
            )
        assert n_train == 21000 and n_test == 9000
        mean = {k: float(np.mean(v)) for k, v in aucs.items()}
        assert mean["zibt"] >= mean["gmm"]
        assert mean["zibt"] >= mean["kde"]
        print(
            "CRITERION 8: PASS - real-data branch, mean AUC "
            f"zibt {mean['zibt']:.4f} vs gmm {mean['gmm']:.4f} / "
            f"kde {mean['kde']:.4f} "
            f"(offset from 0.917 reference: {mean['zibt'] - 0.917:+.4f})"
        )
        return

    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    rc = cli_main(
        [
            "ingest-credit",
            "--raw",
            str(STANDIN_CSV),
            "--small",
            "--out-train",
            str(train_csv),
            "--out-test",
            str(test_csv),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    header = train_csv.read_text().splitlines()[0]
    assert header == "PAY_AMT1,BILL_AMT1"
    train = read_data_csv(train_csv)
    test = read_data_csv(test_csv)
    assert train.shape == (700, 2) and test.shape == (300, 2)
    assert (train >= 0).all() and (test >= 0).all()

    model_file = tmp_path / "model.json"
    rc = cli_main(
        [
            "fit",
            "--model",
            "zibt",
            "--likelihood",
            "exact",
            "--data",
            str(train_csv),
            "--out",
            str(model_file),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    scores_csv = tmp_path / "scores.csv"
    rc = cli_main(
        [
            "score",
            "--model",
            str(model_file),
            "--data",
            str(test_csv),
            "--out",
            str(scores_csv),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    scores = np.array(
        [float(v) for v in scores_csv.read_text().splitlines()[1:]]
    )
    assert scores.shape == (300,) and np.isfinite(scores).all()
    print(
        "CRITERION 8: PASS - stand-in branch (no real credit file), "
        "ingest 700/300, headers and clamping checked, "
        f"zibt fit and scored {scores.size} rows, all finite"
    )


def _run_twice(tmp_path, label, args_for):
    outputs = []
    for rep in (0, 1):
        paths = args_for(rep)
        rc = cli_main(paths["argv"])
        assert rc == 0, label
        outputs.append([Path(p).read_bytes() for p in paths["files"]])
    assert outputs[0] == outputs[1], label


def test_criterion_9_command_determinism(tmp_path):
    def synth_args(rep):
        out = tmp_path / f"synth{rep}.csv"
        return {
            "argv": [
                "synth", "--kind", "zibt", "--dim", "3", "--rows", "300",
                "--seed", "4", "--sample-seed", "9", "--out", str(out),
            ],
            "files": [out],
        }

    _run_twice(tmp_path, "synth", synth_args)
    data_csv = tmp_path / "synth0.csv"

    def fit_args(rep):
        out = tmp_path / f"zibt{rep}.json"
        return {
            "argv": [
                "fit", "--model", "zibt", "--likelihood", "exact",
                "--data", str(data_csv), "--out", str(out), "--seed", "0",
            ],
            "files": [out],
        }

    _run_twice(tmp_path, "fit zibt", fit_args)
    model_file = tmp_path / "zibt0.json"

    def score_args(rep):
        out = tmp_path / f"scores{rep}.csv"
        return {
            "argv": [
                "score", "--model", str(model_file), "--data", str(data_csv),
                "--out", str(out), "--seed", "3", "--mc-samples", "512",
            ],
            "files": [out],
        }

    _run_twice(tmp_path, "score zibt", score_args)

    def synth_zicar_args(rep):
        out = tmp_path / f"zicar_data{rep}.csv"
        return {
            "argv": [
                "synth", "--kind", "zicar", "--dim", "2", "--rows", "300",
                "--seed", "6", "--sample-seed", "2", "--out", str(out),
            ],
            "files": [out],
        }

    _run_twice(tmp_path, "synth zicar", synth_zicar_args)
    zicar_csv = tmp_path / "zicar_data0.csv"

    def fit_zicar_args(rep):
        out = tmp_path / f"zicar{rep}.json"
        return {
            "argv": [
                "fit", "--model", "zicar", "--mask", "rbm",
                "--data", str(zicar_csv), "--out", str(out), "--seed", "1",
            ],
            "files": [out],
        }

    _run_twice(tmp_path, "fit zicar", fit_zicar_args)
    zicar_model = tmp_path / "zicar0.json"

    def score_zicar_args(rep):
        out = tmp_path / f"zicar_scores{rep}.csv"
        return {
            "argv": [
                "score", "--model", str(zicar_model), "--data", str(zicar_csv),
                "--out", str(out), "--seed", "0",
            ],
            "files": [out],
        }

    _run_twice(tmp_path, "score zicar", score_zicar_args)

    def bench_args(rep):
        out = tmp_path / f"bench{rep}.csv"
        return {
            "argv": [
                "bench", "--kind", "zibt", "--dim", "2", "--preset", "desk",
                "--variants", "gmm", "--seeds", "0", "--seed", "0",
                "--out", str(out),
            ],
            "files": [out],
        }

    _run_twice(tmp_path, "bench", bench_args)

    def ingest_args(rep):
        out_train = tmp_path / f"ing_train{rep}.csv"
        out_test = tmp_path / f"ing_test{rep}.csv"
        return {
            "argv": [
                "ingest-credit", "--raw", str(STANDIN_CSV), "--small",
                "--out-train", str(out_train), "--out-test", str(out_test),
                "--seed", "5",
            ],
            "files": [out_train, out_test],
        }

    _run_twice(tmp_path, "ingest-credit", ingest_args)
    print(
        "CRITERION 9: PASS - synth, fit, score, bench, ingest-credit "
        "all byte-identical on rerun"
    )
