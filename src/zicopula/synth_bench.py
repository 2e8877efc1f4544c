"""Synthetic ground-truth generators, a corruption-based anomaly benchmark,
and the metrics used to compare models on it."""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from .baselines import gmm_loglik_rows, kde_loglik_rows, tune_gmm, tune_kde
from .errors import DataError
from .marginals import PositiveTerms, fit_positive_terms
from .mask_model import RbmMask, compute_log_z, enumerate_states, mask_logprob_rows
from .rgd_copula import DEFAULT_MC_SAMPLES
from .stat_core import std_normal_quantile, sub_seed
from .zibt_model import fit_zibt_copula, zibt_loglik_terms
from .zicar_model import fit_zicar_copula, zicar_loglik_terms

N_SIGMOID_COMPONENTS = 5
N_MAP_ANCHORS = 10_000

ZICAR_TAGS = ("zicar-full", "zicar-no-rbm", "zicar-no-mle")
ZIBT_TAGS = ("zibt-full", "zibt-approx", "zibt-no-mle")
BASELINE_TAGS = ("gmm", "kde")
ALL_TAGS = ZICAR_TAGS + ZIBT_TAGS + BASELINE_TAGS

BANDWIDTH_GRID = (0.25, 0.5, 1.0, 2.0)

RESULT_COLUMNS = ("model_tag", "kind", "D", "seed", "auc", "sigma_l2_error")


@dataclass(frozen=True)
class SigmoidMix:
    """Monotone map (0, 1)-valued: a convex mix of scaled logistic steps."""

    weights: np.ndarray
    slopes: np.ndarray
    centers: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.slopes, dtype=float)
        c = np.asarray(self.centers, dtype=float)
        if not (w.shape == b.shape == c.shape) or w.ndim != 1:
            raise ValueError("weights, slopes, centers must be equal-length vectors")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must form a probability vector")
        if (b <= 0).any() or not np.isfinite(b).all() or not np.isfinite(c).all():
            raise ValueError("slopes must be positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "slopes", b)
        object.__setattr__(self, "centers", c)

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = self.slopes * (x[..., None] - self.centers)
        return expit(z) @ self.weights


@dataclass(frozen=True)
class ZibtInverseMap:
    """Rectified latent coordinate to data value: the atom below `threshold`
    maps to zero, the rest interpolates between empirical quantile anchors."""

    threshold: float
    omega_anchors: np.ndarray
    value_anchors: np.ndarray

    def __post_init__(self) -> None:
        om = np.asarray(self.omega_anchors, dtype=float)
        val = np.asarray(self.value_anchors, dtype=float)
        if om.ndim != 1 or om.shape != val.shape or om.size < 2:
            raise ValueError("need matching 1-D anchor vectors with >= 2 points")
        if (np.diff(om) <= 0).any():
            raise ValueError("omega anchors must be strictly increasing")
        if (np.diff(val) < 0).any() or (val <= 0).any():
            raise ValueError("value anchors must be positive and nondecreasing")
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "omega_anchors", om)
        object.__setattr__(self, "value_anchors", val)

    def apply(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        out = np.interp(w, self.omega_anchors, self.value_anchors)
        return np.where(w <= self.threshold, 0.0, out)


@dataclass(frozen=True)
class GroundTruth:
    """Everything needed to draw benchmark data and judge recovered models."""

    kind: str
    sigma_true: np.ndarray
    monotone_maps: tuple
    mask_truth: object
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in ("zicar", "zibt"):
            raise ValueError("kind must be 'zicar' or 'zibt'")
        sigma = np.asarray(self.sigma_true, dtype=float)
        d = sigma.shape[0]
        if sigma.shape != (d, d) or not np.allclose(sigma, sigma.T, atol=1e-9):
            raise ValueError("sigma_true must be square and symmetric")
        if not np.allclose(np.diag(sigma), 1.0, atol=1e-9):
            raise ValueError("sigma_true must have unit diagonal")
        if len(self.monotone_maps) != d:
            raise ValueError("need one monotone map per dimension")
        want = SigmoidMix if self.kind == "zicar" else ZibtInverseMap
        if any(not isinstance(m, want) for m in self.monotone_maps):
            raise ValueError(f"{self.kind} maps must be {want.__name__}")
        if self.kind == "zicar" and self.mask_truth is None:
            raise ValueError("zicar ground truth needs a mask model")
        if self.kind == "zibt" and self.mask_truth is not None:
            raise ValueError("zibt ground truth carries no separate mask model")
        object.__setattr__(self, "sigma_true", sigma)
        object.__setattr__(self, "monotone_maps", tuple(self.monotone_maps))

    @property
    def dim(self) -> int:
        return self.sigma_true.shape[0]


def _wishart_correlation(dim: int, rng: np.random.Generator) -> np.ndarray:
    # Bartlett construction with identity scale and df = dim.
    a = np.zeros((dim, dim))
    diag_chi2 = rng.chisquare(dim - np.arange(dim))
    for i in range(dim):
        a[i, :i] = rng.standard_normal(i)
        a[i, i] = np.sqrt(diag_chi2[i])
    w = a @ a.T
    scale = np.sqrt(np.diag(w))
    return w / np.outer(scale, scale)


def _draw_sigmoid_mix(rng: np.random.Generator) -> SigmoidMix:
    return SigmoidMix(
        weights=rng.dirichlet(np.ones(N_SIGMOID_COMPONENTS)),
        slopes=rng.uniform(0.0, 2.0, N_SIGMOID_COMPONENTS),
        centers=rng.uniform(-5.0, 5.0, N_SIGMOID_COMPONENTS),
    )


def _draw_inverse_map(
    mix: SigmoidMix, zero_rate: float, rng: np.random.Generator
) -> ZibtInverseMap:
    anchors = mix.apply(rng.standard_normal(N_MAP_ANCHORS))
    keep = rng.random(N_MAP_ANCHORS) >= zero_rate
    positives = np.sort(anchors[keep])
    n_pos = positives.size
    q_hat = 1.0 - n_pos / N_MAP_ANCHORS
    probs = q_hat + (1.0 - q_hat) * (np.arange(1, n_pos + 1) - 0.5) / n_pos
    threshold = std_normal_quantile(q_hat) if q_hat > 0 else -np.inf
    return ZibtInverseMap(
        threshold=threshold,
        omega_anchors=std_normal_quantile(probs),
        value_anchors=positives,
    )


def make_ground_truth(kind: str, dim: int, seed: int = 0) -> GroundTruth:
    """Draw a random benchmark distribution of the requested family."""
    if kind not in ("zicar", "zibt"):
        raise ValueError("kind must be 'zicar' or 'zibt'")
    if dim < 1:
        raise ValueError("dim must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    sigma = _wishart_correlation(dim, rng)
    mixes = [_draw_sigmoid_mix(rng) for _ in range(dim)]

    if kind == "zicar":
        n_hidden = max(1, round(2.0 ** (dim / 2.0)))
        weights = 0.1 * rng.standard_normal((dim, n_hidden))
        hidden_bias = 0.1 * rng.standard_normal(n_hidden)
        visible_bias = 1.0 + 0.1 * rng.standard_normal(dim)
        mask = RbmMask(
            weights=weights,
            visible_bias=visible_bias,
            hidden_bias=hidden_bias,
            log_z=compute_log_z(weights, visible_bias, hidden_bias),
        )
        return GroundTruth(
            kind=kind,
            sigma_true=sigma,
            monotone_maps=tuple(mixes),
            mask_truth=mask,
            seed=seed,
        )

    zero_rates = rng.uniform(0.0, 0.5, dim)
    maps = tuple(
        _draw_inverse_map(mixes[i], zero_rates[i], rng) for i in range(dim)
    )
    return GroundTruth(
        kind=kind, sigma_true=sigma, monotone_maps=maps, mask_truth=None, seed=seed
    )


def sample_dataset(truth: GroundTruth, n: int, seed: int = 0) -> np.ndarray:
    """Draw n rows from the ground-truth distribution, bit-reproducibly."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    d = truth.dim
    chol = np.linalg.cholesky(truth.sigma_true)
    latent = rng.standard_normal((n, d)) @ chol.T

    if truth.kind == "zicar":
        parent = np.column_stack(
            [truth.monotone_maps[i].apply(latent[:, i]) for i in range(d)]
        )
        states = enumerate_states(d)
        probs = np.exp(mask_logprob_rows(truth.mask_truth, states))
        probs = probs / probs.sum()
        idx = rng.choice(states.shape[0], size=n, p=probs)
        return states[idx] * parent

    return np.column_stack(
        [truth.monotone_maps[i].apply(latent[:, i]) for i in range(d)]
    )


def corrupt(rows, train_rows, seed: int = 0) -> np.ndarray:
    """Resample every positive entry uniformly between the 1st and 99th
    percentile of the training positives in its column; zeros stay zeros."""
    x = np.asarray(rows, dtype=float)
    train = np.asarray(train_rows, dtype=float)
    if x.ndim != 2 or train.ndim != 2 or x.shape[1] != train.shape[1]:
        raise DataError("test and training matrices must share columns")
    rng = np.random.Generator(np.random.PCG64(seed))
    out = x.copy()
    for j in range(x.shape[1]):
        col_pos = train[train[:, j] > 0, j]
        if col_pos.size < 2:
            raise DataError(
                f"column {j + 1} has fewer than 2 positive training values"
            )
        lo, hi = np.percentile(col_pos, [1.0, 99.0])
        mask = x[:, j] > 0
        out[mask, j] = rng.uniform(lo, hi, size=int(mask.sum()))
    return out


def auc(normal_scores, abnormal_scores) -> float:
    """Rank-based AUC treating higher scores as more abnormal; ties get
    half credit via average ranks."""
    normal = np.asarray(normal_scores, dtype=float).ravel()
    abnormal = np.asarray(abnormal_scores, dtype=float).ravel()
    if normal.size == 0 or abnormal.size == 0:
        raise ValueError("both score sets must be nonempty")
    ranks = rankdata(np.concatenate([normal, abnormal]))
    m = abnormal.size
    u = ranks[normal.size :].sum() - m * (m + 1) / 2.0
    return float(u / (normal.size * m))


def sigma_l2_error(estimate, truth) -> float:
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(truth, dtype=float)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    return float(np.linalg.norm(est - ref))


@dataclass(frozen=True)
class BenchPreset:
    n_train: int
    n_test: int
    seeds: tuple


PRESETS = {
    "paper": BenchPreset(n_train=10_000, n_test=5_000, seeds=tuple(range(15))),
    "desk": BenchPreset(n_train=2_000, n_test=1_000, seeds=tuple(range(5))),
}


@dataclass(frozen=True)
class BenchResult:
    model_tag: str
    kind: str
    dim: int
    seed: int
    auc: float
    sigma_l2_error: float


def default_variants(kind: str) -> tuple:
    """Own-family ablations plus the best cross-family model and baselines."""
    if kind == "zicar":
        return ZICAR_TAGS + ("zibt-full",) + BASELINE_TAGS
    return ZIBT_TAGS + ("zicar-full",) + BASELINE_TAGS


def _terms(data: dict, name: str, bandwidth: float, cache: dict):
    """Marginal columns of one bandwidth, evaluated at one of the seed's data
    sets. Each bandwidth is fitted to "train" once and evaluated once per
    set; the bandwidth search, every variant and both families share the
    result."""
    key = ("terms", bandwidth, name)
    if key not in cache:
        if name == "train":
            cache[key] = fit_positive_terms(data["train"], bandwidth_scale=bandwidth)
        else:
            train = _terms(data, "train", bandwidth, cache)
            cache[key] = PositiveTerms(train.models, data[name])
    return cache[key]


def _zibt_base(data: dict, bandwidth: float, use_mle: bool, cache: dict):
    """The seed's approx-mode zibt fit of one configuration, shared by the
    bandwidth search and the zibt variants."""
    key = ("zibt", bandwidth, use_mle)
    if key not in cache:
        cache[key] = fit_zibt_copula(
            _terms(data, "train", bandwidth, cache), use_mle_sigma=use_mle
        )
    return cache[key]


def _zicar_model(tag: str, data: dict, bandwidth: float, seed: int, cache: dict):
    """The zicar variant's fit. The RBM mask law does not depend on sigma, so
    zicar-full and zicar-no-mle share the seed's one RBM fit."""
    train = _terms(data, "train", bandwidth, cache)
    use_mle = tag != "zicar-no-mle"
    key = ("rbm", bandwidth)
    if tag != "zicar-no-rbm" and key not in cache:
        model = fit_zicar_copula(
            train, mask_kind="rbm", use_mle_sigma=use_mle, seed=sub_seed(seed, 4)
        )
        cache[key] = model.mask
        return model
    model = fit_zicar_copula(train, mask_kind="bernoulli", use_mle_sigma=use_mle)
    return model if tag == "zicar-no-rbm" else dataclasses.replace(model, mask=cache[key])


def _tuned_bandwidth(family: str, data: dict, cache: dict) -> float:
    """Pick the marginal-KDE bandwidth multiplier by validation log-likelihood.
    Tuned once per family with the full configuration; ablations reuse it so
    each ablation changes exactly one ingredient."""
    key = ("bw", family)
    if key in cache:
        return cache[key]
    best_bw, best_ll = None, -np.inf
    for bw in BANDWIDTH_GRID:
        val = _terms(data, "val", bw, cache)
        if family == "zibt":
            candidate = _zibt_base(data, bw, True, cache)
            ll = float(zibt_loglik_terms(candidate, val).mean())
        else:
            train = _terms(data, "train", bw, cache)
            candidate = fit_zicar_copula(train, mask_kind="bernoulli")
            ll = float(zicar_loglik_terms(candidate, val).mean())
        if ll > best_ll:
            best_bw, best_ll = bw, ll
    cache[key] = best_bw
    return best_bw


def _fit_and_score(tag: str, data: dict, seed: int, mc_samples: int, cache: dict):
    """Returns (normal NLL rows, abnormal NLL rows, sigma estimate or None)."""
    if tag.startswith("zicar"):
        bw = _tuned_bandwidth("zicar", data, cache)
        model = _zicar_model(tag, data, bw, seed, cache)
        return (
            -zicar_loglik_terms(model, _terms(data, "normal", bw, cache)),
            -zicar_loglik_terms(model, _terms(data, "abnormal", bw, cache)),
            model.sigma,
        )
    if tag.startswith("zibt"):
        bw = _tuned_bandwidth("zibt", data, cache)
        model = _zibt_base(data, bw, tag != "zibt-no-mle", cache)
        if tag != "zibt-approx":
            model = dataclasses.replace(model, likelihood_mode="exact")
        return (
            -zibt_loglik_terms(
                model, _terms(data, "normal", bw, cache), mc_samples, sub_seed(seed, 5)
            ),
            -zibt_loglik_terms(
                model, _terms(data, "abnormal", bw, cache), mc_samples, sub_seed(seed, 6)
            ),
            model.sigma,
        )
    train, normal, abnormal = data["train"], data["normal"], data["abnormal"]
    if tag == "gmm":
        model = tune_gmm(train, seed=sub_seed(seed, 7))
        return -gmm_loglik_rows(model, normal), -gmm_loglik_rows(model, abnormal), None
    if tag == "kde":
        model = tune_kde(train, seed=sub_seed(seed, 8))
        return -kde_loglik_rows(model, normal), -kde_loglik_rows(model, abnormal), None
    raise ValueError(f"unknown model tag: {tag}")


def _bench_one_seed(
    kind: str,
    dim: int,
    seed: int,
    n_train: int,
    n_test: int,
    variants: tuple,
    mc_samples: int,
) -> list:
    truth = make_ground_truth(kind, dim, seed)
    train = sample_dataset(truth, n_train, sub_seed(seed, 1))
    normal = sample_dataset(truth, n_test, sub_seed(seed, 2))
    data = {
        "train": train,
        "normal": normal,
        "abnormal": corrupt(normal, train, sub_seed(seed, 3)),
        # Fresh draw for hyperparameter tuning, disjoint from train and test.
        "val": sample_dataset(truth, n_test, sub_seed(seed, 9)),
    }

    rows = []
    # Column fits, their terms, zibt fits and the RBM mask, shared by all
    # variants of the seed.
    cache: dict = {}
    for tag in variants:
        nll_n, nll_a, sigma_est = _fit_and_score(tag, data, seed, mc_samples, cache)
        err = (
            sigma_l2_error(sigma_est, truth.sigma_true)
            if sigma_est is not None
            else float("nan")
        )
        rows.append(
            BenchResult(
                model_tag=tag,
                kind=kind,
                dim=dim,
                seed=seed,
                auc=auc(nll_n, nll_a),
                sigma_l2_error=err,
            )
        )
    return rows


def run_benchmark(
    kind: str,
    dim: int,
    preset: str = "desk",
    variants=None,
    jobs: int = 1,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seeds=None,
) -> list:
    """Run the corruption benchmark and return one BenchResult per
    (variant, seed), in deterministic order."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset: {preset}")
    spec = PRESETS[preset]
    chosen = tuple(spec.seeds if seeds is None else seeds)
    tags = tuple(default_variants(kind) if variants is None else variants)
    unknown = [t for t in tags if t not in ALL_TAGS]
    if unknown:
        raise ValueError(f"unknown model tag: {unknown[0]}")

    args = [
        (kind, dim, s, spec.n_train, spec.n_test, tags, mc_samples) for s in chosen
    ]
    if jobs <= 1 or len(chosen) <= 1:
        per_seed = [_bench_one_seed(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(chosen))) as pool:
            futures = [pool.submit(_bench_one_seed, *a) for a in args]
            per_seed = [f.result() for f in futures]
    return [row for rows in per_seed for row in rows]


def write_results_csv(path, rows) -> None:
    """Append benchmark rows to a CSV, writing the header only when needed."""
    import csv
    import os

    need_header = not (os.path.exists(path) and os.path.getsize(path) > 0)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if need_header:
            writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.model_tag,
                    row.kind,
                    row.dim,
                    row.seed,
                    repr(float(row.auc)),
                    repr(float(row.sigma_l2_error)),
                ]
            )
