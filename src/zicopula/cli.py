"""Command-line surface: dataset CSV I/O, JSON model files, and the
fit / score / synth / bench / ingest-credit commands.

Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure. Expected
failures print a single ``ERR:<KIND> message`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from typing import Callable

import numpy as np

from .baselines import (
    GmmModel,
    KdeModel,
    fit_gmm,
    fit_kde_multi,
    gmm_loglik_rows,
    kde_loglik_rows,
    tune_gmm,
    tune_kde,
)
from .errors import DataError, NumericError
from .marginals import MarginalModel
from .mask_model import BernoulliMask, RbmMask, compute_log_z
from .rgd_copula import DEFAULT_MC_SAMPLES, RgdParams
from .synth_bench import (
    ALL_TAGS,
    PRESETS,
    default_variants,
    make_ground_truth,
    run_benchmark,
    sample_dataset,
    write_results_csv,
)
from .zibt_model import ZibtModel, fit_zibt, zibt_loglik_rows
from .zicar_model import ZicarModel, fit_zicar, zicar_loglik_rows

SCHEMA_VERSION = 1
ENV_SEED = "ZICOPULA_SEED"
ENV_UCI_CSV = "ZICOPULA_UCI_CSV"
DEFAULT_UCI_PATH = os.path.join("data", "UCI_Credit_Card.csv")

_PAY_COLUMNS = tuple(f"PAY_AMT{i}" for i in range(1, 7))
_BILL_COLUMNS = tuple(f"BILL_AMT{i}" for i in range(1, 7))
CREDIT_COLUMNS_FULL = _PAY_COLUMNS + _BILL_COLUMNS
CREDIT_COLUMNS_SMALL = ("PAY_AMT1", "BILL_AMT1")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# dataset CSV I/O


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {lineno}: could not parse {token.strip()!r} as a number")


def _blank(line: str) -> bool:
    """A line whose fields are all empty or whitespace."""
    return not line.replace(",", "").replace('"', "").strip()


def read_data_csv(path, clip_negatives: bool = False) -> np.ndarray:
    """Read a comma-separated matrix with a required header row.

    Blank lines are skipped. numpy parses the body in one call; when it
    rejects the body or a value is not allowed, the lines are scanned again
    in order to name the first bad one."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}")
    with fh:
        text = fh.read()
    records = [line for line in text.splitlines() if not _blank(line)]
    if not records:
        raise DataError(f"{path} is empty")
    header = [c.strip() for c in next(csv.reader(records[:1]))]
    if all(_is_number(c) for c in header):
        raise DataError("line 1: expected a header row, found numbers")
    if len(records) == 1:
        raise DataError(f"{path} has a header but no data rows")
    try:
        data = np.loadtxt(records[1:], delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:
        _raise_first_bad_line(text, len(header), clip_negatives)
        raise DataError(f"{path}: {exc}") from None
    bad = ~np.isfinite(data) | ((data < 0) & (not clip_negatives))
    if data.shape[1] != len(header) or bad.any():
        _raise_first_bad_line(text, len(header), clip_negatives)
    if clip_negatives:
        data = np.where(data > 0.0, data, 0.0)
    return data


def _raise_first_bad_line(text: str, width: int, clip_negatives: bool) -> None:
    """Raise DataError for the first body line with the wrong field count, a
    token that is not a number, a non-finite value or (unless clipped) a
    negative one."""
    reader = csv.reader(io.StringIO(text, newline=""))
    body = (
        (lineno, record)
        for lineno, record in enumerate(reader, start=1)
        if record and not all(c.strip() == "" for c in record)
    )
    next(body)  # the header
    for lineno, record in body:
        if len(record) != width:
            raise DataError(f"line {lineno}: expected {width} fields, got {len(record)}")
        for v in [_parse_float(c, lineno) for c in record]:
            if not math.isfinite(v):
                raise DataError(f"line {lineno}: non-finite value {v!r}")
            if v < 0 and not clip_negatives:
                raise DataError(
                    f"line {lineno}: negative value {v!r}; "
                    "pass --clip-negatives to replace it with 0"
                )


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _write_csv(path, header, matrix: np.ndarray) -> None:
    """A header line, then one line per row of a float matrix. csv writes a
    Python float as its repr, the shortest string that reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in matrix:
            writer.writerow(row.tolist())


def write_data_csv(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=float)
    _write_csv(path, [f"x{j + 1}" for j in range(matrix.shape[1])], matrix)


def write_scores_csv(path, scores: np.ndarray) -> None:
    _write_csv(path, ["nll"], np.asarray(scores, dtype=float).reshape(-1, 1))


# ---------------------------------------------------------------------------
# model files


def _finite_or_none(value: float):
    value = float(value)
    if math.isinf(value):
        if value > 0:
            raise ValueError("+inf has no serialized form")
        return None
    return value


def _threshold_from_json(value) -> float:
    return -math.inf if value is None else float(value)


def _marginal_to_dict(m: MarginalModel) -> dict:
    return {
        "q": float(m.q),
        "kde_centers": np.asarray(m.kde_centers, dtype=float).tolist(),
        "bandwidth": float(m.bandwidth),
        "rescale_b": float(m.rescale_b),
        "a": _finite_or_none(m.a),
    }


def _marginal_from_dict(d: dict) -> MarginalModel:
    return MarginalModel(
        q=float(d["q"]),
        kde_centers=np.asarray(d["kde_centers"], dtype=float),
        bandwidth=float(d["bandwidth"]),
        rescale_b=float(d["rescale_b"]),
        a=_threshold_from_json(d["a"]),
    )


def _fields_to_dict(obj) -> dict:
    """Every dataclass field of obj as (nested) lists of floats."""
    return {
        f.name: np.asarray(getattr(obj, f.name), dtype=float).tolist()
        for f in dataclasses.fields(obj)
    }


def _fields_from_dict(cls, d: dict):
    return cls(**{f.name: np.asarray(d[f.name], dtype=float) for f in dataclasses.fields(cls)})


_MASK_TYPES = {BernoulliMask: "bernoulli", RbmMask: "rbm"}


def _mask_to_dict(mask) -> dict:
    return {"type": _MASK_TYPES[type(mask)], **_fields_to_dict(mask)}


def _mask_from_dict(d: dict):
    if d["type"] == "bernoulli":
        return _fields_from_dict(BernoulliMask, d)
    if d["type"] != "rbm":
        raise DataError(f"unknown mask type: {d['type']!r}")
    mask = _fields_from_dict(RbmMask, d)
    recomputed = compute_log_z(mask.weights, mask.visible_bias, mask.hidden_bias)
    if abs(recomputed - mask.log_z) > 1e-9:
        raise DataError(
            "model file corrupt: stored log_Z "
            f"{mask.log_z!r} does not match its parameters ({recomputed!r})"
        )
    return mask


def _zicar_to_dict(model: ZicarModel) -> dict:
    return {
        "marginals": [_marginal_to_dict(m) for m in model.marginals],
        "mask": _mask_to_dict(model.mask),
        "sigma": model.sigma.tolist(),
        "rescales": model.rescales.tolist(),
    }


def _marginals_from_dict(d: dict) -> tuple[MarginalModel, ...]:
    """A copula model's marginals; its "rescales" list must repeat their
    rescale divisors exactly, since scoring reads only the marginals."""
    marginals = tuple(_marginal_from_dict(m) for m in d["marginals"])
    if [float(b) for b in d["rescales"]] != [m.rescale_b for m in marginals]:
        raise ValueError("rescales must equal the marginals' rescale_b")
    return marginals


def _zicar_from_dict(d: dict) -> ZicarModel:
    return ZicarModel(
        marginals=_marginals_from_dict(d),
        mask=_mask_from_dict(d["mask"]),
        sigma=np.asarray(d["sigma"], dtype=float),
    )


def _zibt_to_dict(model: ZibtModel) -> dict:
    return {
        "marginals": [_marginal_to_dict(m) for m in model.marginals],
        "sigma": model.copula.sigma.tolist(),
        "thresholds": [_finite_or_none(a) for a in model.copula.a],
        "rescales": model.rescales.tolist(),
        "likelihood_mode": model.likelihood_mode,
    }


def _zibt_from_dict(d: dict) -> ZibtModel:
    return ZibtModel(
        marginals=_marginals_from_dict(d),
        copula=RgdParams(
            sigma=np.asarray(d["sigma"], dtype=float),
            a=np.array([_threshold_from_json(v) for v in d["thresholds"]]),
        ),
        likelihood_mode=d["likelihood_mode"],
    )


def _fit_zicar(args, data) -> ZicarModel:
    return fit_zicar(
        data,
        mask_kind=args.mask,
        use_mle_sigma=not args.no_mle,
        n_hidden=args.n_hidden,
        seed=int(args.seed),
        bandwidth_scale=float(args.bandwidth_scale),
    )


def _fit_zibt(args, data) -> ZibtModel:
    return fit_zibt(
        data,
        use_mle_sigma=not args.no_mle,
        likelihood_mode=args.likelihood,
        bandwidth_scale=float(args.bandwidth_scale),
    )


def _fit_gmm(args, data) -> GmmModel:
    if args.k is None:
        return tune_gmm(data, seed=int(args.seed))
    return fit_gmm(data, int(args.k), seed=int(args.seed))


def _fit_kde(args, data) -> KdeModel:
    if args.bandwidth_mult is None:
        return tune_kde(data, seed=int(args.seed))
    return fit_kde_multi(data, multiplier=float(args.bandwidth_mult))


def _describe_copula(model, sigma) -> list:
    return [
        f"q: {_format_vector([m.q for m in model.marginals])}",
        f"sigma condition number: {np.linalg.cond(sigma):.6g}",
        f"rescale factors: {_format_vector(model.rescales)}",
    ]


@dataclasses.dataclass(frozen=True)
class _Kind:
    """Everything the command line does with one model kind."""

    type: type
    fit: Callable  # (args, data) -> model
    loglik_rows: Callable  # (model, data, args) -> log-likelihood per row
    describe: Callable  # model -> summary lines printed by fit
    to_dict: Callable  # model -> JSON fields besides schema_version and kind
    from_dict: Callable  # payload -> model


_KINDS = {
    "zicar": _Kind(
        type=ZicarModel,
        fit=_fit_zicar,
        loglik_rows=lambda model, data, args: zicar_loglik_rows(model, data),
        describe=lambda model: _describe_copula(model, model.sigma),
        to_dict=_zicar_to_dict,
        from_dict=_zicar_from_dict,
    ),
    "zibt": _Kind(
        type=ZibtModel,
        fit=_fit_zibt,
        loglik_rows=lambda model, data, args: zibt_loglik_rows(
            model, data, mc_samples=int(args.mc_samples), base_seed=int(args.seed)
        ),
        describe=lambda model: _describe_copula(model, model.copula.sigma),
        to_dict=_zibt_to_dict,
        from_dict=_zibt_from_dict,
    ),
    "gmm": _Kind(
        type=GmmModel,
        fit=_fit_gmm,
        loglik_rows=lambda model, data, args: gmm_loglik_rows(model, data),
        describe=lambda model: [
            f"components: {model.k}, weights: {_format_vector(model.weights)}"
        ],
        to_dict=_fields_to_dict,
        from_dict=lambda d: _fields_from_dict(GmmModel, d),
    ),
    "kde": _Kind(
        type=KdeModel,
        fit=_fit_kde,
        loglik_rows=lambda model, data, args: kde_loglik_rows(model, data),
        describe=lambda model: [f"bandwidths: {_format_vector(model.bandwidths)}"],
        to_dict=_fields_to_dict,
        from_dict=lambda d: _fields_from_dict(KdeModel, d),
    ),
}
_KIND_OF_TYPE = {entry.type: kind for kind, entry in _KINDS.items()}


def _entry(kind) -> _Kind | None:
    """Table entry of a kind name; None for unknown names and non-strings."""
    return _KINDS.get(kind) if isinstance(kind, str) else None


def _kind_of(model) -> str:
    kind = _KIND_OF_TYPE.get(type(model))
    if kind is None:
        raise ValueError(f"not a model: {type(model).__name__}")
    return kind


def model_to_dict(model) -> dict:
    kind = _kind_of(model)
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **_KINDS[kind].to_dict(model)}


def model_from_dict(payload) -> object:
    """Rebuild a model from its JSON payload; any malformed field is a DataError."""
    if not isinstance(payload, dict):
        raise DataError("model file must contain a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported schema_version: {version!r}")
    kind = payload.get("kind")
    entry = _entry(kind)
    if entry is None:
        raise DataError(f"unknown model kind: {kind!r}")
    try:
        return entry.from_dict(payload)
    except KeyError as exc:
        raise DataError(f"model file missing field: {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed {kind} model file: {exc}") from None


def save_model(path, model) -> None:
    payload = model_to_dict(model)
    # Without indent, json.dumps runs on the C encoder.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_model(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}")
    return model_from_dict(payload)


# ---------------------------------------------------------------------------
# config resolution


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise DataError(f"config file is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise DataError("config file must contain a JSON object")
    return config


def _resolve(args, defaults: dict, required: tuple = ()) -> None:
    """Apply precedence flags > config file > defaults (seed also falls back
    to the ZICOPULA_SEED environment variable)."""
    config = _load_config(getattr(args, "config", None))
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise DataError(f"config has unknown keys: {', '.join(unknown)}")
    for key, fallback in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, fallback))
    if getattr(args, "seed", None) is None:
        env = os.environ.get(ENV_SEED)
        if env is not None:
            try:
                args.seed = int(env)
            except ValueError:
                raise DataError(f"{ENV_SEED} must be an integer, got {env!r}")
        else:
            args.seed = 0
    for key in required:
        if getattr(args, key) is None:
            raise _UsageError(f"--{key.replace('_', '-')} is required")


def _format_vector(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in np.asarray(values)) + "]"


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args) -> None:
    _resolve(
        args,
        defaults={
            "data": None,
            "model": None,
            "out": None,
            "mask": "rbm",
            "likelihood": "approx",
            "no_mle": False,
            "bandwidth_scale": 1.0,
            "n_hidden": None,
            "k": None,
            "bandwidth_mult": None,
            "clip_negatives": False,
        },
        required=("data", "model", "out"),
    )
    data = read_data_csv(args.data, clip_negatives=args.clip_negatives)
    entry = _entry(args.model)
    if entry is None:
        raise _UsageError(f"unknown model kind: {args.model!r}")
    model = entry.fit(args, data)
    save_model(args.out, model)
    print(f"model: {args.model}")
    print(f"rows: {data.shape[0]}, columns: {data.shape[1]}")
    for line in entry.describe(model):
        print(line)
    print(f"wrote model to {args.out}")


def _check_mc_samples(args) -> None:
    if int(args.mc_samples) < 1:
        raise _UsageError("--mc-samples must be at least 1")


def cmd_score(args) -> None:
    _resolve(
        args,
        defaults={
            "model": None,
            "data": None,
            "out": None,
            "mc_samples": DEFAULT_MC_SAMPLES,
            "clip_negatives": False,
        },
        required=("model", "data", "out"),
    )
    _check_mc_samples(args)
    model = load_model(args.model)
    data = read_data_csv(args.data, clip_negatives=args.clip_negatives)
    nll = -_KINDS[_kind_of(model)].loglik_rows(model, data, args)
    write_scores_csv(args.out, nll)
    print(f"wrote {nll.size} scores to {args.out}")


def cmd_synth(args) -> None:
    _resolve(
        args,
        defaults={
            "kind": None,
            "dim": None,
            "rows": None,
            "out": None,
            "sample_seed": 0,
            "sigma_out": None,
        },
        required=("kind", "dim", "rows", "out"),
    )
    truth = make_ground_truth(args.kind, int(args.dim), seed=int(args.seed))
    data = sample_dataset(truth, int(args.rows), seed=int(args.sample_seed))
    write_data_csv(args.out, data)
    if args.sigma_out is not None:
        write_data_csv(args.sigma_out, truth.sigma_true)
    zero_share = float((data == 0).mean())
    print(f"wrote {data.shape[0]} rows of {args.kind} data to {args.out}")
    print(f"zero fraction: {zero_share:.4f}")


def cmd_bench(args) -> None:
    _resolve(
        args,
        defaults={
            "kind": None,
            "dim": None,
            "preset": "desk",
            "out": "results.csv",
            "jobs": 1,
            "mc_samples": DEFAULT_MC_SAMPLES,
            "variants": None,
            "seeds": None,
        },
        required=("kind", "dim"),
    )
    _check_mc_samples(args)
    variants = None
    if args.variants is not None:
        variants = tuple(t.strip() for t in str(args.variants).split(",") if t.strip())
        for tag in variants:
            if tag not in ALL_TAGS:
                raise _UsageError(
                    f"unknown variant {tag!r}; known: {', '.join(ALL_TAGS)}"
                )
    seeds = None
    if args.seeds is not None:
        try:
            seeds = tuple(int(t) for t in str(args.seeds).split(",") if t.strip())
        except ValueError:
            raise _UsageError(f"--seeds must be comma-separated integers")
        if not seeds:
            raise _UsageError("--seeds must name at least one seed")
    if args.preset not in PRESETS:
        raise _UsageError(f"unknown preset {args.preset!r}")

    rows = run_benchmark(
        args.kind,
        int(args.dim),
        preset=args.preset,
        variants=variants,
        jobs=int(args.jobs),
        mc_samples=int(args.mc_samples),
        seeds=seeds,
    )
    write_results_csv(args.out, rows)
    print(f"appended {len(rows)} rows to {args.out}")
    tags = variants if variants is not None else default_variants(args.kind)
    for tag in tags:
        aucs = [r.auc for r in rows if r.model_tag == tag]
        errs = [r.sigma_l2_error for r in rows if r.model_tag == tag]
        line = f"{tag}: mean AUC {np.mean(aucs):.4f}"
        if not all(math.isnan(e) for e in errs):
            line += f", mean sigma L2 error {np.mean(errs):.4f}"
        print(line)


def cmd_ingest_credit(args) -> None:
    _resolve(
        args,
        defaults={
            "raw": None,
            "out_train": None,
            "out_test": None,
            "small": False,
        },
        required=("out_train", "out_test"),
    )
    raw_path = args.raw
    if raw_path is None:
        raw_path = os.environ.get(ENV_UCI_CSV, DEFAULT_UCI_PATH)
    wanted = CREDIT_COLUMNS_SMALL if args.small else CREDIT_COLUMNS_FULL

    try:
        fh = open(raw_path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {raw_path}: {exc.strerror}")
    rows = []
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{raw_path} is empty")
        fields = [c.strip() for c in reader.fieldnames]
        missing = [c for c in wanted if c not in fields]
        if missing:
            raise DataError(f"missing columns: {', '.join(missing)}")
        for record in reader:
            lineno = reader.line_num
            values = [
                _parse_float(record[c], lineno) for c in wanted
            ]
            # The raw file carries a few negative amounts; the models need
            # nonnegative input, so they are clamped to zero.
            rows.append([max(0.0, v) for v in values])
    if not rows:
        raise DataError(f"{raw_path} has no data rows")

    matrix = np.array(rows, dtype=float)
    n = matrix.shape[0]
    n_train = 21_000 if n == 30_000 else int(round(0.7 * n))
    order = np.random.Generator(np.random.PCG64(int(args.seed))).permutation(n)

    _write_csv(args.out_train, wanted, matrix[order[:n_train]])
    _write_csv(args.out_test, wanted, matrix[order[n_train:]])
    print(f"read {n} rows from {raw_path}")
    print(f"train: {n_train} rows -> {args.out_train}")
    print(f"test: {n - n_train} rows -> {args.out_test}")


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def build_parser() -> _Parser:
    # Built once per process: parsing writes only to its own namespace.
    parser = _Parser(prog="zicopula", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON file supplying defaults for flags")
        p.add_argument("--seed", type=int, help=f"RNG seed (default ${ENV_SEED} or 0)")

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    common(p_fit)
    p_fit.add_argument("--data", help="training CSV (header row required)")
    p_fit.add_argument("--model", choices=tuple(_KINDS))
    p_fit.add_argument("--out", help="model file to write")
    p_fit.add_argument("--mask", choices=("bernoulli", "rbm"), help="zicar mask family")
    p_fit.add_argument("--likelihood", choices=("exact", "approx"), help="zibt scoring mode")
    p_fit.add_argument("--no-mle", action="store_true", default=None,
                       help="plain correlation instead of pairwise MLE")
    p_fit.add_argument("--bandwidth-scale", type=float,
                       help="marginal KDE bandwidth multiplier (default 1.0)")
    p_fit.add_argument("--n-hidden", type=int, help="RBM hidden units (default 2D)")
    p_fit.add_argument("--k", type=int, help="GMM components (default: tuned)")
    p_fit.add_argument("--bandwidth-mult", type=float,
                       help="KDE baseline bandwidth multiplier (default: tuned)")
    p_fit.add_argument("--clip-negatives", action="store_true", default=None,
                       help="replace negative inputs with 0 instead of failing")

    p_score = sub.add_parser("score", help="negative log-likelihood per row")
    common(p_score)
    p_score.add_argument("--model", help="model file from fit")
    p_score.add_argument("--data", help="CSV to score")
    p_score.add_argument("--out", help="scores CSV to write")
    p_score.add_argument("--mc-samples", type=int,
                         help="orthant estimator points per row with 3+ zeros, or "
                              "2 zeros below 1e-8, in exact zibt scoring "
                              f"(default {DEFAULT_MC_SAMPLES})")
    p_score.add_argument("--clip-negatives", action="store_true", default=None)

    p_synth = sub.add_parser("synth", help="draw a synthetic dataset")
    common(p_synth)
    p_synth.add_argument("--kind", choices=("zicar", "zibt"))
    p_synth.add_argument("--dim", type=int)
    p_synth.add_argument("--rows", type=int)
    p_synth.add_argument("--out", help="dataset CSV to write")
    p_synth.add_argument("--sample-seed", type=int,
                         help="seed for the draw itself (ground truth uses --seed)")
    p_synth.add_argument("--sigma-out", help="also write the true correlation matrix")

    p_bench = sub.add_parser("bench", help="corruption benchmark over seeds")
    common(p_bench)
    p_bench.add_argument("--kind", choices=("zicar", "zibt"))
    p_bench.add_argument("--dim", type=int)
    p_bench.add_argument("--preset", choices=tuple(PRESETS))
    p_bench.add_argument("--out", help="results CSV (appended; default results.csv)")
    p_bench.add_argument("--jobs", type=int, help="concurrent seeds (default 1)")
    p_bench.add_argument("--mc-samples", type=int,
                         help="orthant estimator points per row with 3+ zeros, or "
                              "2 zeros below 1e-8, for the exact zibt variants "
                              f"(default {DEFAULT_MC_SAMPLES})")
    p_bench.add_argument("--variants", help="comma-separated model tags")
    p_bench.add_argument("--seeds", help="comma-separated seed list (overrides preset)")

    p_ingest = sub.add_parser("ingest-credit", help="extract the credit-card columns")
    common(p_ingest)
    p_ingest.add_argument("--raw", help=f"raw CSV (default ${ENV_UCI_CSV} or {DEFAULT_UCI_PATH})")
    p_ingest.add_argument("--out-train", help="training CSV to write")
    p_ingest.add_argument("--out-test", help="test CSV to write")
    p_ingest.add_argument("--small", action="store_true", default=None,
                          help="keep only PAY_AMT1 and BILL_AMT1")

    return parser


_HANDLERS = {
    "fit": cmd_fit,
    "score": cmd_score,
    "synth": cmd_synth,
    "bench": cmd_bench,
    "ingest-credit": cmd_ingest_credit,
}


def _print_error(kind: str, message: str) -> None:
    flat = " ".join(str(message).splitlines())
    print(f"ERR:{kind} {flat}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required (fit, score, synth, bench, ingest-credit)")
        _HANDLERS[args.command](args)
        return 0
    except _UsageError as exc:
        _print_error("USAGE", str(exc))
        return 1
    except DataError as exc:
        _print_error("DATA", str(exc))
        return 2
    except NumericError as exc:
        _print_error("NUMERIC", str(exc))
        return 3
    except ValueError as exc:
        _print_error("USAGE", str(exc))
        return 1
    except OSError as exc:
        _print_error("DATA", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
