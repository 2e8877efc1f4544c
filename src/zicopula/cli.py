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
from .rgd_copula import DEFAULT_MC_SAMPLES
from .synth_bench import (
    PRESETS,
    RESULT_COLUMNS,
    default_variants,
    make_ground_truth,
    run_benchmark,
    sample_dataset,
)
from .zibt_model import ZibtModel, fit_zibt, zibt_loglik_rows
from .zicar_model import ZicarModel, fit_zicar, zicar_loglik_rows

SCHEMA_VERSION = 2
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


def _read_text(path) -> str:
    """The whole of a UTF-8 text file. A file that cannot be opened or
    decoded is a DataError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")


def _blank(line: str) -> bool:
    """A line whose fields are all empty or whitespace."""
    return not line.replace(",", "").replace('"', "").strip()


def _read_csv(path, clip_negatives: bool) -> tuple:
    """Read a comma-separated matrix with a required header row; return the
    header's names and the matrix.

    Blank lines are skipped. numpy parses the body in one call; when it
    rejects the body or a value is not allowed, the lines are scanned again
    in order to name the first bad one."""
    text = _read_text(path)
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
    return header, data


def read_data_csv(path, clip_negatives: bool = False) -> np.ndarray:
    return _read_csv(path, clip_negatives)[1]


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
        for token in record:
            try:
                v = float(token)
            except ValueError:
                raise DataError(f"line {lineno}: could not parse {token.strip()!r} as a number")
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


def _write_csv(path, header, rows, append: bool = False) -> None:
    """A header line, then one line per row; appending to a file that is not
    empty adds the rows only. csv writes a Python float as its repr, the
    shortest string that reads back exactly."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fh.tell() == 0:
            writer.writerow(header)
        writer.writerows(rows)


def write_data_csv(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=float)
    _write_csv(path, [f"x{j + 1}" for j in range(matrix.shape[1])], matrix.tolist())


def write_scores_csv(path, scores: np.ndarray) -> None:
    _write_csv(path, ["nll"], np.asarray(scores, dtype=float).reshape(-1, 1).tolist())


# ---------------------------------------------------------------------------
# model files


def _frozen(values) -> np.ndarray:
    """A read-only float array: load_model may hand one model to several
    commands, so none of them may write to its arrays."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _to_json(obj) -> dict:
    """Every dataclass field of a model, a marginal or a mask in its JSON form."""
    fields = dataclasses.fields(obj)
    return {f.name: _FIELDS.get(f.name, _FLOATS)[0](getattr(obj, f.name)) for f in fields}


def _from_json(cls, d, *known: str):
    """The dataclass cls built from its JSON object d, which holds cls's
    fields, the keys in known and nothing else."""
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object")
    names = [f.name for f in dataclasses.fields(cls)]
    stray = sorted(set(d) - {*known, *names})
    if stray:
        raise ValueError(f"unexpected keys: {', '.join(stray)}")
    return cls(**{n: _FIELDS.get(n, _FLOATS)[1](d[n]) for n in names})


_MASK_TYPES = {"bernoulli": BernoulliMask, "rbm": RbmMask}
_MASK_NAMES = {cls: name for name, cls in _MASK_TYPES.items()}


def _mask_from_json(d):
    if d["type"] not in _MASK_TYPES:
        raise DataError(f"unknown mask type: {d['type']!r}")
    mask = _from_json(_MASK_TYPES[d["type"]], d, "type")
    if isinstance(mask, RbmMask):
        recomputed = compute_log_z(mask.weights, mask.visible_bias, mask.hidden_bias)
        if abs(recomputed - mask.log_z) > 1e-9:
            raise DataError(
                "model file corrupt: stored log_Z "
                f"{mask.log_z!r} does not match its parameters ({recomputed!r})"
            )
    return mask


# The JSON form of a model-file field: (to JSON, from JSON). _FIELDS names
# the fields that are not float arrays; every other field of a model, a
# marginal or a mask is one, read and written as _FLOATS.
_FLOATS = (lambda values: np.asarray(values, dtype=float).tolist(), _frozen)
_FIELDS = {
    "marginals": (
        lambda marginals: [_to_json(m) for m in marginals],
        lambda dicts: tuple(_from_json(MarginalModel, d) for d in dicts),
    ),
    "mask": (
        lambda mask: {"type": _MASK_NAMES[type(mask)], **_to_json(mask)},
        _mask_from_json,
    ),
    "likelihood_mode": (str, str),
}


def _without_schema_1_copies(payload: dict) -> dict:
    """A schema-1 copula file without the copies of derived numbers it also
    stores: "rescales", "thresholds" and each marginal's "a"."""
    rest = {k: v for k, v in payload.items() if k not in ("rescales", "thresholds")}
    rest["marginals"] = [
        {k: v for k, v in {**m}.items() if k != "a"} for m in payload["marginals"]
    ]
    return rest


def _check_schema_1_copies(d: dict, model) -> None:
    """A schema-1 copula file also stores copies of derived numbers: the
    rescale divisors ("rescales"), each marginal's threshold "a" and, for
    zibt, the thresholds again. Each copy must equal what it copies: the
    divisors exactly, a threshold within 1e-9 (null stands for -inf)."""
    if [float(b) for b in d["rescales"]] != model.rescales.tolist():
        raise ValueError("rescales must equal the marginals' rescale_b")
    copies = [[m["a"] for m in d["marginals"]]]
    if isinstance(model, ZibtModel):
        copies.append(d["thresholds"])
    for stored in copies:
        stored = [-math.inf if v is None else float(v) for v in stored]
        if len(stored) != model.dim or not all(
            v == m.a or abs(v - m.a) <= 1e-9 for v, m in zip(stored, model.marginals)
        ):
            raise ValueError("thresholds must equal Phi^-1 of the zero rates")


def _fit_zicar(args, data) -> ZicarModel:
    return fit_zicar(
        data,
        mask_kind=args.mask,
        use_mle_sigma=not args.no_mle,
        n_hidden=args.n_hidden,
        seed=args.seed,
        bandwidth_scale=args.bandwidth_scale,
    )


def _fit_zibt(args, data) -> ZibtModel:
    return fit_zibt(
        data,
        use_mle_sigma=not args.no_mle,
        likelihood_mode=args.likelihood,
        bandwidth_scale=args.bandwidth_scale,
    )


def _fit_gmm(args, data) -> GmmModel:
    if args.k is None:
        return tune_gmm(data, seed=args.seed)
    return fit_gmm(data, args.k, seed=args.seed)


def _fit_kde(args, data) -> KdeModel:
    if args.bandwidth_mult is None:
        return tune_kde(data, seed=args.seed)
    return fit_kde_multi(data, multiplier=args.bandwidth_mult)


def _describe_copula(model) -> list:
    return [
        f"q: {_format_vector([m.q for m in model.marginals])}",
        f"sigma condition number: {np.linalg.cond(model.sigma):.6g}",
        f"rescale factors: {_format_vector(model.rescales)}",
    ]


@dataclasses.dataclass(frozen=True)
class _Kind:
    """Everything the command line does with one model kind."""

    type: type
    fit: Callable  # (args, data) -> model
    loglik_rows: Callable  # (model, data, args) -> log-likelihood per row
    describe: Callable  # model -> summary lines printed by fit


_KINDS = {
    "zicar": _Kind(
        type=ZicarModel,
        fit=_fit_zicar,
        loglik_rows=lambda model, data, args: zicar_loglik_rows(model, data),
        describe=_describe_copula,
    ),
    "zibt": _Kind(
        type=ZibtModel,
        fit=_fit_zibt,
        loglik_rows=lambda model, data, args: zibt_loglik_rows(
            model, data, mc_samples=args.mc_samples, base_seed=args.seed
        ),
        describe=_describe_copula,
    ),
    "gmm": _Kind(
        type=GmmModel,
        fit=_fit_gmm,
        loglik_rows=lambda model, data, args: gmm_loglik_rows(model, data),
        describe=lambda model: [
            f"components: {model.k}, weights: {_format_vector(model.weights)}"
        ],
    ),
    "kde": _Kind(
        type=KdeModel,
        fit=_fit_kde,
        loglik_rows=lambda model, data, args: kde_loglik_rows(model, data),
        describe=lambda model: [f"bandwidths: {_format_vector(model.bandwidths)}"],
    ),
}
_KIND_OF_TYPE = {entry.type: kind for kind, entry in _KINDS.items()}


def _kind_of(model) -> str:
    kind = _KIND_OF_TYPE.get(type(model))
    if kind is None:
        raise ValueError(f"not a model: {type(model).__name__}")
    return kind


def model_to_dict(model) -> dict:
    kind = _kind_of(model)
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **_to_json(model)}


def model_from_dict(payload) -> object:
    """Rebuild a model from its JSON payload; any malformed field is a DataError."""
    if not isinstance(payload, dict):
        raise DataError("model file must contain a JSON object")
    version = payload.get("schema_version")
    if version not in (1, SCHEMA_VERSION):
        raise DataError(f"unsupported schema_version: {version!r}")
    kind = payload.get("kind")
    entry = _KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise DataError(f"unknown model kind: {kind!r}")
    try:
        known = ("schema_version", "kind")
        if version == 1 and entry.type in (ZibtModel, ZicarModel):
            model = _from_json(entry.type, _without_schema_1_copies(payload), *known)
            _check_schema_1_copies(payload, model)
            return model
        return _from_json(entry.type, payload, *known)
    except KeyError as exc:
        raise DataError(f"model file missing field: {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed {kind} model file: {exc}") from None


def save_model(path, model) -> None:
    payload = model_to_dict(model)
    # Without indent, json.dumps runs on the C encoder.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} is not valid JSON: {exc}")


def _read_json(path, what: str):
    return _parse_json(_read_text(path), what)


# The text load_model parsed last and the model built from it.
_last_loaded = (None, None)


def load_model(path):
    """The model in a model file. The file is read on every call; when its
    text equals the text parsed last, the model built then is returned
    again, with the kernel grids it has built since."""
    global _last_loaded
    text = _read_text(path)
    if text != _last_loaded[0]:
        _last_loaded = text, model_from_dict(_parse_json(text, "model file"))
    return _last_loaded[1]


def _format_vector(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in np.asarray(values)) + "]"


# ---------------------------------------------------------------------------
# commands; each runs on a namespace that _resolve has completed


def cmd_fit(args) -> None:
    data = read_data_csv(args.data, clip_negatives=args.clip_negatives)
    entry = _KINDS[args.model]
    model = entry.fit(args, data)
    save_model(args.out, model)
    print(f"model: {args.model}")
    print(f"rows: {data.shape[0]}, columns: {data.shape[1]}")
    for line in entry.describe(model):
        print(line)
    print(f"wrote model to {args.out}")


def _check_mc_samples(args) -> None:
    if args.mc_samples < 1:
        raise _UsageError("--mc-samples must be at least 1")


def cmd_score(args) -> None:
    _check_mc_samples(args)
    model = load_model(args.model)
    data = read_data_csv(args.data, clip_negatives=args.clip_negatives)
    nll = -_KINDS[_kind_of(model)].loglik_rows(model, data, args)
    write_scores_csv(args.out, nll)
    print(f"wrote {nll.size} scores to {args.out}")


def cmd_synth(args) -> None:
    truth = make_ground_truth(args.kind, args.dim, seed=args.seed)
    data = sample_dataset(truth, args.rows, seed=args.sample_seed)
    write_data_csv(args.out, data)
    if args.sigma_out is not None:
        write_data_csv(args.sigma_out, truth.sigma_true)
    zero_share = float((data == 0).mean())
    print(f"wrote {data.shape[0]} rows of {args.kind} data to {args.out}")
    print(f"zero fraction: {zero_share:.4f}")


def cmd_bench(args) -> None:
    _check_mc_samples(args)
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    variants = None
    if args.variants is not None:
        variants = tuple(t.strip() for t in args.variants.split(",") if t.strip())
        if not variants:
            raise _UsageError("--variants must name at least one model tag")
    seeds = None
    if args.seeds is not None:
        try:
            seeds = tuple(int(t) for t in args.seeds.split(",") if t.strip())
        except ValueError:
            raise _UsageError("--seeds must be comma-separated integers")
        if not seeds:
            raise _UsageError("--seeds must name at least one seed")
        if min(seeds) < 0:
            raise _UsageError(f"--seeds must be nonnegative integers, got {min(seeds)}")
    for option, items in (("variants", variants), ("seeds", seeds)):
        repeated = [t for i, t in enumerate(items or ()) if t in items[:i]]
        if repeated:
            raise _UsageError(f"{_flag(option)} names {repeated[0]} more than once")

    rows = run_benchmark(
        args.kind,
        args.dim,
        preset=args.preset,
        variants=variants,
        jobs=args.jobs,
        mc_samples=args.mc_samples,
        seeds=seeds,
    )
    _write_csv(args.out, RESULT_COLUMNS, map(dataclasses.astuple, rows), append=True)
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
    raw_path = args.raw
    if raw_path is None:
        raw_path = os.environ.get(ENV_UCI_CSV, DEFAULT_UCI_PATH)
    wanted = CREDIT_COLUMNS_SMALL if args.small else CREDIT_COLUMNS_FULL
    # The raw file carries a few negative amounts; the models need
    # nonnegative input, so they are clamped to zero.
    header, raw = _read_csv(raw_path, clip_negatives=True)
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DataError(f"missing columns: {', '.join(missing)}")
    matrix = raw[:, [header.index(c) for c in wanted]]
    n = matrix.shape[0]
    n_train = int(round(0.7 * n))
    order = np.random.Generator(np.random.PCG64(args.seed)).permutation(n)

    _write_csv(args.out_train, wanted, matrix[order[:n_train]].tolist())
    _write_csv(args.out_test, wanted, matrix[order[n_train:]].tolist())
    print(f"read {n} rows from {raw_path}")
    print(f"train: {n_train} rows -> {args.out_train}")
    print(f"test: {n - n_train} rows -> {args.out_test}")


_HANDLERS = {
    "fit": cmd_fit,
    "score": cmd_score,
    "synth": cmd_synth,
    "bench": cmd_bench,
    "ingest-credit": cmd_ingest_credit,
}


# ---------------------------------------------------------------------------
# options: one table gives the parser, the config keys and the defaults

# The default of an option that a flag or the config file must give.
_REQUIRED = object()

_COMMON = {
    "config": (None, {"help": "JSON file giving any other option of the command"}),
    "seed": (None, {"type": int, "help": f"RNG seed (default ${ENV_SEED} or 0)"}),
}
_FAMILY = (_REQUIRED, {"choices": ("zicar", "zibt")})
_DIM = (_REQUIRED, {"type": int})
_CLIP_NEGATIVES = (False, {"action": "store_true",
                           "help": "replace negative inputs with 0 instead of failing"})
_MC_SAMPLES = (DEFAULT_MC_SAMPLES, {"type": int,
                                    "help": "orthant estimator points per row with 3+ zeros, "
                                            "or 2 zeros below 1e-8, in exact zibt scoring"})

# command -> (help, {option: (default or _REQUIRED, add_argument keywords)})
_COMMANDS = {
    "fit": ("fit a model to a CSV dataset", {
        **_COMMON,
        "data": (_REQUIRED, {"help": "training CSV (header row required)"}),
        "model": (_REQUIRED, {"choices": tuple(_KINDS)}),
        "out": (_REQUIRED, {"help": "model file to write"}),
        "mask": ("rbm", {"choices": ("bernoulli", "rbm"), "help": "zicar mask family"}),
        "likelihood": ("approx", {"choices": ("exact", "approx"), "help": "zibt scoring mode"}),
        "no_mle": (False, {"action": "store_true",
                           "help": "plain correlation instead of pairwise MLE"}),
        "bandwidth_scale": (1.0, {"type": float, "help": "marginal KDE bandwidth multiplier"}),
        "n_hidden": (None, {"type": int, "help": "RBM hidden units (default 2D)"}),
        "k": (None, {"type": int, "help": "GMM components (default: tuned)"}),
        "bandwidth_mult": (None, {"type": float,
                                  "help": "KDE baseline bandwidth multiplier (default: tuned)"}),
        "clip_negatives": _CLIP_NEGATIVES,
    }),
    "score": ("negative log-likelihood per row", {
        **_COMMON,
        "model": (_REQUIRED, {"help": "model file from fit"}),
        "data": (_REQUIRED, {"help": "CSV to score"}),
        "out": (_REQUIRED, {"help": "scores CSV to write"}),
        "mc_samples": _MC_SAMPLES,
        "clip_negatives": _CLIP_NEGATIVES,
    }),
    "synth": ("draw a synthetic dataset", {
        **_COMMON,
        "kind": _FAMILY,
        "dim": _DIM,
        "rows": (_REQUIRED, {"type": int}),
        "out": (_REQUIRED, {"help": "dataset CSV to write"}),
        "sample_seed": (0, {"type": int,
                            "help": "seed for the draw itself (ground truth uses --seed)"}),
        "sigma_out": (None, {"help": "also write the true correlation matrix"}),
    }),
    "bench": ("corruption benchmark over seeds", {
        **_COMMON,
        "kind": _FAMILY,
        "dim": _DIM,
        "preset": ("desk", {"choices": tuple(PRESETS)}),
        "out": ("results.csv", {"help": "results CSV (appended)"}),
        "jobs": (1, {"type": int, "help": "concurrent seeds"}),
        "mc_samples": _MC_SAMPLES,
        "variants": (None, {"help": "comma-separated model tags"}),
        "seeds": (None, {"help": "comma-separated seed list (overrides preset)"}),
    }),
    "ingest-credit": ("extract the credit-card columns", {
        **_COMMON,
        "raw": (None, {"help": f"raw CSV (default ${ENV_UCI_CSV} or {DEFAULT_UCI_PATH})"}),
        "out_train": (_REQUIRED, {"help": "training CSV to write"}),
        "out_test": (_REQUIRED, {"help": "test CSV to write"}),
        "small": (False, {"action": "store_true", "help": "keep only PAY_AMT1 and BILL_AMT1"}),
    }),
}


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _config_value(option: str, value, default, keywords: dict):
    """A config file's value for an option, checked as the flag's is. null
    stands for an option's default where that default is null."""
    if value is None and default is None:
        return None
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if keywords.get("action") == "store_true":
        ok, wanted = isinstance(value, bool), "true or false"
    elif "choices" in keywords:
        ok = isinstance(value, str) and value in keywords["choices"]
        wanted = "one of " + ", ".join(keywords["choices"])
    elif keywords.get("type") is int:
        ok, wanted = number and isinstance(value, int), "an integer"
    elif keywords.get("type") is float:
        ok, wanted = number, "a number"
        value = float(value) if ok else value
    else:
        ok, wanted = isinstance(value, str), "a string"
    if not ok:
        raise _UsageError(f"config {option}: expected {wanted}, got {json.dumps(value)}")
    return value


def _resolve(args) -> None:
    """Give every option of the command its value: the flag, else the config
    file, else the default. The seed falls back to $ZICOPULA_SEED, then 0.
    Every config value is checked, also where a flag overrides it."""
    options = _COMMANDS[args.command][1]
    path = getattr(args, "config", None)
    config = {} if path is None else _read_json(path, "config file")
    if not isinstance(config, dict):
        raise DataError("config file must contain a JSON object")
    unknown = sorted(k for k in config if k not in options or k == "config")
    if unknown:
        raise DataError(f"config has unknown keys: {', '.join(unknown)}")
    for option, (default, keywords) in options.items():
        if option in config:
            default = _config_value(option, config[option], default, keywords)
        if hasattr(args, option):
            continue
        if default is _REQUIRED:
            raise _UsageError(f"{_flag(option)} is required")
        setattr(args, option, default)
    if args.seed is None:
        env = os.environ.get(ENV_SEED)
        try:
            args.seed = 0 if env is None else int(env)
        except ValueError:
            raise DataError(f"{ENV_SEED} must be an integer, got {env!r}")
        if args.seed < 0:
            raise DataError(f"{ENV_SEED} must be a nonnegative integer, got {env!r}")
    for option in ("seed", "sample_seed"):
        value = getattr(args, option, 0)
        if value < 0:
            raise _UsageError(f"{_flag(option)} must be a nonnegative integer, got {value}")


@functools.cache
def build_parser() -> _Parser:
    # Built once per process: parsing writes only to its own namespace, and
    # an option left out stays off it until _resolve fills it in.
    parser = _Parser(prog="zicopula", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for option, (default, keywords) in options.items():
            if not (default is None or default is _REQUIRED or isinstance(default, bool)):
                shown = f"(default {default})"
                keywords = {**keywords, "help": f"{keywords.get('help', '')} {shown}".lstrip()}
            p.add_argument(_flag(option), **keywords)
    return parser


def _print_error(kind: str, message: str) -> None:
    flat = " ".join(str(message).splitlines())
    print(f"ERR:{kind} {flat}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(f"a command is required ({', '.join(_COMMANDS)})")
        _resolve(args)
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
