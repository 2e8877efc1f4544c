"""Print the sha256 digest of every file a fixed list of zicopula commands
writes, one ``digest  name`` line per file, so two checkouts can be compared
for byte-identical outputs:

    python3 scripts/output_digests.py > before.txt   # in one checkout
    python3 scripts/output_digests.py > after.txt    # in the other
    diff before.txt after.txt

The commands run through ``zicopula.cli.main`` in this process, on the
package under this checkout's ``src/``, in a temporary directory that is
removed afterwards. BLAS is pinned to one thread. They are: ``synth`` of both
families at D = 5 (zibt with ``--sigma-out``); ``fit`` of approx and exact
zibt, bernoulli and rbm zicar, and the tuned gmm and kde baselines, each
followed by ``score``; ``ingest-credit`` on data/credit_standin.csv, full and
``--small``; ``fit`` of approx zibt (the credit workload's model) on the full
ingest's training rows, followed by ``score`` of its test rows, which reach
the exact kernel sums off the grid; and ``bench --preset desk --seeds 0`` for
both families. They take about 4 s on a 2-core x86-64 host.

``kde_tuned.json`` is also scored on the first TRAILING_ROWS (263) test rows:
with its 2,000 centers, ``stat_core.blocks`` at a budget of 2^18 elements
cuts that many rows into blocks of 131 and leaves one row over, which must
join the last block, so the scores match those of one block.

``zibt_exact.json`` is scored twice more, each time to its own file: right
after its first score, when ``load_model`` hands back the model it parsed
then, and after the bernoulli zicar score, when the file is parsed again.
``credit_zibt.json`` is scored once more right after its first score, by the
model ``load_model`` hands back, its zero-pattern table filled then. Each must
write the first score's bytes; the script exits 1 if not.

``zibt_exact.json`` and ``zicar_rbm.json`` are also written in schema-1
form (``*.schema1.json``: ``schema_version`` 1, plus the copies of derived
numbers schema 1 stored) and scored from it, each to its own file. Each
must write the bytes of its schema-2 score; the script exits 1 if not.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZICOPULA_SEED", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from zicopula import cli  # noqa: E402

DIM = "5"
TRAIN_ROWS = "2000"
TEST_ROWS = "500"

# (model file, --model, extra fit flags, training and test data prefix)
FITS = (
    ("zibt_approx.json", "zibt", ["--likelihood", "approx"], "zibt"),
    ("zibt_exact.json", "zibt", ["--likelihood", "exact"], "zibt"),
    ("zicar_bernoulli.json", "zicar", ["--mask", "bernoulli"], "zicar"),
    ("zicar_rbm.json", "zicar", ["--mask", "rbm"], "zicar"),
    ("gmm_tuned.json", "gmm", [], "zibt"),
    ("kde_tuned.json", "kde", [], "zicar"),
)

# Fit on the full credit ingest, the credit workload's model: its test rows
# reach the exact kernel sums off the grid and points beyond the last node.
CREDIT_FIT = ("credit_zibt.json", "zibt", ["--likelihood", "approx"], "credit_full")

# Repeat scores: (the model file whose score each follows, the model file
# and data prefix it scores again, the scores file it writes).
REPEATS = (
    ("zibt_exact.json", ("zibt_exact.json", "zibt"), "scores_zibt_exact.again.csv"),
    ("zicar_bernoulli.json", ("zibt_exact.json", "zibt"), "scores_zibt_exact.after_other.csv"),
    ("credit_zibt.json", ("credit_zibt.json", "credit_full"), "scores_credit_zibt.again.csv"),
)


# Rows of kde_tuned.json's second score: one more than a multiple of
# 2^18 // 2,000 = 131 (see the module docstring). The last of these rows
# sums to other bits in a block of its own.
TRAILING_ROWS = 2 * (2**18 // int(TRAIN_ROWS)) + 1


def _write_head(source: str, out: str, rows: int) -> int:
    """Copy the header and the first ``rows`` rows of a data file."""
    with open(source) as fh:
        lines = fh.readlines()[: rows + 1]
    with open(out, "w") as fh:
        fh.writelines(lines)
    return 0


# Model files also scored from their schema-1 form.
SCHEMA_1 = ("zibt_exact.json", "zicar_rbm.json")


def _schema_1_of(model: str) -> str:
    return model.replace(".json", ".schema1.json")


def _write_schema_1(model: str) -> int:
    """Write a copula model file as schema 1 stored it: "rescales" repeats
    the rescale divisors, and each marginal's "a" and, for zibt, a
    "thresholds" list repeat Phi^-1(q) (null for -inf)."""
    with open(model) as fh:
        payload = json.load(fh)
    loaded = cli.model_from_dict(payload)
    thresholds = [None if math.isinf(m.a) else m.a for m in loaded.marginals]
    old = {**payload, "schema_version": 1, "rescales": loaded.rescales.tolist()}
    old["marginals"] = [{**d, "a": a} for d, a in zip(payload["marginals"], thresholds)]
    if payload["kind"] == "zibt":
        old["thresholds"] = thresholds
    with open(_schema_1_of(model), "w") as fh:
        fh.write(json.dumps(old, sort_keys=True) + "\n")
    return 0


def _scores_of(model: str) -> str:
    return "scores_" + model.replace(".json", ".csv")


def _score(model: str, data: str, out: str):
    return (["score", "--model", model, "--data", f"{data}_test.csv", "--out", out,
             "--seed", "0"], [out])


def _fit_and_score(model: str, kind: str, flags: list, data: str):
    yield (["fit", "--data", f"{data}_train.csv", "--model", kind, "--out", model,
            "--seed", "0", *flags], [model])
    yield _score(model, data, _scores_of(model))
    for after, again, out in REPEATS:
        if after == model:
            yield _score(*again, out)


def commands():
    """(argv, files it writes) for every command, in order. A step of this
    script itself comes as a function returning an exit code, not an argv."""
    for kind in ("zibt", "zicar"):
        sigma = ["--sigma-out", "zibt_sigma.csv"] if kind == "zibt" else []
        for split, rows, sample_seed in (("train", TRAIN_ROWS, "0"), ("test", TEST_ROWS, "1")):
            out = f"{kind}_{split}.csv"
            written = sigma if split == "train" else []
            yield (["synth", "--kind", kind, "--dim", DIM, "--rows", rows, "--out", out,
                    "--seed", "0", "--sample-seed", sample_seed, *written],
                   [out, *written[1:]])
    for model, kind, flags, data in FITS:
        yield from _fit_and_score(model, kind, flags, data)
        if model in SCHEMA_1:
            old = _schema_1_of(model)
            yield functools.partial(_write_schema_1, model), [old]
            yield _score(old, data, _scores_of(old))
    yield functools.partial(_write_head, "zicar_test.csv", "trailing_test.csv", TRAILING_ROWS), []
    yield _score("kde_tuned.json", "trailing", "scores_kde_tuned.trailing.csv")
    standin = os.path.join(ROOT, "data", "credit_standin.csv")
    for name, flags in (("credit_full", []), ("credit_small", ["--small"])):
        train, test = f"{name}_train.csv", f"{name}_test.csv"
        yield (["ingest-credit", "--raw", standin, "--out-train", train, "--out-test", test,
                "--seed", "0", *flags], [train, test])
    yield from _fit_and_score(*CREDIT_FIT)
    for kind in ("zibt", "zicar"):
        out = f"bench_{kind}.csv"
        yield (["bench", "--kind", kind, "--dim", DIM, "--preset", "desk", "--seeds", "0",
                "--out", out, "--seed", "0"], [out])


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv, outputs in commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = argv() if callable(argv) else cli.main(argv)
            if code != 0:
                print(f"command failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
                return 1
            for name in outputs:
                with open(name, "rb") as fh:
                    digests[name] = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digests[name]}  {name}")
        os.chdir(ROOT)
    pairs = [(out, _scores_of(again[0])) for _, again, out in REPEATS]
    pairs += [(_scores_of(_schema_1_of(model)), _scores_of(model)) for model in SCHEMA_1]
    for out, first in pairs:
        if digests[out] != digests[first]:
            print(f"{out} differs from {first}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
