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
``--small``; and ``bench --preset desk --seeds 0`` for both families. They
take about 4 s on a 2-core x86-64 host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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


def commands():
    """(argv, files it writes) for every command, in order."""
    for kind in ("zibt", "zicar"):
        sigma = ["--sigma-out", "zibt_sigma.csv"] if kind == "zibt" else []
        for split, rows, sample_seed in (("train", TRAIN_ROWS, "0"), ("test", TEST_ROWS, "1")):
            out = f"{kind}_{split}.csv"
            written = sigma if split == "train" else []
            yield (["synth", "--kind", kind, "--dim", DIM, "--rows", rows, "--out", out,
                    "--seed", "0", "--sample-seed", sample_seed, *written],
                   [out, *written[1:]])
    for model, kind, flags, data in FITS:
        yield (["fit", "--data", f"{data}_train.csv", "--model", kind, "--out", model,
                "--seed", "0", *flags], [model])
        scores = "scores_" + model.replace(".json", ".csv")
        yield (["score", "--model", model, "--data", f"{data}_test.csv", "--out", scores,
                "--seed", "0"], [scores])
    standin = os.path.join(ROOT, "data", "credit_standin.csv")
    for name, flags in (("credit_full", []), ("credit_small", ["--small"])):
        train, test = f"{name}_train.csv", f"{name}_test.csv"
        yield (["ingest-credit", "--raw", standin, "--out-train", train, "--out-test", test,
                "--seed", "0", *flags], [train, test])
    for kind in ("zibt", "zicar"):
        out = f"bench_{kind}.csv"
        yield (["bench", "--kind", kind, "--dim", DIM, "--preset", "desk", "--seeds", "0",
                "--out", out, "--seed", "0"], [out])


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv, outputs in commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"command failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
                return 1
            for name in outputs:
                with open(name, "rb") as fh:
                    print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
