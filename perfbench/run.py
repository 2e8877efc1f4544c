"""zicopula benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload credit|exact-score|desk \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports the package from
``src/`` there and writes only under ``.perfbench_work/`` (removed on exit)
and ``.perfbench_out/`` (the traced run's spans). BLAS thread pools are
pinned to one thread for this process. The line before the result records
the environment and the workload's sizes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, the same
set on every workload; ``--trace 1`` runs the workload's unit of work
untraced and then traced, checks that both give byte-identical outputs, and
reports the per-layer metrics. ``--smoke`` shrinks every workload to a few
seconds for the schema test.

End-to-end metric definitions. On exact-score, unit_s and cpu_s are scaled
to a reference host speed measured by a calibration kernel run before every
batch (see workloads.py); the raw times and the scale are printed in the
line before the result.
- setup_s: imports, then the median over repeats of warm-up (a tiny synth,
  fit and score) plus the workload's input generation, CSV writes,
  ingest-credit and the exact-score model fit.
- unit_s: wall time of the workload's unit of timed work. credit: one `fit`
  plus scoring the held-out and the corrupted held-out rows, median over at
  least three cycles; exact-score: one `score` command on one 64-row batch,
  median over at least 100 batches; desk: one zibt plus one zicar bench seed.
- cpu_s: own-process CPU seconds of the same unit (median over units).
- peak_rss_mb: own-process peak resident memory of the timed part.
- auc: normal-vs-corrupted AUC of the NLL scores; on exact-score from fixed
  evaluation batches scored untimed; on desk the mean of the zibt-full and
  zicar-full AUCs.
- tail_nll_err: mean absolute difference between the exact row
  log-likelihood and an oracle whose orthant term comes from scipy's
  multivariate normal CDF (relative tolerance 1e-3, at most 25000 points per
  dimension), on fixed rows with 3 or more zeros of one fixed exact zibt
  model (D=8). Every workload runs this check untimed, after the timed part
  and its memory reading, so every run gates tail accuracy.

Workload-specific figures are printed, not gated, in the `detail` entry of
the line before the result: fit_s, score_rows_per_s and heldout_nll (credit);
score_rows_per_s, score_batch_p50_s, score_batch_p90_s and heldout_nll
(exact-score); bench_seed_s.zibt and bench_seed_s.zicar (desk).

Failed operations (a CLI command or bench seed with a nonzero exit code or a
non-finite score) are reported as `failed` out of `attempted`; the traced run
also reports their ratio as error_rate.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("credit", "exact-score", "desk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zicopula", "__init__.py")):
        print(f"no zicopula package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)

    import numpy
    import scipy

    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - _START
    tracer = Tracer() if args.trace else None
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    ops = workloads.Ops()
    try:
        result = workloads.WORKLOADS[args.workload](args, work, ops, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if tracer is None:
        metrics["setup_s"] += import_s
    else:
        metrics["error_rate"] = ops.failed / max(ops.attempted, 1)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            out_dir, f"spans-{args.workload}.csv"))

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "smoke": args.smoke,
    }
    print(json.dumps({"env": env, "workload": args.workload, "info": result["info"]}))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
