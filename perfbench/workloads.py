"""The three benchmark workloads: credit, exact-score and desk.

Every program call goes through the public ``zicopula.cli.main`` entry point
in this process. A workload has a set-up (inputs written, models fitted), a
timed part, and checks on its outputs. In trace mode the workload's unit of
work runs once untraced and once under the tracer, and the two runs' outputs
must be byte-identical.

Why these workloads:
- credit: heavy-tailed 12-column amounts through ingest-credit, an approx
  zibt fit and scoring. Brute-force KDE in `marginals` is about 95% of it and
  its timed part never reaches the orthant/exact copula path, so it is the
  bypass workload for copula changes.
- exact-score: a fixed exact-likelihood zibt model at D=8 scores fixed-size
  batches in a closed loop (one client, one batch in flight). The per-row
  exact copula path in `rgd_copula`/`stat_core` dominates and `cli` I/O is
  paid per batch. Its model is the one the tail-accuracy check uses.
- desk: one seed of the desk benchmark for each family, the unit of work
  behind acceptance criteria 4-5, and the only workload in which
  `mask_model`, `baselines` and the bandwidth-tuning refits run.

Every workload reports the same end-to-end metrics (see run.py); the
workload-specific figures (fit_s, score_rows_per_s, score_batch_p50_s,
score_batch_p90_s, bench_seed_s.zibt, bench_seed_s.zicar, heldout_nll) go
to the `detail` entry of the line printed before the result. The
tail-accuracy check runs untimed in every workload on the same fixed exact
model, so each run gates tail accuracy.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
from scipy.stats import multivariate_normal, rankdata

from zicopula import cli
from zicopula.marginals import omega_transform, positive_logpdf
from zicopula.stat_core import (
    conditional_gaussian,
    mvn_logpdf,
    std_normal_logcdf,
    std_normal_logpdf,
)
from zicopula.synth_bench import (
    corrupt,
    default_variants,
    make_ground_truth,
    sample_dataset,
)

from tracer import Tracer

SETUP_REPEATS = 3

# Host-speed calibration of exact-score. On a shared 2-core host the CPU time
# of identical work drifts by +-20% over tens of seconds: other tenants
# change how fast this process runs, not how long it waits. Exact-score's
# per-row Python loop suffers most (5 s medians of batch time 0.041-0.075 s
# within one 180 s run) and no statistic of one run removes that. So in its
# timed part the benchmark runs a fixed kernel of its own (small dense linear
# algebra in a Python loop, like the exact copula path) before every batch,
# keeps the kernel's CPU time, and scales the batch times by
# CALIBRATION_REF_S / (median kernel time): the time on a host where the
# kernel takes CALIBRATION_REF_S. Measured on that host, the spread
# (quartile distance over median) of 20 s medians of batch time fell from
# 0.25 to 0.02 in one 150 s run, and that of five runs' unit_s from 0.21 to
# 0.12. The kernel does not track credit's and desk's vectorised work (five
# credit runs: 0.045 raw, 0.10 scaled), so their times are not scaled. The
# kernel is not program code: a change to the program moves scaled times as
# it moves raw ones. The raw times are printed beside the scaled ones.
CALIBRATION_ITERS = 150
CALIBRATION_RUNS = 3  # kernel runs per sample; the sample is their median
CALIBRATION_REF_S = 0.0025  # about the kernel's median on a 2.1 GHz x86-64 VM

# credit: fit and score cost grow with rows squared (5000 train rows take
# about 11.5 s to fit). 3000 raw rows give 2100 train and 900 held-out rows:
# on a 2-core box with BLAS at one thread a fit takes 3.4-4.2 s and scoring
# both held-out sets 2.5-3 s, so a run measures three or more cycles.
CREDIT_ROWS = 3000
CREDIT_MIN_CYCLES = 3

# exact-score: one fixed model (ground truth and training draw do not depend
# on the workload seed: per-seed ground truths differ too much in zero rates
# for run-to-run comparison). The seed draws the timed traffic. Accuracy is
# measured on fixed evaluation rows, because a few rows whose orthant
# estimate is clamped dominate a mean NLL and would make it seed noise.
# Scores depend on a row's index within its batch, so the batch size is part
# of the workload's definition.
EXACT_DIM = 8
EXACT_TRUTH_SEED = 0
EXACT_TRAIN_SEED = 0
EVAL_SEED = 1
EXACT = {
    "batch_rows": 64,
    "train_rows": 1000,
    "traffic_batches": 40,  # one pass, alternating normal and corrupted
    "eval_batches": 32,
    "tail_rows": 64,  # rows with >= 3 zeros, half normal, half corrupted
}
EXACT_MIN_BATCHES = 100  # so at least 10 batch times lie beyond p90
ORACLE_RELEPS = 1e-3
# On the tail rows the point cap, not releps, ends scipy's integration. At
# 25000 points per dimension each oracle log-probability is within 6e-4 nats
# (mean 8e-5) of the one at 100000, for a quarter of the cost.
ORACLE_MAXPTS_PER_DIM = 25_000

# desk: the preset's seed 0 for both families. One-seed cost differs by
# ground truth (20.4 s to 31.4 s for zibt across preset seeds 0-4), beyond
# any usable bound, so the workload seed does not pick the bench seed.
DESK_SEED = 0
DESK_DIM = 5

# --smoke sizes: seconds per workload, for the schema test.
CREDIT_SMOKE_ROWS = 400
EXACT_SMOKE = {"batch_rows": 16, "train_rows": 300, "traffic_batches": 4,
               "eval_batches": 2, "tail_rows": 8}
DESK_SMOKE_VARIANTS = "kde"


def _sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


class Ops:
    """Runs CLI commands, times them (wall and CPU seconds) and counts
    failures. While `calibrate` is set, runs the host-speed kernel before
    each command, outside the command's times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None
        self.calibrate = False
        self.calibration: list[float] = []  # kernel CPU seconds per sample
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.standard_normal((8, 8))
        self._cov = a @ a.T + 8.0 * np.eye(8)
        self._rows = rng.standard_normal((CALIBRATION_ITERS, 8))

    def _kernel(self) -> float:
        start = time.process_time()
        acc = 0.0
        for row in self._rows:
            factor = np.linalg.cholesky(self._cov)
            acc += float(np.sum((row @ factor) ** 2)) + sum(range(50))
        return time.process_time() - start

    def sample_speed(self) -> None:
        self.calibration.append(statistics.median(
            self._kernel() for _ in range(CALIBRATION_RUNS)))

    def scale(self) -> float:
        """CALIBRATION_REF_S over the median kernel time of the samples."""
        return CALIBRATION_REF_S / statistics.median(self.calibration)

    def cli(self, argv) -> tuple[bool, float, float]:
        """(exit code was 0, wall seconds, CPU seconds)."""
        if self.calibrate:
            self.sample_speed()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id += 1
        err = io.StringIO()
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu0
        if rc != 0:
            self.failed += 1
            print(f"command failed ({rc}): {' '.join(argv)}\n{err.getvalue()}",
                  file=sys.stderr)
        return rc == 0, elapsed, cpu

    def score(self, model, data, out, n_rows) -> tuple[list | None, float, float]:
        """Score a CSV; None (and one failure) unless every score is finite."""
        ok, elapsed, cpu = self.cli(["score", "--model", model, "--data", data,
                                     "--out", out, "--seed", "0"])
        if not ok:
            return None, elapsed, cpu
        scores = read_scores(out)
        if len(scores) != n_rows or not all(math.isfinite(s) for s in scores):
            self.failed += 1
            print(f"bad scores in {out}: {len(scores)} of {n_rows} rows, "
                  "or a non-finite value", file=sys.stderr)
            return None, elapsed, cpu
        return scores, elapsed, cpu


def read_scores(path) -> list:
    with open(path) as fh:
        lines = fh.read().split()
    if not lines or lines[0] != "nll":
        return []
    return [float(v) for v in lines[1:]]


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def auc(normal, abnormal) -> float:
    """Mann-Whitney AUC, higher NLL counted as more abnormal, ties halved."""
    normal = np.asarray(normal, dtype=float)
    abnormal = np.asarray(abnormal, dtype=float)
    ranks = rankdata(np.concatenate([normal, abnormal]))
    m = abnormal.size
    return float((ranks[normal.size:].sum() - m * (m + 1) / 2.0) / (normal.size * m))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(ops: Ops, work: str) -> None:
    """First calls of the synth/fit/score paths on a tiny problem."""
    data = os.path.join(work, "warm.csv")
    model = os.path.join(work, "warm.json")
    ok = ops.cli(["synth", "--kind", "zibt", "--dim", "3", "--rows", "200",
                  "--out", data])[0]
    ok = ok and ops.cli(["fit", "--data", data, "--model", "zibt",
                         "--likelihood", "exact", "--out", model])[0]
    if not ok or ops.score(model, data, os.path.join(work, "warm_s.csv"), 200)[0] is None:
        raise RuntimeError("warm-up failed")


def _timed_setup(ops: Ops, work: str, repeats: int, prepare):
    """Run warm-up plus `prepare` `repeats` times; return (median s, last result)."""
    times, state = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        warm_up(ops, work)
        state = prepare()
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


def _timed_loop(seconds, unit, outputs_of, enough):
    """Repeat `unit` until `seconds` have passed and `enough(results)` holds.
    Returns (results, every repeat gave the first one's outputs and none
    failed)."""
    results, correct = [], True
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not enough(results):
        result = unit()
        if not result:
            correct = False
            break
        if results and outputs_of(result) != outputs_of(results[0]):
            print("outputs differ between repeats of the same input", file=sys.stderr)
            correct = False
        results.append(result)
    if not results:
        raise RuntimeError("the first unit of timed work failed")
    return results, correct


# ---------------------------------------------------------------------------
# credit


CREDIT_HEADER = (
    ["ID", "LIMIT_BAL", "SEX", "EDUCATION", "MARRIAGE", "AGE", "PAY_0"]
    + [f"PAY_{i}" for i in range(2, 7)]
    + [f"BILL_AMT{i}" for i in range(1, 7)]
    + [f"PAY_AMT{i}" for i in range(1, 7)]
    + ["default.payment.next.month"]
)


def credit_raw(seed: int, n: int) -> np.ndarray:
    """Rows with the credit-card schema following the law of
    scripts/make_credit_standin.py: a lognormal habit factor scales bills
    and payments; bills are 3% negative and 8% zero, payments 18% zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    person = np.column_stack([
        np.arange(1, n + 1),
        rng.choice([10, 20, 50, 80, 120, 200, 360, 500], n) * 1000,
        rng.integers(1, 3, n), rng.integers(1, 5, n),
        rng.integers(1, 4, n), rng.integers(21, 61, n),
    ])
    pay_status = rng.integers(-2, 4, (n, 6))
    habit = rng.lognormal(0.0, 0.6, (n, 1))
    bills = np.floor(habit * rng.lognormal(8.2, 0.9, (n, 6)))
    bills[rng.random((n, 6)) < 0.08] = 0
    negative = rng.random((n, 6)) < 0.03
    bills[negative] = -rng.integers(1, 3000, int(negative.sum()))
    pays = np.floor(habit * rng.lognormal(6.8, 1.0, (n, 6))) + 1
    pays[rng.random((n, 6)) < 0.18] = 0
    label = (rng.random((n, 1)) < 0.22).astype(int)
    return np.column_stack([person, pay_status, bills, pays, label]).astype(np.int64)


def write_raw(path, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CREDIT_HEADER) + "\n")
        fh.write("\n".join(",".join(map(str, r)) for r in rows.tolist()))
        fh.write("\n")


def run_credit(args, work, ops: Ops, tracer: Tracer | None) -> dict:
    n_rows = CREDIT_SMOKE_ROWS if args.smoke else CREDIT_ROWS
    paths = {k: os.path.join(work, f"credit_{k}") for k in (
        "raw.csv", "train.csv", "test.csv", "corrupt.csv", "model.json",
        "scores_n.csv", "scores_a.csv")}
    info = {"credit_rows": n_rows}

    def ingest() -> bool:
        return ops.cli(["ingest-credit", "--raw", paths["raw.csv"],
                        "--out-train", paths["train.csv"],
                        "--out-test", paths["test.csv"], "--seed", str(args.seed)])[0]

    def prepare():
        write_raw(paths["raw.csv"], credit_raw(args.seed, n_rows))
        if not ingest():
            raise RuntimeError("ingest-credit failed")
        train = np.loadtxt(paths["train.csv"], delimiter=",", skiprows=1)
        test = np.loadtxt(paths["test.csv"], delimiter=",", skiprows=1)
        cli.write_data_csv(paths["corrupt.csv"],
                           corrupt(test, train, _sub_seed(args.seed, 1)))
        return train.shape[0], test.shape[0]

    setup_s, (n_train, n_test) = _timed_setup(
        ops, work, 1 if tracer else SETUP_REPEATS, prepare)
    info.update(credit_train_rows=n_train, credit_test_rows=n_test)

    def cycle():
        """fit, then score held-out and corrupted held-out rows."""
        ok, fit_s, fit_cpu = ops.cli(["fit", "--data", paths["train.csv"],
                                      "--model", "zibt", "--out", paths["model.json"]])
        if not ok:
            return None
        s_n, t_n, c_n = ops.score(paths["model.json"], paths["test.csv"],
                                  paths["scores_n.csv"], n_test)
        s_a, t_a, c_a = ops.score(paths["model.json"], paths["corrupt.csv"],
                                  paths["scores_a.csv"], n_test)
        if s_n is None or s_a is None:
            return None
        outputs = tuple(read_bytes(paths[k]) for k in
                        ("model.json", "scores_n.csv", "scores_a.csv"))
        return fit_s, t_n + t_a, s_n, s_a, outputs, fit_cpu + c_n + c_a

    if tracer is not None:
        return _trace_unit(ops, tracer, lambda: ingest() and cycle(),
                           lambda r: r[4], info, variants_of=lambda r: 1)

    min_cycles = 1 if args.smoke else CREDIT_MIN_CYCLES
    cycles, correct = _timed_loop(
        args.seconds, cycle, lambda r: r[4], lambda done: len(done) >= min_cycles)
    first = cycles[0]
    a = auc(first[2], first[3])
    metrics = {
        "setup_s": setup_s,
        "unit_s": statistics.median(r[0] + r[1] for r in cycles),
        "cpu_s": statistics.median(r[5] for r in cycles),
        "peak_rss_mb": peak_rss_mb(),
        "auc": a,
        "tail_nll_err": tail_check(ops, work, EXACT_SMOKE if args.smoke else EXACT),
    }
    info["cycles"] = len(cycles)
    info["detail"] = {
        "fit_s": statistics.median(r[0] for r in cycles),
        "score_rows_per_s": statistics.median(2 * n_test / r[1] for r in cycles),
        "heldout_nll": float(np.mean(first[2])),
    }
    return {"correct": correct and a > 0.5, "metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# exact-score


def _tail_rows(truth, train, n_rows: int, q_zero: np.ndarray) -> np.ndarray:
    """Fixed rows with >= 3 zeros, none in a column whose fitted q is 0;
    the first half as drawn, the second half corrupted."""
    pool = sample_dataset(truth, 20 * n_rows, _sub_seed(EVAL_SEED, 1))
    zeros = pool == 0
    keep = (zeros.sum(axis=1) >= 3) & ~(zeros & q_zero).any(axis=1)
    rows = pool[keep][:n_rows]
    if rows.shape[0] < n_rows:
        raise RuntimeError("too few rows with 3 or more zeros for the tail set")
    half = n_rows // 2
    return np.vstack([rows[:half], corrupt(rows[half:], train, _sub_seed(EVAL_SEED, 2))])


def oracle_loglik(model, x: np.ndarray, rng: np.random.Generator) -> float:
    """Exact zibt row log-likelihood with the orthant term from scipy's
    multivariate normal CDF at a tight relative tolerance, built from the
    package's public marginal and Gaussian functions."""
    sigma, a = model.copula.sigma, model.copula.a
    scaled = x / model.rescales
    zero = np.flatnonzero(scaled == 0)
    pos = np.flatnonzero(scaled > 0)
    total = 0.0
    omega = np.empty(x.size)
    for j in zero:
        total += math.log(model.marginals[j].q)
    for j in pos:
        m = model.marginals[j]
        total += (math.log1p(-m.q) + float(positive_logpdf(m, scaled[j]))
                  - math.log(model.rescales[j]))
        omega[j] = float(omega_transform(m, scaled[j]))
    if pos.size:
        total += float(mvn_logpdf(omega[pos], sigma[np.ix_(pos, pos)]))
        total -= float(np.sum(std_normal_logpdf(omega[pos])))
        cond = conditional_gaussian(sigma, pos, omega[pos])
        mean, cov = cond.mean, cond.cov
    else:
        mean, cov = np.zeros(zero.size), sigma[np.ix_(zero, zero)]
    if zero.size:
        p = multivariate_normal.cdf(
            a[zero], mean=mean, cov=cov, maxpts=ORACLE_MAXPTS_PER_DIM * zero.size,
            abseps=1e-300, releps=ORACLE_RELEPS, rng=rng)
        total += math.log(p) if p > 0 else -math.inf
        total -= float(np.sum(std_normal_logcdf(a[zero])))
    return total


def _write_batches(work, tag, normal, abnormal, batch_rows) -> list:
    """Alternate normal and corrupted batches; returns [(csv path, is_normal)]."""
    batches = []
    for k in range(normal.shape[0] // batch_rows):
        for rows, is_normal in ((normal, True), (abnormal, False)):
            path = os.path.join(work, f"exact_{tag}{len(batches)}.csv")
            cli.write_data_csv(path, rows[k * batch_rows:(k + 1) * batch_rows])
            batches.append((path, is_normal))
    return batches


def _score_batches(ops: Ops, model, batches, batch_rows):
    """Score each batch once; (wall times, CPU times, scores, output bytes)
    or None."""
    times, cpus, scores = [], [], []
    for path, _ in batches:
        s, t, c = ops.score(model, path, path + ".nll", batch_rows)
        if s is None:
            return None
        times.append(t)
        cpus.append(c)
        scores.append(s)
    return times, cpus, scores, tuple(read_bytes(path + ".nll") for path, _ in batches)


def run_exact_score(args, work, ops: Ops, tracer: Tracer | None) -> dict:
    size = EXACT_SMOKE if args.smoke else EXACT
    batch_rows = size["batch_rows"]
    info = {"exact_batch_rows": batch_rows, "exact_truth_seed": EXACT_TRUTH_SEED,
            **{f"exact_{k}": v for k, v in size.items() if k != "batch_rows"}}

    def prepare():
        fitted = fit_exact_model(ops, work, size)
        truth, train, _ = fitted
        draws = {}
        for tag, n_batches, seed in (("traffic", size["traffic_batches"], args.seed),
                                     ("eval", size["eval_batches"], EVAL_SEED)):
            normal = sample_dataset(truth, n_batches // 2 * batch_rows, _sub_seed(seed, 3))
            abnormal = corrupt(normal, train, _sub_seed(seed, 4))
            draws[tag] = _write_batches(work, tag, normal, abnormal, batch_rows)
        return draws, fitted

    setup_s, (draws, fitted) = _timed_setup(
        ops, work, 1 if tracer else SETUP_REPEATS, prepare)
    model = fitted[2]

    # Accuracy on fixed rows, outside the timed part.
    start = time.perf_counter()
    evaluated = _score_batches(ops, model, draws["eval"], batch_rows)
    if evaluated is None:
        raise RuntimeError("exact-score evaluation rows failed to score")
    tail_err = tail_check(ops, work, size, fitted)
    info["accuracy_check_s"] = time.perf_counter() - start
    normal = [v for (_, n), s in zip(draws["eval"], evaluated[2]) if n for v in s]
    abnormal = [v for (_, n), s in zip(draws["eval"], evaluated[2]) if not n for v in s]
    a = auc(normal, abnormal)
    correct = a > 0.5

    traffic = draws["traffic"]
    if tracer is not None:
        result = _trace_unit(
            ops, tracer, lambda: _score_batches(ops, model, traffic, batch_rows),
            lambda r: r[3], info, variants_of=lambda r: 0)
        result["correct"] &= correct
        return result

    min_batches = len(traffic) if args.smoke else EXACT_MIN_BATCHES
    ops.calibrate = True
    passes, looped_ok = _timed_loop(
        args.seconds, lambda: _score_batches(ops, model, traffic, batch_rows),
        lambda r: r[3], lambda done: len(done) * len(traffic) >= min_batches)
    ops.calibrate = False
    scale = ops.scale()
    correct = correct and looped_ok
    times = [t for r in passes for t in r[0]]
    p50, p90 = np.percentile(times, [50, 90])
    cpu_s = statistics.median(c for r in passes for c in r[1])
    metrics = {
        "setup_s": setup_s,
        "unit_s": float(p50) * scale,
        "cpu_s": cpu_s * scale,
        "peak_rss_mb": peak_rss_mb(),
        "auc": a,
        "tail_nll_err": tail_err,
    }
    info["batches_timed"] = len(times)
    info["speed_scale"] = scale
    info["raw"] = {"unit_s": float(p50), "cpu_s": cpu_s}
    info["detail"] = {
        "score_rows_per_s": statistics.median(
            batch_rows * len(traffic) / sum(r[0]) for r in passes),
        "score_batch_p50_s": float(p50),
        "score_batch_p90_s": float(p90),
        "heldout_nll": float(np.mean(normal)),
    }
    return {"correct": correct, "metrics": metrics, "info": info}


def fit_exact_model(ops: Ops, work, size):
    """Fit the fixed exact-likelihood zibt model; (truth, train rows, model path)."""
    truth = make_ground_truth("zibt", EXACT_DIM, EXACT_TRUTH_SEED)
    train = sample_dataset(truth, size["train_rows"], EXACT_TRAIN_SEED)
    train_csv = os.path.join(work, "exact_train.csv")
    model = os.path.join(work, "exact_model.json")
    cli.write_data_csv(train_csv, train)
    if not ops.cli(["fit", "--data", train_csv, "--model", "zibt",
                    "--likelihood", "exact", "--out", model])[0]:
        raise RuntimeError("exact model fit failed")
    return truth, train, model


def tail_check(ops: Ops, work, size, fitted=None) -> float:
    """tail_nll_err: mean |exact row log-likelihood - oracle| over the fixed
    tail rows of the fixed exact model, fitted here unless `fitted` is given."""
    truth, train, model_path = fitted or fit_exact_model(ops, work, size)
    model = cli.load_model(model_path)
    q_zero = np.array([m.q == 0.0 for m in model.marginals])
    tail = _tail_rows(truth, train, size["tail_rows"], q_zero)
    tail_csv = os.path.join(work, "exact_tail.csv")
    cli.write_data_csv(tail_csv, tail)
    scores = ops.score(model_path, tail_csv, tail_csv + ".nll", tail.shape[0])[0]
    if scores is None:
        raise RuntimeError("tail rows failed to score")
    rng = np.random.Generator(np.random.PCG64(EVAL_SEED))
    err = float(np.mean([abs(-s - oracle_loglik(model, x, rng))
                         for s, x in zip(scores, tail)]))
    if not math.isfinite(err):
        raise RuntimeError("tail oracle gave a non-finite log-likelihood")
    return err


# ---------------------------------------------------------------------------
# desk


def run_desk(args, work, ops: Ops, tracer: Tracer | None) -> dict:
    info = {"desk_seed": DESK_SEED, "desk_dim": DESK_DIM}
    setup_s, _ = _timed_setup(ops, work, 1 if tracer else SETUP_REPEATS, lambda: None)

    def bench(kind):
        out = os.path.join(work, f"desk_{kind}.csv")
        if os.path.exists(out):
            os.remove(out)
        argv = ["bench", "--kind", kind, "--dim", str(DESK_DIM), "--preset", "desk",
                "--jobs", "1", "--seeds", str(DESK_SEED), "--out", out]
        if args.smoke:
            argv += ["--variants", DESK_SMOKE_VARIANTS]
        ok, elapsed, cpu = ops.cli(argv)
        if not ok:
            return None
        with open(out) as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        aucs = {r[0]: float(r[4]) for r in rows}
        expected = 1 if args.smoke else len(default_variants(kind))
        if len(rows) != expected or not all(0.0 <= v <= 1.0 for v in aucs.values()):
            ops.failed += 1
            print(f"desk {kind}: bad results file", file=sys.stderr)
            return None
        return elapsed, cpu, aucs, read_bytes(out)

    def unit():
        runs = {kind: bench(kind) for kind in ("zibt", "zicar")}
        return None if None in runs.values() else runs

    if tracer is not None:
        return _trace_unit(
            ops, tracer, unit, lambda r: (r["zibt"][3], r["zicar"][3]), info,
            variants_of=lambda r: sum(tag.startswith(("zibt", "zicar"))
                                      for run in r.values() for tag in run[2]))

    runs = unit()
    if runs is None:
        raise RuntimeError("desk bench failed")
    own = {k: DESK_SMOKE_VARIANTS if args.smoke else f"{k}-full" for k in runs}
    a = float(np.mean([runs[k][2][own[k]] for k in runs]))
    metrics = {
        "setup_s": setup_s,
        "unit_s": runs["zibt"][0] + runs["zicar"][0],
        "cpu_s": runs["zibt"][1] + runs["zicar"][1],
        "peak_rss_mb": peak_rss_mb(),
        "auc": a,
        "tail_nll_err": tail_check(ops, work, EXACT_SMOKE if args.smoke else EXACT),
    }
    info["detail"] = {
        "bench_seed_s.zibt": runs["zibt"][0],
        "bench_seed_s.zicar": runs["zicar"][0],
    }
    return {"correct": a > 0.5, "metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# traced run


def _trace_unit(ops: Ops, tracer: Tracer, unit, outputs_of, info, variants_of) -> dict:
    """Run `unit` untraced, then traced; outputs must match byte for byte.
    `variants_of` counts the copula models scored in a unit's result, the
    numerator of synth_bench.fit_use_ratio."""
    start = time.perf_counter()
    plain = unit()
    plain_s = time.perf_counter() - start
    ops.tracer = tracer
    tracer.install()
    try:
        start = time.perf_counter()
        traced = unit()
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
        ops.tracer = None
    correct = bool(plain) and bool(traced) and outputs_of(plain) == outputs_of(traced)
    if not correct:
        print("traced and untraced outputs differ", file=sys.stderr)
    model_fits = tracer.calls["zibt_model.fit_zibt"] + tracer.calls["zicar_model.fit_zicar"]
    variants = variants_of(traced) if traced else 0
    info["trace_spans"] = len(tracer.spans)
    return {
        "correct": correct,
        "metrics": layer_metrics(tracer, traced_s - plain_s, variants, model_fits),
        "info": info,
    }


LAYERS = ("cli", "synth_bench", "zibt_model", "zicar_model", "marginals",
          "rgd_copula", "stat_core", "mask_model", "baselines")

# (function, stats) pairs reported from the trace; see BENCHMARK.json.
TRACED = (
    ("marginals.positive_pdf", ("calls", "self_s")),
    ("marginals.positive_cdf", ("calls", "self_s")),
    ("marginals.fit_columns", ("s", "self_s")),
    ("marginals.rescale_factor", ("s",)),
    ("marginals.omega_transform", ("s",)),
    ("rgd_copula.copula_logdensity_exact", ("calls", "self_s")),
    ("stat_core.conditional_gaussian", ("calls", "s")),
    ("stat_core.mvn_orthant_mc", ("calls", "s")),
    ("stat_core.mvn_logpdf", ("calls", "s")),
    ("zibt_model.zibt_loglik_rows", ("calls", "s", "self_s")),
    ("rgd_copula.assemble_sigma", ("s",)),
    ("rgd_copula.estimate_rho", ("calls", "s")),
    ("stat_core.bivariate_normal_cdf", ("calls", "s")),
    ("stat_core.repair_correlation", ("s",)),
    ("mask_model.fit_rbm", ("calls", "s")),
    ("mask_model.mask_logprob_rows", ("s",)),
    ("baselines.tune_gmm", ("s",)),
    ("baselines.tune_kde", ("s",)),
    ("baselines.kde_loglik_rows", ("s",)),
    ("zibt_model.fit_zibt", ("calls", "s", "self_s")),
    ("zicar_model.fit_zicar", ("calls", "s", "self_s")),
    ("zicar_model.zicar_loglik_rows", ("calls", "s", "self_s")),
    ("cli.read_data_csv", ("calls", "s")),
    ("cli.load_model", ("calls", "s")),
    ("cli.save_model", ("s",)),
    ("cli.write_scores_csv", ("s",)),
)


def layer_metrics(tracer: Tracer, overhead_s: float, variants: int, fits: int) -> dict:
    out = {}
    for name, stats in TRACED:
        for stat in stats:
            if stat == "calls":
                out[f"{name}.calls"] = tracer.calls[name]
            elif stat == "s":
                out[f"{name}.s"] = tracer.inclusive[name]
            else:
                out[f"{name}.self_s"] = tracer.self_time[name]
    mvn_calls = tracer.calls["stat_core.mvn_logpdf"]
    orthant_calls = tracer.calls["stat_core.mvn_orthant_mc"]
    c = tracer.counters
    out.update({
        "marginals.kernel_evals": c["marginals.kernel_evals"],
        "stat_core.mvn_logpdf.rows_per_call":
            c["stat_core.mvn_logpdf.rows"] / mvn_calls if mvn_calls else 0.0,
        "stat_core.mvn_orthant_mc.zero_share":
            c["stat_core.mvn_orthant_mc.zeros"] / orthant_calls if orthant_calls else 0.0,
        "synth_bench.fit_use_ratio": variants / fits if fits else 0.0,
        "cli.bytes_read": c["cli.bytes_read"],
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.overhead_s": overhead_s,
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_time(layer)
    return out


WORKLOADS = {"credit": run_credit, "exact-score": run_exact_score, "desk": run_desk}
