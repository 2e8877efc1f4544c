"""Schema tests for the benchmark: BENCHMARK.json itself, the result line of
each workload in smoke mode, and the repeatability of the traced counts."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}

WORKLOADS = ("credit", "exact-score", "desk")
# Workload-specific figures, printed ungated in the line before the result.
DETAIL = {
    "credit": {"fit_s", "score_rows_per_s", "heldout_nll"},
    "exact-score": {"score_rows_per_s", "score_batch_p50_s", "score_batch_p90_s",
                    "heldout_nll"},
    "desk": {"bench_seed_s.zibt", "bench_seed_s.zicar"},
}
# Traced values that must repeat bit for bit on the same input.
EXACT_COUNTS = re.compile(
    r"(\.calls|kernel_evals|zero_share|fit_use_ratio|bytes_read|bytes_written)$")


def run_bench(workload, trace, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "ZICOPULA_SEED"}
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][0] == "python3"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = E2E["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_line(workload):
    proc = run_bench(workload, 0)
    metrics = result_of(proc)["metrics"]
    assert set(metrics) == set(E2E)
    for name, value in metrics.items():
        assert value["unit"] == E2E[name]["unit"]
        assert isinstance(value["value"], float) and value["value"] > 0
    detail = json.loads(proc.stdout.splitlines()[-2])["info"]["detail"]
    assert set(detail) == DETAIL[workload]
    assert all(v > 0 for v in detail.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_trace_counts_repeat(workload):
    first = result_of(run_bench(workload, 1))["metrics"]
    again = result_of(run_bench(workload, 1))["metrics"]
    assert set(first) == set(LAYER)
    for name, value in first.items():
        assert value["unit"] == LAYER[name]["unit"]
        if EXACT_COUNTS.search(name):
            assert value["value"] == again[name]["value"], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("credit", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
