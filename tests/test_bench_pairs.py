import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "unit_s", "better": "lower", "bound": 0.25},
    {"name": "auc", "better": "higher", "bound": 0.06},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _line(unit_s, auc, rss, correct=True, failed=0) -> str:
    metrics = {"unit_s": unit_s, "auc": auc, "peak_rss_mb": rss}
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    })


def test_summary_counts_wins_and_ties_and_flags_the_bound():
    parent = [_line(0.020, 0.9, 100.0), _line(0.021, 0.9, 100.0),
              _line(0.019, 0.9, 100.0), _line(0.020, 0.9, 100.0)]
    change = [_line(0.014, 0.9, 112.0), _line(0.015, 0.91, 111.0),
              _line(0.019, 0.9, 112.0), _line(0.013, 0.89, 113.0, correct=False)]
    pairs = [("env line\n" + p, c) for p, c in zip(parent, change)]
    pairs = [(bench_pairs.parse_result(p), bench_pairs.parse_result(c)) for p, c in pairs]
    rows = {r["metric"]: r for r in bench_pairs.summarize(END_TO_END, pairs)}

    unit = rows["unit_s"]
    assert (unit["wins"], unit["ties"], unit["pairs"]) == (3, 1, 4)
    assert unit["parent"][0] == pytest.approx(0.020)
    assert unit["ratio"] == pytest.approx(0.0145 / 0.020)
    assert unit["gap_over_iqr"] and not unit["over_bound"]
    # Higher is better for auc: one win, one loss, two ties.
    assert (rows["auc"]["wins"], rows["auc"]["ties"]) == (1, 2)
    assert not rows["auc"]["over_bound"]
    # +12% memory against a 10% bound.
    assert rows["peak_rss_mb"]["wins"] == 0 and rows["peak_rss_mb"]["over_bound"]

    runs = [(f"run {i}", c) for i, (_, c) in enumerate(pairs)]
    assert [label for label, _ in bench_pairs.failures(runs)] == ["run 3"]
    table = bench_pairs.format_table(rows.values()).splitlines()
    assert len(table) == 4 and "OVER BOUND" in table[3] and "gap>IQR" in table[1]
