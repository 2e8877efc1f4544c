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


def _line(unit_s, auc, rss, correct=True, failed=0, attempted=10) -> str:
    metrics = {"unit_s": unit_s, "auc": auc, "peak_rss_mb": rss}
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    })


def _info(raw_unit_s, speed_scale) -> str:
    """The line before an exact-score result: the uncalibrated unit_s and the
    host-speed scale."""
    return json.dumps({"env": {}, "workload": "exact-score",
                       "info": {"raw": {"unit_s": raw_unit_s}, "speed_scale": speed_scale}})


def test_summary_counts_wins_and_ties_and_flags_the_bound():
    parent = [_line(0.020, 0.9, 100.0), _line(0.021, 0.9, 100.0),
              _line(0.019, 0.9, 100.0), _line(0.020, 0.9, 100.0)]
    change = [_line(0.014, 0.9, 112.0, attempted=14), _line(0.015, 0.91, 111.0, attempted=13),
              _line(0.019, 0.9, 112.0, attempted=11), _line(0.013, 0.89, 113.0, correct=False,
                                                            attempted=15)]
    # Raw times and scales on three pairs; the fourth change run has no line
    # before its result.
    info = [(_info(0.010, 2.0), _info(0.008, 1.8)), (_info(0.012, 1.6), _info(0.009, 1.7)),
            (_info(0.011, 1.9), _info(0.010, 2.1)), (_info(0.011, 1.9), None)]
    pairs = [(f"{ip}\n{p}", c if ic is None else f"{ic}\n{c}")
             for p, c, (ip, ic) in zip(parent, change, info)]
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
    # The attempted row: each side's median operation count, with no wins or flags.
    attempted = rows["attempted"]
    assert attempted["parent"] == (10, 10, 10) and attempted["change"][0] == pytest.approx(13.5)
    assert attempted["pairs"] == 4 and "wins" not in attempted and "over_bound" not in attempted

    runs = [(f"run {i}", c) for i, (_, c) in enumerate(pairs)]
    assert [label for label, _ in bench_pairs.failures(runs)] == ["run 3"]
    # The raw unit_s row: the three pairs where both runs have it, each
    # side's median scale, no wins or flags.
    raw = rows["raw unit_s"]
    assert raw["pairs"] == 3 and raw["parent"][0] == 0.011 and raw["change"][0] == 0.009
    assert raw["speed_scale"] == (1.9, 1.8) and "wins" not in raw and "over_bound" not in raw

    table = bench_pairs.format_table(rows.values()).splitlines()
    assert len(table) == 6 and "OVER BOUND" in table[3] and "gap>IQR" in table[1]
    assert table[4].split()[0] == "attempted" and table[4].split()[-1] == "1.350"
    assert table[5].startswith("raw unit_s") and table[5].split()[-3:] == ["1.9", "/", "1.8"]


def test_json_flag_writes_arguments_runs_and_summary(tmp_path, monkeypatch, capsys):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        unit_s = 0.02 if checkout == "parent" else 0.01 + 0.001 * len(calls)
        return bench_pairs.parse_result(_line(unit_s, 0.9, 100.0))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    argv = ["--parent", "parent", "--change", str(change), "--workload", "desk",
            "--pairs", "3", "--seconds", "1", "--seeds", "4,9"]
    assert bench_pairs.main(argv) == 0
    table = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["change"]

    calls.clear()
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main([*argv, "--json", str(out)]) == 0
    assert capsys.readouterr().out == table
    written = json.loads(out.read_text())
    assert written["args"] == {"parent": "parent", "change": str(change), "workload": "desk",
                               "pairs": 3, "seconds": 1.0, "seeds": "4,9", "json": str(out)}
    assert [(r["pair"], r["seed"], r["side"]) for r in written["runs"]] == [
        (1, 4, "parent"), (1, 4, "change"), (2, 9, "change"), (2, 9, "parent"),
        (3, 4, "parent"), (3, 4, "change")]
    assert [r["result"]["metrics"]["unit_s"]["value"] for r in written["runs"]] == pytest.approx(
        [0.02, 0.012, 0.013, 0.02, 0.02, 0.016])
    assert [row["metric"] for row in written["summary"]] == [
        "unit_s", "auc", "peak_rss_mb", "attempted"]
    assert written["summary"][0]["wins"] == 3
