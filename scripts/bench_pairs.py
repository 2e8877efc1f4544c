"""Run perfbench in a parent and a change checkout, in pairs, and compare
each end-to-end metric of BENCHMARK.json:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload exact-score --pairs 10 --seconds 20 --seeds 11,12

Pair i runs ``perfbench/run.py --workload W --seed S --seconds S`` once in
each checkout, from that checkout's root, with seed ``seeds[i % len(seeds)]``.
Even pairs run the parent first, odd pairs the change first. One progress
line per run goes to stderr.

For each metric the table gives each side's median and quartiles over its
runs, the change/parent ratio of the medians, and the pairs the change won;
a win follows the metric's ``better`` and a tie counts for neither side.
``gap>IQR`` marks a median gap wider than the parent's quartile spread;
``OVER BOUND`` marks a change median worse than the parent's by more than
the metric's ``bound``, read as a share of the parent's median. A last
``attempted`` row gives each side's median and quartiles of the result
line's ``attempted`` operations, without wins or flags: perfbench keeps every
cycle's outputs, so a faster change runs more cycles and its peak memory
reads against that count. On exact-score, whose ``unit_s`` perfbench scales
by a host-speed calibration, a ``raw unit_s`` row gives the same for the
uncalibrated ``info.raw.unit_s`` of the line before the result, with each
side's median ``info.speed_scale``, also without wins or flags. Every run
with ``correct: false`` or a failed operation is listed after the table.
``--json PATH`` also writes one JSON object to PATH: the arguments, every
run in run order (its pair, seed, side and perfbench result line) and the
table's rows. Nothing here writes to either checkout beyond what perfbench
itself does.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_result(stdout: str) -> dict:
    """The result line of one perfbench run, its last line of output, with
    the ``info`` of the line before it, if there is one, under "info"."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if len(lines) > 1:
        result["info"] = json.loads(lines[-2]).get("info", {})
    return result


def _quartiles(values: list) -> tuple:
    """(median, lower quartile, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def summarize(end_to_end: list, pairs: list) -> list:
    """One dict per end-to-end metric from (parent result, change result)
    pairs; a pair counts for a metric only where both runs report it."""
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not both:
            continue
        row = _sides(name, both)
        parent, change = row["parent"], row["change"]
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        ties = sum(c == p for p, c in both)
        worse = (change[0] - parent[0]) if lower else (parent[0] - change[0])
        rows.append({
            **row,
            "wins": wins,
            "ties": ties,
            "pairs": len(both),
            "gap_over_iqr": abs(change[0] - parent[0]) > parent[2] - parent[1],
            "over_bound": worse > spec["bound"] * abs(parent[0]),
        })
    counts = [(p["attempted"], c["attempted"]) for p, c in pairs
              if p.get("attempted") is not None and c.get("attempted") is not None]
    if counts:
        rows.append({**_sides("attempted", counts), "pairs": len(counts)})
    infos = [(p["info"], c["info"]) for p, c in pairs
             if "raw" in p.get("info", {}) and "raw" in c.get("info", {})]
    if infos:
        raw = [(p["raw"]["unit_s"], c["raw"]["unit_s"]) for p, c in infos]
        scales = _sides("speed_scale", [(p["speed_scale"], c["speed_scale"]) for p, c in infos])
        rows.append({**_sides("raw unit_s", raw), "pairs": len(raw),
                     "speed_scale": (scales["parent"][0], scales["change"][0])})
    return rows


def _sides(name: str, both: list) -> dict:
    """Each side's quartiles over (parent, change) values, and the ratio of
    their medians."""
    parent = _quartiles([p for p, _ in both])
    change = _quartiles([c for _, c in both])
    return {"metric": name, "parent": parent, "change": change,
            "ratio": change[0] / parent[0] if parent[0] else float("nan")}


def failures(runs: list) -> list:
    """(label, result) of every run that was not correct or had a failure."""
    return [(label, r) for label, r in runs
            if not r.get("correct", False) or r.get("failed", 0) > 0]


def format_table(rows: list) -> str:
    def spread(q):
        return f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"

    lines = [f"{'metric':<14}{'parent median [q1, q3]':<32}{'change median [q1, q3]':<32}"
             f"{'ratio':>7}{'wins':>8}{'ties':>6}  flags"]
    for r in rows:
        line = (f"{r['metric']:<14}{spread(r['parent']):<32}{spread(r['change']):<32}"
                f"{r['ratio']:>7.3f}")
        if "wins" in r:
            flags = [f for f, on in (("gap>IQR", r["gap_over_iqr"]),
                                     ("OVER BOUND", r["over_bound"])) if on]
            line += f"{r['wins']:>5}/{r['pairs']:<2}{r['ties']:>6}  {' '.join(flags)}"
        elif "speed_scale" in r:
            line += "  speed_scale {:.4g} / {:.4g}".format(*r["speed_scale"])
        lines.append(line)
    return "\n".join(lines)


def _label(run: dict) -> str:
    return f"pair {run['pair']} seed {run['seed']} {run['side']}"


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        return parse_result(proc.stdout)
    except ValueError as exc:
        tail = " ".join(proc.stderr.strip().splitlines()[-3:])
        return {"correct": False, "failed": None, "metrics": {}, "error": f"{exc}: {tail}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated perfbench seeds")
    p.add_argument("--json", help="also write the arguments, every run and the summary here")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    pairs, runs = [], []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            result[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs.append({"pair": i + 1, "seed": seed, "side": side, "result": result[side]})
            shown = {k: round(v["value"], 6) for k, v in result[side]["metrics"].items()}
            print(f"{_label(runs[-1])}: {json.dumps(shown)}", file=sys.stderr, flush=True)
        pairs.append((result["parent"], result["change"]))

    rows = summarize(end_to_end, pairs)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seeds}, --seconds {args.seconds:g}")
    print(format_table(rows))
    bad = failures([(_label(run), run["result"]) for run in runs])
    for label, r in bad:
        print(f"{label}: correct {r.get('correct')}, failed {r.get('failed')} "
              f"of {r.get('attempted')} {r.get('error', '')}".rstrip())
    if not bad:
        print("every run correct, no failed operation")
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump({"args": vars(args), "runs": runs, "summary": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
