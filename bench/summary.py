"""Run the benchmark over several seeds and print every metric.

    python3 bench/summary.py --runs 10                     # all workloads
    python3 bench/summary.py --runs 5 --workload csv_cli --trace 0
    python3 bench/summary.py --runs 10 --baseline ../parent  # paired runs

Run from the root of a checkout. Each run is one ``bench/run.py``
invocation with its own seed, 1 to ``--runs``. For every
workload the table lists each metric with its unit, which direction is
better, the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (interquartile distance over the median) against the metric's
bound from ``BENCHMARK.json``, and the number of runs.

With ``--baseline DIR`` every seed is run twice, once in this checkout
and once in DIR, alternating which goes first, with this checkout's
benchmark code on both sides. The table then adds the baseline's median,
the relative change, and in how many pairs this checkout was better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench
import workloads as wl

RUN_PY = Path(bench.__file__).resolve()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per workload")
    p.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS),
                   help="repeat to select several; default all")
    p.add_argument("--trace", type=int, action="append", choices=(0, 1),
                   help="repeat for both; default 0 and 1")
    p.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--baseline", type=Path, help="checkout to pair every run with")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads(bench.DECLARED.read_text(encoding="utf-8"))
    entries = collect(args, declared)
    report(entries, declared)
    return 0 if all(e["result"]["correct"] for e in entries) else 1


def collect(args, declared) -> list[dict]:
    seconds = args.seconds or declared["run_seconds"]
    sides = [("change", Path.cwd())]
    if args.baseline:
        sides.append(("baseline", args.baseline.resolve()))
    entries = []
    for workload in args.workload or list(wl.WORKLOADS):
        for trace in args.trace or (0, 1):
            for seed in range(1, args.runs + 1):
                order = sides if seed % 2 else sides[::-1]
                for side, root in order:
                    result = run_once(root, workload, seed, seconds, trace)
                    entries.append({"side": side, "workload": workload, "seed": seed,
                                    "trace": trace, "result": result})
    return entries


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} in {root} exited with "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{root.name or root}: {workload} seed {seed} trace {trace}: "
          f"correct={result['correct']}", file=sys.stderr)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(entries: list[dict], declared: dict) -> None:
    metrics = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    workloads = list(dict.fromkeys(e["workload"] for e in entries))
    for workload in workloads:
        mine = [e for e in entries if e["workload"] == workload]
        runs = [e for e in mine if e["side"] == "change"]
        attempted = sum(e["result"]["attempted"] for e in runs)
        failed = sum(e["result"]["failed"] for e in runs)
        seeds = sorted({e["seed"] for e in runs})
        print(f"\n{workload}: {len(runs)} runs over seeds {seeds}; "
              f"{failed} of {attempted} experiments failed "
              f"(failed_frac {failed / attempted if attempted else 0:.4g})")
        print(f"  {'metric':36} {'unit':6} {'better':6} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'spread':>7} {'bound':>6} {'n':>3}"
              + (f" {'baseline':>11} {'change':>8} {'wins':>6}" if len(runs) < len(mine)
                 else ""))
        for name in dict.fromkeys(k for e in runs for k in e["result"]["metrics"]):
            values = [e["result"]["metrics"][name]["value"] for e in runs
                      if name in e["result"]["metrics"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            m = metrics.get(name, {"unit": "?", "better": "?"})
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            line = (f"  {name:36} {m['unit']:6} {m['better']:6} {med:11.5g} "
                    f"{q1:11.5g} {q3:11.5g} {spread:7.3f} {bound:>6} {len(values):3d}")
            line += paired(mine, name, m, med)
            print(line)


def paired(entries: list[dict], name: str, metric: dict, median: float) -> str:
    """Baseline median, relative change and wins, when runs are paired."""
    by_seed: dict[tuple, dict] = {}
    for e in entries:
        if name in e["result"]["metrics"]:
            key = (e["seed"], e["trace"])
            by_seed.setdefault(key, {})[e["side"]] = e["result"]["metrics"][name]["value"]
    pairs = [(p["change"], p["baseline"]) for p in by_seed.values() if len(p) == 2]
    if not pairs:
        return ""
    base = statistics.median(b for _, b in pairs)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for c, b in pairs if sign * (c - b) > 0)
    change = (median - base) / abs(base) if base else 0.0
    return f" {base:11.5g} {change:+8.2%} {wins:3d}/{len(pairs):<2d}"


if __name__ == "__main__":
    sys.exit(main())
