"""pulserc benchmark: measure one workload for a fixed time.

    python3 bench/run.py --workload narma_sweep --seed 1 --seconds 42 --trace 0

Run it from the root of a pulserc checkout; it benchmarks that checkout's
``src/pulserc`` as it stands, with no install step. Workloads and metrics
are described in ``bench/README.md`` and listed in ``BENCHMARK.json``.

Each sample is one fresh child process (``child.py``) that imports
pulserc, makes the workload's single top-level call and checks its
outputs. The call's wall time is rescaled to a reference host speed,
measured while it runs (``hostspeed.py``). Children run one at a time,
with BLAS/OpenMP pinned to one thread, for as long as the next one is
expected to end within ``--seconds``. ``--trace 0`` reports the
end-to-end metrics as medians over the untraced children. ``--trace 1``
alternates untraced and traced children and reports the per-layer
metrics, medians over the traced ones; the tracing overhead is the
difference between the two kinds' median walls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (counted in experiments) and
``metrics``. Each run also leaves a record with the environment, every
sample and, when traced, every span in ``.bench_work/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
# Read next to this script, so a checkout and the baseline it is compared
# with are measured against the same declared metrics.
DECLARED = BENCH_DIR.parent / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = ".bench_work"
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long inputs, for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        result, record = run(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    runs = root / WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}{'-tiny' if args.tiny else ''}"
            f"-seed{args.seed}-trace{args.trace}.json")
    (runs / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run(args, root: Path) -> tuple[dict, dict]:
    if not (root / "src" / "pulserc" / "__init__.py").is_file():
        raise BenchError(f"{root} has no src/pulserc; run from a checkout's root")
    try:
        declared = json.loads(DECLARED.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    with workspace(root, args.workload) as (workdir, env):
        prepare(args, root, workdir, env)
        samples = measure(args, root, workdir, env)

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    wall = statistics.median(s["wall_s"] for s in untraced)
    if args.trace:
        values = {k: statistics.median(s["layers"][k] for s in traced)
                  for k in traced[0]["layers"]}
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        values["host.raw_wall_s"] = statistics.median(s["raw_wall_s"] for s in untraced)
        values["host.probe_ms"] = statistics.median(s["probe_ms"] for s in untraced)
        declared_metrics = declared["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "node_updates_per_s": untraced[0]["node_updates"] / wall,
            "setup_s": statistics.median(s["setup_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
            "pearson_mean": statistics.median(s["pearson_mean"] for s in untraced),
        }
        declared_metrics = declared["end_to_end"]
    missing = [m["name"] for m in declared_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared but not measured: {missing}")

    attempted = sum(s["experiments"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics},
    }
    for reason in sorted({r for s in samples for r in s["failures"]}):
        print(f"bench: failure: {reason}", file=sys.stderr)
    print(f"bench: {len(untraced)} untraced / {len(traced)} traced samples; "
          f"outputs checked against {untraced[0]['check']}", file=sys.stderr)
    record = {
        "argv": sys.argv[1:],
        "environment": dict(untraced[0]["environment"], **host_environment(root)),
        "samples": samples,
        "result": result,
    }
    return result, record


@contextlib.contextmanager
def workspace(root: Path, workload: str):
    """A scratch directory inside the checkout (as a path relative to its
    root, so spec files stay free of '#') and the children's environment."""
    (root / WORK_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / WORK_DIR))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **wl.THREAD_ENV)
    try:
        yield workdir.relative_to(root).as_posix(), env
    finally:
        shutil.rmtree(workdir)


def prepare(args, root: Path, workdir: str, env: dict) -> None:
    """Write the CSV workload's inputs; nothing here is timed."""
    if args.workload != "csv_cli":
        return
    fields = wl.spec_fields(args.workload, args.tiny, args.seed, workdir)
    length = fields["washout"] + fields["train_len"] + fields["test_len"]
    cmd = [sys.executable, "-m", "pulserc.cli", "narma-gen", "--order", "10",
           "--length", str(length), "--seed", str(args.seed),
           "--out", fields["csv_input"]]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"narma-gen exited with {done.returncode}")
    (root / workdir / wl.SPEC_NAME).write_text(wl.spec_text(fields), encoding="utf-8")


def measure(args, root: Path, workdir: str, env: dict) -> list[dict]:
    """Children one after another while the next one, taking the median
    child's time, ends within ``--seconds`` (at least one, or one of each
    kind with tracing), so a run spends ``--seconds`` and not a child more;
    with tracing, untraced and traced children alternate."""
    samples: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while len(samples) < 1 + args.trace or (
            time.monotonic() - start + statistics.median(durations) <= args.seconds):
        traced = bool(args.trace) and len(samples) % 2 == 1
        t0 = time.monotonic()
        samples.append(run_child(args, root, workdir, env, traced, len(samples)))
        durations.append(time.monotonic() - t0)
    return samples


def run_child(args, root: Path, workdir: str, env: dict, traced: bool, n: int,
              reference: Path | None = REFERENCE) -> dict:
    """One child; ``reference=None`` skips the reference comparison."""
    out = root / workdir / f"child-{n}.json"
    (root / workdir / wl.RESULTS_NAME).unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, "--trace", str(int(traced)), "--out", str(out)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=root, env=env, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not out.is_file():
        raise BenchError(f"child exited with {done.returncode}")
    sample = json.loads(out.read_text(encoding="utf-8"))
    sample["traced"] = traced
    return sample


def host_environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": wl.THREAD_ENV,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None outside a git checkout, such as an
    exported tree, or when git cannot say."""
    if not (root / ".git").exists():  # a directory, or a file in a worktree
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
