"""Smoke test of the benchmark itself, on its seconds-long tiny inputs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Keeps the benchmark from rotting: every workload must run untraced and
traced, pass its correctness check (reference at the default seed, oracle
at another seed) and report every metric ``BENCHMARK.json`` declares. Not
part of the tier-1 suite, which collects ``tests/`` only.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(root, workload, seed, trace):
    """The benchmark as a checkout at ``root`` holds it, run from there."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed, trace", [(42, 0), (7, 1)])
def test_tiny_run_is_correct_and_complete(workload, seed, trace):
    done = run_bench(ROOT, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def copy_checkout(dest):
    copy_benchmark(dest)
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_tiny_reference_mismatch_is_reported(tmp_path):
    """A reference that disagrees with the program fails the run."""
    copy_checkout(tmp_path)
    ref_path = tmp_path / "bench" / "reference.json"
    ref = json.loads(ref_path.read_text(encoding="utf-8"))
    ref["workloads"]["narma_sweep"]["tiny"][0]["pearson_reps"][0] += 1e-3
    ref_path.write_text(json.dumps(ref), encoding="utf-8")
    done = run_bench(tmp_path, "narma_sweep", 42, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("factor, correct", [(0.9, True), (1.1, False)])
def test_small_lambda_tolerance_is_tight(tmp_path, factor, correct):
    """At the smallest lambda of the grid, moving the reference's pearson by
    just under its tolerance passes and by just over it fails. Runs one
    full-size narma10_wide child, whose seed-42 reference picks 1e-10 on
    some replications."""
    sys.path.insert(0, str(BENCH))
    from child import tolerance

    copy_checkout(tmp_path)
    ref_path = tmp_path / "bench" / "reference.json"
    ref = json.loads(ref_path.read_text(encoding="utf-8"))
    [experiment] = ref["workloads"]["narma10_wide"]["full"]
    rep = experiment["lambda_reps"].index(1e-10)
    experiment["pearson_reps"][rep] -= factor * tolerance(1e-10)
    ref_path.write_text(json.dumps(ref), encoding="utf-8")
    cmd = [sys.executable, "bench/run.py", "--workload", "narma10_wide",
           "--seed", "42", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is correct, done.stderr


def test_fails_without_a_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    copy_benchmark(tmp_path)
    done = run_bench(tmp_path, "narma_sweep", 42, 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_reference_time_scales_each_stretch_by_its_probe():
    sys.path.insert(0, str(BENCH))
    from hostspeed import REFERENCE_PROBE_S as p, reference_time

    # stretches: 0..0.25 at reference speed, then at half speed up to the
    # probe at 0.5, then at reference speed up to the end, closed after it
    probes = [(0.25, p), (0.5, 2 * p), (1.1, p)]
    expected = 0.25 + (0.25 - p) / 2 + (1.0 - 0.5 - 2 * p)
    assert reference_time(0.0, 1.0, probes) == pytest.approx(expected)


def test_meter_probes_and_gives_back_the_alarm():
    sys.path.insert(0, str(BENCH))
    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Meter() as meter:
        sum(i * i for i in range(3_000_000))
    assert len(meter.probes) >= 2
    assert 0.0 < meter.reference_s and 0.0 < meter.wall_s
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
