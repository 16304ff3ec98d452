"""One measured call of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample; it is not meant to be run
by hand. It imports pulserc, builds the workload's single top-level call
(``run_sweep``, ``run_experiment`` or ``pulserc.cli.main``), times it,
checks the outputs and writes one JSON object to ``--out``. Set-up and
call times are rescaled to a reference host speed (``hostspeed.py``);
the clock's readings are kept as ``raw_setup_s`` and ``raw_wall_s``.

Outputs are checked at every seed by range checks and by the oracle in
``oracle.py`` (replication 0 of the first experiment and the last
replication of the last one). At the default seed every replication is
also compared with ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import workloads as wl


# (largest lambda, tolerance) pairs, smallest lambda first; see tolerance().
_TOLERANCES = ((1e-10, 1.5e-3), (1e-8, 1e-4))
_TOLERANCE = 1e-6


def tolerance(ridge_lambda: float) -> float:
    """Largest difference in pearson or nrmse accepted for a replication
    fitted at ``ridge_lambda``, against the reference or the oracle.

    The ridge normal equations of these workloads have condition numbers
    of about 5e4 / lambda, so equally valid solvers drift apart as lambda
    shrinks. Cholesky (the program's solver), LU (the oracle's) and an
    eigendecomposition were measured to differ in test pearson or nrmse by
    up to 6.7e-4 at lambda = 1e-10, 4.5e-5 at 1e-8 and 7.8e-8 at 1e-6
    (NARMA-10, V = 800, seeds 1-10, replications 0 and 9), and in held-out
    nrmse by up to 1.5e-3, 3.6e-5 and 1.8e-7. Each test tolerance sits a
    small margin above the worst case at its lambda. A defect in the
    drive, the seeding, the split or the metrics moves these values by
    far more.
    """
    for largest, tol in _TOLERANCES:
        if ridge_lambda <= largest:
            return tol
    return _TOLERANCE


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before run.py started this process")
    p.add_argument("--reference", default=None,
                   help="reference file; omit to skip the reference comparison")
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def build_call(args, tracer):
    """The workload's top-level call, traced when ``tracer`` is set."""
    import pulserc
    import pulserc.cli

    fields = wl.spec_fields(args.workload, args.tiny, args.seed, args.workdir)
    _, axes = wl.definition(args.workload, args.tiny)
    results_path = f"{args.workdir}/{wl.RESULTS_NAME}"

    if args.workload == "narma_sweep":
        fn, span = pulserc.run_sweep, "harness.run_sweep"
        spec = pulserc.ExperimentSpec(**fields)
        call_args = (spec, axes, results_path)
    elif args.workload == "narma10_wide":
        fn, span = pulserc.run_experiment, "harness.run_experiment"
        call_args = (pulserc.ExperimentSpec(**fields),)
    else:
        fn, span = pulserc.cli.main, "cli.main"
        call_args = (wl.sweep_argv(args.workload, args.tiny, args.workdir),)
    if tracer is not None:
        fn = tracer.wrap(fn, span)
    return lambda: fn(*call_args)


def collect_outputs(workload, result, workdir) -> list[dict]:
    """Per-experiment replication metrics, from the return value or, for
    the CLI workload, from the results file it wrote."""
    if workload == "narma_sweep":
        records = result
    elif workload == "narma10_wide":
        records = [result]
    else:
        if result != 0:
            raise RuntimeError(f"pulserc sweep exited with {result}")
        return read_results(f"{workdir}/{wl.RESULTS_NAME}")
    return [{"pearson_reps": list(r.pearson_reps), "nrmse_reps": list(r.nrmse_reps),
             "lambda_reps": list(r.lambda_reps)} for r in records]


def read_results(path) -> list[dict]:
    """Replication columns of a results TSV, looked up by column name."""
    names, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if names is None:
                names = cells
            else:
                rows.append(dict(zip(names, cells)))
    keys = ("pearson_reps", "nrmse_reps", "lambda_reps")
    return [{k: [float(v) for v in row[k].split(";")] for k in keys} for row in rows]


def check(outputs, expected, reference) -> dict[int, str]:
    """Failure reason per experiment index; empty when all are correct.
    ``expected`` holds the spec fields of each experiment."""
    failures: dict[int, str] = {}
    if len(outputs) != len(expected):
        return {i: f"{len(outputs)} experiments reported, {len(expected)} expected"
                for i in range(len(expected))}
    for i, (out, f) in enumerate(zip(outputs, expected)):
        allowed = f.get("lambda_grid") or (f["ridge_lambda"],)
        reps = list(zip(out["pearson_reps"], out["nrmse_reps"], out["lambda_reps"]))
        if len(reps) != f["replications"]:
            failures[i] = f"{len(reps)} replications, {f['replications']} expected"
        elif not all(math.isfinite(p) and math.isfinite(e) and -1.0 <= p <= 1.0
                     and e >= 0.0 and lam in allowed for p, e, lam in reps):
            failures[i] = f"metric out of range: {reps}"
        elif reference is not None and out["lambda_reps"] != reference[i]["lambda_reps"]:
            failures[i] = (f"lambda_reps {out['lambda_reps']} != reference "
                           f"{reference[i]['lambda_reps']}")
        elif reference is not None:
            ref = reference[i]
            worst = max(max(abs(p - rp), abs(e - re)) / tolerance(lam)
                        for (p, e, lam), rp, re in zip(reps, ref["pearson_reps"],
                                                       ref["nrmse_reps"]))
            if worst > 1.0:
                failures[i] = (f"pearson/nrmse differ from the reference by "
                               f"{worst:.3g} times the tolerance")
    last = len(expected) - 1
    for i, rep in ((0, 0), (last, expected[last]["replications"] - 1)):
        if i not in failures:
            reason = check_oracle(expected[i], outputs[i], rep)
            if reason:
                failures[i] = reason
    return failures


def check_oracle(fields, out, rep) -> str | None:
    """Replication ``rep`` of one experiment against ``oracle.py``: the
    chosen lambda (for a grid) and the test pearson and nrmse."""
    import oracle

    csv_columns = None
    if fields["task"] == "csv":
        with open(fields["csv_input"], encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh if not line.startswith("#")]
        data = np.array(rows[1:], dtype=float)  # after the "u,y" header
        csv_columns = (data[:, 0], data[:, 1])
    replication = oracle.Replication(fields, rep, csv_columns)
    lam = out["lambda_reps"][rep]
    grid = fields.get("lambda_grid")
    if grid:
        # Held-out errors are known only to within each lambda's tolerance,
        # so a near-tie may go either way; a clearly worse lambda may not.
        errors = dict(zip(grid, replication.validation_nrmse(grid)))
        best = min(grid, key=errors.__getitem__)
        if errors[lam] - errors[best] > tolerance(lam) + tolerance(best):
            return (f"replication {rep} chose lambda {lam:g}; the oracle chose "
                    f"{best:g} (held-out nrmse {errors[lam]:.6g} vs {errors[best]:.6g})")
    pearson, nrmse = replication.test_metrics(lam)
    diff = max(abs(pearson - out["pearson_reps"][rep]), abs(nrmse - out["nrmse_reps"][rep]))
    if not diff <= tolerance(lam):
        return f"replication {rep} differs from the oracle by {diff:.3g} at lambda {lam:g}"
    return None


def environment() -> dict:
    import pulserc
    import scipy

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "pulserc": pulserc.__version__}
    for name, module in (("numpy_blas", np), ("scipy_blas", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[name] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
        except (TypeError, KeyError) as exc:
            env[name] = f"unavailable ({exc!r})"
    return env


def main() -> int:
    # Set-up (spawn to call) is rescaled by the host speed probed from
    # here on, the first point where the probe's NumPy is loaded; pulserc
    # and SciPy are imported after it.
    with hostspeed.Meter() as setup_meter:
        args = parse_args()
        tracer = None
        if args.trace:
            from tracing import Tracer  # untraced children never import it

            tracer = Tracer()
            tracer.install()
        call = build_call(args, tracer)
    raw_setup_s = time.monotonic() - args.spawned_at

    error, result = None, None
    with hostspeed.Meter() as meter:
        try:
            result = call()
        except Exception:  # the workload's failure is a result, not a crash
            error = traceback.format_exc()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = wl.experiments(args.workload, args.tiny, args.seed, args.workdir)
    use_reference = args.reference is not None and args.seed == wl.DEFAULT_SEED
    outputs, failures = [], {}
    if error is None:
        try:
            outputs = collect_outputs(args.workload, result, args.workdir)
            reference = None
            if use_reference:
                ref_all = json.loads(Path(args.reference).read_text(encoding="utf-8"))
                reference = ref_all["workloads"][args.workload][wl.size_name(args.tiny)]
            failures = check(outputs, expected, reference)
        except Exception:  # a malformed output or reference fails every experiment
            error = traceback.format_exc()
    if error is not None:
        failures = {i: error for i in range(len(expected))}

    pearsons = [p for out in outputs for p in out["pearson_reps"]]
    results_path = Path(args.workdir, wl.RESULTS_NAME)
    results_bytes = results_path.stat().st_size if results_path.exists() else 0
    report = {
        "setup_s": setup_meter.rescale(raw_setup_s),
        "raw_setup_s": raw_setup_s,
        "wall_s": meter.reference_s,
        "raw_wall_s": meter.wall_s,
        "probe_ms": 1e3 * meter.probe_s,
        "peak_rss_mb": peak_rss_mb,
        "experiments": len(expected),
        "failed": len(failures),
        "failures": sorted(set(failures.values())),
        "check": "reference+oracle" if use_reference else "oracle",
        "pearson_mean": sum(pearsons) / len(pearsons) if pearsons else 0.0,
        "node_updates": wl.node_updates(expected),
        "results_bytes": results_bytes,
        "outputs": outputs,
        "environment": environment(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(meter.wall_s, results_bytes)
        report["layers"]["trace.wall_s"] = meter.reference_s
        report["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
