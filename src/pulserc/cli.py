"""Command-line entry point.

Subcommands:
    run        execute a single experiment from a spec file
    sweep      run a Cartesian grid of field overrides over a spec file
    narma-gen  write a NARMA input/target dataset to CSV
    figure     turn results into plot-ready tabular text

Exit codes: 0 success, 2 spec error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import DivergenceError, ParameterError, PulseRcError, SpecError
from .harness import (SPEC_TYPES, _field_value, _run_points, emit_figure_data,
                      parse_spec_file, read_records, run_sweep)
from .tasks import NarmaConfig, gen_narma


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulserc",
        description="Delay-based reservoir computing benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment from a spec file")
    _add_spec_overrides(p_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments")
    _add_spec_overrides(p_sweep)
    p_sweep.add_argument(
        "--axis", action="append", default=[], metavar="FIELD=V1,V2,...",
        help="sweep axis; repeat for a Cartesian product")

    p_gen = sub.add_parser("narma-gen", help="emit a NARMA dataset to CSV")
    p_gen.add_argument("--order", type=int, default=2)
    p_gen.add_argument("--length", type=int, default=3000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--low", type=float, default=0.0)
    p_gen.add_argument("--high", type=float, default=0.5)
    p_gen.add_argument("--compat-narma-sum", action="store_true")
    p_gen.add_argument("--out", required=True)

    p_fig = sub.add_parser("figure", help="emit figure data from results")
    p_fig.add_argument("--figure", required=True,
                       choices=("pearson_vs_N", "prediction_trace"))
    p_fig.add_argument("--records", help="results file (pearson_vs_N)")
    p_fig.add_argument("--spec", help="spec file to (re)run (prediction_trace)")
    p_fig.add_argument("--out", required=True)

    return parser


def _add_spec_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="experiment spec file")
    p.add_argument("--out", help="results file (overrides the spec's)")
    p.add_argument("--seed", help="override base seed")
    p.add_argument("--replications", help="override replication count")
    p.add_argument("--compat-narma-sum", action="store_const", const=True,
                   help="use the N-term NARMA sum convention")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            return _cmd_experiments(args)
        if args.command == "narma-gen":
            return _cmd_narma_gen(args)
        return _cmd_figure(args)
    except SpecError as exc:
        print(f"pulserc: spec error: {exc}", file=sys.stderr)
        return 2
    except (PulseRcError, OSError, MemoryError) as exc:
        print(f"pulserc: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def _cmd_experiments(args) -> int:
    """``run`` and ``sweep``: a run is a sweep without axes, one record."""
    spec = parse_spec_file(args.spec)
    overrides = {}
    for name, value in vars(args).items():  # read as a spec file reads the field
        if name in SPEC_TYPES and value is not None:
            overrides[name] = _field_value(name, str(value), f"--{name.replace('_', '-')}")
    spec = replace(spec, **overrides)
    if not spec.out:
        raise SpecError("the results path (out / --out) is empty")
    axes = [_parse_axis(a) for a in getattr(args, "axis", [])]
    # run_sweep opens --out first, so an unwritable path fails before any compute
    records = run_sweep(spec, axes, out_path=spec.out)
    if args.command == "run":
        [record] = records
        print(f"{spec.task} order={spec.order} V={spec.num_nodes}: "
              f"pearson {record.pearson_mean:.4f} +- {record.pearson_std:.4f}, "
              f"nrmse {record.nrmse_mean:.4f} +- {record.nrmse_std:.4f} "
              f"({record.duration_s:.2f}s, {spec.replications} reps) -> {spec.out}")
    else:
        total = sum(r.duration_s for r in records)
        print(f"{len(records)} experiment(s) -> {spec.out} ({total:.2f}s)")
    return 0


def _parse_axis(text: str) -> tuple[str, list[str]]:
    """``FIELD=V1,V2,...`` as (field, value texts); ``run_sweep`` coerces
    each text to the field's type."""
    if "=" not in text:
        raise SpecError(f"axis must look like FIELD=V1,V2,..., got {text!r}")
    name, _, rest = text.partition("=")
    return name.strip(), [p.strip() for p in rest.split(",") if p.strip()]


def _cmd_narma_gen(args) -> int:
    # the arguments alone fix whether the draw diverges, so both are spec errors
    try:
        cfg = NarmaConfig(order=args.order, length=args.length, seed=args.seed,
                          input_low=args.low, input_high=args.high)
        ds = gen_narma(cfg, compat_sum=args.compat_narma_sum)
    except (ParameterError, DivergenceError) as exc:
        raise SpecError(str(exc)) from exc
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# NARMA-{cfg.order} length={cfg.length} seed={cfg.seed}\n")
        fh.write("u,y\n")
        for u, y in zip(ds.inputs, ds.targets):
            fh.write(f"{float(u)!r},{float(y)!r}\n")
    print(f"NARMA-{cfg.order} dataset ({cfg.length} rows) -> {args.out}")
    return 0


def _cmd_figure(args) -> int:
    if args.figure == "pearson_vs_N":
        if not args.records:
            raise SpecError("figure pearson_vs_N needs --records")
        emit_figure_data(read_records(args.records), "pearson_vs_N", args.out)
    else:
        if not args.spec:
            raise SpecError("figure prediction_trace needs --spec")
        # the run's checks and its series first, so a spec error leaves no file,
        # then --out, so an unwritable path fails before any drive
        records = _run_points([parse_spec_file(args.spec)])
        open(args.out, "w", encoding="utf-8").close()
        emit_figure_data(list(records), "prediction_trace", args.out)
    print(f"{args.figure} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
