"""Experiment runner: wires tasks, reservoir, and readout together.

An :class:`ExperimentSpec` describes one benchmark configuration; it can
be built in code or parsed from a spec file, a flat ``key = value`` text
format with '#' comments (at the start of a line or after whitespace) and
a mandatory ``schema`` field. ``SPEC_TYPES``, derived from the dataclass,
is the one vocabulary that spec files, sweep axes and results files use.
:func:`run_experiment` executes the spec over its replications;
:func:`run_sweep` runs a Cartesian grid of field overrides and streams
records to a results file whose content is a pure function of the spec,
so reruns are byte-identical; :func:`read_records` reads one back.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import re
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import PulseRcError, SpecError
from .readout import ReadoutWeights, evaluate, fit_ridge, normal_equations, nrmse, predict
from .reservoir import MASK_KINDS, ReservoirParams, drive_block, generate_mask
from .tasks import NarmaConfig, TaskDataset, gen_narma, gen_surrogate_laser, load_csv_task, standardize

SCHEMA_VERSION = 1

# stream tags keeping the per-replication task / noise / mask draws apart
_STREAM_TASK = 0
_STREAM_NOISE = 1
_STREAM_MASK = 2

# Replications are driven in blocks whose stacked state matrices fit in
# this many bytes: enough to amortize the per-step overhead over several
# replications at small V, without stacking all of them at large V.
_DRIVE_BLOCK_BYTES = 8 * 2**20

_TASKS = ("narma", "surrogate", "csv")


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark configuration, flat enough to echo into files."""

    schema: int = SCHEMA_VERSION
    task: str = "narma"
    order: int = 2
    compat_narma_sum: bool = False
    csv_input: str = ""
    csv_target: str = ""
    standardize: bool = False
    num_nodes: int = 35
    alpha: float = 0.7
    beta: float = 1.0
    gain_c: float = 1.0
    pulse_period: float = 6.4e-9
    bandwidth_time: float = 21e-9
    noise_sigma: float = 0.0
    mask_kind: str = "uniform"
    mask_seed: int = 1
    washout: int = 50
    train_len: int = 2250
    test_len: int = 600
    ridge_lambda: float = 1e-6
    lambda_grid: tuple[float, ...] = ()
    replications: int = 10
    seed: int = 42
    out: str = "results.tsv"

    def __post_init__(self) -> None:
        # a list grid would be written, hashed and read back as a list
        object.__setattr__(self, "lambda_grid", tuple(self.lambda_grid))

    def validate(self) -> None:
        """Raise SpecError on anything inconsistent, before any run."""
        if self.schema != SCHEMA_VERSION:
            raise SpecError(
                f"unsupported schema {self.schema!r}; this build reads "
                f"schema {SCHEMA_VERSION}")
        if self.task not in _TASKS:
            raise SpecError(f"task must be one of {_TASKS}, got {self.task!r}")
        if self.task == "csv" and not (self.csv_input and self.csv_target):
            raise SpecError("task 'csv' needs csv_input and csv_target")
        if self.mask_kind not in MASK_KINDS:
            raise SpecError(
                f"mask_kind must be one of {MASK_KINDS}, got {self.mask_kind!r}")
        if self.replications < 1:
            raise SpecError(f"replications must be >= 1, got {self.replications}")
        if self.train_len < 1 or self.test_len < 2:
            raise SpecError(f"train_len must be >= 1 and test_len >= 2, got "
                            f"{self.train_len} and {self.test_len}")
        if self.washout < 0:
            raise SpecError(f"washout must be >= 0, got {self.washout}")
        if self.seed < 0 or self.mask_seed < 0:
            raise SpecError(f"seed and mask_seed must be >= 0, got "
                            f"{self.seed} and {self.mask_seed}")
        held_out = self.train_len - _fit_rows(self.train_len)
        if self.lambda_grid and held_out < 2:
            raise SpecError(f"lambda_grid needs >= 2 held-out training rows; "
                            f"train_len {self.train_len} leaves {held_out}")
        for lam in (self.ridge_lambda, *self.lambda_grid):
            if not (math.isfinite(lam) and lam >= 0):
                raise SpecError(
                    f"ridge strength must be finite and >= 0, got {lam}")
        try:
            self.reservoir_params()
            if self.task == "narma":
                NarmaConfig(self.order, self.total_len, self.seed)
        except PulseRcError as exc:
            raise SpecError(str(exc)) from exc

    @property
    def total_len(self) -> int:
        """Samples a generated task must provide."""
        return self.washout + self.train_len + self.test_len

    def reservoir_params(self) -> ReservoirParams:
        """The reservoir constants; noise seeds go per replication."""
        return ReservoirParams(
            num_nodes=self.num_nodes, alpha=self.alpha, beta=self.beta,
            gain_c=self.gain_c, pulse_period=self.pulse_period,
            bandwidth_time=self.bandwidth_time, noise_sigma=self.noise_sigma)

    def to_dict(self) -> dict:
        """Experiment-defining fields, in declaration order. The output
        path is a runtime knob and is left out."""
        return {f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "out"}

    def spec_hash(self) -> str:
        """Digest of the experiment-defining fields, independent of field
        order."""
        items = sorted((k, _fmt_value(v)) for k, v in self.to_dict().items())
        blob = ";".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# every spec field's type, in declaration order: the vocabulary of spec
# files, sweep axes and results-file columns
SPEC_TYPES = {f.name: type(f.default) for f in fields(ExperimentSpec)}

# numeric fields a sweep axis may override
SWEEPABLE_FIELDS = frozenset(
    k for k, kind in SPEC_TYPES.items() if kind in (int, float) and k != "schema")


@dataclass
class ResultRecord:
    """Outcome of one experiment: spec echo, per-replication metrics,
    aggregates, and the first replication's test trace."""

    spec_fields: dict
    spec_hash: str
    pearson_reps: list[float]
    nrmse_reps: list[float]
    lambda_reps: list[float]
    pearson_mean: float
    pearson_std: float
    nrmse_mean: float
    nrmse_std: float
    duration_s: float
    trace_targets: np.ndarray | None = None
    trace_predictions: np.ndarray | None = None
    readout_first: np.ndarray | None = None


def derive_seed(base: int, replication: int, stream: int) -> int:
    """Deterministic per-replication seed, collision-resistant across
    the task / noise / mask streams."""
    ss = np.random.SeedSequence([int(base), int(replication), int(stream)])
    return int(ss.generate_state(1)[0])


def run_experiment(spec: ExperimentSpec) -> ResultRecord:
    """Execute one spec over all its replications and aggregate.

    Each replication draws its own task, mask, and noise seeds from the
    spec's base seeds, so replication r of a long series equals
    replication r of a short one. Replications are driven together in
    blocks of at most ``_DRIVE_BLOCK_BYTES`` of state matrices; the block
    size changes no result.
    """
    spec.validate()
    t0 = time.perf_counter()
    datasets, masks = _prepare_replications(spec)
    noise_seeds = [derive_seed(spec.seed, r, _STREAM_NOISE)
                   for r in range(spec.replications)]
    params = spec.reservoir_params()
    rep_bytes = spec.total_len * (spec.num_nodes + 1) * 8
    block = max(1, min(spec.replications, _DRIVE_BLOCK_BYTES // rep_bytes))

    reps = []
    for first in range(0, spec.replications, block):
        reps += _run_block(spec, params, datasets, masks, noise_seeds,
                           range(first, min(first + block, spec.replications)))
    pearsons = [rep["pearson"] for rep in reps]
    nrmses = [rep["nrmse"] for rep in reps]
    return ResultRecord(
        spec_fields=spec.to_dict(),
        spec_hash=spec.spec_hash(),
        pearson_reps=pearsons,
        nrmse_reps=nrmses,
        lambda_reps=[rep["ridge_lambda"] for rep in reps],
        pearson_mean=float(np.mean(pearsons)),
        pearson_std=_spread(pearsons),
        nrmse_mean=float(np.mean(nrmses)),
        nrmse_std=_spread(nrmses),
        duration_s=time.perf_counter() - t0,
        trace_targets=reps[0]["targets"],
        trace_predictions=reps[0]["predictions"],
        readout_first=reps[0]["weights"],
    )


def run_sweep(
    base: ExperimentSpec,
    axes: list[tuple[str, list]],
    out_path=None,
) -> list[ResultRecord]:
    """Run the Cartesian product of axis values over the base spec.

    Axis values may be numbers or text (as the CLI passes them); each is
    read as its field's type, as a spec file reads it. Every point is
    validated before any compute. Records come back in lexicographic order
    over the axes as given and are streamed to ``out_path`` (unless None)
    as they complete.
    """
    base.validate()
    typed: dict[str, list] = {}
    for name, values in axes or ():
        if name not in SWEEPABLE_FIELDS:
            raise SpecError(
                f"unknown sweep field {name!r}; sweepable fields: "
                f"{', '.join(sorted(SWEEPABLE_FIELDS))}")
        if name in typed:
            raise SpecError(f"sweep axis {name!r} is given more than once")
        if not values:
            raise SpecError(f"sweep axis {name!r} has no values")
        try:
            typed[name] = [_parse_value(SPEC_TYPES[name], str(v)) for v in values]
        except ValueError as exc:
            raise SpecError(f"field {name!r}: {exc}") from exc
    specs = [replace(base, **dict(zip(typed, combo)))
             for combo in itertools.product(*typed.values())]
    for s in specs:
        s.validate()
    if out_path is None:
        return list(map(run_experiment, specs))
    return write_records(out_path, base, typed.items(), map(run_experiment, specs))


def emit_figure_data(records: list[ResultRecord], figure: str, out) -> None:
    """Write plot-ready tabular text for one of the two figure kinds.

    ``pearson_vs_N``: one row per record with columns
    (N, V, pearson_mean, pearson_std). ``prediction_trace``: columns
    (step, target, prediction) from the first record's stored test trace.
    """
    if figure == "pearson_vs_N":
        lines = ["N\tV\tpearson_mean\tpearson_std"]
        for rec in records:
            missing = [k for k in ("order", "num_nodes") if k not in rec.spec_fields]
            if missing:
                raise SpecError(
                    f"record lacks field(s) {missing}; available: "
                    f"{', '.join(sorted(rec.spec_fields))}")
            lines.append("\t".join((
                _fmt_value(rec.spec_fields["order"]),
                _fmt_value(rec.spec_fields["num_nodes"]),
                _fmt_value(rec.pearson_mean),
                _fmt_value(rec.pearson_std),
            )))
    elif figure == "prediction_trace":
        if not records:
            raise SpecError("no records to trace")
        rec = records[0]
        if rec.trace_targets is None or rec.trace_predictions is None:
            raise SpecError("record carries no stored test trace")
        lines = ["step\ttarget\tprediction"]
        for i, (t, p) in enumerate(zip(rec.trace_targets, rec.trace_predictions)):
            lines.append(f"{i}\t{_fmt_value(float(t))}\t{_fmt_value(float(p))}")
    else:
        raise SpecError(
            f"unknown figure {figure!r}; choose pearson_vs_N or prediction_trace")
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# spec files

# '#' opens a comment at the start of a line or after whitespace, so a
# value such as ``run#2.csv`` keeps its '#'
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_spec_file(path) -> ExperimentSpec:
    """Parse the ``key = value`` spec format into an ExperimentSpec.

    Unknown keys and malformed values fail fast; the ``schema`` field is
    mandatory so old files cannot be misread silently.
    """
    values: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot open spec {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.sub("", raw, count=1).strip()
            if not line:
                continue
            if "=" not in line:
                raise SpecError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in SPEC_TYPES:
                raise SpecError(
                    f"{path}:{lineno}: unknown key {key!r}; known keys: "
                    f"{', '.join(sorted(SPEC_TYPES))}")
            if key in values:
                raise SpecError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = _parse_value(SPEC_TYPES[key], text)
            except ValueError as exc:
                raise SpecError(f"{path}:{lineno}: {exc}") from exc
    if "schema" not in values:
        raise SpecError(f"{path}: missing mandatory 'schema' field")
    spec = ExperimentSpec(**values)
    spec.validate()
    return spec


def write_spec_file(spec: ExperimentSpec, path) -> None:
    """Inverse of :func:`parse_spec_file`: floats are written in full, so
    every value reads back exactly."""
    lines = [f"{f.name} = {_fmt_value(getattr(spec, f.name), exact=True)}"
             for f in fields(spec)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_value(kind: type, text: str):
    """Inverse of :func:`_fmt_value` for a value of type ``kind``. An int
    is read exactly, or from an integral number such as ``35.0``."""
    if kind is int:
        with contextlib.suppress(ValueError):
            return int(text)
        with contextlib.suppress(ValueError):
            if float(text).is_integer():
                return int(float(text))
        raise ValueError(f"expected an integer, got {text!r}")
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if kind is tuple:
        return tuple(float(p) for p in text.split(",") if p.strip())
    if kind is list:
        return [float(p) for p in text.split(";") if p.strip()]
    return kind(text)


def _fmt_value(v, exact: bool = False) -> str:
    """``v`` as text; floats to 12 significant digits, or in full (their
    shortest exact form) if ``exact``."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v)) if exact else format(v, ".12g")
    if isinstance(v, tuple):
        return ",".join(_fmt_value(float(x), exact) for x in v)
    if isinstance(v, list):
        return ";".join(_fmt_value(x) for x in v)
    return str(v)


# ---------------------------------------------------------------------------
# single-replication pipeline

def _prepare_replications(
    spec: ExperimentSpec,
) -> tuple[list[TaskDataset], list[np.ndarray]]:
    """Every replication's (standardized) dataset and mask weights. A CSV
    task does not depend on the task seed, so its file is read once and
    shared by all replications; it may change between calls, so it is
    never kept. Generated series come from :func:`_generated_tasks`."""
    if spec.task == "csv":
        series = (load_csv_task(spec.csv_input, spec.csv_target),)
    else:
        series = _generated_tasks(spec.task, spec.order, spec.compat_narma_sum,
                                  spec.total_len, spec.seed, spec.replications)
    datasets = []
    for r, ds in enumerate(series):
        with _replication(r):
            if ds.length < spec.total_len:
                raise SpecError(
                    f"task {ds.name!r} provides {ds.length} samples but "
                    f"washout+train+test needs {spec.total_len}")
            datasets.append(standardize(ds, spec.washout + spec.train_len)
                            if spec.standardize else ds)
    if spec.task == "csv":
        datasets *= spec.replications
    masks = []
    for r in range(spec.replications):
        with _replication(r):
            mask_seed = derive_seed(spec.mask_seed, r, _STREAM_MASK)
            masks.append(
                generate_mask(spec.num_nodes, mask_seed, spec.mask_kind).weights)
    return datasets, masks


@functools.lru_cache(maxsize=1)
def _generated_tasks(task: str, order: int, compat_sum: bool, length: int,
                     seed: int, replications: int) -> tuple[TaskDataset, ...]:
    """Every replication's generated (NARMA or surrogate) series. The last
    call's series are kept, so the experiments of a run of equal points,
    such as the V = 35 and V = 100 points of one NARMA order, share them."""
    series = []
    for r in range(replications):
        task_seed = derive_seed(seed, r, _STREAM_TASK)
        with _replication(r):
            if task == "narma":
                series.append(gen_narma(NarmaConfig(order, length, task_seed),
                                        compat_sum=compat_sum))
            else:
                series.append(gen_surrogate_laser(max(100, length), task_seed))
    return tuple(series)


@contextlib.contextmanager
def _replication(r: int):
    """Prefix the replication index to a library error raised inside."""
    try:
        yield
    except PulseRcError as exc:
        raise type(exc)(f"replication {r}: {exc}") from exc


def _run_block(spec, params, datasets, masks, noise_seeds, idx) -> list[dict]:
    """Drive the replications in ``idx`` together, then fit each one. The
    block's state matrices are freed on return, before the next block is
    allocated."""
    inputs = np.stack([datasets[r].inputs[: spec.total_len] for r in idx])
    states = drive_block(inputs, np.stack([masks[r] for r in idx]), params,
                         [noise_seeds[r] for r in idx], spec.washout)
    reps = []
    for r, rep_states in zip(idx, states):
        with _replication(r):
            reps.append(_fit_replication(spec, datasets[r], rep_states))
    return reps


def _fit_replication(spec: ExperimentSpec, ds: TaskDataset, states) -> dict:
    """Ridge readout of one replication's state matrix, scored on its
    test region."""
    needed = spec.total_len
    r_train = states[: spec.train_len]
    y_train = ds.targets[spec.washout: spec.washout + spec.train_len]
    r_test = states[spec.train_len: spec.train_len + spec.test_len]
    y_test = ds.targets[spec.washout + spec.train_len: needed]

    lam = spec.ridge_lambda
    if spec.lambda_grid:
        lam = _select_lambda(r_train, y_train, spec.lambda_grid)
    w = fit_ridge(r_train, y_train, lam)
    yhat = predict(r_test, w)
    report = evaluate(y_test, yhat)
    return {
        "pearson": report.pearson,
        "nrmse": report.nrmse,
        "ridge_lambda": lam,
        "targets": np.array(y_test, dtype=float),  # no view of a kept task
        "predictions": yhat,
        "weights": w.weights,
    }


def _grid_fits(r_train, y_train, grid) -> list[tuple[ReadoutWeights, float]]:
    """Every grid point's readout, fitted on the first 80% of the training
    rows, with its NRMSE on the last 20%. The fit slice's normal equations
    are formed once and solved for each grid point."""
    n_fit = _fit_rows(r_train.shape[0])
    system = normal_equations(r_train[:n_fit], y_train[:n_fit])
    fits = []
    for lam in grid:
        w = system.solve(lam)
        fits.append((w, nrmse(y_train[n_fit:], predict(r_train[n_fit:], w))))
    return fits


def _fit_rows(n: int) -> int:
    """Rows of an n-row training slice that the lambda grid fits on; the
    rest are held out to score each grid point."""
    return max(1, min(n - 1, int(0.8 * n)))


def _select_lambda(r_train, y_train, grid) -> float:
    """Grid search on a held-out slice: the ridge strength whose fit
    scores the lowest held-out NRMSE (ties go to the earlier grid entry)."""
    best, _ = min(_grid_fits(r_train, y_train, grid), key=lambda fit: fit[1])
    return best.ridge_lambda


def _spread(values) -> float:
    if len(values) <= 1:
        return 0.0
    return float(np.std(values, ddof=1))


# ---------------------------------------------------------------------------
# results files

# results-file columns and their types: the spec fields but the schema
# (which the header carries) and the output path, then the metrics
_RECORD_COLUMNS = {
    **{k: kind for k, kind in SPEC_TYPES.items() if k not in ("schema", "out")},
    "spec_hash": str, "pearson_mean": float, "pearson_std": float,
    "nrmse_mean": float, "nrmse_std": float,
    "pearson_reps": list, "nrmse_reps": list, "lambda_reps": list,
}


def write_records(path, base: ExperimentSpec, axes, records) -> list[ResultRecord]:
    """Write a results file: a header echoing the base spec and the axes,
    then one row per record, each written and flushed as ``records``
    yields it, so a run that fails partway leaves the finished rows.
    Returns the records as a list.

    Everything written is a pure function of the spec (no timestamps and
    no durations), so a rerun produces a byte-identical file.
    """
    done = []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# pulserc results\n# schema = {SCHEMA_VERSION}\n")
        for key, value in base.to_dict().items():
            fh.write(f"# spec: {key} = {_fmt_value(value)}\n")
        for name, values in axes:
            fh.write(f"# axis: {name} = {','.join(map(_fmt_value, values))}\n")
        fh.write("\t".join(_RECORD_COLUMNS) + "\n")
        for rec in records:
            cells = {**rec.spec_fields, **vars(rec)}
            fh.write("\t".join(_fmt_value(cells[k]) for k in _RECORD_COLUMNS) + "\n")
            fh.flush()
            done.append(rec)
    return done


def read_records(path) -> list[ResultRecord]:
    """Inverse of :func:`write_records`: every row of a results file as a
    record, each column parsed back to its type as spec values are.

    Floats come back as written (12 significant digits). A results file
    holds no durations and no test traces, so ``duration_s`` is NaN and
    the trace fields are None.
    """
    schema, names, records = None, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith("# schema = "):
                schema = line.partition("=")[2].strip()
            if not line.strip() or line.startswith("#"):
                continue
            cells = line.split("\t")
            if names is None:
                names = cells
                missing = [k for k in _RECORD_COLUMNS if k not in names]
                if missing:
                    raise SpecError(
                        f"{path}: missing column(s) {missing}; available: "
                        f"{', '.join(names)}")
                if schema != str(SCHEMA_VERSION):
                    raise SpecError(f"{path}: results schema {schema!r}; this "
                                    f"build reads schema {SCHEMA_VERSION}")
                continue
            if len(cells) != len(names):
                raise SpecError(f"{path}:{lineno}: {len(cells)} cells under "
                                f"{len(names)} columns")
            row = dict(zip(names, cells))
            try:
                values = {k: _parse_value(kind, row[k])
                          for k, kind in _RECORD_COLUMNS.items()}
            except ValueError as exc:
                raise SpecError(f"{path}:{lineno}: {exc}") from exc
            spec_fields = {"schema": SCHEMA_VERSION,
                           **{k: values.pop(k) for k in SPEC_TYPES if k in values}}
            records.append(ResultRecord(spec_fields=spec_fields,
                                        duration_s=math.nan, **values))
    if names is None:
        raise SpecError(f"{path}: no table header found")
    return records
