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
import numbers
import os
import re
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import PulseRcError, SpecError
from .readout import evaluate, normal_equations, nrmse, predict
from .reservoir import MASK_KINDS, ReservoirParams, drive_block, generate_mask
from .tasks import (NarmaConfig, TaskDataset, _divergence_error, _text_lines,
                    gen_narma_lockstep, gen_surrogate_laser, load_csv_task, standardize)

SCHEMA_VERSION = 1

# stream tags keeping the per-replication task / noise / mask draws apart
_STREAM_TASK = 0
_STREAM_NOISE = 1
_STREAM_MASK = 2

# Replications are driven in blocks whose stacked state matrices, training
# and test rows together, fit in this many bytes: enough to amortize the
# per-step overhead over several replications at small V, without
# stacking all of them at large V. A block holds its training states,
# then its test states, so at most train_len / total_len of this at once.
_DRIVE_BLOCK_BYTES = 8 * 2**20

# What the points of a drive group share: the fields the drive kernel takes
# once per block, then those the fit takes once per row; the rest are per row or point.
_BLOCK_FIELDS = ("num_nodes", "pulse_period", "bandwidth_time", "noise_sigma",
                 "washout", "train_len", "test_len", "lambda_grid")

# the fields that take one of a fixed set of values, and those values
_CHOICES = {"task": ("narma", "surrogate", "csv"),
            "mask_kind": MASK_KINDS}


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
        # a value of the wrong type is a SpecError here, so no check reads one;
        # each number is stored as the int or float it runs as, so that a NumPy
        # scalar or a Fraction is hashed and written as what ran, and a list
        # grid as a tuple
        for name, kind in SPEC_TYPES.items():
            (want, what), value = _FIELD_KINDS[kind], getattr(self, name)
            try:
                items = tuple(value) if kind is tuple else (value,)
                if any(not isinstance(v, want) or isinstance(v, bool) != (kind is bool)
                       for v in items):
                    raise SpecError(f"{name} must be {what}, got {value!r}")
                if kind in (int, float, tuple):
                    ran = tuple(map(float if kind is tuple else kind, items))
                    object.__setattr__(self, name, ran if kind is tuple else ran[0])
            except (TypeError, OverflowError) as exc:  # no sequence; past the float range
                raise SpecError(f"{name} must be {what}, got {value!r}: {exc}") from None
        # then the values, so that no spec, however it is built, is inconsistent
        if self.schema != SCHEMA_VERSION:
            raise SpecError(
                f"unsupported schema {self.schema!r}; this build reads "
                f"schema {SCHEMA_VERSION}")
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise SpecError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.task == "csv" and not (self.csv_input and self.csv_target):
            raise SpecError("task 'csv' needs csv_input and csv_target")
        for name in ("csv_input", "csv_target"):  # each is a cell of a results row
            if re.search(r"[\t\n\r]", getattr(self, name)):
                raise SpecError(f"{name} holds a tab or line break: {getattr(self, name)!r}")
            if "\0" in getattr(self, name):  # no file path holds one
                raise SpecError(f"{name} holds a NUL byte: {getattr(self, name)!r}")
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

    def reservoir_params(self, noise_seed: int = 0) -> ReservoirParams:
        """The reservoir constants, its noise stream seeded with ``noise_seed``."""
        return ReservoirParams(
            num_nodes=self.num_nodes, alpha=self.alpha, beta=self.beta,
            gain_c=self.gain_c, pulse_period=self.pulse_period,
            bandwidth_time=self.bandwidth_time, noise_sigma=self.noise_sigma, seed=noise_seed)

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
# the values each field type takes, and their name in errors; no bool is a number here
_FIELD_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
                tuple: (numbers.Real, "real numbers"), bool: (bool, "a bool"),
                str: (str, "a string")}

# the fields a sweep axis may override: all but the schema, the output path
# and lambda_grid, whose text holds the CLI's axis separator
SWEEPABLE_FIELDS = frozenset(
    k for k, kind in SPEC_TYPES.items() if kind is not tuple and k not in ("schema", "out"))


@dataclass
class ResultRecord:
    """Outcome of one experiment: its spec, per-replication metrics,
    aggregates, and the first replication's test trace."""

    spec: ExperimentSpec
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
    size changes no result. A block holds its training states, then its
    test states, so at most ``train_len / total_len`` of that at once.
    """
    [record] = _run_points([spec])
    return record


def run_sweep(
    base: ExperimentSpec,
    axes: list[tuple[str, list]],
    out_path=None,
) -> list[ResultRecord]:
    """Run the Cartesian product of axis values over the base spec.

    An axis names one of ``SWEEPABLE_FIELDS``; its values may be numbers,
    bools or text (as the CLI passes them), each read as a spec file reads
    the field (:func:`_field_value`). Every point is
    checked as it is built, and every series it reads is built (:func:`_run_points`),
    before any compute and before ``out_path`` is opened. Points that share
    their ``_BLOCK_FIELDS`` are driven together (:func:`_drive_group`), and
    points whose drive rows are equal share their drives, Grams and
    Cholesky factors. Records come back in lexicographic order over
    the axes as given and are streamed to ``out_path`` (unless None), each
    once it and every earlier point are done; their specs then name
    ``out_path`` as their output, as :func:`read_records` gives them.
    """
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
        typed[name] = [_field_value(name, str(v), f"field {name!r}") for v in values]
    out = base.out if out_path is None else str(out_path)
    specs = [replace(base, out=out, **dict(zip(typed, combo)))
             for combo in itertools.product(*typed.values())]
    records = _run_points(specs)
    if out_path is None:
        return list(records)
    return write_records(out_path, base, typed.items(), records)


def emit_figure_data(records: list[ResultRecord], figure: str, out) -> None:
    """Write plot-ready tabular text for one of the two figure kinds.

    ``pearson_vs_N``: one row per record with columns
    (N, V, pearson_mean, pearson_std). ``prediction_trace``: columns
    (step, target, prediction) from the first record's stored test trace.
    """
    if figure == "pearson_vs_N":
        lines = ["N\tV\tpearson_mean\tpearson_std"]
        for rec in records:
            lines.append("\t".join((
                _fmt_value(rec.spec.order),
                _fmt_value(rec.spec.num_nodes),
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
    for lineno, raw in enumerate(_text_lines(path, SpecError), start=1):
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
        values[key] = _field_value(key, text, f"{path}:{lineno}")
    if "schema" not in values:
        raise SpecError(f"{path}: missing mandatory 'schema' field")
    return ExperimentSpec(**values)


def write_spec_file(spec: ExperimentSpec, path) -> None:
    """Inverse of :func:`parse_spec_file`: floats are written in full, so
    every value reads back exactly. A value that would read back as another
    (outer whitespace, a comment '#', a line break) is a SpecError naming its
    field, and nothing is written."""
    lines = []
    for f in fields(spec):
        text = _fmt_value(getattr(spec, f.name), exact=True)
        if _COMMENT.sub("", text, count=1).strip() != text or re.search(r"[\n\r]", text):
            raise SpecError(f"{f.name} = {text!r} cannot be written to a spec file")
        lines.append(f"{f.name} = {text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _field_value(name: str, text: str, where: str):
    """``text`` read as spec field ``name``, as spec files, overrides and
    sweep axes read it; text the field cannot take is a SpecError that
    begins with ``where``."""
    try:
        return _parse_value(SPEC_TYPES[name], text)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


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
# replication pipeline

def _run_points(specs: list[ExperimentSpec]):
    """Refuse a point that no run on this host can hold
    (:func:`_refuse_oversized`), build every series the points of ``specs``
    read (:func:`_series`), then return a generator of their records
    (:func:`_run_groups`).

    Points with equal ``_BLOCK_FIELDS`` form a drive group
    (:func:`_drive_group`).
    """
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        _refuse_oversized(spec)
        groups.setdefault(tuple(getattr(spec, k) for k in _BLOCK_FIELDS), []).append(i)
    t0 = time.perf_counter()
    series = _series(specs)
    share = (time.perf_counter() - t0) / len(specs)
    return _run_groups(specs, list(groups.values()), series, share)


def _refuse_oversized(spec: ExperimentSpec) -> None:
    """Raise a SpecError naming the first size field whose part of a run
    alone needs more memory than this host has: one Gram, one replication's
    series or states, one input row per replication, each a lower bound on
    what the run holds at once. Host-dependent, so no part of a spec's validity."""
    try:  # the physical memory; where that is unknown, a 47-bit address space
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no os.sysconf on Windows
        memory = 0
    memory = memory if memory > 0 else 2**47
    width = spec.num_nodes + 1
    for name, need in (("num_nodes", width * width * 8), ("washout", spec.washout * 16),
                       ("train_len", spec.train_len * width * 8),
                       ("test_len", spec.test_len * width * 8),
                       ("replications", spec.replications * spec.total_len * 8)):
        if need > memory:
            raise SpecError(f"{name} is too large: the run would need more than this "
                            f"host's {memory / 2**30:.1f} GiB of memory")


def _run_groups(specs: list[ExperimentSpec], members: list[list[int]], series: list,
                share: float):
    """Yield the record of every point, in order, each once it and every
    earlier point are done; a point that failed raises its error in its
    turn, once every earlier point has been yielded.

    A point's ``duration_s`` is ``share``, its part of the series stage,
    plus an even split of its group's wall time.
    """
    done: list = [None] * len(specs)
    emitted = 0
    for group in members:
        t0 = time.perf_counter()
        fits = _drive_group(specs, group, series)
        duration = share + (time.perf_counter() - t0) / len(group)
        for i, outcome in fits.items():
            done[i] = (outcome if isinstance(outcome, Exception)
                       else _record(specs[i], outcome, series[i], duration))
        del fits
        while emitted < len(specs) and done[emitted] is not None:
            if isinstance(done[emitted], Exception):
                raise done[emitted]
            yield done[emitted]
            emitted += 1


def _series(specs: list[ExperimentSpec]) -> list[list[TaskDataset]]:
    """Every point's list of its ``replications`` datasets, shared by
    reference between the points that read them, at least as long as its
    total length. A point's list depends on its own spec alone.

    Each CSV file pair is read once, the call's snapshot of it, whose one
    dataset serves every replication. Each generated task is drawn once,
    at the most replications any point needs; all NARMA rows in one
    :func:`gen_narma_lockstep` call per (length, sum convention), where the
    orders at one seed share each input draw; an order that diverges for
    every redraw is a SpecError. Each dataset is standardized once per
    training split ``washout + train_len``.
    """
    load = functools.cache(load_csv_task)  # each file pair read once per call
    scaled = functools.cache(standardize)  # each dataset once per split
    # sorted by replication count, so that the last spec of a key needs the most
    generated = {_task_key(s): s for s in sorted(specs, key=lambda spec: spec.replications)
                 if s.task != "csv"}
    drawn: dict[tuple, list] = {}
    passes: dict[tuple, list] = {}
    seed_of = functools.cache(derive_seed)  # each seed once, whatever the order
    for key, spec in generated.items():
        seeds = [seed_of(spec.seed, r, _STREAM_TASK) for r in range(spec.replications)]
        if spec.task == "surrogate":
            drawn[key] = [gen_surrogate_laser(max(100, spec.total_len), seed) for seed in seeds]
        else:
            passes.setdefault((spec.total_len, spec.compat_narma_sum), []).extend(
                (key, r, NarmaConfig(spec.order, spec.total_len, seed))
                for r, seed in enumerate(seeds))
    for (_, compat), rows in passes.items():
        for (key, r, cfg), ds in zip(rows, gen_narma_lockstep([cfg for *_, cfg in rows], compat)):
            if ds is None:
                raise SpecError(f"replication {r}: {_divergence_error(cfg)}")
            drawn.setdefault(key, []).append(ds)

    def datasets(spec: ExperimentSpec) -> list[TaskDataset]:
        if spec.task == "csv":
            ds = load(spec.csv_input, spec.csv_target)
            if ds.length < spec.total_len:
                raise SpecError(f"task {ds.name!r} provides {ds.length} "
                                f"samples but washout+train+test needs {spec.total_len}")
            series = [ds] * spec.replications
        else:
            series = drawn[_task_key(spec)][:spec.replications]
        if spec.standardize:
            series = [scaled(ds, spec.washout + spec.train_len) for ds in series]
        return series
    # built in the points' order, so that the first failing point's error stands
    return [datasets(spec) for spec in specs]


def _drive_group(specs: list[ExperimentSpec], group: list[int], series: list) -> dict:
    """Every outcome of one drive group: for each point ``i`` of ``group``,
    with its datasets in ``series[i]``, each cut to the group's total length
    as it is read, its per-replication fits in replication order, or the
    library error that stopped it. As in the record, only replication 0
    keeps its test predictions and weights.

    The points share their ``_BLOCK_FIELDS``, read from the first; each
    point's replication r is a drive row of its own mask (``mask_seed``,
    ``mask_kind``), noise seed (``seed``), ``alpha``, ``beta``, ``gain_c``
    and input row. Each distinct (replication, row) is driven once, in
    blocks of at most ``_DRIVE_BLOCK_BYTES`` of state matrices, and fitted
    once for all the points whose row it is (:func:`_fit_drive`). Rows run
    replication-major, so one replication's rows that share a noise seed
    sit side by side and, within a block, share one noise draw.

    A block is driven in two calls that continue one drive, passing on
    the state pair and the noise generators: over the training region,
    whose states are fitted and freed, then over the test region, whose
    states are scored. So a block holds its training states, then its
    test states, at most ``train_len / total_len`` of its cap at once.
    """
    outcomes: dict = {i: [] for i in group}
    lead = specs[group[0]]
    n, split = lead.total_len, lead.washout + lead.train_len
    users: dict[tuple, list[int]] = {}
    seed_of = functools.cache(derive_seed)  # points share their base seeds
    # replication-major, so every point fits its replications in order
    for r in range(max(specs[i].replications for i in group)):
        for i in group:
            if r < (spec := specs[i]).replications:
                users.setdefault((r, seed_of(spec.mask_seed, r, _STREAM_MASK), spec.mask_kind,
                                  spec.reservoir_params(seed_of(spec.seed, r, _STREAM_NOISE)),
                                  series[i][r].inputs[:n].tobytes()), []).append(i)
    drives = [(*row[:4], points) for row, points in users.items()]
    del users
    block = max(1, min(len(drives), _DRIVE_BLOCK_BYTES // (n * (lead.num_nodes + 1) * 8)))

    for first in range(0, len(drives), block):
        rows = drives[first:first + block]
        inputs = np.stack([series[points[0]][r].inputs[:n] for r, *_, points in rows])
        masks = np.stack([generate_mask(lead.num_nodes, seed, kind).weights
                          for _, seed, kind, *_ in rows])
        params = [p for *_, p, _ in rows]
        state = (np.zeros((len(rows), lead.num_nodes)), np.zeros(len(rows)))
        # one generator per noise seed, which both calls draw from in turn
        generators = ({seed: np.random.default_rng(seed) for seed in {p.seed for p in params}}
                      if lead.noise_sigma > 0 else None)
        states = drive_block(inputs[:, :split], masks, params, lead.washout, state, generators)
        fits = []
        for (r, *_, points), rep_states in zip(rows, states):
            targets = {i: series[i][r].targets for i in points if isinstance(outcomes[i], list)}
            fits.append(_fit_drive(specs, rep_states, targets) if targets else {})
        # free the training states before the test region is driven
        del states, rep_states
        states = drive_block(inputs[:, split:], masks, params, 0, state, generators)
        for (r, *_), rep_states, row_fits in zip(rows, states, fits):
            # a point's error at an earlier replication stands
            for i in [i for i in row_fits if isinstance(outcomes[i], list)]:
                try:
                    if isinstance(fit := row_fits[i], PulseRcError):
                        raise fit
                    yhat = predict(rep_states, fit)
                    report = evaluate(series[i][r].targets[split:n], yhat)
                    # a record keeps replication 0's predictions and weights
                    outcomes[i].append((report.pearson, report.nrmse, fit.ridge_lambda,
                                        *((yhat, fit.weights) if r == 0 else (None, None))))
                except PulseRcError as exc:
                    outcomes[i] = type(exc)(f"replication {r}: {exc}")
        # free this block's test states before the next one is driven
        del states, rep_states
    return outcomes


def _record(spec: ExperimentSpec, fits: list, datasets: list, duration: float) -> ResultRecord:
    """Aggregate one point's per-replication fits into its record."""
    pearsons, nrmses, lambdas, predictions, weights = map(list, zip(*fits))
    return ResultRecord(
        spec=spec,
        pearson_reps=pearsons,
        nrmse_reps=nrmses,
        lambda_reps=lambdas,
        pearson_mean=float(np.mean(pearsons)),
        pearson_std=_spread(pearsons),
        nrmse_mean=float(np.mean(nrmses)),
        nrmse_std=_spread(nrmses),
        duration_s=duration,
        # a copy: a view would keep the call's target series alive
        trace_targets=datasets[0].targets[spec.washout + spec.train_len:spec.total_len].copy(),
        trace_predictions=predictions[0],
        readout_first=weights[0],
    )


def _task_key(spec: ExperimentSpec) -> tuple:
    """What a generated task's series are drawn from, but the replication
    count: replication r's series does not depend on it."""
    narma = (spec.order, spec.compat_narma_sum) if spec.task == "narma" else ()
    return (spec.task, spec.total_len, spec.seed, *narma)


def _fit_drive(specs: list[ExperimentSpec], states, targets: dict) -> dict:
    """Ridge readouts of one driven row's training state matrix for each
    point ``i`` with its whole target row in ``targets``: its
    :class:`ReadoutWeights`, or the library error that stopped the point.
    The points share their split and lambda grid, so they share each Gram
    and factor (:func:`_solves`).
    """
    lead = specs[next(iter(targets))]
    n = lead.train_len
    y_train = {i: y[lead.washout:lead.washout + n] for i, y in targets.items()}
    outcomes: dict = {}
    lams = {i: (specs[i].ridge_lambda,) for i in targets}
    if lead.lambda_grid:
        # the strength whose fit on the first 80% of the training rows
        # scores the lowest NRMSE on the rest (ties go to the earlier one)
        m, grid, errors = _fit_rows(n), tuple(dict.fromkeys(lead.lambda_grid)), {}
        _solves(states[:m], {i: y[:m] for i, y in y_train.items()}, dict.fromkeys(targets, grid),
                outcomes, lambda i, w: errors.setdefault(i, []).append(
                    nrmse(y_train[i][m:], predict(states[m:], w))))
        lams = {i: (grid[e.index(min(e))],) for i, e in errors.items()}
    _solves(states, y_train, lams, outcomes, outcomes.__setitem__)
    return outcomes


def _solves(states, targets: dict, lambdas: dict, outcomes: dict, use) -> None:
    """Call ``use(i, weights)`` for each point ``i`` in ``lambdas`` without an
    outcome and each of its ridge strengths, strength by strength: one Gram
    of ``states``, each Cholesky factor formed in its storage, so a fit
    holds one (V+1)² array, and one solve per point (as a fit of its own
    solves it). A library error is the outcome of the points it reaches."""
    points = [i for i in lambdas if i not in outcomes]
    if not points:
        return
    try:
        system = normal_equations(states, np.stack([targets[i] for i in points]))
    except PulseRcError as exc:
        outcomes.update(dict.fromkeys(points, exc))
        return
    for lam in dict.fromkeys(lam for i in points for lam in lambdas[i]):
        for k, i in enumerate(points):
            if lam in lambdas[i] and i not in outcomes:
                try:
                    use(i, system.solve(lam, k))
                except PulseRcError as exc:
                    outcomes[i] = exc


def _fit_rows(n: int) -> int:
    """Rows of an n-row training slice that the lambda grid fits on; the
    rest are held out to score each grid point."""
    return max(1, min(n - 1, int(0.8 * n)))


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
            cells = {**rec.spec.to_dict(), "spec_hash": rec.spec.spec_hash(), **vars(rec)}
            fh.write("\t".join(_fmt_value(cells[k]) for k in _RECORD_COLUMNS) + "\n")
            fh.flush()
            done.append(rec)
    return done


def read_records(path) -> list[ResultRecord]:
    """Inverse of :func:`write_records`: every row of a results file as a
    record, each column parsed back to its type as spec values are.

    Floats come back as written (12 significant digits); each row's spec
    takes ``path`` as its output path, must be valid and hash to the row's
    ``spec_hash``, and each ``*_reps`` cell must hold one entry per
    replication. A results file holds no durations and no test traces,
    so ``duration_s`` is NaN and the trace fields are None. A file that
    cannot be opened or is not UTF-8 text is a SpecError, as a spec file is.
    """
    schema, names, records = None, None, []
    for lineno, raw in enumerate(_text_lines(path, SpecError), start=1):
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
        try:  # a SpecError is a ValueError
            values = {k: _parse_value(kind, row[k])
                      for k, kind in _RECORD_COLUMNS.items()}
            spec = ExperimentSpec(out=str(path),
                                  **{k: values.pop(k) for k in SPEC_TYPES if k in values})
            if values.pop("spec_hash") != spec.spec_hash():
                raise SpecError("the row's fields do not hash to its spec_hash")
            for k in ("pearson_reps", "nrmse_reps", "lambda_reps"):
                if len(values[k]) != spec.replications:
                    raise SpecError(f"{k} holds {len(values[k])} entries for "
                                    f"{spec.replications} replications")
        except ValueError as exc:
            raise SpecError(f"{path}:{lineno}: {exc}") from exc
        records.append(ResultRecord(spec=spec, duration_s=math.nan, **values))
    if names is None:
        raise SpecError(f"{path}: no table header found")
    return records
