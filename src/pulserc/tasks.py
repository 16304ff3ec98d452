"""Benchmark datasets: NARMA sequences, paired CSV series, and a
synthetic pump-noise surrogate.

The CSV reader accepts plain numeric text: one value per line, or
comma/whitespace separated columns with an optional header naming them.
Lines starting with '#' are ignored. Numbers use a decimal point only.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._scipy import _sigtools
from .errors import (
    CsvParseError,
    DegenerateVarianceError,
    DivergenceError,
    ParameterError,
)

NARMA_DIVERGENCE_LIMIT = 10.0
_MAX_DRAWS = 100  # seeds a NARMA draw tries
_REDRAW_SEEDS = 8  # seeds each later lockstep pass tries per pending row
# NumPy sums fewer terms than this left to right and more pairwise; the
# NARMA recursion mirrors NumPy's order, so its sequences do not depend on
# how the sum is computed. Any threshold up to 8 gives the same bits (7
# terms are added left to right either way); a higher one does not
_PAIRWISE_MIN_TERMS = 8
_NARMA_CHECK_STEPS = 64  # steps between the lockstep's divergence checks

# fixed constants of the surrogate pump-noise task
_PUMP_AR_POLE = 0.9          # AR(1) pole of the pump-intensity input
_PUMP_SCALE = 0.3            # input standard deviation (stationary)
_RESPONSE_TAPS = (0.45, 0.30, 0.15, 0.10)   # linear response of the target
_SATURATION = 0.8            # tanh saturation strength
_MEASUREMENT_SIGMA = 0.02    # additive noise on the target


@dataclass(frozen=True)
class TaskDataset:
    """Paired input/target series of equal length.

    How a series splits into washout, training and test regions is the
    experiment's choice, not the task's. ``redraws`` counts the seeds a
    NARMA draw skipped: it was drawn at its config's seed plus ``redraws``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    name: str
    redraws: int = 0

    def __post_init__(self) -> None:
        u = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "targets", y)
        if u.ndim != 1 or y.ndim != 1:
            raise ParameterError("inputs and targets must be 1-d")
        if u.size != y.size:
            raise ParameterError(
                f"inputs ({u.size}) and targets ({y.size}) must have equal length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ParameterError("dataset values must be finite")

    @property
    def length(self) -> int:
        return int(self.inputs.size)


@dataclass(frozen=True)
class NarmaConfig:
    """Order, length, input range and seed of one NARMA draw."""

    order: int
    length: int
    seed: int
    input_low: float = 0.0
    input_high: float = 0.5

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ParameterError(f"order must be >= 1, got {self.order}")
        if self.length <= self.order:
            raise ParameterError(
                f"length must exceed order, got {self.length} <= {self.order}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if not self.input_low < self.input_high:
            raise ParameterError(
                f"input_low must be < input_high, got [{self.input_low}, {self.input_high}]")
        # a finite width implies finite ends; rng.uniform needs both
        if not math.isfinite(self.input_high - self.input_low):
            raise ParameterError(
                f"input range must be finite, got [{self.input_low}, {self.input_high}]")


def gen_narma(cfg: NarmaConfig, compat_sum: bool = False) -> TaskDataset:
    """Generate one input/target pair of the NARMA-N benchmark.

    The recursion is

        y[t] = 0.3 y[t-1] + 0.05 y[t-1] * S[t] + 1.5 u[t-1] u[t-N] + 0.1

    where S[t] sums the N+1 most recently computed outputs
    y[t-1] .. y[t-N-1]. With ``compat_sum=True`` S[t] sums only the N
    most recent, the convention common in other benchmark suites. Inputs
    are i.i.d. uniform on [input_low, input_high); y starts at zero. A
    draw whose |y| exceeds 10 is discarded and redrawn with the seed
    incremented: 100 seeds are tried, so at most 99 redraws.
    """
    [ds] = gen_narma_lockstep([cfg], compat_sum)
    if ds is None:
        raise _divergence_error(cfg)
    return ds


def _divergence_error(cfg: NarmaConfig) -> DivergenceError:
    """The error of a NARMA draw that diverged for every seed it tries."""
    return DivergenceError(f"NARMA-{cfg.order} diverged for every seed in "
                           f"[{cfg.seed}, {cfg.seed + _MAX_DRAWS - 1}]")


def gen_narma_lockstep(cfgs: list[NarmaConfig],
                       compat_sum: bool = False) -> list[TaskDataset | None]:
    """:func:`gen_narma` of configs of one length, drawn together: each
    row bitwise equal to its own draw, or None where that raises. The
    first pass draws every row at its own seed; each later pass draws the
    next 8 seeds of every row still pending and keeps the first of them
    that stayed bounded, the one :func:`gen_narma` keeps. The kept rows
    of one seed and input range share one read-only copy of its inputs."""
    if len({c.length for c in cfgs}) > 1:
        raise ParameterError("lockstep NARMA needs one length")
    drawn: list[TaskDataset | None] = [None] * len(cfgs)
    # by order, as the lockstep takes its rows
    todo, attempt = sorted(range(len(cfgs)), key=lambda i: cfgs[i].order), 0
    while todo and attempt < _MAX_DRAWS:
        attempts = range(attempt, min(attempt + (_REDRAW_SEEDS if attempt else 1), _MAX_DRAWS))
        rows = [(i, (cfgs[i].seed + a, cfgs[i].input_low, cfgs[i].input_high))
                for i in todo for a in attempts]
        # each (seed, input range) is drawn once per pass, for the rows of
        # that draw, orders apart, to read; one batch, freed as one block
        draws = {draw: k for k, draw in enumerate(dict.fromkeys(d for _, d in rows))}
        batch = np.empty((len(draws), cfgs[0].length))
        for row, (seed, low, high) in zip(batch, draws):
            row[:] = np.random.default_rng(seed).uniform(low, high, cfgs[0].length)
        y, ok = _narma_lockstep([batch[draws[d]] for _, d in rows],
                                np.array([cfgs[i].order for i, _ in rows]), compat_sum)
        # a row's draws are in seed order, so its first bounded one comes
        # first; copies, one read-only input per kept draw, so that no row
        # keeps the pass's batch or outputs alive
        kept: dict[tuple, np.ndarray] = {}
        for k in np.flatnonzero(ok):
            i, draw = rows[k]
            if drawn[i] is None:
                if draw not in kept:
                    kept[draw] = batch[draws[draw]].copy()
                    kept[draw].flags.writeable = False
                drawn[i] = TaskDataset(kept[draw], y[k].copy(), name=f"narma{cfgs[i].order}",
                                       redraws=draw[0] - cfgs[i].seed)
        todo, attempt = [i for i in todo if drawn[i] is None], attempts.stop
    return drawn


def _narma_lockstep(u, orders: np.ndarray,
                    compat_sum: bool) -> tuple[np.ndarray, np.ndarray]:
    """The NARMA outputs driven by each row of ``u`` (an array, or a list
    of rows of one length) at its order, the ``orders`` ascending, and
    which rows stayed within the divergence limit, checked every 64 steps
    and at the end; the call stops once none has. Rows advance as
    columns, each window summed as NumPy sums it: left to right below 8
    terms, padded with leading zeros to one width (0.0 + x == x), and
    pairwise by NumPy's own reduction per longer term count."""
    n_terms = orders if compat_sum else orders + 1
    k, length, rows = int(n_terms[-1]), len(u[0]), len(orders)
    drive = np.zeros((length, rows))  # 1.5 u[t-1] u[t-n], for every step at once
    # y[t] is ys[k + t]; entry j of a padded step's window, y[t - k_pad + j],
    # is a term of the rows whose window reaches that far back
    ys = np.zeros((k + length, rows))
    s, b = np.empty(rows), np.empty(rows)
    padded = int(np.searchsorted(n_terms, _PAIRWISE_MIN_TERMS))
    k_pad = int(n_terms[padded - 1]) if padded else 0
    pad = (np.arange(k_pad, 0, -1)[:, None] <= n_terms[:padded]).astype(float)
    window, s_pad = np.empty_like(pad), s[:padded]
    bounds = [padded, *(np.flatnonzero(np.diff(n_terms[padded:])) + padded + 1), rows]
    # NumPy sums pairwise only along a contiguous axis, not down the strided
    # columns: each step copies a group's windows to its block, one per row
    groups = [(int(n_terms[lo]), slice(lo, hi), s[lo:hi], np.empty((hi - lo, int(n_terms[lo]))))
              for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    starts, ok = orders + 1, np.ones(rows, dtype=bool)
    first, last_start = int(starts.min()), int(starts.max())
    mul, add, add_reduce = np.multiply, np.add, np.add.reduce
    c03, c005, c01 = np.array(0.3), np.array(0.05), np.array(0.1)
    # a product past the float range is inf, as on plain floats, and a
    # diverged row may reach inf or NaN before its window is checked; the
    # columns are independent, so the other rows keep their bits
    with np.errstate(over="ignore", invalid="ignore"):
        for n, row_u, row_d in zip(orders.tolist(), u, drive.T):
            row_d[n:] = row_u[:-n]
            row_d[1:] *= 1.5 * row_u[:-1]
        for t0 in range(first, length, _NARMA_CHECK_STEPS):
            t1 = min(t0 + _NARMA_CHECK_STEPS, length)
            for t in range(t0, t1):
                prev, a = ys[k + t - 1], ys[k + t]
                if padded:
                    mul(ys[k + t - k_pad:k + t, :padded], pad, window)
                    add_reduce(window, 0, None, s_pad)
                for m, cols, s_rows, block in groups:
                    block[...] = ys[k + t - m:k + t, cols].T
                    add_reduce(block, 1, None, s_rows)
                mul(prev, c03, a)
                mul(prev, c005, b)
                mul(b, s, b)
                add(a, b, a)
                add(a, drive[t], a)
                add(a, c01, a)
                if t < last_start:
                    a[starts > t] = 0.0
            # as on plain floats, NaN is not past the limit; a diverged row
            # reaches NaN only after inf, which is
            ok &= ~(np.abs(ys[k + t0:k + t1]) > NARMA_DIVERGENCE_LIMIT).any(axis=0)
            if not ok.any():
                break
    return ys[k:].T, ok


def load_csv_task(input_path, target) -> TaskDataset:
    """Load a paired regression task of at least 10 rows from numeric text
    files.

    ``input_path`` names a file whose first column is the input series.
    ``target`` is either the path of a second file (first column used) or
    ``"column:NAME"`` to take the named column from the input file, which
    must then have a header.
    """
    in_names, in_cols = _read_table(input_path)

    if isinstance(target, str) and target.startswith("column:"):
        col = target[len("column:"):]
        if in_names is None:
            raise CsvParseError(
                f"{input_path}: no header row, cannot select column {col!r}")
        if col not in in_names:
            raise CsvParseError(
                f"{input_path}: no column {col!r}; available: {', '.join(in_names)}")
        y = in_cols[in_names.index(col)]
        others = [i for i, nm in enumerate(in_names) if nm != col]
        if not others:
            raise CsvParseError(
                f"{input_path}: needs an input column besides {col!r}")
        u = in_cols[others[0]]
        target_desc = f"{os.path.basename(str(input_path))}:{col}"
    else:
        u = in_cols[0]
        _, tgt_cols = _read_table(target)
        y = tgt_cols[0]
        if u.size != y.size:
            raise CsvParseError(
                f"input {input_path} has {u.size} rows but target {target} "
                f"has {y.size}")
        target_desc = os.path.basename(str(target))

    if u.size < 10:
        raise CsvParseError(
            f"{input_path}: need at least 10 rows, got {u.size}")
    name = f"csv:{os.path.basename(str(input_path))}->{target_desc}"
    return TaskDataset(u, y, name=name)


def gen_surrogate_laser(length: int, seed: int) -> TaskDataset:
    """Synthetic stand-in for pump-noise-to-output-noise prediction.

    The input mimics pump intensity fluctuations: AR(1)-filtered white
    noise with pole 0.9, scaled to standard deviation 0.3. The target is
    a fixed four-tap linear response of the input passed through a mild
    tanh saturation, plus additive measurement noise, so it is
    predictable from the input's recent history. All transform constants
    are fixed module-level values.
    """
    if length < 100:
        raise ParameterError(f"length must be >= 100, got {length}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(length)
    pole = _PUMP_AR_POLE
    # lfilter([sqrt(1 - pole²)], [1, -pole], white), called as lfilter calls it
    ar = _sigtools._linear_filter(np.array([math.sqrt(1.0 - pole * pole)]),
                                  np.array([1.0, -pole]), white, -1)
    x = _PUMP_SCALE * ar
    lin = np.convolve(x, _RESPONSE_TAPS)[:length]
    y = np.tanh(_SATURATION * lin) / _SATURATION \
        + _MEASUREMENT_SIGMA * rng.standard_normal(length)
    return TaskDataset(x, y, name="surrogate-laser")


def standardize(ds: TaskDataset, train_len: int) -> TaskDataset:
    """Map inputs to zero mean and unit variance.

    The statistics come from the training region ``inputs[:train_len]``
    (any washout included) only, so nothing after it can leak into
    training. Targets are untouched.
    """
    if not 1 <= train_len <= ds.length:
        raise ParameterError(
            f"train_len must be in [1, {ds.length}], got {train_len}")
    train = ds.inputs[:train_len]
    mu = float(train.mean())
    sd = float(train.std())
    if sd == 0.0:
        raise DegenerateVarianceError(
            "cannot standardize a constant training input")
    return replace(ds, inputs=(ds.inputs - mu) / sd)


def _read_table(path) -> tuple[list[str] | None, list[np.ndarray]]:
    """(Header names or None, column arrays) of a numeric text file. The
    first content line whose cells do not all parse as numbers is the
    header; any other line that is not a row of finite numbers of the first
    line's width (a line of separators only, too) is a CsvParseError naming
    its line number."""
    names: list[str] | None = None
    rows: list[list[float]] = []
    width = 0  # the first content line's cell count
    for lineno, raw in enumerate(_text_lines(path, CsvParseError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if not parts:
            raise CsvParseError(f"{path}:{lineno}: separators but no values")
        values = []
        for p in parts:
            try:
                values.append(float(p))
            except ValueError:
                if width:  # only the first content line names columns
                    raise CsvParseError(f"{path}:{lineno}: non-numeric value {p!r}") from None
                names, width = parts, len(parts)
                break
        else:  # a data row
            width = width or len(values)
            if not all(map(math.isfinite, values)):
                p = next(p for p, v in zip(parts, values) if not math.isfinite(v))
                raise CsvParseError(f"{path}:{lineno}: non-finite value {p!r}")
            if len(values) != width:
                raise CsvParseError(
                    f"{path}:{lineno}: expected {width} columns, got {len(values)}")
            rows.append(values)
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return names, [np.array(col) for col in zip(*rows)]


def _text_lines(path, error: type[Exception]) -> Iterator[str]:
    """The lines of a UTF-8 text file, one at a time, a leading byte-order
    mark dropped; a path or file that cannot be opened or decoded raises
    ``error`` naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield from fh
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise error(f"cannot read {path}: {exc}") from exc
