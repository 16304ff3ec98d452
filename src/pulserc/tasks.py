"""Benchmark datasets: NARMA sequences, paired CSV series, and a
synthetic pump-noise surrogate.

The CSV reader accepts plain numeric text: one value per line, or
comma/whitespace separated columns with an optional header naming them.
Lines starting with '#' are ignored. Numbers use a decimal point only.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, replace
from functools import partial, reduce

import numpy as np
from scipy.signal import lfilter

from .errors import (
    CsvParseError,
    DegenerateVarianceError,
    DivergenceError,
    ParameterError,
)

NARMA_DIVERGENCE_LIMIT = 10.0
_MAX_REDRAWS = 100
# NumPy sums fewer terms than this left to right and more pairwise, in
# blocks of at most _PAIRWISE_BLOCK terms; the NARMA recursion mirrors
# NumPy's order, so its sequences do not depend on how the sum is computed
_PAIRWISE_MIN_TERMS = 8
_PAIRWISE_BLOCK = 128

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
    experiment's choice, not the task's. ``meta`` carries provenance such
    as file paths, the NARMA seed actually used, or transform constants.
    """

    inputs: np.ndarray
    targets: np.ndarray
    name: str
    meta: dict = field(default_factory=dict)

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


def gen_narma(cfg: NarmaConfig, compat_sum: bool = False) -> TaskDataset:
    """Generate one input/target pair of the NARMA-N benchmark.

    The recursion is

        y[t] = 0.3 y[t-1] + 0.05 y[t-1] * S[t] + 1.5 u[t-1] u[t-N] + 0.1

    where S[t] sums the N+1 most recently computed outputs
    y[t-1] .. y[t-N-1]. With ``compat_sum=True`` S[t] sums only the N
    most recent, the convention common in other benchmark suites. Inputs
    are i.i.d. uniform on [input_low, input_high); y starts at zero. A
    draw whose |y| exceeds 10 is discarded and redrawn with the seed
    incremented, at most 100 times.
    """
    n = cfg.order
    n_terms = n if compat_sum else n + 1
    for attempt in range(_MAX_REDRAWS):
        seed = cfg.seed + attempt
        rng = np.random.default_rng(seed)
        u = rng.uniform(cfg.input_low, cfg.input_high, cfg.length)
        y = _narma_outputs(u, n, n_terms)
        if y is not None:
            return TaskDataset(
                u, y, name=f"narma{n}",
                meta={"effective_seed": seed, "compat_sum": compat_sum})
    raise DivergenceError(
        f"NARMA-{n} diverged for every seed in "
        f"[{cfg.seed}, {cfg.seed + _MAX_REDRAWS - 1}]")


def _narma_outputs(u: np.ndarray, n: int, n_terms: int) -> np.ndarray | None:
    """The NARMA-n outputs driven by ``u``, or None once |y| passes the
    divergence limit. Window sums run on plain floats in the order of
    NumPy's ``sum`` over the same window."""
    length = u.size
    if n_terms >= _PAIRWISE_MIN_TERMS:
        window_sum = _pairwise_sum
    else:
        window_sum = partial(reduce, operator.add)
    uf = u.tolist()
    yf = [0.0] * length
    for t in range(n + 1, length):
        prev = yf[t - 1]
        s = window_sum(yf[t - n_terms:t])
        yt = 0.3 * prev + 0.05 * prev * s + 1.5 * uf[t - 1] * uf[t - n] + 0.1
        if abs(yt) > NARMA_DIVERGENCE_LIMIT:
            return None
        yf[t] = yt
    return np.array(yf)


def _pairwise_sum(w: list[float]) -> float:
    """NumPy's pairwise sum of at least 8 float64 values: eight running
    sums over each block of up to 128 terms, combined as a tree, the rest
    added left to right; longer runs split in two at a multiple of 8."""
    n = len(w)
    if n > _PAIRWISE_BLOCK:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(w[:half]) + _pairwise_sum(w[half:])
    m = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = w[:8]
    for i in range(8, m, 8):
        r0 += w[i]
        r1 += w[i + 1]
        r2 += w[i + 2]
        r3 += w[i + 3]
        r4 += w[i + 4]
        r5 += w[i + 5]
        r6 += w[i + 6]
        r7 += w[i + 7]
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in w[m:]:
        res += x
    return res


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
    return TaskDataset(u, y, name=name,
                       meta={"input_path": str(input_path), "target": str(target)})


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
    x = _PUMP_SCALE * lfilter([math.sqrt(1.0 - pole * pole)], [1.0, -pole], white)
    lin = np.convolve(x, _RESPONSE_TAPS)[:length]
    y = np.tanh(_SATURATION * lin) / _SATURATION \
        + _MEASUREMENT_SIGMA * rng.standard_normal(length)
    return TaskDataset(
        x, y, name="surrogate-laser",
        meta={"ar_pole": pole, "input_scale": _PUMP_SCALE,
              "response_taps": _RESPONSE_TAPS, "saturation": _SATURATION,
              "measurement_sigma": _MEASUREMENT_SIGMA})


def standardize(ds: TaskDataset, train_len: int) -> TaskDataset:
    """Map inputs to zero mean and unit variance.

    The statistics come from the training region ``inputs[:train_len]``
    (any washout included) only, so nothing after it can leak into
    training. Targets are untouched; the shift and scale are recorded in
    ``meta``.
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
    meta = dict(ds.meta)
    meta["standardize_shift"] = mu
    meta["standardize_scale"] = sd
    return replace(ds, inputs=(ds.inputs - mu) / sd, meta=meta)


def _read_table(path) -> tuple[list[str] | None, list[np.ndarray]]:
    """Parse a numeric text file into columns.

    Returns (header names or None, list of column arrays). Raises
    CsvParseError with the offending line number on anything that is not
    numeric rows of a consistent width.
    """
    names: list[str] | None = None
    rows: list[list[float]] = []
    width: int | None = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CsvParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            if names is None and width is None and not _all_numeric(parts):
                names = parts
                width = len(parts)
                continue
            values = []
            for p in parts:
                try:
                    v = float(p)
                except ValueError:
                    raise CsvParseError(
                        f"{path}:{lineno}: non-numeric value {p!r}") from None
                if not math.isfinite(v):
                    raise CsvParseError(
                        f"{path}:{lineno}: non-finite value {p!r}")
                values.append(v)
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvParseError(
                    f"{path}:{lineno}: expected {width} columns, got {len(values)}")
            rows.append(values)
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    cols = [np.array([r[i] for r in rows]) for i in range(width)]
    return names, cols


def _all_numeric(parts: list[str]) -> bool:
    for p in parts:
        try:
            float(p)
        except ValueError:
            return False
    return True
