"""Sweep results files compared byte for byte with golden copies.

The files in ``tests/golden/`` were written by the sweeps below while
every lambda grid point still formed its own ridge Gram and NARMA windows
of 8 or more terms were summed by NumPy; the drive then in place gave the
same bytes as the per-sample ``step()`` drive. They cover detection
noise, a lambda grid, a standardized CSV task, V = 7, 35 and 100,
NARMA orders 2 and 10 (NumPy's left-to-right and pairwise sums), and
the surrogate task with a washout of 70 samples at gain_c 1 and 1.7.
The surrogate file was written by the drive that still advanced one
step at a time, before it was split into 64-step chunks.

BLAS splits a matrix product differently with each thread count, which
moves the last digits of the ridge fits, so the sweeps run in a child
process with BLAS pinned to one thread. Regenerate the files only for a
change that is meant to alter results, under the same pin:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulserc
from pulserc import ExperimentSpec, SpecError, read_records, run_sweep

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FILES = ("narma_sweep.tsv", "csv_sweep.tsv", "surrogate_sweep.tsv")
CSV_NAME = "series.csv"

_COMMON = dict(washout=20, train_len=300, test_len=100, replications=3,
               seed=5, mask_seed=9)


def write_csv(path) -> None:
    """A learnable input/target pair: the target is a noisy two-tap
    nonlinear response of the input."""
    rng = np.random.default_rng(11)
    u = rng.uniform(0.0, 0.5, 500)
    y = np.tanh(2.0 * u + np.roll(u, 1)) + 0.01 * rng.standard_normal(500)
    lines = ["u,y"] + [f"{a!r},{b!r}" for a, b in zip(u.tolist(), y.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweeps(directory) -> None:
    """Write every golden sweep into ``directory``. The CSV task is read
    through a relative path, so the results header does not depend on
    where ``directory`` is."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    narma = ExperimentSpec(task="narma", lambda_grid=(1e-8, 1e-4, 1e-2),
                           **_COMMON)
    run_sweep(narma, [("order", [2, 10]), ("num_nodes", [7, 35, 100]),
                      ("noise_sigma", [0.0, 0.01])],
              out_path=directory / "narma_sweep.tsv")
    # a washout that ends inside the drive's second 64-step chunk, and a
    # gain other than 1
    surrogate = ExperimentSpec(task="surrogate", **{**_COMMON, "washout": 70})
    run_sweep(surrogate, [("num_nodes", [7, 35]), ("gain_c", [1.0, 1.7])],
              out_path=directory / "surrogate_sweep.tsv")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        write_csv(CSV_NAME)
        csv = ExperimentSpec(task="csv", csv_input=CSV_NAME,
                             csv_target="column:y", standardize=True,
                             noise_sigma=0.01, **_COMMON)
        run_sweep(csv, [("alpha", [0.5, 0.9]), ("num_nodes", [7, 35])],
                  out_path="csv_sweep.tsv")
    finally:
        os.chdir(cwd)


_PINNED_BLAS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def test_sweeps_match_golden_bytes(tmp_path):
    # BLAS reads its thread count once, at import, hence the child process
    src = str(Path(pulserc.__file__).resolve().parent.parent)
    env = {**os.environ, **_PINNED_BLAS, "PYTHONPATH": src}
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                   check=True)
    for name in GOLDEN_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _table(name) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A golden file's column names and its rows, each with its line number."""
    rows = [(lineno, line.split("\t")) for lineno, line in
            enumerate((GOLDEN / name).read_text(encoding="utf-8").splitlines(), start=1)
            if line and not line.startswith("#")]
    return rows[0][1], rows[1:]


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_rows_read_back_to_their_hash(name):
    names, rows = _table(name)
    hashes = [cells[names.index("spec_hash")] for _, cells in rows]
    assert [rec.spec.spec_hash() for rec in read_records(GOLDEN / name)] == hashes


def _edited(tmp_path, **edits) -> tuple[Path, int]:
    """A copy of the fourth row of ``narma_sweep.tsv`` with its cells
    edited, each column to its text, and the row's line number."""
    names, rows = _table("narma_sweep.tsv")
    lineno, cells = rows[3]
    for column, value in edits.items():
        assert cells[names.index(column)] != value
        cells[names.index(column)] = value
    lines = (GOLDEN / "narma_sweep.tsv").read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = "\t".join(cells)
    edited = tmp_path / "edited.tsv"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return edited, lineno


@pytest.mark.parametrize("column, value", [("alpha", "0.71"), ("order", "3"),
                                           ("lambda_grid", "1e-08,0.0001")])
def test_edited_field_cell_is_spec_error(tmp_path, column, value):
    edited, lineno = _edited(tmp_path, **{column: value})
    with pytest.raises(SpecError, match=re.escape(f"{edited}:{lineno}: ") + ".*spec_hash"):
        read_records(edited)


def test_row_of_an_invalid_spec_is_spec_error(tmp_path):
    # zero replications beside three per-replication metrics, hashed as
    # that spec would be: no run writes such a row, and no spec holds it,
    # so the hash is taken of a copy whose field is set past the check
    spec = copy.copy(read_records(GOLDEN / "narma_sweep.tsv")[3].spec)
    object.__setattr__(spec, "replications", 0)
    edited, lineno = _edited(tmp_path, replications="0", spec_hash=spec.spec_hash())
    with pytest.raises(SpecError, match=re.escape(f"{edited}:{lineno}: replications must be >= 1")):
        read_records(edited)


@pytest.mark.parametrize("column", ["pearson_reps", "nrmse_reps", "lambda_reps"])
def test_metric_list_of_another_length_is_spec_error(tmp_path, column):
    names, rows = _table("narma_sweep.tsv")
    cell = rows[3][1][names.index(column)]
    assert cell.count(";") == 2  # three replications
    edited, lineno = _edited(tmp_path, **{column: cell.rpartition(";")[0]})
    with pytest.raises(SpecError, match=re.escape(
            f"{edited}:{lineno}: {column} holds 2 entries for 3 replications")):
        read_records(edited)


if __name__ == "__main__":
    write_sweeps(sys.argv[1])
