"""Sweep results files compared byte for byte with golden copies.

The files in ``tests/golden/`` were written by the sweeps below with the
per-sample ``step()`` drive and the NumPy-array NARMA loop, before the
batched drive kernel and the plain-float NARMA loop replaced them. They
cover detection noise, a lambda grid, a standardized CSV task, V = 7,
35 and 100, and NARMA orders 2 and 10 (NumPy's left-to-right and pairwise
sums). Regenerate them only for a change that is meant to alter results:

    PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import os
import sys
from pathlib import Path

import numpy as np

from pulserc import ExperimentSpec, run_sweep

GOLDEN = Path(__file__).parent / "golden"
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


def write_sweeps(directory) -> list[str]:
    """Write every golden sweep into ``directory`` and return the file
    names. The CSV task is read through a relative path, so the results
    header does not depend on where ``directory`` is."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    narma = ExperimentSpec(task="narma", lambda_grid=(1e-8, 1e-4, 1e-2),
                           **_COMMON)
    run_sweep(narma, [("order", [2, 10]), ("num_nodes", [7, 35, 100]),
                      ("noise_sigma", [0.0, 0.01])],
              out_path=directory / "narma_sweep.tsv")
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
    return ["narma_sweep.tsv", "csv_sweep.tsv"]


def test_sweeps_match_golden_bytes(tmp_path):
    for name in write_sweeps(tmp_path):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    write_sweeps(sys.argv[1])
