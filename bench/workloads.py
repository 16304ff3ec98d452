"""Workload definitions shared by ``run.py`` and its child processes.

Importing this module does not import pulserc or NumPy, so ``run.py`` can
check a checkout and lay out inputs before any measured child starts.

Each workload is a base set of ``ExperimentSpec`` fields plus sweep axes,
in two sizes: ``full`` (what the benchmark measures) and ``tiny`` (a
seconds-long version for the benchmark's own smoke test). Every reservoir
constant is spelled out here instead of taken from the spec defaults, so
the oracle in ``oracle.py`` reads its inputs from this file and not from
the program under test.
"""

from __future__ import annotations

import itertools

DEFAULT_SEED = 42
LAMBDA_GRID = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
CSV_NAME = "narma10.csv"
SPEC_NAME = "csv_cli.spec"
RESULTS_NAME = "results.tsv"

# BLAS/OpenMP pools pinned to one thread: the reference box has 2 cores and
# one child runs at a time, so a second BLAS thread would only add noise.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

_RESERVOIR = dict(alpha=0.7, beta=1.0, gain_c=1.0, pulse_period=6.4e-9,
                  bandwidth_time=21e-9, noise_sigma=0.0, mask_kind="uniform",
                  ridge_lambda=1e-6, standardize=False)
_FULL = dict(_RESERVOIR, washout=50, train_len=2250, test_len=600,
             replications=10)
_TINY = dict(_RESERVOIR, washout=50, train_len=300, test_len=100,
             replications=2)

# name -> size -> (base spec fields, sweep axes)
WORKLOADS = {
    # The paper's experiment (PAPER.md): NARMA orders x node counts at a
    # fixed ridge strength. Dominated by the reservoir drive.
    "narma_sweep": {
        "full": (dict(_FULL, task="narma"),
                 [("order", [2, 3, 4, 5, 6]), ("num_nodes", [35, 100])]),
        "tiny": (dict(_TINY, task="narma"),
                 [("order", [2, 3]), ("num_nodes", [35])]),
    },
    # NARMA-10 on hundreds of virtual nodes with a lambda grid (Appeltant
    # et al. 2011): the readout and lambda selection dominate.
    "narma10_wide": {
        "full": (dict(_FULL, task="narma", order=10, num_nodes=800,
                      lambda_grid=LAMBDA_GRID), []),
        "tiny": (dict(_TINY, task="narma", order=10, num_nodes=100,
                      lambda_grid=LAMBDA_GRID), []),
    },
    # `pulserc sweep` on a spec file over a CSV task, with standardized
    # input and detection noise: CLI, spec parsing, CSV I/O, noise path.
    "csv_cli": {
        "full": (dict(_FULL, task="csv", standardize=True, noise_sigma=0.01),
                 [("alpha", [0.5, 0.7, 0.9]), ("num_nodes", [35, 100])]),
        "tiny": (dict(_TINY, task="csv", standardize=True, noise_sigma=0.01),
                 [("alpha", [0.5, 0.9]), ("num_nodes", [35])]),
    },
}


def size_name(tiny: bool) -> str:
    return "tiny" if tiny else "full"


def definition(name: str, tiny: bool) -> tuple[dict, list]:
    """(base spec fields, axes) of one workload size."""
    return WORKLOADS[name][size_name(tiny)]


def spec_fields(name: str, tiny: bool, seed: int, workdir: str) -> dict:
    """Base ``ExperimentSpec`` fields with the workload seed applied.

    The seed drives the task, noise and mask streams alike; for the CSV
    workload it also generated the CSV file in ``workdir``.
    """
    base, _ = definition(name, tiny)
    fields = dict(base, seed=seed, mask_seed=seed)
    if fields["task"] == "csv":
        fields.update(csv_input=f"{workdir}/{CSV_NAME}",
                      csv_target="column:y")
    return fields


def experiments(name: str, tiny: bool, seed: int, workdir: str) -> list[dict]:
    """Spec fields of every experiment, in the order a sweep runs them
    (lexicographic over the axes as given)."""
    base = spec_fields(name, tiny, seed, workdir)
    _, axes = definition(name, tiny)
    out = []
    for combo in itertools.product(*(values for _, values in axes)):
        out.append(dict(base, **{n: v for (n, _), v in zip(axes, combo)}))
    return out


def node_updates(fields_list: list[dict]) -> int:
    """Sum over replications of (washout + train + test) * V."""
    return sum(f["replications"] * (f["washout"] + f["train_len"] + f["test_len"])
               * f["num_nodes"] for f in fields_list)


def sweep_argv(name: str, tiny: bool, workdir: str) -> list[str]:
    """``pulserc`` arguments of the CLI workload."""
    _, axes = definition(name, tiny)
    argv = ["sweep", "--spec", f"{workdir}/{SPEC_NAME}",
            "--out", f"{workdir}/{RESULTS_NAME}"]
    for field, values in axes:
        argv += ["--axis", f"{field}=" + ",".join(repr(v) for v in values)]
    return argv


def spec_text(fields: dict) -> str:
    """The spec-file form of ``fields`` (flat ``key = value`` lines)."""
    lines = ["schema = 1"]
    for key, value in fields.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
