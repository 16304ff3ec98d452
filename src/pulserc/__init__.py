"""Delay-based reservoir computing with phase-encoded input and sine
readout, plus the NARMA / surrogate benchmark harness around it."""

from .errors import (
    CsvParseError,
    DegenerateVarianceError,
    DimensionError,
    DivergenceError,
    ParameterError,
    PulseRcError,
    SingularSystemError,
    SpecError,
)
from .harness import (
    ExperimentSpec,
    ResultRecord,
    emit_figure_data,
    parse_spec_file,
    read_records,
    run_experiment,
    run_sweep,
    write_records,
    write_spec_file,
)
from .readout import (
    EvalReport,
    ReadoutWeights,
    evaluate,
    fit_ridge,
    nrmse,
    pearson,
    predict,
)
from .reservoir import (
    Mask,
    ReservoirParams,
    ReservoirState,
    coupling_factor,
    generate_mask,
    run,
    step,
    zero_state,
)
from .tasks import (
    NarmaConfig,
    TaskDataset,
    gen_narma,
    gen_surrogate_laser,
    load_csv_task,
    standardize,
)

__version__ = "0.1.0"

__all__ = [
    "CsvParseError",
    "DegenerateVarianceError",
    "DimensionError",
    "DivergenceError",
    "EvalReport",
    "ExperimentSpec",
    "Mask",
    "NarmaConfig",
    "ParameterError",
    "PulseRcError",
    "ReadoutWeights",
    "ReservoirParams",
    "ReservoirState",
    "ResultRecord",
    "SingularSystemError",
    "SpecError",
    "TaskDataset",
    "coupling_factor",
    "emit_figure_data",
    "evaluate",
    "fit_ridge",
    "gen_narma",
    "gen_surrogate_laser",
    "generate_mask",
    "load_csv_task",
    "nrmse",
    "parse_spec_file",
    "pearson",
    "predict",
    "read_records",
    "run",
    "run_experiment",
    "run_sweep",
    "standardize",
    "step",
    "write_records",
    "write_spec_file",
    "zero_state",
]
