import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scipy.linalg import cho_factor, cho_solve

from pulserc import (
    DegenerateVarianceError,
    ExperimentSpec,
    NarmaConfig,
    ParameterError,
    ResultRecord,
    SingularSystemError,
    SpecError,
    emit_figure_data,
    fit_ridge,
    gen_narma,
    generate_mask,
    nrmse,
    parse_spec_file,
    predict,
    read_records,
    run,
    run_experiment,
    run_sweep,
    write_records,
    write_spec_file,
)
import pulserc.cli as cli
import pulserc.harness as harness
import pulserc.readout as readout
from pulserc.readout import normal_equations
from pulserc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(task="narma", order=2, num_nodes=20, washout=20,
                train_len=200, test_len=80, replications=2, seed=7,
                mask_seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


# text that reads back as written: no '#', no line break, no outer
# whitespace; no tab or NUL either, which a CSV path may not hold
_text = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="#\n\r\t\0")).map(str.strip)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def drawn_specs(**overrides):
    """Valid specs with every field drawn: finite floats of any magnitude,
    ints to 2**63, bools, grids of 0-4 strengths and text that reads back
    as written; ``overrides`` replaces a field's strategy."""
    return st.builds(ExperimentSpec, **{
        "task": st.sampled_from(harness._CHOICES["task"]), "order": st.integers(1, 11),
        "compat_narma_sum": st.booleans(), "csv_input": _text.filter(bool),
        "csv_target": _text.filter(bool), "standardize": st.booleans(),
        "num_nodes": st.integers(1, 2**63), "alpha": _finite, "beta": _finite,
        "gain_c": _finite, "pulse_period": _positive, "bandwidth_time": _positive,
        "noise_sigma": _non_negative, "mask_kind": st.sampled_from(harness.MASK_KINDS),
        "mask_seed": st.integers(0, 2**63), "washout": st.integers(0, 2**63),
        "train_len": st.integers(10, 2**63), "test_len": st.integers(2, 2**63),
        "ridge_lambda": _non_negative,
        "lambda_grid": st.lists(_non_negative, max_size=4).map(tuple),
        "replications": st.integers(1, 2**63), "seed": st.integers(0, 2**63),
        "out": _text, **overrides})


def written(x: float) -> float:
    """A float as a results file holds it: to 12 significant digits."""
    return float(format(x, ".12g"))


class TestSpecFile:
    def test_roundtrip(self, tmp_path):
        spec = ExperimentSpec(
            task="csv", order=3, compat_narma_sum=True, csv_input="in#1.csv",
            csv_target="column:y", standardize=True, num_nodes=12, alpha=0.55,
            beta=0.8, gain_c=1.5, pulse_period=5e-9, bandwidth_time=2e-8,
            noise_sigma=0.01, mask_kind="binary", mask_seed=4, washout=10,
            train_len=150, test_len=40, ridge_lambda=1e-5,
            lambda_grid=(1e-8, 0.5), replications=3, seed=9, out="x.tsv")
        # every field but the schema differs from its default, so each one
        # is really carried through the file
        assert [f.name for f in fields(spec)
                if getattr(spec, f.name) == f.default] == ["schema"]
        path = tmp_path / "exp.spec"
        write_spec_file(spec, path)
        assert parse_spec_file(path) == spec

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=drawn_specs())
    def test_roundtrip_drawn(self, tmp_path, spec):
        path = tmp_path / "exp.spec"
        write_spec_file(spec, path)
        back = parse_spec_file(path)
        assert back == spec and back.spec_hash() == spec.spec_hash()

    def test_roundtrip_keeps_every_float_digit(self, tmp_path):
        spec = ExperimentSpec(alpha=0.1234567890123,
                              lambda_grid=(1e-6, 0.1234567890123))
        path = tmp_path / "exp.spec"
        write_spec_file(spec, path)
        assert parse_spec_file(path) == spec

    def test_list_lambda_grid_is_a_tuple(self, tmp_path):
        as_list = small_spec(replications=1, lambda_grid=[1e-6, 1e-2])
        as_tuple = small_spec(replications=1, lambda_grid=(1e-6, 1e-2))
        assert as_list == as_tuple
        assert as_list.spec_hash() == as_tuple.spec_hash()
        for name, spec in (("list.tsv", as_list), ("tuple.tsv", as_tuple)):
            run_sweep(spec, [], out_path=tmp_path / name)
        assert (tmp_path / "list.tsv").read_bytes() == \
            (tmp_path / "tuple.tsv").read_bytes()
        [rec] = read_records(tmp_path / "list.tsv")
        assert rec.spec.lambda_grid == (1e-6, 1e-2)

    def test_readme_documents_every_field(self):
        text = README.read_text(encoding="utf-8")
        table = text[text.index("| key | default | meaning |"):].splitlines()
        rows = itertools.takewhile(lambda ln: ln.startswith("|"), table[2:])
        documented = {name for row in rows
                      for name in re.findall(r"`(\w+)`", row.split("|")[1])}
        assert documented == {f.name for f in fields(ExperimentSpec)}

    def test_shipped_specs_and_readme_example_validate(self, tmp_path):
        [example] = re.findall(r"```ini\n(.*?)```",
                               README.read_text(encoding="utf-8"), re.S)
        readme_spec = tmp_path / "readme.spec"
        readme_spec.write_text(example)
        paths = [*sorted((README.parent / "specs").iterdir()), readme_spec]
        assert len(paths) > 1
        for path in paths:
            parse_spec_file(path)  # parses, and so is checked

    def test_integral_number_for_int_field(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("schema = 1\nnum_nodes = 35.0\n")
        num_nodes = parse_spec_file(path).num_nodes
        assert num_nodes == 35 and type(num_nodes) is int
        path.write_text("schema = 1\nnum_nodes = 35.5\n")
        with pytest.raises(SpecError, match="expected an integer"):
            parse_spec_file(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("schema = 1\nbogus_knob = 3\n")
        with pytest.raises(SpecError, match="bogus_knob"):
            parse_spec_file(path)

    def test_missing_schema(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("task = narma\n")
        with pytest.raises(SpecError, match="schema"):
            parse_spec_file(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("schema = 99\n")
        with pytest.raises(SpecError, match="schema"):
            parse_spec_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("schema = 1\nalpha = 0.7\nalpha = 0.8\n")
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec_file(path)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("# header\nschema = 1\n\nalpha = 0.5  # inline\n")
        assert parse_spec_file(path).alpha == 0.5

    def test_hash_inside_value_is_kept(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("schema = 1\ntask = csv\ncsv_input = run#2.csv\n"
                        "csv_target = column:y\n")
        assert parse_spec_file(path).csv_input == "run#2.csv"

    def test_comment_after_whitespace(self, tmp_path):
        path = tmp_path / "exp.spec"
        path.write_text("schema = 1\norder = 3  # note\nalpha = 0.5\t#tab\n")
        spec = parse_spec_file(path)
        assert (spec.order, spec.alpha) == (3, 0.5)

    @pytest.mark.parametrize("line, message", [
        ("alpha 0.5", "expected 'key = value'"),
        ("standardize = maybe", "expected a boolean, got 'maybe'"),
    ])
    def test_malformed_line_is_named(self, tmp_path, line, message):
        path = tmp_path / "exp.spec"
        path.write_text(f"schema = 1\n{line}\n")
        with pytest.raises(SpecError, match=re.escape(f"{path}:2: {message}")):
            parse_spec_file(path)

    def test_numbers_are_stored_as_they_run(self, tmp_path):
        # a float32 alpha runs at 0.699999988079071, not at 0.7
        f32 = small_spec(replications=1, alpha=np.float32(0.7))
        assert f32.alpha == float(np.float32(0.7)) != 0.7
        assert f32.spec_hash() != small_spec(replications=1).spec_hash()
        frac = small_spec(replications=1, alpha=Fraction(7, 10), num_nodes=np.int64(20),
                          lambda_grid=[Fraction(1, 10**6), np.float32(0.01)])
        assert frac == small_spec(replications=1, lambda_grid=(1e-6, float(np.float32(0.01))))
        for name, spec in (("f32", f32), ("frac", frac)):
            assert all(type(getattr(spec, k)) is kind for k, kind in harness.SPEC_TYPES.items())
            assert {type(lam) for lam in spec.lambda_grid} <= {float}
            path = tmp_path / f"{name}.spec"
            write_spec_file(spec, path)
            assert parse_spec_file(path) == spec
            out = tmp_path / f"{name}.tsv"
            run_sweep(spec, [], out_path=out)
            [back] = read_records(out)  # floats to 12 digits, as results files hold them
            assert back.spec.spec_hash() == spec.spec_hash()
            assert back.spec.alpha == float(format(spec.alpha, ".12g"))

    @pytest.mark.parametrize("name, value", [
        ("out", " res.tsv"), ("out", "res.tsv\t"), ("csv_input", "#runs.csv"),
        ("csv_input", "runs #2.csv"), ("out", "res\n.tsv"), ("out", "res\r.tsv"),
    ], ids=["leading-space", "trailing-tab", "hash-first", "hash-after-space",
            "line-feed", "carriage-return"])
    def test_value_that_reads_back_otherwise_is_not_written(self, tmp_path, name, value):
        # the spec builds, so running it stays allowed
        spec = small_spec(**{"task": "csv", "csv_input": "runs.csv",
                             "csv_target": "column:y", name: value})
        path = tmp_path / "exp.spec"
        with pytest.raises(SpecError, match=f"^{name} = {re.escape(repr(value))} cannot"):
            write_spec_file(spec, path)
        assert not path.exists()

    def test_byte_order_mark_is_dropped(self, tmp_path):
        spec = small_spec(alpha=0.5)
        path = tmp_path / "exp.spec"
        write_spec_file(spec, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert parse_spec_file(path) == spec

    def test_hash_ignores_out_and_is_stable(self):
        a = small_spec(out="a.tsv")
        b = small_spec(out="b.tsv")
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != small_spec(alpha=0.1).spec_hash()


class TestRunExperiment:
    def test_record_shape(self):
        rec = run_experiment(small_spec())
        assert len(rec.pearson_reps) == 2
        assert np.isfinite(rec.pearson_mean) and np.isfinite(rec.nrmse_mean)
        assert rec.trace_targets.shape == (80,)
        assert rec.trace_predictions.shape == (80,)
        assert rec.readout_first.shape == (21,)

    def test_replication_prefix_property(self):
        one = run_experiment(small_spec(replications=1))
        five = run_experiment(small_spec(replications=5))
        assert one.pearson_reps[0] == five.pearson_reps[0]
        assert one.nrmse_reps[0] == five.nrmse_reps[0]

    def test_feedback_is_needed_for_memory(self):
        with_feedback = run_experiment(small_spec(replications=3))
        without = run_experiment(small_spec(replications=3, alpha=0.0))
        assert without.pearson_mean < with_feedback.pearson_mean

    def test_lambda_grid_selection(self):
        rec = run_experiment(small_spec(lambda_grid=(1e-8, 1e-4, 1e-1)))
        assert all(lam in (1e-8, 1e-4, 1e-1) for lam in rec.lambda_reps)

    def test_single_replication_std_is_zero(self):
        rec = run_experiment(small_spec(replications=1))
        assert rec.pearson_std == 0.0 and rec.nrmse_std == 0.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(SpecError):
            run_experiment(small_spec(task="quantum"))
        with pytest.raises(SpecError):
            run_experiment(small_spec(replications=0))
        with pytest.raises(SpecError):
            run_experiment(small_spec(num_nodes=0))

    @pytest.mark.parametrize("overrides, message", [
        (dict(task="csv"), "task 'csv' needs csv_input and csv_target"),
        (dict(task="csv", csv_input="u.csv"), "task 'csv' needs csv_input and csv_target"),
        (dict(washout=-1), "washout must be >= 0, got -1"),
        (dict(order=0), "order must be >= 1, got 0"),  # NarmaConfig's own rule
    ])
    def test_inconsistent_spec_is_named(self, overrides, message):
        with pytest.raises(SpecError, match=re.escape(message)):
            small_spec(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(seed=1.5),  # would run as seed 1, and be written as 1.5
        dict(order=True),  # would be written as `true`, which reads back refused
        dict(num_nodes=10.0),
        dict(replications=2.0),
        dict(alpha=True),
        dict(lambda_grid=(1e-6, True)),
        dict(standardize=1),
        dict(csv_input=Path("u.csv")),  # would fail the path checks with a TypeError
        dict(alpha=10**400),  # past the float range
        dict(lambda_grid=0.5),  # no sequence
        dict(lambda_grid=None),
    ])
    def test_value_of_the_wrong_type_rejected(self, overrides):
        [name] = overrides
        with pytest.raises(SpecError, match=f"^{name} must be "):
            small_spec(**overrides)

    @pytest.mark.parametrize("axis, message", [
        (("num_nodes", ["abc"]), "field 'num_nodes': expected an integer, got 'abc'"),
        (("mask_kind", ["triangle"]),
         "mask_kind must be one of ('uniform', 'binary'), got 'triangle'"),
    ])
    def test_axis_value_no_spec_may_hold_rejected(self, axis, message, tmp_path,
                                                  monkeypatch):
        # text the field cannot take, and a value outside the choice table:
        # refused before any compute and before the results file is opened
        TestCli._forbid_compute(monkeypatch)
        out = tmp_path / "r.tsv"
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            run_sweep(small_spec(), [axis], out)
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        dict(num_nodes=10**8), dict(washout=10**15), dict(train_len=10**12),
        dict(test_len=10**12), dict(replications=10**300)])
    def test_size_no_run_can_hold_refused_before_the_series(self, overrides, tmp_path,
                                                            monkeypatch):
        [name] = overrides
        # the spec builds: how much memory a host has is no part of a spec's validity
        spec = small_spec(**overrides)

        def fail(*args, **kwargs):
            raise AssertionError("series stage started")
        monkeypatch.setattr(harness, "_series", fail)
        with pytest.raises(SpecError, match=f"^{name} is too large: the run would need more"):
            run_experiment(spec)
        out = tmp_path / "r.tsv"
        for base, axes in ((spec, []), (small_spec(), [(name, [2, overrides[name]])])):
            with pytest.raises(SpecError, match=f"^{name} is too large"):
                run_sweep(base, axes, out)
            assert not out.exists()

    def test_size_refusal_without_sysconf(self, monkeypatch):
        # as on Windows, which has no os.sysconf: the bound is a 47-bit address space
        monkeypatch.delattr(os, "sysconf")
        assert np.isfinite(run_experiment(small_spec(replications=1)).pearson_mean)
        with pytest.raises(SpecError, match=r"^num_nodes is too large: .* 131072\.0 GiB "):
            run_experiment(small_spec(num_nodes=10**8))

    def test_numpy_integer_and_int_for_float_run(self):
        # NumPy scalars are numbers, and an int is a real number
        spec = small_spec(num_nodes=np.int64(10), alpha=1, lambda_grid=(np.float64(1e-6), 0),
                          replications=1)
        assert np.isfinite(run_experiment(spec).pearson_mean)

    @pytest.mark.parametrize("overrides", [
        dict(ridge_lambda=float("nan")),
        dict(ridge_lambda=float("inf")),
        dict(lambda_grid=(1e-6, float("nan"))),
        dict(lambda_grid=(float("inf"),)),
    ])
    def test_non_finite_lambda_rejected(self, overrides):
        with pytest.raises(SpecError, match="finite"):
            small_spec(**overrides)

    @pytest.mark.parametrize("task", ["narma", "csv"])
    @pytest.mark.parametrize("name", ["csv_input", "csv_target"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_tab_or_line_break_in_csv_path_rejected(self, task, name, char):
        # every results row holds both paths as cells, whatever the task
        with pytest.raises(SpecError, match=f"{name} holds a tab or line break"):
            small_spec(task=task, **{"csv_input": "u.csv", "csv_target": "y.csv",
                                     name: f"a{char}b.csv"})

    @pytest.mark.parametrize("task", ["narma", "csv"])
    @pytest.mark.parametrize("name", ["csv_input", "csv_target"])
    def test_nul_in_csv_path_rejected(self, task, name):
        # no file path holds a NUL byte; open() would fail on it mid-run
        with pytest.raises(SpecError, match=f"{name} holds a NUL byte"):
            small_spec(task=task, **{"csv_input": "u.csv", "csv_target": "y.csv",
                                     name: "a\0b.csv"})

    def test_two_held_out_rows_run(self):
        # 6 training rows: the grid fits on 4 and scores on 2
        rec = run_experiment(small_spec(train_len=6, lambda_grid=(1e-6, 1e-2),
                                        replications=1))
        assert rec.lambda_reps[0] in (1e-6, 1e-2)

    @pytest.mark.parametrize("task", ["narma", "surrogate", "csv"])
    def test_block_size_changes_no_result(self, monkeypatch, tmp_path, task):
        csv = {}
        if task == "csv":
            data = tmp_path / "data.csv"
            rng = np.random.default_rng(5)
            data.write_text("u,y\n" + "".join(
                f"{a!r},{b!r}\n" for a, b in rng.uniform(0, 1, (400, 2)).tolist()))
            csv = dict(csv_input=str(data), csv_target="column:y", standardize=True)
        spec = small_spec(replications=5, noise_sigma=0.01, task=task, **csv)
        together = run_experiment(spec)
        # 1 byte: every replication is driven on its own
        monkeypatch.setattr(harness, "_DRIVE_BLOCK_BYTES", 1)
        alone = run_experiment(spec)
        # two replications' state matrices per block: blocks of 2, 2, 1
        monkeypatch.setattr(harness, "_DRIVE_BLOCK_BYTES",
                            2 * spec.total_len * (spec.num_nodes + 1) * 8)
        pairs = run_experiment(spec)
        for rec in (alone, pairs):
            assert rec.pearson_reps == together.pearson_reps
            assert rec.nrmse_reps == together.nrmse_reps
            assert np.array_equal(rec.readout_first, together.readout_first)

    @staticmethod
    def _drawn_spec(tmp_path, task, num_nodes, replications, noise) -> ExperimentSpec:
        spec = small_spec(num_nodes=num_nodes, replications=replications,
                          noise_sigma=0.01 if noise else 0.0, washout=10, train_len=60,
                          test_len=20)
        if task != "csv":
            return replace(spec, task=task)
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(5)
        data.write_text("u,y\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rng.uniform(0, 1, (spec.total_len, 2)).tolist()))
        return replace(spec, task="csv", csv_input=str(data), csv_target="column:y",
                       standardize=True)

    # 100 examples of two small experiments each; tmp_path only holds
    # one CSV file, which every example writes alike
    drawn = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

    @drawn
    @given(task=st.sampled_from(["narma", "surrogate", "csv"]), num_nodes=st.integers(1, 24),
           replications=st.integers(1, 5), noise=st.booleans(), data=st.data())
    def test_block_size_changes_no_result_drawn(self, tmp_path, task, num_nodes,
                                                replications, noise, data):
        spec = self._drawn_spec(tmp_path, task, num_nodes, replications, noise)
        together = run_experiment(spec)  # one block holds every replication
        rep_bytes = spec.total_len * (num_nodes + 1) * 8
        cap = data.draw(st.integers(rep_bytes, replications * rep_bytes), label="block bytes")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_DRIVE_BLOCK_BYTES", cap)
            blocked = run_experiment(spec)
        assert blocked.pearson_reps == together.pearson_reps
        assert blocked.nrmse_reps == together.nrmse_reps
        assert np.array_equal(blocked.readout_first, together.readout_first)

    @drawn
    @given(task=st.sampled_from(["narma", "surrogate", "csv"]), num_nodes=st.integers(1, 24),
           replications=st.integers(2, 5), noise=st.booleans(), data=st.data())
    def test_replication_prefix_property_drawn(self, tmp_path, task, num_nodes,
                                               replications, noise, data):
        spec = self._drawn_spec(tmp_path, task, num_nodes, replications, noise)
        full = run_experiment(spec)
        fewer = data.draw(st.integers(1, replications - 1), label="fewer replications")
        prefix = run_experiment(replace(spec, replications=fewer))
        assert prefix.pearson_reps == full.pearson_reps[:fewer]
        assert prefix.nrmse_reps == full.nrmse_reps[:fewer]
        assert prefix.lambda_reps == full.lambda_reps[:fewer]
        assert np.array_equal(prefix.readout_first, full.readout_first)

    def test_blocks_are_freed_before_the_next_drive(self, monkeypatch):
        spec = small_spec(num_nodes=100, replications=6, washout=50,
                          train_len=2250, test_len=600)
        rep_bytes = spec.total_len * (spec.num_nodes + 1) * 8
        # one replication per block: six blocks, driven one after another
        monkeypatch.setattr(harness, "_DRIVE_BLOCK_BYTES", rep_bytes)
        run_experiment(spec)  # warms up NumPy's allocations
        tracemalloc.start()
        try:
            run_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.1x; a block still referenced while the next one is
        # driven reads about 2.3x
        assert peak < 1.6 * rep_bytes

    def test_test_states_never_sit_beside_training_states(self, monkeypatch):
        spec = small_spec(num_nodes=400, replications=3, washout=50,
                          train_len=2250, test_len=600)
        width = spec.num_nodes + 1
        train_bytes, gram_bytes = spec.train_len * width * 8, width * width * 8
        # one replication per block
        monkeypatch.setattr(harness, "_DRIVE_BLOCK_BYTES", spec.total_len * width * 8)
        run_experiment(spec)  # warms up NumPy's allocations
        tracemalloc.start()
        try:
            run_experiment(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.05: a block's training states and one Gram, then its
        # test states; test states driven beside the training states read
        # about 1.31
        assert (peak - gram_bytes) / train_bytes < 1.15

    def test_noisy_record_continues_one_whole_series_drive(self):
        # the test region is driven in a call of its own, from the state
        # pair and the noise streams the training call left: its bits are
        # those of one drive over the whole series
        spec = small_spec(noise_sigma=0.02, replications=1)
        rec = run_experiment(spec)
        ds = gen_narma(NarmaConfig(spec.order, spec.total_len,
                                   harness.derive_seed(spec.seed, 0, harness._STREAM_TASK)))
        mask = generate_mask(spec.num_nodes, harness.derive_seed(
            spec.mask_seed, 0, harness._STREAM_MASK), spec.mask_kind)
        params = spec.reservoir_params(harness.derive_seed(spec.seed, 0, harness._STREAM_NOISE))
        states = run(ds.inputs, mask, params, washout=spec.washout)
        w = fit_ridge(states[:spec.train_len],
                      ds.targets[spec.washout:spec.washout + spec.train_len], spec.ridge_lambda)
        assert np.array_equal(rec.readout_first, w.weights)
        assert np.array_equal(rec.trace_predictions, predict(states[spec.train_len:], w))

    def test_csv_task_read_once(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(5)
        data.write_text("u,y\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rng.uniform(0, 1, (400, 2)).tolist()))
        calls = []
        real = harness.load_csv_task
        monkeypatch.setattr(harness, "load_csv_task",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        rec = run_experiment(small_spec(task="csv", csv_input=str(data),
                                        csv_target="column:y",
                                        standardize=True, replications=3))
        assert len(calls) == 1
        assert len(rec.pearson_reps) == 3

    def test_surrogate_task(self):
        rec = run_experiment(small_spec(task="surrogate", replications=2))
        assert rec.pearson_mean > 0.5

    def test_csv_task_too_short(self, tmp_path):
        u = tmp_path / "u.csv"
        y = tmp_path / "y.csv"
        u.write_text("\n".join(str(i) for i in range(50)) + "\n")
        y.write_text("\n".join(str(i) for i in range(50)) + "\n")
        with pytest.raises(SpecError, match="provides 50 samples but "
                           "washout\\+train\\+test needs 300") as err:
            run_experiment(small_spec(task="csv", csv_input=str(u),
                                      csv_target=str(y)))
        # the file is checked once per experiment, not per replication
        assert "replication" not in str(err.value)


def same_records(a: ResultRecord, b: ResultRecord) -> bool:
    """Every deterministic field of two records is equal."""
    return (a.spec.to_dict() == b.spec.to_dict() and a.pearson_reps == b.pearson_reps
            and a.nrmse_reps == b.nrmse_reps and a.lambda_reps == b.lambda_reps
            and np.array_equal(a.trace_targets, b.trace_targets)
            and np.array_equal(a.trace_predictions, b.trace_predictions)
            and np.array_equal(a.readout_first, b.readout_first))


def held_bytes(arrays) -> int:
    """Bytes of the distinct buffers that ``arrays`` keep alive."""
    buffers = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        buffers[id(a)] = a.nbytes
    return sum(buffers.values())


# one value per task-defining field, each different from small_spec's
_TASK_FIELD_CHANGES = dict(order=3, compat_narma_sum=True, standardize=True,
                           washout=30, train_len=210, test_len=90, seed=8,
                           replications=3)


class TestTaskMemo:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_equal_tasks_drawn_once(self, monkeypatch):
        lockstep = self._count(monkeypatch, "gen_narma_lockstep")

        def drawn():
            return sum(len(cfgs) for cfgs, *_ in lockstep)
        records = run_sweep(small_spec(replications=2),
                            [("order", [2, 3]), ("num_nodes", [7, 12])])
        assert len(records) == 4
        # V changes inside each order, so each order's two series are drawn
        # for its first point and reused for its second
        assert drawn() == 4
        # the memo lives for one call: each experiment draws its own two
        # series, whatever ran before it
        lockstep.clear()
        for flag in (False, True):
            run_experiment(small_spec(replications=2, standardize=flag))
        assert drawn() == 4

    @pytest.mark.parametrize("task", ["narma", "surrogate", "csv"])
    @pytest.mark.parametrize("field", ["task", *_TASK_FIELD_CHANGES])
    def test_key_is_complete(self, tmp_path, task, field):
        first = (TestDriveGroups._csv_spec(tmp_path, standardize=False) if task == "csv"
                 else small_spec(task=task))
        other_task = "surrogate" if task == "narma" else "narma"
        second = replace(first, **{field: _TASK_FIELD_CHANGES.get(field, other_task)})
        # the two points one after the other, sharing one memo as a sweep's
        # points do; each fresh run has a memo of its own
        swept = list(harness._run_points([first, second]))
        fresh = [run_experiment(first), run_experiment(second)]
        assert all(map(same_records, swept, fresh))

    @pytest.mark.parametrize("axes", [
        [("seed", [7, 8]), ("num_nodes", [7, 12]), ("order", [2, 10])],
        [("replications", [2, 3]), ("order", [2, 10])],
    ])
    def test_every_row_drawn_once_in_one_pass(self, monkeypatch, axes):
        lockstep = self._count(monkeypatch, "gen_narma_lockstep")
        base = small_spec()
        records = run_sweep(base, axes)
        points = _sweep_points(base, axes)
        # every (order, seed, replication) row of the call, once, in one
        # pass, however the points split into drive groups; order 10's
        # window has 11 terms, which NumPy sums pairwise
        rows = {(spec.order, spec.seed, r)
                for spec in points for r in range(spec.replications)}
        assert len(lockstep) == 1
        [(cfgs, *_)] = lockstep
        assert sorted((cfg.order, cfg.seed) for cfg in cfgs) == sorted(
            (order, harness.derive_seed(seed, r, harness._STREAM_TASK))
            for order, seed, r in rows)
        monkeypatch.undo()
        for rec, spec in zip(records, points):
            assert same_records(rec, run_experiment(spec))

    def test_csv_sweep_reads_the_file_once(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(5)
        data.write_text("u,y\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rng.uniform(0, 1, (400, 2)).tolist()))
        calls = self._count(monkeypatch, "load_csv_task")
        base = small_spec(task="csv", csv_input=str(data), csv_target="column:y",
                          standardize=True, noise_sigma=0.01)
        axes = [("alpha", [0.5, 0.7, 0.9]), ("num_nodes", [7, 12])]
        records = run_sweep(base, axes)
        assert len(records) == 6 and len(calls) == 1
        for rec, spec in zip(records, _sweep_points(base, axes)):
            assert same_records(rec, run_experiment(spec))

    def test_csv_read_once_across_lengths_and_standardize_splits(self, tmp_path,
                                                                 monkeypatch):
        calls = self._count(monkeypatch, "load_csv_task")
        base = TestDriveGroups._csv_spec(tmp_path, standardize=False)
        # two lengths, each raw and standardized: four points, one file read
        points = [replace(base, train_len=n, standardize=flag)
                  for n in (150, 200) for flag in (False, True)]
        records = list(harness._run_points(points))
        assert len(calls) == 1
        monkeypatch.undo()
        for rec, spec in zip(records, points):
            assert same_records(rec, run_experiment(spec))

    def test_first_failing_point_names_the_error(self, tmp_path):
        # both points are too long for the file's 400 rows; the second needs
        # fewer replications, so it comes first by replication count, but
        # the error is the first point's
        base = TestDriveGroups._csv_spec(tmp_path)
        points = [replace(base, train_len=500, replications=3),
                  replace(base, train_len=600, replications=2)]
        with pytest.raises(SpecError, match="provides 400 samples but washout.train.test needs 600$"):
            harness._series(points)

    def test_csv_read_again_after_rewrite(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(5)

        def write():
            data.write_text("u,y\n" + "".join(
                f"{a!r},{b!r}\n" for a, b in rng.uniform(0, 1, (400, 2)).tolist()))

        calls = self._count(monkeypatch, "load_csv_task")
        spec = small_spec(task="csv", csv_input=str(data), csv_target="column:y")
        write()
        before = run_experiment(spec)
        write()
        after = run_experiment(spec)
        assert len(calls) == 2
        y = np.loadtxt(data, delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(after.trace_targets, y[spec.washout + spec.train_len:
                                                     spec.total_len])
        assert not np.array_equal(before.trace_targets, after.trace_targets)

    def test_orders_at_one_seed_share_their_inputs(self):
        # the paper's orders at one seed: each replication's input is drawn
        # once for every order, so the datasets hold five target sets and
        # one input set, and no copy of either
        specs = [ExperimentSpec(order=order, replications=10) for order in range(2, 7)]
        series = harness._series(specs)
        rows = [row for point in series for ds in point for row in (ds.inputs, ds.targets)]
        assert held_bytes(rows) == 6 * 10 * specs[0].total_len * 8
        assert all(np.shares_memory(point[r].inputs, series[0][r].inputs)
                   for point in series for r in range(10))
        with pytest.raises(ValueError, match="read-only"):
            series[1][0].inputs[0] = 0.0

    @pytest.mark.parametrize("standardize", [False, True])
    @pytest.mark.parametrize("replications", [1, 5])
    def test_csv_point_holds_one_row_pair(self, tmp_path, standardize, replications):
        # a CSV task does not depend on the seed: every replication reads
        # the one (standardized) dataset of the file's 400 rows
        spec = TestDriveGroups._csv_spec(tmp_path, standardize, replications=replications)
        [datasets] = harness._series([spec])
        assert len(datasets) == replications
        assert len(set(datasets)) == 1
        assert held_bytes([datasets[0].inputs]) == held_bytes([datasets[0].targets]) == 400 * 8

    def test_point_series_depend_on_its_own_spec(self, tmp_path):
        # the points of one call read the call's draws and file reads, but
        # each holds its own replications' datasets, as it does when alone
        csv = TestDriveGroups._csv_spec(tmp_path, standardize=False)
        points = [small_spec(replications=2), small_spec(replications=4),
                  small_spec(replications=3, standardize=True),
                  replace(csv, replications=2), replace(csv, replications=5, standardize=True)]
        for spec, datasets in zip(points, harness._series(points), strict=True):
            [alone] = harness._series([spec])
            assert len(datasets) == len(alone) == spec.replications
            for ds, ds_alone in zip(datasets, alone):
                assert np.array_equal(ds.inputs, ds_alone.inputs)
                assert np.array_equal(ds.targets, ds_alone.targets)

    @pytest.mark.parametrize("task", ["narma", "csv"])
    def test_standardize_points_share_their_standardized_datasets(self, tmp_path, task):
        # points that differ only in reservoir fields read one split's
        # standardized datasets, each standardized once per call
        base = (TestDriveGroups._csv_spec(tmp_path, standardize=True) if task == "csv"
                else small_spec(standardize=True, replications=3))
        points = [base, replace(base, num_nodes=12), replace(base, alpha=0.5),
                  replace(base, train_len=base.train_len - 10)]
        series = harness._series(points)
        for datasets in series[1:3]:
            assert all(a is b for a, b in zip(datasets, series[0], strict=True))
        # another split standardizes its own
        assert not any(a is b for a, b in zip(series[3], series[0]))

    def test_surrogate_drawn_once_per_seed(self, monkeypatch):
        # order and the sum convention do not change a surrogate draw
        draws = self._count(monkeypatch, "gen_surrogate_laser")
        base = small_spec(replications=3)
        axes = [("task", ["narma", "surrogate"]), ("order", [2, 3, 4])]
        records = run_sweep(base, axes)
        assert len(draws) == 3
        assert sorted(seed for _, seed in draws) == sorted(
            harness.derive_seed(base.seed, r, harness._STREAM_TASK) for r in range(3))
        monkeypatch.undo()
        for rec, spec in zip(records, _sweep_points(base, axes), strict=True):
            assert same_records(rec, run_experiment(spec))

    def test_trace_targets_do_not_alias_the_memo(self):
        spec = small_spec()
        first = run_experiment(spec)
        want = first.trace_targets.copy()
        first.trace_targets += 1.0
        again = run_experiment(spec)
        assert np.array_equal(again.trace_targets, want)
        assert same_records(again, run_experiment(spec))
        # its own copy: a view would keep the call's target series alive
        assert first.trace_targets.base is None


class TestSweep:
    def test_product_count(self, tmp_path):
        records = run_sweep(small_spec(replications=1),
                            [("order", [2, 3, 4, 5, 6]),
                             ("num_nodes", [10, 20])],
                            out_path=tmp_path / "r.tsv")
        assert len(records) == 10
        orders = [rec.spec.order for rec in read_records(tmp_path / "r.tsv")]
        assert orders == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6]

    def test_empty_axes(self):
        records = run_sweep(small_spec(replications=1), [])
        assert len(records) == 1

    def test_unknown_axis_field(self):
        with pytest.raises(SpecError, match="sweepable"):
            run_sweep(small_spec(), [("flux", [1, 2])])

    def test_non_integer_value_for_int_field(self):
        with pytest.raises(SpecError, match="integer"):
            run_sweep(small_spec(), [("num_nodes", [10.5])])

    def test_bool_value_for_int_field(self):
        with pytest.raises(SpecError, match="integer"):
            run_sweep(small_spec(), [("num_nodes", [True])])

    def test_duplicate_axis_rejected(self, tmp_path, monkeypatch):
        TestCli._forbid_compute(monkeypatch)
        with pytest.raises(SpecError, match="'order'"):
            run_sweep(small_spec(), [("order", [2]), ("order", [3])],
                      out_path=tmp_path / "r.tsv")

    def test_failed_point_leaves_finished_rows(self, tmp_path):
        # at V = 100 the 80-row fit slice of the grid cannot carry lambda = 0
        spec = small_spec(replications=1, train_len=100,
                          lambda_grid=(1e-6, 0.0))
        out = tmp_path / "r.tsv"
        with pytest.raises(SingularSystemError):
            run_sweep(spec, [("num_nodes", [20, 100])], out_path=out)
        assert "# axis: num_nodes = 20,100\n" in out.read_text()
        [rec] = read_records(out)
        assert rec.spec.num_nodes == 20
        # the same holds for a point that fails inside its drive group: at
        # V = 100, 100 training rows cannot carry lambda = 0
        spec = small_spec(replications=1, num_nodes=100, train_len=100)
        with pytest.raises(SingularSystemError):
            run_sweep(spec, [("ridge_lambda", [1e-6, 0.0])], out_path=out)
        [rec] = read_records(out)
        assert rec.spec.ridge_lambda == 1e-6

    def test_axis_text_takes_the_field_type(self, tmp_path):
        records = run_sweep(small_spec(replications=1),
                            [("num_nodes", ["10.0", "12"]), ("alpha", ["0.5"])],
                            out_path=tmp_path / "r.tsv")
        assert [(r.spec.num_nodes, r.spec.alpha)
                for r in records] == [(10, 0.5), (12, 0.5)]
        assert "# axis: num_nodes = 10,12\n" in (tmp_path / "r.tsv").read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        axes = [("order", [2, 3])]
        run_sweep(small_spec(replications=1), axes, out_path=tmp_path / "a.tsv")
        run_sweep(small_spec(replications=1), axes, out_path=tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def _sweep_points(base: ExperimentSpec, axes) -> list[ExperimentSpec]:
    """The specs of a sweep's points, in its order."""
    names = [name for name, _ in axes]
    return [replace(base, **dict(zip(names, combo)))
            for combo in itertools.product(*(values for _, values in axes))]


# one value per spec field a point may set, each different from the base
# of TestDriveGroups.test_group_key_is_complete; csv_input names a second
# file in that test's directory
_POINT_FIELD_CHANGES = dict(
    task="surrogate", order=3, compat_narma_sum=True, csv_input="other.csv",
    csv_target="column:u", standardize=True, num_nodes=12, alpha=0.5, beta=0.5,
    gain_c=1.7, pulse_period=5e-9, bandwidth_time=30e-9, noise_sigma=0.02,
    mask_kind="binary", mask_seed=4, washout=30, train_len=210, test_len=90,
    ridge_lambda=1e-3, lambda_grid=(1e-6, 1e-2), replications=3, seed=8)
_POINT_FIELDS = [k for k in harness.SPEC_TYPES if k not in ("schema", "out")]


class TestDriveGroups:
    @staticmethod
    def _count_rows(monkeypatch) -> list[tuple[int, int]]:
        """The (rows, steps) of every drive call, in call order."""
        calls = []
        real = harness.drive_block
        monkeypatch.setattr(
            harness, "drive_block",
            lambda inputs, *a: calls.append(inputs.shape) or real(inputs, *a))
        return calls

    @staticmethod
    def _blocks(calls) -> list[int]:
        """The rows of each block, each driven twice with the same rows:
        over its training region, then over its test region."""
        assert len(calls) % 2 == 0
        assert [g for g, _ in calls[::2]] == [g for g, _ in calls[1::2]]
        return [g for g, _ in calls[::2]]

    @pytest.mark.parametrize("axes", [
        [("order", [2, 3, 4]), ("num_nodes", [7, 12])],
        [("ridge_lambda", [1e-8, 1e-4, 1e-1, 0.0])],
    ])
    def test_sweep_equals_standalone_runs(self, axes):
        base = small_spec(replications=3)
        records = run_sweep(base, axes)
        points = _sweep_points(base, axes)
        assert len(records) == len(points)
        for rec, spec in zip(records, points):
            assert same_records(rec, run_experiment(spec))

    _AXIS_VALUES = dict(
        alpha=st.floats(0.0, 1.5), beta=st.floats(0.1, 2.0), num_nodes=st.integers(1, 12),
        order=st.integers(2, 6), seed=st.integers(0, 1000), mask_seed=st.integers(0, 1000),
        noise_sigma=st.sampled_from([0.0, 0.01, 0.05]),
        ridge_lambda=st.sampled_from([1e-8, 1e-6, 1e-3, 0.1]),
        mask_kind=st.sampled_from(harness.MASK_KINDS), standardize=st.booleans(),
        compat_narma_sum=st.booleans())

    @settings(max_examples=60, deadline=None)
    @given(task=st.sampled_from(["narma", "surrogate"]), replications=st.integers(1, 2),
           names=st.lists(st.sampled_from(sorted(_AXIS_VALUES)), min_size=1, max_size=3,
                          unique=True), data=st.data())
    def test_sweep_equals_standalone_runs_drawn(self, task, replications, names, data):
        # whatever points share their drive groups, drive rows, Grams and factors
        axes = [(name, data.draw(st.lists(self._AXIS_VALUES[name], min_size=1, max_size=2),
                                 label=name)) for name in names]
        base = small_spec(task=task, num_nodes=8, washout=10, train_len=60, test_len=20,
                          replications=replications)
        records = run_sweep(base, axes)
        for rec, spec in zip(records, _sweep_points(base, axes), strict=True):
            assert same_records(rec, run_experiment(spec))

    @pytest.mark.parametrize("base_overrides", [
        {}, dict(lambda_grid=(1e-6, 1e-2)), dict(noise_sigma=0.01, order=7)])
    def test_choice_and_bool_sweep_equals_standalone_runs(self, tmp_path, base_overrides):
        # every point of task x mask_kind x standardize x compat_narma_sum,
        # the CSV paths set in the base, as its own run
        base = replace(self._csv_spec(tmp_path, replications=3, **base_overrides), task="narma")
        axes = [("task", ["narma", "surrogate", "csv"]), ("mask_kind", ["uniform", "binary"]),
                ("standardize", [False, True]), ("compat_narma_sum", [False, True])]
        records = run_sweep(base, axes)
        points = _sweep_points(base, axes)
        assert len(records) == len(points) == 24
        for rec, spec in zip(records, points, strict=True):
            assert same_records(rec, run_experiment(spec))

    def test_order_and_lambda_points_share_drives(self, monkeypatch):
        replications = 3
        rows = self._count_rows(monkeypatch)
        run_sweep(small_spec(replications=replications),
                  [("order", [2, 3, 4]), ("num_nodes", [7, 12])])
        # one drive per node count and replication, not one per point
        assert sum(self._blocks(rows)) == 2 * replications
        rows.clear()
        run_sweep(small_spec(replications=replications),
                  [("ridge_lambda", [1e-8, 1e-4])])
        assert sum(self._blocks(rows)) == replications

    @pytest.mark.parametrize("grid", [(), (1e-6, 1e-2)])
    def test_order_points_share_grams_and_factors(self, monkeypatch, grid):
        replications = 3
        grams, factors = [], []
        real_system = readout.normal_equations
        real_factor = readout.dpotrf

        def system(*args, **kwargs):
            grams.append(args[0].shape)
            return real_system(*args, **kwargs)
        # fit_ridge finds normal_equations in readout, the harness its own
        monkeypatch.setattr(readout, "normal_equations", system)
        monkeypatch.setattr(harness, "normal_equations", system)
        monkeypatch.setattr(readout, "dpotrf", lambda *a, **k:
                            factors.append(1) or real_factor(*a, **k))
        rows = self._count_rows(monkeypatch)
        lockstep = TestTaskMemo._count(monkeypatch, "gen_narma_lockstep")
        records = run_sweep(small_spec(replications=replications, lambda_grid=grid),
                            [("order", [2, 3, 4])])
        assert sum(self._blocks(rows)) == replications
        # the 9 series are drawn in one lockstep call
        assert len(lockstep) == 1
        # one Gram per driven row (and one of the grid's fit rows), one
        # factor per ridge strength a row needs: not one per point
        assert len(grams) == replications * (1 + bool(grid))
        chosen = [len({rec.lambda_reps[r] for rec in records})
                  for r in range(replications)]
        assert len(factors) == replications * len(grid) + (
            sum(chosen) if grid else replications)
        monkeypatch.undo()
        for rec, spec in zip(records, _sweep_points(
                small_spec(replications=replications, lambda_grid=grid),
                [("order", [2, 3, 4])])):
            assert same_records(rec, run_experiment(spec))

    def test_redrawn_input_gets_its_own_drive(self, monkeypatch):
        base = small_spec(replications=3, seed=4)
        task_seeds = [harness.derive_seed(base.seed, r, harness._STREAM_TASK)
                      for r in range(base.replications)]

        def redraws(order):
            return [gen_narma(NarmaConfig(order, base.total_len, seed)).redraws
                    for seed in task_seeds]

        # at this seed replication 2 of NARMA-10 redraws its input once
        # and NARMA-2 redraws none
        assert redraws(2) == [0, 0, 0] and redraws(10) == [0, 0, 1]
        rows = self._count_rows(monkeypatch)
        records = run_sweep(base, [("order", [2, 10])])
        assert sum(self._blocks(rows)) == 4
        monkeypatch.undo()
        for rec, spec in zip(records, _sweep_points(base, [("order", [2, 10])])):
            assert same_records(rec, run_experiment(spec))

    @staticmethod
    def _csv_spec(tmp_path, standardize=True, **overrides) -> ExperimentSpec:
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(5)
        data.write_text("u,y\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rng.uniform(0, 1, (400, 2)).tolist()))
        return small_spec(task="csv", csv_input=str(data), csv_target="column:y",
                          standardize=standardize, **overrides)

    @pytest.mark.parametrize("standardize", [False, True])
    def test_csv_length_sweep_equals_standalone_runs(self, tmp_path, standardize):
        # one file, read once: (200, 80) and (250, 30) have one total length
        # and two standardize splits, (200, 80) and (200, 30) one split and
        # two lengths
        base = self._csv_spec(tmp_path, standardize=standardize, replications=3)
        axes = [("train_len", [200, 250]), ("test_len", [80, 30])]
        records = run_sweep(base, axes)
        for rec, spec in zip(records, _sweep_points(base, axes)):
            assert same_records(rec, run_experiment(spec))

    @pytest.mark.parametrize("task", ["narma", "csv"])
    def test_reservoir_constant_sweep_equals_standalone_runs(self, tmp_path, task):
        base = small_spec(replications=3, noise_sigma=0.01)
        if task == "csv":
            base = self._csv_spec(tmp_path, replications=3, noise_sigma=0.01)
        axes = [("alpha", [0.5, 0.9]), ("beta", [0.5, 1.0]), ("gain_c", [1.0, 1.7])]
        records = run_sweep(base, axes)
        points = _sweep_points(base, axes)
        assert len(records) == len(points) == 8
        for rec, spec in zip(records, points):
            assert same_records(rec, run_experiment(spec))

    def test_alpha_points_share_blocks_and_noise_draws(self, tmp_path, monkeypatch):
        base = self._csv_spec(tmp_path, num_nodes=100, replications=4, noise_sigma=0.01)
        axes = [("alpha", [0.5, 0.7, 0.9])]
        noise_seeds = {harness.derive_seed(base.seed, r, harness._STREAM_NOISE)
                       for r in range(base.replications)}
        streams = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: streams.append(
            seed in noise_seeds) or real_rng(seed))
        monkeypatch.setattr(harness, "_DRIVE_BLOCK_BYTES",
                            3 * base.total_len * (base.num_nodes + 1) * 8)
        rows = self._count_rows(monkeypatch)
        records = run_sweep(base, axes)
        # one block per replication, its three alphas drawing one stream;
        # one group per alpha would drive blocks of 3 and 1 and draw 12
        assert self._blocks(rows) == [3, 3, 3, 3] and sum(streams) == 4
        monkeypatch.undo()
        for rec, spec in zip(records, _sweep_points(base, axes)):
            assert same_records(rec, run_experiment(spec))

    def test_every_point_field_has_a_change(self):
        # a new spec field fails here until it has a value in the table
        assert set(_POINT_FIELD_CHANGES) == set(_POINT_FIELDS)

    @pytest.mark.parametrize("field", _POINT_FIELDS)
    def test_group_key_is_complete(self, tmp_path, field):
        # two points that differ in one field, block field or row
        # property, come out as their standalone runs
        base = small_spec(noise_sigma=0.01)
        if field.startswith("csv_"):
            base = self._csv_spec(tmp_path, noise_sigma=0.01)
        value = _POINT_FIELD_CHANGES[field]
        if field == "csv_input":
            # the base file's rows in reverse order
            header, *lines = Path(base.csv_input).read_text().splitlines(keepends=True)
            (tmp_path / value).write_text(header + "".join(reversed(lines)))
            value = str(tmp_path / value)
        changed = replace(base, **{field: value})
        swept = list(harness._run_points([base, changed]))
        assert all(map(same_records, swept, map(run_experiment, (base, changed))))
        # the change reaches the result
        assert swept[0].pearson_reps != swept[1].pearson_reps

    def test_seed_and_mask_points_fill_blocks(self, monkeypatch):
        base = small_spec(noise_sigma=0.01)
        points = _sweep_points(base, [("seed", [7, 8]), ("mask_seed", [3, 4]),
                                      ("mask_kind", ["uniform", "binary"])])
        rows = self._count_rows(monkeypatch)
        records = list(harness._run_points(points))
        # every point's two replications in one block, not one block per
        # point: its training region, then its test region
        split = base.washout + base.train_len
        assert rows == [(16, split), (16, base.test_len)]
        rows.clear()
        monkeypatch.setattr(harness, "_DRIVE_BLOCK_BYTES",
                            5 * base.total_len * (base.num_nodes + 1) * 8)
        capped = list(harness._run_points(points))
        assert rows == [(g, steps) for g in (5, 5, 5, 1) for steps in (split, base.test_len)]
        monkeypatch.undo()
        for rec, again, spec in zip(records, capped, points):
            assert same_records(rec, run_experiment(spec)) and same_records(again, rec)

    def test_replication_points_share_drives(self, monkeypatch):
        # replications 0 and 1 are one drive each, for both points; the
        # records are test_group_key_is_complete[replications]'s
        rows = self._count_rows(monkeypatch)
        run_sweep(small_spec(), [("replications", [2, 3])])
        assert sum(self._blocks(rows)) == 3

    def test_seed_sweep_is_one_block(self, monkeypatch):
        # ten one-replication points at V = 35 and the default lengths
        # fill one 8 MiB block
        base = ExperimentSpec(num_nodes=35, replications=1)
        axes = [("seed", list(range(10)))]
        rows = self._count_rows(monkeypatch)
        records = run_sweep(base, axes)
        assert self._blocks(rows) == [10]
        monkeypatch.undo()
        for rec, spec in zip(records, _sweep_points(base, axes)):
            assert same_records(rec, run_experiment(spec))

    def test_group_duration_is_split_over_its_points(self):
        records = run_sweep(small_spec(replications=1),
                            [("ridge_lambda", [1e-8, 1e-4])])
        assert records[0].duration_s == records[1].duration_s > 0

    @pytest.mark.parametrize("grid", [(), (1e-6, 1e-2)])
    def test_only_replication_zero_keeps_its_arrays(self, grid):
        # a record keeps replication 0's test predictions and weights, so
        # a group holds no other replication's until its records are made
        specs = _sweep_points(small_spec(replications=3, lambda_grid=grid),
                              [("order", [2, 3])])
        outcomes = harness._drive_group(specs, [0, 1], harness._series(specs))
        for fits in outcomes.values():
            assert [type(x) for x in fits[0][3:]] == [np.ndarray, np.ndarray]
            assert len(fits) == 3 and not any(
                isinstance(x, np.ndarray) for fit in fits[1:] for x in fit)


class TestFitErrors:
    """A library error of the fit is the outcome of the points it reaches,
    and of no other."""

    def test_gram_error_fails_every_point_of_the_row(self, monkeypatch):
        # orders 2 and 3 read one input draw, so each replication is one
        # drive row for both; a gain of 1e200 overflows its Gram
        rows = TestDriveGroups._count_rows(monkeypatch)
        specs = [small_spec(order=order, gain_c=1e200) for order in (2, 3)]
        outcomes = harness._drive_group(specs, [0, 1], harness._series(specs))
        assert TestDriveGroups._blocks(rows) == [2]
        for outcome in outcomes.values():
            assert isinstance(outcome, ParameterError)
            assert str(outcome).startswith("replication 0: normal equations are not finite")

    def test_point_error_after_the_shared_factor_is_its_own(self, tmp_path, monkeypatch):
        # two targets of one input file: one drive row and one factor per
        # replication; the second target is constant over the test region,
        # so only its score fails, and the first point's record comes first.
        # Both replications are fitted before the test region is driven, so
        # replication 1 fits both points, and the second keeps the error of
        # replication 0, its first
        rng = np.random.default_rng(5)
        paths = {name: tmp_path / f"{name}.csv" for name in ("u", "y", "flat")}
        spec = small_spec(csv_input=str(paths["u"]))
        series = rng.uniform(0, 1, (3, spec.total_len))
        series[2, spec.washout + spec.train_len:] = 0.5
        for path, values in zip(paths.values(), series):
            path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        good, flat = (replace(spec, task="csv", csv_target=str(paths[name]))
                      for name in ("y", "flat"))
        rows = TestDriveGroups._count_rows(monkeypatch)
        systems = []
        real = harness.normal_equations
        monkeypatch.setattr(harness, "normal_equations",
                            lambda r, y: systems.append(len(y)) or real(r, y))
        records = harness._run_points([good, flat])
        assert next(records).spec == good
        with pytest.raises(DegenerateVarianceError, match="^replication 0: "):
            next(records)
        assert TestDriveGroups._blocks(rows) == [2] and systems == [2, 2]


def fit_ridge_reference(states, targets, lam):
    """The ridge solve as it was when every lambda grid point formed its
    own Gram, kept verbatim as the bitwise reference."""
    r = np.asarray(states, dtype=float)
    y = np.asarray(targets, dtype=float).ravel()
    gram = r.T @ r + lam * np.eye(r.shape[1])
    return cho_solve(cho_factor(gram), r.T @ y)


class TestLambdaGrid:
    GRID = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)

    @staticmethod
    def driven(num_nodes, train_len=300, **overrides):
        """A spec, one driven state matrix, and the NARMA-2 and NARMA-3
        targets of its input row."""
        spec = small_spec(num_nodes=num_nodes, train_len=train_len, **overrides)
        ds = gen_narma(NarmaConfig(2, spec.total_len, 5))
        states = run(ds.inputs, generate_mask(num_nodes, 9),
                     spec.reservoir_params(), washout=spec.washout)
        u = ds.inputs.tolist()
        y3 = [0.0] * len(u)
        for t in range(4, len(u)):
            y3[t] = (0.3 * y3[t - 1] + 0.05 * y3[t - 1] * sum(y3[t - 4:t])
                     + 1.5 * u[t - 1] * u[t - 3] + 0.1)
        return spec, states, {0: ds.targets, 1: np.array(y3)}

    @pytest.mark.parametrize("num_nodes", [7, 100])
    def test_bitwise_equal_to_per_lambda_fits(self, num_nodes):
        spec, states, targets = self.driven(num_nodes, lambda_grid=self.GRID)
        r = states[: spec.train_len]
        train = slice(spec.washout, spec.washout + spec.train_len)
        n_fit = int(0.8 * spec.train_len)
        # two points share one driven row's training states, its Grams and
        # its factors
        fits = harness._fit_drive([spec, replace(spec, order=3)], r, targets)
        for i, y in targets.items():
            y = y[train]
            system = normal_equations(r[:n_fit], y[:n_fit])
            want_errs = []
            for lam in self.GRID:
                want = fit_ridge_reference(r[:n_fit], y[:n_fit], lam)
                w = system.solve(lam)
                assert w.ridge_lambda == lam
                assert np.array_equal(w.weights, want)
                want_errs.append(nrmse(y[n_fit:], r[n_fit:] @ want))
            chosen = self.GRID[int(np.argmin(want_errs))]
            assert fits[i].ridge_lambda == chosen
            assert np.array_equal(fits[i].weights, fit_ridge_reference(r, y, chosen))
            assert np.array_equal(fits[i].weights, fit_ridge(r, y, chosen).weights)

    def test_ties_go_to_the_earlier_strength(self):
        # 1e-300 leaves every diagonal bit of the Gram as it is, so both
        # strengths fit and score alike
        for grid in ((0.0, 1e-300), (1e-300, 0.0)):
            rec = run_experiment(small_spec(num_nodes=10, train_len=300, test_len=100,
                                            replications=3, lambda_grid=grid))
            assert rec.lambda_reps == [grid[0]] * 3

    def test_repeated_strength_counts_once(self):
        # 1e-8 wins every replication, after the repeated 0.1
        once = run_experiment(small_spec(lambda_grid=(0.1, 1e-8)))
        twice = run_experiment(small_spec(lambda_grid=(0.1, 0.1, 1e-8)))
        assert twice.lambda_reps == once.lambda_reps == [1e-8, 1e-8]
        assert twice.pearson_reps == once.pearson_reps

    def test_a_failed_point_is_not_solved_again(self, monkeypatch):
        # lambda = 0 fails both points before any factor, so the grid's
        # later strength has no point left to factor for
        spec, states, targets = self.driven(100, train_len=100,
                                            lambda_grid=(0.0, 1e-6))
        factors = []
        real = readout.dpotrf
        monkeypatch.setattr(readout, "dpotrf", lambda *a, **k:
                            factors.append(1) or real(*a, **k))
        fits = harness._fit_drive([spec, spec], states[:spec.train_len], targets)
        assert all(isinstance(f, SingularSystemError) for f in fits.values())
        assert factors == []

    def test_zero_lambda_on_short_fit_slice_is_singular(self):
        # 100 training rows leave 80 to fit 101 weights
        spec, states, targets = self.driven(100, train_len=100,
                                            lambda_grid=(1e-6, 0.0))
        fits = harness._fit_drive([spec, spec], states[:spec.train_len], targets)
        assert all(isinstance(f, SingularSystemError) for f in fits.values())
        with pytest.raises(SingularSystemError, match="replication 0"):
            run_experiment(small_spec(num_nodes=100, train_len=100,
                                      lambda_grid=(1e-6, 0.0)))


class TestSplitHygiene:
    def test_poisoned_test_rows_leave_training_alone(self, tmp_path):
        rng = np.random.default_rng(21)
        n = 300
        u = rng.uniform(0, 0.5, n)
        y = rng.uniform(0, 1, n)
        spec_kwargs = dict(task="csv", washout=20, train_len=200, test_len=80,
                           replications=1, num_nodes=20, standardize=True)
        cut = 20 + 200  # everything at and after this index is test region

        def write(dirname, u_arr, y_arr):
            d = tmp_path / dirname
            d.mkdir()
            (d / "u.csv").write_text("\n".join(repr(float(v)) for v in u_arr) + "\n")
            (d / "y.csv").write_text("\n".join(repr(float(v)) for v in y_arr) + "\n")
            return d

        clean = write("clean", u, y)
        u_bad, y_bad = u.copy(), y.copy()
        u_bad[cut:] = 1e6
        y_bad[cut:] = -1e6 - np.arange(n - cut)  # varying, so metrics stay defined
        poisoned = write("poisoned", u_bad, y_bad)

        rec_clean = run_experiment(small_spec(
            csv_input=str(clean / "u.csv"), csv_target=str(clean / "y.csv"),
            **spec_kwargs))
        rec_poisoned = run_experiment(small_spec(
            csv_input=str(poisoned / "u.csv"), csv_target=str(poisoned / "y.csv"),
            **spec_kwargs))
        assert np.array_equal(rec_clean.readout_first, rec_poisoned.readout_first)


class TestFigureData:
    def test_pearson_table_rows(self, tmp_path):
        records = run_sweep(small_spec(replications=1),
                            [("order", [2, 3]), ("num_nodes", [10, 20])])
        out = tmp_path / "fig.tsv"
        emit_figure_data(records, "pearson_vs_N", out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N\tV\tpearson_mean\tpearson_std"
        assert len(lines) == 5

    def test_std_zero_for_single_replication(self, tmp_path):
        records = run_sweep(small_spec(replications=1), [])
        out = tmp_path / "fig.tsv"
        emit_figure_data(records, "pearson_vs_N", out)
        row = out.read_text().strip().split("\n")[1].split("\t")
        assert row[3] == "0"

    def test_perfect_fit_trace(self, tmp_path):
        y = np.linspace(0.0, 1.0, 50)
        rec = ResultRecord(
            spec=ExperimentSpec(order=2, num_nodes=10),
            pearson_reps=[1.0], nrmse_reps=[0.0], lambda_reps=[0.0],
            pearson_mean=1.0, pearson_std=0.0, nrmse_mean=0.0, nrmse_std=0.0,
            duration_s=0.0, trace_targets=y, trace_predictions=y.copy())
        out = tmp_path / "trace.tsv"
        emit_figure_data([rec], "prediction_trace", out)
        rows = [ln.split("\t") for ln in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 50
        assert all(r[1] == r[2] for r in rows)

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(SpecError, match="unknown figure"):
            emit_figure_data([], "histogram", tmp_path / "fig.tsv")

    @pytest.mark.parametrize("read_back, message", [
        (False, "no records to trace"),
        (True, "record carries no stored test trace"),
    ], ids=["no-records", "read-back"])
    def test_trace_error_writes_no_file(self, tmp_path, read_back, message):
        records = []
        if read_back:  # a results file holds no test traces
            run_sweep(small_spec(replications=1), [], out_path=tmp_path / "r.tsv")
            records = read_records(tmp_path / "r.tsv")
        out = tmp_path / "trace.tsv"
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            emit_figure_data(records, "prediction_trace", out)
        assert not out.exists()


class TestCli:
    def _spec_file(self, tmp_path, **overrides):
        """The spec file of ``small_spec(replications=1)`` writing to res.tsv,
        each override in its field's line as its text: written directly, as
        a file may hold a spec that does not build."""
        base = small_spec(replications=1, out=str(tmp_path / "res.tsv"))
        values = {**{f.name: getattr(base, f.name) for f in fields(base)}, **overrides}
        path = tmp_path / "exp.spec"
        path.write_text("".join(f"{k} = {harness._fmt_value(v, exact=True)}\n"
                                for k, v in values.items()), encoding="utf-8")
        return path

    def test_run(self, tmp_path, capsys):
        path = self._spec_file(tmp_path)
        assert main(["run", "--spec", str(path)]) == 0
        assert (tmp_path / "res.tsv").exists()
        assert "pearson" in capsys.readouterr().out

    def test_run_with_overrides(self, tmp_path):
        path = self._spec_file(tmp_path)
        out = tmp_path / "override.tsv"
        assert main(["run", "--spec", str(path), "--out", str(out),
                     "--replications", "2", "--seed", "99"]) == 0
        [rec] = read_records(out)
        assert rec.spec.seed == 99
        assert rec.spec.replications == 2

    def test_sweep(self, tmp_path):
        path = self._spec_file(tmp_path)
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--spec", str(path), "--out", str(out),
                     "--axis", "order=2,3", "--axis", "num_nodes=10,20"]) == 0
        assert len(read_records(out)) == 4

    def test_integer_axis_value_stays_exact(self, tmp_path):
        path = self._spec_file(tmp_path)
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--spec", str(path), "--out", str(out),
                     "--axis", "seed=12345678901234567"]) == 0
        header, row = out.read_text().splitlines()[-2:]
        assert row.split("\t")[header.split("\t").index("seed")] == \
            "12345678901234567"

    def test_non_integral_axis_value_is_spec_error(self, tmp_path,
                                                   monkeypatch):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main(["sweep", "--spec", str(path),
                     "--axis", "num_nodes=10.5"]) == 2

    def test_spec_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("schema = 1\ntask = quantum\n")
        assert main(["run", "--spec", str(bad)]) == 2

    def test_missing_spec_file_exit_code(self, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "nope.spec")]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        path = self._spec_file(tmp_path, task="csv",
                               csv_input=str(tmp_path / "missing_u.csv"),
                               csv_target=str(tmp_path / "missing_y.csv"))
        assert main(["run", "--spec", str(path)]) == 3

    def test_overflowing_gram_exits_3_with_warnings_as_errors(self, tmp_path):
        # a gain of 1e200 overflows the Gram: a ParameterError, exit 3, not
        # an overflow warning raised as an error
        path = self._spec_file(tmp_path, gain_c=1e200)
        src = str(Path(harness.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pulserc.cli", "run", "--spec", str(path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert done.returncode == 3, done.stderr
        assert "normal equations are not finite" in done.stderr
        assert "Warning" not in done.stderr

    @staticmethod
    def _forbid_compute(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("compute started")
        monkeypatch.setattr(harness, "generate_mask", fail)

    def test_non_finite_lambda_is_spec_error(self, tmp_path, monkeypatch):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        path.write_text(path.read_text().replace("ridge_lambda = 1e-06",
                                                 "ridge_lambda = nan"))
        assert "ridge_lambda = nan" in path.read_text()
        assert main(["run", "--spec", str(path)]) == 2

    def test_run_unwritable_out_fails_before_compute(self, tmp_path,
                                                     monkeypatch):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        out = tmp_path / "no_such_dir" / "res.tsv"
        assert main(["run", "--spec", str(path), "--out", str(out)]) == 3

    @pytest.mark.parametrize("overrides", [
        dict(mask_seed=-1),
        dict(task="surrogate", mask_seed=-1),
        dict(task="surrogate", seed=-1),
        dict(task="csv", csv_input="u.csv", csv_target="y.csv", seed=-1),
    ])
    def test_negative_seed_is_spec_error(self, tmp_path, monkeypatch, capsys,
                                         overrides):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path, **overrides)
        assert main(["run", "--spec", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, args, word", [
        (dict(mask_kind="bogus"), ["run"], "mask_kind"),
        (dict(test_len=1), ["run"], "test_len"),
        *[(dict(train_len=n, lambda_grid=(1e-6,)), ["run"], "held-out")
          for n in (2, 3, 4, 5)],
        ({}, ["sweep", "--axis", "order=2", "--axis", "order=3"], "'order'"),
        ({}, ["sweep", "--axis", "order="], "no values"),
        # a spec file keeps a tab inside a value
        (dict(task="csv", csv_input="u\t1.csv", csv_target="column:y"), ["run"],
         "csv_input holds a tab"),
    ])
    def test_spec_error_before_compute(self, tmp_path, monkeypatch, capsys,
                                       overrides, args, word):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path, **overrides)
        assert main([args[0], "--spec", str(path), *args[1:]]) == 2
        assert word in capsys.readouterr().err

    # one invalid value fails with one message whatever builds its spec
    _ZERO_REPLICATIONS = "replications must be >= 1, got 0"

    def test_zero_replications_same_error_through_every_builder(self, tmp_path):
        message = re.escape(self._ZERO_REPLICATIONS) + "$"
        with pytest.raises(SpecError, match="^" + message):
            small_spec(replications=0)
        with pytest.raises(SpecError, match="^" + message):
            replace(small_spec(), replications=0)
        with pytest.raises(SpecError, match="^" + message):
            parse_spec_file(self._spec_file(tmp_path, replications=0))
        # a results row whose replications cell reads 0; its line is named
        out = tmp_path / "res.tsv"
        run_sweep(small_spec(replications=1), [], out)
        *lines, header, row = out.read_text().splitlines()
        cells = row.split("\t")
        cells[header.split("\t").index("replications")] = "0"
        out.write_text("\n".join([*lines, header, "\t".join(cells)]) + "\n")
        with pytest.raises(SpecError, match=f"^{re.escape(f'{out}:{len(lines) + 2}: ')}{message}"):
            read_records(out)

    @pytest.mark.parametrize("args", [["run", "--replications", "0"],
                                      ["sweep", "--axis", "replications=0,2"]])
    def test_zero_replications_same_error_on_the_command_line(self, tmp_path, monkeypatch,
                                                              capsys, args):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main([args[0], "--spec", str(path), *args[1:]]) == 2
        assert capsys.readouterr().err == f"pulserc: spec error: {self._ZERO_REPLICATIONS}\n"
        assert not (tmp_path / "res.tsv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_empty_out_is_spec_error(self, tmp_path, monkeypatch, capsys,
                                     command):
        self._forbid_compute(monkeypatch)
        empty = tmp_path / "empty_out.spec"
        write_spec_file(small_spec(out=""), empty)
        assert "\nout = \n" in empty.read_text()
        assert main([command, "--spec", str(empty)]) == 2
        path = self._spec_file(tmp_path)
        assert main([command, "--spec", str(path), "--out", ""]) == 2
        assert capsys.readouterr().err.count("results path") == 2

    @pytest.mark.parametrize("command, overrides, args", [
        ("sweep", {}, ["--axis", "order=2,30"]),
        ("run", dict(order=30), []),
    ])
    def test_diverging_order_is_spec_error(self, tmp_path, monkeypatch, capsys,
                                           command, overrides, args):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path, **overrides)
        assert main([command, "--spec", str(path), *args]) == 2
        assert "NARMA-30 diverged" in capsys.readouterr().err
        # checked before the results file is opened: no file, so no row
        assert not (tmp_path / "res.tsv").exists()

    def test_undecodable_spec_file_is_spec_error(self, tmp_path, monkeypatch, capsys):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"# caf\xff\n")
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "spec error" in err and str(path) in err
        assert not (tmp_path / "res.tsv").exists()

    def test_undecodable_csv_file_exits_3(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"u,y\n" + b"0.1,0.2\n" * 200 + b"0.3,0.\xff\n" + b"0.1,0.2\n" * 200)
        path = self._spec_file(tmp_path, task="csv", csv_input=str(data),
                               csv_target="column:y")
        self._forbid_compute(monkeypatch)
        assert main(["run", "--spec", str(path)]) == 3
        assert f"cannot read {data}" in capsys.readouterr().err
        assert not (tmp_path / "res.tsv").exists()

    def test_separator_only_csv_file_exits_3(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.csv"
        data.write_text(",,\n" * 400)
        path = self._spec_file(tmp_path, task="csv", csv_input=str(data),
                               csv_target="column:y")
        self._forbid_compute(monkeypatch)
        assert main(["run", "--spec", str(path)]) == 3
        assert f"{data}:1: separators but no values" in capsys.readouterr().err
        assert not (tmp_path / "res.tsv").exists()

    @pytest.mark.parametrize("field, line, args", [
        ("replications", None, ["--replications", "1e300"]),  # would never end
        ("train_len", "train_len = 1000000000000", []),
        ("num_nodes", "num_nodes = 100000000", []),
    ])
    def test_size_no_run_can_hold_exits_2(self, tmp_path, field, line, args):
        # in a process of its own, which a regression would hang or run out of memory in
        text = (README.parent / "specs" / "narma_benchmark.spec").read_text()
        if line:
            text = re.sub(rf"^{field} = .*$", line, text, flags=re.M)
        (tmp_path / "huge.spec").write_text(text)
        out = tmp_path / "huge.tsv"
        src = str(Path(harness.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "pulserc.cli", "run", "--spec", str(tmp_path / "huge.spec"),
             *args, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(f"pulserc: spec error: {field} is too large")
        assert not out.exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate 8.00 TiB"),
        (MemoryError(), "out of memory")])
    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys, error, message):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "run_sweep", fail)
        assert main(["run", "--spec", str(self._spec_file(tmp_path))]) == 3
        assert capsys.readouterr().err == f"pulserc: error: {message}\n"

    def test_undecodable_results_file_is_spec_error(self, tmp_path, capsys):
        records = tmp_path / "res.tsv"
        write_records(records, small_spec(), [], [run_experiment(small_spec(replications=1))])
        records.write_bytes(records.read_bytes().replace(b"narma", b"narm\xff", 1))
        out = tmp_path / "fig.tsv"
        assert main(["figure", "--figure", "pearson_vs_N", "--records", str(records),
                     "--out", str(out)]) == 2
        assert f"cannot read {records}" in capsys.readouterr().err
        assert not out.exists()
        # as a spec file: a results file that cannot be opened is a spec error too
        assert main(["figure", "--figure", "pearson_vs_N", "--records",
                     str(tmp_path / "nope.tsv"), "--out", str(out)]) == 2

    @pytest.mark.parametrize("name", ["csv_input", "csv_target"])
    def test_nul_in_csv_path_is_spec_error(self, tmp_path, monkeypatch, capsys, name):
        data = TestDriveGroups._csv_spec(tmp_path).csv_input
        # the other path names a file that exists, so only the NUL byte is wrong
        path = self._spec_file(tmp_path, task="csv", **{"csv_input": data, "csv_target": data,
                                                        name: data + "\0"})
        self._forbid_compute(monkeypatch)
        assert main(["run", "--spec", str(path)]) == 2
        assert f"{name} holds a NUL byte" in capsys.readouterr().err
        assert not (tmp_path / "res.tsv").exists()

    def test_csv_too_short_for_a_later_point_is_spec_error(self, tmp_path,
                                                           monkeypatch, capsys):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(5)
        data.write_text("u,y\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rng.uniform(0, 1, (400, 2)).tolist()))
        path = self._spec_file(tmp_path, task="csv", csv_input=str(data),
                               csv_target="column:y")
        self._forbid_compute(monkeypatch)
        # washout + train + test is 300 for the first point, 600 for the second
        assert main(["sweep", "--spec", str(path), "--axis", "train_len=200,500",
                     "--replications", "2"]) == 2
        assert "provides 400 samples but washout+train+test needs 600" in \
            capsys.readouterr().err
        # checked before the results file is opened: no file, so no row
        assert not (tmp_path / "res.tsv").exists()

    def test_later_group_diverging_is_spec_error(self, tmp_path, monkeypatch, capsys):
        # one drive group per seed; replication 1 of seed 8's NARMA task
        # diverges for every redraw
        bad = harness.derive_seed(8, 1, harness._STREAM_TASK)
        real_lockstep = harness.gen_narma_lockstep

        def lockstep(cfgs, *args):
            return [None if cfg.seed == bad else ds
                    for cfg, ds in zip(cfgs, real_lockstep(cfgs, *args))]
        monkeypatch.setattr(harness, "gen_narma_lockstep", lockstep)
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main(["sweep", "--spec", str(path), "--axis", "seed=7,8",
                     "--replications", "2"]) == 2
        assert "replication 1: NARMA-2 diverged" in capsys.readouterr().err
        # checked before the results file is opened: no file, so no row
        assert not (tmp_path / "res.tsv").exists()

    def test_constant_standardized_input_fails_before_out(self, tmp_path,
                                                         monkeypatch, capsys):
        data = tmp_path / "data.csv"
        # constant over washout + train (220 rows), varying after them
        data.write_text("u,y\n" + "".join(
            f"{1.0 if t < 220 else t / 400!r},{t / 400!r}\n" for t in range(400)))
        path = self._spec_file(tmp_path, task="csv", csv_input=str(data),
                               csv_target="column:y", standardize=True)
        self._forbid_compute(monkeypatch)
        assert main(["run", "--spec", str(path)]) == 3
        assert "constant training input" in capsys.readouterr().err
        assert not (tmp_path / "res.tsv").exists()

    def test_bad_axis_exit_code(self, tmp_path):
        path = self._spec_file(tmp_path)
        assert main(["sweep", "--spec", str(path), "--axis", "flux=1,2"]) == 2

    @pytest.mark.parametrize("axis", ["lambda_grid=1e-6", "out=a.tsv", "schema=1"])
    def test_axis_outside_the_sweep_rule_exit_code(self, tmp_path, capsys, monkeypatch, axis):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main(["sweep", "--spec", str(path), "--axis", axis]) == 2
        assert "unknown sweep field" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.spec"]

    def test_choice_and_bool_axes(self, tmp_path):
        path = self._spec_file(tmp_path)
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--spec", str(path), "--out", str(out),
                     "--axis", "mask_kind=uniform,binary",
                     "--axis", "standardize=false,true"]) == 0
        text = out.read_text()
        assert "# axis: mask_kind = uniform,binary\n# axis: standardize = false,true\n" in text
        assert [(r.spec.mask_kind, r.spec.standardize) for r in read_records(out)] == [
            ("uniform", False), ("uniform", True), ("binary", False), ("binary", True)]

    @pytest.mark.parametrize("args, message", [
        (["sweep", "--spec", "{spec}", "--axis", "order"], "axis must look like FIELD=V1,V2"),
        (["figure", "--figure", "prediction_trace", "--out", "{out}"],
         "prediction_trace needs --spec"),
    ])
    def test_malformed_argument_exit_code(self, tmp_path, capsys, args, message):
        path = self._spec_file(tmp_path)
        assert main([a.format(spec=path, out=tmp_path / "fig.tsv") for a in args]) == 2
        assert message in capsys.readouterr().err

    def test_narma_gen_roundtrip(self, tmp_path):
        out = tmp_path / "narma.csv"
        assert main(["narma-gen", "--order", "2", "--length", "500",
                     "--seed", "11", "--out", str(out)]) == 0
        from pulserc import NarmaConfig, gen_narma, load_csv_task
        ds = load_csv_task(out, "column:y")
        want = gen_narma(NarmaConfig(order=2, length=500, seed=11))
        assert np.array_equal(ds.inputs, want.inputs)
        assert np.array_equal(ds.targets, want.targets)

    @pytest.mark.parametrize("args", [
        ["--order", "0"], ["--low", "1", "--high", "0"],
        ["--length", "2", "--order", "2"], ["--seed", "-1"],
        ["--high", "inf"], ["--low=-inf", "--high", "0"],
        ["--low=-1e308", "--high", "1e308"], ["--order", "30"]])
    def test_narma_gen_bad_argument_is_spec_error(self, tmp_path, args):
        out = tmp_path / "narma.csv"
        assert main(["narma-gen", *args, "--out", str(out)]) == 2
        assert not out.exists()

    def test_narma_gen_compat_flag(self, tmp_path):
        plain = tmp_path / "plain.csv"
        compat = tmp_path / "compat.csv"
        base = ["narma-gen", "--order", "3", "--length", "300", "--seed", "4"]
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--out", str(compat), "--compat-narma-sum"]) == 0
        from pulserc import load_csv_task
        a = load_csv_task(plain, "column:y")
        b = load_csv_task(compat, "column:y")
        assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.targets, b.targets)

    def test_run_compat_flag_changes_spec(self, tmp_path):
        path = self._spec_file(tmp_path)
        out = tmp_path / "compat.tsv"
        assert main(["run", "--spec", str(path), "--out", str(out),
                     "--compat-narma-sum"]) == 0
        [rec] = read_records(out)
        assert rec.spec.compat_narma_sum is True

    @pytest.mark.parametrize("command, args, line", [
        ("run", ["--seed", "1e3"], "seed = 1e3"),
        ("sweep", ["--replications", "2.0"], "replications = 2"),
        ("sweep", ["--compat-narma-sum"], "compat_narma_sum = true"),
    ], ids=["run-seed", "sweep-replications", "sweep-compat"])
    def test_override_is_read_as_the_spec_file_reads_it(self, tmp_path, command, args,
                                                        line):
        path = self._spec_file(tmp_path)
        by_flag, by_file = tmp_path / "flag.tsv", tmp_path / "file.tsv"
        assert main([command, "--spec", str(path), "--out", str(by_flag), *args]) == 0
        key = line.partition(" = ")[0]
        edited = tmp_path / "edited.spec"
        edited.write_text(re.sub(rf"^{key} = .*$", line, path.read_text(), flags=re.M))
        assert line in edited.read_text() and line not in path.read_text()
        assert main([command, "--spec", str(edited), "--out", str(by_file)]) == 0
        assert by_flag.read_bytes() == by_file.read_bytes()

    @pytest.mark.parametrize("command, flag, text", [
        ("run", "--seed", "abc"), ("sweep", "--replications", "x")],
        ids=["run-seed", "sweep-replications"])
    def test_unreadable_override_is_spec_error(self, tmp_path, monkeypatch, capsys,
                                               command, flag, text):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main([command, "--spec", str(path), flag, text]) == 2
        assert (f"pulserc: spec error: {flag}: expected an integer, got {text!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "res.tsv").exists()

    def test_figure_pearson_from_records(self, tmp_path):
        path = self._spec_file(tmp_path)
        sweep_out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--spec", str(path), "--out", str(sweep_out),
                     "--axis", "order=2,3"]) == 0
        fig_out = tmp_path / "fig.tsv"
        assert main(["figure", "--figure", "pearson_vs_N",
                     "--records", str(sweep_out), "--out", str(fig_out)]) == 0
        lines = fig_out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_figure_from_records_file_matches_in_memory(self, tmp_path):
        sweep_out = tmp_path / "sweep.tsv"
        records = run_sweep(small_spec(replications=3),
                            [("order", [2, 3]), ("num_nodes", [10, 20])],
                            out_path=sweep_out)
        want = tmp_path / "memory.tsv"
        emit_figure_data(records, "pearson_vs_N", want)
        got = tmp_path / "file.tsv"
        assert main(["figure", "--figure", "pearson_vs_N",
                     "--records", str(sweep_out), "--out", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_figure_from_file_missing_columns(self, tmp_path, capsys):
        path = self._spec_file(tmp_path)
        sweep_out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--spec", str(path), "--out", str(sweep_out)]) == 0
        lines = sweep_out.read_text().splitlines()
        keep = [i for i, name in enumerate(lines[-2].split("\t"))
                if name not in ("nrmse_std", "lambda_reps")]
        sweep_out.write_text("\n".join(
            lines[:-2] + ["\t".join(ln.split("\t")[i] for i in keep)
                          for ln in lines[-2:]]) + "\n")
        assert main(["figure", "--figure", "pearson_vs_N", "--records",
                     str(sweep_out), "--out", str(tmp_path / "fig.tsv")]) == 2
        assert "['nrmse_std', 'lambda_reps']" in capsys.readouterr().err

    def test_figure_trace_from_spec(self, tmp_path):
        path = self._spec_file(tmp_path)
        fig_out = tmp_path / "trace.tsv"
        assert main(["figure", "--figure", "prediction_trace",
                     "--spec", str(path), "--out", str(fig_out)]) == 0
        lines = fig_out.read_text().strip().split("\n")
        assert lines[0] == "step\ttarget\tprediction"
        assert len(lines) == 81

    def test_figure_trace_opens_out_before_the_run(self, tmp_path,
                                                   monkeypatch):
        drives = TestDriveGroups._count_rows(monkeypatch)
        path = self._spec_file(tmp_path)
        assert main(["figure", "--figure", "prediction_trace",
                     "--spec", str(path),
                     "--out", str(tmp_path / "no_dir" / "t.tsv")]) == 3
        assert drives == []

    @pytest.mark.parametrize("existing", [False, True], ids=["no-out", "out-exists"])
    @pytest.mark.parametrize("case, message", [
        ("size", "num_nodes is too large"),
        ("csv-too-short", "provides 100 samples but washout+train+test needs 300"),
        ("diverging", "NARMA-30 diverged"),
    ], ids=["size", "csv-too-short", "diverging"])
    def test_figure_trace_spec_error_leaves_out_alone(self, tmp_path, monkeypatch, capsys,
                                                      case, message, existing):
        # the run's checks and series come before --out is opened, as for run and sweep
        data = tmp_path / "data.csv"
        data.write_text("u,y\n" + "".join(f"{k / 7!r},{k / 5!r}\n" for k in range(100)))
        path = self._spec_file(tmp_path, **{
            "size": dict(num_nodes=10**8), "diverging": dict(order=30),
            "csv-too-short": dict(task="csv", csv_input=str(data), csv_target="column:y"),
        }[case])
        self._forbid_compute(monkeypatch)
        out = tmp_path / "fig.tsv"
        if existing:
            out.write_text("old\n")
        assert main(["figure", "--figure", "prediction_trace", "--spec", str(path),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert out.read_text() == "old\n" if existing else not out.exists()

    def test_figure_requires_matching_input(self, tmp_path):
        assert main(["figure", "--figure", "pearson_vs_N",
                     "--out", str(tmp_path / "x.tsv")]) == 2


class TestRecordsFile:
    def test_header_echoes_spec(self, tmp_path):
        spec = small_spec(replications=1)
        rec = run_experiment(spec)
        out = tmp_path / "res.tsv"
        write_records(out, spec, [("order", [2])], [rec])
        text = out.read_text()
        assert "# spec: alpha = 0.7" in text
        assert "# axis: order = 2" in text
        assert rec.spec.spec_hash() in text

    def test_no_volatile_fields(self, tmp_path):
        # nothing time-dependent may reach the file, or rerun identity breaks
        spec = small_spec(replications=1)
        rec = run_experiment(spec)
        out = tmp_path / "res.tsv"
        write_records(out, spec, [], [rec])
        assert "duration" not in out.read_text()

    def test_read_records_inverts_write_records(self, tmp_path):
        spec = small_spec(replications=3, lambda_grid=(1e-8, 1e-4),
                          noise_sigma=0.01)
        axes = [("order", [2, 3])]
        records = run_sweep(spec, axes)
        out = tmp_path / "res.tsv"
        write_records(out, spec, axes, records)
        back = read_records(out)
        assert len(back) == len(records)
        for rec, got in zip(records, back):
            assert got.spec.to_dict() == rec.spec.to_dict()
            assert list(got.spec.to_dict()) == list(rec.spec.to_dict())
            assert got.spec.spec_hash() == rec.spec.spec_hash()
            for name in ("pearson_mean", "pearson_std", "nrmse_mean",
                         "nrmse_std"):
                assert getattr(got, name) == written(getattr(rec, name))
            for name in ("pearson_reps", "nrmse_reps", "lambda_reps"):
                assert getattr(got, name) == [written(v)
                                              for v in getattr(rec, name)]
            assert math.isnan(got.duration_s)
            assert got.trace_targets is None and got.readout_first is None
        # writing the records read back gives the same bytes
        again = tmp_path / "again.tsv"
        write_records(again, spec, axes, back)
        assert again.read_bytes() == out.read_bytes()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(specs=st.lists(drawn_specs(replications=st.integers(1, 4)), min_size=1, max_size=3),
           data=st.data())
    def test_read_records_inverts_write_records_drawn(self, tmp_path, specs, data):
        records = [ResultRecord(spec, *(data.draw(st.lists(_finite, min_size=n, max_size=n))
                                        for n in [spec.replications] * 3),
                                *data.draw(st.lists(_finite, min_size=4, max_size=4)),
                                duration_s=1.0)
                   for spec in specs]
        out = tmp_path / "res.tsv"
        write_records(out, specs[0], [], records)
        back = read_records(out)
        assert len(back) == len(records)
        for rec, got in zip(records, back):
            # every float of the spec to 12 digits, as the file holds it
            floats = {k: getattr(rec.spec, k) for k, kind in harness.SPEC_TYPES.items()
                      if kind in (float, tuple)}
            expected = replace(rec.spec, out=str(out), **{
                k: tuple(map(written, v)) if isinstance(v, tuple) else written(v)
                for k, v in floats.items()})
            assert got.spec == expected
            assert got.spec.spec_hash() == rec.spec.spec_hash()
            for name in ("pearson_reps", "nrmse_reps", "lambda_reps"):
                assert getattr(got, name) == list(map(written, getattr(rec, name)))

    def test_sweep_records_equal_their_read_back_twins(self, tmp_path):
        out = tmp_path / "res.tsv"
        records = run_sweep(small_spec(replications=2), [("order", [2, 3])], out)
        assert [rec.spec for rec in records] == [rec.spec for rec in read_records(out)]
        assert {rec.spec.out for rec in records} == {str(out)}

    def test_write_records_streams_any_iterable(self, tmp_path):
        spec = small_spec(replications=1)
        rec = run_experiment(spec)
        out = tmp_path / "res.tsv"
        assert write_records(out, spec, [], iter([rec])) == [rec]
        assert [r.spec.to_dict() for r in read_records(out)] == [rec.spec.to_dict()]

    @pytest.mark.parametrize("edit, message", [
        ("ragged", r":\d+: \d+ cells under \d+ columns"),
        ("unparsable", r":\d+: expected an integer, got 'twenty'"),
        ("header-less", "no table header found"),
    ])
    def test_malformed_results_file_exit_code(self, tmp_path, capsys, edit, message):
        spec = small_spec(replications=1)
        out = tmp_path / "res.tsv"
        write_records(out, spec, [], [run_experiment(spec)])
        *lines, header, row = out.read_text().splitlines()
        cells = row.split("\t")
        if edit == "ragged":
            cells.append("1.0")
        elif edit == "unparsable":
            cells[header.split("\t").index("num_nodes")] = "twenty"
        rows = [] if edit == "header-less" else [header, "\t".join(cells)]
        out.write_text("\n".join(lines + rows) + "\n")
        with pytest.raises(SpecError, match=message):
            read_records(out)
        assert main(["figure", "--figure", "pearson_vs_N", "--records", str(out),
                     "--out", str(tmp_path / "fig.tsv")]) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_read_records_rejects_other_schema(self, tmp_path):
        spec = small_spec(replications=1)
        out = tmp_path / "res.tsv"
        write_records(out, spec, [], [run_experiment(spec)])
        out.write_text(out.read_text().replace("# schema = 1\n",
                                               "# schema = 2\n"))
        with pytest.raises(SpecError, match="schema"):
            read_records(out)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        out = tmp_path / "res.tsv"
        records = run_sweep(small_spec(replications=1), [("order", [2, 3])], out)
        out.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
        assert [r.spec for r in read_records(out)] == [r.spec for r in records]
