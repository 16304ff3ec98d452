import itertools
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import cho_factor, cho_solve

from pulserc import (
    ExperimentSpec,
    NarmaConfig,
    ResultRecord,
    SingularSystemError,
    SpecError,
    emit_figure_data,
    fit_ridge,
    gen_narma,
    generate_mask,
    nrmse,
    parse_spec_file,
    read_records,
    run,
    run_experiment,
    run_sweep,
    write_records,
    write_spec_file,
)
import pulserc.cli as cli
import pulserc.harness as harness
from pulserc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(task="narma", order=2, num_nodes=20, washout=20,
                train_len=200, test_len=80, replications=2, seed=7,
                mask_seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


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
        assert rec.spec_fields["lambda_grid"] == (1e-6, 1e-2)

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
            parse_spec_file(path)  # parses, then validates

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

    @pytest.mark.parametrize("overrides", [
        dict(ridge_lambda=float("nan")),
        dict(ridge_lambda=float("inf")),
        dict(lambda_grid=(1e-6, float("nan"))),
        dict(lambda_grid=(float("inf"),)),
    ])
    def test_non_finite_lambda_rejected(self, overrides):
        with pytest.raises(SpecError, match="finite"):
            small_spec(**overrides).validate()

    def test_two_held_out_rows_run(self):
        # 6 training rows: the grid fits on 4 and scores on 2
        rec = run_experiment(small_spec(train_len=6, lambda_grid=(1e-6, 1e-2),
                                        replications=1))
        assert rec.lambda_reps[0] in (1e-6, 1e-2)

    def test_block_size_changes_no_result(self, monkeypatch):
        spec = small_spec(replications=5, noise_sigma=0.01)
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
        with pytest.raises(SpecError, match="replication 0"):
            run_experiment(small_spec(task="csv", csv_input=str(u),
                                      csv_target=str(y)))


def same_records(a: ResultRecord, b: ResultRecord) -> bool:
    """Every deterministic field of two records is equal."""
    return (a.spec_hash == b.spec_hash and a.pearson_reps == b.pearson_reps
            and a.nrmse_reps == b.nrmse_reps and a.lambda_reps == b.lambda_reps
            and np.array_equal(a.trace_targets, b.trace_targets)
            and np.array_equal(a.trace_predictions, b.trace_predictions)
            and np.array_equal(a.readout_first, b.readout_first))


# one value per task-defining field, each different from small_spec's
_TASK_FIELD_CHANGES = dict(order=3, compat_narma_sum=True, standardize=True,
                           washout=30, train_len=210, test_len=90, seed=8,
                           replications=3)


class TestTaskMemo:
    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        harness._generated_tasks.cache_clear()
        yield
        harness._generated_tasks.cache_clear()

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_equal_tasks_drawn_once(self, monkeypatch):
        calls = self._count(monkeypatch, "gen_narma")
        records = run_sweep(small_spec(replications=2),
                            [("order", [2, 3]), ("num_nodes", [7, 12])])
        assert len(records) == 4
        # V changes inside each order, so each order's two series are drawn
        # for its first point and reused for its second
        assert len(calls) == 4
        # standardization runs per experiment, on the kept series
        calls.clear()
        for flag in (False, True):
            run_experiment(small_spec(replications=2, standardize=flag))
        assert len(calls) == 2

    @pytest.mark.parametrize("task", ["narma", "surrogate"])
    @pytest.mark.parametrize("field", ["task", *_TASK_FIELD_CHANGES])
    def test_key_is_complete(self, task, field):
        first = small_spec(task=task)
        other_task = "surrogate" if task == "narma" else "narma"
        second = replace(first, **{field: _TASK_FIELD_CHANGES.get(field, other_task)})
        # the two points one after the other, as a sweep runs them
        swept = [run_experiment(first), run_experiment(second)]
        fresh = []
        for spec in (first, second):
            harness._generated_tasks.cache_clear()
            fresh.append(run_experiment(spec))
        assert all(map(same_records, swept, fresh))

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

    def test_trace_targets_do_not_alias_the_memo(self):
        spec = small_spec()
        first = run_experiment(spec)
        want = first.trace_targets.copy()
        first.trace_targets += 1.0
        again = run_experiment(spec)
        assert np.array_equal(again.trace_targets, want)
        harness._generated_tasks.cache_clear()
        assert same_records(again, run_experiment(spec))


class TestSweep:
    def test_product_count(self, tmp_path):
        records = run_sweep(small_spec(replications=1),
                            [("order", [2, 3, 4, 5, 6]),
                             ("num_nodes", [10, 20])],
                            out_path=tmp_path / "r.tsv")
        assert len(records) == 10
        orders = [rec.spec_fields["order"]
                  for rec in read_records(tmp_path / "r.tsv")]
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
        assert rec.spec_fields["num_nodes"] == 20

    def test_axis_text_takes_the_field_type(self, tmp_path):
        records = run_sweep(small_spec(replications=1),
                            [("num_nodes", ["10.0", "12"]), ("alpha", ["0.5"])],
                            out_path=tmp_path / "r.tsv")
        assert [(r.spec_fields["num_nodes"], r.spec_fields["alpha"])
                for r in records] == [(10, 0.5), (12, 0.5)]
        assert "# axis: num_nodes = 10,12\n" in (tmp_path / "r.tsv").read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        axes = [("order", [2, 3])]
        run_sweep(small_spec(replications=1), axes, out_path=tmp_path / "a.tsv")
        run_sweep(small_spec(replications=1), axes, out_path=tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


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
    def training_rows(num_nodes, train_len=300):
        spec = small_spec(num_nodes=num_nodes, train_len=train_len)
        ds = gen_narma(NarmaConfig(2, spec.total_len, 5))
        states = run(ds.inputs, generate_mask(num_nodes, 9),
                     spec.reservoir_params(), washout=spec.washout)
        return (states[: spec.train_len],
                ds.targets[spec.washout: spec.washout + spec.train_len])

    @pytest.mark.parametrize("num_nodes", [7, 100])
    def test_bitwise_equal_to_per_lambda_fits(self, num_nodes):
        r, y = self.training_rows(num_nodes)
        n_fit = int(0.8 * len(y))
        fits = harness._grid_fits(r, y, self.GRID)
        want_errs = []
        for lam, (w, err) in zip(self.GRID, fits):
            want = fit_ridge_reference(r[:n_fit], y[:n_fit], lam)
            want_errs.append(nrmse(y[n_fit:], r[n_fit:] @ want))
            assert w.ridge_lambda == lam
            assert np.array_equal(w.weights, want)
        assert np.array_equal([err for _, err in fits], want_errs)
        chosen = harness._select_lambda(r, y, self.GRID)
        assert chosen == self.GRID[int(np.argmin(want_errs))]
        assert np.array_equal(fit_ridge(r, y, chosen).weights,
                              fit_ridge_reference(r, y, chosen))

    def test_zero_lambda_on_short_fit_slice_is_singular(self):
        # 100 training rows leave 80 to fit 101 weights
        r, y = self.training_rows(100, train_len=100)
        with pytest.raises(SingularSystemError):
            harness._select_lambda(r, y, (1e-6, 0.0))
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
            spec_fields={"order": 2, "num_nodes": 10}, spec_hash="x",
            pearson_reps=[1.0], nrmse_reps=[0.0], lambda_reps=[0.0],
            pearson_mean=1.0, pearson_std=0.0, nrmse_mean=0.0, nrmse_std=0.0,
            duration_s=0.0, trace_targets=y, trace_predictions=y.copy())
        out = tmp_path / "trace.tsv"
        emit_figure_data([rec], "prediction_trace", out)
        rows = [ln.split("\t") for ln in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 50
        assert all(r[1] == r[2] for r in rows)

    def test_missing_axis_reports_available(self, tmp_path):
        rec = ResultRecord(
            spec_fields={"alpha": 0.7}, spec_hash="x",
            pearson_reps=[1.0], nrmse_reps=[0.0], lambda_reps=[0.0],
            pearson_mean=1.0, pearson_std=0.0, nrmse_mean=0.0, nrmse_std=0.0,
            duration_s=0.0)
        with pytest.raises(SpecError, match="alpha"):
            emit_figure_data([rec], "pearson_vs_N", tmp_path / "fig.tsv")

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(SpecError, match="unknown figure"):
            emit_figure_data([], "histogram", tmp_path / "fig.tsv")


class TestCli:
    def _spec_file(self, tmp_path, **overrides):
        spec = small_spec(replications=1, out=str(tmp_path / "res.tsv"),
                          **overrides)
        path = tmp_path / "exp.spec"
        write_spec_file(spec, path)
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
        assert rec.spec_fields["seed"] == 99
        assert rec.spec_fields["replications"] == 2

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
    ])
    def test_spec_error_before_compute(self, tmp_path, monkeypatch, capsys,
                                       overrides, args, word):
        self._forbid_compute(monkeypatch)
        path = self._spec_file(tmp_path, **overrides)
        assert main([args[0], "--spec", str(path), *args[1:]]) == 2
        assert word in capsys.readouterr().err

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

    def test_bad_axis_exit_code(self, tmp_path):
        path = self._spec_file(tmp_path)
        assert main(["sweep", "--spec", str(path), "--axis", "flux=1,2"]) == 2

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
        ["--length", "2", "--order", "2"], ["--seed", "-1"]])
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
        assert rec.spec_fields["compat_narma_sum"] is True

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
        calls = []
        real = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment",
                            lambda spec: calls.append(spec) or real(spec))
        path = self._spec_file(tmp_path)
        assert main(["figure", "--figure", "prediction_trace",
                     "--spec", str(path),
                     "--out", str(tmp_path / "no_dir" / "t.tsv")]) == 3
        assert calls == []

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
        assert rec.spec_hash in text

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

        def written(x):  # a float as the file holds it
            return float(format(x, ".12g"))

        for rec, got in zip(records, back):
            assert got.spec_fields == rec.spec_fields
            assert list(got.spec_fields) == list(rec.spec_fields)
            assert got.spec_hash == rec.spec_hash
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

    def test_write_records_streams_any_iterable(self, tmp_path):
        spec = small_spec(replications=1)
        rec = run_experiment(spec)
        out = tmp_path / "res.tsv"
        assert write_records(out, spec, [], iter([rec])) == [rec]
        assert [r.spec_hash for r in read_records(out)] == [rec.spec_hash]

    def test_read_records_rejects_other_schema(self, tmp_path):
        spec = small_spec(replications=1)
        out = tmp_path / "res.tsv"
        write_records(out, spec, [], [run_experiment(spec)])
        out.write_text(out.read_text().replace("# schema = 1\n",
                                               "# schema = 2\n"))
        with pytest.raises(SpecError, match="schema"):
            read_records(out)
