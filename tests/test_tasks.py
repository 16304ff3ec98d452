import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulserc import (
    CsvParseError,
    DegenerateVarianceError,
    DivergenceError,
    NarmaConfig,
    ParameterError,
    TaskDataset,
    gen_narma,
    gen_surrogate_laser,
    load_csv_task,
    pearson,
    standardize,
)
from pulserc.tasks import (
    NARMA_DIVERGENCE_LIMIT,
    gen_narma_lockstep,
    _PUMP_AR_POLE,
    _PUMP_SCALE,
    _narma_lockstep,
    _read_table,
)


def narma_reference(u, order, compat=False):
    """Straight-line transcription of the benchmark recursion,
    independent of the library's generator loop."""
    n_terms = order if compat else order + 1
    y = [0.0] * len(u)
    for t in range(order + 1, len(u)):
        s = sum(y[t - 1 - i] for i in range(n_terms))
        y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * s \
            + 1.5 * u[t - 1] * u[t - order] + 0.1
    return y


def narma_array_loop(cfg, compat_sum=False):
    """The generator loop as it was before the plain-float fast path,
    kept verbatim (NumPy array slices and ``sum``) as the bitwise
    reference."""
    n = cfg.order
    n_terms = n if compat_sum else n + 1
    for attempt in range(100):
        seed = cfg.seed + attempt
        rng = np.random.default_rng(seed)
        u = rng.uniform(cfg.input_low, cfg.input_high, cfg.length)
        y = np.zeros(cfg.length)
        diverged = False
        for t in range(n + 1, cfg.length):
            s = y[t - n_terms:t].sum()
            y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * s \
                + 1.5 * u[t - 1] * u[t - n] + 0.1
            if abs(y[t]) > NARMA_DIVERGENCE_LIMIT:
                diverged = True
                break
        if not diverged:
            return u, y, seed
    return None


def diverges_on_plain_floats(u, order):
    """Whether the NARMA-``order`` recursion driven by ``u`` passes the
    divergence limit on plain floats, its window of order + 1 terms summed
    left to right, as NumPy sums fewer than 8 terms."""
    u, y = u.tolist(), [0.0] * len(u)
    for t in range(order + 1, len(u)):
        s = y[t - order - 1]
        for x in y[t - order:t]:
            s += x
        y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * s \
            + 1.5 * u[t - 1] * u[t - order] + 0.1
        if abs(y[t]) > NARMA_DIVERGENCE_LIMIT:
            return True
    return False


class TestNarmaConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(order=0, length=100, seed=1),
        dict(order=5, length=5, seed=1),
        dict(order=2, length=100, seed=1, input_low=0.5, input_high=0.5),
        dict(order=2, length=100, seed=1, input_high=math.inf),
        dict(order=2, length=100, seed=1, input_low=-math.inf, input_high=0.0),
        dict(order=2, length=100, seed=1, input_low=-1e308, input_high=1e308),
        dict(order=2, length=100, seed=1, input_low=math.nan),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            NarmaConfig(**kwargs)


class TestGenNarma:
    def test_deterministic(self):
        cfg = NarmaConfig(order=3, length=400, seed=17)
        a = gen_narma(cfg)
        b = gen_narma(cfg)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_matches_reference_recursion(self):
        cfg = NarmaConfig(order=4, length=300, seed=5)
        ds = gen_narma(cfg)
        want = narma_reference(list(ds.inputs), 4)
        assert np.max(np.abs(ds.targets - np.array(want))) <= 1e-14

    def test_compat_sum_matches_reference(self):
        cfg = NarmaConfig(order=4, length=300, seed=5)
        ds = gen_narma(cfg, compat_sum=True)
        want = narma_reference(list(ds.inputs), 4, compat=True)
        assert np.max(np.abs(ds.targets - np.array(want))) <= 1e-14
        assert not np.array_equal(ds.targets, gen_narma(cfg).targets)

    # 1-40 spans NumPy's left-to-right sums (< 8 terms) and its unrolled
    # pairwise block; 150 passes 128 terms, where NumPy splits the block.
    # Above order 12 smaller inputs keep the recursion bounded up to order
    # 22; from 23 on it diverges for every seed and only the redraws and
    # the DivergenceError are compared.
    @pytest.mark.parametrize("order", [*range(1, 41), 150])
    @pytest.mark.parametrize("compat", [False, True])
    def test_bitwise_equal_to_array_loop(self, order, compat):
        high = 0.4 if order <= 12 else 0.1
        for seed in (3, 40):
            cfg = NarmaConfig(order, 500, seed, input_high=high)
            want = narma_array_loop(cfg, compat)
            if want is None:
                with pytest.raises(DivergenceError):
                    gen_narma(cfg, compat_sum=compat)
                continue
            ds = gen_narma(cfg, compat_sum=compat)
            assert np.array_equal(ds.inputs, want[0])
            assert np.array_equal(ds.targets, want[1])
            assert cfg.seed + ds.redraws == want[2]

    def test_row_reduce_bitwise_equal_to_row_sums(self):
        # the lockstep sums its longer windows as rows of a C-contiguous
        # block; rows of 1 to 300 terms, over many orders of magnitude, so
        # the grouping of the additions shows in the last bits
        rng = np.random.default_rng(8)
        for n in range(1, 301):
            w = rng.uniform(0.0, 1.0, (5, n)) * 10.0 ** rng.integers(-6, 6, (5, n))
            got = np.add.reduce(w, 1, None, np.empty(5))
            assert got.tolist() == [row.sum() for row in w], n

    def test_zero_input_fixed_point(self):
        # force u == 0 via a degenerate-interval workaround: the interval
        # must be non-empty, so squeeze it around zero
        cfg = NarmaConfig(order=2, length=10000, seed=1,
                          input_low=0.0, input_high=1e-300)
        ds = gen_narma(cfg)
        root = (0.7 - math.sqrt(0.7 ** 2 - 4 * 0.15 * 0.1)) / (2 * 0.15)
        assert ds.targets[-1] == pytest.approx(root, abs=1e-6)

    def test_constant_input_hand_iteration(self):
        # N=1, u = 0.5 everywhere: first five computed values, iterated by
        # hand (and frozen) from y[t] = 0.3 y[t-1] + 0.05 y[t-1] (y[t-1]+y[t-2])
        #                              + 1.5*0.25 + 0.1
        cfg = NarmaConfig(order=1, length=8, seed=0,
                          input_low=0.5 - 1e-12, input_high=0.5)
        ds = gen_narma(cfg)
        want = [0.0, 0.0, 0.475, 0.62878125, 0.6983362227050781,
                0.7308395769602621, 0.7464767849295417, 0.7540821538862279]
        assert ds.targets == pytest.approx(want, abs=1e-9)

    def test_boundedness_of_accepted_sequences(self):
        for seed in range(5):
            ds = gen_narma(NarmaConfig(order=6, length=3000, seed=seed))
            assert np.max(np.abs(ds.targets)) <= NARMA_DIVERGENCE_LIMIT

    def test_divergence_error(self):
        # inputs this large blow the recursion up for every seed
        cfg = NarmaConfig(order=2, length=200, seed=0,
                          input_low=5.0, input_high=6.0)
        with pytest.raises(DivergenceError, match="NARMA-2"):
            gen_narma(cfg)

    def test_split_defaults(self):
        # a task is a plain series; the experiment decides its split
        ds = gen_narma(NarmaConfig(order=2, length=100, seed=3))
        assert ds.length == 100 and ds.name == "narma2"
        assert not hasattr(ds, "train_len")


class TestNarmaLockstep:
    @staticmethod
    def assert_each_equals_gen_narma(cfgs, compat):
        """Every lockstep row equals its own scalar draw, redraw count
        included; a row is None exactly where the scalar draw raises.
        Returns the rows' redraw counts, None for a row that has none."""
        redraws = []
        for cfg, got in zip(cfgs, gen_narma_lockstep(cfgs, compat)):
            if got is None:
                with pytest.raises(DivergenceError):
                    gen_narma(cfg, compat_sum=compat)
                redraws.append(None)
                continue
            want = gen_narma(cfg, compat_sum=compat)
            assert np.array_equal(got.inputs, want.inputs)
            assert np.array_equal(got.targets, want.targets)
            assert got.redraws == want.redraws and got.name == want.name
            redraws.append(got.redraws)
        return redraws

    @staticmethod
    def assert_each_equals_array_loop(cfgs, compat):
        """Every lockstep row equals ``narma_array_loop``'s draw, effective
        seed included; a row is None exactly where that finds none.
        Returns the rows' redraw counts, None for a row that has none."""
        redraws = []
        for cfg, got in zip(cfgs, gen_narma_lockstep(cfgs, compat)):
            want = narma_array_loop(cfg, compat)
            if want is None:
                assert got is None
                redraws.append(None)
                continue
            assert np.array_equal(got.inputs, want[0])
            assert np.array_equal(got.targets, want[1])
            assert cfg.seed + got.redraws == want[2]
            redraws.append(want[2] - cfg.seed)
        return redraws

    @pytest.mark.parametrize("compat", [False, True])
    def test_pairwise_orders_bitwise_equal_to_array_loop(self, compat):
        # windows of 8 to 21 terms, each order at two input ranges scaled
        # to its window: at the wider one every order redraws, and some
        # diverge for every seed
        cfgs = [NarmaConfig(order, 300, 1, input_high=c / (order + (not compat)))
                for order in range(7, 21) for c in (5.5, 6.5)]
        redraws = self.assert_each_equals_array_loop(cfgs, compat)
        assert None in redraws
        assert max(r for r in redraws if r is not None) > 0

    @pytest.mark.parametrize("compat", [False, True])
    def test_padded_and_pairwise_windows_in_one_call(self, compat):
        # a padded block and pairwise groups of 8 to 11 and of 150 to 151
        # terms, the last above NumPy's 128-term block; 200 steps keep
        # order 150 bounded at the narrower input range
        cfgs = [NarmaConfig(order, 200, seed, input_high=high)
                for seed in (1, 2) for high in (0.1, 0.3, 0.6) for order in (2, 7, 10, 150)]
        redraws = self.assert_each_equals_array_loop(cfgs, compat)
        assert None in redraws
        assert max(r for r in redraws if r is not None) > 0

    @pytest.mark.parametrize("compat", [False, True])
    def test_mixed_orders_bitwise_equal_to_gen_narma(self, compat):
        # every order whose window has fewer than 8 terms, in one batch
        orders = range(1, 8 if compat else 7)
        cfgs = [NarmaConfig(order, 800, seed)
                for seed in (1, 2, 42) for order in orders]
        assert set(self.assert_each_equals_gen_narma(cfgs, compat)) == {0}

    @pytest.mark.parametrize("compat", [False, True])
    def test_redraws_bitwise_equal_to_gen_narma(self, compat):
        # a wider input range makes rows diverge: some are redrawn, and
        # some diverge for every seed. The first computed step is 2 (order
        # 1) and divergence is checked every 64 steps, so the last check
        # window has 1, 63, 64 and 14 steps
        orders = range(1, 8 if compat else 7)
        for length in (2 + 64 * 5 + 1, 2 + 64 * 5 + 63, 2 + 64 * 6, 400):
            cfgs = [NarmaConfig(order, length, seed, input_high=0.9)
                    for seed in (5, 6) for order in orders]
            redraws = self.assert_each_equals_gen_narma(cfgs, compat)
            assert None in redraws
            assert max(r for r in redraws if r is not None) > 0

    def test_input_products_past_the_float_range_diverge(self):
        # 1.5 u u overflows: gen_narma's plain floats diverge without a
        # warning, and so must the lockstep rows; with mixed orders the
        # shorter window's zero padding meets inf and makes NaN
        for orders in ((2,), (2, 5)):
            cfgs = [NarmaConfig(order, 200, seed, input_high=1e200)
                    for seed in (1, 2) for order in orders]
            assert self.assert_each_equals_gen_narma(cfgs, False) == [None] * len(cfgs)

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 64 * 3 + 1, 64 * 3 + 63])
    def test_divergence_at_any_step_of_the_last_window_is_seen(self, steps):
        # u[t-1] = u[t-2] = 3 makes the order-2 output pass the limit at
        # step t; order 2 computes from step 3 on, so the last check window
        # has 1, 63, 64, 1, 1 and 63 steps
        t = 3 + steps - 1
        u = np.full((4, t + 1), 0.1)
        u[0, t - 2:t] = 3.0   # passes the limit at the very last step
        u[1, t - 3:t - 1] = 3.0   # at the step before, if there is one
        # inf * 0 makes the last output NaN without passing the limit, so
        # the plain-float recursion does not call it diverged either
        u[3, t - 2:t] = 0.0, 1.5e308
        _, ok = _narma_lockstep(u, np.array([2, 2, 2, 2]), False)
        want = [not diverges_on_plain_floats(row, 2) for row in u]
        assert ok.tolist() == want
        assert want[0] is False and want[2] is True and want[3] is True

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(40, 300), compat=st.booleans(),
           draws=st.lists(st.tuples(st.integers(1, 30),
                                    st.sampled_from([0.05, 0.1, 0.3, 0.5]),
                                    st.integers(0, 2**32)), min_size=1, max_size=8))
    def test_each_row_equals_its_config_drawn_alone(self, length, compat, draws):
        # however the orders group into padded and row-reduced windows
        cfgs = [NarmaConfig(order, length, seed, input_high=high)
                for order, high, seed in draws]
        for cfg, got in zip(cfgs, gen_narma_lockstep(cfgs, compat)):
            [want] = gen_narma_lockstep([cfg], compat)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.inputs, want.inputs)
                assert np.array_equal(got.targets, want.targets)
                assert got.redraws == want.redraws

    def test_orders_at_one_seed_share_one_read_only_input(self):
        cfgs = [NarmaConfig(order, 300, 11) for order in (2, 3, 6)]
        rows = gen_narma_lockstep(cfgs)
        assert [ds.redraws for ds in rows] == [0, 0, 0]
        assert rows[0].inputs is rows[1].inputs is rows[2].inputs
        assert not np.shares_memory(rows[0].targets, rows[1].targets)
        with pytest.raises(ValueError, match="read-only"):
            rows[2].inputs[0] = 0.0

    def test_one_row(self):
        cfg = NarmaConfig(3, 300, 11)
        [got] = gen_narma_lockstep([cfg])
        assert np.array_equal(got.targets, gen_narma(cfg).targets)

    def test_long_window_or_mixed_lengths_rejected(self):
        gen_narma_lockstep([NarmaConfig(7, 100, 1)], compat_sum=True)
        with pytest.raises(ParameterError, match="one length"):
            gen_narma_lockstep([NarmaConfig(2, 100, 1), NarmaConfig(2, 101, 1)])


class TestLoadCsv:
    def _write(self, path, values, header=None):
        lines = ["# comment line"]
        if header:
            lines.append(header)
        lines += [str(v) for v in values]
        path.write_text("\n".join(lines) + "\n")

    def test_two_files_split(self, tmp_path):
        self._write(tmp_path / "u.csv", range(10))
        self._write(tmp_path / "y.csv", range(10, 20))
        ds = load_csv_task(tmp_path / "u.csv", tmp_path / "y.csv")
        assert np.array_equal(ds.inputs, np.arange(10.0))
        assert np.array_equal(ds.targets, np.arange(10.0, 20.0))

    def test_length_mismatch_names_both(self, tmp_path):
        self._write(tmp_path / "u.csv", range(11))
        self._write(tmp_path / "y.csv", range(10))
        with pytest.raises(CsvParseError, match="11.*10"):
            load_csv_task(tmp_path / "u.csv", tmp_path / "y.csv")

    def test_non_numeric_reports_line(self, tmp_path):
        (tmp_path / "u.csv").write_text("1.0\n2.0\noops\n4.0\n")
        self._write(tmp_path / "y.csv", range(4))
        with pytest.raises(CsvParseError, match=":3"):
            load_csv_task(tmp_path / "u.csv", tmp_path / "y.csv")

    def test_named_column_target(self, tmp_path):
        lines = ["u,y"] + [f"{i},{i * 2}" for i in range(12)]
        (tmp_path / "both.csv").write_text("\n".join(lines) + "\n")
        ds = load_csv_task(tmp_path / "both.csv", "column:y")
        assert np.array_equal(ds.targets, 2.0 * ds.inputs)

    def test_missing_column_lists_available(self, tmp_path):
        lines = ["u,y"] + [f"{i},{i}" for i in range(12)]
        (tmp_path / "both.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError, match="u, y"):
            load_csv_task(tmp_path / "both.csv", "column:z")

    @pytest.mark.parametrize("text, target, message", [
        ("1\n2\n", "column:y", "no header row, cannot select column 'y'"),
        ("y\n1\n2\n", "column:y", "needs an input column besides 'y'"),
        ("u,y\n1,2\n3,inf\n", "column:y", ":3: non-finite value 'inf'"),
        ("u,y\n1,2\n3\n", "column:y", ":3: expected 2 columns, got 1"),
        ("# only a comment\nu,y\n", "column:y", "no data rows"),
        ("# only a comment\n", "y.csv", "no data rows"),
    ], ids=["no-header", "no-input-column", "non-finite", "ragged", "header-only", "empty"])
    def test_malformed_file_is_named(self, tmp_path, text, target, message):
        (tmp_path / "u.csv").write_text(text)
        self._write(tmp_path / "y.csv", range(12))
        if not target.startswith("column:"):
            target = tmp_path / target
        with pytest.raises(CsvParseError, match=re.escape(message)):
            load_csv_task(tmp_path / "u.csv", target)

    def test_header_is_the_first_line_that_does_not_parse(self, tmp_path):
        # one cell that is no number makes the line a header, whatever the others
        rows = "".join(f"{i},{2 * i}\n" for i in range(12))
        (tmp_path / "u.csv").write_text("# comment\n\ninf,y\n" + rows)
        ds = load_csv_task(tmp_path / "u.csv", "column:y")
        assert np.array_equal(ds.inputs, np.arange(12.0))
        assert np.array_equal(ds.targets, 2.0 * np.arange(12.0))
        # each column its own contiguous array, not a view of a row-major table
        names, cols = _read_table(tmp_path / "u.csv")
        assert names == ["inf", "y"]
        assert all(col.base is None and col.flags.c_contiguous for col in cols)

    @pytest.mark.parametrize("text, message", [
        ("1,2\nu,y\n", ":2: non-numeric value 'u'"),  # no header after a data row
        ("u,y\n1,2\nv,w\n", ":3: non-numeric value 'v'"),  # nor a second one
        ("u,y\n1,2\n3,inf,w\n", ":3: non-numeric value 'w'"),
        (",,\n1,2\n", ":1: separators but no values"),
        ("u,y\n1,2\n , ,\n3,4\n", ":3: separators but no values"),
    ], ids=["header-after-row", "second-header", "non-numeric-after-inf", "first-separators",
            "later-separators"])
    def test_line_that_is_no_row_is_named(self, tmp_path, text, message):
        path = tmp_path / "u.csv"
        path.write_text(text + "".join(f"{i},{i}\n" for i in range(12)))
        with pytest.raises(CsvParseError, match=f"^{re.escape(f'{path}{message}')}$"):
            load_csv_task(path, "column:y")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as Excel's "CSV UTF-8" writes a file: a headerless first value
        # behind the mark is a sample, not a column name
        for name, values in (("u", range(20)), ("y", range(20, 40))):
            text = "".join(f"{v / 40!r}\n" for v in values)
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
            (tmp_path / f"{name}_bom.csv").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "u_bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        plain = load_csv_task(tmp_path / "u.csv", tmp_path / "y.csv")
        bom = load_csv_task(tmp_path / "u_bom.csv", tmp_path / "y_bom.csv")
        assert bom.length == 20
        assert np.array_equal(bom.inputs, plain.inputs)
        assert np.array_equal(bom.targets, plain.targets)

    @pytest.mark.parametrize("name, data", [
        ("missing.csv", None), ("u\0.csv", None), ("u.csv", b"u,y\n1,2\n3,\xff\n")],
        ids=["missing", "nul-in-path", "not-utf8"])
    def test_unreadable_file_is_named(self, tmp_path, name, data):
        if data is not None:
            (tmp_path / name).write_bytes(data)
        with pytest.raises(CsvParseError, match=re.escape(f"cannot read {tmp_path / name}")):
            load_csv_task(tmp_path / name, "column:y")

    def test_too_short(self, tmp_path):
        self._write(tmp_path / "u.csv", range(5))
        self._write(tmp_path / "y.csv", range(5))
        with pytest.raises(CsvParseError, match="at least 10"):
            load_csv_task(tmp_path / "u.csv", tmp_path / "y.csv")


class TestSurrogate:
    def test_deterministic(self):
        a = gen_surrogate_laser(500, 4)
        b = gen_surrogate_laser(500, 4)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_seeds_differ(self):
        a = gen_surrogate_laser(500, 0)
        b = gen_surrogate_laser(500, 1)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_input_target_correlation(self):
        ds = gen_surrogate_laser(10000, 0)
        r = pearson(ds.inputs, ds.targets)
        assert r > 0.3
        # pinned from the fixed transform at this seed
        assert r == pytest.approx(0.9632485890203535, abs=1e-9)

    def test_minimum_length(self):
        with pytest.raises(ParameterError):
            gen_surrogate_laser(99, 0)

    @pytest.mark.parametrize("length", [100, 2900])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 299])
    def test_inputs_equal_the_ar1_filter(self, length, seed):
        from scipy.signal import lfilter
        pole = _PUMP_AR_POLE
        white = np.random.default_rng(seed).standard_normal(length)
        want = _PUMP_SCALE * lfilter([math.sqrt(1.0 - pole ** 2)], [1.0, -pole],
                                     white)
        assert np.array_equal(gen_surrogate_laser(length, seed).inputs, want)


    @pytest.mark.parametrize("length, seed, message", [
        (200, -1, "seed must be non-negative, got -1"),
    ])
    def test_error_branch_raises_its_message(self, length, seed, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            gen_surrogate_laser(length, seed)


class TestStandardize:
    def _dataset(self, inputs):
        inputs = np.asarray(inputs, float)
        return TaskDataset(inputs, np.sin(inputs), name="toy")

    def test_training_region_stats(self):
        rng = np.random.default_rng(10)
        ds = standardize(self._dataset(3.0 + 2.0 * rng.standard_normal(100)), 60)
        train = ds.inputs[:60]
        assert abs(train.mean()) <= 1e-12
        assert train.std() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        once = standardize(self._dataset(rng.standard_normal(100)), 60)
        twice = standardize(once, 60)
        assert np.max(np.abs(once.inputs - twice.inputs)) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal(100)
        a = standardize(self._dataset(base), 60)
        b = standardize(self._dataset(base + 17.0), 60)
        assert np.max(np.abs(a.inputs - b.inputs)) <= 1e-9

    def test_targets_untouched(self):
        rng = np.random.default_rng(13)
        ds = self._dataset(rng.standard_normal(100))
        assert np.array_equal(standardize(ds, 60).targets, ds.targets)

    def test_constant_input_rejected(self):
        ds = TaskDataset(np.full(100, 2.0), np.arange(100.0), name="flat")
        with pytest.raises(DegenerateVarianceError):
            standardize(ds, 60)

    @pytest.mark.parametrize("train_len", [0, 101])
    def test_train_len_outside_series_rejected(self, train_len):
        ds = self._dataset(np.arange(100.0))
        with pytest.raises(ParameterError, match="train_len"):
            standardize(ds, train_len)

    def test_whole_series_as_training_region(self):
        ds = standardize(self._dataset(np.arange(100.0)), 100)
        assert abs(ds.inputs.mean()) <= 1e-12

    def test_test_region_cannot_leak(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal(100)
        poisoned = base.copy()
        poisoned[60:] = 1e6  # sentinel values in the test region
        a = standardize(self._dataset(base), 60)
        b = standardize(self._dataset(poisoned), 60)
        assert np.array_equal(a.inputs[:60], b.inputs[:60])
        # both are shifted and scaled by the clean training region's statistics
        assert np.array_equal(b.inputs, (poisoned - base[:60].mean()) / base[:60].std())
        assert np.array_equal(a.inputs, (base - base[:60].mean()) / base[:60].std())


class TestTaskDataset:
    def test_split_invariants(self):
        with pytest.raises(ParameterError, match="equal length"):
            TaskDataset(np.zeros(10), np.zeros(9), name="bad")
        with pytest.raises(ParameterError, match="1-d"):
            TaskDataset(np.zeros((2, 5)), np.zeros((2, 5)), name="bad")

    def test_non_finite_rejected(self):
        bad = np.arange(10.0)
        bad[3] = np.inf
        with pytest.raises(ParameterError):
            TaskDataset(bad, np.arange(10.0), name="bad")

    def test_compares_and_hashes_by_identity(self):
        # a dataset is one drawn or read series, so equal values are not
        # the same dataset; NumPy arrays give no truth value to compare by
        ds = TaskDataset(np.arange(10.0), np.arange(10.0), name="a")
        twin = TaskDataset(np.arange(10.0), np.arange(10.0), name="a")
        assert ds == ds and ds != twin
        assert hash(ds) == hash(ds) and len({ds, twin, ds}) == 2
