import math

import numpy as np
import pytest

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
from pulserc.tasks import NARMA_DIVERGENCE_LIMIT, _PAIRWISE_MIN_TERMS, _pairwise_sum


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


class TestNarmaConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(order=0, length=100, seed=1),
        dict(order=5, length=5, seed=1),
        dict(order=2, length=100, seed=1, input_low=0.5, input_high=0.5),
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
            assert ds.meta["effective_seed"] == want[2]

    def test_pairwise_sum_bitwise_equal_to_numpy(self):
        # windows of 8 to 300 terms, over many orders of magnitude, so the
        # grouping of the additions shows in the last bits
        rng = np.random.default_rng(8)
        for n in range(_PAIRWISE_MIN_TERMS, 301):
            for _ in range(5):
                w = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 6, n)
                assert _pairwise_sum(w.tolist()) == w.sum(), n

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
        assert a.meta["standardize_shift"] == b.meta["standardize_shift"]
        assert a.meta["standardize_scale"] == b.meta["standardize_scale"]


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
