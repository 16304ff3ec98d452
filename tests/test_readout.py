import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cho_factor, cho_solve

from pulserc import (
    DegenerateVarianceError,
    DimensionError,
    ParameterError,
    ReadoutWeights,
    SingularSystemError,
    evaluate,
    fit_ridge,
    nrmse,
    pearson,
    predict,
)
import pulserc.readout as readout
from pulserc.readout import normal_equations


def normal_equations_oracle(states, targets, lam):
    """Brute-force solve via explicit matrix inversion; a second,
    independent route to the same minimizer."""
    r = np.asarray(states, float)
    g = r.T @ r + lam * np.eye(r.shape[1])
    return np.linalg.inv(g) @ (r.T @ np.asarray(targets, float))


class TestFitRidge:
    def test_square_exact_interpolation(self):
        rng = np.random.default_rng(0)
        r = np.eye(6) + 0.01 * rng.standard_normal((6, 6))
        y = rng.standard_normal(6)
        w = fit_ridge(r, y, 0.0)
        assert np.max(np.abs(r @ w.weights - y)) <= 1e-10

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(-1, 1, (50, 8))
        y = rng.uniform(-1, 1, 50)
        w = fit_ridge(r, y, 1e12)
        assert np.linalg.norm(w.weights) < 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((200, 36))
        y = rng.standard_normal(200)
        w = fit_ridge(r, y, 1e-6)
        want = normal_equations_oracle(r, y, 1e-6)
        assert np.max(np.abs(w.weights - want)) / np.max(np.abs(want)) <= 1e-8

    def test_first_order_optimality(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((80, 12))
        y = rng.standard_normal(80)
        for lam in (0.0, 1e-6, 1e-2, 1.0):
            w = fit_ridge(r, y, lam)
            grad = 2.0 * r.T @ (r @ w.weights - y) + 2.0 * lam * w.weights
            assert np.max(np.abs(grad)) <= 1e-8

    def test_training_error_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        r = rng.standard_normal((60, 10))
        y = rng.standard_normal(60)
        errs = []
        for lam in (1e-8, 1e-4, 1e-2, 1.0, 100.0):
            w = fit_ridge(r, y, lam)
            errs.append(float(np.sum((r @ w.weights - y) ** 2)))
        assert all(b >= a - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_singular_at_zero_lambda(self):
        r = np.zeros((10, 3))
        r[:, 0] = 1.0
        r[:, 1] = 1.0  # duplicated column: rank deficient
        y = np.arange(10.0)
        with pytest.raises(SingularSystemError):
            fit_ridge(r, y, 0.0)

    def test_underdetermined_needs_lambda(self):
        rng = np.random.default_rng(5)
        with pytest.raises(SingularSystemError):
            fit_ridge(rng.standard_normal((4, 9)), rng.standard_normal(4), 0.0)
        fit_ridge(rng.standard_normal((4, 9)), rng.standard_normal(4), 1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fit_ridge(np.zeros((5, 2)), np.zeros(6), 1e-6)

    def test_negative_lambda(self):
        with pytest.raises(ParameterError):
            fit_ridge(np.eye(3), np.zeros(3), -1.0)


class TestNormalEquations:
    def test_solves_leave_the_system_intact(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        system = normal_equations(r, y)
        gram, rhs = system.gram.copy(), system.rhs.copy()
        for lam in (1.0, 0.0, 1e-6, 1.0):
            w = system.solve(lam)
            assert np.array_equal(w.weights, fit_ridge(r, y, lam).weights)
            assert np.array_equal(system.gram, gram)
            assert np.array_equal(system.rhs, rhs)

    def test_every_check_applies_per_solve(self):
        rng = np.random.default_rng(8)
        system = normal_equations(rng.standard_normal((4, 9)),
                                  rng.standard_normal(4))
        system.solve(1e-6)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                system.solve(bad)
        with pytest.raises(SingularSystemError):
            system.solve(0.0)
        r = np.ones((10, 2))  # duplicated column: rank deficient
        with pytest.raises(SingularSystemError):
            normal_equations(r, np.arange(10.0)).solve(0.0)
        with pytest.raises(DimensionError):
            normal_equations(np.zeros((5, 2)), np.zeros(6))

    @pytest.mark.parametrize("where, value", [
        ("states", math.nan), ("states", math.inf), ("states", -math.inf),
        ("targets", math.nan), ("targets", math.inf),
    ])
    def test_non_finite_input_is_parameter_error(self, where, value):
        rng = np.random.default_rng(9)
        r = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        if where == "states":
            r[3, 1] = value
        else:
            y[3] = value
        for fit in (lambda: fit_ridge(r, y, 1e-6),
                    lambda: normal_equations(r, y),
                    lambda: normal_equations(r, np.stack([y, y]))):
            with pytest.raises(ParameterError, match="finite"):
                fit()

    def test_stacked_targets_solve_as_their_own_fits(self):
        rng = np.random.default_rng(10)
        r = rng.standard_normal((60, 9))
        ys = rng.standard_normal((3, 60))
        system = normal_equations(r, ys)
        assert system.rhs.shape == (3, 9)
        for lam in (0.0, 1e-6, 1.0):
            for k, y in enumerate(ys):
                w = system.solve(lam, k)
                assert w.ridge_lambda == lam
                assert np.array_equal(w.weights, fit_ridge(r, y, lam).weights)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_gram_is_exactly_symmetric_and_solver_factors_it(self, layout):
        # the solver factors the Gram's transpose, Fortran-ordered already,
        # plus 0.0; that gives the Gram's bits only if R.T @ R is symmetric
        rng = np.random.default_rng(11)
        base = rng.standard_normal((300, 82))
        r = {"C": base[:, :41].copy(), "F": np.asfortranarray(base[:, :41]),
             "strided": base[::2, ::2]}[layout]
        system = normal_equations(r, rng.standard_normal(r.shape[0]))
        assert np.array_equal(system.gram, system.gram.T)
        for lam in (0.0, 1e-6, 1.0):
            want = cho_solve(cho_factor(system.gram + lam * np.eye(41)), system.rhs[0])
            assert np.array_equal(system.solve(lam).weights, want)

    def test_potrf_factors_in_its_buffer_and_skips_the_other_triangle(self):
        # the solver forms each factor in the Gram's storage, whose strict
        # upper triangle (the lower one of the Fortran view) keeps the Gram;
        # a SciPy that copied or cleaned would fail here, not lose it silently
        rng = np.random.default_rng(12)
        r = rng.standard_normal((60, 9))
        a = np.asfortranarray(r.T @ r)
        below = np.tril_indices(9, -1)
        a[below] = np.nan
        factor, info = readout.dpotrf(a, lower=0, clean=0, overwrite_a=1)
        assert info == 0 and np.shares_memory(factor, a)
        assert np.isnan(factor[below]).all()
        assert np.array_equal(np.triu(factor), np.triu(cho_factor(r.T @ r)[0]))

    def test_solver_factors_in_the_gram_storage(self, monkeypatch):
        calls = []
        real = readout.dpotrf
        monkeypatch.setattr(readout, "dpotrf", lambda a, **k: calls.append(
            (a, k)) or real(a, **k))
        rng = np.random.default_rng(15)
        system = normal_equations(rng.standard_normal((50, 7)), rng.standard_normal(50))
        for lam in (0.0, 1e-6):
            system.solve(lam)
        assert len(calls) == 2 and calls[0][0].flags.f_contiguous
        assert np.shares_memory(calls[0][0], calls[1][0])
        assert all(k == dict(lower=0, clean=0, overwrite_a=1) for _, k in calls)

    @pytest.mark.parametrize("case", ["states", "negative_zero_column", "negative_zero_gram"])
    def test_grid_in_any_order_is_bitwise_equal_to_cho_solve(self, monkeypatch, case):
        # repeats and a return to an earlier strength, each factor formed
        # over the last one; gram + lambda * eye turns every -0.0 off the
        # diagonal into +0.0, which only the factor's bits show
        factors = []
        real = readout.dpotrf
        monkeypatch.setattr(readout, "dpotrf", lambda a, **k: factors.append(
            real(a, **k)) or factors[-1])
        rng = np.random.default_rng(13)
        r = rng.standard_normal((120, 33))
        grid = (1.0, 0.0, 1e-6, 1.0, 1e-10)
        if case == "negative_zero_column":
            r[:, 5] = -0.0
            grid = (1.0, 1e-6, 1.0, 1e-10)
        system = normal_equations(r, rng.standard_normal((2, 120)))
        if case == "negative_zero_gram":
            gram = system.gram
            gram[5, :5] = gram[:5, 5] = gram[5, 6:] = gram[6:, 5] = -0.0
            system = readout.NormalEquations(gram.copy(), system.rhs, system.n_rows)
        gram = system.gram
        for lam in grid:
            c = cho_factor(gram + lam * np.eye(33))
            for k, rhs in enumerate(system.rhs):
                assert system.solve(lam, k).weights.tobytes() == cho_solve(c, rhs).tobytes()
            assert np.triu(factors[-1][0]).tobytes() == np.triu(c[0]).tobytes()
            assert system.gram.tobytes() == gram.tobytes()

    def test_a_strength_solved_again_equals_a_fresh_fit(self, monkeypatch):
        rng = np.random.default_rng(16)
        r = rng.standard_normal((40, 6))
        r[:, 5] = 0.0  # a zero pivot: singular at lambda = 0
        ys = rng.standard_normal((2, 40))
        want = {lam: [fit_ridge(r, y, lam).weights for y in ys] for lam in (1e-6, 1.0)}
        factors = []
        real = readout.dpotrf
        monkeypatch.setattr(readout, "dpotrf", lambda a, **k: factors.append(1) or real(a, **k))
        system = normal_equations(r, ys)

        def solves(lam, count):
            for k in (0, 1):
                assert np.array_equal(system.solve(lam, k).weights, want[lam][k])
            assert len(factors) == count
        solves(1e-6, 1)
        # a strength refused before any factor forms none, and leaves the
        # last one alive
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                system.solve(bad)
        solves(1e-6, 1)
        solves(1.0, 2)
        solves(1e-6, 3)
        # a singular factor is tried again by each solve at its strength,
        # and the strength solved before it is factored again
        for count in (4, 5):
            with pytest.raises(SingularSystemError, match="singular"):
                system.solve(0.0, 1)
            assert len(factors) == count
        solves(1e-6, 6)
        solves(1.0, 7)

    def test_a_fit_holds_one_gram(self):
        # the Gram of a 450 x 401 state matrix and six factors of it: each
        # factor is formed in the Gram's storage, not in a copy of it
        tracemalloc.start()
        try:
            rng = np.random.default_rng(14)
            r = rng.standard_normal((450, 401))
            system = normal_equations(r, rng.standard_normal(450))
            for lam in (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
                system.solve(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r.nbytes + 1.25 * 401 * 401 * 8

    def test_finiteness_check_allocates_no_gram_sized_mask(self):
        # the Gram is checked through its max and min, not an isfinite
        # mask, which would add an eighth of the Gram (1.14 x in all)
        rng = np.random.default_rng(15)
        r = rng.standard_normal((451, 401))
        y = rng.standard_normal((6, 451))
        tracemalloc.start()
        try:
            normal_equations(r, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (401 * 401 * 8) < 1.06

    def test_lapack_module_is_the_one_scipy_linalg_calls(self):
        # readout loads SciPy's LAPACK extension from its file, without
        # scipy.linalg; cho_factor and cho_solve call into the same file
        from scipy.linalg import lapack
        assert readout._flapack.__file__ == lapack._flapack.__file__


class TestPredict:
    def test_zero_weights(self):
        w = ReadoutWeights(np.zeros(4), 0.0)
        assert np.all(predict(np.ones((7, 4)), w) == 0.0)

    def test_roundtrip_with_fit(self):
        rng = np.random.default_rng(6)
        r = np.eye(5) + 0.05 * rng.standard_normal((5, 5))
        y = rng.standard_normal(5)
        w = fit_ridge(r, y, 0.0)
        assert predict(r, w) == pytest.approx(y, abs=1e-9)

    def test_single_row_dot_product(self):
        w = ReadoutWeights(np.array([2.0, -1.0, 0.5]), 0.0)
        # 2*1 - 1*3 + 0.5*4 = 1
        assert predict(np.array([1.0, 3.0, 4.0]), w) == pytest.approx(1.0, abs=1e-15)

    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            predict(np.zeros((3, 5)), ReadoutWeights(np.zeros(4), 0.0))


class TestPearson:
    def test_self_correlation(self):
        y = np.array([0.3, 1.2, -0.4, 2.0])
        assert pearson(y, y) == 1.0
        # 1.0000000000000002 before the clamp
        a = np.array([0.08724998293084574, 0.8701448475755365, 0.6317071082430643,
                      -0.9945229996597038, 0.7148085531751387])
        assert pearson(a, 3 * a + 1) == 1.0

    def test_anti_correlation(self):
        y = np.array([0.3, 1.2, -0.4, 2.0])
        assert pearson(y, -y) == -1.0

    def test_hand_case(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            9.0 / math.sqrt(84.0), abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal(50)
            b = rng.standard_normal(50)
            assert pearson(a, b) == pytest.approx(
                stats.pearsonr(a, b).statistic, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(30)
        yhat = rng.standard_normal(30)
        base = pearson(y, yhat)
        assert pearson(2.5 * y + 3.0, yhat) == pytest.approx(base, abs=1e-12)
        assert pearson(-2.5 * y + 3.0, yhat) == pytest.approx(-base, abs=1e-12)

    def test_constant_sequence_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateVarianceError):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # a NaN correlation would leave the clamp as 1.0
        for y, yhat in (([1.0, bad, 3.0], [1.0, 2.0, 3.0]),
                        ([1.0, 2.0, 3.0], [1.0, bad, 3.0])):
            with pytest.raises(ParameterError, match="finite"):
                pearson(y, yhat)


class TestNrmse:
    def test_perfect_prediction(self):
        y = np.array([0.1, 0.4, -0.2, 0.9])
        assert nrmse(y, y) == 0.0

    def test_mean_prediction_scores_one(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        yhat = np.full(5, y.mean())
        assert nrmse(y, yhat) == pytest.approx(1.0, abs=1e-15)

    def test_hand_case(self):
        y = [1.0, 2.0, 3.0, 4.0]
        yhat = [1.1, 1.9, 3.2, 3.8]
        # rmse = sqrt((0.01+0.01+0.04+0.04)/4), std(y) = sqrt(1.25)
        want = math.sqrt(0.1 / 4.0) / math.sqrt(1.25)
        assert nrmse(y, yhat) == pytest.approx(want, abs=1e-12)

    def test_constant_target_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            nrmse([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        for y, yhat in (([1.0, bad, 3.0], [1.0, 2.0, 3.0]),
                        ([1.0, 2.0, 3.0], [1.0, bad, 3.0])):
            for metric in (nrmse, evaluate):
                with pytest.raises(ParameterError, match="finite"):
                    metric(y, yhat)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(40)
        yhat = y + 0.1 * rng.standard_normal(40)
        rep = evaluate(y, yhat)
        assert rep.n_samples == 40
        assert rep.pearson == pearson(y, yhat)
        assert rep.nrmse == nrmse(y, yhat)
        assert -1.0 <= rep.pearson <= 1.0 and rep.nrmse >= 0.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: ReadoutWeights(np.zeros((2, 3)), 0.0), ParameterError,
     "weights must be a 1-d vector"),
    (lambda: ReadoutWeights(np.array([1.0, math.nan]), 0.0), ParameterError,
     "weights must be finite"),
    (lambda: normal_equations(np.zeros(5), np.zeros(5)), DimensionError,
     "states must be 2-d, got shape (5,)"),
    (lambda: evaluate([1.0], [1.0]), DimensionError, "need at least 2 samples"),
], ids=["weights-2d", "weights-nan", "states-1d", "one-sample"])
def test_error_branch_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
