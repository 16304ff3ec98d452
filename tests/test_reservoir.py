import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pulserc import (
    DimensionError,
    ExperimentSpec,
    Mask,
    ParameterError,
    ReservoirParams,
    ReservoirState,
    coupling_factor,
    generate_mask,
    run,
    step,
    write_spec_file,
    zero_state,
)
import pulserc._scipy as _scipy
import pulserc.reservoir as reservoir
from pulserc.reservoir import drive_block

README = Path(__file__).resolve().parents[1] / "README.md"


def reference_node_values(inputs, mask, alpha, beta, c, pulse_period, bandwidth_time):
    """Scalar transcription of the two-term update, deliberately kept
    independent of the library's vectorized implementation."""
    eps = math.exp(-pulse_period / bandwidth_time)
    v = len(mask)
    m_prev = [0.0] * v
    last_sine = 0.0
    out = []
    for u in inputs:
        sines = []
        for j in range(v):
            phi = beta * mask[j] * u + alpha * m_prev[j]
            sines.append(math.sin(phi))
        row = []
        for j in range(v):
            s_pred = last_sine if j == 0 else sines[j - 1]
            row.append(c * s_pred * eps + c * sines[j] * (1.0 - eps))
        last_sine = sines[-1]
        m_prev = row
        out.append(row)
    return out


def reference_full_filter(inputs, mask, alpha, beta, c, pulse_period, bandwidth_time):
    """Scalar transcription of the untruncated low-pass variant."""
    eps = math.exp(-pulse_period / bandwidth_time)
    v = len(mask)
    m_prev = [0.0] * v
    s = 0.0
    out = []
    for u in inputs:
        row = []
        for j in range(v):
            phi = beta * mask[j] * u + alpha * m_prev[j]
            s = eps * s + (1.0 - eps) * c * math.sin(phi)
            row.append(s)
        m_prev = row
        out.append(row)
    return out


class TestCouplingFactor:
    def test_reference_time_constants(self):
        assert coupling_factor(6.4e-9, 21e-9) == pytest.approx(0.7373, abs=1e-4)

    def test_equal_time_constants(self):
        assert coupling_factor(3.7e-9, 3.7e-9) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_slow_pulses_decouple(self):
        # pulse period far above the bandwidth time: nodes decouple
        assert coupling_factor(100.0, 1.0) < 1e-40
        assert coupling_factor(100.0, 1.0) > 0.0

    def test_range(self):
        for ratio in (0.01, 0.5, 1.0, 5.0, 50.0):
            eps = coupling_factor(ratio, 1.0)
            assert 0.0 < eps < 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_arguments(self, bad):
        with pytest.raises(ParameterError):
            coupling_factor(bad, 1.0)
        with pytest.raises(ParameterError):
            coupling_factor(1.0, bad)


class TestMask:
    def test_deterministic(self):
        a = generate_mask(64, 123, "uniform")
        b = generate_mask(64, 123, "uniform")
        assert np.array_equal(a.weights, b.weights)

    def test_binary_codomain(self):
        m = generate_mask(35, 5, "binary")
        assert set(np.unique(m.weights)) <= {-1.0, 1.0}

    def test_uniform_range(self):
        m = generate_mask(1000, 9, "uniform")
        assert np.all(m.weights >= -1.0) and np.all(m.weights <= 1.0)

    def test_different_seeds_differ(self):
        a = generate_mask(100, 1, "uniform")
        b = generate_mask(100, 2, "uniform")
        assert not np.array_equal(a.weights, b.weights)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ParameterError):
            generate_mask(0, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            generate_mask(10, 1, "gaussian")

    def test_constant_mask_rejected(self):
        with pytest.raises(ParameterError):
            Mask(np.full(8, 0.25))

    def test_single_entry_mask_allowed(self):
        assert len(Mask(np.array([0.5]))) == 1

    def test_binary_never_constant(self):
        # tiny binary masks redraw instead of coming out constant
        for seed in range(200):
            m = generate_mask(2, seed, "binary")
            assert m.weights[0] != m.weights[1]


class TestParams:
    def test_coupling_property(self):
        p = ReservoirParams(num_nodes=4, alpha=0.7, beta=1.0)
        assert p.coupling == pytest.approx(math.exp(-6.4 / 21.0), rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(num_nodes=0, alpha=0.7, beta=1.0),
        dict(num_nodes=4, alpha=0.7, beta=1.0, pulse_period=-1.0),
        dict(num_nodes=4, alpha=0.7, beta=1.0, bandwidth_time=0.0),
        dict(num_nodes=4, alpha=0.7, beta=1.0, noise_sigma=-0.1),
        dict(num_nodes=4, alpha=math.nan, beta=1.0),
        dict(num_nodes=4, alpha=0.7, beta=1.0, filter_mode="iir"),
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ParameterError):
            ReservoirParams(**kwargs)


class TestStep:
    def test_zero_state_zero_input(self):
        params = ReservoirParams(num_nodes=5, alpha=0.7, beta=1.0)
        mask = generate_mask(5, 1)
        _, row = step(zero_state(params), 0.0, mask, params)
        assert np.all(row == 0.0)

    def test_decoupled_limit_matches_plain_sine(self):
        # bandwidth far below the node spacing: predecessor term vanishes
        params = ReservoirParams(num_nodes=6, alpha=0.7, beta=1.0, gain_c=1.3,
                                 pulse_period=1e-6, bandwidth_time=1e-9)
        mask = generate_mask(6, 2)
        state = ReservoirState(np.linspace(-0.5, 0.5, 6), carry=0.4)
        _, row = step(state, 0.3, mask, params)
        expected = 1.3 * np.sin(1.0 * mask.weights * 0.3 + 0.7 * state.measurements)
        assert np.max(np.abs(row - expected)) <= 1e-15

    def test_two_node_hand_case(self):
        mask_w = [1.0, -1.0]
        params = ReservoirParams(num_nodes=2, alpha=0.7, beta=1.0)
        mask = Mask(np.array(mask_w))
        state = zero_state(params)
        rows = []
        for u in (0.3, 0.3, 0.1):
            state, row = step(state, u, mask, params)
            rows.append(row)
        expected = reference_node_values([0.3, 0.3, 0.1], mask_w, 0.7, 1.0, 1.0,
                                         6.4e-9, 21e-9)
        assert np.max(np.abs(np.array(rows) - np.array(expected))) <= 1e-12

    def test_noise_requires_rng(self):
        # a generator re-seeded on every call would repeat one noise vector
        params = ReservoirParams(num_nodes=3, alpha=0.0, beta=0.0,
                                 noise_sigma=0.1, seed=4)
        with pytest.raises(ParameterError, match="rng"):
            step(zero_state(params), 0.1, generate_mask(3, 1), params)

    def test_noise_stream_advances_across_steps(self):
        params = ReservoirParams(num_nodes=3, alpha=0.0, beta=0.0,
                                 noise_sigma=0.1, seed=4)
        rng = np.random.default_rng(4)
        mask = generate_mask(3, 1)
        state, first = step(zero_state(params), 0.1, mask, params, rng=rng)
        _, second = step(state, 0.1, mask, params, rng=rng)
        assert not np.array_equal(first, second)

    def test_mask_length_mismatch(self):
        params = ReservoirParams(num_nodes=3, alpha=0.7, beta=1.0)
        with pytest.raises(DimensionError):
            step(zero_state(params), 0.1, generate_mask(4, 1), params)

    def test_non_finite_input(self):
        params = ReservoirParams(num_nodes=3, alpha=0.7, beta=1.0)
        with pytest.raises(ParameterError):
            step(zero_state(params), math.nan, generate_mask(3, 1), params)

    def test_full_filter_matches_reference(self):
        rng = np.random.default_rng(11)
        mask_w = rng.uniform(-1, 1, 4)
        params = ReservoirParams(num_nodes=4, alpha=0.6, beta=0.9, gain_c=1.1,
                                 filter_mode="full")
        mask = Mask(mask_w)
        inputs = rng.uniform(-1, 1, 6)
        state = zero_state(params)
        rows = []
        for u in inputs:
            state, row = step(state, float(u), mask, params)
            rows.append(row)
        expected = reference_full_filter(inputs, list(mask_w), 0.6, 0.9, 1.1,
                                         6.4e-9, 21e-9)
        assert np.max(np.abs(np.array(rows) - np.array(expected))) <= 1e-12


class TestRun:
    def test_zero_inputs(self):
        params = ReservoirParams(num_nodes=4, alpha=0.7, beta=1.0)
        out = run(np.zeros(30), generate_mask(4, 3), params, washout=5)
        assert out.shape == (25, 5)
        assert np.all(out[:, :4] == 0.0)
        assert np.all(out[:, 4] == 1.0)

    def test_washout_suffix_identity(self):
        params = ReservoirParams(num_nodes=8, alpha=0.7, beta=1.0,
                                 noise_sigma=0.01, seed=42)
        mask = generate_mask(8, 3)
        inputs = np.random.default_rng(0).uniform(0, 0.5, 120)
        full = run(inputs, mask, params, washout=0)
        tail = run(inputs, mask, params, washout=50)
        assert np.array_equal(full[50:], tail)

    def test_determinism_with_noise(self):
        params = ReservoirParams(num_nodes=8, alpha=0.7, beta=1.0,
                                 noise_sigma=0.05, seed=9)
        mask = generate_mask(8, 3)
        inputs = np.random.default_rng(1).uniform(0, 0.5, 80)
        a = run(inputs, mask, params, washout=10)
        b = run(inputs, mask, params, washout=10)
        assert np.array_equal(a, b)

    def test_mask_length_mismatch(self):
        params = ReservoirParams(num_nodes=4, alpha=0.7, beta=1.0)
        with pytest.raises(DimensionError):
            run(np.zeros(10), generate_mask(5, 1), params, washout=2)

    def test_too_short_input(self):
        params = ReservoirParams(num_nodes=4, alpha=0.7, beta=1.0)
        with pytest.raises(ParameterError):
            run(np.zeros(10), generate_mask(4, 1), params, washout=10)

    def test_boundedness_noise_off(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            c = rng.uniform(0.5, 2.0)
            params = ReservoirParams(
                num_nodes=int(rng.integers(2, 20)),
                alpha=rng.uniform(-1.5, 1.5), beta=rng.uniform(-1.5, 1.5),
                gain_c=c,
                pulse_period=rng.uniform(1e-9, 3e-8),
                bandwidth_time=rng.uniform(1e-9, 3e-8))
            mask = generate_mask(params.num_nodes, trial)
            inputs = rng.uniform(-3, 3, 200)
            out = run(inputs, mask, params, washout=0)
            assert np.max(np.abs(out[:, :-1])) <= c + 1e-12

    def test_noise_bound_soft(self):
        sigma = 0.02
        params = ReservoirParams(num_nodes=10, alpha=0.7, beta=1.0,
                                 noise_sigma=sigma, seed=5)
        mask = generate_mask(10, 4)
        inputs = np.random.default_rng(2).uniform(0, 0.5, 500)
        out = run(inputs, mask, params, washout=0)
        assert np.max(np.abs(out[:, :-1])) <= 1.0 + 5.0 * sigma

    def test_oracle_equivalence_small_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            v = int(rng.integers(1, 4))
            length = int(rng.integers(1, 6))
            alpha = float(rng.uniform(-1.2, 1.2))
            beta = float(rng.uniform(-1.2, 1.2))
            c = float(rng.uniform(0.5, 2.0))
            tr = float(rng.uniform(1e-9, 3e-8))
            tbw = float(rng.uniform(1e-9, 3e-8))
            mask_w = rng.uniform(-1, 1, v)
            if v > 1:
                while np.all(mask_w == mask_w[0]):
                    mask_w = rng.uniform(-1, 1, v)
            inputs = rng.uniform(-1, 1, length)
            params = ReservoirParams(num_nodes=v, alpha=alpha, beta=beta,
                                     gain_c=c, pulse_period=tr,
                                     bandwidth_time=tbw)
            got = run(inputs, Mask(mask_w), params, washout=0)[:, :-1]
            want = np.array(reference_node_values(
                inputs, list(mask_w), alpha, beta, c, tr, tbw))
            assert np.max(np.abs(got - want)) <= 1e-12


def oracle_step(state, input_value, w, params, rng=None):
    """One sample of the update equations, transcribed per step: the
    per-step oracle the drive kernel is checked against bit for bit. It
    keeps the operands and their order that the kernel's ufuncs apply,
    and runs the ``full`` filter's low-pass scan node by node."""
    eps = params.coupling
    phi = params.beta * w * input_value + params.alpha * state.measurements
    sines = np.sin(phi)
    if params.filter_mode == "two_term":
        prev = np.empty_like(sines)
        prev[0] = state.carry
        prev[1:] = sines[:-1]
        row = params.gain_c * (eps * prev + (1.0 - eps) * sines)
        carry = float(sines[-1])
    else:
        drive = params.gain_c * (1.0 - eps) * sines
        row = np.empty_like(drive)
        s = state.carry
        for j in range(row.size):
            s = eps * s + drive[j]
            row[j] = s
        carry = float(s)
    if params.noise_sigma > 0.0:
        row = row + rng.normal(0.0, params.noise_sigma, row.size)
    return ReservoirState(row, carry), row


def step_loop(inputs, masks, params, washout, start=None):
    """The drive kernel's reference: one :func:`oracle_step` per sample
    and row, with the row's constants and one noise generator per row,
    seeded with its seed, from the zero state or from ``start``, a pair
    of measurements (G, V) and carries (G,) as ``drive_block`` takes it."""
    out = []
    for g, (u, w, p) in enumerate(zip(inputs, masks, params)):
        state = (zero_state(p) if start is None
                 else ReservoirState(start[0][g].copy(), float(start[1][g])))
        rng, rows = np.random.default_rng(p.seed), []
        for k, value in enumerate(u):
            state, row = oracle_step(state, float(value), w, p, rng)
            if k >= washout:
                rows.append(np.append(row, 1.0))
        out.append(rows)
    return np.array(out)


# (washout, length, gain_c): lengths below and above one 64-step chunk, a
# washout that ends inside the second chunk, and the gain of 1 whose
# multiply the kernel skips; the L = 40, gain_c = 1.7 cases keep their
# washout-only ids
_DRIVE_CASES = [
    pytest.param(washout, length, gain_c,
                 id=str(washout) if (length, gain_c) == (40, 1.7)
                 else f"{washout}-L{length}-c{gain_c}")
    for length in (40, 150) for washout in (0, 7, 70) if washout < length
    for gain_c in (1.0, 1.7)
]


class TestDriveBlock:
    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("v", [1, 2, 35])
    @pytest.mark.parametrize("filter_mode", ["two_term", "full"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.03])
    @pytest.mark.parametrize("washout,length,gain_c", _DRIVE_CASES)
    def test_bitwise_equal_to_step_loop(self, g, v, filter_mode, noise_sigma,
                                        washout, length, gain_c):
        rng = np.random.default_rng(1000 * g + v)
        params = ReservoirParams(num_nodes=v, alpha=0.8, beta=1.2,
                                 gain_c=gain_c, noise_sigma=noise_sigma,
                                 filter_mode=filter_mode)
        inputs = rng.uniform(-1.0, 1.0, (g, length))
        masks = np.array([generate_mask(v, 10 + i).weights for i in range(g)])
        rows = [replace(params, seed=int(s)) for s in rng.integers(0, 2**32, g)]
        got = drive_block(inputs, masks, rows, washout)
        want = step_loop(inputs, masks, rows, washout)
        assert got.shape == (g, length - washout, v + 1)
        assert np.array_equal(got, want)

    def test_noise_stream_spans_chunks(self):
        # longer than one noise draw, so chunk boundaries are crossed
        params = ReservoirParams(num_nodes=3, alpha=0.7, beta=1.0,
                                 noise_sigma=0.05)
        inputs = np.random.default_rng(5).uniform(0, 0.5, (2, 600))
        masks = np.array([generate_mask(3, 1).weights,
                          generate_mask(3, 2).weights])
        rows = [replace(params, seed=8), replace(params, seed=9)]
        got = drive_block(inputs, masks, rows, 50)
        assert np.array_equal(got, step_loop(inputs, masks, rows, 50))

    def test_rows_are_independent(self):
        params = ReservoirParams(num_nodes=5, alpha=0.7, beta=1.0,
                                 noise_sigma=0.01)
        inputs = np.random.default_rng(6).uniform(0, 0.5, (3, 60))
        masks = np.array([generate_mask(5, s).weights for s in (1, 2, 3)])
        rows = [replace(params, seed=s) for s in (4, 5, 6)]
        block = drive_block(inputs, masks, rows, 10)
        alone = drive_block(inputs[1:2], masks[1:2], rows[1:2], 10)
        assert np.array_equal(block[1], alone[0])

    @pytest.mark.parametrize("g", [1, 3, 10])
    @pytest.mark.parametrize("v", [1, 2, 35, 100])
    @pytest.mark.parametrize("filter_mode", ["two_term", "full"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.03])
    def test_mixed_rows_equal_rows_alone(self, g, v, filter_mode, noise_sigma):
        # per-row alpha, beta and gain_c (1.0 and 1.7 in one block), rows
        # sharing a noise seed three at a time, as a sweep's replication
        # does, and a washout that ends in the second chunk
        rng = np.random.default_rng(100 * g + v)
        rows = [ReservoirParams(num_nodes=v, alpha=(0.5, 0.8, 1.1)[k % 3],
                                beta=(0.7, 1.2)[k % 2], gain_c=(1.0, 1.7)[k // 2 % 2],
                                noise_sigma=noise_sigma, seed=20 + k // 3,
                                filter_mode=filter_mode) for k in range(g)]
        inputs = rng.uniform(-1.0, 1.0, (g, 150))
        masks = np.array([generate_mask(v, 10 + k // 3).weights for k in range(g)])
        block = drive_block(inputs, masks, rows, 70)
        for k in range(g):
            alone = drive_block(inputs[k:k + 1], masks[k:k + 1], rows[k:k + 1], 70)
            assert np.array_equal(block[k], alone[0])
        assert np.array_equal(block, step_loop(inputs, masks, rows, 70))

    def test_run_uses_params_seed(self):
        params = ReservoirParams(num_nodes=4, alpha=0.7, beta=1.0,
                                 noise_sigma=0.02, seed=13)
        mask = generate_mask(4, 2)
        inputs = np.random.default_rng(7).uniform(0, 0.5, 30)
        want = step_loop(inputs[None, :], mask.weights[None, :], [params], 5)[0]
        assert np.array_equal(run(inputs, mask, params, washout=5), want)


class TestStartState:
    """The kernel drives from any state and continues a drive across
    calls; ``step`` is its one-sample call."""

    @pytest.mark.parametrize("v", [1, 2, 35])
    @pytest.mark.parametrize("filter_mode", ["two_term", "full"])
    @pytest.mark.parametrize("gain_c", [1.0, 1.7])
    def test_step_equals_oracle_from_random_states(self, v, filter_mode, gain_c):
        # every step starts from a fresh random non-zero state, noise on
        rng = np.random.default_rng(100 * v + int(10 * gain_c))
        params = ReservoirParams(num_nodes=v, alpha=0.8, beta=1.2, gain_c=gain_c,
                                 noise_sigma=0.03, seed=5, filter_mode=filter_mode)
        mask = generate_mask(v, 3)
        noise_got, noise_want = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(150):
            start = ReservoirState(rng.uniform(-1.0, 1.0, v), carry=float(rng.uniform(-1.0, 1.0)))
            u, before = float(rng.uniform(-1.0, 1.0)), start.measurements.copy()
            state, row = step(start, u, mask, params, rng=noise_got)
            want_state, want_row = oracle_step(start, u, mask.weights, params, noise_want)
            assert np.array_equal(row, want_row)
            assert np.array_equal(state.measurements, want_state.measurements)
            assert state.carry == want_state.carry
            assert np.array_equal(start.measurements, before)  # the start is not mutated

    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("v", [1, 2, 35])
    @pytest.mark.parametrize("filter_mode", ["two_term", "full"])
    def test_split_drive_equals_one_call(self, g, v, filter_mode):
        # 300 steps from a random state, split at step 101 (inside the
        # second chunk); rows 0 and 1 share a noise seed, and gains 1 and
        # 1.7 mix in one block
        rng = np.random.default_rng(50 + 10 * g + v)
        rows = [ReservoirParams(num_nodes=v, alpha=(0.5, 0.8, 1.1)[k], beta=(0.7, 1.2)[k % 2],
                                gain_c=(1.0, 1.7)[k % 2], noise_sigma=0.03, seed=40 + k // 2,
                                filter_mode=filter_mode) for k in range(g)]
        inputs = rng.uniform(-1.0, 1.0, (g, 300))
        masks = np.array([generate_mask(v, 10 + k).weights for k in range(g)])
        start = (rng.uniform(-1.0, 1.0, (g, v)), rng.uniform(-1.0, 1.0, g))
        whole_state = (start[0].copy(), start[1].copy())
        whole = drive_block(inputs, masks, rows, 0, whole_state)
        split_state = (start[0].copy(), start[1].copy())
        generators = {p.seed: np.random.default_rng(p.seed) for p in rows}
        head = drive_block(inputs[:, :101], masks, rows, 0, split_state, generators)
        tail = drive_block(inputs[:, 101:], masks, rows, 0, split_state, generators)
        assert np.array_equal(np.concatenate([head, tail], axis=1), whole)
        assert np.array_equal(whole, step_loop(inputs, masks, rows, 0, start))
        for got, want in zip(split_state, whole_state):
            assert np.array_equal(got, want)
        assert np.array_equal(whole_state[0], whole[:, -1, :v])


def lfilter_drive(inputs, masks, params, washout):
    """The ``full`` kernel as it ran through ``scipy.signal.lfilter``: each
    step forms the block's (V, G) phases and gained sines, runs one
    ``lfilter`` call down the node axis from ``eps`` times the previous
    step's last filter state, and adds that step's noise."""
    from scipy.signal import lfilter
    g, length = inputs.shape
    v, eps, sigma = params[0].num_nodes, params[0].coupling, params[0].noise_sigma
    input_weights = (np.array([p.beta for p in params])[:, None] * masks).T
    alpha = np.tile([p.alpha for p in params], (v, 1))
    gain = np.tile([p.gain_c * (1.0 - eps) for p in params], (v, 1))
    noise = np.zeros((length, v, g))
    for col, p in enumerate(params if sigma > 0.0 else ()):
        noise[:, :, col] = np.random.default_rng(p.seed).normal(0.0, sigma, (length, v))
    row, carry = np.zeros((v, g)), np.zeros((1, g))
    out = np.ones((g, length - washout, v + 1))
    for k in range(length):
        phi = input_weights * inputs[:, k] + alpha * row
        row, _ = lfilter([1.0], [1.0, -eps], gain * np.sin(phi), axis=0, zi=eps * carry)
        carry[0] = row[-1]
        row = row + noise[k]
        if k >= washout:
            out[:, k - washout, :v] = row.T
    return out


class TestFullFilterScan:
    """The ``full`` filter calls SciPy's scan extension directly; it must
    give the bits that ``scipy.signal.lfilter`` gave it."""

    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("v", [1, 4, 35])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.03])
    def test_bitwise_equal_to_lfilter_per_step(self, g, v, noise_sigma):
        # 200 steps, so the filter state crosses three chunk boundaries,
        # and a washout that ends in the second chunk; per-row alpha, beta
        # and gain_c
        rng = np.random.default_rng(10 * g + v)
        rows = [ReservoirParams(num_nodes=v, alpha=(0.5, 0.8, 1.1)[k], beta=(0.7, 1.2)[k % 2],
                                gain_c=(1.0, 0.8)[k % 2], noise_sigma=noise_sigma,
                                seed=30 + k, filter_mode="full") for k in range(g)]
        inputs = rng.uniform(-1.0, 1.0, (g, 200))
        masks = np.array([generate_mask(v, 10 + k).weights for k in range(g)])
        assert np.array_equal(drive_block(inputs, masks, rows, 70),
                              lfilter_drive(inputs, masks, rows, 70))

    def test_scan_module_is_the_one_lfilter_calls(self):
        from scipy.signal import _signaltools
        assert reservoir._sigtools.__file__ == _signaltools._sigtools.__file__

    def test_missing_extension_names_file_and_directory(self):
        with pytest.raises(ImportError, match=r"_no_such_module is missing from .*signal"):
            _scipy._load("signal", "_no_such_module")


class TestFadingMemory:
    def test_initial_conditions_forgotten(self):
        params = ReservoirParams(num_nodes=20, alpha=0.7, beta=1.0)
        mask = generate_mask(20, 6)
        inputs = np.random.default_rng(3).uniform(0, 0.5, 200)
        rng = np.random.default_rng(4)
        state_a = ReservoirState(rng.uniform(-1, 1, 20),
                                 carry=float(rng.uniform(-1, 1)))
        state_b = ReservoirState(rng.uniform(-1, 1, 20),
                                 carry=float(rng.uniform(-1, 1)))
        row_a = row_b = None
        for u in inputs:
            state_a, row_a = step(state_a, float(u), mask, params)
            state_b, row_b = step(state_b, float(u), mask, params)
        assert np.max(np.abs(row_a - row_b)) < 1e-9


def equation_lines(text: str) -> list[str]:
    """The update equations' lines of a text, stripped of indentation."""
    return [line.strip() for line in text.splitlines()
            if line.strip().startswith(("phi[k, j] =", "M[k, j] ="))]



def _params(**kwargs):
    return ReservoirParams(**{"num_nodes": 4, "alpha": 0.7, "beta": 1.0, **kwargs})


# generate_mask's error after 100 constant draws in a row is not reached:
# no seed is known that draws them
@pytest.mark.parametrize("call, error, message", [
    (lambda: _params(seed=-1), ParameterError, "seed must be non-negative, got -1"),
    (lambda: Mask(np.array([])), ParameterError, "mask must be a non-empty 1-d vector"),
    (lambda: Mask(np.array([0.5, math.inf])), ParameterError, "mask entries must be finite"),
    (lambda: step(zero_state(_params(num_nodes=3)), 0.1, generate_mask(4, 1), _params()), DimensionError,
     "state length 3 != num_nodes 4"),
    (lambda: run(np.zeros((2, 60)), generate_mask(4, 1), _params()), DimensionError,
     "inputs must be a 1-d sequence, got shape (2, 60)"),
    (lambda: run(np.zeros(60), generate_mask(4, 1), _params(), washout=-1), ParameterError,
     "washout must be >= 0, got -1"),
    (lambda: run(np.full(60, math.nan), generate_mask(4, 1), _params()), ParameterError,
     "inputs must be finite"),
], ids=["params-seed", "mask-empty", "mask-inf", "step-state", "run-2d", "run-washout",
        "run-nan"])
def test_error_branch_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_readme_equations_match_module_docstring():
    # the update equations are written twice; neither copy may drift
    readme = equation_lines(README.read_text(encoding="utf-8"))
    assert [line.split(" =")[0] for line in readme] == ["phi[k, j]", "M[k, j]"]
    assert readme == equation_lines(reservoir.__doc__)


# no SciPy package is loaded, and of SciPy's modules only the two
# extensions that pulserc runs from their files; on Windows the loader
# first imports SciPy's top level, whose __init__ registers its DLL directory
_NO_SCIPY = """
if sys.platform == "win32":
    import scipy
ALLOWED = {m for m in sys.modules if m.split(".")[0] == "scipy"}
ALLOWED |= {"scipy.linalg._flapack", "scipy.signal._sigtools"}
SCIPY = [m for m in ("scipy", "scipy.signal", "scipy.linalg") if m not in ALLOWED]


def assert_no_scipy_package(when):
    assert not [m for m in SCIPY if m in sys.modules], f"loaded {when}"
    loaded = {m for m in sys.modules if m.split(".")[0] == "scipy"}
    assert loaded <= ALLOWED, f"loaded {when}: {sorted(loaded - ALLOWED)}"
"""

_FULL_DRIVE = """
import sys
import numpy as np
""" + _NO_SCIPY + """
import pulserc, pulserc.cli
from pulserc import ReservoirParams, generate_mask, run
assert_no_scipy_package("at import")
params = ReservoirParams(num_nodes=4, alpha=0.7, beta=1.0, filter_mode="full")
out = run(np.linspace(0.0, 0.5, 100), generate_mask(4, 1), params, washout=2)
assert out.shape == (98, 5) and np.all(np.isfinite(out))
assert_no_scipy_package("by a full drive")
"""


def test_full_filter_loads_no_scipy_package():
    # a fresh interpreter, so no earlier test has loaded SciPy: the full
    # filter's scan runs in SciPy's extension module alone
    src = str(Path(reservoir.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _FULL_DRIVE], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


_LEAN_IMPORT = """
import sys
import numpy
""" + _NO_SCIPY + """
# NumPy 1.x loads numpy.ma itself; the rest is what pulserc could add
HEAVY = [m for m in ("numpy.f2py", "numpy.ma", "numpy.testing") if m not in sys.modules]
import pulserc, pulserc.cli
from pulserc import ExperimentSpec, ReservoirParams, fit_ridge, generate_mask, run, run_sweep
assert not [m for m in HEAVY if m in sys.modules], "loaded at import"
assert_no_scipy_package("at import")
assert "numpy.random" in sys.modules, "numpy.random left to the first draw"
before = set(sys.modules)
run_sweep(ExperimentSpec(num_nodes=12, washout=20, train_len=200, test_len=80,
                         replications=2), [("order", [2, 3])])
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
assert pulserc.cli.main(["sweep", "--spec", sys.argv[1], "--axis", "alpha=0.5,0.9",
                         "--out", sys.argv[2]]) == 0
assert not [m for m in HEAVY if m in sys.modules], "loaded by a CSV sweep"
assert_no_scipy_package("by a CSV sweep")
run(numpy.linspace(0.0, 0.5, 20), generate_mask(4, 1),
    ReservoirParams(num_nodes=4, alpha=0.7, beta=1.0, filter_mode="full"), washout=2)
assert not [m for m in HEAVY if m in sys.modules], "loaded by a full drive"
assert_no_scipy_package("by a full drive")
r, y = numpy.sin(numpy.arange(600.0).reshape(100, 6)), numpy.cos(numpy.arange(100.0))
weights = fit_ridge(r, y).weights
# scipy.linalg, once a caller loads it, shares the readout's _flapack
import scipy.linalg
assert numpy.array_equal(fit_ridge(r, y).weights, weights)
"""


def test_ridge_readout_loads_no_scipy_linalg(tmp_path):
    # a fresh interpreter: the readout's LAPACK calls come from SciPy's
    # extension module alone, a two_term sweep imports nothing more, and a
    # CSV sweep and a full drive import no SciPy package
    data = tmp_path / "data.csv"
    rows = np.random.default_rng(5).uniform(0, 1, (400, 2)).tolist()
    data.write_text("u,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    write_spec_file(ExperimentSpec(
        task="csv", csv_input=str(data), csv_target="column:y", standardize=True,
        noise_sigma=0.01, num_nodes=12, washout=20, train_len=200, test_len=80,
        replications=2), tmp_path / "csv.spec")
    src = str(Path(reservoir.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _LEAN_IMPORT, str(tmp_path / "csv.spec"),
                           str(tmp_path / "res.tsv")], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
