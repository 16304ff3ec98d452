"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured quantities once its
assertions hold; a failing criterion shows up as a pytest failure. The
heavyweight benchmark sweep is shared across criteria through a
module-scoped fixture. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from pulserc import (
    ExperimentSpec,
    Mask,
    NarmaConfig,
    ReservoirParams,
    ReservoirState,
    fit_ridge,
    gen_narma,
    generate_mask,
    run,
    run_experiment,
    run_sweep,
    step,
    zero_state,
)

BENCH = dict(alpha=0.7, beta=1.0, washout=50, train_len=2250, test_len=600,
             replications=10, seed=1234, mask_seed=7)


def scalar_reference(inputs, mask, alpha, beta, c, pulse_period, bandwidth_time):
    """Plain-float transcription of the node update, independent of the
    library's vectorized path."""
    eps = math.exp(-pulse_period / bandwidth_time)
    v = len(mask)
    m_prev = [0.0] * v
    last_sine = 0.0
    out = []
    for u in inputs:
        sines = [math.sin(beta * mask[j] * u + alpha * m_prev[j])
                 for j in range(v)]
        row = [c * (last_sine if j == 0 else sines[j - 1]) * eps
               + c * sines[j] * (1.0 - eps)
               for j in range(v)]
        last_sine = sines[-1]
        m_prev = row
        out.append(row)
    return out


@pytest.fixture(scope="module")
def benchmark_records():
    """The node-count / order sweep shared by criteria 3 and 4."""
    spec = ExperimentSpec(task="narma", num_nodes=35, **BENCH)
    records = run_sweep(spec, [("order", [2, 3, 4, 5, 6]),
                               ("num_nodes", [35, 100])])
    table = {}
    for rec in records:
        key = (rec.spec.order, rec.spec.num_nodes)
        table[key] = (rec.pearson_mean, rec.pearson_std)
    return table


def test_c01_node_update_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        v = int(rng.integers(1, 4))
        length = int(rng.integers(1, 6))
        alpha = float(rng.uniform(-1.2, 1.2))
        beta = float(rng.uniform(-1.2, 1.2))
        c = float(rng.uniform(0.5, 2.0))
        tr = float(rng.uniform(1e-9, 3e-8))
        tbw = float(rng.uniform(1e-9, 3e-8))
        mask_w = rng.uniform(-1.0, 1.0, v)
        while v > 1 and np.all(mask_w == mask_w[0]):
            mask_w = rng.uniform(-1.0, 1.0, v)
        inputs = rng.uniform(-1.0, 1.0, length)
        params = ReservoirParams(num_nodes=v, alpha=alpha, beta=beta,
                                 gain_c=c, pulse_period=tr, bandwidth_time=tbw)
        got = run(inputs, Mask(mask_w), params, washout=0)[:, :-1]
        want = np.array(scalar_reference(inputs, list(mask_w), alpha, beta,
                                         c, tr, tbw))
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12
    print(f"\nPASS criterion 01: 100 small instances match the scalar "
          f"oracle, worst |diff| = {worst:.3e} <= 1e-12")


def test_c02_plain_sine_recovered_when_decoupled():
    # pulse period a million times the bandwidth time underflows the
    # coupling factor to exactly zero
    params = ReservoirParams(num_nodes=7, alpha=0.7, beta=1.0, gain_c=1.4,
                             pulse_period=1e-3, bandwidth_time=1e-9)
    assert params.coupling == 0.0
    rng = np.random.default_rng(3)
    mask = generate_mask(7, 5)
    state = ReservoirState(rng.uniform(-1, 1, 7), carry=0.8)
    worst = 0.0
    for u in rng.uniform(0, 0.5, 20):
        expected = 1.4 * np.sin(1.0 * mask.weights * u + 0.7 * state.measurements)
        state, row = step(state, float(u), mask, params)
        worst = max(worst, float(np.max(np.abs(row - expected))))
    assert worst <= 1e-15
    print(f"\nPASS criterion 02: decoupled step equals C*sin(beta*m*u + "
          f"alpha*M), worst |diff| = {worst:.3e} <= 1e-15")


def test_c03_accuracy_decreases_with_order(benchmark_records):
    means = [benchmark_records[(n, 35)][0] for n in range(2, 7)]
    stds = [benchmark_records[(n, 35)][1] for n in range(2, 7)]
    for i in range(4):
        pooled = math.sqrt((stds[i] ** 2 + stds[i + 1] ** 2) / 2.0)
        assert means[i + 1] <= means[i] + pooled, (
            f"pearson rose from N={i + 2} ({means[i]:.4f}) to "
            f"N={i + 3} ({means[i + 1]:.4f}) by more than the pooled "
            f"std {pooled:.4f}")
    # the same ordinal trend at V=100
    assert benchmark_records[(2, 100)][0] > benchmark_records[(6, 100)][0]
    pretty = ", ".join(f"N={n}: {m:.4f}" for n, m in zip(range(2, 7), means))
    print(f"\nPASS criterion 03: V=35 mean pearson non-increasing in N "
          f"(within one pooled std) [{pretty}]")


def test_c04_more_nodes_help_at_every_order(benchmark_records):
    gaps = {}
    for n in range(2, 7):
        small = benchmark_records[(n, 35)][0]
        large = benchmark_records[(n, 100)][0]
        assert large > small, (
            f"N={n}: V=100 mean pearson {large:.4f} not above V=35 {small:.4f}")
        gaps[n] = large - small
    pretty = ", ".join(f"N={n}: +{g:.4f}" for n, g in gaps.items())
    print(f"\nPASS criterion 04: V=100 beats V=35 at every N [{pretty}]")


def test_c05_small_order_quality_with_grid_selection():
    spec = ExperimentSpec(task="narma", order=2, num_nodes=100,
                          lambda_grid=(1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0),
                          **BENCH)
    rec = run_experiment(spec)
    assert rec.pearson_mean >= 0.9
    print(f"\nPASS criterion 05: NARMA-2 at V=100 mean pearson = "
          f"{rec.pearson_mean:.4f} >= 0.9 (std {rec.pearson_std:.4f}, "
          f"lambdas {sorted(set(rec.lambda_reps))})")


def test_c06_ridge_matches_brute_force_oracle():
    rng = np.random.default_rng(2025)
    worst_rel = 0.0
    worst_grad = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 61))
        p = int(rng.integers(2, 11))
        lam = float(rng.choice([0.0, 1e-8, 1e-4, 1e-2, 1.0]))
        if n < p and lam == 0.0:
            lam = 1e-4
        r = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        w = fit_ridge(r, y, lam).weights
        oracle = np.linalg.inv(r.T @ r + lam * np.eye(p)) @ (r.T @ y)
        rel = float(np.max(np.abs(w - oracle)) / max(1.0, np.max(np.abs(oracle))))
        grad = float(np.max(np.abs(2.0 * r.T @ (r @ w - y) + 2.0 * lam * w)))
        worst_rel = max(worst_rel, rel)
        worst_grad = max(worst_grad, grad)
    assert worst_rel <= 1e-8
    assert worst_grad <= 1e-8
    print(f"\nPASS criterion 06: 50 ridge fits match the inversion oracle "
          f"(worst rel {worst_rel:.3e}) with optimality residual "
          f"{worst_grad:.3e} <= 1e-8")


def test_c07_fading_memory():
    params = ReservoirParams(num_nodes=35, alpha=0.7, beta=1.0)
    mask = generate_mask(35, 11)
    inputs = np.random.default_rng(8).uniform(0, 0.5, 200)
    init = np.random.default_rng(9)
    a = ReservoirState(init.uniform(-1, 1, 35), carry=float(init.uniform(-1, 1)))
    b = ReservoirState(init.uniform(-1, 1, 35), carry=float(init.uniform(-1, 1)))
    start_gap = float(np.max(np.abs(a.measurements - b.measurements)))
    row_a = row_b = None
    for u in inputs:
        a, row_a = step(a, float(u), mask, params)
        b, row_b = step(b, float(u), mask, params)
    gap = float(np.max(np.abs(row_a - row_b)))
    assert gap < 1e-9
    print(f"\nPASS criterion 07: initial-state gap {start_gap:.3f} shrinks "
          f"to {gap:.3e} < 1e-9 after 200 driven steps")


def test_c08_zero_input_fixed_point():
    cfg = NarmaConfig(order=2, length=10000, seed=1,
                      input_low=0.0, input_high=1e-300)
    ds = gen_narma(cfg)
    root = (0.7 - math.sqrt(0.7 ** 2 - 4.0 * 0.15 * 0.1)) / (2.0 * 0.15)
    gap = abs(float(ds.targets[-1]) - root)
    assert gap <= 1e-6
    print(f"\nPASS criterion 08: zero-input NARMA-2 converges to "
          f"{ds.targets[-1]:.9f}; quadratic root {root:.9f}, |diff| = "
          f"{gap:.3e} <= 1e-6")


def test_c09_surrogate_task_end_to_end():
    spec = ExperimentSpec(task="surrogate", num_nodes=35, alpha=0.7, beta=1.0,
                          washout=50, train_len=2000, test_len=500,
                          replications=5, seed=77, mask_seed=5)
    rec = run_experiment(spec)
    assert rec.pearson_mean >= 0.8      # required floor
    assert rec.pearson_mean >= 0.99     # frozen from the first oracle run
    print(f"\nPASS criterion 09: surrogate prediction mean pearson = "
          f"{rec.pearson_mean:.4f} over 5 seeds (floor 0.8, frozen 0.99)")


def test_c10_determinism_and_split_hygiene(tmp_path):
    spec = ExperimentSpec(task="narma", order=2, num_nodes=20, washout=20,
                          train_len=300, test_len=100, replications=2,
                          seed=5, mask_seed=2)
    axes = [("order", [2, 3]), ("num_nodes", [20, 30])]
    run_sweep(spec, axes, out_path=tmp_path / "a.tsv")
    run_sweep(spec, axes, out_path=tmp_path / "b.tsv")
    a = (tmp_path / "a.tsv").read_bytes()
    assert a == (tmp_path / "b.tsv").read_bytes(), "rerun changed the bytes"

    # sentinel-poisoned test rows must not move the fitted readout
    rng = np.random.default_rng(6)
    n, cut = 420, 20 + 300
    u = rng.uniform(0, 0.5, n)
    y = rng.uniform(0, 1, n)
    u_bad, y_bad = u.copy(), y.copy()
    u_bad[cut:] = 1e6
    y_bad[cut:] = -1e6 - np.arange(n - cut)
    weights = []
    for tag, uu, yy in (("clean", u, y), ("poisoned", u_bad, y_bad)):
        d = tmp_path / tag
        d.mkdir()
        (d / "u.csv").write_text("\n".join(repr(float(v)) for v in uu) + "\n")
        (d / "y.csv").write_text("\n".join(repr(float(v)) for v in yy) + "\n")
        rec = run_experiment(ExperimentSpec(
            task="csv", csv_input=str(d / "u.csv"), csv_target=str(d / "y.csv"),
            num_nodes=20, washout=20, train_len=300, test_len=100,
            replications=1, seed=5, mask_seed=2))
        weights.append(rec.readout_first)
    assert np.array_equal(weights[0], weights[1]), \
        "poisoning the test region changed the trained readout"
    print("\nPASS criterion 10: sweep bytes identical across reruns; "
          "poisoned test rows leave training untouched")
