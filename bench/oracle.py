"""Independent recomputation of single replications, for the correctness
check at every seed.

Written from the update equations in PAPER.md and the documented seeding
scheme, with plain NumPy: a per-step loop for the reservoir, a dense solve
of the ridge normal equations, its own 80/20 held-out λ selection, and
``np.corrcoef`` for Pearson. It shares no code with pulserc, so a change
that alters the program's arithmetic beyond rounding shows up as a
mismatch.
"""

from __future__ import annotations

import math

import numpy as np

_STREAM_TASK, _STREAM_NOISE, _STREAM_MASK = 0, 1, 2
_NARMA_LIMIT = 10.0
_NARMA_REDRAWS = 100


def derive_seed(base: int, replication: int, stream: int) -> int:
    ss = np.random.SeedSequence([int(base), int(replication), int(stream)])
    return int(ss.generate_state(1)[0])


def narma(order: int, length: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """NARMA-N with the N+1-term sum and redraw-on-divergence."""
    for attempt in range(_NARMA_REDRAWS):
        u = np.random.default_rng(seed + attempt).uniform(0.0, 0.5, length)
        y = np.zeros(length)
        for t in range(order + 1, length):
            y[t] = (0.3 * y[t - 1] + 0.05 * y[t - 1] * y[t - order - 1:t].sum()
                    + 1.5 * u[t - 1] * u[t - order] + 0.1)
            if abs(y[t]) > _NARMA_LIMIT:
                break
        else:
            return u, y
    raise RuntimeError(f"NARMA-{order} diverged for every redraw")


def reservoir(u: np.ndarray, mask: np.ndarray, f: dict, noise_seed: int) -> np.ndarray:
    """State matrix (post-washout rows, bias column last)."""
    eps = math.exp(-f["pulse_period"] / f["bandwidth_time"])
    c, sigma = f["gain_c"], f["noise_sigma"]
    rng = np.random.default_rng(noise_seed)
    measured = np.zeros(mask.size)
    last_sine = 0.0
    rows = []
    for k, uk in enumerate(u):
        sines = np.sin(f["beta"] * mask * uk + f["alpha"] * measured)
        prev = np.concatenate(([last_sine], sines[:-1]))
        measured = c * (eps * prev + (1.0 - eps) * sines)
        if sigma > 0.0:
            measured = measured + rng.normal(0.0, sigma, mask.size)
        last_sine = sines[-1]
        if k >= f["washout"]:
            rows.append(measured)
    states = np.array(rows)
    return np.hstack([states, np.ones((states.shape[0], 1))])


def _ridge(r: np.ndarray, y: np.ndarray, grid) -> list[np.ndarray]:
    """Ridge weights for each λ in ``grid``, from the normal equations."""
    gram, rhs = r.T @ r, r.T @ y
    eye = np.eye(r.shape[1])
    return [np.linalg.solve(gram + lam * eye, rhs) for lam in grid]


def _nrmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    return float(np.sqrt(np.mean((y - y_hat) ** 2)) / y.std())


class Replication:
    """Replication ``rep`` of the experiment ``f``: its training and test
    states, ready to be scored at any ridge strength. ``csv_columns``
    holds (u, y) of a CSV task."""

    def __init__(self, f: dict, rep: int,
                 csv_columns: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        washout, n_train = f["washout"], f["train_len"]
        length = washout + n_train + f["test_len"]
        if f["task"] == "narma":
            u, y = narma(f["order"], length, derive_seed(f["seed"], rep, _STREAM_TASK))
        else:
            u, y = csv_columns
        if f["standardize"]:
            train = u[:washout + n_train]
            u = (u - train.mean()) / train.std()
        mask = np.random.default_rng(
            derive_seed(f["mask_seed"], rep, _STREAM_MASK)).uniform(-1.0, 1.0, f["num_nodes"])
        states = reservoir(u[:length], mask, f, derive_seed(f["seed"], rep, _STREAM_NOISE))
        self.r_train, self.y_train = states[:n_train], y[washout:washout + n_train]
        self.r_test, self.y_test = states[n_train:], y[washout + n_train:length]

    def validation_nrmse(self, grid) -> list[float]:
        """Held-out NRMSE of each λ in ``grid``: fit on the first 80% of
        the training rows, score on the last 20%."""
        n = self.r_train.shape[0]
        n_fit = max(1, min(n - 1, int(0.8 * n)))
        r_fit, y_fit = self.r_train[:n_fit], self.y_train[:n_fit]
        r_val, y_val = self.r_train[n_fit:], self.y_train[n_fit:]
        return [_nrmse(y_val, r_val @ w) for w in _ridge(r_fit, y_fit, grid)]

    def test_metrics(self, ridge_lambda: float) -> tuple[float, float]:
        """(pearson, nrmse) on the test rows of a readout trained on all
        training rows at ``ridge_lambda``."""
        [w] = _ridge(self.r_train, self.y_train, [ridge_lambda])
        y_hat = self.r_test @ w
        return float(np.corrcoef(self.y_test, y_hat)[0, 1]), _nrmse(self.y_test, y_hat)
