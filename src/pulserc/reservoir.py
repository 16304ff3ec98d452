"""Delay-feedback reservoir with phase-encoded input and sine readout.

A single nonlinear element is time-multiplexed into ``V`` virtual nodes.
Each input sample ``u_k`` is broadcast over all nodes through a fixed mask
``m``, entering node ``j`` as the phase

    phi[k, j] = beta * m[j] * u_k + alpha * M[k-1, j]

where ``M[k-1, j]`` is the same node's measured value one step earlier
(the feedback loop). The measurement of a node is a sine of its phase,
blurred with its predecessor because the detection chain is slower than
the node spacing:

    M[k, j] = C * sin(phi[k, j-1]) * eps + C * sin(phi[k, j]) * (1 - eps)

with coupling factor ``eps = exp(-pulse_period / bandwidth_time)``. The
predecessor of the first node of a step is the last node of the previous
step: the pulse train is continuous, so the bandwidth filter does not
reset at step boundaries.

``filter_mode="full"`` replaces the two-term mixing above with the
untruncated first-order low-pass scan ``s_j = eps * s_{j-1} +
(1 - eps) * C * sin(phi_j)``, useful for quantifying the truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # a lazy submodule in NumPy 2: load it here, not in the first draw

from ._scipy import _sigtools
from .errors import DimensionError, ParameterError

_FILTER_MODES = ("two_term", "full")
MASK_KINDS = ("uniform", "binary")

# steps per chunk of the drive kernel, and of detection noise per generator
# call; any value gives the same output, this one keeps the buffers small
_NOISE_CHUNK = 64


def coupling_factor(pulse_period: float, bandwidth_time: float) -> float:
    """Fraction of a node's reading contributed by its predecessor.

    Equals ``exp(-pulse_period / bandwidth_time)``: a detection chain much
    slower than the node spacing blurs neighbours together (eps -> 1),
    an instantaneous one decouples them (eps -> 0).
    """
    for name, value in (("pulse_period", pulse_period),
                        ("bandwidth_time", bandwidth_time)):
        if not math.isfinite(value) or value <= 0.0:
            raise ParameterError(
                f"{name} must be positive and finite, got {value!r}")
    return math.exp(-pulse_period / bandwidth_time)


@dataclass(frozen=True)
class ReservoirParams:
    """All model constants of one reservoir configuration.

    Reference hardware values: 6.4 ns node spacing, 21 ns effective
    detection time constant. ``noise_sigma = 0`` disables detection noise;
    ``seed`` fixes the noise stream when it is on.
    """

    num_nodes: int
    alpha: float
    beta: float
    gain_c: float = 1.0
    pulse_period: float = 6.4e-9
    bandwidth_time: float = 21e-9
    noise_sigma: float = 0.0
    seed: int = 0
    filter_mode: str = "two_term"

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ParameterError(f"num_nodes must be >= 1, got {self.num_nodes}")
        for name in ("alpha", "beta", "gain_c"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        # validates positivity of both time constants as a side effect
        coupling_factor(self.pulse_period, self.bandwidth_time)
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ParameterError(
                f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.filter_mode not in _FILTER_MODES:
            raise ParameterError(
                f"filter_mode must be one of {_FILTER_MODES}, got {self.filter_mode!r}")

    @property
    def coupling(self) -> float:
        """Derived coupling factor eps."""
        return coupling_factor(self.pulse_period, self.bandwidth_time)


@dataclass(frozen=True)
class Mask:
    """Fixed per-node input weights breaking the symmetry between nodes."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 1:
            raise ParameterError("mask must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ParameterError("mask entries must be finite")
        if w.size > 1 and bool(np.all(w == w[0])):
            raise ParameterError("constant mask collapses node diversity")

    def __len__(self) -> int:
        return int(self.weights.size)


def generate_mask(num_nodes: int, seed: int, kind: str = "uniform") -> Mask:
    """Draw the fixed input mask.

    ``kind="uniform"`` draws i.i.d. from [-1, 1), ``kind="binary"`` from
    {-1, +1}. The same (num_nodes, seed, kind) always yields the same
    mask. A draw that happens to be constant (possible for tiny binary
    masks) is rejected and redrawn from the same stream, so determinism
    is preserved.
    """
    if num_nodes < 1:
        raise ParameterError(f"num_nodes must be >= 1, got {num_nodes}")
    if kind not in MASK_KINDS:
        raise ParameterError(f"mask kind must be one of {MASK_KINDS}, got {kind!r}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        if kind == "uniform":
            w = rng.uniform(-1.0, 1.0, num_nodes)
        else:
            w = rng.choice(np.array([-1.0, 1.0]), size=num_nodes)
        if num_nodes == 1 or not bool(np.all(w == w[0])):
            return Mask(w)
    raise ParameterError(
        f"could not draw a non-constant {kind} mask of length {num_nodes}")


@dataclass
class ReservoirState:
    """Carry-over between consecutive input steps.

    ``measurements`` holds the previous step's measured node values (the
    feedback signal). ``carry`` links the last node of one step to the
    first of the next: the last node's sine in the ``"two_term"`` filter
    mode, the low-pass state in the ``"full"`` mode.
    """

    measurements: np.ndarray
    carry: float = 0.0

    def __post_init__(self) -> None:
        self.measurements = np.asarray(self.measurements, dtype=float)


def zero_state(params: ReservoirParams) -> ReservoirState:
    """State of a reservoir that has seen no input: no field, no memory."""
    return ReservoirState(np.zeros(params.num_nodes))


def step(
    state: ReservoirState,
    input_value: float,
    mask: Mask,
    params: ReservoirParams,
    rng: np.random.Generator | None = None,
) -> tuple[ReservoirState, np.ndarray]:
    """Advance the reservoir by one input sample.

    Returns ``(new_state, node_row)`` where ``node_row`` holds the V
    measured node values for this sample. ``rng`` supplies the
    detection-noise stream and must be shared across the steps of one run;
    it is required when noise is on, since a generator re-seeded on every
    call would repeat the same noise vector at every step. The sample is
    one call on :func:`drive_block`, from ``state``.
    """
    w = mask.weights
    if w.size != params.num_nodes:
        raise DimensionError(f"mask length {w.size} != num_nodes {params.num_nodes}")
    if state.measurements.size != params.num_nodes:
        raise DimensionError(
            f"state length {state.measurements.size} != num_nodes {params.num_nodes}")
    if not math.isfinite(input_value):
        raise ParameterError(f"input value must be finite, got {input_value!r}")
    if params.noise_sigma > 0.0 and rng is None:
        raise ParameterError("noise_sigma > 0 needs an rng shared across steps")

    end = (np.array(state.measurements, ndmin=2), np.array([state.carry], dtype=float))
    row = drive_block(np.array([[input_value]], dtype=float), w[None, :], [params], 0,
                      end, {params.seed: rng})[0, 0, :-1]
    return ReservoirState(row, float(end[1][0])), row


def run(
    inputs: np.ndarray,
    mask: Mask,
    params: ReservoirParams,
    washout: int = 50,
) -> np.ndarray:
    """Drive the reservoir over a full input sequence.

    Returns an ``(L - washout, V + 1)`` state matrix: one row of measured
    node values per post-washout sample, plus a trailing constant-1 bias
    column. The run starts from the all-zero state; the first ``washout``
    rows are discarded so the start-up transient never reaches training.
    Detection noise, when on, is drawn from a generator seeded with
    ``params.seed``.
    """
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 1:
        raise DimensionError(f"inputs must be a 1-d sequence, got shape {u.shape}")
    if washout < 0:
        raise ParameterError(f"washout must be >= 0, got {washout}")
    if u.size <= washout:
        raise ParameterError(
            f"need more than washout={washout} input samples, got {u.size}")
    if not np.all(np.isfinite(u)):
        raise ParameterError("inputs must be finite")
    if len(mask) != params.num_nodes:
        raise DimensionError(
            f"mask length {len(mask)} != num_nodes {params.num_nodes}")
    return drive_block(u[None, :], mask.weights[None, :], [params], washout)[0]


def drive_block(
    inputs: np.ndarray,
    masks: np.ndarray,
    params: list[ReservoirParams],
    washout: int,
    state: tuple[np.ndarray, np.ndarray] | None = None,
    generators: dict[int, np.random.Generator] | None = None,
) -> np.ndarray:
    """Advance G independent reservoirs in lockstep (internal kernel).

    Row g of ``inputs`` (G, L) drives a reservoir with input weights
    ``masks[g]`` (G, V) and the constants ``params[g]``, which may differ
    from row to row only in alpha, beta, gain_c and seed, from ``state``,
    a (measurements (G, V), carries (G,)) pair as :class:`ReservoirState`
    holds them, or from zero. Returns the (G, L - washout, V + 1) state
    matrices, and overwrites ``state`` with the end state. When noise is
    on, row g draws from ``generators[params[g].seed]`` (or from
    ``default_rng(seed)``) at every step, once per seed, so calls that
    pass on the state pair and the generators continue one drive bit for
    bit. This is the one implementation of the update equations: every
    ufunc applies the operands of the per-step oracle, ``oracle_step`` in
    ``tests/test_reservoir.py``, in its order. Arguments are trusted;
    :func:`run` and :func:`step` check them.

    The steps run in chunks of up to ``_NOISE_CHUNK``: a chunk's input
    products and noise are formed in one call each (per seed), its rows
    are copied past the washout in one slice, and only the
    feedback-dependent ufuncs run per step, each passed its output by
    position and its constants as 0-d arrays.
    """
    g, length = inputs.shape
    lead = params[0]
    v, eps, sigma = lead.num_nodes, lead.coupling, lead.noise_sigma
    two_term = lead.filter_mode == "two_term"
    out = np.empty((g, length - washout, v + 1))
    out[:, :, v] = 1.0

    # The per-step buffers are node-major, (V, G) per step with the G
    # reservoirs innermost, so every per-step operand, the per-row alpha
    # and gain included, is one contiguous block and a node's predecessor
    # sits one block of G entries earlier.
    chunk = min(_NOISE_CHUNK, length)
    input_weights = (np.array([p.beta for p in params])[:, None] * masks).T
    alpha, gain = np.empty((v, g)), np.empty((v, g))
    alpha[...] = [p.alpha for p in params]
    # the gain multiply is exact, so skip it when every row's gain is 1
    mix_to_row = two_term and all(p.gain_c == 1.0 for p in params)
    gain[...] = [p.gain_c if two_term else p.gain_c * (1.0 - eps) for p in params]
    phi = np.empty((chunk, v, g))
    # a chunk's rows; the last slot holds the start state's measurements
    # and carries the previous chunk's last row into the next chunk's first step
    rows = np.zeros((chunk, v, g))
    noise = np.zeros((chunk, v, g))
    feedback = np.empty((v, g))
    sines = np.empty((v, g))
    mixed = np.empty((v, g))
    # eps * sin of a chunk's steps: step j writes nodes [j*V + 1,
    # (j+1)*V + 1), so its predecessor terms are the adjacent nodes
    # [j*V, (j+1)*V); node 0 holds the previous chunk's last one, or the start's
    ring = np.zeros((chunk * v + 1, g))
    carry = np.zeros((1, g))  # low-pass state of the "full" filter
    taps, poles = np.array([1.0]), np.array([1.0, -eps])  # its arrays, as lfilter passes them
    if state is not None:  # the start's feedback, first predecessor term and low-pass state
        rows[-1], ring[0], carry[0] = state[0].T, eps * state[1], state[1]

    # one generator per distinct seed, and the columns its draws go to
    streams: dict[int, list[int]] = {}
    for col, p in enumerate(params if sigma > 0.0 else ()):
        streams.setdefault(p.seed, []).append(col)
    generators = generators or {}
    rngs = [(generators.get(seed) or np.random.default_rng(seed), cols)
            for seed, cols in streams.items()]
    views = [(phi[j], rows[j - 1], rows[j], ring[j * v:(j + 1) * v],
              ring[j * v + 1:(j + 1) * v + 1], noise[j]) for j in range(chunk)]

    mul, add, sin = np.multiply, np.add, np.sin
    eps_0d, keep_0d = np.array(eps), np.array(1.0 - eps)
    for k0 in range(0, length, chunk):
        steps = min(chunk, length - k0)
        mul(input_weights, inputs[:, k0:k0 + steps].T[:, None, :], phi[:steps])
        for rng, cols in rngs:
            noise[:steps, :, cols] = rng.normal(0.0, sigma, (steps, v, 1))
        for phi_j, prev, row, predecessors, eps_sines, noise_j in views[:steps]:
            mul(alpha, prev, feedback)
            add(phi_j, feedback, phi_j)
            sin(phi_j, sines)
            if two_term:
                mul(eps_0d, sines, eps_sines)
                mul(keep_0d, sines, mixed)
                if mix_to_row:
                    add(predecessors, mixed, row)
                else:
                    add(predecessors, mixed, mixed)
                    mul(gain, mixed, row)
            else:
                mul(gain, sines, mixed)
                row[...], _ = _sigtools._linear_filter(taps, poles, mixed, 0, eps * carry)
                carry[0] = row[-1]
            if rngs:
                add(row, noise_j, row)
        ring[0] = ring[-1]
        first = max(k0, washout)
        if first < k0 + steps:
            out[:, first - washout:k0 + steps - washout, :v] = \
                rows[first - k0:steps].transpose(2, 0, 1)
    if state is not None:
        state[0][...], state[1][...] = rows[steps - 1].T, sines[-1] if two_term else carry[0]
    return out
