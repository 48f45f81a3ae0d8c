"""Fixed-support ReLU networks: realization, backprop, masked SGD, metrics,
and the first-layer normalization transform.

Training runs in float64.  The support masks are a hard invariant: off-mask
weight entries are exactly 0.0 after initialization and after every update.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .patterns import SupportPattern, _integer

DIVERGENCE_NORM = 1e8


@lru_cache(maxsize=32)
def _layout(pattern: SupportPattern):
    """(start, stop, shape) of each weight block, then of each bias block, in
    a network's flat parameter vector; its length; and the indices of its
    off-mask entries, all among the weights, which come first."""
    shapes = [pattern.layer_shape(i) for i in range(pattern.depth)]
    shapes += [(n_out,) for n_out, _ in shapes]
    blocks, stop = [], 0
    for shape in shapes:
        blocks.append((stop, stop + math.prod(shape), shape))
        stop += math.prod(shape)
    off = np.flatnonzero(np.concatenate([~mask.ravel() for mask in pattern.mask_arrays]))
    off.flags.writeable = False  # cached, so every bundle on the pattern shares it
    return tuple(blocks), stop, off


class NetworkParams:
    """Weights and biases of one network, or of a stack of S networks on one
    pattern, in one float64 buffer `flat` of shape (P,), or (S, P) for a
    stack: every layer's weights, then every layer's biases.  `weights`
    ((S,) N_out x N_in each) and `biases` ((S,) N_out each) are views into
    it, made once.  A bundle holds parameters (masked, mutated in place by
    training), their gradients or their momentum."""

    def __init__(self, pattern: SupportPattern, weights, biases):
        """The bundle holding copies of the given arrays."""
        lead = np.shape(weights[0])[:-2]
        arrays = [np.reshape(a, lead + (-1,)) for a in [*weights, *biases]]
        self._adopt(pattern, np.concatenate(arrays, axis=-1, dtype=float))

    def _adopt(self, pattern: SupportPattern, flat: np.ndarray) -> None:
        blocks, size, off = _layout(pattern)
        if flat.shape[-1:] != (size,) or not flat.flags.c_contiguous:
            raise ValueError(f"a bundle on dims {pattern.dims} needs a C-ordered (..., {size}) buffer")
        views = [flat[..., start:stop].reshape(flat.shape[:-1] + shape) for start, stop, shape in blocks]
        self.pattern, self.flat = pattern, flat
        self.weights, self.biases = views[: pattern.depth], views[pattern.depth :]
        # off-mask positions in the raveled buffer, one network after another
        self._off = (size * np.arange(flat.size // size)[:, None] + off).ravel()

    @classmethod
    def _on_buffer(cls, pattern: SupportPattern, flat: np.ndarray) -> "NetworkParams":
        """The bundle whose arrays are views into flat (not copied)."""
        params = cls.__new__(cls)
        params._adopt(pattern, flat)
        return params

    def project_masks(self) -> None:
        """Set every off-mask weight to 0.0 (a multiply by the mask would keep
        NaN and infinities as NaN)."""
        self.flat.reshape(-1)[self._off] = 0.0

    def map(self, fn) -> "NetworkParams":
        """The bundle on the same pattern whose buffer is fn of this one's."""
        return NetworkParams._on_buffer(self.pattern, fn(self.flat))

    def copy(self) -> "NetworkParams":
        return self.map(np.ndarray.copy)

    @classmethod
    def stack(cls, networks) -> "NetworkParams":
        """Networks on one pattern as one stack, in order (copied)."""
        return cls._on_buffer(networks[0].pattern, np.stack([n.flat for n in networks]))


def init_params(pattern: SupportPattern, rng: np.random.Generator, scale: float = 1.0) -> NetworkParams:
    """Uniform(-scale/sqrt(fan_in), +scale/sqrt(fan_in)) per layer, then masked."""
    weights, biases = [], []
    for i in range(pattern.depth):
        n_out, n_in = pattern.layer_shape(i)
        bound = scale / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(rng.uniform(-bound, bound, size=n_out))
    params = NetworkParams(pattern=pattern, weights=weights, biases=biases)
    params.project_masks()
    return params


def _forward(params: NetworkParams, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The hidden activations h_1, ..., h_{L-1} (after the ReLU) and the
    output z_L of a batch x of shape (N_0, P), each of shape (N_i, P), or
    (S, N_0, P) and (S, N_i, P) for a stack of S networks."""
    hidden = []
    z = params.weights[0] @ x
    z += params.biases[0][..., None]
    for w, b in zip(params.weights[1:], params.biases[1:]):
        hidden.append(np.maximum(z, 0.0, out=z))
        z = w @ z
        z += b[..., None]
    return hidden, z


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Network output for a single input (N_0,) or a batch (N_0, P).

    ReLU applies at the hidden layers only; the output layer is affine.
    """
    a = np.asarray(x, dtype=float)
    single = a.ndim == 1
    if a.ndim not in (1, 2) or a.shape[0] != params.pattern.input_dim:
        raise ValueError(
            f"input must be ({params.pattern.input_dim},) or "
            f"({params.pattern.input_dim}, P), got shape {a.shape}"
        )
    out = _forward(params, a[:, None] if single else a)[1]
    return out[:, 0] if single else out


def activation_pattern(params: NetworkParams, x: np.ndarray):
    """Hidden activation indicators at x: (list of 0/1 vectors, boundary flag).

    A preactivation of exactly zero counts as inactive and raises the
    boundary flag; the Jacobian is not unique there.
    """
    a, hidden = np.asarray(x, dtype=float)[:, None], []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = w @ a + b[:, None]
        hidden.append(z[:, 0])
        a = np.maximum(z, 0.0)
    boundary = any(bool(np.any(z == 0.0)) for z in hidden)
    return [(z > 0.0).astype(float) for z in hidden], boundary


def jacobian_at(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Jacobian of the realization on the linear piece containing x:
    W_L diag(D_{L-1}) ... diag(D_1) W_1, which always respects the product
    support.  Zero preactivations are treated as inactive (see
    activation_pattern for the boundary flag)."""
    diags, _ = activation_pattern(params, x)
    jac = params.weights[0]
    for i in range(1, params.pattern.depth):
        jac = params.weights[i] @ (diags[i - 1][:, None] * jac)
    return jac


def _backprop(params: NetworkParams, x: np.ndarray, y: np.ndarray, grads: NetworkParams, with_loss=False):
    """Write into grads the masked gradients of the mean squared error of a
    batch (x, y), shaped as in loss_and_grad; return the loss if asked for,
    else None.  Nothing is checked."""
    hidden, residual = _forward(params, x)
    residual -= y
    denom = y.shape[-2] * y.shape[-1]
    loss = np.sum(residual**2, axis=(-2, -1)) / denom if with_loss else None
    delta = residual
    delta *= 2.0
    delta /= denom
    for i in reversed(range(params.pattern.depth)):
        layer_input = hidden[i - 1] if i > 0 else x
        np.matmul(delta, layer_input.swapaxes(-1, -2), out=grads.weights[i])
        np.add.reduce(delta, axis=-1, out=grads.biases[i])
        if i > 0:
            delta = params.weights[i].swapaxes(-1, -2) @ delta
            delta *= layer_input > 0.0
    grads.project_masks()
    return loss


def loss_and_grad(params: NetworkParams, inputs: np.ndarray, targets: np.ndarray):
    """Mean squared error over batch elements and output coordinates, with
    reverse-mode gradients masked to the pattern, as a bundle on it.

    Averaging over output coordinates as well as the batch keeps learning
    rates meaningful across output widths (the standard MSE convention).
    inputs is (N_0, P), targets (N_L, P), P >= 1.  For a stack of S networks
    they are (S, N_0, P) and (S, N_L, P), network s sees batch s, and the
    loss is an array of the S networks' losses.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    ndim = params.weights[0].ndim
    if x.ndim != ndim or y.ndim != ndim or x.shape[-1] != y.shape[-1]:
        raise ValueError(
            "inputs and targets must be 2-d (3-d for a stack of networks) with matching batch size"
        )
    if x.shape[-1] == 0:
        raise ValueError("empty batch")
    grads = params.map(np.empty_like)
    loss = _backprop(params, x, y, grads, with_loss=True)
    return (float(loss) if ndim == 2 else loss), grads


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 3000
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "epochs", "seed"):
            _integer(getattr(self, name), name)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # chained comparisons are false for NaN, so NaN fails each check
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ValueError(f"weight_decay must be finite and nonnegative, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def sgd_step(
    params: NetworkParams,
    grads: NetworkParams,
    velocity: NetworkParams,
    config: TrainingConfig,
) -> None:
    """One momentum step with standard (coupled) weight decay:
    v <- momentum v + grad + decay p;  p <- p - lr v;  then mask projection.
    Elementwise over the bundles' buffers, so it steps a stack of networks
    as it steps one."""
    v, p = velocity.flat, params.flat
    v *= config.momentum
    v += grads.flat + config.weight_decay * p
    p -= config.learning_rate * v
    params.project_masks()


def metrics(params: NetworkParams, inputs, targets, target_matrix) -> tuple[float, float]:
    """(relative empirical loss, relative Jacobian loss) of one two-layer net.

    Relative empirical: mean over samples of |R(x_i) - y_i|^2 / |y_i|^2,
    samples with y_i = 0 excluded.  Relative Jacobian:
    |A - W_2 W_1|_F^2 / |A|_F^2, the all-active-regime distance between the
    realized and target linear maps.
    """
    if params.pattern.depth != 2:
        raise ValueError("metrics are defined for two-layer networks")
    a = np.asarray(target_matrix, dtype=float)
    with np.errstate(over="ignore"):
        a_norm_sq = float(np.sum(a**2))
    if not 0.0 < a_norm_sq < math.inf:  # nan included
        raise ValueError("target matrix is zero or its squared norm is not finite: "
                         "relative Jacobian loss undefined")
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    out = forward(params, x)
    out -= y
    sq_err = np.sum(np.square(out, out=out), axis=0)
    sq_norm = np.sum(y**2, axis=0)
    keep = sq_norm > 0.0
    if not np.any(keep):
        raise ValueError("all targets are zero: relative empirical loss undefined")
    rel_empirical = float(np.mean(sq_err[keep] / sq_norm[keep]))
    diff = params.weights[1] @ params.weights[0]
    np.subtract(a, diff, out=diff)
    rel_jacobian = float(np.sum(np.square(diff, out=diff)) / a_norm_sq)
    return rel_empirical, rel_jacobian


@dataclass
class TrainingTrace:
    """Per-epoch record of the two relative losses and the factor norms."""

    rel_empirical: list[float] = field(default_factory=list)
    rel_jacobian: list[float] = field(default_factory=list)
    w1_norms: list[float] = field(default_factory=list)
    w2_norms: list[float] = field(default_factory=list)
    diverged: bool = False

    def __len__(self) -> int:
        return len(self.rel_empirical)

    def columns(self) -> dict[str, list[float]]:
        """The recorded series under their CSV column names."""
        return {"rel_empirical": self.rel_empirical, "rel_jacobian": self.rel_jacobian,
                "frob_W1": self.w1_norms, "frob_W2": self.w2_norms}

    def write_csv(self, path) -> None:
        write_trace_csv(path, {"epoch": range(1, len(self) + 1), **self.columns()})


def write_trace_csv(path, columns: dict) -> None:
    """CSV of float and integer columns, the first an integer 'epoch'.
    Floats are written with repr, so that every value round-trips exactly."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(int(v)) for v in row) + "\n")


@dataclass
class StackTrace:
    """The traces of a stack of networks trained together, in stack order."""

    traces: list[TrainingTrace]

    def __len__(self) -> int:
        """Epochs the stack ran: those of its longest-training network."""
        return max(len(t) for t in self.traces)


def train(
    networks: Sequence[NetworkParams],
    inputs: np.ndarray,
    target_matrix: np.ndarray,
    config: TrainingConfig,
    rngs: Sequence[np.random.Generator],
) -> StackTrace:
    """Epoch loop of shuffled minibatch SGD toward the targets
    target_matrix @ x, for S networks on one pattern; one network is a list
    of one.  Inputs are (S, N_0, P): network s trains on inputs[s], on
    batches drawn from rngs[s].

    The networks take their steps together as one stack, so a network's
    trace does not depend on which others train with it.  Metrics are
    recorded per network on its full dataset after every epoch, and each
    network's arrays are updated in place to its values at that point.  A
    network whose weight norm is non-finite or passes the divergence guard
    has its trace flagged and leaves the stack, keeping the values of that
    epoch; the others train on.
    """
    networks, rngs = list(networks), list(rngs)
    x = np.asarray(inputs, dtype=float)
    count = len(networks)
    if not count or x.ndim != 3 or len(x) != count or len(rngs) != count:
        raise ValueError(f"expected inputs (S, N_0, P) and S generators for S = {count} networks")
    if any(net.pattern != networks[0].pattern for net in networks):
        raise ValueError("networks trained together must share one pattern")
    a = np.asarray(target_matrix, dtype=float)
    _, n0, n = x.shape
    # network s owns rows s*n .. s*n + n-1, so a batch of the stack is one take
    samples = np.ascontiguousarray(x.swapaxes(1, 2)).reshape(count * n, n0)
    traces = [TrainingTrace() for _ in range(count)]
    live = np.arange(count)
    stack = NetworkParams.stack(networks)
    velocity = stack.map(np.zeros_like)
    grads = stack.map(np.empty_like)
    for _ in range(config.epochs):
        stay = np.ones(len(live), dtype=bool)
        # overflow and NaN only arise in diverging networks, which the guard
        # below flags by their norms
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.stack([rngs[s].permutation(n) for s in live]) + n * live[:, None]
            for start in range(0, n, config.batch_size):
                batch = samples.take(rows[:, start : start + config.batch_size], axis=0).swapaxes(1, 2)
                _backprop(stack, batch, a @ batch, grads)
                sgd_step(stack, grads, velocity, config)
            for k, s in enumerate(live):
                network, data = networks[s], samples[s * n : (s + 1) * n].T
                network.flat[...] = stack.flat[k]
                rel_emp, rel_jac = metrics(network, data, a @ data, a)
                w1, w2 = (float(np.linalg.norm(w)) for w in network.weights)
                trace = traces[s]
                trace.rel_empirical.append(rel_emp)
                trace.rel_jacobian.append(rel_jac)
                trace.w1_norms.append(w1)
                trace.w2_norms.append(w2)
                # NaN compares false, so non-finite norms trip the guard as well
                stay[k] = w1 <= DIVERGENCE_NORM and w2 <= DIVERGENCE_NORM
                trace.diverged = not stay[k]
        if not stay.all():
            live = live[stay]
            if not live.size:
                break
            stack, velocity, grads = (b.map(lambda flat: flat[stay]) for b in (stack, velocity, grads))
    return StackTrace(traces)


def normalize_first_layer(params: NetworkParams, bound: float) -> NetworkParams:
    """Equivalent two-layer network whose first-layer rows have unit norm and
    whose hidden biases saturate at C = bound * sqrt(N_0).

    The realization is unchanged on [-bound, bound]^{N_0} (bias saturation is
    domain-dependent, so equality can fail outside).  Zero rows hand their
    constant contribution to the output bias and get a unit entry at their
    first allowed position; a zero row with an empty mask row has no position
    to use and stays zero, which is harmless since its output column is
    zeroed either way.
    """
    if params.pattern.depth != 2:
        raise ValueError("normalization is defined for two-layer networks")
    # NaN compares false, so it is refused with the non-positive bounds
    if not bound > 0:
        raise ValueError("bound must be positive")
    out = params.copy()
    w1, b1 = out.weights[0], out.biases[0]
    w2, b2 = out.weights[1], out.biases[1]
    cap = bound * np.sqrt(params.pattern.input_dim)
    for i, allowed in enumerate(params.pattern.mask_arrays[0]):
        norm = float(np.linalg.norm(w1[i, :]))
        if norm == 0.0:
            b2 += w2[:, i] * max(b1[i], 0.0)
            w2[:, i] = 0.0
            if allowed.any():
                w1[i, allowed.argmax()] = 1.0
            b1[i] = 0.0
            continue
        w1[i, :] /= norm
        b1[i] /= norm
        w2[:, i] *= norm
        if b1[i] > cap:
            b2 += (b1[i] - cap) * w2[:, i]
            b1[i] = cap
        elif b1[i] < -cap:
            b1[i] = -cap
    out.project_masks()
    return out
