"""Fixed-support ReLU networks: realization, backprop, masked SGD, metrics,
and the first-layer normalization transform.

Training runs in float64.  The support masks are a hard invariant: off-mask
weight entries are exactly 0.0 after initialization and after every update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .patterns import SupportPattern

DIVERGENCE_NORM = 1e8


@dataclass
class NetworkParams:
    """Masked weights and biases for one network; mutated in place by training."""

    pattern: SupportPattern
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        # cached boolean masks: rebuilding them from index sets would dominate
        # the SGD inner loop
        self.mask_arrays = [self.pattern.mask_array(i) for i in range(self.pattern.depth)]

    def project_masks(self) -> None:
        for w, m in zip(self.weights, self.mask_arrays):
            w *= m

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            pattern=self.pattern,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


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


def _preactivations(params: NetworkParams, x: np.ndarray) -> list[np.ndarray]:
    """Pre-activations z_1, ..., z_L of a batch x of shape (N_0, P), each of
    shape (N_i, P).  ReLU applies between layers; z_L is the output."""
    zs = [params.weights[0] @ x + params.biases[0][:, None]]
    for w, b in zip(params.weights[1:], params.biases[1:]):
        zs.append(w @ np.maximum(zs[-1], 0.0) + b[:, None])
    return zs


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
    out = _preactivations(params, a[:, None] if single else a)[-1]
    return out[:, 0] if single else out


def activation_pattern(params: NetworkParams, x: np.ndarray):
    """Hidden activation indicators at x: (list of 0/1 vectors, boundary flag).

    A preactivation of exactly zero counts as inactive and raises the
    boundary flag; the Jacobian is not unique there.
    """
    hidden = [z[:, 0] for z in _preactivations(params, np.asarray(x, dtype=float)[:, None])[:-1]]
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


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def loss_and_grad(params: NetworkParams, inputs: np.ndarray, targets: np.ndarray):
    """Mean squared error over batch elements and output coordinates, with
    reverse-mode gradients masked to the pattern.

    Averaging over output coordinates as well as the batch keeps learning
    rates meaningful across output widths (the standard MSE convention).
    inputs is (N_0, P), targets (N_L, P), P >= 1.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("inputs and targets must be 2-d with matching batch size")
    if x.shape[1] == 0:
        raise ValueError("empty batch")
    depth = params.pattern.depth
    pre = _preactivations(params, x)
    residual = pre[-1] - y
    denom = y.size
    loss = float(np.sum(residual**2) / denom)

    w_grads = [None] * depth
    b_grads = [None] * depth
    delta = 2.0 * residual / denom
    for i in reversed(range(depth)):
        layer_input = np.maximum(pre[i - 1], 0.0) if i > 0 else x
        w_grads[i] = (delta @ layer_input.T) * params.mask_arrays[i]
        b_grads[i] = delta.sum(axis=1)
        if i > 0:
            delta = (params.weights[i].T @ delta) * (pre[i - 1] > 0.0)
    return loss, Gradients(weights=w_grads, biases=b_grads)


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 3000
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def zero_velocity(params: NetworkParams) -> Gradients:
    return Gradients(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )


def sgd_step(
    params: NetworkParams,
    grads: Gradients,
    velocity: Gradients,
    config: TrainingConfig,
) -> None:
    """One momentum step with standard (coupled) weight decay:
    v <- momentum v + grad + decay p;  p <- p - lr v;  then mask projection."""
    for p, g, v in zip(params.weights, grads.weights, velocity.weights):
        v *= config.momentum
        v += g + config.weight_decay * p
        p -= config.learning_rate * v
    for p, g, v in zip(params.biases, grads.biases, velocity.biases):
        v *= config.momentum
        v += g + config.weight_decay * p
        p -= config.learning_rate * v
    params.project_masks()


def metrics(params: NetworkParams, inputs, targets, target_matrix) -> tuple[float, float]:
    """(relative empirical loss, relative Jacobian loss) for two-layer nets.

    Relative empirical: mean over samples of |R(x_i) - y_i|^2 / |y_i|^2,
    samples with y_i = 0 excluded.  Relative Jacobian:
    |A - W_2 W_1|_F^2 / |A|_F^2, the all-active-regime distance between the
    realized and target linear maps.
    """
    if params.pattern.depth != 2:
        raise ValueError("metrics are defined for two-layer networks")
    a = np.asarray(target_matrix, dtype=float)
    a_norm_sq = float(np.sum(a**2))
    if a_norm_sq == 0.0:
        raise ValueError("target matrix is zero: relative Jacobian loss undefined")
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    out = forward(params, x)
    sq_err = np.sum((out - y) ** 2, axis=0)
    sq_norm = np.sum(y**2, axis=0)
    keep = sq_norm > 0.0
    if not np.any(keep):
        raise ValueError("all targets are zero: relative empirical loss undefined")
    rel_empirical = float(np.mean(sq_err[keep] / sq_norm[keep]))
    prod = params.weights[1] @ params.weights[0]
    rel_jacobian = float(np.sum((a - prod) ** 2) / a_norm_sq)
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

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,rel_empirical,rel_jacobian,frob_W1,frob_W2\n")
            for e in range(len(self)):
                fh.write(
                    f"{e + 1},{self.rel_empirical[e]!r},{self.rel_jacobian[e]!r},"
                    f"{self.w1_norms[e]!r},{self.w2_norms[e]!r}\n"
                )


def train(
    params: NetworkParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    target_matrix: np.ndarray,
    config: TrainingConfig,
    rng: np.random.Generator,
) -> TrainingTrace:
    """Epoch loop of shuffled minibatch SGD; params are updated in place.

    Metrics are recorded on the full dataset after every epoch.  If any
    weight norm is non-finite or passes the divergence guard the trace is
    flagged and training halts cleanly.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    n = x.shape[1]
    velocity = zero_velocity(params)
    trace = TrainingTrace()
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = loss_and_grad(params, x[:, idx], y[:, idx])
            sgd_step(params, grads, velocity, config)
        rel_emp, rel_jac = metrics(params, x, y, target_matrix)
        w1 = float(np.linalg.norm(params.weights[0]))
        w2 = float(np.linalg.norm(params.weights[1]))
        trace.rel_empirical.append(rel_emp)
        trace.rel_jacobian.append(rel_jac)
        trace.w1_norms.append(w1)
        trace.w2_norms.append(w2)
        # NaN compares false, so non-finite norms trip the guard as well
        if not (w1 <= DIVERGENCE_NORM and w2 <= DIVERGENCE_NORM):
            trace.diverged = True
            break
    return trace


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
    if bound <= 0:
        raise ValueError("bound must be positive")
    out = params.copy()
    w1, b1 = out.weights[0], out.biases[0]
    w2, b2 = out.weights[1], out.biases[1]
    cap = bound * np.sqrt(params.pattern.input_dim)
    mask_rows = [
        sorted(c for r, c in params.pattern.masks[0] if r == i)
        for i in range(params.pattern.dims[1])
    ]
    for i in range(params.pattern.dims[1]):
        norm = float(np.linalg.norm(w1[i, :]))
        if norm == 0.0:
            b2 += w2[:, i] * max(b1[i], 0.0)
            w2[:, i] = 0.0
            if mask_rows[i]:
                w1[i, mask_rows[i][0]] = 1.0
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
