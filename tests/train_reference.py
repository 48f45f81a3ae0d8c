"""Per-array reference for relu.train: one array per layer's weights and
biases, a gradient pass that also computes the loss (and recomputes each
hidden ReLU), a momentum step one array at a time, and out-of-place
metrics.

Its arithmetic is the one relu.train must reproduce bit for bit.  The mask
projection sets off-mask weights to 0.0, as relu's does.
"""

import numpy as np

from sparse_closure.relu import DIVERGENCE_NORM, StackTrace, TrainingTrace


def preactivations(weights, biases, x):
    zs = [weights[0] @ x + biases[0][..., None]]
    for w, b in zip(weights[1:], biases[1:]):
        zs.append(w @ np.maximum(zs[-1], 0.0) + b[..., None])
    return zs


def loss_and_grad(weights, biases, masks, x, y):
    """(loss, weight gradients, bias gradients) of the mean squared error."""
    depth = len(weights)
    pre = preactivations(weights, biases, x)
    residual = pre[-1] - y
    denom = y.shape[-2] * y.shape[-1]
    loss = np.sum(residual**2, axis=(-2, -1)) / denom
    w_grads, b_grads = [None] * depth, [None] * depth
    delta = 2.0 * residual / denom
    for i in reversed(range(depth)):
        layer_input = np.maximum(pre[i - 1], 0.0) if i > 0 else x
        w_grads[i] = (delta @ layer_input.swapaxes(-1, -2)) * masks[i]
        b_grads[i] = delta.sum(axis=-1)
        if i > 0:
            delta = (weights[i].swapaxes(-1, -2) @ delta) * (pre[i - 1] > 0.0)
    return loss, w_grads, b_grads


def project_masks(weights, masks):
    for w, m in zip(weights, masks):
        w[..., ~m] = 0.0


def sgd_step(weights, biases, grads, velocity, masks, config):
    for p, g, v in zip(weights + biases, grads, velocity):
        v *= config.momentum
        v += g + config.weight_decay * p
        p -= config.learning_rate * v
    project_masks(weights, masks)


def metrics(weights, biases, x, y, a):
    out = preactivations(weights, biases, x)[-1]
    sq_err = np.sum((out - y) ** 2, axis=0)
    sq_norm = np.sum(y**2, axis=0)
    keep = sq_norm > 0.0
    rel_empirical = float(np.mean(sq_err[keep] / sq_norm[keep]))
    prod = weights[1] @ weights[0]
    rel_jacobian = float(np.sum((a - prod) ** 2) / float(np.sum(a**2)))
    return rel_empirical, rel_jacobian


def train(networks, inputs, target_matrix, config, rngs):
    """relu.train's contract: the networks' arrays end at the values of
    their last recorded epoch."""
    networks, rngs = list(networks), list(rngs)
    x = np.asarray(inputs, dtype=float)
    a = np.asarray(target_matrix, dtype=float)
    masks = networks[0].pattern.mask_arrays
    count, n0, n = x.shape
    samples = np.ascontiguousarray(x.swapaxes(1, 2)).reshape(count * n, n0)
    traces = [TrainingTrace() for _ in range(count)]
    live = np.arange(count)
    weights = [np.stack(ws) for ws in zip(*(net.weights for net in networks))]
    biases = [np.stack(bs) for bs in zip(*(net.biases for net in networks))]
    velocity = [np.zeros_like(p) for p in weights + biases]
    for _ in range(config.epochs):
        stay = np.ones(len(live), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.stack([rngs[s].permutation(n) for s in live]) + n * live[:, None]
            for start in range(0, n, config.batch_size):
                batch = samples.take(rows[:, start : start + config.batch_size], axis=0).swapaxes(1, 2)
                _, w_grads, b_grads = loss_and_grad(weights, biases, masks, batch, a @ batch)
                sgd_step(weights, biases, w_grads + b_grads, velocity, masks, config)
            for k, s in enumerate(live):
                network, data = networks[s], samples[s * n : (s + 1) * n].T
                for dst, src in zip(network.weights + network.biases, weights + biases):
                    dst[...] = src[k]
                rel_emp, rel_jac = metrics(network.weights, network.biases, data, a @ data, a)
                w1, w2 = (float(np.linalg.norm(w)) for w in network.weights)
                trace = traces[s]
                trace.rel_empirical.append(rel_emp)
                trace.rel_jacobian.append(rel_jac)
                trace.w1_norms.append(w1)
                trace.w2_norms.append(w2)
                stay[k] = w1 <= DIVERGENCE_NORM and w2 <= DIVERGENCE_NORM
                trace.diverged = not stay[k]
        if not stay.all():
            live = live[stay]
            weights, biases = [w[stay] for w in weights], [b[stay] for b in biases]
            velocity = [v[stay] for v in velocity]
            if not live.size:
                break
    return StackTrace(traces)
