import numpy as np
import pytest

from sparse_closure.patterns import SupportPattern, dense_pattern, lu_pattern
from sparse_closure.relu import (
    Gradients,
    NetworkParams,
    TrainingConfig,
    activation_pattern,
    forward,
    init_params,
    jacobian_at,
    loss_and_grad,
    metrics,
    normalize_first_layer,
    sgd_step,
    train,
    zero_velocity,
)

FD_STEP = 1e-6
PREACT_MARGIN = 1e-3


def single_neuron_params(w, b1, w2, b2):
    pattern = dense_pattern((1, 1, 1))
    return NetworkParams(
        pattern=pattern,
        weights=[np.array([[float(w)]]), np.array([[float(w2)]])],
        biases=[np.array([float(b1)]), np.array([float(b2)])],
    )


def random_two_layer_params(rng, max_dim=8):
    n0 = int(rng.integers(1, max_dim + 1))
    n1 = int(rng.integers(1, max_dim + 1))
    n2 = int(rng.integers(1, max_dim + 1))
    masks = []
    for shape in ((n1, n0), (n2, n1)):
        mask = frozenset(
            (r, c)
            for r in range(shape[0])
            for c in range(shape[1])
            if rng.random() < 0.7
        )
        masks.append(mask)
    pattern = SupportPattern(dims=(n0, n1, n2), masks=tuple(masks))
    return init_params(pattern, rng)


def draw_off_boundary(rng, params, batch=4):
    """Inputs whose hidden preactivations keep a safe margin from zero, so
    central differences never cross a kink."""
    n0 = params.pattern.input_dim
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, size=(n0, batch))
        z = params.weights[0] @ x + params.biases[0][:, None]
        if np.all(np.abs(z) > PREACT_MARGIN):
            return x
    raise AssertionError("could not sample clear of activation boundaries")


def fd_gradients(params, x, y):
    """Central finite differences of the loss through every parameter entry."""
    base = params.copy()
    grads = Gradients(
        weights=[np.zeros_like(w) for w in base.weights],
        biases=[np.zeros_like(b) for b in base.biases],
    )

    def loss_at(p):
        return loss_and_grad(p, x, y)[0]

    for li, w in enumerate(base.weights):
        for idx in np.ndindex(w.shape):
            if not base.mask_arrays[li][idx]:
                continue
            probe = base.copy()
            probe.weights[li][idx] += FD_STEP
            up = loss_at(probe)
            probe = base.copy()
            probe.weights[li][idx] -= FD_STEP
            down = loss_at(probe)
            grads.weights[li][idx] = (up - down) / (2 * FD_STEP)
    for li, b in enumerate(base.biases):
        for i in range(b.size):
            probe = base.copy()
            probe.biases[li][i] += FD_STEP
            up = loss_at(probe)
            probe = base.copy()
            probe.biases[li][i] -= FD_STEP
            down = loss_at(probe)
            grads.biases[li][i] = (up - down) / (2 * FD_STEP)
    return grads


def relative_gradient_error(analytic, numeric):
    flat_a = np.concatenate(
        [w.ravel() for w in analytic.weights] + [b.ravel() for b in analytic.biases]
    )
    flat_n = np.concatenate(
        [w.ravel() for w in numeric.weights] + [b.ravel() for b in numeric.biases]
    )
    scale = max(float(np.linalg.norm(flat_n)), 1e-12)
    return float(np.linalg.norm(flat_a - flat_n)) / scale


class TestForward:
    def test_all_zero_parameters(self):
        params = init_params(lu_pattern(3), np.random.default_rng(0))
        for w in params.weights:
            w[:] = 0.0
        for b in params.biases:
            b[:] = 0.0
        assert np.array_equal(forward(params, np.ones(3)), np.zeros(3))

    def test_relu_kills_negative_preactivation(self):
        params = single_neuron_params(1.0, 0.0, 1.0, 0.0)
        assert forward(params, np.array([-2.0])) == pytest.approx([0.0])

    def test_identity_on_positive_side(self):
        params = single_neuron_params(1.0, 0.0, 1.0, 0.0)
        assert forward(params, np.array([3.0])) == pytest.approx([3.0])

    def test_batched_matches_single(self):
        rng = np.random.default_rng(44)
        params = random_two_layer_params(rng)
        xs = rng.uniform(-1, 1, size=(params.pattern.input_dim, 5))
        batched = forward(params, xs)
        for j in range(5):
            assert np.allclose(batched[:, j], forward(params, xs[:, j]), atol=1e-14)

    def test_positive_homogeneity_per_neuron(self):
        rng = np.random.default_rng(9)
        params = random_two_layer_params(rng)
        n1 = params.pattern.dims[1]
        scaled = params.copy()
        c = 3.7
        i = int(rng.integers(0, n1))
        scaled.weights[0][i, :] *= c
        scaled.biases[0][i] *= c
        scaled.weights[1][:, i] /= c
        for _ in range(20):
            x = rng.uniform(-2, 2, size=params.pattern.input_dim)
            a, b = forward(params, x), forward(scaled, x)
            assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(a))


class TestJacobian:
    def test_all_active_is_weight_product(self):
        rng = np.random.default_rng(1)
        params = random_two_layer_params(rng)
        params.biases[0][:] = 10.0  # every neuron active on the unit ball
        x = rng.uniform(-0.5, 0.5, size=params.pattern.input_dim)
        assert np.array_equal(jacobian_at(params, x), params.weights[1] @ params.weights[0])

    def test_dead_neuron_gives_zero(self):
        params = single_neuron_params(1.0, 0.0, 1.0, 0.0)
        assert np.array_equal(jacobian_at(params, np.array([-1.0])), [[0.0]])

    def test_factorization_structure(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            params = random_two_layer_params(rng)
            x = rng.uniform(-1, 1, size=params.pattern.input_dim)
            diags, _ = activation_pattern(params, x)
            expected = params.weights[1] @ np.diag(diags[0]) @ params.weights[0]
            assert np.array_equal(jacobian_at(params, x), expected)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            params = random_two_layer_params(rng)
            try:
                x = draw_off_boundary(rng, params, batch=1)[:, 0]
            except AssertionError:
                continue
            jac = jacobian_at(params, x)
            num = np.zeros_like(jac)
            for j in range(x.size):
                up, down = x.copy(), x.copy()
                up[j] += FD_STEP
                down[j] -= FD_STEP
                num[:, j] = (forward(params, up) - forward(params, down)) / (2 * FD_STEP)
            scale = max(np.linalg.norm(num), 1e-12)
            assert np.linalg.norm(jac - num) / scale < 1e-5
            checked += 1

    def test_boundary_flag(self):
        params = single_neuron_params(1.0, 0.0, 1.0, 0.0)
        _, boundary = activation_pattern(params, np.array([0.0]))
        assert boundary is True
        _, boundary = activation_pattern(params, np.array([1.0]))
        assert boundary is False


class TestLossAndGrad:
    def test_exact_fit_gives_zero(self):
        params = single_neuron_params(1.0, 0.0, 1.0, 0.0)
        x = np.array([[1.0, 2.0]])
        loss, grads = loss_and_grad(params, x, x)
        assert loss == 0.0
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    def test_hand_chain_rule_single_neuron(self):
        # all-active 1-1-1 network, one sample: out = w2 (w1 x + b1) + b2,
        # loss = (out - y)^2, so d/dw2 = 2 r h, d/db2 = 2 r,
        # d/dw1 = 2 r w2 x, d/db1 = 2 r w2
        w1, b1, w2, b2 = 1.5, 0.2, -0.7, 0.3
        x_val, y_val = 0.9, -1.0
        params = single_neuron_params(w1, b1, w2, b2)
        h = w1 * x_val + b1
        r = (w2 * h + b2) - y_val
        loss, grads = loss_and_grad(params, np.array([[x_val]]), np.array([[y_val]]))
        assert loss == pytest.approx(r**2, rel=1e-12)
        assert grads.weights[1][0, 0] == pytest.approx(2 * r * h, rel=1e-12)
        assert grads.biases[1][0] == pytest.approx(2 * r, rel=1e-12)
        assert grads.weights[0][0, 0] == pytest.approx(2 * r * w2 * x_val, rel=1e-12)
        assert grads.biases[0][0] == pytest.approx(2 * r * w2, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            params = random_two_layer_params(rng, max_dim=6)
            try:
                x = draw_off_boundary(rng, params)
            except AssertionError:
                continue
            y = rng.uniform(-1, 1, size=(params.pattern.output_dim, x.shape[1]))
            _, analytic = loss_and_grad(params, x, y)
            numeric = fd_gradients(params, x, y)
            assert relative_gradient_error(analytic, numeric) < 1e-5
            checked += 1

    def test_gradients_masked(self):
        rng = np.random.default_rng(6)
        params = random_two_layer_params(rng)
        x = rng.uniform(-1, 1, size=(params.pattern.input_dim, 3))
        y = rng.uniform(-1, 1, size=(params.pattern.output_dim, 3))
        _, grads = loss_and_grad(params, x, y)
        for li in range(2):
            off = ~params.mask_arrays[li]
            assert np.all(grads.weights[li][off] == 0.0)

    def test_empty_batch_rejected(self):
        params = single_neuron_params(1, 0, 1, 0)
        with pytest.raises(ValueError, match="empty"):
            loss_and_grad(params, np.zeros((1, 0)), np.zeros((1, 0)))


class TestSgdStep:
    def test_zero_grad_zero_decay_is_identity(self):
        rng = np.random.default_rng(7)
        params = random_two_layer_params(rng)
        before = params.copy()
        grads = Gradients(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )
        sgd_step(params, grads, zero_velocity(params), TrainingConfig())
        for w, w0 in zip(params.weights, before.weights):
            assert np.array_equal(w, w0)

    def test_plain_gradient_descent(self):
        params = single_neuron_params(1.0, 0.0, 1.0, 0.0)
        grads = Gradients(
            weights=[np.array([[2.0]]), np.array([[4.0]])],
            biases=[np.array([1.0]), np.array([3.0])],
        )
        config = TrainingConfig(momentum=0.0, weight_decay=0.0, learning_rate=0.1)
        sgd_step(params, grads, zero_velocity(params), config)
        assert params.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 2.0)
        assert params.weights[1][0, 0] == pytest.approx(1.0 - 0.1 * 4.0)
        assert params.biases[0][0] == pytest.approx(-0.1)
        assert params.biases[1][0] == pytest.approx(-0.3)

    def test_momentum_and_decay_update(self):
        params = single_neuron_params(1.0, 0.0, 1.0, 0.0)
        velocity = zero_velocity(params)
        grads = Gradients(
            weights=[np.array([[1.0]]), np.array([[0.0]])],
            biases=[np.array([0.0]), np.array([0.0])],
        )
        config = TrainingConfig(momentum=0.5, weight_decay=0.1, learning_rate=1.0)
        sgd_step(params, grads, velocity, config)
        # v = 0.5*0 + 1 + 0.1*1 = 1.1; w = 1 - 1.1 = -0.1
        assert params.weights[0][0, 0] == pytest.approx(-0.1)
        sgd_step(params, grads, velocity, config)
        # v = 0.5*1.1 + 1 + 0.1*(-0.1) = 1.54; w = -0.1 - 1.54 = -1.64
        assert params.weights[0][0, 0] == pytest.approx(-1.64)

    def test_off_mask_perturbation_projected_back(self):
        rng = np.random.default_rng(8)
        params = init_params(lu_pattern(3), rng)
        params.weights[0][2, 0] = 5.0  # off the upper-triangular mask
        grads = Gradients(
            weights=[np.zeros((3, 3)), np.zeros((3, 3))],
            biases=[np.zeros(3), np.zeros(3)],
        )
        sgd_step(params, grads, zero_velocity(params), TrainingConfig())
        assert params.weights[0][2, 0] == 0.0

    def test_mask_invariance_across_training_steps(self):
        rng = np.random.default_rng(10)
        params = init_params(lu_pattern(4), rng)
        velocity = zero_velocity(params)
        config = TrainingConfig(momentum=0.9, weight_decay=1e-3, learning_rate=0.05)
        x = rng.uniform(-1, 1, size=(4, 16))
        y = rng.uniform(-1, 1, size=(4, 16))
        off = [~params.mask_arrays[i] for i in range(2)]
        for _ in range(50):
            _, grads = loss_and_grad(params, x, y)
            sgd_step(params, grads, velocity, config)
            for li in range(2):
                assert np.all(params.weights[li][off[li]] == 0.0)


class TestMetrics:
    def _exact_linear_net(self, rng, d=3):
        # all-active construction realizing x -> Ax exactly on [-1,1]^d
        pattern = dense_pattern((d, d, d))
        w1 = rng.uniform(-1, 1, size=(d, d))
        a = rng.uniform(-1, 1, size=(d, d))
        w2 = a @ np.linalg.inv(w1)
        b1 = np.full(d, float(np.abs(w1).sum(axis=1).max()) + 1.0)
        params = NetworkParams(
            pattern=pattern, weights=[w1, w2], biases=[b1, -(w2 @ b1)]
        )
        return params, a

    def test_exact_realization_gives_zero_zero(self):
        rng = np.random.default_rng(11)
        params, a = self._exact_linear_net(rng)
        x = rng.uniform(-1, 1, size=(3, 40))
        rel_emp, rel_jac = metrics(params, x, a @ x, a)
        assert rel_emp == pytest.approx(0.0, abs=1e-22)
        assert rel_jac == pytest.approx(0.0, abs=1e-22)

    def test_zero_product_gives_relative_one(self):
        params = single_neuron_params(0.0, 0.0, 0.0, 0.0)
        a = np.array([[2.0]])
        x = np.array([[1.0, -1.0]])
        _, rel_jac = metrics(params, x, a @ x, a)
        assert rel_jac == 1.0

    def test_rel_jacobian_matches_independent_computation(self):
        rng = np.random.default_rng(12)
        params = random_two_layer_params(rng)
        d_in, d_out = params.pattern.input_dim, params.pattern.output_dim
        a = rng.uniform(-1, 1, size=(d_out, d_in))
        x = rng.uniform(-1, 1, size=(d_in, 10))
        y = a @ x
        keep = np.sum(y**2, axis=0) > 0
        if not keep.any():
            pytest.skip("degenerate draw")
        _, rel_jac = metrics(params, x, y, a)
        # independent path: norm-based instead of sum-based
        prod = params.weights[1] @ params.weights[0]
        expected = np.linalg.norm(a - prod) ** 2 / np.linalg.norm(a) ** 2
        assert rel_jac == pytest.approx(expected, rel=1e-12)

    def test_zero_targets_excluded_from_empirical_mean(self):
        params = single_neuron_params(1.0, 1.0, 1.0, 0.0)
        a = np.array([[1.0]])
        x = np.array([[0.0, 1.0]])  # first target is exactly zero
        rel_emp, _ = metrics(params, x, a @ x, a)
        out = forward(params, np.array([1.0]))[0]
        assert rel_emp == pytest.approx((out - 1.0) ** 2, rel=1e-12)

    def test_zero_target_matrix_rejected(self):
        params = single_neuron_params(1, 0, 1, 0)
        with pytest.raises(ValueError, match="zero"):
            metrics(params, np.array([[1.0]]), np.array([[1.0]]), np.zeros((1, 1)))


class TestNormalizeFirstLayer:
    def test_unit_row_small_bias_unchanged(self):
        pattern = dense_pattern((2, 1, 1))
        params = NetworkParams(
            pattern=pattern,
            weights=[np.array([[0.6, 0.8]]), np.array([[2.0]])],
            biases=[np.array([0.5]), np.array([0.1])],
        )
        result = normalize_first_layer(params, bound=1.0)
        assert np.array_equal(result.weights[0], params.weights[0])
        assert np.array_equal(result.biases[0], params.biases[0])
        assert np.array_equal(result.weights[1], params.weights[1])

    def test_scaled_row_rebalanced(self):
        pattern = dense_pattern((2, 1, 1))
        params = NetworkParams(
            pattern=pattern,
            weights=[np.array([[4.2, 5.6]]), np.array([[2.0]])],  # norm 7
            biases=[np.array([1.4]), np.array([0.1])],
        )
        result = normalize_first_layer(params, bound=1.0)
        assert result.weights[0][0] == pytest.approx([0.6, 0.8])
        assert result.biases[0][0] == pytest.approx(0.2)
        assert result.weights[1][0, 0] == pytest.approx(14.0)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.uniform(-1, 1, size=2)
            a, b = forward(params, x), forward(result, x)
            assert np.linalg.norm(a - b) <= 1e-9 * max(1.0, np.linalg.norm(a))

    def test_zero_row_substitution(self):
        pattern = dense_pattern((2, 2, 1))
        params = NetworkParams(
            pattern=pattern,
            weights=[np.array([[0.0, 0.0], [0.3, 0.4]]), np.array([[2.5, 1.0]])],
            biases=[np.array([1.0, 0.0]), np.array([0.25])],
        )
        result = normalize_first_layer(params, bound=1.0)
        # dead neuron: unit row installed, output column zeroed, bias folded
        assert np.linalg.norm(result.weights[0][0]) == pytest.approx(1.0)
        assert result.weights[0][0, 0] == 1.0
        assert result.weights[1][0, 0] == 0.0
        assert result.biases[1][0] == pytest.approx(0.25 + 2.5 * 1.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(-1, 1, size=2)
            assert forward(params, x) == pytest.approx(forward(result, x), abs=1e-12)

    def test_zero_row_with_negative_bias_folds_nothing(self):
        pattern = dense_pattern((1, 1, 1))
        params = NetworkParams(
            pattern=pattern,
            weights=[np.array([[0.0]]), np.array([[3.0]])],
            biases=[np.array([-2.0]), np.array([0.5])],
        )
        result = normalize_first_layer(params, bound=1.0)
        assert result.biases[1][0] == 0.5

    def test_large_bias_saturates_and_differs_outside(self):
        pattern = dense_pattern((1, 1, 1))
        big = 50.0
        params = NetworkParams(
            pattern=pattern,
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([big]), np.array([0.0])],
        )
        bound = 1.0
        result = normalize_first_layer(params, bound=bound)
        assert abs(result.biases[0][0]) <= bound * 1.0 + 1e-15
        for x_val in (-1.0, -0.3, 0.4, 1.0):
            x = np.array([x_val])
            assert forward(params, x) == pytest.approx(forward(result, x), abs=1e-12)
        # outside the domain, where the original neuron is active but the
        # saturated one has shut off, the realizations part ways
        outside = np.array([-2.0])
        assert not np.allclose(forward(params, outside), forward(result, outside))

    def test_realization_preserved_on_random_nets(self):
        rng = np.random.default_rng(13)
        bound = 2.0
        for trial in range(20):
            params = random_two_layer_params(rng, max_dim=5)
            n1 = params.pattern.dims[1]
            if trial % 3 == 0:
                params.weights[0][int(rng.integers(0, n1)), :] = 0.0
            if trial % 4 == 0:
                params.biases[0][int(rng.integers(0, n1))] = 40.0 * rng.choice([-1, 1])
            result = normalize_first_layer(params, bound=bound)
            for i in range(n1):
                row_norm = np.linalg.norm(result.weights[0][i])
                has_support = any(r == i for r, _ in params.pattern.masks[0])
                if has_support:
                    assert row_norm == pytest.approx(1.0, rel=1e-12)
            xs = rng.uniform(-bound, bound, size=(params.pattern.input_dim, 1000))
            a, b = forward(params, xs), forward(result, xs)
            denom = np.maximum(np.linalg.norm(a, axis=0), 1.0)
            assert np.all(np.linalg.norm(a - b, axis=0) / denom <= 1e-9)

    def test_supports_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            params = random_two_layer_params(rng, max_dim=5)
            result = normalize_first_layer(params, bound=1.0)
            for li in range(2):
                off = ~params.mask_arrays[li]
                assert np.all(result.weights[li][off] == 0.0)


class TestTrain:
    def test_trace_lengths_and_reproducibility(self):
        pattern = lu_pattern(3)
        config = TrainingConfig(batch_size=8, epochs=5, seed=0)
        a = np.fliplr(np.eye(3))

        def run():
            rng = np.random.default_rng(99)
            x = rng.uniform(-1, 1, size=(3, 64))
            y = a @ x
            params = init_params(pattern, rng)
            return train(params, x, y, a, config, rng)

        t1, t2 = run(), run()
        assert len(t1) == 5 and not t1.diverged
        assert t1.rel_jacobian == t2.rel_jacobian
        assert t1.w1_norms == t2.w1_norms

    def test_divergence_guard_halts(self):
        pattern = lu_pattern(2)
        config = TrainingConfig(batch_size=4, epochs=50, learning_rate=1e9, momentum=0.0)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(2, 8))
        a = np.fliplr(np.eye(2))
        params = init_params(pattern, rng)
        trace = train(params, x, a @ x, a, config, rng)
        assert trace.diverged is True
        assert len(trace) < 50

    def test_non_finite_weight_trips_guard(self):
        pattern = lu_pattern(3)
        config = TrainingConfig(batch_size=8, epochs=5, seed=0)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(3, 32))
        a = np.fliplr(np.eye(3))
        params = init_params(pattern, rng)
        params.weights[0][0, 0] = np.nan
        trace = train(params, x, a @ x, a, config, rng)
        assert trace.diverged is True
        assert len(trace) == 1

    def test_trace_csv_format(self, tmp_path):
        pattern = lu_pattern(2)
        config = TrainingConfig(batch_size=4, epochs=3, seed=1)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(2, 16))
        a = np.fliplr(np.eye(2))
        params = init_params(pattern, rng)
        trace = train(params, x, a @ x, a, config, rng)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,rel_empirical,rel_jacobian,frob_W1,frob_W2"
        assert len(lines) == 4
