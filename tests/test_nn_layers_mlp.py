"""Unit tests for repro.nn.layers and repro.nn.mlp."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import DenseLayer, GemmShape
from repro.nn.losses import CategoricalCrossEntropy
from repro.nn.mlp import MLP, MLPSpec
from repro.nn.preprocessing import one_hot


class TestGemmShape:
    def test_flops_formula(self):
        shape = GemmShape(m=4, k=10, n=6)
        assert shape.flops == 2 * 4 * 10 * 6

    def test_byte_accounting(self):
        shape = GemmShape(m=2, k=3, n=5)
        assert shape.input_bytes == 4 * (2 * 3 + 3 * 5)
        assert shape.output_bytes == 4 * 2 * 5

    def test_with_batch(self):
        shape = GemmShape(m=1, k=8, n=4).with_batch(64)
        assert (shape.m, shape.k, shape.n) == (64, 8, 4)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_dimensions(self, bad):
        with pytest.raises(ValueError):
            GemmShape(m=bad, k=1, n=1)


class TestDenseLayer:
    def test_forward_shape_and_bias(self, rng):
        layer = DenseLayer(4, 3, activation="identity")
        layer.initialize(rng)
        layer.set_parameters([np.ones((4, 3)), np.full(3, 2.0)])
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out, 6.0)

    def test_forward_without_bias(self, rng):
        layer = DenseLayer(4, 3, activation="identity", use_bias=False)
        layer.initialize(rng)
        layer.set_parameters([np.ones((4, 3))])
        np.testing.assert_allclose(layer.forward(np.ones((2, 4))), 4.0)
        assert layer.bias is None

    def test_forward_rejects_wrong_feature_count(self, rng):
        layer = DenseLayer(4, 3)
        layer.initialize(rng)
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 5)))

    def test_forward_before_initialize_raises(self):
        with pytest.raises(RuntimeError):
            DenseLayer(2, 2).forward(np.ones((1, 2)))

    def test_backward_requires_training_forward(self, rng):
        layer = DenseLayer(3, 2)
        layer.initialize(rng)
        layer.forward(np.ones((1, 3)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_parameter_count(self):
        assert DenseLayer(10, 5).parameter_count == 10 * 5 + 5
        assert DenseLayer(10, 5, use_bias=False).parameter_count == 50

    def test_gradient_matches_finite_difference(self, rng):
        layer = DenseLayer(3, 2, activation="tanh")
        layer.initialize(rng)
        inputs = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))

        layer.forward(inputs, training=True)
        layer.backward(upstream)
        analytic = layer.grad_weights.copy()

        eps = 1e-6
        numeric = np.zeros_like(layer.weights)
        for i in range(3):
            for j in range(2):
                original = layer.weights[i, j]
                layer.weights[i, j] = original + eps
                up = np.sum(layer.forward(inputs) * upstream)
                layer.weights[i, j] = original - eps
                down = np.sum(layer.forward(inputs) * upstream)
                layer.weights[i, j] = original
                numeric[i, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_gemm_shape_reflects_layer_dimensions(self):
        layer = DenseLayer(128, 64)
        shape = layer.gemm_shape(batch_size=32)
        assert (shape.m, shape.k, shape.n) == (32, 128, 64)


class TestMLPSpec:
    def test_layer_sizes_and_parameter_count(self):
        spec = MLPSpec(input_size=10, output_size=3, hidden_sizes=(8, 4), activations=("relu", "tanh"))
        assert spec.layer_sizes == (10, 8, 4, 3)
        assert spec.num_layers == 3
        assert spec.parameter_count == (10 * 8 + 8) + (8 * 4 + 4) + (4 * 3 + 3)
        assert spec.total_neurons == 8 + 4 + 3

    def test_single_activation_broadcasts(self):
        spec = MLPSpec(input_size=4, output_size=2, hidden_sizes=(8, 8, 8), activations=("relu",))
        assert spec.activations == ("relu", "relu", "relu")

    def test_gemm_shapes_chain_dimensions(self):
        spec = MLPSpec(input_size=20, output_size=2, hidden_sizes=(64, 32), activations=("relu", "relu"))
        shapes = spec.gemm_shapes(batch_size=16)
        assert [(s.m, s.k, s.n) for s in shapes] == [(16, 20, 64), (16, 64, 32), (16, 32, 2)]

    def test_flops_per_sample(self):
        spec = MLPSpec(input_size=20, output_size=2, hidden_sizes=(10,), activations=("relu",))
        assert spec.flops_per_sample() == 2 * (20 * 10 + 10 * 2)

    def test_round_trip_dict(self):
        spec = MLPSpec(input_size=7, output_size=4, hidden_sizes=(32,), activations=("elu",), use_bias=False)
        assert MLPSpec.from_dict(spec.to_dict()) == spec

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            MLPSpec(input_size=0, output_size=2)
        with pytest.raises(ValueError):
            MLPSpec(input_size=4, output_size=2, hidden_sizes=(0,))
        with pytest.raises(ValueError):
            MLPSpec(input_size=4, output_size=2, hidden_sizes=(8, 8), activations=("relu", "tanh", "elu"))
        with pytest.raises(ValueError):
            MLPSpec(input_size=4, output_size=2, hidden_sizes=(8,), activations=("nonexistent",))


class TestMLP:
    def test_forward_produces_probabilities(self, small_mlp_spec):
        model = MLP(small_mlp_spec, seed=0)
        out = model.predict_proba(np.random.default_rng(0).normal(size=(6, 12)))
        assert out.shape == (6, 2)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-6)

    def test_predict_returns_labels_in_range(self, small_mlp_spec):
        model = MLP(small_mlp_spec, seed=0)
        labels = model.predict(np.random.default_rng(1).normal(size=(10, 12)))
        assert labels.shape == (10,)
        assert set(np.unique(labels)) <= {0, 1}

    def test_train_step_reduces_loss_on_fixed_batch(self, small_mlp_spec, rng):
        model = MLP(small_mlp_spec, seed=3)
        x = rng.normal(size=(32, 12))
        y = one_hot((rng.random(32) > 0.5).astype(int), 2)
        from repro.nn.reference import Adam

        optimizer = Adam(learning_rate=0.01)
        first_loss = model.train_step(x, y)
        for _ in range(30):
            model.train_step(x, y)
            optimizer.step(model.parameters(), model.gradients())
        final_loss = model.evaluate_loss(x, y)
        assert final_loss < first_loss

    def test_train_step_rejects_integer_labels(self, small_mlp_spec, rng):
        model = MLP(small_mlp_spec, seed=0)
        with pytest.raises(ValueError):
            model.train_step(rng.normal(size=(4, 12)), np.array([0, 1, 0, 1]))

    def test_parameter_count_matches_spec(self, small_mlp_spec):
        model = MLP(small_mlp_spec, seed=0)
        assert model.parameter_count == small_mlp_spec.parameter_count

    def test_same_seed_gives_same_initial_weights(self, small_mlp_spec, rng):
        x = rng.normal(size=(3, 12))
        out_a = MLP(small_mlp_spec, seed=42).predict_proba(x)
        out_b = MLP(small_mlp_spec, seed=42).predict_proba(x)
        np.testing.assert_array_equal(out_a, out_b)

    def test_loss_gradient_shortcut_consistency(self, rng):
        """Softmax+CE analytic gradient must equal the chain-rule numeric gradient."""
        spec = MLPSpec(input_size=5, output_size=3, hidden_sizes=(6,), activations=("tanh",))
        model = MLP(spec, seed=1)
        x = rng.normal(size=(8, 5))
        y = one_hot(rng.integers(0, 3, size=8), 3)
        model.train_step(x, y)
        analytic = [g.copy() for g in model.gradients()]

        eps = 1e-6
        loss_fn = CategoricalCrossEntropy()
        params = model.parameters()
        for param, grad in zip(params, analytic):
            flat_param = param.reshape(-1)
            flat_grad = grad.reshape(-1)
            for idx in range(0, flat_param.size, max(1, flat_param.size // 5)):
                original = flat_param[idx]
                flat_param[idx] = original + eps
                up = loss_fn.forward(model.forward(x), y)
                flat_param[idx] = original - eps
                down = loss_fn.forward(model.forward(x), y)
                flat_param[idx] = original
                numeric = (up - down) / (2 * eps)
                assert flat_grad[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-6)
