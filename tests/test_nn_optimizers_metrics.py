"""Unit tests for the reference optimizers (repro.nn.reference) and repro.nn.metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    error_rate,
    macro_f1,
    precision_recall_f1,
    top_k_accuracy,
)
from repro.nn.reference import SGD, Adam, MomentumSGD, RMSProp, available_optimizers, get_optimizer


def quadratic_loss_and_grad(params: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Simple convex objective sum((p - 3)^2) with its gradient."""
    loss = sum(float(np.sum((p - 3.0) ** 2)) for p in params)
    grads = [2.0 * (p - 3.0) for p in params]
    return loss, grads


class TestOptimizers:
    @pytest.mark.parametrize("name", ["sgd", "momentum", "rmsprop", "adam"])
    def test_converges_on_quadratic(self, name):
        params = [np.zeros((3, 2)), np.zeros(4)]
        optimizer = get_optimizer(name, learning_rate=0.1)
        for _ in range(500):
            _, grads = quadratic_loss_and_grad(params)
            optimizer.step(params, grads)
        final_loss, _ = quadratic_loss_and_grad(params)
        assert final_loss < 1e-2

    def test_sgd_update_rule(self):
        params = [np.array([1.0, 2.0])]
        SGD(learning_rate=0.5).step(params, [np.array([2.0, 4.0])])
        np.testing.assert_allclose(params[0], [0.0, 0.0])

    def test_step_count_increments(self):
        optimizer = Adam()
        params = [np.zeros(2)]
        for expected in range(1, 4):
            optimizer.step(params, [np.ones(2)])
            assert optimizer.step_count == expected

    def test_reset_clears_state(self):
        optimizer = MomentumSGD(learning_rate=0.1, momentum=0.9)
        params = [np.zeros(2)]
        optimizer.step(params, [np.ones(2)])
        optimizer.reset()
        assert optimizer.step_count == 0
        assert optimizer._velocities == {}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SGD().step([np.zeros(2)], [])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            SGD().step([np.zeros(2)], [np.zeros(3)])

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)
        with pytest.raises(ValueError):
            MomentumSGD(momentum=1.0)
        with pytest.raises(ValueError):
            RMSProp(decay=1.5)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)

    def test_registry(self):
        assert set(available_optimizers()) == {"sgd", "momentum", "rmsprop", "adam"}
        instance = Adam()
        assert get_optimizer(instance) is instance
        with pytest.raises(ValueError):
            get_optimizer(instance, learning_rate=0.1)
        with pytest.raises(ValueError):
            get_optimizer("lbfgs")

    def test_adam_bias_correction_first_step_magnitude(self):
        """On the first step Adam moves by roughly the learning rate."""
        params = [np.array([0.0])]
        Adam(learning_rate=0.001).step(params, [np.array([10.0])])
        assert params[0][0] == pytest.approx(-0.001, rel=1e-3)


class TestMetrics:
    def test_accuracy_with_labels(self):
        assert accuracy(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.75

    def test_accuracy_with_probability_matrix(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(probs, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_error_rate_complements_accuracy(self):
        predictions = np.array([0, 1, 2, 2])
        targets = np.array([0, 1, 1, 2])
        assert error_rate(predictions, targets) == pytest.approx(1 - accuracy(predictions, targets))

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))

    def test_top_k_accuracy(self):
        probs = np.array(
            [
                [0.5, 0.3, 0.2],
                [0.1, 0.2, 0.7],
                [0.4, 0.35, 0.25],
            ]
        )
        targets = np.array([1, 2, 2])
        assert top_k_accuracy(probs, targets, k=1) == pytest.approx(1 / 3)
        assert top_k_accuracy(probs, targets, k=2) == pytest.approx(2 / 3)
        assert top_k_accuracy(probs, targets, k=3) == 1.0

    def test_confusion_matrix_counts(self):
        predictions = np.array([0, 1, 1, 2, 2, 2])
        targets = np.array([0, 1, 2, 2, 2, 0])
        matrix = confusion_matrix(predictions, targets, num_classes=3)
        assert matrix[0, 0] == 1
        assert matrix[2, 1] == 1
        assert matrix[2, 2] == 2
        assert matrix[0, 2] == 1
        assert matrix.sum() == 6

    def test_precision_recall_f1_perfect(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        scores = precision_recall_f1(labels, labels, num_classes=3)
        np.testing.assert_allclose(scores["precision"], 1.0)
        np.testing.assert_allclose(scores["recall"], 1.0)
        np.testing.assert_allclose(scores["f1"], 1.0)
        assert macro_f1(labels, labels, num_classes=3) == 1.0

    def test_precision_handles_missing_predictions(self):
        predictions = np.array([0, 0, 0])
        targets = np.array([0, 1, 2])
        scores = precision_recall_f1(predictions, targets, num_classes=3)
        assert scores["precision"][1] == 0.0
        assert scores["recall"][0] == 1.0
