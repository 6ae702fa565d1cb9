"""Scalar reference trainer: one model, one fold, one optimizer at a time.

Every candidate the search evaluates trains on the stacked
:class:`~repro.nn.batched.BatchedTrainer`, which holds a group of
same-topology runs in one parameter buffer and drives them through fused
GEMMs.  This module keeps the plain loop that trainer reproduces bit for bit:
the scalar forward + backward pass over one :class:`~repro.nn.mlp.MLP`
(:func:`backpropagate`), a mini-batch :class:`Trainer` built on it, the
per-tensor optimizers it steps, and the single-fold and k-fold protocols
built on them (:func:`evaluate_single_fold`, :func:`evaluate_kfold`).

The loss lives here too.  The stacked trainer needs only the analytic
softmax + cross-entropy gradient and computes no loss value, so the
reference alone takes a :mod:`~repro.nn.losses` loss (:func:`backpropagate`),
records each epoch's mean mini-batch loss (:class:`ReferenceHistory`) and
measures a model's loss over a dataset (:func:`evaluate_loss`).

It is the oracle, not a second training path: nothing under ``repro``
imports it.  The ``==`` test suites compare every stacked route against it,
and the benchmarks that time stacked training against a fold-by-fold loop
run it as that loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .activations import Softmax
from .evaluation import EvaluationResult, kfold_indices
from .losses import CategoricalCrossEntropy, Loss
from .metrics import accuracy
from .mlp import MLP, MLPSpec
from .preprocessing import StandardScaler, one_hot
from .training import TrainingConfig, TrainingHistory, _validation_count

__all__ = [
    "ReferenceHistory",
    "backpropagate",
    "evaluate_loss",
    "Optimizer",
    "SGD",
    "MomentumSGD",
    "RMSProp",
    "Adam",
    "get_optimizer",
    "available_optimizers",
    "Trainer",
    "evaluate_single_fold",
    "evaluate_kfold",
]


#: The loss both trainers train with (the stacked one through its analytic
#: gradient alone); losses are stateless, so one instance serves every call.
_CROSS_ENTROPY = CategoricalCrossEntropy()


@dataclass
class ReferenceHistory(TrainingHistory):
    """A :class:`TrainingHistory` that also records the training loss.

    ``train_loss`` holds the mean mini-batch loss of each epoch run.
    """

    train_loss: list[float] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        """Training loss at the last completed epoch."""
        if not self.train_loss:
            return float("nan")
        return self.train_loss[-1]


# ---------------------------------------------------------------- backward
def backpropagate(
    model: MLP,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss = _CROSS_ENTROPY,
) -> tuple[float, list[np.ndarray]]:
    """Forward + backward over one mini-batch: the batch loss and the gradients.

    ``targets`` are one-hot rows.  The gradients come in
    :meth:`~repro.nn.mlp.MLP.parameters` order ``[W0, b0, W1, b1, ...]``.
    With a softmax output and the categorical cross-entropy loss the loss
    gradient is already the logit gradient, so the output layer skips its
    activation derivative — the analytic shortcut the stacked trainer takes
    too.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        raise ValueError("targets must be one-hot encoded (2-D)")
    layer_input = np.asarray(inputs, dtype=float)
    if layer_input.ndim == 1:
        layer_input = layer_input.reshape(1, -1)
    # (input, pre-activation, output) of every layer, for the backward pass.
    trace: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for layer in model.layers:
        pre_activation = layer_input @ layer.weights
        if layer.use_bias:
            pre_activation = pre_activation + layer.bias
        output = layer.activation.forward(pre_activation)
        trace.append((layer_input, pre_activation, output))
        layer_input = output
    outputs = layer_input
    loss_value = loss.forward(outputs, targets)
    upstream = loss.gradient(outputs, targets)

    last = len(model.layers) - 1
    shortcut = isinstance(model.layers[last].activation, Softmax) and isinstance(
        loss, CategoricalCrossEntropy
    )
    gradients: list[np.ndarray] = []
    for index in range(last, -1, -1):
        layer = model.layers[index]
        layer_input, pre_activation, output = trace[index]
        if index == last and shortcut:
            delta = upstream
        else:
            delta = upstream * layer.activation.derivative(pre_activation, output=output)
        layer_gradients = [layer_input.T @ delta]
        if layer.use_bias:
            layer_gradients.append(delta.sum(axis=0))
        gradients[:0] = layer_gradients
        if index:
            upstream = delta @ layer.weights.T
    return float(loss_value), gradients


def evaluate_loss(
    model: MLP,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss = _CROSS_ENTROPY,
) -> float:
    """``model``'s mean ``loss`` over a dataset with one-hot ``targets``."""
    return float(loss.forward(model.forward(inputs), np.asarray(targets, dtype=float)))


# --------------------------------------------------------------- optimizers
# Optimizers keep their own per-parameter state keyed by the parameter's
# position in the model, so the same optimizer instance must not be shared
# across models.
class Optimizer:
    """Base class: applies parameter updates in place given gradients."""

    name: str = "optimizer"

    def __init__(self, learning_rate: float = 0.01) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self._step_count = 0

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        """Update ``parameters`` in place using ``gradients``."""
        if len(parameters) != len(gradients):
            raise ValueError(
                f"got {len(parameters)} parameters but {len(gradients)} gradients"
            )
        self._step_count += 1
        for index, (param, grad) in enumerate(zip(parameters, gradients)):
            if param.shape != grad.shape:
                raise ValueError(
                    f"parameter {index} shape {param.shape} does not match gradient shape {grad.shape}"
                )
            self._update(index, param, grad)

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def step_count(self) -> int:
        """Number of times :meth:`step` has been called."""
        return self._step_count

    def reset(self) -> None:
        """Forget all accumulated state (moments, velocities, step count)."""
        self._step_count = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(learning_rate={self.learning_rate})"


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    name = "sgd"

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        param -= self.learning_rate * grad


class MomentumSGD(Optimizer):
    """SGD with classical momentum."""

    name = "momentum"

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocities: dict[int, np.ndarray] = {}

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        velocity = self._velocities.get(index)
        if velocity is None or velocity.shape != param.shape:
            velocity = np.zeros_like(param)
        velocity = self.momentum * velocity - self.learning_rate * grad
        self._velocities[index] = velocity
        param += velocity

    def reset(self) -> None:
        super().reset()
        self._velocities.clear()


class RMSProp(Optimizer):
    """RMSProp: per-parameter learning rates from a moving average of squares."""

    name = "rmsprop"

    def __init__(self, learning_rate: float = 0.001, decay: float = 0.9, epsilon: float = 1e-8) -> None:
        super().__init__(learning_rate)
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.decay = float(decay)
        self.epsilon = float(epsilon)
        self._mean_squares: dict[int, np.ndarray] = {}

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        mean_square = self._mean_squares.get(index)
        if mean_square is None or mean_square.shape != param.shape:
            mean_square = np.zeros_like(param)
        mean_square = self.decay * mean_square + (1.0 - self.decay) * grad * grad
        self._mean_squares[index] = mean_square
        param -= self.learning_rate * grad / (np.sqrt(mean_square) + self.epsilon)

    def reset(self) -> None:
        super().reset()
        self._mean_squares.clear()


class Adam(Optimizer):
    """Adam optimizer with bias-corrected first and second moments."""

    name = "adam"

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._first_moments: dict[int, np.ndarray] = {}
        self._second_moments: dict[int, np.ndarray] = {}

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray) -> None:
        first = self._first_moments.get(index)
        second = self._second_moments.get(index)
        if first is None or first.shape != param.shape:
            first = np.zeros_like(param)
        if second is None or second.shape != param.shape:
            second = np.zeros_like(param)
        first = self.beta1 * first + (1.0 - self.beta1) * grad
        second = self.beta2 * second + (1.0 - self.beta2) * grad * grad
        self._first_moments[index] = first
        self._second_moments[index] = second
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        param -= self.learning_rate * corrected_first / (np.sqrt(corrected_second) + self.epsilon)

    def reset(self) -> None:
        super().reset()
        self._first_moments.clear()
        self._second_moments.clear()


_REGISTRY: dict[str, type[Optimizer]] = {
    SGD.name: SGD,
    MomentumSGD.name: MomentumSGD,
    RMSProp.name: RMSProp,
    Adam.name: Adam,
}


def available_optimizers() -> list[str]:
    """Return the sorted names of all registered optimizers."""
    return sorted(_REGISTRY)


def get_optimizer(name: str | Optimizer, **kwargs) -> Optimizer:
    """Resolve an optimizer by name, forwarding keyword arguments.

    Passing an :class:`Optimizer` instance returns it unchanged (keyword
    arguments are then rejected to avoid silently ignoring them).
    """
    if isinstance(name, Optimizer):
        if kwargs:
            raise ValueError("cannot pass keyword arguments together with an optimizer instance")
        return name
    key = str(name).strip().lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown optimizer {name!r}; available: {', '.join(available_optimizers())}"
        )
    return _REGISTRY[key](**kwargs)


# ------------------------------------------------------------------ trainer
class Trainer:
    """Trains an :class:`repro.nn.mlp.MLP` on a labelled dataset.

    The validation holdout is a split of row indices, not of rows: each
    mini-batch is gathered straight from the caller's matrix through the
    run's train indices, and only the small validation slice is copied, once.
    Each epoch's mean mini-batch categorical cross-entropy is recorded.
    """

    def __init__(self, config: TrainingConfig | None = None, seed: int | None = None) -> None:
        self.config = config or TrainingConfig()
        self._rng = np.random.default_rng(seed)

    def fit(
        self,
        model: MLP,
        features: np.ndarray,
        labels: np.ndarray,
        optimizer: Optimizer | None = None,
    ) -> ReferenceHistory:
        """Train ``model`` in place and return the per-epoch history.

        Parameters
        ----------
        model:
            The MLP to train; its weights are modified in place.
        features:
            2-D feature matrix, already preprocessed/standardized.
        labels:
            Integer class labels (one-hot encoding is performed internally).
        optimizer:
            Optional pre-built optimizer; by default one is constructed from
            the training configuration.
        """
        config = self.config
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels).reshape(-1).astype(int)
        if features.ndim != 2:
            raise ValueError(f"expected a 2-D feature matrix, got shape {features.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"features ({features.shape[0]} rows) and labels ({labels.shape[0]}) disagree"
            )
        if features.shape[1] != model.spec.input_size:
            raise ValueError(
                f"model expects {model.spec.input_size} features, data has {features.shape[1]}"
            )
        if labels.size and labels.max() >= model.spec.output_size:
            raise ValueError(
                f"labels contain class {labels.max()} but model has {model.spec.output_size} outputs"
            )

        if optimizer is None:
            optimizer = get_optimizer(config.optimizer, learning_rate=config.learning_rate)

        history = ReferenceHistory()
        start_time = time.perf_counter()

        num_samples = features.shape[0]
        val_count = _validation_count(config, num_samples)
        # The validation permutation is drawn first, before any epoch's.
        split = self._rng.permutation(num_samples) if val_count else np.arange(num_samples)
        val_idx, train_idx = split[:val_count], split[val_count:]
        encoded_labels = one_hot(labels, model.spec.output_size)
        val_x, val_y = features[val_idx], labels[val_idx]

        best_val_accuracy = -np.inf
        epochs_without_improvement = 0
        train_count = train_idx.shape[0]

        for epoch in range(config.epochs):
            epoch_idx = train_idx[self._rng.permutation(train_count)] if config.shuffle else train_idx
            epoch_losses: list[float] = []
            for start in range(0, train_count, config.batch_size):
                batch_idx = epoch_idx[start : start + config.batch_size]
                loss_value, gradients = backpropagate(
                    model, features[batch_idx], encoded_labels[batch_idx]
                )
                optimizer.step(model.parameters(), gradients)
                epoch_losses.append(loss_value)

            history.train_loss.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
            history.epochs_run = epoch + 1

            if val_count:
                val_accuracy = accuracy(model.predict(val_x), val_y)
                history.validation_accuracy.append(val_accuracy)
                if val_accuracy > best_val_accuracy + 1e-9:
                    best_val_accuracy = val_accuracy
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                if (
                    config.early_stopping_patience > 0
                    and epochs_without_improvement >= config.early_stopping_patience
                ):
                    history.stopped_early = True
                    break

        history.wall_time_seconds = time.perf_counter() - start_time
        return history


# -------------------------------------------------------------- evaluation
def _train_and_score(
    spec: MLPSpec,
    train_x: np.ndarray,
    train_y: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    training_config: TrainingConfig,
    seed: int | None,
    standardize: bool,
) -> tuple[float, ReferenceHistory]:
    """Train one model on one fold and return (test accuracy, history)."""
    if standardize:
        scaler = StandardScaler().fit(train_x)
        train_x = scaler.transform(train_x)
        test_x = scaler.transform(test_x)
    model = MLP(spec, seed=seed)
    trainer = Trainer(training_config, seed=seed)
    history = trainer.fit(model, train_x, train_y)
    score = accuracy(model.predict(test_x), test_y)
    return score, history


def evaluate_single_fold(
    spec: MLPSpec,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    training_config: TrainingConfig | None = None,
    seed: int | None = None,
    standardize: bool = True,
) -> EvaluationResult:
    """Train on the given train split and report accuracy on the test split.

    The scalar reference of
    :func:`~repro.nn.evaluation.evaluate_single_fold_batch`.
    """
    training_config = training_config or TrainingConfig()
    start = time.perf_counter()
    score, history = _train_and_score(
        spec,
        np.asarray(train_features, dtype=float),
        np.asarray(train_labels).reshape(-1),
        np.asarray(test_features, dtype=float),
        np.asarray(test_labels).reshape(-1),
        training_config,
        seed,
        standardize,
    )
    elapsed = time.perf_counter() - start
    return EvaluationResult(
        accuracy=score,
        fold_accuracies=[score],
        train_seconds=elapsed,
        parameter_count=spec.parameter_count,
        histories=[history],
    )


def evaluate_kfold(
    spec: MLPSpec,
    features: np.ndarray,
    labels: np.ndarray,
    num_folds: int = 10,
    training_config: TrainingConfig | None = None,
    seed: int | None = None,
    standardize: bool = True,
) -> EvaluationResult:
    """k-fold cross-validated accuracy of one MLP specification, fold by fold.

    The scalar reference of :func:`~repro.nn.evaluation.evaluate_kfold_batch`:
    the same specification is retrained from scratch on every fold and the
    reported accuracy is the mean over folds.
    """
    training_config = training_config or TrainingConfig()
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels).reshape(-1)
    folds = kfold_indices(features.shape[0], num_folds, seed=seed)

    start = time.perf_counter()
    fold_accuracies: list[float] = []
    histories: list[ReferenceHistory] = []
    for fold_number, (train_idx, test_idx) in enumerate(folds):
        fold_seed = None if seed is None else seed + fold_number
        score, history = _train_and_score(
            spec,
            features[train_idx],
            labels[train_idx],
            features[test_idx],
            labels[test_idx],
            training_config,
            fold_seed,
            standardize,
        )
        fold_accuracies.append(score)
        histories.append(history)
    elapsed = time.perf_counter() - start

    return EvaluationResult(
        accuracy=float(np.mean(fold_accuracies)),
        fold_accuracies=fold_accuracies,
        train_seconds=elapsed,
        parameter_count=spec.parameter_count,
        histories=histories,
    )
