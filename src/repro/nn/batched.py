"""Batched (population-level) MLP training on stacked 3-D tensors.

The evolutionary search evaluates whole populations, and same-topology
candidates run the exact same sequence of GEMMs — only their weights, shuffle
orders and early-stopping trajectories differ.  This module stacks a group of
same-spec models into ``(group, fan_in, fan_out)`` weight tensors and drives
one fused forward/backward per mini-batch with ``np.matmul`` broadcasting over
the group dimension, so BLAS sees one call per layer instead of one per
candidate.

Bit-compatibility contract
--------------------------
:class:`BatchedTrainer` reproduces :class:`repro.nn.training.Trainer`
*bit-for-bit* given the same per-candidate seeds:

* weight init comes from per-candidate :class:`~repro.nn.mlp.MLP`
  construction (the stacked tensors are copies of the scalar layers),
* each candidate owns its own ``np.random.default_rng(seed)`` whose
  consumption order (validation split first, then one permutation per active
  epoch) matches the scalar trainer exactly,
* batched ``matmul`` over a stacked, C-contiguous group dispatches to the
  same per-slice BLAS GEMM as the 2-D path, and every other op (bias add,
  activations, clipped-log loss, optimizer updates) is element-wise,
* early-stopped candidates are frozen out of the active set: they stop
  consuming RNG draws and optimizer updates at exactly the same epoch as the
  scalar loop, and all still-active candidates always share the same
  optimizer step count (they start together and process identical batch
  counts), so the group-global Adam bias correction equals the per-candidate
  one.

Only wall-clock fields (``TrainingHistory.wall_time_seconds``) differ from
the scalar path.
"""

from __future__ import annotations

import time

import numpy as np

from .activations import Softmax
from .losses import _EPSILON
from .metrics import accuracy
from .mlp import MLP, MLPSpec
from .preprocessing import one_hot
from .training import TrainingConfig, TrainingHistory

__all__ = ["StackedMLPGroup", "BatchedTrainer", "train_and_score_batch"]


#: Activation bytes one layer of a stacked prediction may hold before
#: :meth:`StackedMLPGroup.predict_members` splits the group into blocks.
_PREDICT_BLOCK_BYTES = 2 << 20


# --------------------------------------------------------------- optimizers
class _BatchedOptimizer:
    """Group-stacked mirror of :class:`repro.nn.optimizers.Optimizer`.

    Parameters are the full ``(group, ...)`` stacks; gradients arrive for the
    active rows only and updates are scattered back onto those rows, leaving
    early-stopped candidates untouched — exactly as if their per-candidate
    optimizer had simply stopped being stepped.  ``rows`` may be a
    ``slice(None)`` when every run is still active, which turns the
    gather/scatter into in-place view arithmetic on the full stacks.
    """

    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = float(learning_rate)
        self._step_count = 0

    def step(
        self,
        parameters: list[np.ndarray],
        gradients: list[np.ndarray],
        rows: np.ndarray | slice,
    ) -> None:
        self._step_count += 1
        for index, (param, grad) in enumerate(zip(parameters, gradients)):
            self._update(index, param, grad, rows)

    def _update(
        self, index: int, param: np.ndarray, grad: np.ndarray, rows: np.ndarray | slice
    ) -> None:
        raise NotImplementedError

    def _state(self, store: dict, index: int, param: np.ndarray) -> np.ndarray:
        state = store.get(index)
        if state is None or state.shape != param.shape:
            state = np.zeros_like(param)
            store[index] = state
        return state


class _BatchedSGD(_BatchedOptimizer):
    def _update(self, index: int, param: np.ndarray, grad: np.ndarray, rows: np.ndarray) -> None:
        param[rows] = param[rows] - self.learning_rate * grad


class _BatchedMomentumSGD(_BatchedOptimizer):
    def __init__(self, learning_rate: float, momentum: float = 0.9) -> None:
        super().__init__(learning_rate)
        self.momentum = float(momentum)
        self._velocities: dict[int, np.ndarray] = {}

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray, rows: np.ndarray) -> None:
        store = self._state(self._velocities, index, param)
        velocity = self.momentum * store[rows] - self.learning_rate * grad
        store[rows] = velocity
        param[rows] = param[rows] + velocity


class _BatchedRMSProp(_BatchedOptimizer):
    def __init__(self, learning_rate: float, decay: float = 0.9, epsilon: float = 1e-8) -> None:
        super().__init__(learning_rate)
        self.decay = float(decay)
        self.epsilon = float(epsilon)
        self._mean_squares: dict[int, np.ndarray] = {}

    def _update(self, index: int, param: np.ndarray, grad: np.ndarray, rows: np.ndarray) -> None:
        store = self._state(self._mean_squares, index, param)
        mean_square = self.decay * store[rows] + (1.0 - self.decay) * grad * grad
        store[rows] = mean_square
        param[rows] = param[rows] - self.learning_rate * grad / (np.sqrt(mean_square) + self.epsilon)


class _BatchedAdam(_BatchedOptimizer):
    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._first_moments: dict[int, np.ndarray] = {}
        self._second_moments: dict[int, np.ndarray] = {}

    def _update(
        self, index: int, param: np.ndarray, grad: np.ndarray, rows: np.ndarray | slice
    ) -> None:
        first_store = self._state(self._first_moments, index, param)
        second_store = self._state(self._second_moments, index, param)
        if isinstance(rows, slice):
            # Full-group fast path: update the moment stacks in place with the
            # same operation sequence (and therefore the same floats) as the
            # gather/scatter branch, skipping most temporaries.
            np.multiply(first_store, self.beta1, out=first_store)
            first_store += (1.0 - self.beta1) * grad
            np.multiply(second_store, self.beta2, out=second_store)
            second_store += (1.0 - self.beta2) * grad * grad
            first, second = first_store, second_store
        else:
            first = self.beta1 * first_store[rows] + (1.0 - self.beta1) * grad
            second = self.beta2 * second_store[rows] + (1.0 - self.beta2) * grad * grad
            first_store[rows] = first
            second_store[rows] = second
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        np.sqrt(corrected_second, out=corrected_second)
        corrected_second += self.epsilon
        np.multiply(corrected_first, self.learning_rate, out=corrected_first)
        corrected_first /= corrected_second
        param[rows] = param[rows] - corrected_first


_BATCHED_OPTIMIZERS: dict[str, type[_BatchedOptimizer]] = {
    "sgd": _BatchedSGD,
    "momentum": _BatchedMomentumSGD,
    "rmsprop": _BatchedRMSProp,
    "adam": _BatchedAdam,
}


def _build_batched_optimizer(name: str, learning_rate: float) -> _BatchedOptimizer:
    key = str(name).strip().lower()
    if key not in _BATCHED_OPTIMIZERS:
        raise ValueError(
            f"unknown optimizer {name!r}; available: {', '.join(sorted(_BATCHED_OPTIMIZERS))}"
        )
    return _BATCHED_OPTIMIZERS[key](learning_rate=learning_rate)


# ------------------------------------------------------------- stacked model
class StackedMLPGroup:
    """A group of same-spec MLPs stacked along a leading group dimension.

    Weight tensors are ``(group, fan_in, fan_out)`` and biases ``(group,
    fan_out)``; initial values are copied from per-candidate
    :class:`~repro.nn.mlp.MLP` instances so they match the scalar path
    exactly.  Activation/loss instances are stateless and shared.
    """

    def __init__(self, spec: MLPSpec, seeds: list[int | None]) -> None:
        if not seeds:
            raise ValueError("a stacked group needs at least one member")
        self.spec = spec
        self.group_size = len(seeds)
        models = [MLP(spec, seed=seed) for seed in seeds]
        template = models[0]
        self.activations = [layer.activation for layer in template.layers]
        self.use_bias = spec.use_bias
        self.weights = [
            np.stack([model.layers[i].weights for model in models])
            for i in range(len(template.layers))
        ]
        self.biases = (
            [
                np.stack([model.layers[i].bias for model in models])
                for i in range(len(template.layers))
            ]
            if self.use_bias
            else None
        )
        # The softmax + cross-entropy analytic shortcut, as MLP.train_step.
        self.softmax_output = isinstance(self.activations[-1], Softmax)

    @property
    def num_layers(self) -> int:
        return len(self.activations)

    def parameters(self) -> list[np.ndarray]:
        """Stacked parameters in the scalar per-model order [W0, b0, W1, b1, ...]."""
        params: list[np.ndarray] = []
        for index in range(self.num_layers):
            params.append(self.weights[index])
            if self.use_bias:
                params.append(self.biases[index])
        return params

    # ------------------------------------------------------------- forward
    def forward(
        self,
        inputs: np.ndarray,
        rows: np.ndarray | slice | None = None,
        training: bool = False,
    ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Fused forward pass over ``(rows, samples, features)`` inputs.

        ``inputs`` may also be a single 2-D ``(samples, features)`` matrix
        shared by every selected row — matmul broadcasting then evaluates each
        row's weights against the same data without materializing copies.
        Returns the output activations and, when ``training``, the per-layer
        ``(last_input, pre_activation)`` caches the backward pass needs.
        """
        caches: list[tuple[np.ndarray, np.ndarray]] = []
        outputs = inputs
        for index, activation in enumerate(self.activations):
            weights = self.weights[index] if rows is None else self.weights[index][rows]
            pre_activation = outputs @ weights
            if self.use_bias:
                bias = self.biases[index] if rows is None else self.biases[index][rows]
                pre_activation = pre_activation + bias[:, None, :]
            if training:
                caches.append((outputs, pre_activation))
            outputs = activation.forward(pre_activation)
        return outputs, caches

    def predict(self, inputs: np.ndarray, rows: np.ndarray | slice | None = None) -> np.ndarray:
        """Per-candidate predicted labels, shape ``(rows, samples)``."""
        outputs, _ = self.forward(inputs, rows=rows, training=False)
        return np.argmax(outputs, axis=-1)

    def predict_members(self, inputs: np.ndarray, members: list[int]) -> np.ndarray:
        """Labels each of ``members`` predicts on its own slice of stacked ``inputs``.

        The same labels as ``predict(inputs[members], members)``, computed a
        block of members at a time so one layer's activations stay near
        ``_PREDICT_BLOCK_BYTES``: a tall split predicted for the whole group
        at once would hold ``group x samples x width`` floats per layer.
        Every member still goes through the same per-slice GEMMs.
        """
        widest = max(weights.shape[2] for weights in self.weights)
        block = max(1, _PREDICT_BLOCK_BYTES // (8 * inputs.shape[1] * widest))
        if block >= len(members):
            rows = slice(None) if len(members) == self.group_size else np.asarray(members)
            return self.predict(inputs[rows], rows)
        parts = []
        for start in range(0, len(members), block):
            rows = np.asarray(members[start : start + block])
            parts.append(self.predict(inputs[rows], rows))
        return np.concatenate(parts)

    # ---------------------------------------------------------- train step
    def train_step(
        self, inputs: np.ndarray, targets: np.ndarray, rows: np.ndarray | slice
    ) -> tuple[list[float], list[np.ndarray]]:
        """One fused forward + backward over a mini-batch of every active run.

        Returns the per-run batch losses and the gradients (active rows only)
        in :meth:`parameters` order.  This mirrors ``MLP.train_step`` with the
        categorical cross-entropy loss: clipped-log loss on the probabilities
        and the analytic ``(p - t) / batch`` logit gradient when the output
        activation is softmax.
        """
        outputs, caches = self.forward(inputs, rows=rows, training=True)
        batch_rows = outputs.shape[1]
        clipped = np.clip(outputs, _EPSILON, 1.0)
        per_sample = -np.sum(targets * np.log(clipped), axis=2)
        losses = [float(np.mean(per_sample[i])) for i in range(per_sample.shape[0])]
        gradient = (outputs - targets) / batch_rows

        grad_weights: list[np.ndarray | None] = [None] * self.num_layers
        grad_biases: list[np.ndarray | None] = [None] * self.num_layers
        upstream = gradient
        for index in range(self.num_layers - 1, -1, -1):
            last_input, pre_activation = caches[index]
            is_output = index == self.num_layers - 1
            if is_output and self.softmax_output:
                delta = upstream
            else:
                delta = upstream * self.activations[index].derivative(pre_activation)
            grad_weights[index] = last_input.swapaxes(1, 2) @ delta
            if self.use_bias:
                grad_biases[index] = delta.sum(axis=1)
            if index > 0:
                # The first layer's input gradient is never used; on wide
                # inputs it would cost as much as that layer's forward GEMM.
                weights = self.weights[index][rows]
                upstream = delta @ weights.swapaxes(1, 2)

        gradients: list[np.ndarray] = []
        for index in range(self.num_layers):
            gradients.append(grad_weights[index])
            if self.use_bias:
                gradients.append(grad_biases[index])
        return losses, gradients


# ------------------------------------------------------------------ trainer
class BatchedTrainer:
    """Trains a same-spec group of candidates with fused batched GEMMs.

    The public contract matches running :class:`~repro.nn.training.Trainer`
    once per candidate with that candidate's seed — see the module docstring
    for why the results are bit-identical.
    """

    def __init__(self, config: TrainingConfig | None = None) -> None:
        self.config = config or TrainingConfig()

    def fit(
        self,
        spec: MLPSpec,
        features_list: list[np.ndarray],
        labels_list: list[np.ndarray],
        seeds: list[int | None],
    ) -> tuple[StackedMLPGroup, list[TrainingHistory]]:
        """Train one stacked group; returns the group model and per-run histories.

        All runs must share the same (samples, features) shape — the batch
        evaluation layer groups runs by shape before calling this.
        """
        config = self.config
        if not (len(features_list) == len(labels_list) == len(seeds)):
            raise ValueError("features, labels and seeds must have equal lengths")
        group_size = len(seeds)
        if group_size == 0:
            raise ValueError("cannot train an empty group")

        # The pre-split hot path hands every run the *same* array objects
        # (one shared, preprocessed dataset); detect that before conversion so
        # the converted lists keep the sharing and the stacking below can use
        # zero-copy broadcast views instead of `group_size` copies.
        shared_inputs = all(x is features_list[0] for x in features_list) and all(
            y is labels_list[0] for y in labels_list
        )
        if shared_inputs:
            features_list = [np.asarray(features_list[0], dtype=float)] * group_size
            labels_list = [np.asarray(labels_list[0]).reshape(-1).astype(int)] * group_size
        else:
            features_list = [np.asarray(x, dtype=float) for x in features_list]
            labels_list = [np.asarray(y).reshape(-1).astype(int) for y in labels_list]
        first_shape = features_list[0].shape
        for features, labels in zip(features_list, labels_list):
            if features.ndim != 2:
                raise ValueError(f"expected a 2-D feature matrix, got shape {features.shape}")
            if features.shape != first_shape:
                raise ValueError(
                    f"all group members must share one feature shape; got {features.shape} "
                    f"and {first_shape}"
                )
            if features.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"features ({features.shape[0]} rows) and labels ({labels.shape[0]}) disagree"
                )
            if features.shape[1] != spec.input_size:
                raise ValueError(
                    f"model expects {spec.input_size} features, data has {features.shape[1]}"
                )
            if labels.size and labels.max() >= spec.output_size:
                raise ValueError(
                    f"labels contain class {labels.max()} but model has {spec.output_size} outputs"
                )

        histories = [TrainingHistory() for _ in range(group_size)]
        start_time = time.perf_counter()

        # Per-candidate RNG streams, consumed in the scalar trainer's order:
        # one permutation for the validation split, then one per active epoch.
        rngs = [np.random.default_rng(seed) for seed in seeds]
        split = self._split_validation(features_list, labels_list, rngs)
        if split is not None:
            stacked_train_x, stacked_train_y, stacked_val_x, stacked_val_y = split
        else:
            stacked_val_x = stacked_val_y = None
        # When every run trains on the same array objects (the shared
        # pre-split path — a validation split would have produced per-run
        # gathers), broadcast stride-0 views replace the stacked copies and
        # the one-hot encoding is computed once.  Every downstream op sees
        # identical values, so results stay bit-identical.
        if split is None and shared_inputs:
            base_train_x = features_list[0]
            base_encoded = one_hot(labels_list[0], spec.output_size)
            encoded_train_y = np.broadcast_to(
                base_encoded, (group_size, *base_encoded.shape)
            )
            stacked_train_x = np.broadcast_to(
                base_train_x, (group_size, *base_train_x.shape)
            )
            stacked_train_y = np.broadcast_to(
                labels_list[0], (group_size, *labels_list[0].shape)
            )
        else:
            base_train_x = None
            base_encoded = None
            if split is None:
                stacked_train_x = np.stack(features_list)
                stacked_train_y = np.stack(labels_list)
            encoded_train_y = np.stack([one_hot(y, spec.output_size) for y in stacked_train_y])

        model = StackedMLPGroup(spec, seeds)
        optimizer = _build_batched_optimizer(config.optimizer, config.learning_rate)

        best_val_accuracy = np.full(group_size, -np.inf)
        epochs_without_improvement = np.zeros(group_size, dtype=int)
        num_samples = stacked_train_x.shape[1]
        active = list(range(group_size))

        for epoch in range(config.epochs):
            if not active:
                break
            rows = np.asarray(active)
            # With every run active, a full slice turns per-step weight
            # gathers and optimizer scatters into view arithmetic.
            row_sel: np.ndarray | slice = (
                slice(None) if len(active) == group_size else rows
            )
            if config.shuffle:
                orders = np.stack([rngs[g].permutation(num_samples) for g in active])
            else:
                orders = np.broadcast_to(
                    np.arange(num_samples), (len(active), num_samples)
                )
            epoch_losses: dict[int, list[float]] = {g: [] for g in active}
            for start in range(0, num_samples, config.batch_size):
                batch_idx = orders[:, start : start + config.batch_size]
                if base_train_x is not None:
                    # Shared data: a single-axis gather from the 2-D base
                    # yields the same (active, batch, features) tensor as the
                    # two-axis gather from the stacked copies.
                    batch_x = base_train_x[batch_idx]
                    batch_t = base_encoded[batch_idx]
                else:
                    batch_x = stacked_train_x[rows[:, None], batch_idx]
                    batch_t = encoded_train_y[rows[:, None], batch_idx]
                losses, gradients = model.train_step(batch_x, batch_t, row_sel)
                optimizer.step(model.parameters(), gradients, row_sel)
                for position, g in enumerate(active):
                    epoch_losses[g].append(losses[position])

            if base_train_x is not None:
                train_predictions = model.predict(base_train_x, row_sel)
            else:
                train_predictions = model.predict_members(stacked_train_x, active)
            for position, g in enumerate(active):
                losses_g = epoch_losses[g]
                histories[g].train_loss.append(
                    float(np.mean(losses_g)) if losses_g else float("nan")
                )
                histories[g].train_accuracy.append(
                    accuracy(train_predictions[position], stacked_train_y[g])
                )
                histories[g].epochs_run = epoch + 1

            if stacked_val_x is not None:
                val_predictions = model.predict_members(stacked_val_x, active)
                stopped: set[int] = set()
                for position, g in enumerate(active):
                    val_accuracy = accuracy(val_predictions[position], stacked_val_y[g])
                    histories[g].validation_accuracy.append(val_accuracy)
                    if val_accuracy > best_val_accuracy[g] + 1e-9:
                        best_val_accuracy[g] = val_accuracy
                        epochs_without_improvement[g] = 0
                    else:
                        epochs_without_improvement[g] += 1
                    if (
                        config.early_stopping_patience > 0
                        and epochs_without_improvement[g] >= config.early_stopping_patience
                    ):
                        histories[g].stopped_early = True
                        stopped.add(g)
                if stopped:
                    active = [g for g in active if g not in stopped]

        wall_time = time.perf_counter() - start_time
        for history in histories:
            history.wall_time_seconds = wall_time
        return model, histories

    def _split_validation(
        self,
        features_list: list[np.ndarray],
        labels_list: list[np.ndarray],
        rngs: list[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Per-run validation holdout, mirroring ``Trainer._split_validation``.

        Returns the stacked ``(train_x, train_y, val_x, val_y)``, or ``None``
        when no validation split is taken.  Each run's rows are gathered
        straight into its slice of the stacks, so the split holds one copy of
        the group's data, not a per-run gather plus a stacked copy.
        """
        config = self.config
        if config.validation_fraction <= 0.0 or config.early_stopping_patience == 0:
            return None
        num_samples, num_features = features_list[0].shape
        val_count = int(round(config.validation_fraction * num_samples))
        if val_count < 1 or num_samples - val_count < 1:
            return None
        group_size = len(features_list)
        train_count = num_samples - val_count
        train_x = np.empty((group_size, train_count, num_features))
        val_x = np.empty((group_size, val_count, num_features))
        train_y = np.empty((group_size, train_count), dtype=labels_list[0].dtype)
        val_y = np.empty((group_size, val_count), dtype=labels_list[0].dtype)
        for g, (features, labels, rng) in enumerate(zip(features_list, labels_list, rngs)):
            order = rng.permutation(num_samples)
            val_idx, train_idx = order[:val_count], order[val_count:]
            np.take(features, train_idx, axis=0, out=train_x[g])
            np.take(labels, train_idx, axis=0, out=train_y[g])
            np.take(features, val_idx, axis=0, out=val_x[g])
            np.take(labels, val_idx, axis=0, out=val_y[g])
        return train_x, train_y, val_x, val_y


def train_and_score_batch(
    spec: MLPSpec,
    train_features: list[np.ndarray],
    train_labels: list[np.ndarray],
    test_features: list[np.ndarray],
    test_labels: list[np.ndarray],
    training_config: TrainingConfig | None = None,
    seeds: list[int | None] | None = None,
) -> list[tuple[float, TrainingHistory]]:
    """Train a same-spec, same-shape group and score each run on its test split.

    The batched mirror of ``repro.nn.evaluation._train_and_score`` (minus
    standardization, which the caller applies per run): returns one
    ``(test accuracy, history)`` pair per run, in input order, bit-identical
    to looping the scalar path with the same seeds.
    """
    if seeds is None:
        seeds = [None] * len(train_features)
    trainer = BatchedTrainer(training_config or TrainingConfig())
    model, histories = trainer.fit(spec, train_features, train_labels, seeds)
    if all(x is test_features[0] for x in test_features):
        # Shared test split: broadcast one 2-D matrix through every model.
        predictions = model.predict(np.asarray(test_features[0], dtype=float))
    else:
        stacked_test_x = np.stack([np.asarray(x, dtype=float) for x in test_features])
        predictions = model.predict_members(stacked_test_x, list(range(len(test_features))))
    scores = [
        accuracy(predictions[i], np.asarray(test_labels[i]).reshape(-1))
        for i in range(len(test_features))
    ]
    return list(zip(scores, histories))
