"""Batched (population-level) MLP training on stacked 3-D tensors.

The evolutionary search evaluates whole populations, and same-topology
candidates run the exact same sequence of GEMMs — only their weights, shuffle
orders and early-stopping trajectories differ.  This module stacks a group of
same-spec models into ``(group, fan_in, fan_out)`` weight tensors and drives
one fused forward/backward per mini-batch with ``np.matmul`` broadcasting over
the group dimension, so BLAS sees one call per layer instead of one per
candidate.

Flat layout
-----------
A group keeps all its parameters in one ``(group, P)`` buffer, one row per
member in the scalar order ``[W0, b0, W1, b1, ...]``.  The per-layer weight
and bias stacks are views into it, so the gradients of a train step fill one
``(active, P)`` buffer and the optimizer makes one update per step over the
whole group instead of one per tensor.

Bit-compatibility contract
--------------------------
:class:`BatchedTrainer` reproduces :class:`repro.nn.training.Trainer`
*bit-for-bit* given the same per-candidate seeds:

* weight init comes from per-candidate :class:`~repro.nn.mlp.MLP`
  construction (the flat buffer holds copies of the scalar layers),
* each candidate owns its own ``np.random.default_rng(seed)`` whose
  consumption order (validation split first, then one permutation per active
  epoch) matches the scalar trainer exactly,
* in the flat layout each member's ``W`` is a C-contiguous 2-D slice of its
  row, and the group is a strided stack of those slices.  Batched ``matmul``
  loops over the group and hands BLAS each slice with the same shape and
  inner strides as the 2-D path, so every member runs the same per-slice GEMM
  whatever the group stride; gradients are written into their slices with
  ``out=``, which changes where a result lands, not how it is computed,
* every other op (bias add, activations, clipped-log loss, optimizer
  updates) is element-wise and keeps the scalar path's operand order; the
  in-place forms (``+=``, ``out=``) round each element exactly as the
  expressions they replace, and the per-run loss means reduce contiguous rows
  with the same pairwise sum as the scalar trainer's 1-D means,
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

    Parameters live in one ``(group, P)`` buffer (see
    :class:`StackedMLPGroup`); each state the optimizer keeps is one more
    array of that shape.  :meth:`step` makes one update per train step over
    the whole buffer.  Gradients arrive for the active rows only, and the
    update touches only those rows, leaving early-stopped candidates
    untouched — exactly as if their per-candidate optimizer had simply
    stopped being stepped.  When every run is active (``rows`` is
    ``slice(None)``) the update runs in place on the buffers; otherwise the
    active rows are gathered once, updated and scattered back once.

    Every element-wise operation keeps the scalar optimizer's operand order,
    so each member's parameters match its own scalar update bit for bit.
    """

    #: Number of ``(group, P)`` state arrays (moments, velocities) kept.
    num_states = 0

    def __init__(self, learning_rate: float, shape: tuple[int, int]) -> None:
        self.learning_rate = float(learning_rate)
        self._step_count = 0
        self._states = [np.zeros(shape) for _ in range(self.num_states)]
        self._scratch = np.empty(shape)

    def step(self, parameters: np.ndarray, gradients: np.ndarray, rows: np.ndarray | slice) -> None:
        """Update ``parameters[rows]``; ``gradients`` is consumed as scratch space."""
        self._step_count += 1
        scratch = self._scratch[: gradients.shape[0]]
        if isinstance(rows, slice):
            self._update(parameters, gradients, self._states, scratch)
            return
        active = parameters[rows]
        states = [state[rows] for state in self._states]
        self._update(active, gradients, states, scratch)
        parameters[rows] = active
        for store, state in zip(self._states, states):
            store[rows] = state

    def _update(
        self, param: np.ndarray, grad: np.ndarray, states: list[np.ndarray], scratch: np.ndarray
    ) -> None:
        """Apply one update in place to ``param`` and ``states`` (same shape as ``grad``)."""
        raise NotImplementedError


class _BatchedSGD(_BatchedOptimizer):
    def _update(self, param, grad, states, scratch) -> None:
        # param -= lr * grad
        grad *= self.learning_rate
        param -= grad


class _BatchedMomentumSGD(_BatchedOptimizer):
    num_states = 1

    def __init__(self, learning_rate: float, shape: tuple[int, int], momentum: float = 0.9) -> None:
        super().__init__(learning_rate, shape)
        self.momentum = float(momentum)

    def _update(self, param, grad, states, scratch) -> None:
        # velocity = momentum * velocity - lr * grad; param += velocity
        (velocity,) = states
        velocity *= self.momentum
        grad *= self.learning_rate
        velocity -= grad
        param += velocity


class _BatchedRMSProp(_BatchedOptimizer):
    num_states = 1

    def __init__(
        self,
        learning_rate: float,
        shape: tuple[int, int],
        decay: float = 0.9,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate, shape)
        self.decay = float(decay)
        self.epsilon = float(epsilon)

    def _update(self, param, grad, states, scratch) -> None:
        # mean_square = decay * mean_square + (1 - decay) * grad * grad
        # param -= lr * grad / (sqrt(mean_square) + epsilon)
        (mean_square,) = states
        mean_square *= self.decay
        np.multiply(grad, 1.0 - self.decay, out=scratch)
        scratch *= grad
        mean_square += scratch
        np.sqrt(mean_square, out=scratch)
        scratch += self.epsilon
        grad *= self.learning_rate
        grad /= scratch
        param -= grad


class _BatchedAdam(_BatchedOptimizer):
    num_states = 2

    def __init__(
        self,
        learning_rate: float,
        shape: tuple[int, int],
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate, shape)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _update(self, param, grad, states, scratch) -> None:
        # first = beta1 * first + (1 - beta1) * grad
        # second = beta2 * second + (1 - beta2) * grad * grad
        # param -= lr * (first / bc1) / (sqrt(second / bc2) + epsilon)
        first, second = states
        first *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        first += scratch
        second *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=scratch)
        scratch *= grad
        second += scratch
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        np.divide(first, bias_correction1, out=grad)
        np.divide(second, bias_correction2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.epsilon
        grad *= self.learning_rate
        grad /= scratch
        param -= grad


_BATCHED_OPTIMIZERS: dict[str, type[_BatchedOptimizer]] = {
    "sgd": _BatchedSGD,
    "momentum": _BatchedMomentumSGD,
    "rmsprop": _BatchedRMSProp,
    "adam": _BatchedAdam,
}


def _build_batched_optimizer(
    name: str, learning_rate: float, shape: tuple[int, int]
) -> _BatchedOptimizer:
    key = str(name).strip().lower()
    if key not in _BATCHED_OPTIMIZERS:
        raise ValueError(
            f"unknown optimizer {name!r}; available: {', '.join(sorted(_BATCHED_OPTIMIZERS))}"
        )
    return _BATCHED_OPTIMIZERS[key](learning_rate=learning_rate, shape=shape)


def _accuracies(predictions: np.ndarray, labels: np.ndarray) -> list[float]:
    """Per-row accuracy of ``(rows, samples)`` predictions, as ``metrics.accuracy``.

    A count of matches over the sample count is the same float ``accuracy``
    computes as the mean of a boolean array: both sums are exact integers.
    """
    return (np.count_nonzero(predictions == labels, axis=1) / predictions.shape[1]).tolist()


# ------------------------------------------------------------- stacked model
class StackedMLPGroup:
    """A group of same-spec MLPs stacked along a leading group dimension.

    All parameters live in one ``(group, P)`` buffer, :attr:`flat_parameters`:
    row ``g`` holds member ``g``'s parameters in the scalar order ``[W0, b0,
    W1, b1, ...]``, each flattened in C order.  ``weights[i]`` is a
    ``(group, fan_in, fan_out)`` view and ``biases[i]`` a ``(group,
    fan_out)`` view into that buffer.  Initial values are copied from
    per-candidate :class:`~repro.nn.mlp.MLP` instances so they match the
    scalar path exactly.  Activation/loss instances are stateless and shared.
    """

    def __init__(self, spec: MLPSpec, seeds: list[int | None]) -> None:
        if not seeds:
            raise ValueError("a stacked group needs at least one member")
        self.spec = spec
        self.group_size = len(seeds)
        models = [MLP(spec, seed=seed) for seed in seeds]
        self.activations = [layer.activation for layer in models[0].layers]
        self.use_bias = spec.use_bias
        self.flat_parameters = np.stack(
            [np.concatenate([param.ravel() for param in model.parameters()]) for model in models]
        )
        self.weights, self.biases = self._views(self.flat_parameters)
        # Gradient buffer and its views, rebuilt when the active count changes.
        self._gradients: tuple[np.ndarray, list[np.ndarray], list[np.ndarray] | None] | None = None
        # The softmax + cross-entropy analytic shortcut, as MLP.train_step.
        self.softmax_output = isinstance(self.activations[-1], Softmax)

    @property
    def num_layers(self) -> int:
        return len(self.activations)

    def _views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
        """Per-layer weight and bias views into a ``(rows, P)`` flat buffer."""
        rows = flat.shape[0]
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        offset = 0
        sizes = self.spec.layer_sizes
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            end = offset + fan_in * fan_out
            # Splitting the unit-stride axis is always a view, never a copy.
            weights.append(flat[:, offset:end].reshape(rows, fan_in, fan_out))
            offset = end
            if self.use_bias:
                biases.append(flat[:, offset : offset + fan_out])
                offset += fan_out
        return weights, (biases if self.use_bias else None)

    def _select(
        self, rows: np.ndarray | slice | None
    ) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
        """Weights and biases of ``rows``: the full views for ``None`` or ``slice(None)``."""
        if rows is None or isinstance(rows, slice):
            return self.weights, self.biases
        return self._views(self.flat_parameters[rows])

    # ------------------------------------------------------------- forward
    def _forward(
        self,
        inputs: np.ndarray,
        weights: list[np.ndarray],
        biases: list[np.ndarray] | None,
        trace: list[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> np.ndarray:
        """Fused forward pass over ``(rows, samples, features)`` inputs.

        ``inputs`` may also be a single 2-D ``(samples, features)`` matrix
        shared by every selected row — matmul broadcasting then evaluates each
        row's weights against the same data without materializing copies.
        When ``trace`` is given, each layer appends its ``(input,
        pre_activation)``; a layer's activated output is the next layer's
        input, or the returned output for the last layer.
        """
        outputs = inputs
        for index, activation in enumerate(self.activations):
            pre_activation = outputs @ weights[index]
            if biases is not None:
                pre_activation += biases[index][:, None, :]
            if trace is not None:
                trace.append((outputs, pre_activation))
            outputs = activation.forward(pre_activation)
        return outputs

    def predict(self, inputs: np.ndarray, rows: np.ndarray | slice | None = None) -> np.ndarray:
        """Per-candidate predicted labels, shape ``(rows, samples)``."""
        return np.argmax(self._forward(inputs, *self._select(rows)), axis=-1)

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
    def _gradient_buffer(
        self, active: int
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray] | None]:
        """The ``(active, P)`` gradient buffer and its per-layer views."""
        if self._gradients is None or self._gradients[0].shape[0] != active:
            flat = np.empty((active, self.flat_parameters.shape[1]))
            self._gradients = (flat, *self._views(flat))
        return self._gradients

    def train_step(
        self, inputs: np.ndarray, targets: np.ndarray, rows: np.ndarray | slice
    ) -> tuple[np.ndarray, np.ndarray]:
        """One fused forward + backward over a mini-batch of every active run.

        Returns the per-run batch losses and the ``(active, P)`` gradient
        buffer, laid out like :attr:`flat_parameters`.  The buffer is reused
        by the next call.  This mirrors ``MLP.train_step`` with the
        categorical cross-entropy loss: clipped-log loss on the probabilities
        and the analytic ``(p - t) / batch`` logit gradient when the output
        activation is softmax.
        """
        weights, biases = self._select(rows)
        trace: list[tuple[np.ndarray, np.ndarray]] = []
        outputs = self._forward(inputs, weights, biases, trace)
        batch_rows = outputs.shape[1]
        clipped = np.clip(outputs, _EPSILON, 1.0)
        per_sample = -np.sum(targets * np.log(clipped), axis=2)
        losses = per_sample.mean(axis=1)
        upstream = outputs - targets
        upstream /= batch_rows

        flat_gradients, grad_weights, grad_biases = self._gradient_buffer(outputs.shape[0])
        layer_output = outputs
        for index in range(self.num_layers - 1, -1, -1):
            last_input, pre_activation = trace[index]
            is_output = index == self.num_layers - 1
            if is_output and self.softmax_output:
                delta = upstream
            else:
                delta = upstream * self.activations[index].derivative(
                    pre_activation, output=layer_output
                )
            np.matmul(last_input.swapaxes(1, 2), delta, out=grad_weights[index])
            if grad_biases is not None:
                np.sum(delta, axis=1, out=grad_biases[index])
            if index > 0:
                # The first layer's input gradient is never used; on wide
                # inputs it would cost as much as that layer's forward GEMM.
                upstream = delta @ weights[index].swapaxes(1, 2)
            layer_output = last_input
        return losses, flat_gradients


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
        else:
            base_train_x = None
            base_encoded = None
            if split is None:
                stacked_train_x = np.stack(features_list)
                stacked_train_y = np.stack(labels_list)
            encoded_train_y = np.stack([one_hot(y, spec.output_size) for y in stacked_train_y])

        model = StackedMLPGroup(spec, seeds)
        optimizer = _build_batched_optimizer(
            config.optimizer, config.learning_rate, model.flat_parameters.shape
        )

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
            step_losses: list[np.ndarray] = []
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
                optimizer.step(model.flat_parameters, gradients, row_sel)
                step_losses.append(losses)

            # One contiguous (active, steps) row per run: its mean is the
            # same pairwise sum as the scalar trainer's mean over its list.
            epoch_losses = (
                np.stack(step_losses, axis=1).mean(axis=1).tolist()
                if step_losses
                else [float("nan")] * len(active)
            )
            if base_train_x is not None:
                train_predictions = model.predict(base_train_x, row_sel)
                train_accuracies = _accuracies(train_predictions, labels_list[0])
            else:
                train_predictions = model.predict_members(stacked_train_x, active)
                train_accuracies = _accuracies(train_predictions, stacked_train_y[rows])
            for position, g in enumerate(active):
                histories[g].train_loss.append(epoch_losses[position])
                histories[g].train_accuracy.append(train_accuracies[position])
                histories[g].epochs_run = epoch + 1

            if stacked_val_x is not None:
                val_accuracies = _accuracies(
                    model.predict_members(stacked_val_x, active), stacked_val_y[rows]
                )
                stopped: set[int] = set()
                for position, g in enumerate(active):
                    val_accuracy = val_accuracies[position]
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
