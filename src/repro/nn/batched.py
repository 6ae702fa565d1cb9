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
:class:`BatchedTrainer` reproduces the scalar reference trainer,
:class:`repro.nn.reference.Trainer`, *bit-for-bit* given the same
per-candidate seeds; every candidate the search evaluates trains here, and
the reference exists only for the ``==`` tests and benchmarks:

* weight init comes from per-candidate :class:`~repro.nn.mlp.MLP`
  construction (the flat buffer holds copies of the scalar layers),
* each candidate owns its own ``np.random.default_rng(seed)`` whose
  consumption order (validation split first, then one permutation per active
  epoch) matches the scalar trainer exactly,
* both trainers train on row indices: a run's validation permutation splits
  it into ``val_idx``/``train_idx``, and each mini-batch is gathered straight
  from the source rows through ``train_idx[order[start:stop]]``, so every
  batch holds the same rows in the same order as the scalar trainer's; the
  source is the caller's shared 2-D matrix, or the runs' arrays stacked
  into one ``(group * samples, features)`` matrix when they differ,
* in the flat layout each member's ``W`` is a C-contiguous 2-D slice of its
  row, and the group is a strided stack of those slices.  Batched ``matmul``
  loops over the group and hands BLAS each slice with the same shape and
  inner strides as the 2-D path, so every member runs the same per-slice GEMM
  whatever the group stride; gradients are written into their slices with
  ``out=``, which changes where a result lands, not how it is computed,
* every other op (bias add, activations, the ``(p - t) / batch`` logit
  gradient, optimizer updates) is element-wise and keeps the scalar path's
  operand order; the in-place forms (``+=``, ``out=``) round each element
  exactly as the expressions they replace, and ``np.add.reduce`` equals the
  scalar bias gradient's ``sum``,
* early-stopped candidates are frozen out of the active set: they stop
  consuming RNG draws and optimizer updates at exactly the same epoch as the
  scalar loop, and all still-active candidates always share the same
  optimizer step count (they start together and process identical batch
  counts), so the group-global Adam bias correction equals the per-candidate
  one.

The stacked trainer computes no loss value: the gradient needs none, and
nothing reads one.  Each member's final parameters and its history's
validation curve, epoch count and early-stop flag equal the scalar path's;
the reference alone records a per-epoch loss, and only the wall-clock field
(``TrainingHistory.wall_time_seconds``) differs.
"""

from __future__ import annotations

import time

import numpy as np

from .activations import Softmax
from .metrics import accuracy
from .mlp import MLP, MLPSpec
from .preprocessing import one_hot
from .training import TrainingConfig, TrainingHistory, _validation_count

__all__ = ["StackedMLPGroup", "BatchedTrainer", "train_and_score_batch"]


#: Activation bytes one layer of a stacked prediction may hold before
#: :meth:`StackedMLPGroup.predict_members` splits the group into blocks.
_PREDICT_BLOCK_BYTES = 2 << 20


# --------------------------------------------------------------- optimizers
class _BatchedOptimizer:
    """Group-stacked mirror of :class:`repro.nn.reference.Optimizer`.

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
    scalar path exactly.  Activation instances are stateless and shared.
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
        # The softmax + cross-entropy analytic shortcut, as the reference's
        # ``backpropagate``.
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
    ) -> np.ndarray:
        """One fused forward + backward over a mini-batch of every active run.

        Returns the ``(active, P)`` gradient buffer, laid out like
        :attr:`flat_parameters` and reused by the next call.  This mirrors
        the reference ``backpropagate`` with the categorical cross-entropy
        loss, whose analytic ``(p - t) / batch`` logit gradient needs no loss
        value: the loss itself is never computed here.
        """
        weights, biases = self._select(rows)
        trace: list[tuple[np.ndarray, np.ndarray]] = []
        outputs = self._forward(inputs, weights, biases, trace)
        upstream = outputs - targets
        upstream /= outputs.shape[1]

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
                np.add.reduce(delta, axis=1, out=grad_biases[index])
            if index > 0:
                # The first layer's input gradient is never used; on wide
                # inputs it would cost as much as that layer's forward GEMM.
                upstream = delta @ weights[index].swapaxes(1, 2)
            layer_output = last_input
        return flat_gradients


# ------------------------------------------------------------------ trainer
class BatchedTrainer:
    """Trains a same-spec group of candidates with fused batched GEMMs.

    The public contract matches running :class:`~repro.nn.reference.Trainer`
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
        # the converted lists keep the sharing and every run can train on the
        # one matrix instead of a stacked copy per run.
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

        # Every run trains on rows of one 2-D source matrix: the shared
        # matrix itself on the pre-split path, or the runs' arrays stacked
        # into (group * samples, features), run g's rows from g * samples on.
        num_samples = first_shape[0]
        if shared_inputs:
            source_x, source_y = features_list[0], labels_list[0]
        else:
            source_x, source_y = np.concatenate(features_list), np.concatenate(labels_list)
        encoded_y = one_hot(source_y, spec.output_size)
        offsets = np.arange(group_size)[:, None] * (0 if shared_inputs else num_samples)

        # Per-candidate RNG streams, consumed in the scalar trainer's order:
        # one permutation for the validation split, then one per active epoch.
        # A run keeps source-row indices; batches are gathered through them,
        # and only the validation rows are copied, once.
        rngs = [np.random.default_rng(seed) for seed in seeds]
        val_count = _validation_count(config, num_samples)
        if val_count:
            splits = np.stack([rng.permutation(num_samples) for rng in rngs]) + offsets
        else:
            splits = np.arange(num_samples) + offsets
        val_idx, train_idx = splits[:, :val_count], splits[:, val_count:]
        val_x, val_y = source_x[val_idx], source_y[val_idx]

        model = StackedMLPGroup(spec, seeds)
        optimizer = _build_batched_optimizer(
            config.optimizer, config.learning_rate, model.flat_parameters.shape
        )

        best_val_accuracy = np.full(group_size, -np.inf)
        epochs_without_improvement = np.zeros(group_size, dtype=int)
        train_count = train_idx.shape[1]
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
            epoch_idx = train_idx[rows]
            if config.shuffle:
                orders = np.stack([rngs[g].permutation(train_count) for g in active])
                epoch_idx = np.take_along_axis(epoch_idx, orders, axis=1)
            for start in range(0, train_count, config.batch_size):
                # One single-axis gather yields each run's own batch rows.
                batch_idx = epoch_idx[:, start : start + config.batch_size]
                gradients = model.train_step(source_x[batch_idx], encoded_y[batch_idx], row_sel)
                optimizer.step(model.flat_parameters, gradients, row_sel)
            for g in active:
                histories[g].epochs_run = epoch + 1

            if val_count:
                val_accuracies = _accuracies(model.predict_members(val_x, active), val_y[rows])
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

    The batched mirror of ``repro.nn.reference._train_and_score`` (minus
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
