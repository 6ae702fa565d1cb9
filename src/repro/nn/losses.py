"""Loss functions for MLP training.

Classification candidates produced by the ECAD search are trained with
softmax + categorical cross-entropy; the combined gradient of that pair is
computed analytically (``probabilities - one_hot_targets``) which is both faster
and numerically safer than chaining the softmax Jacobian.

The stacked trainer takes that gradient directly and computes no loss value,
so these classes serve the scalar reference trainer
(:mod:`repro.nn.reference`), which records a per-epoch loss.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Loss",
    "CategoricalCrossEntropy",
    "MeanSquaredError",
    "BinaryCrossEntropy",
    "get_loss",
    "available_losses",
]

#: Clamp applied to probabilities before taking logarithms.
_EPSILON = 1e-12


class Loss:
    """Base class for training losses.

    ``forward`` returns the mean loss over the batch; ``gradient`` returns the
    gradient of the mean loss with respect to the network output (for
    :class:`CategoricalCrossEntropy` the network output is interpreted as the
    *pre-softmax* logits, see the class docstring).
    """

    name: str = "loss"

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _as_2d(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array, dtype=float)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape {array.shape}")
    return array


def _check_shapes(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predictions = _as_2d(predictions)
    targets = _as_2d(targets)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"predictions shape {predictions.shape} does not match targets shape {targets.shape}"
        )
    return predictions, targets


class CategoricalCrossEntropy(Loss):
    """Softmax + categorical cross-entropy on one-hot targets.

    ``forward`` expects *probabilities* (post-softmax) and one-hot targets.
    ``gradient`` expects the same probabilities and returns
    ``(probabilities - targets) / batch_size`` — the analytic gradient of mean
    cross-entropy with respect to the pre-softmax logits, which is what the MLP
    backward pass consumes when its output activation is softmax.
    """

    name = "categorical_cross_entropy"

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions, targets = _check_shapes(predictions, targets)
        clipped = np.clip(predictions, _EPSILON, 1.0)
        per_sample = -np.sum(targets * np.log(clipped), axis=1)
        return float(np.mean(per_sample))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions, targets = _check_shapes(predictions, targets)
        batch = predictions.shape[0]
        return (predictions - targets) / batch


class BinaryCrossEntropy(Loss):
    """Element-wise binary cross-entropy on sigmoid outputs."""

    name = "binary_cross_entropy"

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions, targets = _check_shapes(predictions, targets)
        clipped = np.clip(predictions, _EPSILON, 1.0 - _EPSILON)
        per_element = -(targets * np.log(clipped) + (1.0 - targets) * np.log(1.0 - clipped))
        return float(np.mean(per_element))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions, targets = _check_shapes(predictions, targets)
        clipped = np.clip(predictions, _EPSILON, 1.0 - _EPSILON)
        grad = (clipped - targets) / (clipped * (1.0 - clipped))
        return grad / predictions.size


class MeanSquaredError(Loss):
    """Mean squared error, usable for regression-style outputs."""

    name = "mean_squared_error"

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions, targets = _check_shapes(predictions, targets)
        return float(np.mean((predictions - targets) ** 2))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions, targets = _check_shapes(predictions, targets)
        return 2.0 * (predictions - targets) / predictions.size


_REGISTRY: dict[str, type[Loss]] = {
    CategoricalCrossEntropy.name: CategoricalCrossEntropy,
    BinaryCrossEntropy.name: BinaryCrossEntropy,
    MeanSquaredError.name: MeanSquaredError,
}


def available_losses() -> list[str]:
    """Return the sorted names of all registered losses."""
    return sorted(_REGISTRY)


def get_loss(name: str | Loss) -> Loss:
    """Resolve a loss by name (or pass an instance through)."""
    if isinstance(name, Loss):
        return name
    key = str(name).strip().lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown loss {name!r}; available: {', '.join(available_losses())}")
    return _REGISTRY[key]()
