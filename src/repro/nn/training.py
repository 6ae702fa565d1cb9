"""Mini-batch training loop used by the ECAD simulation worker.

Each co-design candidate that reaches a worker is trained from scratch with a
bounded budget (epochs, early stopping patience).  The trainer records a
per-epoch history (mean training loss, validation accuracy) so the analysis
layer can inspect convergence, and it measures wall-clock training time
because Table III of the paper reports average and total evaluation time.

The validation holdout is a split of row indices, not of rows: each
mini-batch is gathered straight from the caller's matrix through the run's
train indices, and only the small validation slice is copied, once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import accuracy
from .mlp import MLP
from .optimizers import Optimizer, get_optimizer
from .preprocessing import one_hot

__all__ = ["TrainingConfig", "TrainingHistory", "Trainer"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of the candidate-training loop.

    These are deliberately modest: the evolutionary search evaluates thousands
    of candidates (Table III), so each individual training run must stay cheap.

    Attributes
    ----------
    epochs:
        Maximum number of passes over the training data.
    batch_size:
        Mini-batch size; also the default inference batch for hardware models.
    optimizer:
        Optimizer name understood by :func:`repro.nn.optimizers.get_optimizer`.
    learning_rate:
        Learning rate forwarded to the optimizer.
    early_stopping_patience:
        Stop when validation accuracy has not improved for this many epochs;
        ``0`` disables early stopping.
    validation_fraction:
        Portion of the training split held out for early stopping.
    shuffle:
        Whether mini-batches are drawn from a reshuffled order every epoch.
    """

    epochs: int = 30
    batch_size: int = 32
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    early_stopping_patience: int = 5
    validation_fraction: float = 0.1
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.early_stopping_patience < 0:
            raise ValueError(
                f"early_stopping_patience must be >= 0, got {self.early_stopping_patience}"
            )
        if not 0.0 <= self.validation_fraction < 0.5:
            raise ValueError(
                f"validation_fraction must be in [0, 0.5), got {self.validation_fraction}"
            )


@dataclass
class TrainingHistory:
    """Per-epoch record of one training run.

    ``train_loss`` holds the mean mini-batch loss of each epoch run and
    ``validation_accuracy`` the held-out accuracy after it (empty when no
    validation split is taken).  Accuracy on the train split is not
    recorded: measuring it would cost a forward pass over every training
    row each epoch.
    """

    train_loss: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    wall_time_seconds: float = 0.0

    @property
    def best_validation_accuracy(self) -> float:
        """Highest validation accuracy seen, or ``nan`` when no validation used."""
        if not self.validation_accuracy:
            return float("nan")
        return max(self.validation_accuracy)

    @property
    def final_train_loss(self) -> float:
        """Training loss at the last completed epoch."""
        if not self.train_loss:
            return float("nan")
        return self.train_loss[-1]


def _validation_count(config: TrainingConfig, num_samples: int) -> int:
    """Rows held out for early stopping, or ``0`` when no validation split is taken."""
    if config.validation_fraction <= 0.0 or config.early_stopping_patience == 0:
        return 0
    count = int(round(config.validation_fraction * num_samples))
    if count < 1 or num_samples - count < 1:
        return 0
    return count


class Trainer:
    """Trains an :class:`repro.nn.mlp.MLP` on a labelled dataset."""

    def __init__(self, config: TrainingConfig | None = None, seed: int | None = None) -> None:
        self.config = config or TrainingConfig()
        self._rng = np.random.default_rng(seed)

    def fit(
        self,
        model: MLP,
        features: np.ndarray,
        labels: np.ndarray,
        optimizer: Optimizer | None = None,
    ) -> TrainingHistory:
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

        history = TrainingHistory()
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
                loss_value = model.train_step(features[batch_idx], encoded_labels[batch_idx])
                optimizer.step(model.parameters(), model.gradients())
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
