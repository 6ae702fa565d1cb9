"""Training budget and per-run history of candidate training.

Each co-design candidate that reaches a worker is trained from scratch with a
bounded budget (epochs, early stopping patience), described by
:class:`TrainingConfig`.  Training records a per-epoch
:class:`TrainingHistory` (mean training loss, validation accuracy) so the
analysis layer can inspect convergence, and it measures wall-clock training
time because Table III of the paper reports average and total evaluation
time.  The trainer itself is the stacked
:class:`~repro.nn.batched.BatchedTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TrainingConfig", "TrainingHistory"]


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
        Optimizer name: ``"sgd"``, ``"momentum"``, ``"rmsprop"`` or ``"adam"``
        (the stacked optimizers of :mod:`repro.nn.batched`).
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
