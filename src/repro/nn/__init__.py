"""From-scratch numpy MLP substrate.

This subpackage replaces the TensorFlow/Keras training stack used in the
original ECAD experiments: dense layers, activations, losses, the stacked
mini-batch trainer with its optimizers, and the single-fold / 10-fold
evaluation protocols the paper's tables rely on.  The scalar one-model
trainer those protocols are tested against lives in :mod:`repro.nn.reference`
and is not exported here.
"""

from .activations import (
    Activation,
    ELU,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Softplus,
    Tanh,
    available_activations,
    get_activation,
)
from .batched import BatchedTrainer, StackedMLPGroup, train_and_score_batch
from .evaluation import (
    EvaluationResult,
    evaluate_kfold_batch,
    evaluate_single_fold_batch,
    kfold_indices,
)
from .initializers import available_initializers, default_initializer_for, get_initializer
from .layers import DenseLayer, GemmShape
from .losses import BinaryCrossEntropy, CategoricalCrossEntropy, MeanSquaredError, get_loss
from .metrics import accuracy, confusion_matrix, error_rate, macro_f1, precision_recall_f1, top_k_accuracy
from .mlp import MLP, MLPSpec
from .preprocessing import MinMaxScaler, OneHotEncoder, StandardScaler, one_hot, train_test_split
from .training import TrainingConfig, TrainingHistory

__all__ = [
    "Activation",
    "ELU",
    "Identity",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Softmax",
    "Softplus",
    "Tanh",
    "available_activations",
    "get_activation",
    "BatchedTrainer",
    "StackedMLPGroup",
    "train_and_score_batch",
    "EvaluationResult",
    "evaluate_kfold_batch",
    "evaluate_single_fold_batch",
    "kfold_indices",
    "available_initializers",
    "default_initializer_for",
    "get_initializer",
    "DenseLayer",
    "GemmShape",
    "BinaryCrossEntropy",
    "CategoricalCrossEntropy",
    "MeanSquaredError",
    "get_loss",
    "accuracy",
    "confusion_matrix",
    "error_rate",
    "macro_f1",
    "precision_recall_f1",
    "top_k_accuracy",
    "MLP",
    "MLPSpec",
    "MinMaxScaler",
    "OneHotEncoder",
    "StandardScaler",
    "one_hot",
    "train_test_split",
    "TrainingConfig",
    "TrainingHistory",
]
