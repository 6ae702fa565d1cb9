"""Activation functions for the from-scratch MLP substrate.

The ECAD search space mutates the activation function of every hidden layer, so
activations are first-class objects here: each one knows how to compute its
forward value and the derivative used during backpropagation, and each one has a
stable string name so genomes can be serialized and hashed for the evaluation
cache.

All activations operate element-wise on numpy arrays and never modify their
input in place.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Activation",
    "Identity",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "ELU",
    "Softplus",
    "Softmax",
    "ACTIVATIONS",
    "get_activation",
    "available_activations",
]


class Activation:
    """Base class for element-wise activation functions.

    Subclasses implement :meth:`forward` and :meth:`derivative`.  The
    derivative is expressed as a function of the *pre-activation* input ``z``,
    which keeps the backpropagation code in :mod:`repro.nn.layers` and
    :mod:`repro.nn.batched` uniform across activations.  Both pass the
    activated output they cached in the forward pass as ``output``; sigmoid
    and tanh reuse it instead of recomputing ``forward(z)``, which yields the
    same bits.  The others ignore it: their from-output forms would not.
    """

    #: Stable identifier used in genomes, configuration files and caches.
    name: str = "activation"

    def forward(self, z: np.ndarray) -> np.ndarray:
        """Return the activation applied element-wise to ``z``."""
        raise NotImplementedError

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        """Return d(activation)/dz evaluated element-wise at ``z``.

        ``output``, when given, must be ``forward(z)``.
        """
        raise NotImplementedError

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.forward(z)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Activation) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


class Identity(Activation):
    """Linear activation ``f(z) = z`` (used for output layers in regression)."""

    name = "identity"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        return np.ones_like(np.asarray(z, dtype=float))


class ReLU(Activation):
    """Rectified linear unit ``f(z) = max(z, 0)``."""

    name = "relu"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        return (z > 0.0).astype(float)


class LeakyReLU(Activation):
    """Leaky rectified linear unit with configurable negative slope."""

    name = "leaky_relu"

    def __init__(self, alpha: float = 0.01) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)

    def forward(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.where(z > 0.0, z, self.alpha * z)

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.where(z > 0.0, 1.0, self.alpha)


class Sigmoid(Activation):
    """Logistic sigmoid ``f(z) = 1 / (1 + exp(-z))``, numerically stabilized."""

    name = "sigmoid"

    def forward(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        # exp(-|z|) never overflows; min(z, -z) rather than -abs(z) keeps a
        # NaN input's sign bit, as exp(z) on the negative branch does.
        e = np.exp(np.minimum(z, -z))
        # 1 / (1 + e) for z >= 0, e / (1 + e) otherwise: one division.
        numerator = np.where(z >= 0, 1.0, e)
        numerator /= 1.0 + e
        return numerator

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        s = self.forward(z) if output is None else output
        return s * (1.0 - s)


class Tanh(Activation):
    """Hyperbolic tangent activation."""

    name = "tanh"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z)

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        t = np.tanh(z) if output is None else output
        return 1.0 - t * t


class ELU(Activation):
    """Exponential linear unit with configurable ``alpha``."""

    name = "elu"

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    def forward(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.where(z > 0.0, z, self.alpha * (np.exp(np.minimum(z, 0.0)) - 1.0))

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.where(z > 0.0, 1.0, self.alpha * np.exp(np.minimum(z, 0.0)))


class Softplus(Activation):
    """Smooth approximation of ReLU: ``f(z) = log(1 + exp(z))``."""

    name = "softplus"

    def forward(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.logaddexp(0.0, z)

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        return Sigmoid().forward(z)


class Softmax(Activation):
    """Row-wise softmax used on the output layer for classification.

    The derivative returned here is the diagonal approximation; the training
    loop pairs softmax with cross-entropy, whose combined gradient
    ``(p - t) / batch`` is computed analytically (by
    ``StackedMLPGroup.train_step``, and by :mod:`repro.nn.losses` for the
    scalar reference), so the full Jacobian is never required.
    """

    name = "softmax"

    def forward(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        exp_z = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
        exp_z /= np.add.reduce(exp_z, axis=-1, keepdims=True)
        return exp_z

    def derivative(self, z: np.ndarray, output: np.ndarray | None = None) -> np.ndarray:
        s = self.forward(z)
        return s * (1.0 - s)


#: Registered activation classes by name.
ACTIVATIONS: dict[str, type[Activation]] = {
    Identity.name: Identity,
    ReLU.name: ReLU,
    LeakyReLU.name: LeakyReLU,
    Sigmoid.name: Sigmoid,
    Tanh.name: Tanh,
    ELU.name: ELU,
    Softplus.name: Softplus,
    Softmax.name: Softmax,
}


def available_activations() -> list[str]:
    """Return the sorted names of all registered activation functions."""
    return sorted(ACTIVATIONS)


def get_activation(name: str | Activation) -> Activation:
    """Resolve an activation by name (or pass an instance through).

    Parameters
    ----------
    name:
        Either an :class:`Activation` instance (returned unchanged) or one of
        the names reported by :func:`available_activations`.

    Raises
    ------
    ValueError
        If the name is not registered.
    """
    if isinstance(name, Activation):
        return name
    key = str(name).strip().lower()
    if key not in ACTIVATIONS:
        raise ValueError(
            f"unknown activation {name!r}; available: {', '.join(available_activations())}"
        )
    return ACTIVATIONS[key]()
