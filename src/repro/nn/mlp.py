"""Multilayer perceptron model assembled from dense layers.

This is the network family the ECAD search explores: a stack of
fully-connected layers whose count, widths, activations and bias usage come
from an :class:`repro.core.genome.MLPGenome`.  The model exposes both the
numerical interface (forward / predict) and the *structural* interface (GEMM
shapes, parameter counts) used by the hardware models.  Its initialized
parameters seed the stacked trainer in :mod:`repro.nn.batched`; the scalar
backward pass that trainer is checked against lives in
:mod:`repro.nn.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import get_activation
from .layers import DenseLayer, GemmShape

__all__ = ["MLPSpec", "MLP"]


@dataclass(frozen=True)
class MLPSpec:
    """Structural description of an MLP, independent of trained weights.

    This is the "ANN description" the paper passes between the evolutionary
    engine and the workers: enough to construct the network and to derive the
    GEMM decomposition for hardware mapping, but carrying no weight values.

    Attributes
    ----------
    input_size:
        Number of input features (defines the first layer's ``k`` dimension).
    output_size:
        Number of classes (the final layer's ``n`` dimension).
    hidden_sizes:
        Width of each hidden layer, in order.
    activations:
        Activation name per hidden layer.  A single-element tuple is broadcast
        over all hidden layers.
    use_bias:
        Whether every layer carries a bias vector.
    output_activation:
        Activation of the output layer, ``softmax`` for classification.
    """

    input_size: int
    output_size: int
    hidden_sizes: tuple[int, ...] = (100,)
    activations: tuple[str, ...] = ("relu",)
    use_bias: bool = True
    output_activation: str = "softmax"

    def __post_init__(self) -> None:
        if self.input_size <= 0:
            raise ValueError(f"input_size must be positive, got {self.input_size}")
        if self.output_size <= 0:
            raise ValueError(f"output_size must be positive, got {self.output_size}")
        hidden = tuple(int(h) for h in self.hidden_sizes)
        if any(h <= 0 for h in hidden):
            raise ValueError(f"hidden layer sizes must be positive, got {self.hidden_sizes}")
        object.__setattr__(self, "hidden_sizes", hidden)
        activations = tuple(str(a) for a in self.activations)
        if len(activations) == 1 and len(hidden) > 1:
            activations = activations * len(hidden)
        if hidden and len(activations) != len(hidden):
            raise ValueError(
                f"got {len(activations)} activations for {len(hidden)} hidden layers"
            )
        # Validate names eagerly so bad specs fail at construction time.
        for name in activations + (self.output_activation,):
            get_activation(name)
        object.__setattr__(self, "activations", activations)

    # ----------------------------------------------------------- structure
    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """All layer widths including input and output."""
        return (self.input_size, *self.hidden_sizes, self.output_size)

    @property
    def num_layers(self) -> int:
        """Number of weight layers (hidden layers + output layer)."""
        return len(self.hidden_sizes) + 1

    @property
    def total_neurons(self) -> int:
        """Total neurons across hidden and output layers (paper's "network size")."""
        return sum(self.hidden_sizes) + self.output_size

    @property
    def parameter_count(self) -> int:
        """Total trainable parameters of the network."""
        sizes = self.layer_sizes
        count = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            count += fan_in * fan_out
            if self.use_bias:
                count += fan_out
        return count

    def gemm_shapes(self, batch_size: int) -> list[GemmShape]:
        """Per-layer GEMM shapes at the given batch size (the HW workload)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        sizes = self.layer_sizes
        return [
            GemmShape(m=int(batch_size), k=fan_in, n=fan_out)
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        ]

    def flops_per_sample(self) -> int:
        """Floating point operations needed for a single inference."""
        return sum(shape.flops for shape in self.gemm_shapes(batch_size=1))

    def to_dict(self) -> dict:
        """JSON-serializable representation (used in configs and caches)."""
        return {
            "input_size": self.input_size,
            "output_size": self.output_size,
            "hidden_sizes": list(self.hidden_sizes),
            "activations": list(self.activations),
            "use_bias": self.use_bias,
            "output_activation": self.output_activation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MLPSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            input_size=int(data["input_size"]),
            output_size=int(data["output_size"]),
            hidden_sizes=tuple(int(h) for h in data.get("hidden_sizes", (100,))),
            activations=tuple(data.get("activations", ("relu",))),
            use_bias=bool(data.get("use_bias", True)),
            output_activation=str(data.get("output_activation", "softmax")),
        )


class MLP:
    """A trainable multilayer perceptron built from an :class:`MLPSpec`.

    The model owns its layers and no loss: training is delegated to the
    stacked trainer in :mod:`repro.nn.batched` (and, as its oracle, the
    scalar trainer in :mod:`repro.nn.reference`, which takes the loss), so
    the same model class can be used for plain inference inside workers.
    """

    def __init__(self, spec: MLPSpec, seed: int | None = None) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self.layers: list[DenseLayer] = []
        sizes = spec.layer_sizes
        hidden_activations = list(spec.activations)
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            is_output = index == len(sizes) - 2
            activation = spec.output_activation if is_output else hidden_activations[index]
            layer = DenseLayer(fan_in, fan_out, activation=activation, use_bias=spec.use_bias)
            layer.initialize(self._rng)
            self.layers.append(layer)

    # ------------------------------------------------------------- inference
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run a full forward pass and return the output activations."""
        outputs = np.asarray(inputs, dtype=float)
        if outputs.ndim == 1:
            outputs = outputs.reshape(1, -1)
        for layer in self.layers:
            outputs = layer.forward(outputs)
        return outputs

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Class probabilities for each input row."""
        return self.forward(inputs)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predicted class labels for each input row."""
        return np.argmax(self.predict_proba(inputs), axis=1)

    # ------------------------------------------------------------ parameters
    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays across layers, in backprop-stable order."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    @property
    def parameter_count(self) -> int:
        """Total trainable scalars (equal to ``spec.parameter_count``)."""
        return sum(layer.parameter_count for layer in self.layers)

    def gemm_shapes(self, batch_size: int) -> list[GemmShape]:
        """Per-layer GEMM shapes at the given batch size."""
        return self.spec.gemm_shapes(batch_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = " -> ".join(str(s) for s in self.spec.layer_sizes)
        return f"MLP({sizes}, bias={self.spec.use_bias})"
