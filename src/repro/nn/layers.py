"""Dense (fully-connected) layer: parameters, forward pass and GEMM shape.

The ECAD flow maps every MLP layer onto a GEMM call (section III-D of the
paper), so each layer here tracks the exact ``(m, k, n)`` GEMM shape it
produces.  The hardware models in :mod:`repro.hardware` consume those shapes
to estimate FPGA and GPU performance without ever running the network.

Training runs on the stacked trainer in :mod:`repro.nn.batched`; the scalar
backward pass it is checked against lives in :mod:`repro.nn.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation, get_activation
from .initializers import Initializer, Zeros, default_initializer_for, get_initializer

__all__ = ["GemmShape", "DenseLayer"]


@dataclass(frozen=True)
class GemmShape:
    """The ``C[m, n] = A[m, k] @ B[k, n]`` shape produced by one dense layer.

    ``m`` is the batch size, ``k`` the layer input width, ``n`` the number of
    neurons.  These are exactly the three dimensions the paper's hardware
    database worker blocks over the systolic array.
    """

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        for field_name, value in (("m", self.m), ("k", self.k), ("n", self.n)):
            if int(value) <= 0:
                raise ValueError(f"GemmShape.{field_name} must be positive, got {value}")

    @property
    def flops(self) -> int:
        """Floating-point operations for this GEMM (multiply + add per MAC)."""
        return 2 * self.m * self.k * self.n

    @property
    def input_bytes(self) -> int:
        """Bytes of the A and B operands at FP32."""
        return 4 * (self.m * self.k + self.k * self.n)

    @property
    def output_bytes(self) -> int:
        """Bytes of the C result at FP32."""
        return 4 * self.m * self.n

    def with_batch(self, batch_size: int) -> "GemmShape":
        """Return the same layer shape evaluated at a different batch size."""
        return GemmShape(m=int(batch_size), k=self.k, n=self.n)


class DenseLayer:
    """A fully-connected layer ``y = activation(x @ W + b)``.

    Parameters
    ----------
    input_size:
        Width of the incoming feature vector (the GEMM ``k`` dimension).
    output_size:
        Number of neurons (the GEMM ``n`` dimension).
    activation:
        Activation name or instance applied element-wise to the pre-activation.
    use_bias:
        Whether a bias vector is added; the ECAD genome can disable bias.
    weight_initializer / bias_initializer:
        Optional explicit initializers; defaults follow the activation
        (He for rectifiers, Glorot otherwise) and zeros for the bias.
    """

    def __init__(
        self,
        input_size: int,
        output_size: int,
        activation: str | Activation = "relu",
        use_bias: bool = True,
        weight_initializer: str | Initializer | None = None,
        bias_initializer: str | Initializer | None = None,
    ) -> None:
        if int(input_size) <= 0:
            raise ValueError(f"input_size must be positive, got {input_size}")
        if int(output_size) <= 0:
            raise ValueError(f"output_size must be positive, got {output_size}")
        self.input_size = int(input_size)
        self.output_size = int(output_size)
        self.activation = get_activation(activation)
        self.use_bias = bool(use_bias)
        if weight_initializer is None:
            self._weight_initializer = default_initializer_for(self.activation.name)
        else:
            self._weight_initializer = get_initializer(weight_initializer)
        self._bias_initializer = get_initializer(bias_initializer) if bias_initializer else Zeros()

        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None

    # ------------------------------------------------------------------ setup
    def initialize(self, rng: np.random.Generator) -> None:
        """Allocate and initialize weights (and bias) using ``rng``."""
        self.weights = self._weight_initializer((self.input_size, self.output_size), rng)
        if self.use_bias:
            self.bias = self._bias_initializer((1, self.output_size), rng).reshape(-1)
        else:
            self.bias = None

    @property
    def is_initialized(self) -> bool:
        return self.weights is not None

    @property
    def parameter_count(self) -> int:
        """Number of trainable scalars in this layer."""
        count = self.input_size * self.output_size
        if self.use_bias:
            count += self.output_size
        return count

    def gemm_shape(self, batch_size: int) -> GemmShape:
        """GEMM shape of this layer for the given batch size."""
        return GemmShape(m=int(batch_size), k=self.input_size, n=self.output_size)

    # ---------------------------------------------------------------- forward
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output for a batch of inputs."""
        if not self.is_initialized:
            raise RuntimeError("layer must be initialized before calling forward()")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        if inputs.shape[1] != self.input_size:
            raise ValueError(
                f"expected inputs with {self.input_size} features, got shape {inputs.shape}"
            )
        pre_activation = inputs @ self.weights
        if self.use_bias:
            pre_activation = pre_activation + self.bias
        return self.activation.forward(pre_activation)

    # ------------------------------------------------------------- parameters
    def parameters(self) -> list[np.ndarray]:
        """Trainable arrays, in a stable order (weights first, then bias)."""
        if not self.is_initialized:
            raise RuntimeError("layer is not initialized")
        params = [self.weights]
        if self.use_bias:
            params.append(self.bias)
        return params

    def set_parameters(self, params: list[np.ndarray]) -> None:
        """Replace the trainable arrays (used by the optimizers and tests)."""
        expected = 2 if self.use_bias else 1
        if len(params) != expected:
            raise ValueError(f"expected {expected} parameter arrays, got {len(params)}")
        weights = np.asarray(params[0], dtype=float)
        if weights.shape != (self.input_size, self.output_size):
            raise ValueError(
                f"weights shape {weights.shape} does not match layer "
                f"({self.input_size}, {self.output_size})"
            )
        self.weights = weights
        if self.use_bias:
            bias = np.asarray(params[1], dtype=float).reshape(-1)
            if bias.shape != (self.output_size,):
                raise ValueError(f"bias shape {bias.shape} does not match ({self.output_size},)")
            self.bias = bias

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DenseLayer({self.input_size} -> {self.output_size}, "
            f"activation={self.activation.name}, bias={self.use_bias})"
        )
