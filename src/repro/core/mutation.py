"""Mutation operators over co-design genomes.

A steady-state evolutionary algorithm spends most of its time applying small
perturbations to good candidates.  Each operator here changes one aspect of
the genome — a layer width, an activation, the grid geometry, the batch size —
and the composite :class:`CoDesignMutator` picks operators according to
configurable probabilities, mirroring the parameter list in sections III-A and
III-C of the paper.

All operators are pure: they take a genome and an RNG and return a *new*
genome, never modifying their input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hardware.device import FPGADevice
from ..hardware.systolic import GridConfig
from ..sampling import pick, pick_weighted, weights_cdf
from .genome import CoDesignGenome, CoDesignSearchSpace, HardwareGenome, MLPGenome

__all__ = [
    "MutationConfig",
    "mutate_layer_size",
    "mutate_activation",
    "mutate_add_layer",
    "mutate_remove_layer",
    "mutate_bias",
    "mutate_grid_dimension",
    "mutate_interleave",
    "mutate_vector_width",
    "mutate_fpga_batch",
    "mutate_gpu_batch",
    "CoDesignMutator",
]


@dataclass(frozen=True)
class MutationConfig:
    """Relative probabilities of each mutation operator.

    The values are weights, not probabilities — they are normalized by the
    mutator.  Setting a weight to 0 disables the operator (for example, an
    accuracy-only search may disable all hardware mutations).
    """

    layer_size: float = 3.0
    activation: float = 2.0
    add_layer: float = 1.0
    remove_layer: float = 1.0
    bias: float = 0.5
    grid_dimension: float = 2.0
    interleave: float = 1.5
    vector_width: float = 1.0
    fpga_batch: float = 1.0
    gpu_batch: float = 0.5

    def __post_init__(self) -> None:
        weights = self.as_dict()
        if any(value < 0 for value in weights.values()):
            raise ValueError(f"mutation weights must be >= 0, got {weights}")
        if sum(weights.values()) <= 0:
            raise ValueError("at least one mutation weight must be positive")

    def as_dict(self) -> dict[str, float]:
        """Weights keyed by operator name."""
        return {
            "layer_size": self.layer_size,
            "activation": self.activation,
            "add_layer": self.add_layer,
            "remove_layer": self.remove_layer,
            "bias": self.bias,
            "grid_dimension": self.grid_dimension,
            "interleave": self.interleave,
            "vector_width": self.vector_width,
            "fpga_batch": self.fpga_batch,
            "gpu_batch": self.gpu_batch,
        }

    @classmethod
    def accuracy_only(cls) -> "MutationConfig":
        """Weights for an accuracy-only search (hardware genes frozen)."""
        return cls(grid_dimension=0.0, interleave=0.0, vector_width=0.0, fpga_batch=0.0, gpu_batch=0.0)

    @classmethod
    def hardware_only(cls) -> "MutationConfig":
        """Weights for a hardware-only search (network genes frozen)."""
        return cls(layer_size=0.0, activation=0.0, add_layer=0.0, remove_layer=0.0, bias=0.0)


def _choice_different(rng: np.random.Generator, options: tuple, current) -> object:
    """Pick a random option different from ``current`` when possible."""
    alternatives = [value for value in options if value != current]
    if not alternatives:
        return current
    return pick(rng, alternatives)


# ------------------------------------------------------------------ network


def mutate_layer_size(genome: MLPGenome, space: CoDesignSearchSpace, rng: np.random.Generator) -> MLPGenome:
    """Change the width of one randomly chosen hidden layer."""
    if not genome.hidden_layers:
        return genome
    index = int(rng.integers(0, len(genome.hidden_layers)))
    new_size = _choice_different(rng, space.mlp_space.layer_sizes, genome.hidden_layers[index])
    hidden = list(genome.hidden_layers)
    hidden[index] = int(new_size)
    return MLPGenome(hidden_layers=tuple(hidden), activations=genome.activations, use_bias=genome.use_bias)


def mutate_activation(genome: MLPGenome, space: CoDesignSearchSpace, rng: np.random.Generator) -> MLPGenome:
    """Change the activation of one randomly chosen hidden layer."""
    if not genome.activations:
        return genome
    index = int(rng.integers(0, len(genome.activations)))
    new_activation = _choice_different(rng, space.mlp_space.activations, genome.activations[index])
    activations = list(genome.activations)
    activations[index] = str(new_activation)
    return MLPGenome(hidden_layers=genome.hidden_layers, activations=tuple(activations), use_bias=genome.use_bias)


def mutate_add_layer(genome: MLPGenome, space: CoDesignSearchSpace, rng: np.random.Generator) -> MLPGenome:
    """Insert a new hidden layer at a random position (bounded by max_layers)."""
    if genome.num_hidden_layers >= space.mlp_space.max_layers:
        return genome
    position = int(rng.integers(0, genome.num_hidden_layers + 1))
    size = pick(rng, space.mlp_space.layer_sizes)
    activation = pick(rng, space.mlp_space.activations)
    hidden = list(genome.hidden_layers)
    activations = list(genome.activations)
    hidden.insert(position, size)
    activations.insert(position, activation)
    return MLPGenome(hidden_layers=tuple(hidden), activations=tuple(activations), use_bias=genome.use_bias)


def mutate_remove_layer(genome: MLPGenome, space: CoDesignSearchSpace, rng: np.random.Generator) -> MLPGenome:
    """Remove one hidden layer (bounded below by min_layers, never below 1)."""
    floor = max(1, space.mlp_space.min_layers)
    if genome.num_hidden_layers <= floor:
        return genome
    index = int(rng.integers(0, genome.num_hidden_layers))
    hidden = list(genome.hidden_layers)
    activations = list(genome.activations)
    del hidden[index]
    del activations[index]
    return MLPGenome(hidden_layers=tuple(hidden), activations=tuple(activations), use_bias=genome.use_bias)


def mutate_bias(genome: MLPGenome, space: CoDesignSearchSpace, rng: np.random.Generator) -> MLPGenome:
    """Flip the use_bias switch (when the space allows it)."""
    if not space.mlp_space.allow_bias_toggle:
        return genome
    return MLPGenome(
        hidden_layers=genome.hidden_layers,
        activations=genome.activations,
        use_bias=not genome.use_bias,
    )


# ----------------------------------------------------------------- hardware


def _replace_grid(genome: HardwareGenome, **changes) -> HardwareGenome:
    grid = genome.grid
    values = grid.to_dict()
    values.update(changes)
    return HardwareGenome(grid=GridConfig.from_dict(values), batch_size=genome.batch_size)


def mutate_grid_dimension(
    genome: HardwareGenome, space: CoDesignSearchSpace, rng: np.random.Generator
) -> HardwareGenome:
    """Change either the row or the column count of the PE grid."""
    grid_space = space.hardware_space.grid_space
    if rng.random() < 0.5:
        new_rows = _choice_different(rng, grid_space.rows, genome.grid.rows)
        return _replace_grid(genome, rows=int(new_rows))
    new_columns = _choice_different(rng, grid_space.columns, genome.grid.columns)
    return _replace_grid(genome, columns=int(new_columns))


def mutate_interleave(
    genome: HardwareGenome, space: CoDesignSearchSpace, rng: np.random.Generator
) -> HardwareGenome:
    """Change the interleave (double-buffer depth) in one dimension."""
    grid_space = space.hardware_space.grid_space
    if rng.random() < 0.5:
        new_value = _choice_different(rng, grid_space.interleave_rows, genome.grid.interleave_rows)
        return _replace_grid(genome, interleave_rows=int(new_value))
    new_value = _choice_different(rng, grid_space.interleave_columns, genome.grid.interleave_columns)
    return _replace_grid(genome, interleave_columns=int(new_value))


def mutate_vector_width(
    genome: HardwareGenome, space: CoDesignSearchSpace, rng: np.random.Generator
) -> HardwareGenome:
    """Change the per-PE vector width."""
    grid_space = space.hardware_space.grid_space
    new_value = _choice_different(rng, grid_space.vector_width, genome.grid.vector_width)
    return _replace_grid(genome, vector_width=int(new_value))


def mutate_fpga_batch(
    genome: HardwareGenome, space: CoDesignSearchSpace, rng: np.random.Generator
) -> HardwareGenome:
    """Change the FPGA inference batch size."""
    new_batch = _choice_different(rng, space.hardware_space.batch_sizes, genome.batch_size)
    return HardwareGenome(grid=genome.grid, batch_size=int(new_batch))


# ---------------------------------------------------------------- composite


@dataclass
class CoDesignMutator:
    """Applies one weighted-random mutation to a co-design genome.

    Parameters
    ----------
    space:
        The search space defining legal values.
    config:
        Relative operator weights.
    device:
        Optional FPGA device; when given, hardware mutations that produce a
        grid exceeding the device's resources are retried (up to
        ``max_attempts``) and finally rejected in favour of the original
        genome, keeping the population feasible by construction.
    """

    space: CoDesignSearchSpace
    config: MutationConfig = field(default_factory=MutationConfig)
    device: FPGADevice | None = None
    max_attempts: int = 8

    def __post_init__(self) -> None:
        weights = self.config.as_dict()
        self._operator_names = [name for name, weight in weights.items() if weight > 0]
        total = sum(weights[name] for name in self._operator_names)
        self._operator_cdf = weights_cdf([weights[name] / total for name in self._operator_names])

    def mutate(self, genome: CoDesignGenome, rng: np.random.Generator) -> CoDesignGenome:
        """Return a mutated copy of ``genome`` (always at least attempts a change)."""
        for _ in range(self.max_attempts):
            operator = self._operator_names[pick_weighted(rng, self._operator_cdf)]
            candidate = self._apply(operator, genome, rng)
            if candidate == genome:
                continue
            if self.device is not None and not candidate.hardware.fits(self.device):
                continue
            return candidate
        return genome

    def _apply(self, operator: str, genome: CoDesignGenome, rng: np.random.Generator) -> CoDesignGenome:
        if operator == "layer_size":
            return genome.with_mlp(mutate_layer_size(genome.mlp, self.space, rng))
        if operator == "activation":
            return genome.with_mlp(mutate_activation(genome.mlp, self.space, rng))
        if operator == "add_layer":
            return genome.with_mlp(mutate_add_layer(genome.mlp, self.space, rng))
        if operator == "remove_layer":
            return genome.with_mlp(mutate_remove_layer(genome.mlp, self.space, rng))
        if operator == "bias":
            return genome.with_mlp(mutate_bias(genome.mlp, self.space, rng))
        if operator == "grid_dimension":
            return genome.with_hardware(mutate_grid_dimension(genome.hardware, self.space, rng))
        if operator == "interleave":
            return genome.with_hardware(mutate_interleave(genome.hardware, self.space, rng))
        if operator == "vector_width":
            return genome.with_hardware(mutate_vector_width(genome.hardware, self.space, rng))
        if operator == "fpga_batch":
            return genome.with_hardware(mutate_fpga_batch(genome.hardware, self.space, rng))
        if operator == "gpu_batch":
            return mutate_gpu_batch(genome, self.space, rng)
        raise ValueError(f"unknown mutation operator {operator!r}")


def mutate_gpu_batch(
    genome: CoDesignGenome, space: CoDesignSearchSpace, rng: np.random.Generator
) -> CoDesignGenome:
    """Change the GPU baseline batch size."""
    new_batch = _choice_different(rng, space.gpu_batch_sizes, genome.gpu_batch_size)
    return CoDesignGenome(mlp=genome.mlp, hardware=genome.hardware, gpu_batch_size=int(new_batch))
