"""Co-design genomes and their search spaces.

The ECAD evolutionary process "generates a population of NNA/Hardware
co-design candidates each with a complete set of parameters that effect both
the accuracy and the hardware performance.  The parameters we considered
during our searches included number of layers, layer size, activation
function, and bias" (section III-A), while the hardware side mutates the grid
rows/columns, interleaving and vector width (section III-C).

A genome is deliberately *declarative*: it holds parameter values only, no
trained weights and no derived metrics, so it can be hashed for the
evaluation cache, serialized into configuration files, and crossed over /
mutated without touching any heavyweight state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from ..hardware.device import FPGADevice
from ..hardware.systolic import GridConfig, GridSearchSpace
from ..nn.activations import ACTIVATIONS
from ..nn.mlp import MLPSpec
from ..sampling import pick
from .errors import GenomeError

__all__ = [
    "MLPGenome",
    "HardwareGenome",
    "CoDesignGenome",
    "MLPSearchSpace",
    "HardwareSearchSpace",
    "CoDesignSearchSpace",
]


# ---------------------------------------------------------------------------
# Genomes
# ---------------------------------------------------------------------------


def _memoized_canonical_json(half: "MLPGenome | HardwareGenome") -> str:
    fragment = half.__dict__.get("_canonical_json")
    if fragment is None:
        fragment = json.dumps(half.to_dict(), sort_keys=True, separators=(",", ":"))
        object.__setattr__(half, "_canonical_json", fragment)
    return fragment


@dataclass(frozen=True)
class MLPGenome:
    """Neural-architecture half of a co-design candidate.

    Attributes
    ----------
    hidden_layers:
        Neuron count of each hidden layer, in order.  May be empty (a
        softmax-regression network), although search spaces usually require
        at least one hidden layer.
    activations:
        Activation name per hidden layer (same length as ``hidden_layers``).
    use_bias:
        Whether all layers carry bias vectors (a single switch, as in the
        paper's parameter list).
    """

    hidden_layers: tuple[int, ...]
    activations: tuple[str, ...]
    use_bias: bool = True

    def __post_init__(self) -> None:
        hidden = tuple(int(h) for h in self.hidden_layers)
        acts = tuple(str(a) for a in self.activations)
        if any(h <= 0 for h in hidden):
            raise GenomeError(f"hidden layer sizes must be positive, got {hidden}")
        if len(acts) != len(hidden):
            raise GenomeError(
                f"got {len(acts)} activations for {len(hidden)} hidden layers"
            )
        for name in acts:
            if name not in ACTIVATIONS:
                raise GenomeError(f"unknown activation {name!r} in genome")
        object.__setattr__(self, "hidden_layers", hidden)
        object.__setattr__(self, "activations", acts)

    @property
    def num_hidden_layers(self) -> int:
        """Number of hidden layers."""
        return len(self.hidden_layers)

    @property
    def total_hidden_neurons(self) -> int:
        """Total neurons across hidden layers (the paper's "network size" axis)."""
        return int(sum(self.hidden_layers))

    def to_spec(self, input_size: int, output_size: int) -> MLPSpec:
        """Materialize the genome into a trainable :class:`MLPSpec`."""
        return MLPSpec(
            input_size=input_size,
            output_size=output_size,
            hidden_sizes=self.hidden_layers,
            activations=self.activations if self.activations else ("relu",),
            use_bias=self.use_bias,
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "hidden_layers": list(self.hidden_layers),
            "activations": list(self.activations),
            "use_bias": self.use_bias,
        }

    def canonical_json(self) -> str:
        """Compact ``sort_keys`` JSON of :meth:`to_dict`, computed once.

        Kept on the instance outside the dataclass fields, like
        :meth:`CoDesignGenome.cache_key`, so a bred child that shares this
        half reuses it.
        """
        return _memoized_canonical_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MLPGenome":
        """Inverse of :meth:`to_dict`."""
        return cls(
            hidden_layers=tuple(int(h) for h in data["hidden_layers"]),
            activations=tuple(data["activations"]),
            use_bias=bool(data.get("use_bias", True)),
        )


@dataclass(frozen=True)
class HardwareGenome:
    """Hardware half of a co-design candidate.

    Attributes
    ----------
    grid:
        The systolic-array configuration (rows, columns, interleaving, vector
        width).
    batch_size:
        Number of samples resident in accelerator DRAM per run (the GEMM
        ``m`` dimension of one run).  The paper's total-time metric covers a
        whole run — enqueue to last result — so throughput is measured over
        this many samples; the overlay still tiles it into small
        ``rows x interleave_rows`` blocks internally, which is why the FPGA
        remains a low-latency accelerator even at large run sizes.
    """

    grid: GridConfig
    batch_size: int = 1024

    def __post_init__(self) -> None:
        if int(self.batch_size) <= 0:
            raise GenomeError(f"batch_size must be positive, got {self.batch_size}")
        object.__setattr__(self, "batch_size", int(self.batch_size))

    @property
    def run_samples(self) -> int:
        """Alias for :attr:`batch_size` under the paper's "run" terminology."""
        return self.batch_size

    def fits(self, device: FPGADevice) -> bool:
        """Whether the grid fits the device's resource budget."""
        return self.grid.fits(device)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"grid": self.grid.to_dict(), "batch_size": self.batch_size}

    def canonical_json(self) -> str:
        """Compact ``sort_keys`` JSON of :meth:`to_dict`, computed once."""
        return _memoized_canonical_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareGenome":
        """Inverse of :meth:`to_dict`."""
        return cls(grid=GridConfig.from_dict(data["grid"]), batch_size=int(data.get("batch_size", 1024)))


@dataclass(frozen=True)
class CoDesignGenome:
    """A complete NNA + hardware candidate, the unit the population evolves.

    Attributes
    ----------
    mlp:
        The network-architecture genome.
    hardware:
        The FPGA overlay genome.
    gpu_batch_size:
        Batch size used when the same network is evaluated on the GPU
        baseline (the GPU has no other tunable hardware parameters).
    """

    mlp: MLPGenome
    hardware: HardwareGenome
    gpu_batch_size: int = 256

    def __post_init__(self) -> None:
        if int(self.gpu_batch_size) <= 0:
            raise GenomeError(f"gpu_batch_size must be positive, got {self.gpu_batch_size}")
        object.__setattr__(self, "gpu_batch_size", int(self.gpu_batch_size))

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "mlp": self.mlp.to_dict(),
            "hardware": self.hardware.to_dict(),
            "gpu_batch_size": self.gpu_batch_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoDesignGenome":
        """Inverse of :meth:`to_dict`."""
        return cls(
            mlp=MLPGenome.from_dict(data["mlp"]),
            hardware=HardwareGenome.from_dict(data["hardware"]),
            gpu_batch_size=int(data.get("gpu_batch_size", 256)),
        )

    def cache_key(self) -> str:
        """Stable hash identifying this exact parameter combination.

        The ECAD system "caches similar configurations and avoids reevaluating
        them" (Table III note); the key is a SHA-256 over the canonical JSON
        form (``json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))``),
        so any two genomes with identical parameters collide on purpose.  The
        JSON is joined from the halves' memoized fragments in key order.  The
        genome is immutable, so the key is computed once and kept on the
        instance (outside the dataclass fields: ``==`` and ``hash`` ignore it).
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            canonical = (
                f'{{"gpu_batch_size":{self.gpu_batch_size},'
                f'"hardware":{self.hardware.canonical_json()},'
                f'"mlp":{self.mlp.canonical_json()}}}'
            )
            key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return key

    def with_mlp(self, mlp: MLPGenome) -> "CoDesignGenome":
        """Return a copy with a different network half."""
        return replace(self, mlp=mlp)

    def with_hardware(self, hardware: HardwareGenome) -> "CoDesignGenome":
        """Return a copy with a different hardware half."""
        return replace(self, hardware=hardware)


# ---------------------------------------------------------------------------
# Search spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLPSearchSpace:
    """Bounds and choices for the network half of the genome.

    Attributes
    ----------
    min_layers / max_layers:
        Range of hidden-layer counts.
    layer_sizes:
        Allowed neuron counts per hidden layer.
    activations:
        Allowed activation names.
    allow_bias_toggle:
        Whether mutation may flip ``use_bias`` (when false, bias is always on).
    """

    min_layers: int = 1
    max_layers: int = 4
    layer_sizes: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024)
    activations: tuple[str, ...] = ("relu", "tanh", "sigmoid", "elu")
    allow_bias_toggle: bool = True

    def __post_init__(self) -> None:
        if self.min_layers < 0:
            raise GenomeError(f"min_layers must be >= 0, got {self.min_layers}")
        if self.max_layers < max(1, self.min_layers):
            raise GenomeError(
                f"max_layers ({self.max_layers}) must be >= min_layers ({self.min_layers}) and >= 1"
            )
        sizes = tuple(sorted(int(s) for s in self.layer_sizes))
        if not sizes or any(s <= 0 for s in sizes):
            raise GenomeError(f"layer_sizes must be positive and non-empty, got {self.layer_sizes}")
        acts = tuple(str(a) for a in self.activations)
        if not acts:
            raise GenomeError("activations must not be empty")
        for name in acts:
            if name not in ACTIVATIONS:
                raise GenomeError(f"unknown activation {name!r} in search space")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "activations", acts)

    def random_genome(self, rng: np.random.Generator) -> MLPGenome:
        """Draw a uniformly random network genome from this space."""
        num_layers = int(rng.integers(max(1, self.min_layers), self.max_layers + 1))
        hidden = tuple(pick(rng, self.layer_sizes) for _ in range(num_layers))
        acts = tuple(pick(rng, self.activations) for _ in range(num_layers))
        use_bias = bool(rng.integers(0, 2)) if self.allow_bias_toggle else True
        return MLPGenome(hidden_layers=hidden, activations=acts, use_bias=use_bias)

    def contains(self, genome: MLPGenome) -> bool:
        """Whether a genome lies inside this space's bounds."""
        if not (max(1, self.min_layers) <= genome.num_hidden_layers <= self.max_layers):
            return False
        if any(size not in self.layer_sizes for size in genome.hidden_layers):
            return False
        if any(act not in self.activations for act in genome.activations):
            return False
        if not self.allow_bias_toggle and not genome.use_bias:
            return False
        return True

    @property
    def size(self) -> int:
        """Number of distinct network genomes in the space."""
        total = 0
        per_layer_choices = len(self.layer_sizes) * len(self.activations)
        for depth in range(max(1, self.min_layers), self.max_layers + 1):
            total += per_layer_choices ** depth
        return total * (2 if self.allow_bias_toggle else 1)


@dataclass(frozen=True)
class HardwareSearchSpace:
    """Bounds and choices for the hardware half of the genome."""

    grid_space: GridSearchSpace = field(default_factory=GridSearchSpace)
    batch_sizes: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192)

    def __post_init__(self) -> None:
        batches = tuple(sorted(int(b) for b in self.batch_sizes))
        if not batches or any(b <= 0 for b in batches):
            raise GenomeError(f"batch_sizes must be positive and non-empty, got {self.batch_sizes}")
        object.__setattr__(self, "batch_sizes", batches)

    def random_genome(self, rng: np.random.Generator, device: FPGADevice | None = None) -> HardwareGenome:
        """Draw a random hardware genome, rejecting grids that do not fit ``device``."""
        grid = self.grid_space.random_config(rng, device=device)
        batch = pick(rng, self.batch_sizes)
        return HardwareGenome(grid=grid, batch_size=batch)

    def contains(self, genome: HardwareGenome) -> bool:
        """Whether a hardware genome lies inside this space's bounds."""
        grid = genome.grid
        space = self.grid_space
        return (
            grid.rows in space.rows
            and grid.columns in space.columns
            and grid.interleave_rows in space.interleave_rows
            and grid.interleave_columns in space.interleave_columns
            and grid.vector_width in space.vector_width
            and genome.batch_size in self.batch_sizes
        )

    @property
    def size(self) -> int:
        """Number of distinct hardware genomes in the space."""
        return self.grid_space.size * len(self.batch_sizes)


@dataclass(frozen=True)
class CoDesignSearchSpace:
    """The joint NNA x hardware design space the engine explores."""

    mlp_space: MLPSearchSpace = field(default_factory=MLPSearchSpace)
    hardware_space: HardwareSearchSpace = field(default_factory=HardwareSearchSpace)
    gpu_batch_sizes: tuple[int, ...] = (64, 128, 256, 512, 1024)

    def __post_init__(self) -> None:
        batches = tuple(sorted(int(b) for b in self.gpu_batch_sizes))
        if not batches or any(b <= 0 for b in batches):
            raise GenomeError(
                f"gpu_batch_sizes must be positive and non-empty, got {self.gpu_batch_sizes}"
            )
        object.__setattr__(self, "gpu_batch_sizes", batches)

    def random_genome(self, rng: np.random.Generator, device: FPGADevice | None = None) -> CoDesignGenome:
        """Draw a uniformly random co-design genome."""
        return CoDesignGenome(
            mlp=self.mlp_space.random_genome(rng),
            hardware=self.hardware_space.random_genome(rng, device=device),
            gpu_batch_size=pick(rng, self.gpu_batch_sizes),
        )

    def contains(self, genome: CoDesignGenome) -> bool:
        """Whether a co-design genome lies inside this space."""
        return (
            self.mlp_space.contains(genome.mlp)
            and self.hardware_space.contains(genome.hardware)
            and genome.gpu_batch_size in self.gpu_batch_sizes
        )

    @property
    def size(self) -> int:
        """Number of distinct co-design genomes in the joint space."""
        return self.mlp_space.size * self.hardware_space.size * len(self.gpu_batch_sizes)
