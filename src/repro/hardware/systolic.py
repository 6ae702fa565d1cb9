"""2D systolic-array ("grid") overlay configuration.

Section III-C of the paper: *"the design we used is based on a 2D systolic
array architecture that includes additional functionality to support
activation functions and vector additions for bias operations.  This 'grid'
architecture has various design space variables that we allow mutations to
take place on.  The variables are the number of rows and columns, double
buffer cache sizes for each dimension, called interleaving, and the vector
width of each processing element (PE)."*

:class:`GridConfig` captures exactly those variables.  The number of DSP
blocks consumed is ``rows * columns * vector_width`` (each PE performs
``vector_width`` FP32 MACs per cycle); the interleave factors set the tile of
the output matrix the grid computes per pass and the M20K storage of the
double buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..sampling import pick
from .device import FPGADevice

__all__ = ["GridConfig", "GridSearchSpace"]

#: Bytes held by a single M20K block (20 kbit).
_M20K_BYTES = 2_560


@dataclass(frozen=True)
class GridConfig:
    """One systolic-array overlay instantiation.

    Attributes
    ----------
    rows / columns:
        Dimensions of the PE grid; rows stream the output ``m`` dimension
        (batch), columns the output ``n`` dimension (neurons).
    interleave_rows / interleave_columns:
        Double-buffer depth per grid dimension.  A single pass of the array
        computes an output tile of ``(rows * interleave_rows)`` x
        ``(columns * interleave_columns)`` elements.
    vector_width:
        Number of FP32 MACs each PE performs per cycle (the dot-product
        unrolling along the ``k`` dimension).
    """

    rows: int
    columns: int
    interleave_rows: int = 8
    interleave_columns: int = 8
    vector_width: int = 8

    def __post_init__(self) -> None:
        for field_name in ("rows", "columns", "interleave_rows", "interleave_columns", "vector_width"):
            value = getattr(self, field_name)
            if int(value) <= 0:
                raise ValueError(f"GridConfig.{field_name} must be positive, got {value}")

    # ------------------------------------------------------------- resources
    @property
    def pe_count(self) -> int:
        """Number of processing elements in the grid."""
        return self.rows * self.columns

    @property
    def dsp_blocks_used(self) -> int:
        """Hardened FP32 DSP blocks consumed (one MAC per block per cycle)."""
        return self.rows * self.columns * self.vector_width

    @property
    def macs_per_cycle(self) -> int:
        """Multiply-accumulate operations the grid retires per clock cycle."""
        return self.dsp_blocks_used

    @property
    def flops_per_cycle(self) -> int:
        """Floating-point operations per cycle (2 per MAC)."""
        return 2 * self.macs_per_cycle

    # ------------------------------------------------------------------ tiles
    @property
    def block_m(self) -> int:
        """Output-tile extent along the batch (``m``) dimension."""
        return self.rows * self.interleave_rows

    @property
    def block_n(self) -> int:
        """Output-tile extent along the neuron (``n``) dimension."""
        return self.columns * self.interleave_columns

    @property
    def block_k(self) -> int:
        """Dot-product chunk consumed per cycle along the ``k`` dimension."""
        return self.vector_width

    def double_buffer_bytes(self, k_depth: int) -> int:
        """On-chip bytes required to double-buffer A and B tiles for depth ``k_depth``.

        The A buffer holds ``block_m x k_depth`` words, the B buffer
        ``k_depth x block_n`` words, both double-buffered (factor 2) at FP32.
        """
        if k_depth <= 0:
            raise ValueError(f"k_depth must be positive, got {k_depth}")
        words = (self.block_m + self.block_n) * k_depth
        return 2 * 4 * words

    def m20k_blocks_required(self, k_depth: int = 512) -> int:
        """M20K blocks needed for the interleave double buffers at depth ``k_depth``."""
        required_bytes = self.double_buffer_bytes(k_depth)
        return -(-required_bytes // _M20K_BYTES)  # ceiling division

    # -------------------------------------------------------------- validity
    def fits(self, device: FPGADevice, k_depth: int = 512) -> bool:
        """Whether this configuration fits the device's DSP and M20K budget."""
        if self.dsp_blocks_used > device.dsp_count:
            return False
        # Leave 25% of M20Ks for the rest of the overlay (control, FIFOs).
        if self.m20k_blocks_required(k_depth) > 0.75 * device.m20k_count:
            return False
        return True

    def validate_for(self, device: FPGADevice, k_depth: int = 512) -> None:
        """Raise ``ValueError`` if the configuration exceeds the device budget."""
        if self.dsp_blocks_used > device.dsp_count:
            raise ValueError(
                f"grid {self} needs {self.dsp_blocks_used} DSP blocks but "
                f"{device.name} has only {device.dsp_count}"
            )
        required = self.m20k_blocks_required(k_depth)
        budget = int(0.75 * device.m20k_count)
        if required > budget:
            raise ValueError(
                f"grid {self} needs {required} M20K blocks for interleave buffers but "
                f"only {budget} are available on {device.name}"
            )

    def peak_gflops(self, device: FPGADevice) -> float:
        """Compute roofline of this grid on ``device`` in GFLOP/s."""
        return self.flops_per_cycle * device.clock_mhz / 1e3

    def to_dict(self) -> dict:
        """JSON-serializable representation (used in genomes and caches)."""
        return {
            "rows": self.rows,
            "columns": self.columns,
            "interleave_rows": self.interleave_rows,
            "interleave_columns": self.interleave_columns,
            "vector_width": self.vector_width,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            rows=int(data["rows"]),
            columns=int(data["columns"]),
            interleave_rows=int(data.get("interleave_rows", 8)),
            interleave_columns=int(data.get("interleave_columns", 8)),
            vector_width=int(data.get("vector_width", 8)),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.rows}x{self.columns} grid, interleave {self.interleave_rows}x"
            f"{self.interleave_columns}, vector {self.vector_width}"
        )


@dataclass(frozen=True)
class GridSearchSpace:
    """The discrete design space the evolutionary engine mutates over.

    Each attribute is the tuple of allowed values for the corresponding
    :class:`GridConfig` field.  The defaults cover the powers of two the
    Intel SGEMM overlay generator supports, bounded so the largest
    configuration still fits an Arria 10.
    """

    rows: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    columns: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    interleave_rows: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    interleave_columns: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    vector_width: tuple[int, ...] = (1, 2, 4, 8, 16)

    def __post_init__(self) -> None:
        for field_name in ("rows", "columns", "interleave_rows", "interleave_columns", "vector_width"):
            values = getattr(self, field_name)
            if not values:
                raise ValueError(f"GridSearchSpace.{field_name} must not be empty")
            if any(int(v) <= 0 for v in values):
                raise ValueError(f"GridSearchSpace.{field_name} must contain positive values")
            object.__setattr__(self, field_name, tuple(sorted(int(v) for v in values)))

    @property
    def size(self) -> int:
        """Total number of grid configurations in the space."""
        return (
            len(self.rows)
            * len(self.columns)
            * len(self.interleave_rows)
            * len(self.interleave_columns)
            * len(self.vector_width)
        )

    def all_configs(self) -> list[GridConfig]:
        """Materialize every configuration in the space (used by exhaustive sweeps)."""
        return [
            GridConfig(r, c, ir, ic, v)
            for r, c, ir, ic, v in product(
                self.rows,
                self.columns,
                self.interleave_rows,
                self.interleave_columns,
                self.vector_width,
            )
        ]

    def feasible_configs(self, device: FPGADevice) -> list[GridConfig]:
        """All configurations that fit the given device."""
        return [config for config in self.all_configs() if config.fits(device)]

    def random_config(self, rng, device: FPGADevice | None = None, max_attempts: int = 100) -> GridConfig:
        """Draw a random configuration, optionally rejecting ones that do not fit.

        Parameters
        ----------
        rng:
            ``numpy.random.Generator`` used for the draw.
        device:
            When given, re-draw until the configuration fits (up to
            ``max_attempts`` tries, then fall back to the smallest config).
        """
        for _ in range(max_attempts):
            config = GridConfig(
                rows=pick(rng, self.rows),
                columns=pick(rng, self.columns),
                interleave_rows=pick(rng, self.interleave_rows),
                interleave_columns=pick(rng, self.interleave_columns),
                vector_width=pick(rng, self.vector_width),
            )
            if device is None or config.fits(device):
                return config
        return GridConfig(
            rows=self.rows[0],
            columns=self.columns[0],
            interleave_rows=self.interleave_rows[0],
            interleave_columns=self.interleave_columns[0],
            vector_width=self.vector_width[0],
        )
