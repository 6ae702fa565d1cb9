"""Synthesis-level resource and timing estimation (the "physical worker" model).

Section III-B of the paper: *"Physical workers can be used to synthesize and
evaluate hardware designs...  In the case of Intel FPGAs, the physical worker
responds with ALM, M20K, and DSP utilization, power estimations, and clock
frequency (Fmax)."*  Running Quartus is out of scope for an offline
reproduction, so this module provides an analytical estimator with the same
interface and outputs: given a grid configuration and a target device it
reports logic (ALM), memory (M20K) and DSP utilization, an achievable Fmax,
and chip power.

The estimator is an affine cost model per overlay component (PE datapath,
drain network, interleave buffers, memory interface and control), with an Fmax
derate that grows with device fill — large designs route worse, which is why
the paper's average achieved clock on the Arria 10 settled at 250 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import FPGADevice
from .power import FPGAPowerModel
from .systolic import GridConfig

__all__ = ["SynthesisReport", "SynthesisModel"]

# Per-component ALM cost coefficients (calibrated against published Intel
# OpenCL SGEMM overlay utilization figures: a 10x8 grid with vector width 8
# occupies roughly half of an Arria 10's logic).
_ALM_BASE_OVERLAY = 40_000          # board interface, DMA engines, control
_ALM_PER_PE = 900                   # PE control, accumulator mux, drain logic
_ALM_PER_VECTOR_LANE = 85           # per-MAC routing and operand registers
_ALM_PER_INTERLEAVE_UNIT = 25       # double-buffer addressing logic

# M20K cost beyond the interleave double buffers themselves.
_M20K_BASE_OVERLAY = 120            # DMA FIFOs, kernel argument storage
_M20K_PER_PE = 2                    # accumulator spill / drain FIFOs

# Fmax model: start from the device's nominal overlay clock and derate as the
# device fills up (routing congestion) and as the grid gets physically wide.
_FMAX_FILL_DERATE = 0.35            # fraction of clock lost at 100% ALM fill
_FMAX_WIDTH_DERATE = 0.0015         # fraction lost per PE-grid column+row


@dataclass(frozen=True)
class SynthesisReport:
    """Resource utilization and timing estimate for one overlay build.

    Mirrors the metrics the paper's physical worker returns for Intel FPGAs.
    """

    device_name: str
    alm_used: int
    alm_utilization: float
    m20k_used: int
    m20k_utilization: float
    dsp_used: int
    dsp_utilization: float
    fmax_mhz: float
    power_watts: float

    @property
    def fits(self) -> bool:
        """Whether all resource utilizations are at or below 100%."""
        return (
            self.alm_utilization <= 1.0
            and self.m20k_utilization <= 1.0
            and self.dsp_utilization <= 1.0
        )

    def to_dict(self) -> dict:
        """Flat dictionary form used by reports."""
        return {
            "device_name": self.device_name,
            "alm_used": self.alm_used,
            "alm_utilization": self.alm_utilization,
            "m20k_used": self.m20k_used,
            "m20k_utilization": self.m20k_utilization,
            "dsp_used": self.dsp_used,
            "dsp_utilization": self.dsp_utilization,
            "fmax_mhz": self.fmax_mhz,
            "power_watts": self.power_watts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SynthesisReport":
        """Inverse of :meth:`to_dict` (used by the persistent evaluation store)."""
        return cls(
            device_name=str(data["device_name"]),
            alm_used=int(data["alm_used"]),
            alm_utilization=float(data["alm_utilization"]),
            m20k_used=int(data["m20k_used"]),
            m20k_utilization=float(data["m20k_utilization"]),
            dsp_used=int(data["dsp_used"]),
            dsp_utilization=float(data["dsp_utilization"]),
            fmax_mhz=float(data["fmax_mhz"]),
            power_watts=float(data["power_watts"]),
        )


class SynthesisModel:
    """Analytical stand-in for the Quartus synthesis + place-and-route flow."""

    def __init__(self, power_model: FPGAPowerModel | None = None, k_depth: int = 512) -> None:
        if k_depth <= 0:
            raise ValueError(f"k_depth must be positive, got {k_depth}")
        self.power_model = power_model or FPGAPowerModel()
        self.k_depth = int(k_depth)

    def estimate(self, config: GridConfig, device: FPGADevice) -> SynthesisReport:
        """Produce a synthesis report for ``config`` targeting ``device``."""
        pe_count = config.pe_count
        vector_lanes = config.dsp_blocks_used
        interleave_units = config.interleave_rows * config.interleave_columns

        alm_used = int(
            _ALM_BASE_OVERLAY
            + _ALM_PER_PE * pe_count
            + _ALM_PER_VECTOR_LANE * vector_lanes
            + _ALM_PER_INTERLEAVE_UNIT * interleave_units
        )
        m20k_used = int(
            _M20K_BASE_OVERLAY
            + _M20K_PER_PE * pe_count
            + config.m20k_blocks_required(self.k_depth)
        )
        dsp_used = config.dsp_blocks_used

        alm_utilization = alm_used / device.alm_count
        m20k_utilization = m20k_used / device.m20k_count
        dsp_utilization = dsp_used / device.dsp_count

        fill = min(1.0, max(alm_utilization, dsp_utilization, m20k_utilization))
        width_penalty = _FMAX_WIDTH_DERATE * (config.rows + config.columns)
        fmax_mhz = device.clock_mhz * (1.0 - _FMAX_FILL_DERATE * fill - width_penalty)
        fmax_mhz = max(50.0, fmax_mhz)

        power = self.power_model.estimate(device, config)

        return SynthesisReport(
            device_name=device.name,
            alm_used=alm_used,
            alm_utilization=alm_utilization,
            m20k_used=m20k_used,
            m20k_utilization=m20k_utilization,
            dsp_used=dsp_used,
            dsp_utilization=dsp_utilization,
            fmax_mhz=fmax_mhz,
            power_watts=power,
        )
