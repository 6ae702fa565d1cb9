"""Device descriptions for the FPGA and GPU targets evaluated in the paper.

The hardware database worker receives "a hardware-specific configuration file
that defines the target accelerator ... the name of the FPGA, the relevant
primitive logic details such as DSP and SRAM count, target clock frequency,
the type of global memory (DRAM) to be used, and its speed and rate"
(section III-C).  :class:`FPGADevice` is that configuration file in dataclass
form.  :class:`GPUDevice` plays the same role for the simulation worker's GPU
targets.

Catalogue entries reproduce the devices named in section IV:

* Arria 10 GX 1150 at 250 MHz — 1518 hardened FP32 DSP blocks, peak
  759 GFLOP/s, one bank of DDR4 at 19.2 GB/s on the development kit.
* Stratix 10 2800 at 400 MHz — searched with the roofline scaled back to
  4.6 TFLOP/s, four banks of DDR4.
* NVIDIA Quadro M5000 (4.3 TFLOP/s FP32, 211 GB/s), Titan X (12 TFLOP/s),
  AMD Radeon VII (13.44 TFLOP/s, 1 TB/s HBM2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..registry import Registry

__all__ = [
    "FPGADevice",
    "GPUDevice",
    "ARRIA10_GX1150",
    "STRATIX10_2800",
    "QUADRO_M5000",
    "TITAN_X",
    "RADEON_VII",
    "FPGA_DEVICES",
    "GPU_DEVICES",
    "register_fpga_device",
    "register_gpu_device",
    "fpga_device",
    "gpu_device",
    "available_fpga_devices",
    "available_gpu_devices",
]


@dataclass(frozen=True)
class FPGADevice:
    """Reconfigurable-device resource budget and clocking assumptions.

    Attributes
    ----------
    name:
        Marketing name of the device.
    dsp_count:
        Number of hardened floating-point DSP blocks available; each block
        performs one FP32 multiply-accumulate (2 FLOPs) per cycle.
    m20k_count:
        Number of 20-kbit embedded SRAM blocks (used for interleave buffers).
    alm_count:
        Adaptive logic modules available for the overlay's control logic.
    clock_mhz:
        Target kernel clock frequency achieved by the OpenCL overlay.
    ddr_banks:
        Number of DDR banks populated on the board.
    ddr_bandwidth_gbps_per_bank:
        Peak bandwidth of one DDR bank in GB/s.
    """

    name: str
    dsp_count: int
    m20k_count: int
    alm_count: int
    clock_mhz: float
    ddr_banks: int = 1
    ddr_bandwidth_gbps_per_bank: float = 19.2

    def __post_init__(self) -> None:
        if self.dsp_count <= 0:
            raise ValueError(f"dsp_count must be positive, got {self.dsp_count}")
        if self.m20k_count <= 0:
            raise ValueError(f"m20k_count must be positive, got {self.m20k_count}")
        if self.alm_count <= 0:
            raise ValueError(f"alm_count must be positive, got {self.alm_count}")
        if self.clock_mhz <= 0:
            raise ValueError(f"clock_mhz must be positive, got {self.clock_mhz}")
        if self.ddr_banks <= 0:
            raise ValueError(f"ddr_banks must be positive, got {self.ddr_banks}")
        if self.ddr_bandwidth_gbps_per_bank <= 0:
            raise ValueError(
                f"ddr_bandwidth_gbps_per_bank must be positive, got {self.ddr_bandwidth_gbps_per_bank}"
            )

    @property
    def clock_hz(self) -> float:
        """Kernel clock in Hz."""
        return self.clock_mhz * 1e6

    @property
    def peak_gflops(self) -> float:
        """Device compute roofline in GFLOP/s (2 FLOPs per DSP per cycle)."""
        return 2.0 * self.dsp_count * self.clock_mhz / 1e3

    @property
    def total_bandwidth_gbps(self) -> float:
        """Aggregate DRAM bandwidth across all populated banks, in GB/s."""
        return self.ddr_banks * self.ddr_bandwidth_gbps_per_bank

    @property
    def on_chip_memory_bytes(self) -> int:
        """Total embedded SRAM capacity in bytes (20 kbit per M20K block)."""
        return int(self.m20k_count * 20_480 / 8)

    def with_ddr_banks(self, banks: int) -> "FPGADevice":
        """Return a copy of this device populated with a different bank count.

        Section IV-C sweeps 1, 2 and 4 banks on the same Arria 10 board; this
        helper is what that sweep uses.
        """
        return replace(self, ddr_banks=int(banks))

    def with_clock(self, clock_mhz: float) -> "FPGADevice":
        """Return a copy of this device at a different kernel clock."""
        return replace(self, clock_mhz=float(clock_mhz))


@dataclass(frozen=True)
class GPUDevice:
    """Fixed-architecture GPU description used by the simulation worker.

    Attributes
    ----------
    name:
        Marketing name.
    peak_tflops:
        FP32 single-precision peak in TFLOP/s.
    memory_bandwidth_gbps:
        Peak DRAM bandwidth in GB/s.
    memory_gb:
        On-board memory capacity in GB.
    streaming_multiprocessors:
        Number of SM/CU compute clusters; drives the utilization model for
        small GEMMs.
    kernel_launch_overhead_us:
        Fixed per-operation dispatch latency observed through the framework
        (the paper profiles TensorFlow trace files, whose per-op overhead
        dominates small MLP layers).
    board_power_watts:
        Maximum board power; the paper reports the GPUs drawing roughly a
        third of this during MLP runs.
    """

    name: str
    peak_tflops: float
    memory_bandwidth_gbps: float
    memory_gb: float
    streaming_multiprocessors: int
    kernel_launch_overhead_us: float = 60.0
    board_power_watts: float = 150.0

    def __post_init__(self) -> None:
        if self.peak_tflops <= 0:
            raise ValueError(f"peak_tflops must be positive, got {self.peak_tflops}")
        if self.memory_bandwidth_gbps <= 0:
            raise ValueError(
                f"memory_bandwidth_gbps must be positive, got {self.memory_bandwidth_gbps}"
            )
        if self.memory_gb <= 0:
            raise ValueError(f"memory_gb must be positive, got {self.memory_gb}")
        if self.streaming_multiprocessors <= 0:
            raise ValueError(
                f"streaming_multiprocessors must be positive, got {self.streaming_multiprocessors}"
            )
        if self.kernel_launch_overhead_us < 0:
            raise ValueError(
                f"kernel_launch_overhead_us must be >= 0, got {self.kernel_launch_overhead_us}"
            )
        if self.board_power_watts <= 0:
            raise ValueError(f"board_power_watts must be positive, got {self.board_power_watts}")

    @property
    def peak_gflops(self) -> float:
        """FP32 peak in GFLOP/s."""
        return self.peak_tflops * 1e3

    @property
    def peak_flops(self) -> float:
        """FP32 peak in FLOP/s."""
        return self.peak_tflops * 1e12

    @property
    def memory_bandwidth_bytes_per_second(self) -> float:
        """Peak DRAM bandwidth in bytes/s."""
        return self.memory_bandwidth_gbps * 1e9


# ---------------------------------------------------------------------------
# Device catalogue (section IV of the paper).
# ---------------------------------------------------------------------------

ARRIA10_GX1150 = FPGADevice(
    name="Arria 10 GX 1150",
    dsp_count=1518,
    m20k_count=2713,
    alm_count=427_200,
    clock_mhz=250.0,
    ddr_banks=1,
    ddr_bandwidth_gbps_per_bank=19.2,
)

STRATIX10_2800 = FPGADevice(
    name="Stratix 10 GX 2800",
    dsp_count=5760,
    m20k_count=11_721,
    alm_count=933_120,
    clock_mhz=400.0,
    ddr_banks=4,
    ddr_bandwidth_gbps_per_bank=19.2,
)

QUADRO_M5000 = GPUDevice(
    name="NVIDIA Quadro M5000",
    peak_tflops=4.3,
    memory_bandwidth_gbps=211.0,
    memory_gb=8.0,
    streaming_multiprocessors=16,
    kernel_launch_overhead_us=60.0,
    board_power_watts=150.0,
)

TITAN_X = GPUDevice(
    name="NVIDIA Titan X",
    peak_tflops=12.0,
    memory_bandwidth_gbps=480.0,
    memory_gb=12.0,
    streaming_multiprocessors=28,
    kernel_launch_overhead_us=55.0,
    board_power_watts=250.0,
)

RADEON_VII = GPUDevice(
    name="AMD Radeon VII",
    peak_tflops=13.44,
    memory_bandwidth_gbps=1000.0,
    memory_gb=16.0,
    streaming_multiprocessors=60,
    kernel_launch_overhead_us=70.0,
    board_power_watts=300.0,
)

#: Open device catalogues; plugins may register their own boards by name.
FPGA_DEVICES: Registry[FPGADevice] = Registry("FPGA device")
GPU_DEVICES: Registry[GPUDevice] = Registry("GPU device")


def register_fpga_device(
    name: str, device: FPGADevice, aliases: tuple[str, ...] = (), overwrite: bool = False
) -> FPGADevice:
    """Add an FPGA device to the catalogue under ``name`` (plus aliases)."""
    return FPGA_DEVICES.register(name, device, aliases=aliases, overwrite=overwrite)


def register_gpu_device(
    name: str, device: GPUDevice, aliases: tuple[str, ...] = (), overwrite: bool = False
) -> GPUDevice:
    """Add a GPU device to the catalogue under ``name`` (plus aliases)."""
    return GPU_DEVICES.register(name, device, aliases=aliases, overwrite=overwrite)


register_fpga_device("arria10", ARRIA10_GX1150, aliases=("arria10_gx1150", "a10"))
register_fpga_device("stratix10", STRATIX10_2800, aliases=("stratix10_2800", "s10"))

register_gpu_device("quadro_m5000", QUADRO_M5000, aliases=("m5000",))
register_gpu_device("titan_x", TITAN_X, aliases=("titanx", "tx"))
register_gpu_device("radeon_vii", RADEON_VII, aliases=("radeonvii",))


def available_fpga_devices() -> list[str]:
    """Marketing names of FPGA devices in the catalogue."""
    return sorted({device.name for device in FPGA_DEVICES.entries().values()})


def available_gpu_devices() -> list[str]:
    """Marketing names of GPU devices in the catalogue."""
    return sorted({device.name for device in GPU_DEVICES.entries().values()})


def fpga_device(name: str) -> FPGADevice:
    """Look up an FPGA device by registered name or common alias."""
    return FPGA_DEVICES.resolve(name)


def gpu_device(name: str) -> GPUDevice:
    """Look up a GPU device by registered name or common alias."""
    return GPU_DEVICES.resolve(name)
