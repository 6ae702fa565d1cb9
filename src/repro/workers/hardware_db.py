"""Hardware database worker: FPGA overlay performance from the analytical model.

Section III-B: *"Hardware database workers provide a means for hardware
platforms that are easily simulated or modeled.  In our experiments ... we
leveraged the hardware database worker to provide a means of accepting both an
ANN description and hardware configuration that together were run through a
model to obtain the metrics for fitness evaluation."*  The reconfigurable
nature of FPGAs plus the modeled overlay "allows the worker to assess many
configurations in a relatively swift manner compared to running through
synthesis tools" — which is exactly why the evolutionary search is feasible.

This worker needs no dataset: the dataset's only influence on hardware
performance is through the GEMM dimensions, which the genome + dataset shape
already determine.  The input/output sizes are taken from the request's
dataset when present, or can be fixed at construction time for dataset-free
use (e.g. hardware-only sweeps).
"""

from __future__ import annotations

from ..hardware.device import ARRIA10_GX1150, FPGADevice
from ..hardware.fpga_model import FPGAPerformanceModel
from ..hardware.memory import DDR4_BANK, MemorySystem
from .base import EvaluationRequest, Worker, WorkerReport, register_worker

__all__ = ["HardwareDatabaseWorker"]


class HardwareDatabaseWorker(Worker):
    """Runs the FPGA overlay model for a co-design candidate.

    Parameters
    ----------
    device:
        The FPGA target; defaults to the Arria 10 GX 1150 used in most of the
        paper's experiments.
    memory:
        Optional explicit memory system; by default one is built from the
        device's DDR bank count (the Figure 3 sweep passes explicit systems).
    input_size / output_size:
        Fallback problem dimensions used when a request carries no dataset.
    """

    name = "hardware_database"

    def __init__(
        self,
        device: FPGADevice = ARRIA10_GX1150,
        memory: MemorySystem | None = None,
        input_size: int = 0,
        output_size: int = 0,
    ) -> None:
        self.device = device
        self.memory = memory if memory is not None else MemorySystem(DDR4_BANK, banks=device.ddr_banks)
        self.model = FPGAPerformanceModel(device, memory=self.memory)
        self.input_size = int(input_size)
        self.output_size = int(output_size)

    def evaluate(self, request: EvaluationRequest) -> WorkerReport:
        """Model the candidate's network on the candidate's grid configuration."""
        report = WorkerReport(worker_name=self.name)
        input_size, output_size = self._problem_dimensions(request)
        if input_size <= 0 or output_size <= 0:
            report.error = (
                "hardware database worker needs a dataset or explicit input/output sizes"
            )
            return report
        spec = request.genome.mlp.to_spec(input_size, output_size)
        hardware = request.genome.hardware
        try:
            report.fpga_metrics = self.model.evaluate(
                spec, hardware.grid, batch_size=hardware.batch_size
            )
        except Exception as exc:  # noqa: BLE001 - infeasible grids become reported errors
            report.error = f"FPGA model failed: {exc}"
        report.parameter_count = spec.parameter_count
        return report

    def _problem_dimensions(self, request: EvaluationRequest) -> tuple[int, int]:
        if request.dataset is not None:
            return request.dataset.num_features, request.dataset.num_classes
        return self.input_size, self.output_size


register_worker(
    "hardware_db", HardwareDatabaseWorker, aliases=("hardware_database", "hwdb")
)
