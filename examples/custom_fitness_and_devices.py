"""Extending the framework: custom fitness objectives and custom devices.

The paper notes that "simple evaluation functions can be specified in the
configuration file and more complex ones are written in code and added by
registering them with the framework".  This example shows both extension
points working together:

* a custom objective, ``latency_per_parameter``, registered with the fitness
  registry and used alongside accuracy in a search, and
* a custom (hypothetical) FPGA device — a small edge-class part with one slow
  DDR bank — showing that nothing in the flow is hard-wired to the Arria 10 /
  Stratix 10 catalogue entries.

Run with::

    python examples/custom_fitness_and_devices.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.engine import EngineConfig, EvolutionaryEngine
from repro.core.fitness import FitnessEvaluator
from repro.core.genome import CoDesignSearchSpace, HardwareSearchSpace, MLPSearchSpace
from repro.core.objectives import ObjectiveSpec, register_objective
from repro.datasets.registry import load_dataset
from repro.hardware.device import FPGADevice, TITAN_X
from repro.hardware.systolic import GridSearchSpace
from repro.nn.training import TrainingConfig
from repro.workers.hardware_db import HardwareDatabaseWorker
from repro.workers.master import Master
from repro.workers.physical import PhysicalWorker
from repro.workers.simulation import SimulationWorker

# 1. A custom edge-class FPGA: ~1/8 of an Arria 10, single slow DDR3 bank.
EDGE_FPGA = FPGADevice(
    name="EdgeML-190",
    dsp_count=192,
    m20k_count=440,
    alm_count=56_000,
    clock_mhz=200.0,
    ddr_banks=1,
    ddr_bandwidth_gbps_per_bank=6.4,
)


# 2. A custom objective: penalize designs whose latency is large relative to
#    how many parameters they serve (a proxy for "responsiveness per model
#    capacity" on an interactive edge deployment).
def latency_per_parameter(evaluation) -> float:
    if evaluation.fpga_metrics is None or evaluation.parameter_count == 0:
        return float("inf")
    return evaluation.fpga_metrics.latency_seconds / evaluation.parameter_count


def main() -> None:
    register_objective("latency_per_parameter", latency_per_parameter, overwrite=True)

    dataset = load_dataset("phishing", seed=0, scale=0.03)
    print(f"dataset: {dataset}")
    print(f"custom device: {EDGE_FPGA.name}, {EDGE_FPGA.dsp_count} DSPs, "
          f"{EDGE_FPGA.total_bandwidth_gbps:.1f} GB/s, peak {EDGE_FPGA.peak_gflops:.0f} GFLOP/s")

    # A search space sized for the small device.
    space = CoDesignSearchSpace(
        mlp_space=MLPSearchSpace(max_layers=3, layer_sizes=(16, 32, 64, 128), activations=("relu", "tanh")),
        hardware_space=HardwareSearchSpace(
            grid_space=GridSearchSpace(
                rows=(1, 2, 4, 8), columns=(1, 2, 4, 8), vector_width=(1, 2, 4)
            ),
            batch_sizes=(256, 512, 1024),
        ),
    )

    # Workers and master assembled by hand (instead of CoDesignSearch) so the
    # custom device can be injected everywhere.
    master = Master(
        workers=[
            SimulationWorker(gpu=TITAN_X),
            HardwareDatabaseWorker(device=EDGE_FPGA),
            PhysicalWorker(device=EDGE_FPGA),
        ],
        dataset=dataset,
        evaluation_protocol="10-fold",
        num_folds=2,
        training_config=TrainingConfig(epochs=6, batch_size=32, learning_rate=0.01),
        seed=0,
    )

    fitness = FitnessEvaluator(
        [
            ObjectiveSpec.accuracy(weight=1.0),
            ObjectiveSpec(name="latency_per_parameter", maximize=False, weight=0.5),
            ObjectiveSpec.fpga_throughput(weight=0.5),
        ]
    )
    engine = EvolutionaryEngine(
        space=space,
        evaluator=master,
        fitness=fitness,
        config=EngineConfig(population_size=6, max_evaluations=18, seed=0),
        device=EDGE_FPGA,
    )
    result = engine.run()

    rows = []
    for member in list(result.population)[:5]:
        evaluation = member.evaluation
        rows.append(
            {
                "accuracy": round(evaluation.accuracy, 4),
                "outputs_per_s": evaluation.fpga_outputs_per_second,
                "latency_us": round(evaluation.fpga_metrics.latency_seconds * 1e6, 1)
                if evaluation.fpga_metrics
                else float("nan"),
                "parameters": evaluation.parameter_count,
                "grid": str(evaluation.genome.hardware.grid),
                "fitness": round(member.fitness_value, 3),
            }
        )
    print()
    print(format_table(rows, title=f"Top designs for {EDGE_FPGA.name} (custom latency-aware fitness)"))
    print()
    stats = result.statistics
    print(f"evaluated {stats.models_evaluated} models "
          f"({stats.cache_hits} cache hits) in {stats.wall_clock_seconds:.1f}s")


if __name__ == "__main__":
    main()
