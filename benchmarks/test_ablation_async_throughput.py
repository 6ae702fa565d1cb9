"""Ablation — asynchronous batched evaluation pipeline throughput.

The ECAD master/worker design exists to hide evaluation latency: candidate
training and synthesis dominate the search wall-clock, so keeping several
candidates in flight at once is the paper's central scalability lever.  This
benchmark measures that lever directly: the same steady-state search (same
space, same budget, same fitness) is run once through the serial engine
(``eval_parallelism=1``) and once through the asynchronous pipeline with four
candidate evaluations in flight on threads.

Candidate evaluation uses the deterministic synthetic-dataset landscape of the
engine ablation plus a fixed simulated worker latency (a sleep standing in for
training/synthesis time, which releases the GIL exactly like numpy's BLAS
kernels do), so the measured speedup reflects pipeline overlap, not noise.
The acceptance bar is a >= 2x wall-clock win for the threaded pipeline.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.candidate import CandidateEvaluation
from repro.core.engine import EngineConfig, EngineResult, EvolutionaryEngine
from repro.core.fitness import FitnessEvaluator
from repro.core.objectives import ObjectiveSpec
from repro.core.genome import CoDesignGenome, CoDesignSearchSpace
from repro.hardware.device import ARRIA10_GX1150
from repro.hardware.results import HardwareMetrics

from conftest import emit_table

BUDGET = 48
POPULATION = 8
PARALLELISM = 4
#: Simulated per-candidate worker latency (training + synthesis stand-in).
#: Large enough to dominate the main thread's per-completion bookkeeping even
#: on slow CI runners, so the >=2x assertion has a wide margin.
EVAL_LATENCY_SECONDS = 0.02
OBJECTIVES = [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]


def slow_synthetic_evaluator(genome: CoDesignGenome) -> CandidateEvaluation:
    """Deterministic landscape with a fixed, GIL-releasing evaluation latency."""
    time.sleep(EVAL_LATENCY_SECONDS)
    neurons = genome.mlp.total_hidden_neurons
    accuracy = min(0.99, 0.55 + 0.4 * (1.0 - np.exp(-neurons / 96.0)))
    compute = genome.hardware.grid.dsp_blocks_used
    throughput = 4e7 * compute / (compute + 256.0) / (1.0 + neurons / 64.0)
    metrics = HardwareMetrics(
        device_name="synthetic_fpga",
        batch_size=genome.hardware.batch_size,
        potential_gflops=2.0 * compute * 0.25,
        effective_gflops=min(2.0 * compute * 0.25, throughput * neurons * 2e-9),
        total_time_seconds=genome.hardware.batch_size / throughput,
        outputs_per_second=throughput,
        latency_seconds=1e-5,
        efficiency=min(1.0, throughput / 4e7),
    )
    return CandidateEvaluation(
        genome=genome,
        accuracy=accuracy,
        parameter_count=neurons * 10,
        fpga_metrics=metrics,
        evaluation_seconds=EVAL_LATENCY_SECONDS,
    )


def _run_engine(eval_parallelism: int) -> tuple[EngineResult, float]:
    engine = EvolutionaryEngine(
        space=CoDesignSearchSpace(),
        evaluator=slow_synthetic_evaluator,
        fitness=FitnessEvaluator(OBJECTIVES),
        config=EngineConfig(
            population_size=POPULATION,
            max_evaluations=BUDGET,
            seed=5,
            eval_parallelism=eval_parallelism,
        ),
        device=ARRIA10_GX1150,
    )
    start = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - start


def _run_comparison() -> list[dict]:
    rows = []
    for label, parallelism in (("serial", 1), (f"threads_x{PARALLELISM}", PARALLELISM)):
        result, wall_clock = _run_engine(parallelism)
        stats = result.statistics
        rows.append(
            {
                "variant": label,
                "eval_parallelism": parallelism,
                "wall_clock_seconds": round(wall_clock, 4),
                "evaluations_per_second": round(stats.evaluations_per_second, 1),
                "peak_in_flight": stats.peak_in_flight,
                "models_generated": stats.models_generated,
                "models_evaluated": stats.models_evaluated,
                "cache_hits": stats.cache_hits,
                "best_accuracy": round(max(e.accuracy for e in result.history.evaluations()), 4),
            }
        )
    return rows


@pytest.mark.benchmark(group="ablation_async_throughput")
def test_ablation_async_throughput(benchmark, results_dir):
    rows = benchmark.pedantic(_run_comparison, rounds=1, iterations=1)
    serial, threaded = rows[0], rows[1]
    speedup = serial["wall_clock_seconds"] / max(threaded["wall_clock_seconds"], 1e-9)
    for row in rows:
        row["speedup_vs_serial"] = round(
            serial["wall_clock_seconds"] / max(row["wall_clock_seconds"], 1e-9), 2
        )
    emit_table(
        rows,
        columns=[
            "variant",
            "eval_parallelism",
            "wall_clock_seconds",
            "evaluations_per_second",
            "peak_in_flight",
            "models_generated",
            "models_evaluated",
            "cache_hits",
            "best_accuracy",
            "speedup_vs_serial",
        ],
        title="Ablation: async batched pipeline vs serial engine (same search)",
        csv_name="ablation_async_throughput.csv",
    )

    # Both runs spent the full evaluation budget and respected the accounting.
    for row in rows:
        assert row["models_generated"] == BUDGET
        assert row["models_evaluated"] + row["cache_hits"] == BUDGET

    # The pipeline actually overlapped evaluations...
    assert serial["peak_in_flight"] == 1
    assert threaded["peak_in_flight"] > 1

    # ...and bought at least the 2x wall-clock win the refactor promises.
    assert speedup >= 2.0, f"expected >=2x speedup, measured {speedup:.2f}x"
    assert threaded["evaluations_per_second"] >= 2.0 * serial["evaluations_per_second"]
