"""Ablation — batched population evaluation vs per-candidate dispatch.

PR 6 makes the population, not the candidate, the unit of evaluation: the
engine fuses its in-flight window into ``evaluate_batch`` calls, workers group
same-topology candidates into one batched GEMM training run, datasets are
preprocessed once per process, and the FPGA model scores whole candidate
batches in one vectorized sweep.  This benchmark measures the payoff in two
parts:

1. **Engine throughput** on the async-throughput workload (same space, budget,
   seed and simulated evaluation latency as
   ``test_ablation_async_throughput.py``): serial vs threads_x4 per-candidate
   dispatch vs the batched pipeline.  The batch evaluator pays the fixed
   per-dispatch latency once per batch plus a small per-candidate marginal
   cost — the cost structure the fused GEMM/vectorized-hardware path creates.
   Floor: >=2x ``evaluations_per_second`` over the same-run threads_x4
   baseline (target, reported in the CSV: >=3x).
2. **Real fused training** on ``mnist_like`` — the paper's most expensive
   dataset per evaluation — where :class:`SimulationWorker.evaluate_batch`
   must produce *bit-identical* accuracies to looped ``evaluate`` while
   spending less wall clock.

Both parts also assert bit-identity: batching is a scheduling change, never a
numerics change.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.candidate import CandidateEvaluation
from repro.core.engine import EngineConfig, EngineResult, EvolutionaryEngine
from repro.core.fitness import FitnessEvaluator
from repro.core.objectives import ObjectiveSpec
from repro.core.genome import CoDesignGenome, CoDesignSearchSpace, HardwareGenome, MLPGenome
from repro.hardware.device import ARRIA10_GX1150
from repro.hardware.results import HardwareMetrics
from repro.hardware.systolic import GridConfig
from repro.nn.training import TrainingConfig
from repro.workers.base import EvaluationRequest
from repro.workers.simulation import SimulationWorker

from conftest import bench_dataset, emit_table

BUDGET = 48
POPULATION = 8
PARALLELISM = 4
EVAL_BATCH = 8
#: Fixed per-dispatch latency (request setup, preprocessing, model spin-up).
#: Identical to the async-throughput ablation so the threads_x4 rows match.
EVAL_LATENCY_SECONDS = 0.02
#: Marginal per-candidate cost inside one fused batch: the incremental GEMM
#: rows added to an already-running batched training pass.
BATCH_MARGINAL_SECONDS = 0.001
OBJECTIVES = [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]


def _score(genome: CoDesignGenome) -> CandidateEvaluation:
    """The deterministic landscape (no latency), shared by both dispatch paths."""
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


class BatchAwareEvaluator:
    """Synthetic evaluator with the fused path's cost structure.

    Per-candidate dispatch pays the full fixed latency every time; a batch
    pays it once plus a small marginal cost per extra candidate.  The sleep
    releases the GIL exactly like numpy's BLAS kernels do.
    """

    def __call__(self, genome: CoDesignGenome) -> CandidateEvaluation:
        time.sleep(EVAL_LATENCY_SECONDS)
        return _score(genome)

    def evaluate_batch(self, genomes: list[CoDesignGenome]) -> list[CandidateEvaluation]:
        time.sleep(EVAL_LATENCY_SECONDS + BATCH_MARGINAL_SECONDS * (len(genomes) - 1))
        return [_score(genome) for genome in genomes]


def _run_engine(eval_parallelism: int, eval_batch_size: int) -> tuple[EngineResult, float]:
    engine = EvolutionaryEngine(
        space=CoDesignSearchSpace(),
        evaluator=BatchAwareEvaluator(),
        fitness=FitnessEvaluator(OBJECTIVES),
        config=EngineConfig(
            population_size=POPULATION,
            max_evaluations=BUDGET,
            seed=5,
            eval_parallelism=eval_parallelism,
            eval_batch_size=eval_batch_size,
        ),
        device=ARRIA10_GX1150,
    )
    start = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - start


def _engine_rows() -> list[dict]:
    rows = []
    variants = (
        ("serial", 1, 1),
        (f"threads_x{PARALLELISM}", PARALLELISM, 1),
        (f"batched_x{PARALLELISM}x{EVAL_BATCH}", PARALLELISM, EVAL_BATCH),
    )
    for label, parallelism, batch_size in variants:
        result, wall_clock = _run_engine(parallelism, batch_size)
        stats = result.statistics
        # Bit-identity: the batched pipeline must score every genome exactly
        # as the per-candidate landscape does.
        for evaluation in result.history.evaluations():
            reference = _score(evaluation.genome)
            assert evaluation.accuracy == reference.accuracy
            assert (
                evaluation.fpga_metrics.outputs_per_second
                == reference.fpga_metrics.outputs_per_second
            )
        rows.append(
            {
                "variant": label,
                "eval_parallelism": parallelism,
                "eval_batch_size": batch_size,
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


def _mnist_rows() -> list[dict]:
    """Real fused-GEMM training on the paper's most expensive dataset."""
    dataset = bench_dataset("mnist_like")
    training = TrainingConfig(
        epochs=4, batch_size=64, learning_rate=0.01,
        early_stopping_patience=0, validation_fraction=0.0,
    )
    grid = GridConfig(rows=8, columns=8, interleave_rows=4, interleave_columns=4, vector_width=4)
    genomes = [
        CoDesignGenome(
            mlp=MLPGenome(hidden_layers=(32, 16), activations=("relu", "relu")),
            hardware=HardwareGenome(grid=grid, batch_size=256),
            gpu_batch_size=128,
        )
        for _ in range(POPULATION)
    ]
    requests = [
        EvaluationRequest(
            genome=genome,
            dataset=dataset,
            evaluation_protocol="1-fold",
            training_config=training,
            seed=1000 + index,
        )
        for index, genome in enumerate(genomes)
    ]
    worker = SimulationWorker(gpu=None, measure_gpu=False)

    start = time.perf_counter()
    looped = [worker.evaluate(request) for request in requests]
    looped_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = worker.evaluate_batch(requests)
    batched_seconds = time.perf_counter() - start

    # Bit-identity on the real path: fused training is a scheduling change.
    for batched_report, looped_report in zip(batched, looped):
        assert batched_report.accuracy == looped_report.accuracy
        assert batched_report.accuracy_std == looped_report.accuracy_std
        assert not batched_report.failed and not looped_report.failed

    return [
        {
            "path": "per_candidate",
            "dataset": dataset.name,
            "candidates": len(requests),
            "wall_clock_seconds": round(looped_seconds, 4),
            "evaluations_per_second": round(len(requests) / looped_seconds, 2),
            "speedup": 1.0,
        },
        {
            "path": "batched",
            "dataset": dataset.name,
            "candidates": len(requests),
            "wall_clock_seconds": round(batched_seconds, 4),
            "evaluations_per_second": round(len(requests) / batched_seconds, 2),
            "speedup": round(looped_seconds / max(batched_seconds, 1e-9), 2),
        },
    ]


@pytest.mark.benchmark(group="ablation_batched_eval")
def test_ablation_batched_eval(benchmark, results_dir):
    engine_rows, mnist_rows = benchmark.pedantic(
        lambda: (_engine_rows(), _mnist_rows()), rounds=1, iterations=1
    )
    serial, threaded, batched = engine_rows
    for row in engine_rows:
        row["speedup_vs_threads"] = round(
            row["evaluations_per_second"] / max(threaded["evaluations_per_second"], 1e-9), 2
        )
    emit_table(
        engine_rows,
        columns=[
            "variant",
            "eval_parallelism",
            "eval_batch_size",
            "wall_clock_seconds",
            "evaluations_per_second",
            "peak_in_flight",
            "models_generated",
            "models_evaluated",
            "cache_hits",
            "best_accuracy",
            "speedup_vs_threads",
        ],
        title="Ablation: batched population evaluation vs per-candidate dispatch",
        csv_name="ablation_batched_eval.csv",
    )
    emit_table(
        mnist_rows,
        columns=[
            "path",
            "dataset",
            "candidates",
            "wall_clock_seconds",
            "evaluations_per_second",
            "speedup",
        ],
        title="Fused GEMM training on mnist_like (bit-identical accuracies)",
        csv_name="ablation_batched_eval_mnist.csv",
    )

    # Budget accounting is unchanged by batching.
    for row in engine_rows:
        assert row["models_generated"] == BUDGET
        assert row["models_evaluated"] + row["cache_hits"] == BUDGET
    assert serial["peak_in_flight"] == 1
    assert batched["peak_in_flight"] >= EVAL_BATCH

    # CI floor: >=2x evaluations/second over the same-run threads_x4 baseline
    # (the target, visible in the CSV, is >=3x).
    floor = 2.0 * threaded["evaluations_per_second"]
    assert batched["evaluations_per_second"] >= floor, (
        f"expected >=2x threads_x{PARALLELISM} "
        f"({threaded['evaluations_per_second']}/s), "
        f"measured {batched['evaluations_per_second']}/s"
    )

    # The real fused path on mnist_like must not be slower than the loop.
    assert mnist_rows[1]["speedup"] >= 1.0
