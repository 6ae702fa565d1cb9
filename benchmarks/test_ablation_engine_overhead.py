"""Ablation — engine bookkeeping cost per evaluation as the run grows.

When evaluation is free (every candidate answered by a warm store, or
screened away by the surrogate), the engine's own bookkeeping is the whole
cost of a search: scoring each newcomer, rescoring the population, updating
the streaming frontier archive, breeding, and the accuracy-vs-throughput
frontier every search ends with.  None of that may grow with the length of
the run, or the paper's thousands-of-models searches would spend most of
their time re-scoring history.

This benchmark drives the steady-state engine with a zero-cost evaluator
(the ``fake_evaluator`` landscape of ``tests/conftest.py``), population 24,
a weighted-sum accuracy + FPGA-throughput objective and a 1-4 layer x 6
sizes x 3 activations space, and compares the wall-clock cost per
evaluation at 200 and at 3200 evaluations.  Asserted floor (also in CI): the
per-evaluation cost at N=3200 is at most 1.5x the cost at N=200.  Each size
is timed several times and the fastest run is kept, so a busy host slows
both sizes alike instead of failing the ratio.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.candidate import CandidateEvaluation
from repro.core.engine import EngineConfig, EvolutionaryEngine
from repro.core.fitness import FitnessEvaluator
from repro.core.objectives import ObjectiveSpec
from repro.core.genome import CoDesignGenome, CoDesignSearchSpace, MLPSearchSpace
from repro.core.pareto import evaluation_frontier
from repro.hardware.results import HardwareMetrics

from conftest import emit_table

#: Run lengths compared, and how many timed runs each gets (fastest kept).
SIZES = {200: 7, 3200: 3}
MAX_GROWTH = 1.5

SPACE = CoDesignSearchSpace(
    mlp_space=MLPSearchSpace(
        min_layers=1,
        max_layers=4,
        layer_sizes=(8, 16, 32, 64, 128, 256),
        activations=("relu", "tanh", "sigmoid"),
    )
)


def _metrics(device: str, outputs: float) -> HardwareMetrics:
    return HardwareMetrics(
        device_name=device,
        batch_size=1024,
        potential_gflops=100.0,
        effective_gflops=min(50.0, outputs / 1e5),
        total_time_seconds=1024 / outputs,
        outputs_per_second=outputs,
        latency_seconds=1e-4,
        efficiency=min(1.0, outputs / 1e7),
    )


def zero_cost_evaluator(genome: CoDesignGenome) -> CandidateEvaluation:
    """Accuracy rises and FPGA throughput falls with network size."""
    neurons = genome.mlp.total_hidden_neurons
    accuracy = min(0.99, 0.5 + 0.4 * (1.0 - np.exp(-neurons / 32.0)))
    fpga_outputs = 1e7 / (1.0 + neurons / 8.0) * (genome.hardware.grid.pe_count / 16.0)
    return CandidateEvaluation(
        genome=genome,
        accuracy=accuracy,
        parameter_count=neurons * 10,
        fpga_metrics=_metrics("fpga", fpga_outputs),
        gpu_metrics=_metrics("gpu", 1.2e6),
        evaluation_seconds=0.01,
    )


def _timed_search(evaluations: int) -> tuple[float, dict]:
    engine = EvolutionaryEngine(
        space=SPACE,
        evaluator=zero_cost_evaluator,
        fitness=FitnessEvaluator([ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]),
        config=EngineConfig(population_size=24, max_evaluations=evaluations, seed=0),
    )
    start = time.perf_counter()
    result = engine.run()
    frontier = evaluation_frontier(result.history.evaluations())
    elapsed = time.perf_counter() - start
    stats = result.statistics
    return elapsed, {
        "models_generated": stats.models_generated,
        "cache_hits": stats.cache_hits,
        "archive_size": stats.frontier_size,
        "frontier_size": len(frontier),
    }


def _measure() -> list[dict]:
    _timed_search(min(SIZES))  # warm-up: imports and first-call costs
    rows = []
    for evaluations, repeats in SIZES.items():
        runs = [_timed_search(evaluations) for _ in range(repeats)]
        best = min(elapsed for elapsed, _ in runs)
        rows.append(
            {
                "evaluations": evaluations,
                "ms_per_evaluation": round(1e3 * best / evaluations, 4),
                "timed_runs": repeats,
                **runs[0][1],
            }
        )
    base = rows[0]["ms_per_evaluation"]
    for row in rows:
        row["vs_smallest"] = round(row["ms_per_evaluation"] / base, 3)
    return rows


@pytest.mark.benchmark(group="ablation_engine_overhead")
def test_engine_overhead_does_not_grow_with_history(benchmark, results_dir):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    emit_table(
        rows,
        columns=[
            "evaluations",
            "ms_per_evaluation",
            "vs_smallest",
            "timed_runs",
            "models_generated",
            "cache_hits",
            "archive_size",
            "frontier_size",
        ],
        title="Ablation: engine overhead per evaluation (zero-cost evaluator)",
        csv_name="ablation_engine_overhead.csv",
    )
    for row in rows:
        assert row["models_generated"] == row["evaluations"]
    growth = rows[-1]["vs_smallest"]
    assert growth <= MAX_GROWTH, (
        f"per-evaluation engine overhead grew {growth:.2f}x from N={rows[0]['evaluations']} "
        f"to N={rows[-1]['evaluations']} (limit {MAX_GROWTH}x)"
    )
