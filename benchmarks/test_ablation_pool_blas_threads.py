"""Ablation — the process pool against serial on real training, CPU per candidate.

Every process of the ``processes`` backend caps its OpenBLAS at
``usable CPUs // pool size`` threads
(:func:`~repro.workers.backends.cap_blas_threads`).  Without the cap each
pool process keeps OpenBLAS's default of one thread per core, so two
processes on two cores run four BLAS threads that spin against each other
on every product wide enough to thread.  That costs CPU, not accuracy,
which is what this benchmark measures.

Workload: ``mnist_like`` at scale 0.01 (600 x 784, pre-split), 1-fold,
2 epochs, population 8, 64 evaluations, hidden layers from ``[8, 16, 32,
64]``, at most 2 layers; 784 x 32 and wider first layers make OpenBLAS
thread its products.  Four seeds, each run once per configuration,
alternating:

* ``serial_b8``: the serial backend, batches of 8;
* ``processes_x2_b8``: 2 pool processes, batches of 8, 2 batches in flight.

Each run records candidates per second and CPU milliseconds per candidate:
this process's user + system time plus that of its reaped children (the
pool is shut down, so reaped, before the reading).  The floor: the pool
spends at most 1.25x serial's CPU per candidate, over all four seeds.  On a
2-CPU host (numpy 2.4.6, scipy-openblas 0.3.31) the uncapped pool spent
2.2-4.4x serial's CPU per candidate and the capped pool about 0.7x.
"""

from __future__ import annotations

import resource
import time

from repro.core.config import ECADConfig, OptimizationTargetConfig
from repro.core.search import CoDesignSearch
from repro.datasets.registry import load_dataset

from conftest import emit_table

SEEDS = (0, 1, 2, 3)
SETTINGS = {
    "evaluation_protocol": "1-fold",
    "training_epochs": 2,
    "population_size": 8,
    "max_evaluations": 64,
    "eval_batch_size": 8,
    "nna.layer_sizes": [8, 16, 32, 64],
    "nna.max_layers": 2,
}
CONFIGURATIONS = {
    "serial_b8": {"backend": "serial", "eval_parallelism": 1},
    "processes_x2_b8": {"backend": "processes", "eval_parallelism": 2},
}
#: Largest allowed ratio of the pool's CPU per candidate to serial's.
CPU_RATIO_CEILING = 1.25


def _cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run(dataset, seed: int, overrides: dict) -> dict:
    config = ECADConfig.template_for_dataset(
        dataset, optimization=OptimizationTargetConfig.accuracy_and_throughput(), seed=seed
    ).with_overrides({**SETTINGS, **overrides})
    cpu_start, wall_start = _cpu_seconds(), time.perf_counter()
    search = CoDesignSearch(dataset, config=config)
    try:
        result = search.run()
    finally:
        search.close()
    wall = time.perf_counter() - wall_start
    cpu = _cpu_seconds() - cpu_start
    stats = result.statistics
    assert stats.models_generated == config.max_evaluations
    assert stats.models_generated == stats.models_evaluated + stats.cache_hits
    return {
        "candidates": stats.models_generated,
        "wall_s": wall,
        "cpu_s": cpu,
        "best_accuracy": result.best_accuracy,
    }


def test_pool_cpu_per_candidate_within_serial_bound():
    dataset = load_dataset("mnist_like", seed=0, scale=0.01)
    runs: dict[str, list[dict]] = {name: [] for name in CONFIGURATIONS}
    for seed in SEEDS:
        for name, overrides in CONFIGURATIONS.items():
            runs[name].append(_run(dataset, seed, overrides))

    rows = []
    for name, results in runs.items():
        for seed, run in zip(SEEDS, results):
            rows.append(
                {
                    "configuration": name,
                    "seed": seed,
                    "candidates_per_s": round(run["candidates"] / run["wall_s"], 2),
                    "cpu_ms_per_candidate": round(1e3 * run["cpu_s"] / run["candidates"], 2),
                    "best_accuracy": round(run["best_accuracy"], 4),
                }
            )
    totals = {
        name: {
            key: sum(run[key] for run in results) for key in ("candidates", "wall_s", "cpu_s")
        }
        for name, results in runs.items()
    }
    for name, total in totals.items():
        rows.append(
            {
                "configuration": name,
                "seed": "all",
                "candidates_per_s": round(total["candidates"] / total["wall_s"], 2),
                "cpu_ms_per_candidate": round(1e3 * total["cpu_s"] / total["candidates"], 2),
                "best_accuracy": round(max(run["best_accuracy"] for run in runs[name]), 4),
            }
        )
    emit_table(
        rows,
        columns=list(rows[0]),
        title="Pool BLAS-thread ablation: mnist_like, serial vs 2 processes, batches of 8",
        csv_name="ablation_pool_blas_threads.csv",
    )

    def cpu_per_candidate(name: str) -> float:
        return totals[name]["cpu_s"] / totals[name]["candidates"]

    ratio = cpu_per_candidate("processes_x2_b8") / cpu_per_candidate("serial_b8")
    assert ratio <= CPU_RATIO_CEILING, f"pool spends {ratio:.2f}x serial's CPU per candidate"
