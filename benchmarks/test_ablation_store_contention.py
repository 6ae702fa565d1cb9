"""Ablation — sharded evaluation store: concurrent writers, 1 vs N shards.

The evaluation store turns into a bottleneck when several co-design jobs
share one file: SQLite allows exactly one writer at a time, so every commit
from every process queues on the same lock (and, past the busy timeout,
fails outright — the write-loss bug this PR's flush retry path closes).
The sharded layout routes each problem digest to its own SQLite file,
giving concurrent jobs on different problems independent writer locks.

This benchmark measures that promise with the write pattern the search
actually produces: M worker processes x K writer threads, each flushing one
evaluation result per generation epoch, so the whole fleet's commits land
on the store in synchronized bursts.  Two metrics are compared between a
shared single-file store and a 4-shard store whose problems spread evenly
across shards:

* **aggregate write throughput** — rows per second of store-blocked time on
  the slowest writer (the time stolen from evaluation work).  With
  independent writer locks this scales near-linearly with shard count on
  multi-core hosts (>= 2.5x at 4 shards; the CI floor is 2x).  A host with
  a single usable CPU serializes the writers' Python work itself, capping
  the measurable gain, so the floor drops to 1.2x there.
* **p99 write stall** — the tail commit latency a writer sees.  Lock
  convoys and busy-handler sleeps push the single-file p99 an order of
  magnitude above the uncontended cost; shards must cut it at least 2x on
  any host.  This is the contention signature that survives even a
  single-CPU runner.

Every row is also accounted for: both variants finish with exactly
``processes x threads x epochs`` rows — contention may slow writers down,
but it must never lose writes.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.candidate import CandidateEvaluation
from repro.core.genome import CoDesignSearchSpace
from repro.hardware.results import HardwareMetrics
from repro.store import EvaluationStore, StoreBackedCache, shard_index

from conftest import emit_table

#: Contention shape: PROCESSES x THREADS writers, one row per epoch each.
PROCESSES = 4
THREADS = 2
EPOCHS = 200
WARMUP_EPOCHS = 20
EPOCH_SECONDS = 0.005
SHARDS = 4

#: One problem per writer thread, hex-prefixed so the workload spreads
#: evenly across SHARDS files (writer i's problem lands on shard i % SHARDS).
PROBLEMS = tuple(
    f"{index:08x}-contention-problem" for index in range(PROCESSES * THREADS)
)


def _fake_evaluation(genome, accuracy: float) -> CandidateEvaluation:
    metrics = HardwareMetrics(
        device_name="fpga",
        batch_size=1024,
        potential_gflops=100.0,
        effective_gflops=10.0,
        total_time_seconds=1e-3,
        outputs_per_second=1e6,
        latency_seconds=1e-4,
        efficiency=0.1,
    )
    return CandidateEvaluation(
        genome=genome,
        accuracy=accuracy,
        parameter_count=genome.mlp.total_hidden_neurons * 10,
        fpga_metrics=metrics,
        evaluation_seconds=0.01,
    )


def _distinct_evaluations(count: int, seed: int) -> list[CandidateEvaluation]:
    space = CoDesignSearchSpace()
    rng = np.random.default_rng(seed)
    evaluations, keys = [], set()
    while len(evaluations) < count:
        genome = space.random_genome(rng)
        if genome.cache_key() in keys:
            continue
        keys.add(genome.cache_key())
        evaluations.append(_fake_evaluation(genome, 0.9 - 1e-4 * len(evaluations)))
    return evaluations


def _contended_writer(path, worker, barrier, queue):
    """Child-process body: K threads each flush one row per generation epoch.

    Rows are generated *before* the barrier, and every writer aligns its
    flush to the same wall-clock epoch grid, so the timed region reproduces
    the fleet-wide commit bursts a generation boundary produces.  Per-write
    stall times (after warm-up) are reported back to the parent.
    """
    import threading

    batches = [
        _distinct_evaluations(EPOCHS + WARMUP_EPOCHS, seed=worker * 100 + thread)
        for thread in range(THREADS)
    ]
    store = EvaluationStore(str(path), timeout_seconds=5.0)
    caches = [
        StoreBackedCache(
            store,
            PROBLEMS[worker * THREADS + thread],
            write_batch_size=1,
            write_retries=10,
            retry_backoff_seconds=0.02,
        )
        for thread in range(THREADS)
    ]
    stalls = [[] for _ in range(THREADS)]

    def body(thread: int) -> None:
        cache = caches[thread]
        for epoch, evaluation in enumerate(batches[thread]):
            now = time.time()
            time.sleep((EPOCH_SECONDS - now % EPOCH_SECONDS) % EPOCH_SECONDS)
            start = time.perf_counter()
            cache.complete(evaluation.genome, evaluation)  # write_batch_size=1 -> flushes inline
            elapsed = time.perf_counter() - start
            if epoch >= WARMUP_EPOCHS:
                stalls[thread].append(elapsed)
        while cache.pending_writes():
            cache.flush()

    workers = [
        threading.Thread(target=body, args=(thread,)) for thread in range(THREADS)
    ]
    barrier.wait()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    store.close()
    dropped = sum(cache.store_statistics.write_errors for cache in caches)
    queue.put((stalls, dropped))


def _measure(path, shards: int) -> dict:
    """One contended run: spawn the writer fleet, collect stall times."""
    EvaluationStore(str(path), shards=shards).close()
    barrier = multiprocessing.Barrier(PROCESSES)
    queue = multiprocessing.Queue()
    processes = [
        multiprocessing.Process(
            target=_contended_writer, args=(str(path), worker, barrier, queue)
        )
        for worker in range(PROCESSES)
    ]
    for process in processes:
        process.start()
    per_writer, dropped = [], 0
    for _ in processes:
        stalls, writer_dropped = queue.get(timeout=300)
        per_writer.extend(stalls)
        dropped += writer_dropped
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    with EvaluationStore(str(path), readonly=True) as store:
        stored = store.count()
    flat = np.array([stall for writer in per_writer for stall in writer])
    timed_rows = PROCESSES * THREADS * EPOCHS
    blocked = max(sum(writer) for writer in per_writer)
    return {
        "variant": f"{shards}_shard{'s' if shards > 1 else ''}",
        "shards": shards,
        "writers": f"{PROCESSES}x{THREADS}",
        "rows": PROCESSES * THREADS * (EPOCHS + WARMUP_EPOCHS),
        "rows_stored": stored,
        "rows_dropped": dropped,
        "store_blocked_seconds": round(blocked, 4),
        "rows_per_blocked_second": round(timed_rows / blocked, 1),
        "p50_stall_ms": round(float(np.percentile(flat, 50)) * 1e3, 3),
        "p99_stall_ms": round(float(np.percentile(flat, 99)) * 1e3, 3),
    }


@pytest.mark.benchmark(group="ablation_store_contention")
def test_concurrent_writers_scale_with_shards(benchmark, results_dir, tmp_path):
    # Sanity: the crafted digests spread evenly — SHARDS problems per shard.
    spread = [shard_index(p, SHARDS) for p in PROBLEMS]
    assert sorted(spread) == sorted(list(range(SHARDS)) * (len(PROBLEMS) // SHARDS))

    def comparison() -> list[dict]:
        single = _measure(tmp_path / "single.sqlite", shards=1)
        sharded = _measure(tmp_path / "sharded", shards=SHARDS)
        return [single, sharded]

    rows = benchmark.pedantic(comparison, rounds=1, iterations=1)
    single, sharded = rows[0], rows[1]
    throughput_gain = (
        sharded["rows_per_blocked_second"] / single["rows_per_blocked_second"]
    )
    stall_gain = single["p99_stall_ms"] / sharded["p99_stall_ms"]
    for row in rows:
        row["throughput_vs_single"] = round(
            row["rows_per_blocked_second"] / single["rows_per_blocked_second"], 2
        )
    emit_table(
        rows,
        columns=[
            "variant",
            "shards",
            "writers",
            "rows",
            "rows_stored",
            "rows_dropped",
            "store_blocked_seconds",
            "rows_per_blocked_second",
            "p50_stall_ms",
            "p99_stall_ms",
            "throughput_vs_single",
        ],
        title="Ablation: concurrent writers against 1 vs 4 store shards",
        csv_name="ablation_store_contention.csv",
    )
    print(
        f"4-shard gains vs single file: {throughput_gain:.2f}x write throughput, "
        f"{stall_gain:.2f}x lower p99 write stall"
    )

    # Contention may slow writers down, but it must never lose rows: every
    # write either committed or is still queued for retry — never dropped.
    for row in rows:
        assert row["rows_stored"] == row["rows"], row
        assert row["rows_dropped"] == 0, row

    # The contention signature: lock convoys on the shared file blow up the
    # tail commit latency; independent per-shard writer locks cut the p99
    # stall at least in half on any host (measured ~4-10x).
    assert stall_gain >= 2.0, (
        f"expected >=2x lower p99 write stall at {SHARDS} shards, "
        f"measured {stall_gain:.2f}x"
    )

    # The headline scaling claim: aggregate write throughput grows
    # near-linearly with shard count (expected >= 2.5x at 4 shards, CI
    # floor 2x).  A single-CPU host serializes the writers' Python work
    # itself, so no store layout can scale throughput there — the floor
    # drops to the contention-overhead savings alone.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    floor = 2.0 if cores >= 2 else 1.2
    assert throughput_gain >= floor, (
        f"expected >={floor}x write throughput at {SHARDS} shards "
        f"({cores} usable cores), measured {throughput_gain:.2f}x"
    )
