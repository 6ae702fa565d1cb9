"""Unit tests for the worker/master evaluation substrate."""

from __future__ import annotations

import ctypes
import logging
import threading
import time

import numpy as np
import pytest

from repro.core.genome import CoDesignGenome, HardwareGenome, MLPGenome
from repro.datasets.registry import load_dataset
from repro.hardware.device import ARRIA10_GX1150, STRATIX10_2800, TITAN_X
from repro.hardware.memory import DDR4_BANK, MemorySystem
from repro.hardware.systolic import GridConfig
from repro.nn.reference import evaluate_single_fold
from repro.nn.training import TrainingConfig
from repro.workers import backends
from repro.workers.backends import (
    NonOwningBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    cap_blas_threads,
    pool_blas_threads,
    process_pool_of,
    resolve_backend,
    usable_cpus,
)
from repro.workers.base import EvaluationRequest, WorkerReport
from repro.workers.hardware_db import HardwareDatabaseWorker
from repro.workers.master import Master
from repro.workers.physical import PhysicalWorker
from repro.workers.simulation import SimulationWorker


@pytest.fixture
def fast_request(sample_genome, tiny_dataset, fast_training_config) -> EvaluationRequest:
    return EvaluationRequest(
        genome=sample_genome,
        dataset=tiny_dataset,
        evaluation_protocol="1-fold",
        training_config=fast_training_config,
        seed=0,
    )


class TestRequestAndReport:
    def test_request_validation(self, sample_genome):
        with pytest.raises(ValueError):
            EvaluationRequest(genome=sample_genome, evaluation_protocol="3-fold")
        with pytest.raises(ValueError):
            EvaluationRequest(genome=sample_genome, num_folds=1)

    def test_report_failed_flag(self):
        assert not WorkerReport(worker_name="x").failed
        assert WorkerReport(worker_name="x", error="boom").failed


class TestSimulationWorker:
    def test_training_produces_accuracy_and_gpu_metrics(self, fast_request):
        worker = SimulationWorker(gpu=TITAN_X)
        report = worker.evaluate(fast_request)
        assert not report.failed
        assert 0.0 <= report.accuracy <= 1.0
        assert report.accuracy > 0.6  # tiny dataset is easy
        assert report.parameter_count > 0
        assert report.train_seconds > 0
        assert report.gpu_metrics is not None
        assert report.gpu_metrics.batch_size == fast_request.genome.gpu_batch_size

    def test_kfold_protocol(self, sample_genome, tiny_dataset, fast_training_config):
        request = EvaluationRequest(
            genome=sample_genome,
            dataset=tiny_dataset,
            evaluation_protocol="10-fold",
            num_folds=3,
            training_config=fast_training_config,
            seed=0,
        )
        report = SimulationWorker(gpu=None, measure_gpu=False).evaluate(request)
        assert not report.failed
        assert len(report.extras["fold_accuracies"]) == 3
        assert report.gpu_metrics is None

    def test_presplit_dataset_uses_its_test_partition(self, sample_genome, tiny_presplit_dataset, fast_training_config):
        genome = sample_genome  # input size differs from dataset; to_spec adapts via dataset dims
        request = EvaluationRequest(
            genome=genome,
            dataset=tiny_presplit_dataset,
            evaluation_protocol="1-fold",
            training_config=fast_training_config,
            seed=0,
        )
        report = SimulationWorker(gpu=TITAN_X).evaluate(request)
        assert not report.failed
        assert report.accuracy > 0.5

    def test_missing_dataset_is_an_error_report(self, sample_genome, fast_training_config):
        request = EvaluationRequest(genome=sample_genome, dataset=None, training_config=fast_training_config)
        report = SimulationWorker().evaluate(request)
        assert report.failed
        assert "dataset" in report.error

    def test_holdout_fraction_validation(self):
        with pytest.raises(ValueError):
            SimulationWorker(holdout_fraction=0.0)


class TestHardwareDatabaseWorker:
    def test_produces_fpga_metrics(self, fast_request):
        worker = HardwareDatabaseWorker(device=ARRIA10_GX1150)
        report = worker.evaluate(fast_request)
        assert not report.failed
        assert report.fpga_metrics is not None
        assert report.fpga_metrics.outputs_per_second > 0
        assert report.fpga_metrics.device_name == ARRIA10_GX1150.name

    def test_explicit_dimensions_without_dataset(self, sample_genome):
        worker = HardwareDatabaseWorker(device=STRATIX10_2800, input_size=64, output_size=4)
        report = worker.evaluate(EvaluationRequest(genome=sample_genome))
        assert not report.failed
        assert report.fpga_metrics.device_name == STRATIX10_2800.name

    def test_missing_dimensions_is_an_error_report(self, sample_genome):
        report = HardwareDatabaseWorker(device=ARRIA10_GX1150).evaluate(
            EvaluationRequest(genome=sample_genome)
        )
        assert report.failed

    def test_infeasible_grid_is_an_error_report(self, tiny_dataset):
        genome = CoDesignGenome(
            mlp=MLPGenome(hidden_layers=(16,), activations=("relu",)),
            hardware=HardwareGenome(grid=GridConfig(rows=32, columns=32, vector_width=16), batch_size=512),
        )
        report = HardwareDatabaseWorker(device=ARRIA10_GX1150).evaluate(
            EvaluationRequest(genome=genome, dataset=tiny_dataset)
        )
        assert report.failed

    def test_custom_memory_system_changes_results(self, fast_request):
        one_bank = HardwareDatabaseWorker(
            device=ARRIA10_GX1150, memory=MemorySystem(DDR4_BANK, banks=1)
        ).evaluate(fast_request)
        four_banks = HardwareDatabaseWorker(
            device=ARRIA10_GX1150, memory=MemorySystem(DDR4_BANK, banks=4)
        ).evaluate(fast_request)
        assert four_banks.fpga_metrics.outputs_per_second >= one_bank.fpga_metrics.outputs_per_second


class TestPhysicalWorker:
    def test_produces_synthesis_report(self, fast_request):
        report = PhysicalWorker(device=ARRIA10_GX1150).evaluate(fast_request)
        assert not report.failed
        assert report.synthesis is not None
        assert report.synthesis.dsp_used == fast_request.genome.hardware.grid.dsp_blocks_used


def _square(x: int) -> int:
    """Module-level so process pools can pickle it."""
    return x * x


def _explode(x: int) -> int:
    """Module-level so process pools can pickle it."""
    raise RuntimeError(f"boom on {x}")


class TestBackends:
    def test_serial_backend_preserves_order(self):
        backend = SerialBackend()
        assert backend.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_thread_pool_backend_matches_serial(self):
        with ThreadPoolBackend(max_workers=3) as backend:
            assert backend.map(lambda x: x * x, list(range(20))) == [x * x for x in range(20)]

    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ThreadPoolBackend(max_workers=3), lambda: ProcessPoolBackend(max_workers=2)],
        ids=["serial", "threads", "processes"],
    )
    def test_map_preserves_order(self, backend_factory):
        with backend_factory() as backend:
            assert backend.map(_square, list(range(12))) == [x * x for x in range(12)]

    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ThreadPoolBackend(max_workers=2), lambda: ProcessPoolBackend(max_workers=2)],
        ids=["serial", "threads", "processes"],
    )
    def test_submit_propagates_exceptions(self, backend_factory):
        with backend_factory() as backend:
            future = backend.submit(_explode, 5)
            assert isinstance(future.exception(), RuntimeError)
            with pytest.raises(RuntimeError, match="boom on 5"):
                future.result()
            # A failed item does not poison the backend.
            assert backend.submit(_square, 4).result() == 16

    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ThreadPoolBackend(max_workers=2), lambda: ProcessPoolBackend(max_workers=2)],
        ids=["serial", "threads", "processes"],
    )
    def test_shutdown_is_idempotent(self, backend_factory):
        backend = backend_factory()
        assert backend.submit(_square, 3).result() == 9
        backend.shutdown()
        backend.shutdown()
        # The pool is lazily recreated after shutdown.
        assert backend.map(_square, [2]) == [4]
        backend.shutdown()

    def test_as_completed_yields_in_completion_order(self):
        with ThreadPoolBackend(max_workers=2) as backend:
            slow = backend.submit(lambda s: time.sleep(s) or "slow", 0.2)
            fast = backend.submit(lambda s: time.sleep(s) or "fast", 0.01)
            ordered = [future.result() for future in backend.as_completed([slow, fast])]
        assert ordered == ["fast", "slow"]

    def test_resolver(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("threads"), ThreadPoolBackend)
        assert isinstance(resolve_backend("processes"), ProcessPoolBackend)
        backend = SerialBackend()
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError):
            resolve_backend("mpi")
        with pytest.raises(ValueError):
            ThreadPoolBackend(max_workers=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)

    def test_resolver_forwards_max_workers(self):
        assert resolve_backend("threads", max_workers=7).max_workers == 7
        assert resolve_backend("processes", max_workers=2).max_workers == 2

    def test_process_pool_of_sees_through_non_owning_wrappers(self):
        pool = ProcessPoolBackend(max_workers=2)
        assert process_pool_of(pool) is pool
        assert process_pool_of(NonOwningBackend(pool)) is pool
        assert process_pool_of(NonOwningBackend(NonOwningBackend(pool))) is pool
        # A wrapper reports the pool it wraps (the service's /metrics backend).
        assert NonOwningBackend(NonOwningBackend(pool)).name == pool.name
        threads = ThreadPoolBackend(max_workers=2)
        assert process_pool_of(threads) is None
        assert process_pool_of(NonOwningBackend(threads)) is None
        assert process_pool_of(SerialBackend()) is None


_OPENBLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _openblas_threads(_: object = None) -> int | None:
    """Thread count of the first loaded OpenBLAS with a known getter, else None.

    Module-level so process pools can pickle it.
    """
    for path in backends._loaded_openblas_paths():
        library = ctypes.CDLL(path)
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _train_wide_mlp(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train two 784-input MLPs whose GEMMs are large enough for OpenBLAS to
    thread; return the bit patterns of their loss curves and accuracies.

    On a 2-CPU host both loss curves differ in the low bits between 1 and 2
    OpenBLAS threads.  Module-level so process pools can pickle it.
    """
    dataset = load_dataset("mnist_like", seed=0, scale=0.01)
    training = TrainingConfig(
        epochs=3, batch_size=32, early_stopping_patience=0, validation_fraction=0.0
    )
    losses: list[float] = []
    accuracies: list[float] = []
    for hidden in [(128,), (128, 64)]:
        spec = MLPGenome(hidden_layers=hidden, activations=("relu",) * len(hidden)).to_spec(
            dataset.num_features, dataset.num_classes
        )
        result = evaluate_single_fold(
            spec,
            dataset.features,
            dataset.labels,
            dataset.test_features,
            dataset.test_labels,
            training_config=training,
            seed=seed,
        )
        losses += result.histories[0].train_loss
        accuracies.append(result.accuracy)
    return (
        np.asarray(losses, dtype=np.float64).view(np.int64),
        np.asarray(accuracies, dtype=np.float64).view(np.int64),
    )


def _assert_same_bits(left, right) -> None:
    assert np.array_equal(left[0], right[0])
    assert np.array_equal(left[1], right[1])


class TestPoolBlasThreads:
    """Pool processes cap OpenBLAS at usable CPUs // pool size."""

    @pytest.fixture
    def parent_threads(self) -> int:
        threads = _openblas_threads()
        if threads is None:
            pytest.skip("no OpenBLAS with a known thread-count getter is loaded")
        return threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_processes_run_at_the_cap(self, parent_threads, workers):
        with ProcessPoolBackend(max_workers=workers) as backend:
            seen = set(backend.map(_openblas_threads, range(4 * workers)))
        assert seen == {max(1, usable_cpus() // workers)} == {pool_blas_threads(workers)}
        # The calling process keeps its own setting.
        assert _openblas_threads() == parent_threads

    def test_unreadable_maps_is_reported_not_raised(self, monkeypatch, tmp_path, caplog):
        monkeypatch.setattr(backends, "_PROC_MAPS", str(tmp_path / "missing"))
        with caplog.at_level(logging.INFO, logger="repro.workers.backends"):
            assert cap_blas_threads(3) is False
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert "3 thread(s)" in record.getMessage()

    def test_no_known_setter_is_reported_not_raised(self, parent_threads, monkeypatch, caplog):
        monkeypatch.setattr(backends, "_OPENBLAS_SETTERS", ("no_such_setter",))
        with caplog.at_level(logging.INFO, logger="repro.workers.backends"):
            assert cap_blas_threads(1) is False
        (record,) = caplog.records
        assert record.name == "repro.workers.backends"
        assert "1 thread(s)" in record.getMessage()
        assert _openblas_threads() == parent_threads

    def test_single_process_pool_matches_in_process_training(self):
        # A pool of one is capped at every usable CPU: OpenBLAS's own default.
        parent = _openblas_threads()
        if parent is not None and parent != usable_cpus():
            pytest.skip(f"parent runs OpenBLAS at {parent} threads, not {usable_cpus()}")
        with ProcessPoolBackend(max_workers=1) as backend:
            pooled = backend.submit(_train_wide_mlp, 5).result()
        _assert_same_bits(pooled, _train_wide_mlp(5))

    def test_two_process_pools_agree(self):
        results = []
        for _ in range(2):
            with ProcessPoolBackend(max_workers=2) as backend:
                results.append(backend.submit(_train_wide_mlp, 5).result())
        _assert_same_bits(*results)

    def test_pool_matches_in_process_training_at_the_capped_count(self, parent_threads):
        with ProcessPoolBackend(max_workers=2) as backend:
            pooled = backend.submit(_train_wide_mlp, 5).result()
        try:
            assert cap_blas_threads(pool_blas_threads(2))
            local = _train_wide_mlp(5)
        finally:
            cap_blas_threads(parent_threads)
        assert _openblas_threads() == parent_threads
        _assert_same_bits(pooled, local)


class TestMaster:
    def _master(self, tiny_dataset, fast_training_config, backend=None) -> Master:
        workers = [
            SimulationWorker(gpu=TITAN_X),
            HardwareDatabaseWorker(device=ARRIA10_GX1150),
            PhysicalWorker(device=ARRIA10_GX1150),
        ]
        return Master(
            workers=workers,
            dataset=tiny_dataset,
            evaluation_protocol="1-fold",
            training_config=fast_training_config,
            backend=backend,
            seed=0,
        )

    def test_merges_all_worker_reports(self, tiny_dataset, fast_training_config, sample_genome):
        master = self._master(tiny_dataset, fast_training_config)
        evaluation = master.evaluate(sample_genome)
        assert not evaluation.failed
        assert evaluation.accuracy > 0.5
        assert evaluation.fpga_metrics is not None
        assert evaluation.gpu_metrics is not None
        assert evaluation.synthesis is not None
        assert evaluation.evaluation_seconds > 0
        assert evaluation.parameter_count > 0
        assert "simulation" in evaluation.extras

    def test_master_is_callable_like_an_evaluator(self, tiny_dataset, fast_training_config, sample_genome):
        master = self._master(tiny_dataset, fast_training_config)
        assert master(sample_genome).accuracy == pytest.approx(master.evaluate(sample_genome).accuracy, abs=0.2)

    def test_population_evaluation_through_thread_backend(
        self, tiny_dataset, fast_training_config, small_search_space, rng
    ):
        master = self._master(tiny_dataset, fast_training_config, backend="threads")
        genomes = [small_search_space.random_genome(rng, device=ARRIA10_GX1150) for _ in range(3)]
        evaluations = master.evaluate_batch(genomes)
        assert [e.genome.cache_key() for e in evaluations] == [g.cache_key() for g in genomes]
        assert all(not e.failed for e in evaluations)
        master.shutdown()

    def test_max_workers_forwarded_to_named_backend(self, tiny_dataset, fast_training_config):
        master = Master(
            workers=[PhysicalWorker(device=ARRIA10_GX1150)],
            dataset=tiny_dataset,
            training_config=fast_training_config,
            backend="threads",
            max_workers=7,
        )
        assert master.backend.max_workers == 7
        master.shutdown()
        with pytest.raises(ValueError):
            Master(workers=[PhysicalWorker(device=ARRIA10_GX1150)], max_workers=0)

    def test_serial_and_parallel_population_results_match(
        self, tiny_dataset, fast_training_config, small_search_space, rng
    ):
        genomes = [small_search_space.random_genome(rng, device=ARRIA10_GX1150) for _ in range(4)]
        serial = self._master(tiny_dataset, fast_training_config, backend="serial")
        threaded = self._master(tiny_dataset, fast_training_config, backend="threads")
        serial_results = serial.evaluate_batch(genomes)
        threaded_results = threaded.evaluate_batch(genomes)
        # Per-request seeds are derived from the genome hash, so the same
        # genome trains identically regardless of the dispatch mechanism.
        for a, b in zip(serial_results, threaded_results):
            assert a.genome.cache_key() == b.genome.cache_key()
            assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)
            assert a.parameter_count == b.parameter_count
        serial.shutdown()
        threaded.shutdown()

    def test_worker_error_becomes_error_field(self, tiny_dataset, fast_training_config, sample_genome):
        class ExplodingWorker(SimulationWorker):
            def evaluate(self, request):
                report = WorkerReport(worker_name="exploding")
                report.error = "synthetic failure"
                return report

        master = Master(
            workers=[ExplodingWorker(), HardwareDatabaseWorker(device=ARRIA10_GX1150)],
            dataset=tiny_dataset,
            training_config=fast_training_config,
        )
        evaluation = master.evaluate(sample_genome)
        assert evaluation.failed
        assert "synthetic failure" in evaluation.error

    def test_master_requires_workers(self, tiny_dataset):
        with pytest.raises(ValueError):
            Master(workers=[], dataset=tiny_dataset)

    def test_request_seed_derivation_is_deterministic(self, tiny_dataset, fast_training_config, sample_genome):
        master = self._master(tiny_dataset, fast_training_config)
        request_a = master.build_request(sample_genome)
        request_b = master.build_request(sample_genome)
        assert request_a.seed == request_b.seed
