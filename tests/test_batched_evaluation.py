"""Batched population evaluation: workers, master and engine plumbing.

The batched paths exist purely for throughput — they must produce the *same*
numbers as per-candidate dispatch (same seeds, same cache keys, same error
strings).  Accuracy comparisons here are exact ``==``, never ``approx``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.candidate import CandidateEvaluation
from repro.core.engine import EngineConfig, EvolutionaryEngine, RunStatistics
from repro.core.errors import SearchError
from repro.core.fitness import FitnessEvaluator
from repro.core.objectives import ObjectiveSpec
from repro.core.genome import CoDesignGenome, HardwareGenome, MLPGenome
from repro.datasets.base import Dataset
from repro.datasets.shared import clear_attached_cache
from repro.datasets.synthetic import SyntheticSpec, make_classification
from repro.hardware.device import ARRIA10_GX1150, TITAN_X
from repro.hardware.systolic import GridConfig
from repro.nn import batched as nn_batched
from repro.nn import reference
from repro.nn.preprocessing import train_test_split
from repro.nn.training import TrainingConfig
from repro.workers.backends import (
    NonOwningBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
)
from repro.workers.base import EvaluationRequest, Worker, WorkerReport
from repro.workers.hardware_db import HardwareDatabaseWorker
from repro.workers.master import Master
from repro.workers.physical import PhysicalWorker
from repro.workers.simulation import SimulationWorker


def _genomes(small_grid) -> list[CoDesignGenome]:
    """A small population with repeated and distinct topologies."""
    topologies = [
        ((16, 8), ("relu", "tanh")),
        ((16, 8), ("relu", "tanh")),  # same topology, same fused group
        ((32,), ("relu",)),
        ((8, 8), ("tanh", "tanh")),
        ((16, 8), ("relu", "tanh")),
    ]
    return [
        CoDesignGenome(
            mlp=MLPGenome(hidden_layers=layers, activations=acts),
            hardware=HardwareGenome(grid=small_grid, batch_size=256 * (1 + i % 2)),
            gpu_batch_size=128,
        )
        for i, (layers, acts) in enumerate(topologies)
    ]


def _requests(genomes, dataset, training_config, protocol="1-fold", num_folds=10):
    return [
        EvaluationRequest(
            genome=genome,
            dataset=dataset,
            evaluation_protocol=protocol,
            num_folds=num_folds,
            training_config=training_config,
            seed=100 + index,
        )
        for index, genome in enumerate(genomes)
    ]


def _assert_reports_identical(batched: WorkerReport, scalar: WorkerReport) -> None:
    assert batched.worker_name == scalar.worker_name
    assert batched.accuracy == scalar.accuracy
    assert batched.accuracy_std == scalar.accuracy_std
    assert batched.parameter_count == scalar.parameter_count
    assert batched.error == scalar.error
    assert batched.fpga_metrics == scalar.fpga_metrics
    assert batched.gpu_metrics == scalar.gpu_metrics
    assert batched.extras.get("fold_accuracies") == scalar.extras.get("fold_accuracies")


class TestWorkerBatchDefault:
    def test_base_default_loops_evaluate(self, sample_genome):
        class CountingWorker(Worker):
            name = "counting"

            def __init__(self):
                self.seen = []

            def evaluate(self, request):
                self.seen.append(request.seed)
                return WorkerReport(worker_name=self.name)

        worker = CountingWorker()
        requests = [
            EvaluationRequest(genome=sample_genome, seed=seed) for seed in (1, 2, 3)
        ]
        reports = worker.evaluate_batch(requests)
        assert len(reports) == 3
        assert worker.seen == [1, 2, 3]


class TestSimulationWorkerBatch:
    @pytest.mark.parametrize("dataset_fixture", ["tiny_dataset", "tiny_presplit_dataset"])
    def test_single_fold_batch_is_bit_identical(
        self, request, dataset_fixture, small_grid, fast_training_config
    ):
        dataset = request.getfixturevalue(dataset_fixture)
        worker = SimulationWorker(gpu=TITAN_X)
        requests = _requests(_genomes(small_grid), dataset, fast_training_config)
        batched = worker.evaluate_batch(requests)
        for batched_report, req in zip(batched, requests):
            _assert_reports_identical(batched_report, worker.evaluate(req))

    def test_kfold_batch_is_bit_identical(self, tiny_dataset, small_grid, fast_training_config):
        worker = SimulationWorker(gpu=None, measure_gpu=False)
        requests = _requests(
            _genomes(small_grid), tiny_dataset, fast_training_config,
            protocol="10-fold", num_folds=3,
        )
        batched = worker.evaluate_batch(requests)
        for batched_report, req in zip(batched, requests):
            scalar = worker.evaluate(req)
            _assert_reports_identical(batched_report, scalar)
            assert len(batched_report.extras["fold_accuracies"]) == 3

    def test_missing_dataset_error_matches_scalar(self, small_grid, fast_training_config):
        worker = SimulationWorker(gpu=None, measure_gpu=False)
        requests = _requests(_genomes(small_grid)[:2], None, fast_training_config)
        batched = worker.evaluate_batch(requests)
        for batched_report, req in zip(batched, requests):
            scalar = worker.evaluate(req)
            assert batched_report.failed and scalar.failed
            assert batched_report.error == scalar.error

    def test_same_topology_requests_share_one_fused_group(
        self, tiny_dataset, small_grid, fast_training_config
    ):
        worker = SimulationWorker(gpu=None, measure_gpu=False)
        calls = []
        original = worker._evaluate_group

        def spying(group):
            calls.append(len(group))
            return original(group)

        worker._evaluate_group = spying
        worker.evaluate_batch(_requests(_genomes(small_grid), tiny_dataset, fast_training_config))
        # 5 requests over 3 distinct topologies -> 3 groups, largest of size 3.
        assert sorted(calls) == [1, 1, 3]


#: Every route of ``SimulationWorker._evaluate_group``: the pre-split shared
#: matrix, a holdout split and k-fold folds, each also above the dataset-size
#: cap, where split-building runs train in groups of one and pre-split runs
#: still stack.
WORKER_ROUTES = [
    "pre-split",
    "pre-split-above-cap",
    "holdout",
    "holdout-above-cap",
    "k-fold",
    "k-fold-above-cap",
]

#: Early stopping on, so the compared figures include stopped runs.
ROUTE_TRAINING = TrainingConfig(
    epochs=8, batch_size=16, learning_rate=0.05, early_stopping_patience=2, validation_fraction=0.15
)


def _spy_group_sizes(monkeypatch) -> list[int]:
    """Record the size of every stacked group the batched trainer trains."""
    group_sizes: list[int] = []
    original = nn_batched.train_and_score_batch

    def spying(spec, train_xs, *args, **kwargs):
        group_sizes.append(len(train_xs))
        return original(spec, train_xs, *args, **kwargs)

    monkeypatch.setattr(nn_batched, "train_and_score_batch", spying)
    return group_sizes


class TestSimulationWorkerMatchesScalarReference:
    """Every worker route gives the figures of the scalar reference.

    The reference is the one-model trainer of :mod:`repro.nn.reference`,
    which the worker never runs, so these compare the stacked path against
    an independent loop rather than against another fused path.
    """

    @staticmethod
    def _kfold_request(genome, dataset, training_config, num_folds, seed=11):
        return EvaluationRequest(
            genome=genome,
            dataset=dataset,
            evaluation_protocol="10-fold",
            num_folds=num_folds,
            training_config=training_config,
            seed=seed,
        )

    @staticmethod
    def _reference(route, spec, dataset, request):
        if route.startswith("k-fold"):
            return reference.evaluate_kfold(
                spec,
                dataset.features,
                dataset.labels,
                num_folds=request.num_folds,
                training_config=request.training_config,
                seed=request.seed,
            )
        if route.startswith("pre-split"):
            split = (dataset.features, dataset.labels, dataset.test_features, dataset.test_labels)
        else:
            train_x, test_x, train_y, test_y = train_test_split(
                dataset.features, dataset.labels, test_fraction=0.25, seed=request.seed
            )
            split = (train_x, train_y, test_x, test_y)
        return reference.evaluate_single_fold(
            spec, *split, training_config=request.training_config, seed=request.seed
        )

    @pytest.mark.parametrize("batch", [1, 3], ids=["evaluate", "evaluate_batch-3"])
    @pytest.mark.parametrize("route", WORKER_ROUTES)
    def test_every_route_matches_the_reference(self, monkeypatch, small_grid, route, batch):
        from repro.workers import simulation

        dataset = make_classification(
            SyntheticSpec(
                name="route",
                num_features=9,
                num_classes=3,
                num_samples=88,
                num_test_samples=40 if route.startswith("pre-split") else 0,
            ),
            seed=5,
        )
        if route.endswith("above-cap"):
            monkeypatch.setattr(
                simulation, "_STACKED_SPLITS_MAX_ELEMENTS", dataset.features.size - 1
            )
        kfold = route.startswith("k-fold")
        genome = CoDesignGenome(
            mlp=MLPGenome(hidden_layers=(16, 8), activations=("sigmoid", "elu")),
            hardware=HardwareGenome(grid=small_grid, batch_size=256),
            gpu_batch_size=128,
        )
        requests = [
            EvaluationRequest(
                genome=genome,
                dataset=dataset,
                evaluation_protocol="10-fold" if kfold else "1-fold",
                num_folds=4,
                training_config=ROUTE_TRAINING,
                seed=11 + index,
            )
            for index in range(batch)
        ]
        group_sizes = _spy_group_sizes(monkeypatch)
        worker = SimulationWorker(gpu=None, measure_gpu=False)
        if batch == 1:
            reports = [worker.evaluate(requests[0])]
        else:
            reports = worker.evaluate_batch(requests)

        # 88 rows make four equal folds, so a candidate's folds share a shape.
        runs = batch * (4 if kfold else 1)
        if route in ("holdout-above-cap", "k-fold-above-cap"):
            assert group_sizes == [1] * runs
        else:
            assert group_sizes == ([runs] if runs <= 8 else [8, runs - 8])
        spec = genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
        for report, request in zip(reports, requests):
            expected = self._reference(route, spec, dataset, request)
            assert not report.failed
            assert report.accuracy == expected.accuracy
            assert report.accuracy_std == expected.accuracy_std
            assert report.extras["fold_accuracies"] == expected.fold_accuracies

    @pytest.mark.parametrize(
        ("num_samples", "num_folds", "stacked_groups"),
        [(107, 5, [2, 3]), (160, 10, [8, 2])],
        ids=["uneven-folds-two-shapes", "ten-folds-chunked"],
    )
    def test_evaluate_matches_evaluate_kfold(
        self, monkeypatch, small_grid, fast_training_config, num_samples, num_folds, stacked_groups
    ):
        dataset = make_classification(
            SyntheticSpec(name="kfold", num_features=9, num_classes=3, num_samples=num_samples),
            seed=5,
        )
        genome = CoDesignGenome(
            mlp=MLPGenome(hidden_layers=(16, 8), activations=("sigmoid", "elu")),
            hardware=HardwareGenome(grid=small_grid, batch_size=256),
            gpu_batch_size=128,
        )
        group_sizes = _spy_group_sizes(monkeypatch)
        report = SimulationWorker(gpu=None, measure_gpu=False).evaluate(
            self._kfold_request(genome, dataset, fast_training_config, num_folds)
        )
        assert group_sizes == stacked_groups

        expected = reference.evaluate_kfold(
            genome.mlp.to_spec(dataset.num_features, dataset.num_classes),
            dataset.features,
            dataset.labels,
            num_folds=num_folds,
            training_config=fast_training_config,
            seed=11,
        )
        assert not report.failed
        assert report.accuracy == expected.accuracy
        assert report.accuracy_std == expected.accuracy_std
        assert report.extras["fold_accuracies"] == expected.fold_accuracies
        assert len(report.extras["fold_accuracies"]) == num_folds

    def test_large_dataset_trains_fold_by_fold(self, monkeypatch, small_grid, fast_training_config):
        # Above the size cap every fold trains as a group of one, through
        # evaluate and through evaluate_batch alike, so a batch holds one
        # fold's arrays at a time.
        from repro.workers import simulation

        dataset = make_classification(
            SyntheticSpec(name="kfold", num_features=9, num_classes=3, num_samples=60), seed=6
        )
        monkeypatch.setattr(simulation, "_STACKED_SPLITS_MAX_ELEMENTS", dataset.features.size - 1)
        group_sizes = _spy_group_sizes(monkeypatch)
        genome = _genomes(small_grid)[0]
        worker = SimulationWorker(gpu=None, measure_gpu=False)
        report = worker.evaluate(self._kfold_request(genome, dataset, fast_training_config, num_folds=4))
        assert group_sizes == [1] * 4
        expected = reference.evaluate_kfold(
            genome.mlp.to_spec(dataset.num_features, dataset.num_classes),
            dataset.features,
            dataset.labels,
            num_folds=4,
            training_config=fast_training_config,
            seed=11,
        )
        assert not report.failed
        assert report.accuracy == expected.accuracy
        assert report.extras["fold_accuracies"] == expected.fold_accuracies

        # Two same-topology requests form one group; its 8 folds still
        # train one at a time.
        group_sizes.clear()
        batched = worker.evaluate_batch(
            [
                self._kfold_request(genome, dataset, fast_training_config, num_folds=4, seed=seed)
                for seed in (11, 12)
            ]
        )
        assert group_sizes == [1] * 8
        assert batched[0].extras["fold_accuracies"] == expected.fold_accuracies
        assert not batched[1].failed

    def test_too_few_samples_reports_the_scalar_error(self, small_grid, fast_training_config):
        dataset = Dataset(name="two", features=[[0.0, 1.0], [1.0, 0.0]], labels=[0, 1])
        requests = [
            self._kfold_request(genome, dataset, fast_training_config, num_folds=3)
            for genome in _genomes(small_grid)[:2]
        ]
        worker = SimulationWorker(gpu=None, measure_gpu=False)
        expected = "training failed: cannot split 2 samples into 3 folds"
        assert worker.evaluate(requests[0]).error == expected

        # The same-topology batch fails its fused group and falls back to
        # per-request evaluate, which must report the same text.
        fallbacks = []
        original = worker.evaluate

        def spying(request):
            fallbacks.append(request.seed)
            return original(request)

        worker.evaluate = spying
        reports = worker.evaluate_batch(requests)
        assert fallbacks == [11, 11]
        assert [report.error for report in reports] == [expected, expected]

    def test_unknown_optimizer_reports_the_scalar_error(self, tiny_dataset, small_grid):
        config = TrainingConfig(epochs=1, optimizer="nesterov", validation_fraction=0.0)
        genome = _genomes(small_grid)[0]
        with pytest.raises(ValueError) as scalar_error:
            reference.evaluate_kfold(
                genome.mlp.to_spec(tiny_dataset.num_features, tiny_dataset.num_classes),
                tiny_dataset.features,
                tiny_dataset.labels,
                num_folds=3,
                training_config=config,
                seed=11,
            )
        report = SimulationWorker(gpu=None, measure_gpu=False).evaluate(
            self._kfold_request(genome, tiny_dataset, config, num_folds=3)
        )
        assert report.error == f"training failed: {scalar_error.value}"


class TestHardwareDatabaseWorkerBatch:
    def test_batch_is_bit_identical(self, tiny_dataset, small_grid, fast_training_config):
        worker = HardwareDatabaseWorker(device=ARRIA10_GX1150)
        requests = _requests(_genomes(small_grid), tiny_dataset, fast_training_config)
        batched = worker.evaluate_batch(requests)
        for batched_report, req in zip(batched, requests):
            _assert_reports_identical(batched_report, worker.evaluate(req))

    def test_infeasible_and_missing_dims_fall_back_to_scalar_errors(
        self, tiny_dataset, small_grid, fast_training_config
    ):
        worker = HardwareDatabaseWorker(device=ARRIA10_GX1150)
        feasible = _genomes(small_grid)[0]
        infeasible = CoDesignGenome(
            mlp=MLPGenome(hidden_layers=(16,), activations=("relu",)),
            hardware=HardwareGenome(
                grid=GridConfig(rows=32, columns=32, vector_width=16), batch_size=512
            ),
        )
        requests = [
            EvaluationRequest(genome=feasible, dataset=tiny_dataset, seed=1),
            EvaluationRequest(genome=infeasible, dataset=tiny_dataset, seed=2),
            EvaluationRequest(genome=feasible, dataset=None, seed=3),  # missing dims
        ]
        batched = worker.evaluate_batch(requests)
        for batched_report, req in zip(batched, requests):
            scalar = worker.evaluate(req)
            assert batched_report.error == scalar.error
            assert batched_report.fpga_metrics == scalar.fpga_metrics
        assert not batched[0].failed
        assert batched[1].failed
        assert batched[2].failed


class TestFusedFallbackIsLogged:
    """A failed fused group is redone per request and leaves one WARNING."""

    def test_simulation_group_failure_warns_once(
        self, monkeypatch, caplog, tiny_dataset, small_grid, fast_training_config
    ):
        worker = SimulationWorker(gpu=TITAN_X)
        genomes = _genomes(small_grid)
        # Three requests of one topology: a single fused group.
        requests = _requests([genomes[0], genomes[1], genomes[4]], tiny_dataset, fast_training_config)
        working = worker._evaluate_group

        def broken(group):
            # The per-request retry runs one-request groups, which still work.
            if len(group) > 1:
                raise RuntimeError("fused path broke")
            return working(group)

        monkeypatch.setattr(worker, "_evaluate_group", broken)
        with caplog.at_level("WARNING", logger="repro.workers.simulation"):
            batched = worker.evaluate_batch(requests)
        records = [r for r in caplog.records if r.name == "repro.workers.simulation"]
        assert len(records) == 1
        assert records[0].levelname == "WARNING"
        assert "fused path broke" in records[0].getMessage()
        assert "3-request group" in records[0].getMessage()
        for batched_report, req in zip(batched, requests):
            assert not batched_report.failed
            _assert_reports_identical(batched_report, worker.evaluate(req))

    def test_working_fused_paths_log_nothing(
        self, caplog, tiny_dataset, small_grid, fast_training_config
    ):
        requests = _requests(_genomes(small_grid), tiny_dataset, fast_training_config)
        with caplog.at_level("WARNING"):
            SimulationWorker(gpu=TITAN_X).evaluate_batch(requests)
        assert not [r for r in caplog.records if r.name.startswith("repro.workers")]


class TestMasterBatch:
    def _master(self, dataset, training_config, backend=None) -> Master:
        return Master(
            workers=[
                SimulationWorker(gpu=TITAN_X),
                HardwareDatabaseWorker(device=ARRIA10_GX1150),
                PhysicalWorker(device=ARRIA10_GX1150),
            ],
            dataset=dataset,
            evaluation_protocol="1-fold",
            training_config=training_config,
            backend=backend,
            seed=0,
        )

    def _assert_evaluations_identical(self, batched, scalar):
        assert batched.genome.cache_key() == scalar.genome.cache_key()
        assert batched.accuracy == scalar.accuracy
        assert batched.accuracy_std == scalar.accuracy_std
        assert batched.parameter_count == scalar.parameter_count
        assert batched.fpga_metrics == scalar.fpga_metrics
        assert batched.gpu_metrics == scalar.gpu_metrics
        assert batched.synthesis == scalar.synthesis
        assert batched.error == scalar.error

    def test_evaluate_batch_matches_per_candidate(self, tiny_dataset, fast_training_config, small_grid):
        master = self._master(tiny_dataset, fast_training_config)
        genomes = _genomes(small_grid)
        batched = master.evaluate_batch(genomes)
        assert len(batched) == len(genomes)
        for genome, evaluation in zip(genomes, batched):
            self._assert_evaluations_identical(evaluation, master.evaluate(genome))
            assert evaluation.evaluation_seconds > 0
        master.shutdown()

    def test_empty_batch(self, tiny_dataset, fast_training_config):
        master = self._master(tiny_dataset, fast_training_config)
        assert master.evaluate_batch([]) == []
        master.shutdown()

    def test_processes_backend_ships_shared_dataset(
        self, tiny_dataset, fast_training_config, small_grid
    ):
        serial = self._master(tiny_dataset, fast_training_config, backend="serial")
        procs = self._master(tiny_dataset, fast_training_config, backend="processes")
        try:
            genomes = _genomes(small_grid)[:3]
            request = procs.build_request(genomes[0])
            assert request.dataset is None
            assert request.shared_dataset is not None
            materialized = request.materialize()
            assert np.array_equal(materialized.dataset.features, tiny_dataset.features)

            batched = procs.evaluate_batch(genomes)
            for evaluation, genome in zip(batched, genomes):
                self._assert_evaluations_identical(evaluation, serial.evaluate(genome))
        finally:
            segments = list(procs._shared_dataset.segment_names) if procs._shared_dataset else []
            procs.shutdown()
            serial.shutdown()
            clear_attached_cache()
        assert procs._shared_dataset is None
        import os

        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_serial_backends_do_not_export_shared_memory(self, tiny_dataset, fast_training_config, small_grid):
        master = self._master(tiny_dataset, fast_training_config, backend="serial")
        request = master.build_request(_genomes(small_grid)[0])
        assert request.dataset is tiny_dataset
        assert request.shared_dataset is None
        assert master._shared_dataset is None
        master.shutdown()

    def test_wrapped_process_pool_ships_shared_dataset(
        self, tiny_dataset, fast_training_config, small_grid
    ):
        pool = ProcessPoolBackend(max_workers=2)
        serial = self._master(tiny_dataset, fast_training_config, backend="serial")
        wrapped = self._master(
            tiny_dataset, fast_training_config, backend=NonOwningBackend(pool)
        )
        try:
            genomes = _genomes(small_grid)[:3]
            request = wrapped.build_request(genomes[0])
            assert request.dataset is None
            assert request.shared_dataset is not None

            batched = wrapped.evaluate_batch(genomes)
            for evaluation, genome in zip(batched, genomes):
                self._assert_evaluations_identical(evaluation, serial.evaluate(genome))
        finally:
            segments = list(wrapped._shared_dataset.segment_names) if wrapped._shared_dataset else []
            wrapped.shutdown()
            pool.shutdown()
            serial.shutdown()
            clear_attached_cache()
        assert segments
        assert wrapped._shared_dataset is None
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")


class _CountingBackend(NonOwningBackend):
    """Counts the tasks submitted to the backend it wraps."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.tasks = 0

    def submit(self, function, item):
        self.tasks += 1
        return super().submit(function, item)


class _SlowOrFailingWorker(Worker):
    """Raises on a batch holding a (16, 8) network; otherwise sleeps, then
    leaves a marker file (module level so process pools can pickle it)."""

    name = "slow_or_failing"

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def evaluate_batch(self, requests):
        if any(request.genome.mlp.hidden_layers == (16, 8) for request in requests):
            raise RuntimeError("rejected a (16, 8) network")
        time.sleep(0.5)
        Path(self.marker).write_text("finished")
        return [WorkerReport(worker_name=self.name) for _ in requests]


class _SleepyWorker(Worker):
    """Sleeps 0.3 s per (16, 8) network, not at all for any other."""

    name = "sleepy"

    def evaluate_batch(self, requests):
        time.sleep(0.3 * sum(request.genome.mlp.hidden_layers == (16, 8) for request in requests))
        return [WorkerReport(worker_name=self.name) for _ in requests]


_TIMING_FIELDS = {"train_seconds", "evaluation_seconds"}


def _assert_same_evaluation(left: CandidateEvaluation, right: CandidateEvaluation) -> None:
    for spec in dataclasses.fields(CandidateEvaluation):
        if spec.name not in _TIMING_FIELDS:
            assert getattr(left, spec.name) == getattr(right, spec.name), spec.name


class TestMasterBatchFanOut:
    """A pool of processes gets a batch as up to pool-size tasks, one or more
    whole topology groups each, with every result unchanged."""

    def _master(self, dataset, training_config, backend, protocol="1-fold", num_folds=10) -> Master:
        return Master(
            workers=[
                SimulationWorker(gpu=TITAN_X),
                HardwareDatabaseWorker(device=ARRIA10_GX1150),
                PhysicalWorker(device=ARRIA10_GX1150),
            ],
            dataset=dataset,
            evaluation_protocol=protocol,
            num_folds=num_folds,
            training_config=training_config,
            backend=backend,
            seed=0,
        )

    def _run(self, backend, genomes, *master_args, **master_kwargs):
        """Evaluate ``genomes`` as one batch; return (evaluations, tasks submitted)."""
        counting = _CountingBackend(backend)
        master = self._master(*master_args, backend=counting, **master_kwargs)
        try:
            return master.evaluate_batch(genomes), counting.tasks
        finally:
            master.shutdown()
            backend.shutdown()
            clear_attached_cache()

    @pytest.mark.parametrize(
        "protocol, num_folds", [("1-fold", 10), ("10-fold", 3)], ids=["pre-split", "3-fold"]
    )
    def test_two_process_one_process_and_serial_agree(
        self, protocol, num_folds, tiny_presplit_dataset, fast_training_config, small_grid
    ):
        genomes = _genomes(small_grid)
        args = (tiny_presplit_dataset, fast_training_config)
        kwargs = {"protocol": protocol, "num_folds": num_folds}
        two, two_tasks = self._run(ProcessPoolBackend(max_workers=2), genomes, *args, **kwargs)
        one, one_tasks = self._run(ProcessPoolBackend(max_workers=1), genomes, *args, **kwargs)
        serial, serial_tasks = self._run(SerialBackend(), genomes, *args, **kwargs)
        assert (two_tasks, one_tasks, serial_tasks) == (2, 1, 1)
        assert len(two) == len(one) == len(serial) == len(genomes)
        for fanned, single, reference in zip(two, one, serial):
            _assert_same_evaluation(fanned, reference)
            _assert_same_evaluation(single, reference)
            assert not reference.error

    def test_input_order_is_kept(self, tiny_presplit_dataset, fast_training_config, small_grid):
        # The costliest group, dealt first, sits at the end of the batch.
        genomes = _genomes(small_grid)[2:] + _genomes(small_grid)[:2]
        args = (tiny_presplit_dataset, fast_training_config)
        fanned, tasks = self._run(ProcessPoolBackend(max_workers=2), genomes, *args)
        assert tasks == 2
        assert [evaluation.genome for evaluation in fanned] == genomes
        master = self._master(*args, backend=SerialBackend())
        for genome, evaluation in zip(genomes, fanned):
            _assert_same_evaluation(evaluation, master.evaluate(genome))
        master.shutdown()

    @pytest.mark.parametrize(
        "backend_factory, single_topology",
        [
            (lambda: ProcessPoolBackend(max_workers=2), True),
            (lambda: ProcessPoolBackend(max_workers=1), False),
            (lambda: ThreadPoolBackend(max_workers=2), False),
        ],
        ids=["single-topology", "pool-of-one", "threads"],
    )
    def test_one_task_without_two_processes_and_two_topologies(
        self, backend_factory, single_topology, tiny_presplit_dataset, fast_training_config, small_grid
    ):
        genomes = _genomes(small_grid)
        if single_topology:
            genomes = [genome for genome in genomes if genome.mlp.hidden_layers == (16, 8)]
        evaluations, tasks = self._run(
            backend_factory(), genomes, tiny_presplit_dataset, fast_training_config
        )
        assert tasks == 1
        assert len(evaluations) == len(genomes)

    def test_groups_are_balanced_by_estimated_cost(self, tiny_presplit_dataset, fast_training_config, small_grid):
        # 10 features, 3 classes: (16, 8) x3 costs 3 x 339, (32,) 451,
        # (8, 8) 187; the big group takes one process, the rest the other.
        backend = ProcessPoolBackend(max_workers=3)
        master = self._master(tiny_presplit_dataset, fast_training_config, backend)
        assert master._batch_parts(_genomes(small_grid)) == [[0, 1, 4], [2], [3]]
        backend.max_workers = 2
        assert master._batch_parts(_genomes(small_grid)) == [[0, 1, 4], [2, 3]]
        master.shutdown()

    def test_evaluation_seconds_split_each_part_on_its_own(self, tiny_presplit_dataset, small_grid):
        backend = ProcessPoolBackend(max_workers=2)
        master = Master(workers=[_SleepyWorker()], dataset=tiny_presplit_dataset, backend=backend)
        try:
            seconds = [e.evaluation_seconds for e in master.evaluate_batch(_genomes(small_grid))]
        finally:
            master.shutdown()
            clear_attached_cache()
        # Part one, three (16, 8) networks, took ~0.9 s; part two ~0 s.
        assert all(seconds[position] >= 0.3 for position in (0, 1, 4))
        assert all(seconds[position] < 0.15 for position in (2, 3))

    def test_failed_part_raises_after_the_other_part_finishes(
        self, tmp_path, tiny_presplit_dataset, small_grid
    ):
        marker = tmp_path / "slow-part-finished"
        backend = ProcessPoolBackend(max_workers=2)
        master = Master(
            workers=[_SlowOrFailingWorker(str(marker))],
            dataset=tiny_presplit_dataset,
            backend=backend,
        )
        try:
            # Part one, the (16, 8) group, fails at once; part two sleeps.
            assert master._batch_parts(_genomes(small_grid)) == [[0, 1, 4], [2, 3]]
            with pytest.raises(RuntimeError, match=r"rejected a \(16, 8\) network"):
                master.evaluate_batch(_genomes(small_grid))
            assert marker.read_text() == "finished"
        finally:
            master.shutdown()
            clear_attached_cache()


class _BatchRecordingEvaluator:
    """Evaluator double that records batch sizes (engine-side contract)."""

    def __init__(self, fn):
        self.fn = fn
        self.batch_sizes: list[int] = []
        self.single_calls = 0

    def __call__(self, genome):
        self.single_calls += 1
        return self.fn(genome)

    def evaluate_batch(self, genomes):
        self.batch_sizes.append(len(genomes))
        return [self.fn(genome) for genome in genomes]


class TestEngineBatching:
    def _engine(self, space, evaluator, **overrides) -> EvolutionaryEngine:
        config = EngineConfig(
            population_size=overrides.pop("population_size", 6),
            max_evaluations=overrides.pop("max_evaluations", 24),
            seed=overrides.pop("seed", 0),
            **overrides,
        )
        return EvolutionaryEngine(
            space=space,
            evaluator=evaluator,
            fitness=FitnessEvaluator(
                [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]
            ),
            config=config,
            device=ARRIA10_GX1150,
        )

    def test_eval_batch_size_validation(self):
        with pytest.raises(SearchError):
            EngineConfig(eval_batch_size=0)
        with pytest.raises(SearchError):
            EngineConfig(eval_batch_size=-4)
        EngineConfig(eval_batch_size=8)

    def test_batched_run_uses_evaluate_batch_and_accounts_correctly(
        self, small_search_space, fake_evaluator
    ):
        evaluator = _BatchRecordingEvaluator(fake_evaluator)
        engine = self._engine(
            small_search_space, evaluator, eval_parallelism=2, eval_batch_size=4
        )
        result = engine.run()
        stats = result.statistics
        assert len(result.population) == 6
        assert stats.models_generated == 24
        assert stats.models_evaluated + stats.cache_hits == 24
        assert stats.models_evaluated == sum(evaluator.batch_sizes) + evaluator.single_calls
        assert max(evaluator.batch_sizes, default=0) > 1
        assert len(result.history) == 24
        assert stats.peak_in_flight >= 4

    def test_batch_size_one_matches_per_candidate_async_run(
        self, small_search_space, fake_evaluator
    ):
        base = self._engine(small_search_space, fake_evaluator, eval_parallelism=1)
        batched = self._engine(
            small_search_space, fake_evaluator, eval_parallelism=1, eval_batch_size=1
        )
        assert base.run().statistics.models_generated == batched.run().statistics.models_generated

    def test_batch_evaluator_errors_become_error_evaluations(self, small_search_space):
        def explode(genome):
            raise RuntimeError("synthetic batch failure")

        evaluator = _BatchRecordingEvaluator(explode)
        engine = self._engine(
            small_search_space,
            evaluator,
            eval_parallelism=2,
            eval_batch_size=3,
            max_evaluations=12,
        )
        result = engine.run()
        # A failing evaluator degrades every candidate to an error
        # evaluation, exactly like the per-candidate path — no crash.
        assert all(
            member.evaluation.failed
            and "synthetic batch failure" in member.evaluation.error
            for member in result.population.members
        )

    def test_duplicate_genomes_hit_cache_within_batch_path(
        self, small_search_space, fake_evaluator, rng
    ):
        evaluator = _BatchRecordingEvaluator(fake_evaluator)
        engine = self._engine(small_search_space, evaluator, eval_batch_size=2)
        genome = small_search_space.random_genome(rng, device=ARRIA10_GX1150)
        first = engine.chunks.evaluate_chunk([genome])
        second = engine.chunks.evaluate_chunk([genome])
        assert not first[0].from_cache
        assert second[0].from_cache
        assert first[0].accuracy == second[0].accuracy
        assert engine.statistics.cache_hits == 1
        assert engine.statistics.models_evaluated == 1
        # A repeat inside one chunk copies its first occurrence.
        other = small_search_space.random_genome(rng, device=ARRIA10_GX1150)
        while other.cache_key() == genome.cache_key():
            other = small_search_space.random_genome(rng, device=ARRIA10_GX1150)
        fresh, repeat = engine.chunks.evaluate_chunk([other, other])
        assert not fresh.from_cache and repeat.from_cache
        assert repeat.accuracy == fresh.accuracy
        assert engine.statistics.cache_hits == 2
        assert engine.statistics.models_evaluated == 2


class TestRunStatisticsGuards:
    def test_zero_wall_clock_is_not_infinite(self):
        stats = RunStatistics(models_evaluated=10, wall_clock_seconds=0.0)
        assert stats.evaluations_per_second == 0.0
        stats.wall_clock_seconds = 1e-12
        assert stats.evaluations_per_second == 0.0

    def test_no_fresh_evaluations_is_zero_throughput(self):
        stats = RunStatistics(models_evaluated=0, cache_hits=50, wall_clock_seconds=2.0)
        assert stats.evaluations_per_second == 0.0
        assert stats.average_evaluation_seconds == 0.0

    def test_normal_case(self):
        stats = RunStatistics(
            models_evaluated=20, wall_clock_seconds=4.0, total_evaluation_seconds=8.0
        )
        assert stats.evaluations_per_second == 5.0
        assert stats.average_evaluation_seconds == 0.4
        assert np.isfinite(stats.to_dict()["evaluations_per_second"])
