"""Simulation worker: trains candidate networks and models GPU execution.

In the paper the simulation worker handles "instruction-set based
architectures such as CPU and GPU": it converts the ANN description into a
runnable form, executes it on the target, and returns throughput/latency/power
metrics.  In this reproduction the simulation worker does two things:

* **Accuracy measurement** — it trains the candidate MLP from scratch on the
  request's dataset (single fold or k-fold, per the request protocol).  This
  replaces the TensorFlow training runs of the original system.
* **GPU performance modeling** — it runs the
  :class:`~repro.hardware.gpu_model.GPUPerformanceModel` for the configured
  GPU baseline, replacing the TensorFlow-trace profiling of the original
  system.

The two concerns are kept in one worker because that is how the original flow
behaves (the GPU path both trains and measures); a ``measure_gpu=False`` flag
turns the worker into a pure training worker for accuracy-only searches.
"""

from __future__ import annotations

import logging
import time
from functools import partial

from ..hardware.device import GPUDevice, TITAN_X
from ..hardware.gpu_model import GPUPerformanceModel
from ..nn.evaluation import _fixed_run, _score_runs_batched, evaluate_kfold_batch
from ..nn.preprocessing import train_test_split
from .base import EvaluationRequest, Worker, WorkerReport, register_worker

__all__ = ["SimulationWorker"]

logger = logging.getLogger(__name__)

#: Largest stacked group the worker trains.
_MAX_GROUP_SIZE = 8

#: Runs that build their own arrays (k-fold folds, holdout splits) stack up
#: to :data:`_MAX_GROUP_SIZE` while the dataset has at most this many feature
#: elements (rows x features, 4 MB of float64), and train in groups of one
#: above it.  A stacked chunk holds about two copies of each of its runs, and
#: stacking pays where each step's GEMMs are small: 10 folds of credit-g and
#: phishing shapes (20-30 features) trained 1.7-2.7x faster stacked, while
#: full-size HAR and Bioresponse shapes (561 and 1776 features) gained 0-11%
#: for 600-850 MB more peak memory.  Runs on the shared pre-split matrix copy
#: nothing and always stack.
_STACKED_SPLITS_MAX_ELEMENTS = 1 << 19


class SimulationWorker(Worker):
    """Trains candidates and models the GPU baseline.

    Every candidate trains on the stacked
    :class:`~repro.nn.batched.BatchedTrainer` through one path,
    :meth:`_evaluate_group`: :meth:`evaluate` is a one-request group, and
    :meth:`evaluate_batch` groups the requests that share a dataset,
    topology and protocol.  A group's runs (one per pre-split or holdout
    candidate, one per fold of a k-fold candidate) train in stacked chunks;
    the chunk size rule is in :meth:`_evaluate_group`.  Every path gives the
    results of the scalar reference in :mod:`repro.nn.reference` bit for
    bit.

    Parameters
    ----------
    gpu:
        The GPU device to model; defaults to the Titan X used for the paper's
        Stratix 10 comparisons.
    measure_gpu:
        When false, only accuracy is measured (no GPU metrics in the report).
    holdout_fraction:
        Test fraction used when the dataset has no pre-split test partition
        but the request still asks for single-fold evaluation.
    """

    name = "simulation"

    def __init__(
        self,
        gpu: GPUDevice | None = TITAN_X,
        measure_gpu: bool = True,
        holdout_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
        self.gpu = gpu
        self.measure_gpu = measure_gpu and gpu is not None
        self.holdout_fraction = float(holdout_fraction)

    def evaluate(self, request: EvaluationRequest) -> WorkerReport:
        """Train the candidate network and (optionally) model GPU execution.

        The one-request call of :meth:`_evaluate_group`, the path
        :meth:`evaluate_batch` trains on: a ``"10-fold"`` candidate's folds
        train as stacked runs, a single fold as a one-member group.  A
        training error is reported as ``training failed: ...``.
        """
        report = WorkerReport(worker_name=self.name)
        if request.dataset is None:
            report.error = "simulation worker requires a dataset"
            return report
        dataset = request.dataset
        spec = request.genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
        report.parameter_count = spec.parameter_count
        try:
            return self._evaluate_group([request])[0]
        except Exception as exc:  # noqa: BLE001 - report, don't crash the master
            report.error = f"training failed: {exc}"
            return report

    def _holdout_run(self, dataset, seed):
        """A batched run over the seed's holdout split of a dataset without a test split."""
        train_x, test_x, train_y, test_y = train_test_split(
            dataset.features, dataset.labels, test_fraction=self.holdout_fraction, seed=seed
        )
        return train_x, train_y, test_x, test_y, seed

    # ---------------------------------------------------------------- batch
    def evaluate_batch(self, requests: list[EvaluationRequest]) -> list[WorkerReport]:
        """Train a whole population slice with fused GEMM batches.

        Requests are grouped by (dataset, topology, protocol); each group is
        trained by :meth:`_evaluate_group`, the path :meth:`evaluate` takes
        for one request, so results are bit-identical to per-request
        :meth:`evaluate` at the same seeds.  Any group that fails is redone
        request by request with :meth:`evaluate`, so error reports match the
        single-request path, and logs one warning: the retry costs only
        speed, so it would otherwise hide a bug that only a larger group
        hits.
        """
        reports: list[WorkerReport | None] = [None] * len(requests)
        groups: dict[tuple, list[int]] = {}
        for position, request in enumerate(requests):
            if request.dataset is None:
                report = WorkerReport(worker_name=self.name)
                report.error = "simulation worker requires a dataset"
                reports[position] = report
                continue
            dataset = request.dataset
            spec = request.genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
            key = (
                id(dataset),
                spec,
                request.evaluation_protocol,
                request.num_folds,
                id(request.training_config),
            )
            groups.setdefault(key, []).append(position)

        for positions in groups.values():
            group = [requests[p] for p in positions]
            try:
                group_reports = self._evaluate_group(group)
            except Exception as exc:  # noqa: BLE001 - fused group failed; redo per request
                logger.warning(
                    "fused training of a %d-request group failed (%r); "
                    "redoing it one request at a time",
                    len(group),
                    exc,
                    exc_info=True,
                )
                group_reports = [self.evaluate(request) for request in group]
            for position, report in zip(positions, group_reports):
                reports[position] = report
        return reports  # type: ignore[return-value]

    def _evaluate_group(self, requests: list[EvaluationRequest]) -> list[WorkerReport]:
        """Train same-(dataset, spec, protocol) requests as stacked runs.

        The worker's one training path.  Group sizes follow one rule: runs
        that build their own arrays (k-fold folds, holdout splits) stack up
        to ``_MAX_GROUP_SIZE`` at or below ``_STACKED_SPLITS_MAX_ELEMENTS``
        feature elements and train one at a time above it; runs on the
        shared pre-split matrix always stack up to ``_MAX_GROUP_SIZE``.
        """
        from ..datasets.prepared import prepare_dataset

        template = requests[0]
        dataset = template.dataset
        spec = template.genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
        seeds = [request.seed for request in requests]
        shared_matrix = template.evaluation_protocol != "10-fold" and dataset.has_test_split
        if shared_matrix or dataset.features.size <= _STACKED_SPLITS_MAX_ELEMENTS:
            max_group_size = _MAX_GROUP_SIZE
        else:
            max_group_size = 1

        start = time.perf_counter()
        if template.evaluation_protocol == "10-fold":
            results = evaluate_kfold_batch(
                spec,
                dataset.features,
                dataset.labels,
                num_folds=template.num_folds,
                training_config=template.training_config,
                seeds=seeds,
                max_group_size=max_group_size,
            )
            scored = [(result.accuracy, result.accuracy_std, result.fold_accuracies) for result in results]
        else:
            if shared_matrix:
                # Candidate-independent preprocessing, done once per dataset
                # per process: the scaler is fitted on the full train split
                # exactly as a per-run fit would be, so standardize=False
                # below is bit-safe.
                prepared = prepare_dataset(dataset)
                split = (
                    prepared.standardized_features,
                    dataset.labels,
                    prepared.standardized_test_features,
                    dataset.test_labels,
                )
                runs = [(None, partial(_fixed_run, split, seed)) for seed in seeds]
            else:
                # Every holdout split of one dataset has the same shape.
                runs = [(None, partial(self._holdout_run, dataset, seed)) for seed in seeds]
            outcomes = _score_runs_batched(
                spec,
                runs,
                template.training_config,
                standardize=not shared_matrix,
                max_group_size=max_group_size,
            )
            scored = [(score, 0.0, [score]) for score, _history in outcomes]
        per_request_seconds = (time.perf_counter() - start) / len(requests)

        reports = []
        for request, (accuracy, accuracy_std, fold_accuracies) in zip(requests, scored):
            report = WorkerReport(worker_name=self.name)
            report.parameter_count = spec.parameter_count
            report.accuracy = accuracy
            report.accuracy_std = accuracy_std
            report.train_seconds = per_request_seconds
            report.extras["fold_accuracies"] = list(fold_accuracies)
            if self.measure_gpu:
                try:
                    model = GPUPerformanceModel(self.gpu)
                    report.gpu_metrics = model.evaluate(
                        spec, batch_size=request.genome.gpu_batch_size
                    )
                except Exception as exc:  # noqa: BLE001
                    report.error = f"GPU model failed: {exc}"
            reports.append(report)
        return reports


register_worker("simulation", SimulationWorker, aliases=("sim",))
