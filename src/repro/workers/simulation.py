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
from ..nn.evaluation import evaluate_kfold, evaluate_kfold_batch, evaluate_single_fold
from ..nn.preprocessing import train_test_split
from .base import EvaluationRequest, Worker, WorkerReport, register_worker

__all__ = ["SimulationWorker"]

logger = logging.getLogger(__name__)

#: A k-fold candidate whose dataset has at most this many feature elements
#: (rows x features, 4 MB of float64) trains its folds as one stacked group;
#: a larger one trains them fold by fold on the scalar trainer.  Stacking
#: pays where each step's GEMMs are small: 10 folds of credit-g and phishing
#: shapes (20-30 features) trained 1.7-2.7x faster, while full-size HAR and
#: Bioresponse shapes (561 and 1776 features) gained 0-11% for 600-850 MB
#: more peak memory, since a stacked chunk of 8 folds holds about two copies
#: of each fold where the scalar loop holds three copies of one.
_FUSED_KFOLD_MAX_ELEMENTS = 1 << 19


class SimulationWorker(Worker):
    """Trains candidates and models the GPU baseline.

    k-fold candidates train their folds as stacked groups.  :meth:`evaluate`
    stacks one candidate's folds when the dataset has at most ``2**19``
    feature elements (rows x features) and trains a larger dataset's folds
    one after another with :func:`~repro.nn.evaluation.evaluate_kfold`, the
    scalar reference; :meth:`evaluate_batch` pools the folds of every
    same-topology candidate in the slice.  Every path gives the scalar
    reference's results bit for bit.

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

        Under the ``"10-fold"`` protocol a dataset of at most ``2**19``
        feature elements has the candidate's folds trained as one stacked
        group (:func:`~repro.nn.evaluation.evaluate_kfold_batch`), which
        gives the same accuracies and errors as the fold-by-fold scalar
        reference :func:`~repro.nn.evaluation.evaluate_kfold`; a larger
        dataset is trained by that reference.  A single fold is trained by
        the scalar trainer, which is faster than a one-member stacked group.
        """
        report = WorkerReport(worker_name=self.name)
        if request.dataset is None:
            report.error = "simulation worker requires a dataset"
            return report

        dataset = request.dataset
        spec = request.genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
        report.parameter_count = spec.parameter_count

        start = time.perf_counter()
        try:
            if request.evaluation_protocol == "10-fold":
                if dataset.features.size <= _FUSED_KFOLD_MAX_ELEMENTS:
                    result = evaluate_kfold_batch(
                        spec,
                        dataset.features,
                        dataset.labels,
                        num_folds=request.num_folds,
                        training_config=request.training_config,
                        seeds=[request.seed],
                    )[0]
                else:
                    result = evaluate_kfold(
                        spec,
                        dataset.features,
                        dataset.labels,
                        num_folds=request.num_folds,
                        training_config=request.training_config,
                        seed=request.seed,
                    )
            else:
                train_x, train_y, test_x, test_y = self._single_fold_partitions(dataset, request.seed)
                result = evaluate_single_fold(
                    spec,
                    train_x,
                    train_y,
                    test_x,
                    test_y,
                    training_config=request.training_config,
                    seed=request.seed,
                )
        except Exception as exc:  # noqa: BLE001 - report, don't crash the master
            report.error = f"training failed: {exc}"
            return report
        report.accuracy = result.accuracy
        report.accuracy_std = result.accuracy_std
        report.train_seconds = time.perf_counter() - start
        report.extras["fold_accuracies"] = list(result.fold_accuracies)

        if self.measure_gpu:
            try:
                model = GPUPerformanceModel(self.gpu)
                report.gpu_metrics = model.evaluate(spec, batch_size=request.genome.gpu_batch_size)
            except Exception as exc:  # noqa: BLE001
                report.error = f"GPU model failed: {exc}"
        return report

    def _single_fold_partitions(self, dataset, seed):
        """Return (train_x, train_y, test_x, test_y) for single-fold evaluation."""
        if dataset.has_test_split:
            return dataset.features, dataset.labels, dataset.test_features, dataset.test_labels
        train_x, test_x, train_y, test_y = train_test_split(
            dataset.features, dataset.labels, test_fraction=self.holdout_fraction, seed=seed
        )
        return train_x, train_y, test_x, test_y

    def _holdout_run(self, dataset, seed):
        """A batched run over the seed's holdout split."""
        return (*self._single_fold_partitions(dataset, seed), seed)

    # ---------------------------------------------------------------- batch
    def evaluate_batch(self, requests: list[EvaluationRequest]) -> list[WorkerReport]:
        """Train a whole population slice with fused GEMM batches.

        Requests are grouped by (dataset, topology, protocol); each group is
        trained through the batched evaluation path, which is bit-identical
        to per-request :meth:`evaluate` at the same seeds.  Preprocessing
        that does not depend on the candidate (the pre-split scaler fit and
        transform) is done once per dataset via
        :func:`~repro.datasets.prepared.prepare_dataset`.  Any group that
        fails the fused path is redone request by request with
        :meth:`evaluate`, so error reports match the single-request path,
        and logs one warning: the fallback costs only speed, so it would
        otherwise hide a fused-path bug.  That retry is not always scalar:
        :meth:`evaluate` still stacks the folds of a small k-fold dataset,
        one candidate at a time.
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
        """Fused evaluation of same-(dataset, spec, protocol) requests."""
        from ..datasets.prepared import prepare_dataset
        from ..nn.evaluation import _fixed_run, _score_runs_batched

        template = requests[0]
        dataset = template.dataset
        spec = template.genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
        seeds = [request.seed for request in requests]

        start = time.perf_counter()
        if template.evaluation_protocol == "10-fold":
            results = evaluate_kfold_batch(
                spec,
                dataset.features,
                dataset.labels,
                num_folds=template.num_folds,
                training_config=template.training_config,
                seeds=seeds,
            )
            scored = [(result.accuracy, result.accuracy_std, result.fold_accuracies) for result in results]
        elif dataset.has_test_split:
            # Candidate-independent preprocessing, done once per dataset per
            # process: the scaler is fitted on the full train split exactly as
            # _train_and_score would, so standardize=False below is bit-safe.
            prepared = prepare_dataset(dataset)
            split = (
                prepared.standardized_features,
                dataset.labels,
                prepared.standardized_test_features,
                dataset.test_labels,
            )
            runs = [(None, partial(_fixed_run, split, seed)) for seed in seeds]
            outcomes = _score_runs_batched(
                spec, runs, template.training_config, standardize=False, max_group_size=8
            )
            scored = [(score, 0.0, [score]) for score, _history in outcomes]
        else:
            # Every holdout split of one dataset has the same shape.
            runs = [(None, partial(self._holdout_run, dataset, seed)) for seed in seeds]
            outcomes = _score_runs_batched(
                spec, runs, template.training_config, standardize=True, max_group_size=8
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
