"""The master process: orchestrates workers and merges their reports.

Section III-A: *"The Worker returns the raw evaluation information to a Master
process.  The Master process orchestrates the evaluation process by
distributing the co-design population and by evaluating the results."*

The :class:`Master` owns a set of workers (simulation, hardware database,
physical), fans each candidate's evaluation out to all of them through an
execution backend, and merges the individual
:class:`~repro.workers.base.WorkerReport` records into a single
:class:`~repro.core.candidate.CandidateEvaluation` the engine and fitness
functions consume.  It is also a plain callable ``genome -> CandidateEvaluation``
so it plugs directly into the engine's ``evaluator`` slot.

Two entry points are offered:

* :meth:`evaluate` (also ``__call__``) — one candidate: its worker reports
  are fanned out through the backend and merged on return.  The engine's
  pipeline calls it from several threads at once when ``eval_parallelism``
  is above 1, so the backend must also absorb concurrent ``map`` calls.
* :meth:`evaluate_batch` — a chunk of candidates, so workers that fuse work
  across candidates (batched training) amortize it.  The engine calls it
  for chunks of ``eval_batch_size``.  On a pool of
  processes the chunk goes out as up to pool-size tasks, split between
  same-topology groups and balanced by estimated training cost, so one chunk
  keeps every pool process busy; every other backend runs it as one task.
  Inside a task the workers run serially — nesting backend dispatch inside
  backend tasks would let the outer tasks starve the pool and deadlock it.

Every search (the engine and ``RandomSearch``) reaches both through the
engine's :class:`~repro.core.engine.ChunkEvaluator`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from functools import partial

from ..core.candidate import CandidateEvaluation
from ..core.genome import CoDesignGenome
from ..datasets.base import Dataset
from ..nn.training import TrainingConfig
from .backends import ExecutionBackend, process_pool_of, resolve_backend
from .base import EvaluationRequest, Worker, WorkerReport

__all__ = ["Master"]


def _evaluate_worker(worker: Worker, request: EvaluationRequest) -> WorkerReport:
    """Run one worker on one request (module-level so process pools can pickle it)."""
    return worker.evaluate(request.materialize())


# Only perfbench still uses this: its span targets patch it by name.
def _run_workers_serial(task: tuple[list[Worker], EvaluationRequest]) -> tuple[list[WorkerReport], float]:
    """Evaluate every worker for one request on the current thread/process."""
    workers, request = task
    start = time.perf_counter()
    request = request.materialize()
    reports = [worker.evaluate(request) for worker in workers]
    return reports, time.perf_counter() - start


def _run_workers_serial_batch(
    task: tuple[list[Worker], list[EvaluationRequest]],
) -> tuple[list[list[WorkerReport]], float]:
    """Evaluate every worker for a whole batch of requests in one task.

    Each worker sees the full batch through :meth:`Worker.evaluate_batch`, so
    workers that fuse work across candidates (batched GEMM training)
    amortize it here.  Returns one report list
    per request, in request order, plus the total elapsed wall clock.
    """
    workers, requests = task
    if not requests:
        return [], 0.0
    start = time.perf_counter()
    requests = [request.materialize() for request in requests]
    per_worker = [worker.evaluate_batch(requests) for worker in workers]
    reports_per_request = [list(reports) for reports in zip(*per_worker)]
    return reports_per_request, time.perf_counter() - start


class Master:
    """Distributes candidate evaluations to workers and merges their reports.

    Parameters
    ----------
    workers:
        The workers to consult for every candidate.  Order does not matter;
        reports are merged field-wise (last non-None wins per field, errors
        are concatenated).
    dataset:
        Dataset attached to every evaluation request.
    evaluation_protocol / num_folds:
        The accuracy-evaluation protocol ("1-fold" or "10-fold").
    training_config:
        Per-candidate training hyperparameters.
    backend:
        Execution backend ("serial", "threads", "processes" or an instance)
        used to fan one candidate's worker reports out (:meth:`evaluate`)
        and to run chunks as tasks (:meth:`evaluate_batch`).
    max_workers:
        Pool size handed to the backend when it is resolved from a name
        (ignored when an :class:`ExecutionBackend` instance is passed).
    seed:
        Base seed; each request derives its own seed from the genome hash so
        repeated evaluations of the same genome are reproducible.
    """

    def __init__(
        self,
        workers: list[Worker],
        dataset: Dataset | None = None,
        evaluation_protocol: str = "1-fold",
        num_folds: int = 10,
        training_config: TrainingConfig | None = None,
        backend: str | ExecutionBackend | None = None,
        max_workers: int = 4,
        seed: int | None = 0,
    ) -> None:
        if not workers:
            raise ValueError("the master needs at least one worker")
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.workers = list(workers)
        self.dataset = dataset
        self.evaluation_protocol = evaluation_protocol
        self.num_folds = num_folds
        self.training_config = training_config or TrainingConfig()
        self.max_workers = int(max_workers)
        self.backend = resolve_backend(backend, max_workers=self.max_workers)
        self.seed = seed
        # Lazily-created shared-memory export of the dataset (processes backend
        # only): requests then ship a tiny handle instead of the arrays.
        self._shared_dataset = None
        self._shared_lock = threading.Lock()

    # ------------------------------------------------------------- requests
    def _shared_handle(self):
        """Handle of the shared-memory dataset export, or None.

        Only a process pool pays a per-request serialization cost for the
        dataset, so only it gets the shared-memory path, also when it is
        reached through a non-owning wrapper (the arena's and the service's
        shared pools); serial and thread backends share the dataset object
        directly.
        """
        if self.dataset is None or process_pool_of(self.backend) is None:
            return None
        with self._shared_lock:
            if self._shared_dataset is None:
                from ..datasets.shared import SharedDataset

                self._shared_dataset = SharedDataset(self.dataset)
            return self._shared_dataset.handle

    def build_request(self, genome: CoDesignGenome) -> EvaluationRequest:
        """Build the evaluation request for one genome."""
        derived_seed = None
        if self.seed is not None:
            derived_seed = (self.seed + int(genome.cache_key()[:8], 16)) % (2**32)
        shared_handle = self._shared_handle()
        return EvaluationRequest(
            genome=genome,
            dataset=self.dataset if shared_handle is None else None,
            evaluation_protocol=self.evaluation_protocol,
            num_folds=self.num_folds,
            training_config=self.training_config,
            seed=derived_seed,
            shared_dataset=shared_handle,
        )

    # ------------------------------------------------------------ evaluation
    def evaluate(self, genome: CoDesignGenome) -> CandidateEvaluation:
        """Evaluate one candidate, fanning its worker reports out through the
        backend, and merge them."""
        request = self.build_request(genome)
        start = time.perf_counter()
        reports = self.backend.map(partial(_evaluate_worker, request=request), self.workers)
        elapsed = time.perf_counter() - start
        return self._merge(genome, reports, elapsed)

    # The engine expects a plain callable evaluator.
    __call__ = evaluate

    def evaluate_batch(self, genomes: list[CoDesignGenome]) -> list[CandidateEvaluation]:
        """Evaluate a batch of candidates, in input order.

        The batch runs through :meth:`Worker.evaluate_batch` on each worker,
        so same-topology candidates share fused training and hardware sweeps.
        On a pool of two or more processes the batch is sent as up to
        pool-size tasks (see :meth:`_batch_parts`), each a whole number of
        same-topology groups; any other backend, and a single-topology batch,
        gets one task.  Every task finishes before the call returns; if any
        failed, the first failed task's error is then raised.  A candidate's
        ``evaluation_seconds`` is its own task's wall clock split evenly
        across that task's candidates.
        """
        genomes = list(genomes)
        if not genomes:
            return []
        requests = [self.build_request(genome) for genome in genomes]
        parts = self._batch_parts(genomes)
        futures = []
        try:
            for part in parts:
                task = (self.workers, [requests[position] for position in part])
                futures.append(self.backend.submit(_run_workers_serial_batch, task))
        finally:
            # Wait for every submitted part, even after a failed submit or
            # part, so no task is still running once this call returns.
            wait(futures)
        evaluations: list[CandidateEvaluation | None] = [None] * len(genomes)
        for part, future in zip(parts, futures):
            reports_per_request, elapsed = future.result()
            per_candidate = elapsed / len(part)
            for position, reports in zip(part, reports_per_request):
                evaluations[position] = self._merge(genomes[position], reports, per_candidate)
        return evaluations  # type: ignore[return-value]

    def _batch_parts(self, genomes: list[CoDesignGenome]) -> list[list[int]]:
        """Split a batch into the input positions of each backend task.

        One part holding the whole batch, unless the backend is a pool of
        two or more processes and the batch has more than one topology.
        Then same-topology groups stay whole, so workers still fuse each
        one, and are dealt to at most pool-size parts: largest estimated
        cost (group size x parameter count) first, each to the part with
        the least cost so far.  Each part lists its positions in input
        order.
        """
        whole = [list(range(len(genomes)))]
        pool = process_pool_of(self.backend)
        if pool is None or pool.max_workers < 2 or self.dataset is None:
            return whole
        groups: dict = {}
        for position, genome in enumerate(genomes):
            spec = genome.mlp.to_spec(self.dataset.num_features, self.dataset.num_classes)
            groups.setdefault(spec, []).append(position)
        if len(groups) < 2:
            return whole
        costed = sorted(
            ((len(positions) * spec.parameter_count, positions) for spec, positions in groups.items()),
            key=lambda item: -item[0],
        )
        parts: list[list[int]] = [[] for _ in range(min(pool.max_workers, len(groups)))]
        costs = [0] * len(parts)
        for cost, positions in costed:
            lightest = costs.index(min(costs))
            parts[lightest].extend(positions)
            costs[lightest] += cost
        return [sorted(part) for part in parts]

    # --------------------------------------------------------------- merging
    def _merge(
        self, genome: CoDesignGenome, reports: list[WorkerReport], elapsed: float
    ) -> CandidateEvaluation:
        accuracy = 0.0
        accuracy_std = 0.0
        parameter_count = 0
        train_seconds = 0.0
        fpga_metrics = None
        gpu_metrics = None
        synthesis = None
        errors: list[str] = []
        extras: dict = {}

        for report in reports:
            if report.accuracy is not None:
                accuracy = report.accuracy
                accuracy_std = report.accuracy_std or 0.0
            if report.parameter_count is not None:
                parameter_count = report.parameter_count
            if report.fpga_metrics is not None:
                fpga_metrics = report.fpga_metrics
            if report.gpu_metrics is not None:
                gpu_metrics = report.gpu_metrics
            if report.synthesis is not None:
                synthesis = report.synthesis
            train_seconds += report.train_seconds
            if report.error:
                errors.append(f"{report.worker_name}: {report.error}")
            if report.extras:
                extras[report.worker_name] = dict(report.extras)

        return CandidateEvaluation(
            genome=genome,
            accuracy=accuracy,
            accuracy_std=accuracy_std,
            parameter_count=parameter_count,
            fpga_metrics=fpga_metrics,
            gpu_metrics=gpu_metrics,
            synthesis=synthesis,
            train_seconds=train_seconds,
            evaluation_seconds=elapsed,
            error="; ".join(errors),
            extras=extras,
        )

    def shutdown(self) -> None:
        """Release the execution backend (waiting for its in-flight tasks)."""
        self.backend.shutdown()
        # Unlink shared-memory segments only after the pool is gone, so no
        # child can race an unlinked segment on first attach.
        with self._shared_lock:
            shared, self._shared_dataset = self._shared_dataset, None
        if shared is not None:
            shared.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        worker_names = ", ".join(worker.name for worker in self.workers)
        return f"Master(workers=[{worker_names}], backend={self.backend.name})"
