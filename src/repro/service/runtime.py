"""Warm state and job execution for the co-design service.

A batch ``ecad run`` pays process start-up, dataset preparation and worker-pool
spin-up on every invocation and throws the warm state away.
:class:`ServiceRuntime` keeps that state alive across jobs:

* **one execution backend** — a single warm thread/process pool shared by every
  job's master (wrapped in :class:`~repro.workers.backends.NonOwningBackend`
  so per-search shutdowns cannot tear it down);
* **one evaluation store** — a process-wide
  :class:`~repro.store.EvaluationStore` read through / written behind by all
  jobs, so work done for one tenant answers another's repeated candidates;
* **the prepared-dataset cache** — :mod:`repro.datasets.prepared` memoizes
  standardization per process, so consecutive jobs on the same dataset skip
  preparation entirely;
* **a bounded scheduler** — ``max_concurrent_jobs`` worker threads drain the
  :class:`~repro.service.jobs.JobQueue`, execute each job through
  :class:`~repro.experiment.runner.ExperimentRunner` (whose per-cell
  ``RunArtifact`` files are the crash-safe checkpoints), stream frontier
  updates into the queue's event log, and honour cancellation between
  evaluations.
"""

from __future__ import annotations

import threading
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable

from ..core.callbacks import Callback
from ..core.errors import ConfigurationError, ServiceError
from ..core.frontier import FrontierArchive
from ..core.objectives import build_objective_vector
from ..experiment import ExperimentRunner, ExperimentSpec, StopExperiment
from ..workers.backends import NonOwningBackend, resolve_backend
from .jobs import JobQueue, JobRecord, deterministic_result_digest

__all__ = ["ServiceRuntime", "normalize_job_spec"]


def normalize_job_spec(body: dict) -> tuple[dict, str]:
    """Turn a ``POST /jobs`` body into a validated ExperimentSpec dict.

    Three shapes are accepted:

    * ``{"spec": {...}}`` — a full experiment grid, verbatim;
    * ``{"run": {"dataset": ..., ...}}`` — single-search shorthand, normalized
      into a one-cell spec: ``objective`` and ``seed`` scalars become the
      grid axes, spec-level keys (``backend``, ``store_path``, ...) pass
      through, and anything else (``population_size``,
      ``optimization.max_latency_us``, ...) lands in the spec's dotted-key
      configuration ``overrides``;
    * ``{"scenario": {"pack": ..., "strategies": [...], "seeds": [...]}}`` —
      one arena scenario tournament, lowered through
      :meth:`~repro.scenarios.packs.ScenarioPack.to_spec` into the grid whose
      objective axis is the strategy-prefixed form; ``store_path``,
      ``warm_start``, ``eval_parallelism`` and ``run_parallelism`` pass
      through (the warm service pool replaces the backend either way).

    Returns ``(spec_dict, name)``.  Raises :class:`ServiceError` on malformed
    payloads so the HTTP layer can answer 400.
    """
    name = str(body.get("name", "") or "")
    spec_body = body.get("spec")
    run_body = body.get("run")
    scenario_body = body.get("scenario")
    provided = [shape for shape in (spec_body, run_body, scenario_body) if shape is not None]
    if len(provided) != 1:
        raise ServiceError("job payload needs exactly one of 'spec', 'run' or 'scenario'")
    if scenario_body is not None:
        if not isinstance(scenario_body, dict):
            raise ServiceError("'scenario' must be a JSON object")
        # Imported lazily: repro.scenarios imports the experiment machinery,
        # not the service, so the dependency stays one-way.
        from ..scenarios import get_scenario

        scenario = dict(scenario_body)
        pack_name = str(scenario.pop("pack", "") or "")
        if not pack_name:
            raise ServiceError("'scenario.pack' is required")
        strategies = tuple(str(s) for s in scenario.pop("strategies", ()) or ())
        if not strategies:
            from ..core.strategy import arena_strategies

            strategies = tuple(arena_strategies())
        seeds = tuple(int(s) for s in scenario.pop("seeds", (0,)) or (0,))
        passthrough = {
            key: scenario.pop(key)
            for key in ("store_path", "warm_start", "eval_parallelism", "run_parallelism")
            if key in scenario
        }
        if scenario:
            raise ServiceError(
                f"unknown scenario job key(s): {', '.join(sorted(map(repr, scenario)))}"
            )
        try:
            pack = get_scenario(pack_name)
            spec = pack.to_spec(
                strategies,
                seeds=seeds,
                name=name or f"arena-{pack.key}",
                store_path=str(passthrough.get("store_path", "")),
                warm_start=int(passthrough.get("warm_start", 0)),
                eval_parallelism=int(passthrough.get("eval_parallelism", 1)),
                run_parallelism=int(passthrough.get("run_parallelism", 1)),
            )
        except ConfigurationError as exc:
            raise ServiceError(f"invalid scenario job: {exc}") from exc
        return spec.to_dict(), name or spec.name
    if spec_body is None:
        if not isinstance(run_body, dict):
            raise ServiceError("'run' must be a JSON object")
        run = dict(run_body)
        dataset = str(run.pop("dataset", "") or "")
        if not dataset:
            raise ServiceError("'run.dataset' is required")
        run_name = run.pop("name", "") or name or f"run-{dataset}"
        objective = str(run.pop("objective", "codesign"))
        seed = int(run.pop("seed", 0))
        spec_keys = {spec_field.name for spec_field in fields(ExperimentSpec)}
        overrides = dict(run.pop("overrides", {}) or {})
        overrides.update(
            {key: run.pop(key) for key in list(run) if key not in spec_keys}
        )
        spec_body = {
            "name": run_name,
            "datasets": [dataset],
            "objectives": [objective],
            "seeds": [seed],
            **run,
        }
        if overrides:
            spec_body["overrides"] = overrides
    if not isinstance(spec_body, dict):
        raise ServiceError("'spec' must be a JSON object")
    try:
        spec = ExperimentSpec.from_dict(spec_body)
    except ConfigurationError as exc:
        raise ServiceError(f"invalid job spec: {exc}") from exc
    return spec.to_dict(), name or spec.name


class _FrontierPublisher(Callback):
    """Engine callback that streams frontier growth into the job queue.

    Maintains its own :class:`FrontierArchive` over the cell's configured
    objectives; every evaluation that changes the frontier is appended to the
    queue's event log, which ``GET /jobs/{id}/frontier?since=N`` long-polls.
    """

    def __init__(self, queue: JobQueue, job_id: str, run_id: str, config) -> None:
        self._queue = queue
        self._job_id = job_id
        self._run_id = run_id
        self._archive = FrontierArchive(
            objectives=config.optimization.to_fitness_objectives(),
            constraints=config.optimization.to_constraints(),
        )

    def on_evaluation(self, evaluation, fitness, step) -> None:
        vector = fitness.vector if fitness is not None else None
        if vector is not None and list(vector.names) != self._archive.objective_names:
            vector = None  # scored under different objectives (e.g. NSGA-II rank)
        if vector is None and not evaluation.failed:
            vector = build_objective_vector(
                evaluation, self._archive.objectives, self._archive.constraints
            )
        if not self._archive.observe(evaluation, step=step, vector=vector):
            return
        self._queue.append_frontier_event(
            self._job_id,
            self._run_id,
            {
                "step": int(step),
                "frontier_size": len(self._archive),
                "evaluations_seen": self._archive.evaluations_seen,
                "member": {**vector.as_dict(), **evaluation.summary()},
            },
        )


class _CancellationCheck(Callback):
    """Engine callback that stops a search when its job should stop."""

    def __init__(self, should_stop: Callable[[], bool], job_id: str) -> None:
        self._should_stop = should_stop
        self._job_id = job_id

    def on_evaluation(self, evaluation, fitness, step) -> None:
        if self._should_stop():
            raise StopExperiment(f"job {self._job_id} stopped at step {step}")


class ServiceRuntime:
    """Owns the warm singletons and drains the job queue.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.ServiceConfig` the server was started
        with.
    queue:
        The durable job queue (shared with the HTTP layer).
    printer:
        Optional progress callable; ``None`` keeps the runtime silent.
    """

    def __init__(self, config, queue: JobQueue, printer=None) -> None:
        self.config = config
        self.queue = queue
        self._printer = printer
        self.started_at = time.time()
        self._stop_event = threading.Event()
        self._threads: list[threading.Thread] = []
        # Warm singletons: one pool, one store, shared by every job.
        self._pool = resolve_backend(config.backend, max_workers=config.eval_workers)
        self.backend = NonOwningBackend(self._pool)
        self.store = None
        if config.store_path:
            from ..store import EvaluationStore

            self.store = EvaluationStore(
                config.store_path, shards=config.store_shards
            )
        # Cumulative counters aggregated from completed cell artifacts.
        self._metrics_lock = threading.Lock()
        self._counters = {
            "cells_completed": 0,
            "cells_failed": 0,
            "models_generated": 0,
            "models_evaluated": 0,
            "cache_hits": 0,
            "store_hits": 0,
            "store_misses": 0,
            "total_evaluation_seconds": 0.0,
            "busy_seconds": 0.0,
            "surrogate_screened": 0,
            "real_evals_saved": 0,
            "rung_evaluations": 0,
        }

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Recover interrupted jobs and start the scheduler threads."""
        recovered = self.queue.recover_interrupted()
        for job in recovered:
            self._log(f"[{job.job_id}] re-queued after unclean shutdown (resumes from checkpoint)")
        for index in range(self.config.max_concurrent_jobs):
            thread = threading.Thread(
                target=self._worker_loop, daemon=True, name=f"ecad-job-worker-{index}"
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop: running jobs re-queue at their next checkpoint."""
        self._stop_event.set()
        with self.queue.changed:
            self.queue.changed.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._pool.shutdown()
        if self.store is not None:
            self.store.close()

    @property
    def stopping(self) -> bool:
        """Whether a stop has been requested."""
        return self._stop_event.is_set()

    # ------------------------------------------------------------ scheduler
    def _worker_loop(self) -> None:
        while not self._stop_event.is_set():
            job = self.queue.claim_next()
            if job is None:
                with self.queue.changed:
                    if self._stop_event.is_set():
                        return
                    self.queue.changed.wait(timeout=0.5)
                continue
            try:
                self._execute_job(job)
            except Exception as exc:  # noqa: BLE001 - a broken job must not kill the worker
                self.queue.mark_failed(job.job_id, f"{type(exc).__name__}: {exc}")
                self._log(f"[{job.job_id}] FAILED: {exc}")

    def job_output_dir(self, job_id: str) -> Path:
        """Artifact directory of one job."""
        return Path(self.config.data_dir) / "jobs" / job_id

    def _execute_job(self, job: JobRecord) -> None:
        """Run one claimed job end to end, streaming progress into the queue."""
        spec = ExperimentSpec.from_dict(job.spec)
        output_dir = Path(job.output_dir) if job.output_dir else self.job_output_dir(job.job_id)
        job_id = job.job_id

        def should_stop() -> bool:
            return self._stop_event.is_set() or self.queue.cancel_requested(job_id)

        def callback_factory(cell, config):
            return [
                _FrontierPublisher(self.queue, job_id, cell.run_id, config),
                _CancellationCheck(should_stop, job_id),
            ]

        def on_cell_complete(cell, artifact):
            self._record_cell(job_id, cell.run_id, artifact)

        runner = ExperimentRunner(
            spec,
            output_dir=output_dir,
            printer=self._printer,
            store=self.store,
            backend=self.backend,
            callback_factory=callback_factory,
            on_cell_complete=on_cell_complete,
            stop=should_stop,
        )
        # Crash-recovery hygiene: cells without a reusable checkpoint re-run
        # and re-stream their frontier trail, so drop their stale events and
        # surface the checkpointed cells as already-completed stages.
        completed_ids: set[str] = set()
        for cell in spec.cells():
            saved = runner.saved_artifact(cell)
            if saved is not None:
                completed_ids.add(cell.run_id)
        self.queue.drop_frontier_events(job_id, keep_run_ids=completed_ids)
        self.queue.record_progress(job_id, total_cells=spec.grid_size)
        for cell in spec.cells():
            if cell.run_id in completed_ids:
                saved = runner.saved_artifact(cell)
                self.queue.record_progress(
                    job_id, run_id=cell.run_id, stage=self._stage_summary(saved)
                )
        self._log(
            f"[{job_id}] running experiment {spec.name!r} "
            f"({spec.grid_size} cells, {len(completed_ids)} checkpointed)"
        )

        try:
            report = runner.run(resume=True)
        except StopExperiment:
            if self.queue.cancel_requested(job_id):
                self.queue.mark_cancelled(job_id)
                self._log(f"[{job_id}] cancelled")
            else:
                # Server shutdown: back to the queue; checkpoints make the
                # next attempt resume where this one stopped.
                self.queue.requeue(job_id)
                self._log(f"[{job_id}] re-queued (server stopping)")
            return

        report_data = report.to_dict()
        result = {
            "name": spec.name,
            "output_dir": str(output_dir),
            "grid_size": spec.grid_size,
            "completed_cells": len(report.completed),
            "failed_cells": len(report.failed),
            "result_digest": deterministic_result_digest(report_data),
            "report": report_data,
        }
        if report.failed:
            failed_ids = ", ".join(artifact.run_id for artifact in report.failed)
            self.queue.mark_failed(job_id, f"cell(s) failed: {failed_ids}", result=result)
            self._log(f"[{job_id}] finished with {len(report.failed)} failed cell(s)")
        else:
            self.queue.mark_done(job_id, result)
            self._log(f"[{job_id}] done ({len(report.completed)} cells)")

    # -------------------------------------------------------------- metrics
    @staticmethod
    def _stage_summary(artifact) -> dict:
        stage = {
            "status": artifact.status,
            "best_accuracy": artifact.best_accuracy,
            "wall_clock_seconds": artifact.wall_clock_seconds,
            "error": artifact.error,
        }
        statistics = artifact.statistics or {}
        # Surrogate-strategy cells surface their screen counters so
        # ``ecad jobs`` can show how much real work the screen avoided.
        if statistics.get("surrogate_screened"):
            stage["surrogate_screened"] = int(statistics["surrogate_screened"])
            stage["real_evals_saved"] = int(statistics.get("real_evals_saved", 0))
        return stage

    def _record_cell(self, job_id: str, run_id: str, artifact) -> None:
        self.queue.record_progress(job_id, run_id=run_id, stage=self._stage_summary(artifact))
        statistics = artifact.statistics or {}
        with self._metrics_lock:
            counters = self._counters
            if artifact.completed:
                counters["cells_completed"] += 1
            else:
                counters["cells_failed"] += 1
            counters["models_generated"] += int(statistics.get("models_generated", 0))
            counters["models_evaluated"] += int(statistics.get("models_evaluated", 0))
            counters["cache_hits"] += int(statistics.get("cache_hits", 0))
            counters["store_hits"] += int(statistics.get("store_hits", 0))
            counters["store_misses"] += int(statistics.get("store_misses", 0))
            counters["total_evaluation_seconds"] += float(
                statistics.get("total_evaluation_seconds", 0.0)
            )
            counters["busy_seconds"] += float(artifact.wall_clock_seconds)
            counters["surrogate_screened"] += int(statistics.get("surrogate_screened", 0))
            counters["real_evals_saved"] += int(statistics.get("real_evals_saved", 0))
            counters["rung_evaluations"] += int(statistics.get("rung_evaluations", 0))

    def metrics(self) -> dict:
        """The ``GET /metrics`` payload: queue depth, throughput, store health."""
        counts = self.queue.counts()
        with self._metrics_lock:
            counters = dict(self._counters)
        busy = counters.pop("busy_seconds")
        evaluations_per_second = (
            counters["models_evaluated"] / busy if busy > 1e-9 else 0.0
        )
        store_lookups = counters["store_hits"] + counters["store_misses"]
        return {
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": counts["queued"],
            "running_jobs": counts["running"],
            "jobs": counts,
            "evaluations_per_second": evaluations_per_second,
            "store_hit_rate": (
                counters["store_hits"] / store_lookups if store_lookups else 0.0
            ),
            "store_enabled": self.store is not None,
            "backend": self.backend.name,
            "eval_workers": self.config.eval_workers,
            "max_concurrent_jobs": self.config.max_concurrent_jobs,
            **counters,
        }

    def _log(self, message: str) -> None:
        if self._printer is not None:
            self._printer(message)
