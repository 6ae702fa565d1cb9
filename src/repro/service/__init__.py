"""Long-lived co-design job service (``ecad serve``).

Batch runs pay process start-up, dataset preparation and worker-pool spin-up
on every invocation; the service keeps all of that warm and exposes the
co-design search over a small JSON HTTP API — standard library only
(:mod:`http.server`, :mod:`sqlite3`, :mod:`urllib`), no new dependencies.

Layers, bottom to top:

* :mod:`~repro.service.jobs` — crash-safe SQLite job queue and frontier
  event log; per-stage checkpoints ride on the experiment layer's
  :class:`~repro.experiment.artifacts.RunArtifact` files, so a killed server
  resumes in-flight jobs bit-identically.
* :mod:`~repro.service.runtime` — warm singletons (shared execution
  backend, shared evaluation store, prepared-dataset cache) and the
  bounded-concurrency job scheduler.
* :mod:`~repro.service.http` / :mod:`~repro.service.app` — stdlib JSON
  HTTP machinery and the :class:`CoDesignService` that wires the API onto
  the queue and runtime.
* :mod:`~repro.service.client` — urllib client used by the ``ecad
  submit / jobs / result / cancel`` CLI verbs.
"""

from .app import CoDesignService
from .client import ServiceClient
from .jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    FrontierEvent,
    JobQueue,
    JobRecord,
    deterministic_result_digest,
)
from .runtime import ServiceRuntime, normalize_job_spec

__all__ = [
    "CoDesignService",
    "ServiceClient",
    "JobQueue",
    "JobRecord",
    "FrontierEvent",
    "JOB_STATES",
    "TERMINAL_STATES",
    "deterministic_result_digest",
    "ServiceRuntime",
    "normalize_job_spec",
]
