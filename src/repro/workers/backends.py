"""Execution backends: how the master fans worker calls out.

The original ECAD system distributes candidate evaluation across machines (the
master "orchestrates the evaluation process by distributing the co-design
population").  This module abstracts the dispatch mechanism so the same master
can run:

* **serially** in-process (deterministic, best for tests and small searches),
* **in a thread pool** (overlaps numpy training compute, which releases the
  GIL inside BLAS, with model evaluation; best-effort parallelism on one
  machine),
* **in a process pool** (true multi-core parallelism; work functions and
  their arguments must be picklable).  Each pool process caps its OpenBLAS
  at ``usable CPUs // pool size`` threads (see :func:`cap_blas_threads`), so
  the pool does not run more BLAS threads than there are cores.

Every backend presents the same futures-based interface: ``submit`` schedules
one work item and returns a :class:`concurrent.futures.Future`,
``as_completed`` yields finished futures in completion order, and ``map`` is a
batch convenience built on top of ``submit`` that preserves input order.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import as_completed as _futures_as_completed
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from ..registry import Registry

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "NonOwningBackend",
    "process_pool_of",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "usable_cpus",
    "pool_blas_threads",
    "cap_blas_threads",
]

logger = logging.getLogger(__name__)

RequestT = TypeVar("RequestT")
ResultT = TypeVar("ResultT")

#: Factories accepted by :func:`resolve_backend`: ``(max_workers) -> backend``.
BACKENDS: Registry[Callable[[int], "ExecutionBackend"]] = Registry("execution backend")


class ExecutionBackend:
    """Base class: schedules work items and exposes their futures."""

    name: str = "backend"

    def submit(self, function: Callable[[RequestT], ResultT], item: RequestT) -> "Future[ResultT]":
        """Schedule ``function(item)`` and return its future."""
        raise NotImplementedError

    def as_completed(
        self, futures: Iterable["Future[ResultT]"], timeout: float | None = None
    ) -> Iterator["Future[ResultT]"]:
        """Yield futures as they finish (completion order, not submission order)."""
        return _futures_as_completed(list(futures), timeout=timeout)

    def map(self, function: Callable[[RequestT], ResultT], items: Sequence[RequestT]) -> list[ResultT]:
        """Apply ``function`` to every item, preserving order."""
        futures = [self.submit(function, item) for item in items]
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        """Release any resources held by the backend (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()


class SerialBackend(ExecutionBackend):
    """Evaluates work items one at a time on the calling thread.

    ``submit`` runs the work item eagerly and returns an already-resolved
    future, so code written against the futures API behaves identically
    (including exception propagation through ``Future.result``) without any
    concurrency.
    """

    name = "serial"

    def submit(self, function: Callable[[RequestT], ResultT], item: RequestT) -> "Future[ResultT]":
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(function(item))
        except Exception as exc:  # noqa: BLE001 - mirrored into the future, as executors do
            future.set_exception(exc)
        return future

    def map(self, function: Callable[[RequestT], ResultT], items: Sequence[RequestT]) -> list[ResultT]:
        return [function(item) for item in items]


class _ExecutorBackend(ExecutionBackend):
    """Shared plumbing for backends built on ``concurrent.futures`` executors."""

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = int(max_workers)
        self._executor = None
        self._executor_lock = threading.Lock()

    def _create_executor(self):
        raise NotImplementedError

    def _ensure_executor(self):
        # submit/map may be called from many threads at once (the engine's
        # pipeline evaluates chunks concurrently), so lazy creation
        # must not race and leak extra pools.
        with self._executor_lock:
            if self._executor is None:
                self._executor = self._create_executor()
            return self._executor

    def submit(self, function: Callable[[RequestT], ResultT], item: RequestT) -> "Future[ResultT]":
        return self._ensure_executor().submit(function, item)

    def map(self, function: Callable[[RequestT], ResultT], items: Sequence[RequestT]) -> list[ResultT]:
        return list(self._ensure_executor().map(function, items))

    def shutdown(self) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


class ThreadPoolBackend(_ExecutorBackend):
    """Evaluates work items concurrently on a bounded thread pool.

    Numpy's BLAS kernels release the GIL, so candidate training and hardware
    modeling overlap reasonably well across threads on a multi-core machine.
    """

    name = "thread_pool"

    def _create_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.max_workers)


#: Memory map of the calling process, read to find the loaded BLAS libraries.
_PROC_MAPS = "/proc/self/maps"

#: Thread-count setters exported by OpenBLAS builds, tried in this order:
#: plain, 64-bit-integer interface, and the ``scipy_openblas`` wheels'
#: prefixed names (numpy 2.x ships the last).
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def pool_blas_threads(max_workers: int) -> int:
    """BLAS threads per pool process: the usable CPUs shared among the pool."""
    return max(1, usable_cpus() // max_workers)


def _loaded_openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process, in map order."""
    paths: list[str] = []
    with open(_PROC_MAPS, encoding="utf-8", errors="replace") as maps:
        for line in maps:
            fields = line.split(maxsplit=5)
            if len(fields) == 6:
                path = fields[5].rstrip("\n")
                if "openblas" in os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    return paths


def cap_blas_threads(threads: int) -> bool:
    """Cap every loaded OpenBLAS at ``threads`` threads; return whether any was.

    Run in each pool process by :class:`ProcessPoolBackend`.  It must act on
    the library already loaded: ``OPENBLAS_NUM_THREADS`` is read only when
    OpenBLAS loads, which under ``fork`` happened in the parent.  A process
    with no recognised setter (MKL, BLIS, Accelerate, no ``/proc``) keeps its
    BLAS default and logs one INFO record naming the cap it missed.
    """
    import numpy  # noqa: F401 - loads the BLAS to cap (already loaded under fork)

    capped = False
    try:
        paths = _loaded_openblas_paths()
    except OSError:
        paths = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SETTERS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter(int(threads))
                capped = True
                break
    if not capped:
        logger.info(
            "pool process %d: no known OpenBLAS thread setter is loaded; "
            "could not cap BLAS at %d thread(s)",
            os.getpid(),
            threads,
        )
    return capped


class ProcessPoolBackend(_ExecutorBackend):
    """Evaluates work items on a pool of worker processes.

    Sidesteps the GIL entirely, at the cost of pickling: both the work
    function and its items must be picklable (module-level functions or
    ``functools.partial`` over them; no lambdas or closures).

    Every pool process starts by capping its OpenBLAS at
    :func:`pool_blas_threads` threads, so ``max_workers`` processes share the
    usable CPUs instead of each running one BLAS thread per core.  OpenBLAS
    results depend on its thread count for GEMMs large enough to thread, so
    a pool evaluation equals an in-process one made at the capped count.
    The calling process keeps its own BLAS settings.
    """

    name = "process_pool"

    def _create_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=cap_blas_threads,
            initargs=(pool_blas_threads(self.max_workers),),
        )


class NonOwningBackend(ExecutionBackend):
    """Delegates to a shared backend but never shuts it down.

    Searches treat their backend as owned and call ``shutdown`` when they
    finish.  When several runs share one pool (the arena runner, the job
    service), each run gets a ``NonOwningBackend`` wrapper instead: work is
    delegated to the real pool, ``shutdown`` is a no-op, and whoever created
    the pool remains responsible for tearing it down.
    """

    name = "non_owning"

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner

    def submit(self, function: Callable[[RequestT], ResultT], item: RequestT) -> "Future[ResultT]":
        return self.inner.submit(function, item)

    def as_completed(
        self, futures: Iterable["Future[ResultT]"], timeout: float | None = None
    ) -> Iterator["Future[ResultT]"]:
        return self.inner.as_completed(futures, timeout=timeout)

    def map(self, function: Callable[[RequestT], ResultT], items: Sequence[RequestT]) -> list[ResultT]:
        return self.inner.map(function, items)

    def shutdown(self) -> None:
        """Intentionally a no-op: the shared pool's owner shuts it down."""


def process_pool_of(backend: ExecutionBackend) -> ProcessPoolBackend | None:
    """The :class:`ProcessPoolBackend` behind ``backend``, or None.

    That is ``backend`` itself or, through any number of
    :class:`NonOwningBackend` wrappers (the arena's and the service's shared
    pools), their ``inner`` backend.
    """
    while isinstance(backend, NonOwningBackend):
        backend = backend.inner
    return backend if isinstance(backend, ProcessPoolBackend) else None


register_backend = BACKENDS.register

BACKENDS.register("serial", lambda max_workers=1: SerialBackend(), aliases=("sync", "none"))
BACKENDS.register(
    "threads",
    lambda max_workers=4: ThreadPoolBackend(max_workers=max_workers),
    aliases=("thread", "thread_pool", "threadpool"),
)
BACKENDS.register(
    "processes",
    lambda max_workers=4: ProcessPoolBackend(max_workers=max_workers),
    aliases=("process", "process_pool", "processpool", "procs"),
)


def available_backends() -> list[str]:
    """Canonical names accepted by :func:`resolve_backend`."""
    return BACKENDS.available()


def resolve_backend(
    backend: str | ExecutionBackend | None, max_workers: int = 4
) -> ExecutionBackend:
    """Resolve a backend by registered name or pass an instance through
    unchanged (``max_workers`` is ignored for instances)."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        factory = BACKENDS.resolve(str(backend))
    except KeyError as exc:
        # The registry message already lists what is available and suggests
        # near-miss names; re-raising it verbatim keeps the hint.
        raise ValueError(str(exc.args[0])) from exc
    return factory(max_workers=max_workers)
