"""The store-backed second cache tier.

:class:`StoreBackedCache` is a drop-in
:class:`~repro.core.cache.EvaluationCache` whose misses fall through to a
persistent :class:`~repro.store.store.EvaluationStore` (read-through) and
whose fresh results are queued for batched persistence (write-behind).  The
evaluation pipeline every search runs on talks to the familiar cache
interface and gets durability for free:

* ``lookup_or_reserve`` — in-memory first; on a miss the store is
  consulted and a hit is promoted into the memory tier (and served with
  ``from_cache=True``, exactly like a warm in-memory hit).
* ``complete`` — publish to the memory tier immediately, then enqueue the
  row; the queue is flushed every ``write_batch_size`` entries
  and on :meth:`flush`.  A failing store never fails the search — but it
  must not *lose* rows either: a flush that hits a transient
  :class:`~repro.core.errors.StoreError` (e.g. ``database is locked`` past
  the busy timeout under multi-writer contention) retries with bounded
  backoff, and a batch that still cannot be written is re-queued for the
  next flush instead of being discarded.  Rows are only dropped — and only
  then counted in ``store_statistics.write_errors`` — when the pending
  queue overflows ``max_pending_writes``.

Read-only stores are honoured transparently: lookups read through, writes
stay purely in memory.
"""

from __future__ import annotations

import logging
import threading
import time

from ..core.cache import EvaluationCache
from ..core.candidate import CandidateEvaluation
from ..core.errors import StoreError
from ..core.genome import CoDesignGenome
from .store import EvaluationStore, StoreStatistics

__all__ = ["StoreBackedCache"]

logger = logging.getLogger(__name__)


class StoreBackedCache(EvaluationCache):
    """Two-tier evaluation cache: in-memory LRU over a persistent store.

    Parameters
    ----------
    store:
        The persistent tier.  The cache never closes it; the owner does.
    problem_digest:
        Namespace of the current problem (see
        :func:`repro.store.digest.problem_digest`); all reads and writes are
        scoped to it.
    max_entries:
        Optional bound on the in-memory tier (see
        :class:`~repro.core.cache.EvaluationCache`).
    write_batch_size:
        Flush the write-behind queue every this many fresh evaluations.
    write_retries:
        How many times one flush retries a failing write before re-queueing
        the batch (0 disables retrying within a flush; the batch is still
        re-queued, never silently dropped).
    retry_backoff_seconds:
        Sleep before the first retry; doubles per retry (capped at 2s).
    max_pending_writes:
        Upper bound on the re-queued backlog while the store is unwritable.
        Overflowing rows are dropped oldest-first and counted in
        ``store_statistics.write_errors`` — the only path that loses rows.
    """

    def __init__(
        self,
        store: EvaluationStore,
        problem_digest: str,
        max_entries: int | None = None,
        write_batch_size: int = 16,
        write_retries: int = 3,
        retry_backoff_seconds: float = 0.05,
        max_pending_writes: int = 4096,
    ) -> None:
        super().__init__(max_entries=max_entries)
        if write_batch_size < 1:
            raise ValueError(f"write_batch_size must be >= 1, got {write_batch_size}")
        if write_retries < 0:
            raise ValueError(f"write_retries must be >= 0, got {write_retries}")
        if retry_backoff_seconds < 0:
            raise ValueError(
                f"retry_backoff_seconds must be >= 0, got {retry_backoff_seconds}"
            )
        if max_pending_writes < write_batch_size:
            raise ValueError(
                f"max_pending_writes ({max_pending_writes}) must be >= "
                f"write_batch_size ({write_batch_size})"
            )
        self.backing_store = store
        self.problem_digest = str(problem_digest)
        self.write_batch_size = int(write_batch_size)
        self.write_retries = int(write_retries)
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        self.max_pending_writes = int(max_pending_writes)
        self.store_statistics = StoreStatistics()
        self._stats_lock = threading.Lock()
        self._write_queue: list[CandidateEvaluation] = []
        self._write_lock = threading.Lock()
        # After a fully failed flush, hold off queue-triggered auto-flushes
        # briefly so a down store does not add retry latency to every single
        # fresh evaluation.  Explicit flush() calls always go to the store.
        self._auto_flush_not_before = 0.0

    # ------------------------------------------------------------- lookups
    def lookup_or_reserve(self, genome: CoDesignGenome) -> tuple[CandidateEvaluation | None, bool]:
        """Single-flight lookup with read-through to the persistent store.

        A store hit releases the reservation immediately (publishing the
        stored result to any concurrent waiters), so the caller never
        evaluates a candidate the store already knows.
        """
        cached, owner = super().lookup_or_reserve(genome)
        if not owner:
            return cached, False
        stored = self._load(genome)
        if stored is None:
            return None, True
        # Publish through the base class: waiters wake, memory tier fills,
        # and no write-behind entry is queued for a row the store already has.
        # The hit is already a frozen from_cache record, so the caller and the
        # memory tier share it.
        super().complete(genome, stored)
        return stored, False

    def _load(self, genome: CoDesignGenome) -> CandidateEvaluation | None:
        try:
            stored = self.backing_store.get(self.problem_digest, genome.cache_key(), genome=genome)
        except StoreError as exc:
            logger.warning("evaluation store read failed: %s", exc)
            return None
        # The engine's pipeline calls this from several worker threads.
        with self._stats_lock:
            if stored is None:
                self.store_statistics.misses += 1
            else:
                self.store_statistics.hits += 1
        return stored

    # -------------------------------------------------------------- stores
    def store_evaluation_result(self, evaluation: CandidateEvaluation) -> None:
        """Queue one fresh evaluation for write-behind persistence."""
        if evaluation.failed or evaluation.from_cache or self.backing_store.readonly:
            return
        with self._write_lock:
            self._write_queue.append(evaluation)
            should_flush = (
                len(self._write_queue) >= self.write_batch_size
                and time.monotonic() >= self._auto_flush_not_before
            )
        if should_flush:
            self.flush()

    def complete(self, genome: CoDesignGenome, evaluation: CandidateEvaluation) -> None:
        """Publish an owned evaluation and queue the write-behind row."""
        super().complete(genome, evaluation)
        self.store_evaluation_result(evaluation)

    def flush(self) -> int:
        """Write every queued row to the store now.

        Returns
        -------
        int
            Number of rows persisted by this call.  A transiently failing
            write is retried up to ``write_retries`` times with doubling
            backoff; if every attempt fails the batch is re-queued (oldest
            first, so ordering is preserved) for the next flush and 0 is
            returned.  Rows are lost only when the re-queued backlog would
            exceed ``max_pending_writes`` — the overflow is dropped
            oldest-first and counted in ``store_statistics.write_errors``.
            A broken disk therefore never kills a running search, and a
            transient ``database is locked`` never loses rows.
        """
        with self._write_lock:
            batch = self._write_queue
            self._write_queue = []
        if not batch:
            return 0
        delay = self.retry_backoff_seconds
        last_error: StoreError | None = None
        for attempt in range(self.write_retries + 1):
            if attempt:
                if delay > 0:
                    time.sleep(delay)
                delay = min(delay * 2, 2.0) if delay > 0 else 0.0
                with self._stats_lock:
                    self.store_statistics.write_retries += 1
            try:
                written = self.backing_store.put_many(self.problem_digest, batch)
            except StoreError as exc:
                last_error = exc
                continue
            with self._stats_lock:
                self.store_statistics.writes += written
            with self._write_lock:
                self._auto_flush_not_before = 0.0
            return written
        # Every attempt failed: keep the batch for a later flush instead of
        # dropping it; enforce the backlog cap so a store that stays down
        # cannot grow the queue without bound.
        dropped = 0
        with self._write_lock:
            self._write_queue[:0] = batch
            overflow = len(self._write_queue) - self.max_pending_writes
            if overflow > 0:
                dropped = overflow
                del self._write_queue[:overflow]
            pending = len(self._write_queue)
            self._auto_flush_not_before = time.monotonic() + max(
                8 * self.retry_backoff_seconds, 0.5
            )
        if dropped:
            with self._stats_lock:
                self.store_statistics.write_errors += dropped
        logger.warning(
            "evaluation store write failed after %d attempt(s) "
            "(%d rows re-queued, %d dropped): %s",
            self.write_retries + 1,
            pending,
            dropped,
            last_error,
        )
        return 0

    def pending_writes(self) -> int:
        """Rows queued but not yet persisted (re-queued failures included)."""
        with self._write_lock:
            return len(self._write_queue)

    def clear(self) -> None:
        """Drop the memory tier and the un-flushed write queue (store untouched)."""
        super().clear()
        with self._write_lock:
            self._write_queue = []
