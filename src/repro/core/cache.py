"""Evaluation cache keyed by genome parameters.

Table III of the paper notes: *"in order to optimize the search and run time
of the system, potential NNA/HW candidates are first analyzed for similarities
to previous evaluations and duplicates are not evaluated twice"* and *"The
ECAD system caches similar configurations and avoids reevaluating them."*

The cache is an in-memory LRU map from the genome's canonical hash to its
:class:`~repro.core.candidate.CandidateEvaluation`.  It also keeps hit/miss
statistics because the run-time table (Table III) distinguishes the number of
models *generated* from the number actually *evaluated*.

The cache is thread-safe, and for the engine's evaluation pipeline it
keeps an **in-flight registry**: :meth:`lookup_or_reserve` lets exactly one
caller own the fresh evaluation of a genome while concurrent callers asking
for the same genome block until that one evaluation completes, instead of
recomputing it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .candidate import CandidateEvaluation
from .genome import CoDesignGenome

__all__ = ["CacheStatistics", "EvaluationCache"]


@dataclass
class CacheStatistics:
    """Hit/miss counters of one cache instance.

    ``coalesced`` counts lookups that were answered by waiting on another
    caller's in-flight evaluation of the same genome; they are also counted
    in ``hits`` (the caller did not evaluate anything itself).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class _InFlightTicket:
    """One pending evaluation: waiters block on the event, the owner publishes.

    The first waiter creates the event, under the cache lock, so an
    uncontended reservation never allocates one.
    """

    __slots__ = ("event", "evaluation")

    def __init__(self) -> None:
        self.event: threading.Event | None = None
        self.evaluation: CandidateEvaluation | None = None


class EvaluationCache:
    """Thread-safe in-memory LRU cache of candidate evaluations.

    Parameters
    ----------
    max_entries:
        Optional bound on the number of stored evaluations.  When exceeded
        the least-recently-used entry is evicted (lookups refresh recency),
        which keeps long searches from growing without limit.  ``None`` means
        unbounded.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive or None, got {max_entries}")
        self._entries: dict[str, CandidateEvaluation] = {}
        self._max_entries = max_entries
        self._lock = threading.RLock()
        self._in_flight: dict[str, _InFlightTicket] = {}
        self.statistics = CacheStatistics()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, genome: CoDesignGenome) -> bool:
        with self._lock:
            return genome.cache_key() in self._entries

    # --------------------------------------------------------------- lookups
    def lookup(self, genome: CoDesignGenome) -> CandidateEvaluation | None:
        """Return the in-memory evaluation for ``genome`` or ``None`` on a miss.

        Cache hits are returned as copies flagged ``from_cache=True`` so the
        run-time statistics can distinguish them from fresh evaluations, and
        refresh the entry's recency (true LRU).  This peeks at the memory
        tier only: searches resolve through :meth:`lookup_or_reserve`, which
        is also the one entry point a store-backed cache reads through.
        """
        key = genome.cache_key()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.statistics.misses += 1
                return None
            # Re-insertion moves the key to the most-recent end of the dict.
            del self._entries[key]
            self._entries[key] = entry
            self.statistics.hits += 1
            return entry.as_cache_copy()

    def lookup_or_reserve(self, genome: CoDesignGenome) -> tuple[CandidateEvaluation | None, bool]:
        """Concurrent-safe lookup with single-flight semantics.

        Returns ``(evaluation, False)`` when the genome is already cached, or
        when another thread is currently evaluating it (the call blocks until
        that evaluation completes and shares its result).  Returns
        ``(None, True)`` when the caller now *owns* the evaluation: it must
        evaluate the genome and then call :meth:`complete` (or
        :meth:`abandon` on an unexpected error) to release the waiters.
        """
        key = genome.cache_key()
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    del self._entries[key]
                    self._entries[key] = entry
                    self.statistics.hits += 1
                    return entry.as_cache_copy(), False
                ticket = self._in_flight.get(key)
                if ticket is None:
                    self.statistics.misses += 1
                    self._in_flight[key] = _InFlightTicket()
                    return None, True
                if ticket.event is None:
                    ticket.event = threading.Event()
                event = ticket.event
            event.wait()
            published = ticket.evaluation
            if published is not None:
                with self._lock:
                    self.statistics.hits += 1
                    self.statistics.coalesced += 1
                return published.as_cache_copy(), False
            # The owner abandoned the evaluation: race to take ownership.

    def complete(self, genome: CoDesignGenome, evaluation: CandidateEvaluation) -> None:
        """Publish the owner's result: store it and wake any waiters.

        Failed evaluations are still handed to waiters (so they do not
        recompute a candidate that just failed) but are not cached.
        """
        key = genome.cache_key()
        with self._lock:
            self._store_locked(key, evaluation)
            ticket = self._in_flight.pop(key, None)
        # Popped under the lock, so no waiter can still be creating the event.
        if ticket is not None and ticket.event is not None:
            ticket.evaluation = evaluation
            ticket.event.set()

    def abandon(self, genome: CoDesignGenome) -> None:
        """Release a reservation without a result (owner crashed); waiters retry."""
        with self._lock:
            ticket = self._in_flight.pop(genome.cache_key(), None)
        if ticket is not None and ticket.event is not None:
            ticket.event.set()

    @property
    def in_flight_count(self) -> int:
        """Number of genomes currently reserved for evaluation."""
        with self._lock:
            return len(self._in_flight)

    def _store_locked(self, key: str, evaluation: CandidateEvaluation) -> None:
        if evaluation.failed:
            return
        if key not in self._entries and self._max_entries is not None:
            while len(self._entries) >= self._max_entries:
                oldest_key = next(iter(self._entries))
                del self._entries[oldest_key]
        elif key in self._entries:
            # Refresh recency on overwrite too.
            del self._entries[key]
        self._entries[key] = evaluation
        self.statistics.stores += 1

    def clear(self) -> None:
        """Drop all entries and reset statistics (in-flight waiters are released)."""
        with self._lock:
            tickets = list(self._in_flight.values())
            self._in_flight.clear()
            self._entries.clear()
            self.statistics = CacheStatistics()
        for ticket in tickets:
            if ticket.event is not None:
                ticket.event.set()

    def values(self) -> list[CandidateEvaluation]:
        """All cached evaluations, least-recently-used first."""
        with self._lock:
            return list(self._entries.values())
