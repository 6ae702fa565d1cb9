"""The persistent store of candidate evaluations (facade over a repository).

The paper's master/worker design amortizes expensive evaluations (NN training
plus hardware-database lookups) across one long-running search; the
:class:`EvaluationStore` extends that amortization *across runs and across
processes*.  Every successful :class:`~repro.core.candidate.CandidateEvaluation`
is written as one row keyed on ``(problem_digest, genome_key)`` (see
:mod:`repro.store.digest`), so a repeated sweep, a re-seeded benchmark, or a
second machine sharing the file never re-trains a candidate the store has
already seen.

Storage layout is a :class:`~repro.store.repository.StoreRepository` behind
this facade:

* a **single SQLite file** (the default — WAL journaling, busy timeout +
  immediate transactions, schema versioning, exactly the original layout);
* a **sharded directory** of N SQLite files routed by problem-digest prefix
  (:class:`~repro.store.sharded.ShardedStore`) so concurrent jobs on
  different problems never contend on one writer lock.

The layout is auto-detected from the path (directory = sharded), so every
consumer opens either with the same call; ``shards=N`` (``store.shards`` in
the configuration) creates a fresh sharded layout, and ``ecad store
migrate`` converts an existing file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..core.candidate import CandidateEvaluation
from ..core.errors import StoreError
from ..core.genome import CoDesignGenome
from .repository import SCHEMA_VERSION, RawRow, SQLiteRepository, StoreRepository
from .sharded import ShardedStore

__all__ = ["SCHEMA_VERSION", "StoreStatistics", "EvaluationStore"]


@dataclass
class StoreStatistics:
    """Hit/miss/write counters of one store-backed cache tier.

    Attributes
    ----------
    hits:
        Lookups answered by a stored row.
    misses:
        Lookups that fell through to a fresh evaluation.
    writes:
        Rows written (or refreshed) by this process.
    write_retries:
        Write attempts that failed transiently and were retried.
    write_errors:
        Rows dropped *permanently* — every retry failed and the pending
        queue overflowed its cap.  Transient failures whose rows were
        re-queued (and may yet be persisted) are not counted here.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_retries: int = 0
    write_errors: int = 0


class EvaluationStore:
    """Durable, shareable store of candidate evaluations.

    Parameters
    ----------
    path:
        Store location.  A file (or a missing path with ``shards <= 1``)
        is a single SQLite database; a directory is an N-shard layout (see
        :class:`~repro.store.sharded.ShardedStore`).  Parent directories are
        created on demand.  ``":memory:"`` builds a private in-memory store
        (tests).
    readonly:
        Open for reads only; :meth:`put` raises and the store must already
        exist.
    timeout_seconds:
        SQLite busy timeout — how long a writer waits on a concurrent
        writer's lock before giving up.
    shards:
        ``0`` (auto) opens whatever layout exists at ``path``; ``1`` forces
        the single-file layout; ``N > 1`` opens/creates an N-shard layout.
        Pointing ``shards > 1`` at an existing single file raises with a
        hint to run ``ecad store migrate``.

    Raises
    ------
    StoreError
        When the path is not a valid store (corrupt/truncated), was written
        by a different schema version or shard count, or is missing in
        read-only mode.
    """

    def __init__(
        self,
        path: str | Path,
        readonly: bool = False,
        timeout_seconds: float = 30.0,
        shards: int = 0,
    ) -> None:
        self.path = str(path)
        self.readonly = bool(readonly)
        shards = int(shards)
        if shards < 0:
            raise StoreError(f"shards must be >= 0, got {shards}")
        is_directory = self.path != ":memory:" and Path(self.path).is_dir()
        if is_directory:
            # An existing sharded layout wins over the configured default
            # (shards <= 1 means "whatever the layout records"); an explicit
            # N > 1 that contradicts the layout still fails loudly.
            self._repository: StoreRepository = ShardedStore(
                self.path,
                shards=shards if shards > 1 else 0,
                readonly=readonly,
                timeout_seconds=timeout_seconds,
            )
        elif shards > 1:
            if Path(self.path).exists():
                raise StoreError(
                    f"{self.path} is a single-file store but store.shards={shards} "
                    f"was requested; migrate it with 'ecad store migrate --store "
                    f"{self.path} --shards {shards}'"
                )
            self._repository = ShardedStore(
                self.path,
                shards=shards,
                readonly=readonly,
                timeout_seconds=timeout_seconds,
            )
        else:
            self._repository = SQLiteRepository(
                self.path, readonly=readonly, timeout_seconds=timeout_seconds
            )

    @property
    def repository(self) -> StoreRepository:
        """The storage backend behind this facade."""
        return self._repository

    @property
    def shards(self) -> int:
        """Number of shard files (1 for the single-file layout)."""
        return getattr(self._repository, "num_shards", 1)

    # ------------------------------------------------------------- writes
    def put(self, problem_digest: str, evaluation: CandidateEvaluation) -> None:
        """Persist one successful evaluation (failed ones are never stored)."""
        self.put_many(problem_digest, [evaluation])

    def put_many(
        self, problem_digest: str, evaluations: Iterable[CandidateEvaluation]
    ) -> int:
        """Persist a batch of evaluations in one transaction.

        Parameters
        ----------
        problem_digest:
            The problem namespace the evaluations belong to.
        evaluations:
            Records to store; failed evaluations are skipped (a transient
            worker failure must not poison a genome durably).

        Returns
        -------
        int
            Number of rows written.

        Raises
        ------
        StoreError
            When the store is read-only or the write fails.
        """
        return self._repository.put_many(problem_digest, evaluations)

    def put_raw_rows(self, rows: Iterable[RawRow]) -> int:
        """Insert raw rows verbatim, preserving timestamps (migration path)."""
        return self._repository.put_raw_rows(rows)

    # -------------------------------------------------------------- reads
    def get(
        self, problem_digest: str, genome_key: str, genome: CoDesignGenome | None = None
    ) -> CandidateEvaluation | None:
        """The stored evaluation for one candidate, or None when absent.

        ``genome`` is the genome ``genome_key`` was taken from, when the
        caller has it.  Then a hit is a
        :class:`~repro.store.serialize.StoredEvaluation` flagged
        ``from_cache=True``: accuracy, FPGA throughput and evaluation seconds
        come from the row's columns, and the payload is decoded (and checked
        against the row and ``genome``) only when another field is read.
        Without ``genome`` the payload is decoded at once.
        """
        return self._repository.get(problem_digest, genome_key, genome)

    def best(self, problem_digest: str, limit: int) -> list[CandidateEvaluation]:
        """The highest-accuracy stored candidates of one problem.

        Parameters
        ----------
        problem_digest:
            Problem namespace to query.
        limit:
            Maximum number of candidates to return.

        Returns
        -------
        list[CandidateEvaluation]
            Best-accuracy-first; empty when the problem is unknown.
        """
        return self._repository.best(problem_digest, limit)

    def count(self, problem_digest: str | None = None) -> int:
        """Number of stored evaluations (optionally for one problem only)."""
        return self._repository.count(problem_digest)

    def problems(self) -> list[dict]:
        """Per-problem summary rows (digest, row count, best accuracy, span).

        Returns
        -------
        list[dict]
            One row per distinct problem digest, most rows first.
        """
        return self._repository.problems()

    def export_rows(self, problem_digest: str | None = None) -> list[dict]:
        """Flat report rows of every stored evaluation (CSV-friendly).

        Each row carries the problem digest, genome key, the candidate
        summary (:meth:`~repro.core.candidate.CandidateEvaluation.summary`)
        and the write timestamp.  Materializes the whole result; prefer
        :meth:`export_rows_iter` on large stores.
        """
        return self._repository.export_rows(problem_digest)

    def export_rows_iter(
        self, problem_digest: str | None = None, chunk_size: int = 256
    ) -> Iterator[dict]:
        """Stream export rows in ``chunk_size`` batches (constant memory).

        Same rows and ordering as :meth:`export_rows` — problem digest, then
        accuracy (best first), then genome key — without deserializing the
        full table up front.  Surrogate training and ``ecad store export``
        consume this path.
        """
        return self._repository.export_rows_iter(problem_digest, chunk_size)

    def iter_raw_rows(self, chunk_size: int = 256) -> Iterator[RawRow]:
        """Every stored row in raw column form (for migration/resharding)."""
        return self._repository.iter_raw_rows(chunk_size)

    # ----------------------------------------------------------- pruning
    def prune(
        self,
        keep_best: int | None = None,
        older_than_seconds: float | None = None,
        problem_digest: str | None = None,
    ) -> int:
        """Delete rows to keep the store small.

        Parameters
        ----------
        keep_best:
            Keep only the N highest-accuracy rows *per problem digest*.
        older_than_seconds:
            Delete rows written more than this many seconds ago.
        problem_digest:
            Restrict pruning to one problem namespace.

        Returns
        -------
        int
            Number of rows deleted.

        Raises
        ------
        StoreError
            When the store is read-only or no criterion was given.
        """
        return self._repository.prune(
            keep_best=keep_best,
            older_than_seconds=older_than_seconds,
            problem_digest=problem_digest,
        )

    # ------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Whole-store summary: schema, shard count, rows, on-disk size.

        ``size_bytes`` is the true disk footprint: the main database file(s)
        *plus* the ``-wal``/``-shm`` sidecars WAL mode creates, summed across
        every shard.
        """
        return self._repository.stats()

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying repository (idempotent)."""
        self._repository.close()

    def __enter__(self) -> "EvaluationStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "ro" if self.readonly else "rw"
        if self.shards > 1:
            return f"EvaluationStore({self.path!r}, {mode}, shards={self.shards})"
        return f"EvaluationStore({self.path!r}, {mode})"
