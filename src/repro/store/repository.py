"""One SQLite file of evaluations: the only code that talks to SQLite.

:class:`SQLiteRepository` owns one database file (or ``:memory:``): its
connection, schema versioning, WAL journaling, busy timeout and writer lock.
:class:`~repro.store.store.EvaluationStore` holds one repository per shard
file (a single-file store is one shard) and routes each call by problem
digest; nothing else opens a store file.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Iterable, Iterator

from ..core.candidate import CandidateEvaluation
from ..core.errors import StoreError
from ..core.genome import CoDesignGenome
from .serialize import StoredEvaluation, dumps, loads

__all__ = [
    "SCHEMA_VERSION",
    "RawRow",
    "SQLiteRepository",
    "on_disk_bytes",
]

#: Current on-disk schema version.  Bump when the table layout or the payload
#: format changes incompatibly; the store refuses files with other versions.
SCHEMA_VERSION = 1

#: Column order of a raw evaluation row, as yielded by ``iter_raw_rows`` and
#: accepted by ``put_raw_rows``: (problem_digest, genome_key, accuracy,
#: fpga_outputs_per_second, evaluation_seconds, created_at, payload).
RawRow = tuple

_CREATE_META = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

_CREATE_EVALUATIONS = """
CREATE TABLE IF NOT EXISTS evaluations (
    problem_digest          TEXT NOT NULL,
    genome_key              TEXT NOT NULL,
    accuracy                REAL NOT NULL,
    fpga_outputs_per_second REAL NOT NULL DEFAULT 0,
    evaluation_seconds      REAL NOT NULL DEFAULT 0,
    created_at              REAL NOT NULL,
    payload                 TEXT NOT NULL,
    PRIMARY KEY (problem_digest, genome_key)
)
"""

_CREATE_INDEX = """
CREATE INDEX IF NOT EXISTS idx_evaluations_best
ON evaluations (problem_digest, accuracy DESC)
"""

_INSERT_ROW = (
    "INSERT OR REPLACE INTO evaluations "
    "(problem_digest, genome_key, accuracy, fpga_outputs_per_second, "
    " evaluation_seconds, created_at, payload) "
    "VALUES (?, ?, ?, ?, ?, ?, ?)"
)


def on_disk_bytes(path: str | Path) -> int:
    """Total on-disk size of one SQLite database *including* WAL sidecars.

    WAL mode keeps live data in ``<path>-wal`` (and a ``<path>-shm`` index)
    between checkpoints; measuring only the main file undercounts — often
    drastically on a store that is being written right now.
    """
    path = str(path)
    if path == ":memory:":
        return 0
    total = 0
    for candidate in (path, path + "-wal", path + "-shm"):
        file_path = Path(candidate)
        if file_path.exists():
            total += file_path.stat().st_size
    return total


class SQLiteRepository:
    """One SQLite file of evaluations: a single-file store, or one shard.

    Parameters
    ----------
    path:
        Database file location.  Parent directories are created on demand.
        ``":memory:"`` builds a private in-memory repository (tests).
    readonly:
        Open the file for reads only; writes raise and the file must
        already exist.
    timeout_seconds:
        SQLite busy timeout — how long a writer waits on a concurrent
        writer's lock before giving up.

    Raises
    ------
    StoreError
        When the file is not a valid store (corrupt/truncated), was written
        by a different schema version, or is missing in read-only mode.
    """

    def __init__(
        self,
        path: str | Path,
        readonly: bool = False,
        timeout_seconds: float = 30.0,
    ) -> None:
        self.path = str(path)
        self.readonly = bool(readonly)
        self._lock = threading.Lock()
        in_memory = self.path == ":memory:"
        if not in_memory:
            file_path = Path(self.path)
            if self.readonly and not file_path.exists():
                raise StoreError(f"read-only store file not found: {self.path}")
            file_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if self.readonly:
                uri = f"file:{self.path}?mode=ro"
                self._connection = sqlite3.connect(
                    uri, uri=True, timeout=timeout_seconds, check_same_thread=False
                )
            else:
                self._connection = sqlite3.connect(
                    self.path, timeout=timeout_seconds, check_same_thread=False
                )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open evaluation store {self.path}: {exc}") from exc
        try:
            self._connection.execute(f"PRAGMA busy_timeout = {int(timeout_seconds * 1000)}")
            if not self.readonly and not in_memory:
                # WAL lets concurrent readers proceed while one process writes.
                self._connection.execute("PRAGMA journal_mode=WAL")
            self._initialize_schema()
        except sqlite3.DatabaseError as exc:
            self._connection.close()
            raise StoreError(
                f"{self.path} is not a valid evaluation store (corrupt or not SQLite): {exc}"
            ) from exc

    # ------------------------------------------------------------- schema
    def _initialize_schema(self) -> None:
        version = self._read_schema_version()
        if version is None:
            if self.readonly:
                raise StoreError(
                    f"{self.path} is not an evaluation store (no schema metadata)"
                )
            with self._connection:
                self._connection.execute(_CREATE_META)
                self._connection.execute(_CREATE_EVALUATIONS)
                self._connection.execute(_CREATE_INDEX)
                self._connection.execute(
                    "INSERT OR REPLACE INTO store_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                self._connection.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value) VALUES (?, ?)",
                    ("created_at", repr(time.time())),
                )
        elif version != SCHEMA_VERSION:
            raise StoreError(
                f"evaluation store {self.path} has schema version {version}, "
                f"this build expects {SCHEMA_VERSION}; export what you need with "
                f"a matching build and recreate the store"
            )

    def _read_schema_version(self) -> int | None:
        """The file's recorded schema version, or None for a fresh file."""
        tables = {
            row[0]
            for row in self._connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        if "store_meta" not in tables:
            if tables:
                raise StoreError(
                    f"{self.path} is an SQLite file but not an evaluation store "
                    f"(tables: {', '.join(sorted(tables))})"
                )
            return None
        row = self._connection.execute(
            "SELECT value FROM store_meta WHERE key='schema_version'"
        ).fetchone()
        if row is None:
            raise StoreError(f"{self.path} has no recorded schema version")
        try:
            return int(row[0])
        except ValueError as exc:
            raise StoreError(
                f"{self.path} has an unreadable schema version {row[0]!r}"
            ) from exc

    # ------------------------------------------------------------- writes
    def put_many(
        self, problem_digest: str, evaluations: Iterable[CandidateEvaluation]
    ) -> int:
        """Persist a batch of evaluations in one transaction.

        Failed evaluations are skipped (a transient worker failure must not
        poison a genome durably).  Raises :class:`StoreError` when the
        repository is read-only or the write fails.
        """
        if self.readonly:
            raise StoreError(f"evaluation store {self.path} is read-only")
        rows = [
            (
                str(problem_digest),
                evaluation.genome.cache_key(),
                float(evaluation.accuracy),
                float(evaluation.fpga_outputs_per_second),
                float(evaluation.evaluation_seconds),
                time.time(),
                dumps(evaluation),
            )
            for evaluation in evaluations
            if not evaluation.failed
        ]
        if not rows:
            return 0
        with self._lock:
            try:
                with self._connection:
                    self._connection.executemany(_INSERT_ROW, rows)
            except sqlite3.Error as exc:
                raise StoreError(f"cannot write to evaluation store {self.path}: {exc}") from exc
        return len(rows)

    def put_raw_rows(self, rows: Iterable[RawRow]) -> int:
        """Insert raw rows verbatim (timestamps preserved; migration path)."""
        if self.readonly:
            raise StoreError(f"evaluation store {self.path} is read-only")
        rows = list(rows)
        if not rows:
            return 0
        with self._lock:
            try:
                with self._connection:
                    self._connection.executemany(_INSERT_ROW, rows)
            except sqlite3.Error as exc:
                raise StoreError(f"cannot write to evaluation store {self.path}: {exc}") from exc
        return len(rows)

    # -------------------------------------------------------------- reads
    def get(
        self, problem_digest: str, genome_key: str, genome: CoDesignGenome | None = None
    ) -> CandidateEvaluation | None:
        """The stored evaluation for one candidate, or None when absent.

        With ``genome``, a hit is a :class:`~repro.store.serialize.StoredEvaluation`
        served from the row's columns; its payload decodes on first need.
        Without it, the payload is decoded here.
        """
        with self._lock:
            try:
                row = self._connection.execute(
                    "SELECT accuracy, fpga_outputs_per_second, evaluation_seconds, payload "
                    "FROM evaluations WHERE problem_digest = ? AND genome_key = ?",
                    (str(problem_digest), str(genome_key)),
                ).fetchone()
            except sqlite3.Error as exc:
                raise StoreError(f"cannot read evaluation store {self.path}: {exc}") from exc
        if row is None:
            return None
        if genome is None:
            return loads(row[3])
        return StoredEvaluation(genome, problem_digest, genome_key, *row)

    def best(self, problem_digest: str, limit: int) -> list[CandidateEvaluation]:
        """The highest-accuracy stored candidates of one problem, best first."""
        if limit <= 0:
            return []
        with self._lock:
            try:
                rows = self._connection.execute(
                    "SELECT payload FROM evaluations WHERE problem_digest = ? "
                    "ORDER BY accuracy DESC, genome_key LIMIT ?",
                    (str(problem_digest), int(limit)),
                ).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(f"cannot read evaluation store {self.path}: {exc}") from exc
        return [loads(row[0]) for row in rows]

    def count(self, problem_digest: str | None = None) -> int:
        """Number of stored evaluations (optionally for one problem only)."""
        with self._lock:
            try:
                if problem_digest is None:
                    row = self._connection.execute("SELECT COUNT(*) FROM evaluations").fetchone()
                else:
                    row = self._connection.execute(
                        "SELECT COUNT(*) FROM evaluations WHERE problem_digest = ?",
                        (str(problem_digest),),
                    ).fetchone()
            except sqlite3.Error as exc:
                raise StoreError(f"cannot read evaluation store {self.path}: {exc}") from exc
        return int(row[0])

    def problems(self) -> list[dict]:
        """Per-problem summary rows, in no particular order."""
        with self._lock:
            try:
                rows = self._connection.execute(
                    "SELECT problem_digest, COUNT(*), MAX(accuracy), "
                    "       SUM(evaluation_seconds), MIN(created_at), MAX(created_at) "
                    "FROM evaluations GROUP BY problem_digest"
                ).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(f"cannot read evaluation store {self.path}: {exc}") from exc
        return [
            {
                "problem_digest": digest,
                "evaluations": int(count),
                "best_accuracy": float(best),
                "stored_eval_seconds": float(seconds or 0.0),
                "first_written": float(first),
                "last_written": float(last),
            }
            for digest, count, best, seconds, first, last in rows
        ]

    def export_rows_iter(self, problem_digest: str, chunk_size: int = 256) -> Iterator[dict]:
        """Stream one problem's export rows in ``chunk_size`` batches.

        Each row carries the problem digest, the write timestamp and the
        candidate summary (:meth:`~repro.core.candidate.CandidateEvaluation.summary`),
        ordered by accuracy (best first), then genome key.
        """
        rows = self._iter_query(
            "SELECT payload, created_at FROM evaluations WHERE problem_digest = ? "
            "ORDER BY accuracy DESC, genome_key",
            (str(problem_digest),),
            chunk_size,
        )
        for payload, created_at in rows:
            record = {"problem_digest": problem_digest, "created_at": created_at}
            record.update(loads(payload).summary())
            yield record

    def iter_raw_rows(self, chunk_size: int = 256) -> Iterator[RawRow]:
        """Every stored row in raw column form (for migration/resharding)."""
        return self._iter_query(
            "SELECT problem_digest, genome_key, accuracy, "
            "       fpga_outputs_per_second, evaluation_seconds, "
            "       created_at, payload "
            "FROM evaluations ORDER BY problem_digest, genome_key",
            (),
            chunk_size,
        )

    def _iter_query(self, statement: str, params: tuple, chunk_size: int) -> Iterator[tuple]:
        """The rows of one query, fetched ``chunk_size`` at a time."""
        with self._lock:
            try:
                cursor = self._connection.execute(statement, params)
            except sqlite3.Error as exc:
                raise StoreError(f"cannot read evaluation store {self.path}: {exc}") from exc
        while True:
            with self._lock:
                try:
                    chunk = cursor.fetchmany(max(int(chunk_size), 1))
                except sqlite3.Error as exc:
                    raise StoreError(
                        f"cannot read evaluation store {self.path}: {exc}"
                    ) from exc
            if not chunk:
                return
            yield from chunk

    # ----------------------------------------------------------- pruning
    def prune(
        self,
        keep_best: int | None = None,
        older_than_seconds: float | None = None,
        problem_digest: str | None = None,
    ) -> int:
        """Delete rows to keep the store small; returns rows deleted."""
        if self.readonly:
            raise StoreError(f"evaluation store {self.path} is read-only")
        if keep_best is None and older_than_seconds is None:
            raise StoreError("prune needs keep_best and/or older_than_seconds")
        conditions: list[str] = []
        params: list = []
        if problem_digest is not None:
            conditions.append("problem_digest = ?")
            params.append(str(problem_digest))
        if older_than_seconds is not None:
            conditions.append("created_at < ?")
            params.append(time.time() - float(older_than_seconds))
        if keep_best is not None:
            if keep_best < 0:
                raise StoreError(f"keep_best must be >= 0, got {keep_best}")
            conditions.append(
                "(problem_digest, genome_key) NOT IN ("
                " SELECT problem_digest, genome_key FROM ("
                "   SELECT problem_digest, genome_key,"
                "          ROW_NUMBER() OVER ("
                "            PARTITION BY problem_digest "
                "            ORDER BY accuracy DESC, genome_key) AS rank "
                "   FROM evaluations) WHERE rank <= ?)"
            )
            params.append(int(keep_best))
        statement = "DELETE FROM evaluations WHERE " + " AND ".join(conditions)
        with self._lock:
            try:
                with self._connection:
                    cursor = self._connection.execute(statement, params)
            except sqlite3.Error as exc:
                raise StoreError(f"cannot prune evaluation store {self.path}: {exc}") from exc
        return int(cursor.rowcount)

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - close never matters twice
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "ro" if self.readonly else "rw"
        return f"SQLiteRepository({self.path!r}, {mode})"
