"""N-way sharded evaluation storage: one SQLite file per digest bucket.

One SQLite file saturates around a single writer: every commit takes the
file's exclusive write lock, so N concurrent jobs (``ecad serve`` with
``--max-jobs N``, sweep cells under ``--backend processes``) serialize on
one fsync queue even when they evaluate *different* problems.
:class:`ShardedStore` routes every row to one of N shard files by
problem-digest prefix — all rows of a problem live in one shard, so

* point reads (``get``/``best``/``count(problem)``/per-problem exports)
  touch exactly one file,
* writers working on different problems land on different files and never
  contend (each shard keeps its own connection and writer lock),
* whole-store reads (``problems``/``stats``/``export_rows``/``prune``)
  fan out across the shards and aggregate.

On disk a sharded store is a *directory*::

    mystore.sqlite/
        layout.json        <- {"format": "ecad-sharded-store", "shards": 4}
        shard-000.sqlite   <- plain single-file evaluation stores
        shard-001.sqlite      (each with its own -wal/-shm sidecars)
        ...

The facade (:class:`~repro.store.store.EvaluationStore`) auto-detects the
directory layout, so every consumer — CLI, service, warm-start, surrogate —
opens sharded and single-file stores with the same ``path``.  Migrate an
existing single file with :func:`migrate_store` / ``ecad store migrate``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Iterator

from ..core.candidate import CandidateEvaluation
from ..core.errors import StoreError
from ..core.genome import CoDesignGenome
from .repository import SCHEMA_VERSION, RawRow, SQLiteRepository

__all__ = ["LAYOUT_FILE", "MAX_SHARDS", "ShardedStore", "shard_index", "migrate_store"]

#: Name of the layout descriptor inside a sharded-store directory.
LAYOUT_FILE = "layout.json"

#: Upper bound on the shard count — beyond this, file-handle and fan-out
#: costs dominate any lock-contention win.
MAX_SHARDS = 1024

_LAYOUT_FORMAT = "ecad-sharded-store"


def shard_index(problem_digest: str, shards: int) -> int:
    """The shard bucket one problem's rows live in.

    Routing reads the leading hex prefix of the problem digest (digests are
    hex SHA-256, so the prefix is uniform); non-hex digests (tests, ad-hoc
    namespaces) fall back to hashing the whole string.  The mapping depends
    only on ``(problem_digest, shards)`` — every process sharing a store
    computes the same bucket.
    """
    digest = str(problem_digest)
    try:
        value = int(digest[:8], 16)
    except ValueError:
        value = int.from_bytes(hashlib.sha256(digest.encode()).digest()[:4], "big")
    return value % int(shards)


def _shard_file(index: int) -> str:
    return f"shard-{index:03d}.sqlite"


class ShardedStore:
    """Evaluation repository spread over N single-file SQLite shards.

    Parameters
    ----------
    path:
        Directory of the sharded layout.  An existing directory must hold a
        ``layout.json`` descriptor (written when the layout was created);
        a missing path is created with ``shards`` fresh shard files.
    shards:
        Number of shard files.  ``0`` means "whatever the existing layout
        records"; a non-zero count that contradicts an existing layout is an
        error (routing depends on it — silently reopening with a different
        count would misroute every row).
    readonly / timeout_seconds:
        Passed through to every shard (see :class:`SQLiteRepository`).
    """

    def __init__(
        self,
        path: str | Path,
        shards: int = 0,
        readonly: bool = False,
        timeout_seconds: float = 30.0,
    ) -> None:
        self.path = str(path)
        self.readonly = bool(readonly)
        directory = Path(self.path)
        shards = int(shards)
        if shards < 0 or shards > MAX_SHARDS:
            raise StoreError(f"shards must be in [1, {MAX_SHARDS}], got {shards}")
        if directory.exists():
            if not directory.is_dir():
                raise StoreError(
                    f"{self.path} is a single-file store, not a sharded layout; "
                    f"migrate it first with 'ecad store migrate --store {self.path} "
                    f"--shards N'"
                )
            recorded = self._read_layout(directory)
            if shards not in (0, recorded):
                raise StoreError(
                    f"sharded store {self.path} has {recorded} shard(s) but "
                    f"{shards} were requested; rows are routed by shard count, "
                    f"so reshard with 'ecad store migrate' instead"
                )
            shards = recorded
        else:
            if self.readonly:
                raise StoreError(f"read-only store not found: {self.path}")
            if shards == 0:
                raise StoreError(
                    f"cannot create sharded store {self.path} without a shard count"
                )
            directory.mkdir(parents=True, exist_ok=True)
            (directory / LAYOUT_FILE).write_text(
                json.dumps(
                    {
                        "format": _LAYOUT_FORMAT,
                        "schema_version": SCHEMA_VERSION,
                        "shards": shards,
                    },
                    indent=2,
                )
                + "\n"
            )
        self.num_shards = shards
        self._shards: list[SQLiteRepository] = []
        try:
            for index in range(shards):
                self._shards.append(
                    SQLiteRepository(
                        directory / _shard_file(index),
                        readonly=readonly,
                        timeout_seconds=timeout_seconds,
                    )
                )
        except StoreError:
            self.close()
            raise

    @staticmethod
    def _read_layout(directory: Path) -> int:
        layout_path = directory / LAYOUT_FILE
        if not layout_path.exists():
            raise StoreError(
                f"{directory} is a directory but not a sharded evaluation store "
                f"(no {LAYOUT_FILE})"
            )
        try:
            layout = json.loads(layout_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable shard layout {layout_path}: {exc}") from exc
        if layout.get("format") != _LAYOUT_FORMAT:
            raise StoreError(
                f"{layout_path} does not describe a sharded evaluation store "
                f"(format {layout.get('format')!r})"
            )
        try:
            shards = int(layout["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{layout_path} has no usable shard count") from exc
        if not (1 <= shards <= MAX_SHARDS):
            raise StoreError(f"{layout_path} records an invalid shard count {shards}")
        return shards

    # ------------------------------------------------------------ routing
    def shard_index(self, problem_digest: str) -> int:
        """The shard bucket for one problem digest."""
        return shard_index(problem_digest, self.num_shards)

    def shard_for(self, problem_digest: str) -> SQLiteRepository:
        """The shard repository holding one problem's rows."""
        return self._shards[self.shard_index(problem_digest)]

    @property
    def shard_paths(self) -> list[str]:
        """The shard database files, in bucket order."""
        return [shard.path for shard in self._shards]

    # ------------------------------------------------------------- writes
    def put_many(
        self, problem_digest: str, evaluations: Iterable[CandidateEvaluation]
    ) -> int:
        """Persist a batch into the problem's shard (one transaction)."""
        return self.shard_for(problem_digest).put_many(problem_digest, evaluations)

    def put_raw_rows(self, rows: Iterable[RawRow]) -> int:
        """Insert raw rows, each routed to its problem's shard."""
        buckets: dict[int, list[RawRow]] = {}
        for row in rows:
            buckets.setdefault(self.shard_index(row[0]), []).append(row)
        return sum(
            self._shards[index].put_raw_rows(bucket) for index, bucket in buckets.items()
        )

    # -------------------------------------------------------------- reads
    def get(
        self, problem_digest: str, genome_key: str, genome: CoDesignGenome | None = None
    ) -> CandidateEvaluation | None:
        """Point read from the problem's shard."""
        return self.shard_for(problem_digest).get(problem_digest, genome_key, genome)

    def best(self, problem_digest: str, limit: int) -> list[CandidateEvaluation]:
        """Best stored candidates of one problem (single-shard read)."""
        return self.shard_for(problem_digest).best(problem_digest, limit)

    def count(self, problem_digest: str | None = None) -> int:
        """Row count — one shard for a given problem, fan-out otherwise."""
        if problem_digest is not None:
            return self.shard_for(problem_digest).count(problem_digest)
        return sum(shard.count() for shard in self._shards)

    def problems(self) -> list[dict]:
        """Per-problem summaries aggregated across every shard.

        Each problem lives wholly in one shard, so this is a concatenation
        (no cross-shard merging of one problem's numbers), re-sorted to the
        single-file order: most rows first, digest as the tiebreak.
        """
        merged = [entry for shard in self._shards for entry in shard.problems()]
        merged.sort(key=lambda entry: (-entry["evaluations"], entry["problem_digest"]))
        return merged

    def export_rows(self, problem_digest: str | None = None) -> list[dict]:
        """Flat report rows across every shard (see :meth:`export_rows_iter`)."""
        return list(self.export_rows_iter(problem_digest=problem_digest))

    def export_rows_iter(
        self, problem_digest: str | None = None, chunk_size: int = 256
    ) -> Iterator[dict]:
        """Stream export rows in the same global order as a single file.

        Problems are visited in digest order and each problem streams from
        its own shard, reproducing the single-file ordering (problem digest,
        then accuracy descending, then genome key) without materializing the
        store.
        """
        if problem_digest is not None:
            yield from self.shard_for(problem_digest).export_rows_iter(
                problem_digest=problem_digest, chunk_size=chunk_size
            )
            return
        digests = sorted(entry["problem_digest"] for entry in self.problems())
        for digest in digests:
            yield from self.shard_for(digest).export_rows_iter(
                problem_digest=digest, chunk_size=chunk_size
            )

    def iter_raw_rows(self, chunk_size: int = 256) -> Iterator[RawRow]:
        """Every stored row in raw column form, shard by shard."""
        for shard in self._shards:
            yield from shard.iter_raw_rows(chunk_size=chunk_size)

    # ----------------------------------------------------------- pruning
    def prune(
        self,
        keep_best: int | None = None,
        older_than_seconds: float | None = None,
        problem_digest: str | None = None,
    ) -> int:
        """Prune one shard (given a problem) or every shard (fan-out)."""
        if self.readonly:
            raise StoreError(f"evaluation store {self.path} is read-only")
        if keep_best is None and older_than_seconds is None:
            raise StoreError("prune needs keep_best and/or older_than_seconds")
        if problem_digest is not None:
            return self.shard_for(problem_digest).prune(
                keep_best=keep_best,
                older_than_seconds=older_than_seconds,
                problem_digest=problem_digest,
            )
        return sum(
            shard.prune(keep_best=keep_best, older_than_seconds=older_than_seconds)
            for shard in self._shards
        )

    # ------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Aggregate summary: rows/problems/eval-seconds summed, sizes too.

        ``size_bytes`` sums every shard's main file *and* its ``-wal`` /
        ``-shm`` sidecars (plus the layout descriptor).
        """
        problems = self.problems()
        size_bytes = 0
        layout_path = Path(self.path) / LAYOUT_FILE
        if layout_path.exists():
            size_bytes += layout_path.stat().st_size
        size_bytes += sum(shard.stats()["size_bytes"] for shard in self._shards)
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "readonly": self.readonly,
            "shards": self.num_shards,
            "evaluations": sum(p["evaluations"] for p in problems),
            "problems": len(problems),
            "size_bytes": size_bytes,
            "stored_eval_seconds": sum(p["stored_eval_seconds"] for p in problems),
        }

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every shard (idempotent)."""
        for shard in self._shards:
            shard.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "ro" if self.readonly else "rw"
        return f"ShardedStore({self.path!r}, shards={self.num_shards}, {mode})"


# ------------------------------------------------------------------ migration
def migrate_store(
    source_path: str | Path,
    shards: int,
    output_path: str | Path | None = None,
    dry_run: bool = False,
    chunk_size: int = 512,
) -> dict:
    """Copy an existing store into an N-shard layout (one-shot migration).

    Works from a single file *or* an existing sharded directory (resharding).
    Without ``output_path`` the migration is in place: the new layout is
    built next to the source, row counts are verified, and only then is the
    source atomically swapped aside to ``<path>.pre-shard.bak`` — a crash
    mid-migration leaves the original store untouched.

    Parameters
    ----------
    source_path:
        Existing store (file or sharded directory); opened read-only.
    shards:
        Shard count of the target layout.
    output_path:
        Target directory for the new layout; ``None`` migrates in place.
    dry_run:
        Only report what would happen (row counts, per-shard distribution).

    Returns
    -------
    dict
        Migration report: source/target paths, row and problem counts, the
        planned per-shard row distribution, and (in place) the backup path.

    Raises
    ------
    StoreError
        When the source is missing/corrupt, the target already exists, or
        the copied row count does not match the source.
    """
    from .store import EvaluationStore

    shards = int(shards)
    if not (1 <= shards <= MAX_SHARDS):
        raise StoreError(f"shards must be in [1, {MAX_SHARDS}], got {shards}")
    source_path = str(source_path)
    in_place = output_path is None
    target_path = Path(str(source_path) + ".migrating" if in_place else str(output_path))
    if target_path.exists():
        raise StoreError(
            f"migration target {target_path} already exists; remove it or pick "
            f"another --output"
        )
    source = EvaluationStore(source_path, readonly=True)
    try:
        problems = source.problems()
        distribution = [0] * shards
        for entry in problems:
            distribution[shard_index(entry["problem_digest"], shards)] += entry["evaluations"]
        report = {
            "source": source_path,
            "target": source_path if in_place else str(target_path),
            "shards": shards,
            "rows": source.count(),
            "problems": len(problems),
            "rows_per_shard": distribution,
            "dry_run": bool(dry_run),
        }
        if dry_run:
            return report
        target = ShardedStore(target_path, shards=shards)
        try:
            batch: list[RawRow] = []
            for row in source.iter_raw_rows(chunk_size=chunk_size):
                batch.append(row)
                if len(batch) >= chunk_size:
                    target.put_raw_rows(batch)
                    batch = []
            if batch:
                target.put_raw_rows(batch)
            copied = target.count()
        finally:
            target.close()
        if copied != report["rows"]:
            raise StoreError(
                f"migration copied {copied} of {report['rows']} rows from "
                f"{source_path}; the original store is untouched at {source_path}"
            )
    finally:
        source.close()
    if in_place:
        backup = source_path + ".pre-shard.bak"
        if Path(backup).exists():
            raise StoreError(
                f"backup path {backup} already exists; remove it and retry"
            )
        os.replace(source_path, backup)
        # A cleanly closed WAL database checkpoints its sidecars away, but a
        # crashed writer can leave them; keep them with the backup.
        for suffix in ("-wal", "-shm"):
            sidecar = Path(source_path + suffix)
            if sidecar.exists():
                os.replace(sidecar, backup + suffix)
        os.replace(target_path, source_path)
        report["backup"] = backup
    return report
