"""The sharded directory layout of an evaluation store, and its migration.

One SQLite file saturates around a single writer: every commit takes the
file's exclusive write lock, so N concurrent jobs (``ecad serve`` with
``--max-jobs N``, sweep cells under ``--backend processes``) serialize on
one fsync queue even when they evaluate *different* problems.  A sharded
store routes every row to one of N shard files by problem-digest prefix
(:func:`shard_index`), so all rows of a problem live in one shard and
writers working on different problems never contend.

On disk a sharded store is a *directory*::

    mystore.sqlite/
        layout.json        <- {"format": "ecad-sharded-store", "shards": 4}
        shard-000.sqlite   <- plain single-file evaluation stores
        shard-001.sqlite      (each with its own -wal/-shm sidecars)
        ...

:class:`~repro.store.store.EvaluationStore` opens either layout from the same
``path`` and does the routing; this module holds what defines the layout
(the descriptor, the shard file names, the routing function) and
:func:`migrate_store` / ``ecad store migrate``, which copies an existing
store into a new layout.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..core.config import MAX_STORE_SHARDS
from ..core.errors import StoreError
from .repository import SCHEMA_VERSION, RawRow

__all__ = ["LAYOUT_FILE", "shard_index", "migrate_store"]

#: Name of the layout descriptor inside a sharded-store directory.
LAYOUT_FILE = "layout.json"

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


def shard_files(directory: Path, shards: int) -> list[Path]:
    """The shard database files of a ``shards``-way layout, in bucket order."""
    return [directory / f"shard-{index:03d}.sqlite" for index in range(shards)]


def write_layout(directory: Path, shards: int) -> None:
    """Create ``directory`` with the descriptor of a ``shards``-way layout."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / LAYOUT_FILE).write_text(
        json.dumps(
            {"format": _LAYOUT_FORMAT, "schema_version": SCHEMA_VERSION, "shards": shards},
            indent=2,
        )
        + "\n"
    )


def read_layout(directory: Path) -> int:
    """The shard count recorded in an existing layout directory."""
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
    if not (1 <= shards <= MAX_STORE_SHARDS):
        raise StoreError(f"{layout_path} records an invalid shard count {shards}")
    return shards


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
    if not (1 <= shards <= MAX_STORE_SHARDS):
        raise StoreError(f"shards must be in [1, {MAX_STORE_SHARDS}], got {shards}")
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
        # The layout is written first so that even a one-shard target is a
        # directory, not a single file.
        write_layout(target_path, shards)
        target = EvaluationStore(target_path)
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
