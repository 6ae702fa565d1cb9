"""Persistent cross-run evaluation store.

This package makes expensive candidate evaluations durable: an
:class:`EvaluationStore` keyed by canonical problem/candidate digests over
one SQLite file or a directory of N shard files (routed by problem digest,
for concurrent writers), each file held by one :class:`SQLiteRepository`; a
:class:`StoreBackedCache` that slots under the in-memory
:class:`~repro.core.cache.EvaluationCache` as a read-through/write-behind
second tier with retrying, loss-free flushes; and the digest functions that
decide when two runs may share results.  See ``docs/ARCHITECTURE.md`` for
where the store sits in the system.
"""

from .cache import StoreBackedCache
from .digest import dataset_fingerprint, problem_digest
from .repository import SCHEMA_VERSION, SQLiteRepository
from .sharded import migrate_store, shard_index
from .store import EvaluationStore, StoreStatistics

__all__ = [
    "SCHEMA_VERSION",
    "EvaluationStore",
    "SQLiteRepository",
    "StoreBackedCache",
    "StoreStatistics",
    "dataset_fingerprint",
    "migrate_store",
    "problem_digest",
    "shard_index",
]
