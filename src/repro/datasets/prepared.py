"""Per-process cache of preprocessing work shared across candidate evaluations.

Every pre-split candidate evaluation would otherwise redo the same
dataset-wide preprocessing: fit a
:class:`~repro.nn.preprocessing.StandardScaler` on the training split and
standardize both splits.  None of that depends on the candidate — only on
the dataset content — so a population of hundreds of candidates would
repeat identical work hundreds of times.

:class:`PreparedDataset` computes each artifact once and memoizes it.
:func:`prepare_dataset` keeps one ``PreparedDataset`` per live :class:`Dataset`
object in the current process, so the threads backend (and repeated requests
inside one worker process) share a single preprocessing pass.  The processes
backend gets the same effect because each worker process materializes the
dataset once from shared memory (see :mod:`repro.datasets.shared`) and then
hits this per-process memo on every subsequent request.

Bit-compatibility note: the cached artifacts are produced by exactly the same
code the per-candidate path runs (``StandardScaler``), so evaluations built
on a ``PreparedDataset`` are bit-identical to evaluations that re-preprocess
from scratch.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING

import numpy as np

from .base import Dataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..nn.preprocessing import StandardScaler

__all__ = ["PreparedDataset", "prepare_dataset", "release_prepared", "clear_prepared_cache"]


class PreparedDataset:
    """Candidate-independent preprocessing artifacts for one dataset.

    All artifacts are lazy: nothing is computed until a worker first asks for
    it, and each is computed at most once per process.  Accessors hand out the
    cached arrays directly — callers must treat them as read-only.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._lock = threading.Lock()
        self._scaler: "StandardScaler | None" = None
        self._standardized_features: np.ndarray | None = None
        self._standardized_test_features: np.ndarray | None = None

    @property
    def scaler(self) -> "StandardScaler":
        """``StandardScaler`` fitted once on the full training split."""
        with self._lock:
            if self._scaler is None:
                from ..nn.preprocessing import StandardScaler

                self._scaler = StandardScaler().fit(self.dataset.features)
            return self._scaler

    @property
    def standardized_features(self) -> np.ndarray:
        """Training features transformed by :attr:`scaler` (computed once)."""
        scaler = self.scaler
        with self._lock:
            if self._standardized_features is None:
                self._standardized_features = scaler.transform(self.dataset.features)
            return self._standardized_features

    @property
    def standardized_test_features(self) -> np.ndarray:
        """Pre-split test features transformed by the *training* scaler."""
        if self.dataset.test_features is None:
            raise ValueError(f"dataset '{self.dataset.name}' has no pre-split test partition")
        scaler = self.scaler
        with self._lock:
            if self._standardized_test_features is None:
                self._standardized_test_features = scaler.transform(self.dataset.test_features)
            return self._standardized_test_features


# One PreparedDataset per live Dataset object in this process.  Keyed by
# ``id()`` with a ``weakref.finalize`` guard so entries vanish when the
# dataset is garbage collected (ids are recycled, so an unguarded id-keyed
# dict could silently serve stale artifacts for a *different* dataset).
_PREPARED: dict[int, PreparedDataset] = {}
_PREPARED_LOCK = threading.Lock()


def _evict(dataset_id: int) -> None:
    with _PREPARED_LOCK:
        _PREPARED.pop(dataset_id, None)


def prepare_dataset(dataset: Dataset) -> PreparedDataset:
    """Return the process-wide :class:`PreparedDataset` for ``dataset``."""
    key = id(dataset)
    with _PREPARED_LOCK:
        displaced = _PREPARED.get(key)
        if displaced is not None and displaced.dataset is dataset:
            return displaced
        prepared = PreparedDataset(dataset)
        _PREPARED[key] = prepared
        weakref.finalize(dataset, _evict, key)
    # ``displaced`` (a stale entry from a recycled id) is released only after
    # the lock is dropped: losing the last reference to its dataset fires the
    # _evict finalizer synchronously, which needs _PREPARED_LOCK itself.
    del displaced
    return prepared


def release_prepared(dataset: Dataset) -> None:
    """Drop ``dataset``'s :class:`PreparedDataset`, if this process has one.

    An entry holds its dataset, so the eviction finalizer cannot fire while
    the entry exists: a caller that retires a dataset releases it here.
    """
    key = id(dataset)
    with _PREPARED_LOCK:
        entry = _PREPARED.get(key)
        if entry is not None and entry.dataset is dataset:
            del _PREPARED[key]


def clear_prepared_cache() -> None:
    """Drop every cached :class:`PreparedDataset` (test isolation hook)."""
    with _PREPARED_LOCK:
        entries = list(_PREPARED.values())
        _PREPARED.clear()
    # Release entry references outside the lock — dropping the last reference
    # to a dataset runs its _evict finalizer, which acquires _PREPARED_LOCK.
    del entries
