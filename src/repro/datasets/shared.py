"""Ship datasets to process-pool workers once, via POSIX shared memory.

With the ``processes`` backend every :class:`~repro.workers.base.EvaluationRequest`
used to pickle the full dataset arrays into the IPC pipe — for an MNIST-sized
problem that is tens of megabytes serialized, copied, and deserialized *per
request per worker*.  This module replaces that with the classic
``multiprocessing.shared_memory`` handshake:

* The master (creator side) copies each array into a named shared-memory
  segment exactly once — :class:`SharedDataset` — and puts only a tiny
  picklable :class:`SharedDatasetHandle` (segment names + shapes + dtypes) on
  the request.
* Workers (consumer side) call :func:`attach_shared_dataset`, which maps the
  segments zero-copy into a regular :class:`~repro.datasets.base.Dataset` and
  memoizes it per process, so every later request for the same handle is a
  dictionary lookup.  The attached dataset then feeds the per-process
  preprocessing memo in :mod:`repro.datasets.prepared`.  Attaching a new
  handle first drops the memo entries whose creator has closed its export,
  so a long-lived pool process (the job service's, the arena's) does not
  keep every finished run's dataset mapped.

Lifecycle rules (pinned by ``tests/test_shared_datasets.py``):

* The *creator* owns the segments: :meth:`SharedDataset.close` unlinks them
  and is idempotent; ``Master.shutdown`` calls it even when workers crashed,
  so segments never outlive the run.
* Consumers never unlink.  Python's ``resource_tracker`` would otherwise
  "helpfully" destroy the segments when the first worker exits (and warn
  about leaks); each attach therefore unregisters the segment from the
  tracker, leaving ownership with the creator.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .base import Dataset

__all__ = [
    "SharedArraySpec",
    "SharedDatasetHandle",
    "SharedDataset",
    "attach_shared_dataset",
    "clear_attached_cache",
]


@dataclass(frozen=True)
class SharedArraySpec:
    """Everything needed to rebuild one ndarray from a shared segment."""

    segment: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedDatasetHandle:
    """Picklable reference to a dataset exported into shared memory.

    The handle is a few hundred bytes regardless of dataset size; it is what
    travels on an :class:`~repro.workers.base.EvaluationRequest` in place of
    the arrays themselves.  ``token`` identifies the export (consumer-side
    memo key); two handles with the same token map the same segments.
    """

    token: str
    name: str
    features: SharedArraySpec
    labels: SharedArraySpec
    test_features: SharedArraySpec | None = None
    test_labels: SharedArraySpec | None = None
    metadata: dict = field(default_factory=dict)


class SharedDataset:
    """Creator-side export of one dataset into shared-memory segments.

    Owns the segments until :meth:`close` (close + unlink, idempotent).  A
    ``weakref.finalize`` backstop releases the segments if the owner forgets,
    so an abandoned export cannot leak ``/dev/shm`` space past process exit.
    """

    def __init__(self, dataset: Dataset) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False
        try:
            features = self._export(dataset.features)
            labels = self._export(dataset.labels)
            test_features = (
                self._export(dataset.test_features) if dataset.test_features is not None else None
            )
            test_labels = (
                self._export(dataset.test_labels) if dataset.test_labels is not None else None
            )
        except Exception:
            self.close()
            raise
        self.handle = SharedDatasetHandle(
            token=features.segment,
            name=dataset.name,
            features=features,
            labels=labels,
            test_features=test_features,
            test_labels=test_labels,
            metadata=dict(dataset.metadata),
        )
        self._finalizer = weakref.finalize(self, _release_segments, list(self._segments))

    def _export(self, array: np.ndarray) -> SharedArraySpec:
        contiguous = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, contiguous.nbytes))
        self._segments.append(segment)
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf)
        view[...] = contiguous
        return SharedArraySpec(
            segment=segment.name, shape=contiguous.shape, dtype=str(contiguous.dtype)
        )

    @property
    def segment_names(self) -> list[str]:
        """Names of the owned segments (inspection/testing)."""
        return [segment.name for segment in self._segments]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close and unlink every owned segment.  Safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None:
            finalizer.detach()
        _release_segments(self._segments)

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _release_segments(segments: list[shared_memory.SharedMemory]) -> None:
    for segment in segments:
        try:
            segment.close()
        except OSError:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass


_ATTACH_GUARD = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # Attaching registers the segment with the resource tracker, which would
    # unlink it when *this* process exits even though the creator still owns
    # it — and because the tracker's cache is a set shared across the process
    # tree, register/unregister pairs from sibling workers collide.  Python
    # 3.13 has ``track=False`` for exactly this; older versions need the
    # registration suppressed by hand (bpo-39959).
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    with _ATTACH_GUARD:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


# Consumer-side memo: one attached Dataset per handle token per process.
_ATTACHED: dict[str, Dataset] = {}
_ATTACHED_LOCK = threading.Lock()


def _export_closed(token: str) -> bool:
    """Whether the creator has closed the export ``token`` names.

    Closing unlinks the segments, so the export's first segment, whose name
    is the token, can no longer be opened.
    """
    try:
        probe = _attach_segment(token)
    except FileNotFoundError:
        return True
    probe.close()
    return False


def _release(datasets: list[Dataset]) -> None:
    """Forget retired attachments and close their local mappings.

    Empties ``datasets`` as it goes.  Each dataset's preprocessing memo
    entry is dropped first.  Closing a mapping unmaps the arrays over it,
    so a dataset something else still holds keeps its mappings; they close
    when it is collected.
    """
    from .prepared import release_prepared

    while datasets:
        dataset = datasets.pop()
        segments = dataset.metadata.get("shared_memory_segments", [])
        release_prepared(dataset)
        alive = weakref.ref(dataset)
        del dataset
        if alive() is not None:
            continue
        for segment in segments:
            try:
                segment.close()
            except OSError:
                pass


def attach_shared_dataset(handle: SharedDatasetHandle) -> Dataset:
    """Materialize ``handle`` as a :class:`Dataset`, memoized per process.

    The feature matrix is a zero-copy view over the shared segment (the
    attached ``SharedMemory`` objects are pinned in ``dataset.metadata`` to
    keep the mapping alive); label arrays are tiny and get copied by the
    ``Dataset`` constructor's dtype coercion.  A handle not attached yet
    first releases the attachments whose creator has closed its export.
    """
    with _ATTACHED_LOCK:
        cached = _ATTACHED.get(handle.token)
        if cached is not None:
            return cached
        retired = [_ATTACHED.pop(token) for token in list(_ATTACHED) if _export_closed(token)]
    _release(retired)

    segments: list[shared_memory.SharedMemory] = []

    def load(spec: SharedArraySpec | None) -> np.ndarray | None:
        if spec is None:
            return None
        segment = _attach_segment(spec.segment)
        segments.append(segment)
        return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)

    dataset = Dataset(
        name=handle.name,
        features=load(handle.features),
        labels=load(handle.labels),
        test_features=load(handle.test_features),
        test_labels=load(handle.test_labels),
        metadata={**handle.metadata, "shared_memory_segments": segments},
    )
    with _ATTACHED_LOCK:
        return _ATTACHED.setdefault(handle.token, dataset)


def clear_attached_cache() -> None:
    """Drop consumer-side attachments (test isolation hook).

    Closes the local mappings of the datasets nothing else holds; the
    segments themselves stay alive until the creator unlinks them.
    """
    with _ATTACHED_LOCK:
        datasets = list(_ATTACHED.values())
        _ATTACHED.clear()
    _release(datasets)
