"""Lifecycle of the shared preprocessed dataset cache.

Covers the satellite contract for the processes backend: segment creation,
reuse across requests (per-process memoization on both the attach and the
preprocessing layer), cleanup when the creator shuts down, and no leaked
``/dev/shm`` segments even when a worker process crashes mid-run.
"""

from __future__ import annotations

import gc
import os
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    SharedDataset,
    attach_shared_dataset,
    clear_attached_cache,
    clear_prepared_cache,
    prepare_dataset,
)
from repro.datasets import shared as shared_module
from repro.datasets.prepared import PreparedDataset
from repro.nn.preprocessing import StandardScaler


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_attached_cache()
    clear_prepared_cache()
    yield
    clear_attached_cache()
    clear_prepared_cache()


def _dataset(seed: int = 0, pre_split: bool = True) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        name="shared-test",
        features=rng.normal(size=(64, 6)),
        labels=rng.integers(0, 3, size=64),
        test_features=rng.normal(size=(16, 6)) if pre_split else None,
        test_labels=rng.integers(0, 3, size=16) if pre_split else None,
        metadata={"origin": "unit-test"},
    )


def _segments_exist(names: list[str]) -> bool:
    return any(os.path.exists(f"/dev/shm/{name}") for name in names)


def _segments_mapped(names: list[str]) -> bool:
    with open("/proc/self/maps", encoding="utf-8") as maps:
        mapped = maps.read()
    return any(f"/{name}" in mapped for name in names)


# ----------------------------------------------------------------------
# worker-process probes (module level so the pool can pickle them)
# ----------------------------------------------------------------------
def _probe_reuse(handle):
    first = attach_shared_dataset(handle)
    second = attach_shared_dataset(handle)
    prepared_first = prepare_dataset(first)
    prepared_second = prepare_dataset(second)
    return {
        "pid": os.getpid(),
        "attach_memoized": first is second,
        "prepare_memoized": prepared_first is prepared_second,
        "feature_sum": float(first.features.sum()),
        "has_test": first.has_test_split,
    }


def _probe_crash(handle):
    attach_shared_dataset(handle)
    os._exit(3)


class TestSharedDatasetLifecycle:
    def test_handle_is_small_and_picklable(self):
        dataset = _dataset()
        with SharedDataset(dataset) as shared:
            payload = pickle.dumps(shared.handle)
            assert len(payload) < 2048
            assert dataset.features.nbytes > len(payload)
            restored = pickle.loads(payload)
            assert restored == shared.handle

    def test_attach_roundtrip_matches_arrays(self):
        dataset = _dataset(seed=1)
        with SharedDataset(dataset) as shared:
            attached = attach_shared_dataset(shared.handle)
            assert attached.name == dataset.name
            assert np.array_equal(attached.features, dataset.features)
            assert np.array_equal(attached.labels, dataset.labels)
            assert np.array_equal(attached.test_features, dataset.test_features)
            assert np.array_equal(attached.test_labels, dataset.test_labels)
            assert attached.metadata["origin"] == "unit-test"
            assert attached.metadata["shared_memory_segments"]
            clear_attached_cache()

    def test_attach_is_memoized_per_process(self):
        dataset = _dataset(seed=2)
        with SharedDataset(dataset) as shared:
            first = attach_shared_dataset(shared.handle)
            second = attach_shared_dataset(shared.handle)
            assert first is second
            assert prepare_dataset(first) is prepare_dataset(second)
            clear_attached_cache()

    def test_reuse_across_requests_in_worker_processes(self):
        dataset = _dataset(seed=3)
        with SharedDataset(dataset) as shared:
            with ProcessPoolExecutor(max_workers=2) as pool:
                reports = list(pool.map(_probe_reuse, [shared.handle] * 6))
        assert all(report["attach_memoized"] for report in reports)
        assert all(report["prepare_memoized"] for report in reports)
        expected = float(dataset.features.sum())
        assert all(report["feature_sum"] == expected for report in reports)
        assert all(report["has_test"] for report in reports)

    def test_creator_close_unlinks_segments(self):
        dataset = _dataset(seed=4)
        shared = SharedDataset(dataset)
        names = shared.segment_names
        assert len(names) == 4
        assert _segments_exist(names)
        shared.close()
        assert shared.closed
        assert not _segments_exist(names)
        shared.close()  # idempotent

    def test_close_after_worker_crash_leaves_no_leaks(self):
        dataset = _dataset(seed=5)
        shared = SharedDataset(dataset)
        names = shared.segment_names
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_probe_crash, shared.handle)
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=30)
        # The crashed worker attached the segments but must not own them:
        # the creator's close still fully reclaims /dev/shm.
        assert _segments_exist(names)
        shared.close()
        assert not _segments_exist(names)

    def test_finalizer_backstop_releases_abandoned_exports(self):
        shared = SharedDataset(_dataset(seed=6))
        names = shared.segment_names
        assert _segments_exist(names)
        del shared
        gc.collect()
        assert not _segments_exist(names)

    def test_dataset_without_test_split(self):
        dataset = _dataset(seed=7, pre_split=False)
        with SharedDataset(dataset) as shared:
            assert shared.handle.test_features is None
            assert len(shared.segment_names) == 2
            attached = attach_shared_dataset(shared.handle)
            assert not attached.has_test_split
            clear_attached_cache()

    def test_attaching_releases_exports_their_creator_closed(self):
        first = SharedDataset(_dataset(seed=8))
        names = first.segment_names
        attached = attach_shared_dataset(first.handle)
        segments = attached.metadata["shared_memory_segments"]
        prepared = weakref.ref(prepare_dataset(attached))
        dataset = weakref.ref(attached)
        del attached
        assert _segments_mapped(names)
        first.close()
        with SharedDataset(_dataset(seed=9)) as second:
            attach_shared_dataset(second.handle)
            assert list(shared_module._ATTACHED) == [second.handle.token]
            assert dataset() is None
            assert prepared() is None
            assert all(segment.buf is None for segment in segments)
            assert not _segments_mapped(names)
            clear_attached_cache()

    def test_attaching_keeps_exports_still_open(self):
        with SharedDataset(_dataset(seed=10)) as first, SharedDataset(_dataset(seed=11)) as second:
            attached = attach_shared_dataset(first.handle)
            prepared = prepare_dataset(attached)
            attach_shared_dataset(second.handle)
            assert list(shared_module._ATTACHED) == [first.handle.token, second.handle.token]
            assert attach_shared_dataset(first.handle) is attached
            assert prepare_dataset(attached) is prepared
            clear_attached_cache()


class TestPreparedDataset:
    def test_artifacts_match_scratch_preprocessing(self):
        dataset = _dataset(seed=8)
        prepared = PreparedDataset(dataset)
        scratch = StandardScaler().fit(dataset.features)
        assert np.array_equal(prepared.scaler.mean_, scratch.mean_)
        assert np.array_equal(prepared.scaler.scale_, scratch.scale_)
        assert np.array_equal(prepared.standardized_features, scratch.transform(dataset.features))
        assert np.array_equal(
            prepared.standardized_test_features, scratch.transform(dataset.test_features)
        )

    def test_prepare_dataset_memoizes_per_object(self):
        dataset = _dataset(seed=11)
        assert prepare_dataset(dataset) is prepare_dataset(dataset)
        other = _dataset(seed=11)
        assert prepare_dataset(other) is not prepare_dataset(dataset)

    def test_missing_test_split_raises(self):
        prepared = PreparedDataset(_dataset(seed=12, pre_split=False))
        with pytest.raises(ValueError, match="no pre-split test partition"):
            _ = prepared.standardized_test_features
