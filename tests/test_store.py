"""Tests for the persistent cross-run evaluation store (``repro.store``).

Covers the serialization round-trip, the SQLite store itself (including the
corruption/migration/readonly failure modes), the read-through/write-behind
cache tier, warm-started searches, and concurrent writes from two processes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle
import sqlite3
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import EvaluationCache
from repro.core.candidate import CandidateEvaluation
from repro.core.config import ECADConfig, StoreConfig
from repro.core.engine import EngineConfig, EvolutionaryEngine
from repro.core.errors import ConfigurationError, StoreError
from repro.core.fitness import FitnessEvaluator
from repro.core.objectives import ObjectiveSpec
from repro.core.genome import CoDesignGenome, CoDesignSearchSpace
from repro.core.search import CoDesignSearch
from repro.datasets.registry import load_dataset
from repro.hardware.synthesis import SynthesisReport
from repro.store import (
    SCHEMA_VERSION,
    EvaluationStore,
    StoreBackedCache,
    dataset_fingerprint,
    problem_digest,
)
from repro.store import serialize
from repro.store.serialize import (
    StoredEvaluation,
    dumps,
    evaluation_from_payload,
    evaluation_to_payload,
)

from repro.hardware.results import HardwareMetrics

PROBLEM = "problem-a"
OTHER_PROBLEM = "problem-b"


def make_fake_evaluation(genome, accuracy, fpga_outputs=0.0, gpu_outputs=0.0):
    """A CandidateEvaluation with synthetic hardware metrics.

    Mirrors the helper in ``tests/conftest.py``, duplicated here because the
    root pytest run also loads ``benchmarks/conftest.py`` under the module
    name ``conftest`` — importing from it by name is ambiguous.
    """

    def metrics(device, outputs):
        if outputs <= 0:
            return None
        return HardwareMetrics(
            device_name=device,
            batch_size=1024,
            potential_gflops=100.0,
            effective_gflops=min(50.0, outputs / 1e5),
            total_time_seconds=1024 / outputs,
            outputs_per_second=outputs,
            latency_seconds=1e-4,
            efficiency=min(1.0, outputs / 1e7),
        )

    return CandidateEvaluation(
        genome=genome,
        accuracy=accuracy,
        parameter_count=genome.mlp.total_hidden_neurons * 10,
        fpga_metrics=metrics("fpga", fpga_outputs),
        gpu_metrics=metrics("gpu", gpu_outputs),
        evaluation_seconds=0.01,
    )


def _publish(cache: EvaluationCache, evaluation: CandidateEvaluation) -> None:
    """Publish one evaluation the way the search does: ``complete`` under its genome."""
    cache.complete(evaluation.genome, evaluation)


def _evaluations(space: CoDesignSearchSpace, count: int, seed: int = 0):
    """Distinct fake evaluations with descending accuracy."""
    rng = np.random.default_rng(seed)
    evaluations, keys = [], set()
    while len(evaluations) < count:
        genome = space.random_genome(rng)
        if genome.cache_key() in keys:
            continue
        keys.add(genome.cache_key())
        accuracy = 0.95 - 0.01 * len(evaluations)
        evaluations.append(make_fake_evaluation(genome, accuracy, fpga_outputs=1e6))
    return evaluations


class TestSerialization:
    def test_full_round_trip_is_exact(self, sample_genome):
        original = make_fake_evaluation(sample_genome, 0.87654321, fpga_outputs=1.23e6,
                                        gpu_outputs=4.56e6)
        original = CandidateEvaluation(
            genome=original.genome,
            accuracy=original.accuracy,
            accuracy_std=0.0123,
            parameter_count=original.parameter_count,
            fpga_metrics=original.fpga_metrics,
            gpu_metrics=original.gpu_metrics,
            synthesis=SynthesisReport(
                device_name="arria10", alm_used=1000, alm_utilization=0.1,
                m20k_used=50, m20k_utilization=0.05, dsp_used=64,
                dsp_utilization=0.04, fmax_mhz=250.0, power_watts=30.0,
            ),
            train_seconds=1.5,
            evaluation_seconds=2.25,
            extras={"simulation": {"folds": 3}},
        )
        back = evaluation_from_payload(json.loads(json.dumps(evaluation_to_payload(original))))
        assert back.genome == original.genome
        assert back.accuracy == original.accuracy
        assert back.accuracy_std == original.accuracy_std
        assert back.parameter_count == original.parameter_count
        assert back.fpga_metrics == original.fpga_metrics
        assert back.gpu_metrics == original.gpu_metrics
        assert back.synthesis == original.synthesis
        assert back.train_seconds == original.train_seconds
        assert back.evaluation_seconds == original.evaluation_seconds
        assert back.extras == original.extras
        assert not back.from_cache

    def test_metrics_extras_survive(self, sample_genome):
        evaluation = make_fake_evaluation(sample_genome, 0.8, fpga_outputs=1e6)
        metrics = evaluation.fpga_metrics
        object.__setattr__(metrics, "extras", {"per_layer": [0.1, 0.2]})
        back = evaluation_from_payload(evaluation_to_payload(evaluation))
        assert back.fpga_metrics.extras == {"per_layer": [0.1, 0.2]}

    def test_malformed_payload_raises_store_error(self):
        with pytest.raises(StoreError):
            evaluation_from_payload({"accuracy": 0.5})

    def test_payload_of_the_requested_genome_reuses_it(self, sample_genome, small_search_space):
        payload = evaluation_to_payload(make_fake_evaluation(sample_genome, 0.8, fpga_outputs=1e6))
        requested = CoDesignGenome.from_dict(sample_genome.to_dict())
        assert evaluation_from_payload(payload, requested).genome is requested
        decoded = evaluation_from_payload(payload)
        assert decoded.genome == sample_genome and decoded.genome is not requested
        # Any other genome is decoded from the payload, not taken from the caller.
        other = next(g for g in _evaluations(small_search_space, 4) if g.genome != sample_genome).genome
        back = evaluation_from_payload(payload, other)
        assert back.genome == sample_genome and back.genome is not other

    def test_malformed_genome_raises_store_error_with_a_requested_genome(self, sample_genome):
        payload = evaluation_to_payload(make_fake_evaluation(sample_genome, 0.8))
        payload["genome"]["mlp"]["activations"] = ["no-such-activation"] * len(
            sample_genome.mlp.hidden_layers
        )
        with pytest.raises(StoreError):
            evaluation_from_payload(payload, sample_genome)
        del payload["genome"]["hardware"]
        with pytest.raises(StoreError):
            evaluation_from_payload(payload, sample_genome)


class TestEvaluationStore:
    def test_put_get_round_trip(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        evaluation = _evaluations(small_search_space, 1)[0]
        store.put(PROBLEM, evaluation)
        back = store.get(PROBLEM, evaluation.genome.cache_key())
        assert back is not None
        assert back.genome == evaluation.genome
        assert back.accuracy == evaluation.accuracy
        assert store.get(PROBLEM, "unknown-key") is None
        assert store.get(OTHER_PROBLEM, evaluation.genome.cache_key()) is None
        # A store hit looked up with its genome carries that very object.
        hit = store.get(PROBLEM, evaluation.genome.cache_key(), genome=evaluation.genome)
        assert hit.genome is evaluation.genome
        store.close()

    def test_failed_evaluations_are_not_stored(self, tmp_path, sample_genome):
        store = EvaluationStore(tmp_path / "store.sqlite")
        failed = CandidateEvaluation(genome=sample_genome, error="worker exploded")
        assert store.put_many(PROBLEM, [failed]) == 0
        assert store.count() == 0
        store.close()

    def test_best_orders_by_accuracy_and_respects_limit(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        evaluations = _evaluations(small_search_space, 6)
        store.put_many(PROBLEM, evaluations)
        best = store.best(PROBLEM, limit=3)
        assert [e.accuracy for e in best] == sorted(
            (e.accuracy for e in evaluations), reverse=True
        )[:3]
        assert store.best(OTHER_PROBLEM, limit=3) == []
        assert store.best(PROBLEM, limit=0) == []
        store.close()

    def test_replacing_a_row_keeps_counts_stable(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        evaluation = _evaluations(small_search_space, 1)[0]
        store.put(PROBLEM, evaluation)
        store.put(PROBLEM, evaluation)
        assert store.count(PROBLEM) == 1
        store.close()

    def test_prune_keep_best_per_problem(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        store.put_many(PROBLEM, _evaluations(small_search_space, 5, seed=0))
        store.put_many(OTHER_PROBLEM, _evaluations(small_search_space, 4, seed=99))
        removed = store.prune(keep_best=2)
        assert removed == 5
        assert store.count(PROBLEM) == 2
        assert store.count(OTHER_PROBLEM) == 2
        # The survivors are the best rows.
        assert [e.accuracy for e in store.best(PROBLEM, 10)] == [0.95, 0.94]
        with pytest.raises(StoreError):
            store.prune()
        store.close()

    def test_stats_problems_and_export(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        store.put_many(PROBLEM, _evaluations(small_search_space, 3))
        stats = store.stats()
        assert stats["evaluations"] == 3
        assert stats["problems"] == 1
        assert stats["schema_version"] == SCHEMA_VERSION
        problems = store.problems()
        assert problems[0]["problem_digest"] == PROBLEM
        assert problems[0]["best_accuracy"] == pytest.approx(0.95)
        rows = store.export_rows()
        assert len(rows) == 3
        assert rows[0]["problem_digest"] == PROBLEM
        assert "accuracy" in rows[0] and "cache_key" in rows[0]
        store.close()

    # ------------------------------------------------- corruption/migration
    def test_truncated_file_raises_store_error(self, tmp_path):
        path = tmp_path / "broken.sqlite"
        path.write_bytes(b"SQLite format 3\x00this-is-not-a-real-database")
        with pytest.raises(StoreError, match="not a valid evaluation store"):
            EvaluationStore(path)

    def test_foreign_sqlite_file_raises_store_error(self, tmp_path):
        path = tmp_path / "other.sqlite"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE something_else (x INTEGER)")
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="not an evaluation store"):
            EvaluationStore(path)

    def test_missing_table_raises_store_error_on_reads(self, tmp_path):
        # Valid schema metadata but a dropped evaluations table: opening
        # succeeds (the version check passes), reads must fail loudly.
        path = tmp_path / "store.sqlite"
        EvaluationStore(path).close()
        connection = sqlite3.connect(path)
        connection.execute("DROP TABLE evaluations")
        connection.commit()
        connection.close()
        store = EvaluationStore(path, readonly=True)
        with pytest.raises(StoreError, match="cannot read"):
            store.count()
        with pytest.raises(StoreError, match="cannot read"):
            store.problems()
        with pytest.raises(StoreError, match="cannot read"):
            store.export_rows()
        store.close()

    def test_schema_version_mismatch_raises_store_error(self, tmp_path, small_search_space):
        path = tmp_path / "store.sqlite"
        store = EvaluationStore(path)
        store.put_many(PROBLEM, _evaluations(small_search_space, 1))
        store.close()
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE store_meta SET value='99' WHERE key='schema_version'"
        )
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="schema version 99"):
            EvaluationStore(path)

    # --------------------------------------------------------------- readonly
    def test_readonly_store(self, tmp_path, small_search_space):
        path = tmp_path / "store.sqlite"
        writer = EvaluationStore(path)
        evaluations = _evaluations(small_search_space, 2)
        writer.put_many(PROBLEM, evaluations)
        writer.close()

        reader = EvaluationStore(path, readonly=True)
        assert reader.count() == 2
        assert reader.get(PROBLEM, evaluations[0].genome.cache_key()) is not None
        with pytest.raises(StoreError, match="read-only"):
            reader.put(PROBLEM, evaluations[0])
        with pytest.raises(StoreError, match="read-only"):
            reader.prune(keep_best=1)
        reader.close()

    def test_readonly_missing_file_raises(self, tmp_path):
        with pytest.raises(StoreError, match="not found"):
            EvaluationStore(tmp_path / "absent.sqlite", readonly=True)

    def test_in_memory_store(self, small_search_space):
        store = EvaluationStore(":memory:")
        store.put_many(PROBLEM, _evaluations(small_search_space, 2))
        assert store.count() == 2
        store.close()


class TestStoreBackedCache:
    def test_read_through_promotes_into_memory(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        evaluation = _evaluations(small_search_space, 1)[0]
        store.put(PROBLEM, evaluation)
        cache = StoreBackedCache(store, PROBLEM)
        first, owner = cache.lookup_or_reserve(evaluation.genome)
        assert not owner and first is not None and first.from_cache
        assert cache.store_statistics.hits == 1
        # The second lookup is answered by the memory tier.
        second, owner = cache.lookup_or_reserve(evaluation.genome)
        assert not owner and second is not None
        assert cache.store_statistics.hits == 1
        store.close()

    def test_write_behind_flushes_in_batches(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        cache = StoreBackedCache(store, PROBLEM, write_batch_size=3)
        evaluations = _evaluations(small_search_space, 4)
        for evaluation in evaluations[:2]:
            _publish(cache, evaluation)
        assert store.count() == 0  # still queued
        _publish(cache, evaluations[2])
        assert store.count() == 3  # batch threshold crossed
        _publish(cache, evaluations[3])
        assert cache.flush() == 1
        assert store.count() == 4
        assert cache.flush() == 0
        store.close()

    def test_lookup_or_reserve_serves_store_hits_without_ownership(
        self, tmp_path, small_search_space
    ):
        store = EvaluationStore(tmp_path / "store.sqlite")
        evaluation = _evaluations(small_search_space, 1)[0]
        store.put(PROBLEM, evaluation)
        cache = StoreBackedCache(store, PROBLEM)
        served, owner = cache.lookup_or_reserve(evaluation.genome)
        assert not owner
        assert served is not None and served.from_cache
        assert cache.in_flight_count == 0
        store.close()

    def test_complete_queues_fresh_results(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        cache = StoreBackedCache(store, PROBLEM, write_batch_size=1)
        evaluation = _evaluations(small_search_space, 1)[0]
        served, owner = cache.lookup_or_reserve(evaluation.genome)
        assert owner and served is None
        cache.complete(evaluation.genome, evaluation)
        assert store.count() == 1
        store.close()

    def test_readonly_store_disables_writes(self, tmp_path, small_search_space):
        path = tmp_path / "store.sqlite"
        writer = EvaluationStore(path)
        evaluations = _evaluations(small_search_space, 2)
        writer.put(PROBLEM, evaluations[0])
        writer.close()
        store = EvaluationStore(path, readonly=True)
        cache = StoreBackedCache(store, PROBLEM, write_batch_size=1)
        assert cache.lookup_or_reserve(evaluations[0].genome)[0] is not None
        _publish(cache, evaluations[1])
        assert cache.flush() == 0
        assert store.count() == 1
        store.close()

    def test_failed_and_cached_results_are_not_persisted(self, tmp_path, small_search_space):
        store = EvaluationStore(tmp_path / "store.sqlite")
        cache = StoreBackedCache(store, PROBLEM, write_batch_size=1)
        evaluation = _evaluations(small_search_space, 1)[0]
        _publish(cache, CandidateEvaluation(genome=evaluation.genome, error="boom"))
        _publish(cache, evaluation.as_cache_copy())
        cache.flush()
        assert store.count() == 0
        store.close()


def _rich_evaluation(genome, evaluation_seconds=2.25):
    """An evaluation with every deferred field set to a non-default value."""
    base = make_fake_evaluation(genome, 0.87654321, fpga_outputs=1.23e6, gpu_outputs=4.56e6)
    return CandidateEvaluation(
        genome=genome,
        accuracy=base.accuracy,
        accuracy_std=0.0123,
        parameter_count=base.parameter_count,
        fpga_metrics=base.fpga_metrics,
        gpu_metrics=base.gpu_metrics,
        synthesis=SynthesisReport(
            device_name="arria10", alm_used=1000, alm_utilization=0.1,
            m20k_used=50, m20k_utilization=0.05, dsp_used=64,
            dsp_utilization=0.04, fmax_mhz=250.0, power_watts=30.0,
        ),
        train_seconds=1.5,
        evaluation_seconds=evaluation_seconds,
        extras={"simulation": {"folds": 3}},
    )


def _decoded(record: StoredEvaluation) -> bool:
    """Whether a served record has decoded its payload."""
    return "_payload_record" in record.__dict__


class TestServedRecord:
    """A store hit looked up with its genome is served from its row."""

    @pytest.mark.parametrize("shards", [0, 4])
    def test_equals_the_decoded_cache_copy(self, tmp_path, sample_genome, shards):
        evaluation = _rich_evaluation(sample_genome)
        store = EvaluationStore(tmp_path / "store", shards=shards)
        store.put(PROBLEM, evaluation)
        served = store.get(PROBLEM, sample_genome.cache_key(), genome=sample_genome)
        expected = evaluation_from_payload(
            json.loads(dumps(evaluation)), sample_genome
        ).as_cache_copy()
        assert isinstance(served, StoredEvaluation)
        assert served.genome is sample_genome
        assert served.from_cache and served.error == "" and not served.failed
        assert served.accuracy == expected.accuracy
        assert served.fpga_outputs_per_second == expected.fpga_outputs_per_second
        assert served.evaluation_seconds == expected.evaluation_seconds
        assert not _decoded(served)  # the columns answered everything so far
        assert pickle.loads(pickle.dumps(served)) == expected
        assert not _decoded(served)
        assert served == expected and expected == served and not served != expected
        assert served.summary() == expected.summary()
        assert _decoded(served)
        assert pickle.loads(pickle.dumps(served)) == expected
        assert served == store.get(PROBLEM, sample_genome.cache_key(), genome=sample_genome)
        different = CandidateEvaluation(
            genome=sample_genome, accuracy=served.accuracy, from_cache=True,
            evaluation_seconds=served.evaluation_seconds,
        )
        assert served != different and different != served
        store.close()

    def test_as_cache_copy_does_not_decode(self, tmp_path, sample_genome):
        store = EvaluationStore(tmp_path / "store.sqlite")
        store.put(PROBLEM, _rich_evaluation(sample_genome))
        cache = StoreBackedCache(store, PROBLEM)
        served, owner = cache.lookup_or_reserve(sample_genome)
        assert not owner and isinstance(served, StoredEvaluation)
        # No second copy: the memory tier holds the served record itself.
        assert cache.values() == [served] and cache.values()[0] is served
        again, _ = cache.lookup_or_reserve(sample_genome)
        copy = served.as_cache_copy()
        assert again is not served and copy.from_cache
        assert not any(_decoded(record) for record in (served, again, copy))
        assert copy == served == again
        store.close()

    def test_concurrent_first_reads_decode_to_equal_values(
        self, tmp_path, sample_genome, monkeypatch
    ):
        threads = 4
        store = EvaluationStore(tmp_path / "store.sqlite")
        store.put(PROBLEM, _rich_evaluation(sample_genome))
        served = store.get(PROBLEM, sample_genome.cache_key(), genome=sample_genome)
        barrier = threading.Barrier(threads, timeout=10)
        decodes = []
        original_loads = serialize.loads

        def overlapping_loads(payload, genome=None):
            barrier.wait()  # every reader is inside its own first decode
            decodes.append(genome)
            return original_loads(payload, genome)

        monkeypatch.setattr(serialize, "loads", overlapping_loads)
        results = [None] * threads

        def read(index):
            results[index] = (served.fpga_metrics, served.synthesis, served.extras)

        workers = [threading.Thread(target=read, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=20)
        assert not any(worker.is_alive() for worker in workers)
        assert len(decodes) == threads
        assert all(result == results[0] for result in results)
        # One decoded record was published; every reader now sees it.
        assert served.payload_record() is served.payload_record()
        assert results[0] == (served.fpga_metrics, served.synthesis, served.extras)
        store.close()

    def _raw_row(self, genome, payload, key=None, accuracy=None, fpga=None, seconds=None):
        data = json.loads(payload) if isinstance(payload, str) else None
        return (
            PROBLEM,
            key or genome.cache_key(),
            data["accuracy"] if accuracy is None else accuracy,
            data["fpga_metrics"]["outputs_per_second"] if fpga is None else fpga,
            data["evaluation_seconds"] if seconds is None else seconds,
            1.0,
            payload,
        )

    @pytest.mark.parametrize(
        "case, problem",
        [
            ("genome", "genome"),
            ("accuracy", "accuracy"),
            ("fpga", "fpga_outputs_per_second"),
            ("seconds", "evaluation_seconds"),
            ("error", "error"),
            ("not_json", "not valid JSON"),
            ("no_accuracy", "malformed"),
        ],
    )
    def test_disagreeing_or_malformed_payload_raises_on_first_decode(
        self, tmp_path, sample_genome, small_search_space, case, problem
    ):
        evaluation = _rich_evaluation(sample_genome)
        payload = dumps(evaluation)
        row = self._raw_row(sample_genome, payload)
        other = _evaluations(small_search_space, 1)[0]
        if case == "genome":
            other_payload = dumps(_rich_evaluation(other.genome))
            row = self._raw_row(sample_genome, other_payload, key=sample_genome.cache_key())
        elif case == "accuracy":
            row = self._raw_row(sample_genome, payload, accuracy=0.5)
        elif case == "fpga":
            row = self._raw_row(sample_genome, payload, fpga=1.0)
        elif case == "seconds":
            row = self._raw_row(sample_genome, payload, seconds=9.0)
        elif case == "error":
            data = json.loads(payload)
            data["error"] = "worker exploded"
            row = self._raw_row(sample_genome, json.dumps(data))
        elif case == "not_json":
            row = row[:6] + ("{not json",)
        else:
            data = json.loads(payload)
            del data["accuracy"]
            row = row[:6] + (json.dumps(data),)
        store = EvaluationStore(tmp_path / "store.sqlite")
        store.put_raw_rows([row])
        served = store.get(PROBLEM, sample_genome.cache_key(), genome=sample_genome)
        assert served is not None  # the row itself reads; the payload waits
        with pytest.raises(StoreError, match=problem) as raised:
            served.extras
        message = str(raised.value)
        assert PROBLEM in message and sample_genome.cache_key() in message
        store.close()

    def test_lookup_without_a_genome_decodes_at_once(self, tmp_path, sample_genome):
        evaluation = _rich_evaluation(sample_genome)
        store = EvaluationStore(tmp_path / "store.sqlite")
        store.put(PROBLEM, evaluation)
        back = store.get(PROBLEM, sample_genome.cache_key())
        assert type(back) is CandidateEvaluation and not back.from_cache
        assert back.as_cache_copy() == store.get(
            PROBLEM, sample_genome.cache_key(), genome=sample_genome
        )
        store.close()

    def test_old_store_files_read_unchanged(self, tmp_path, sample_genome, small_search_space):
        path = tmp_path / "store.sqlite"
        evaluations = [_rich_evaluation(sample_genome)] + _evaluations(small_search_space, 3)
        # An older writer left out the optional payload keys; they default.
        sparse = json.loads(dumps(evaluations[1]))
        for optional in ("accuracy_std", "parameter_count", "gpu_metrics", "synthesis",
                         "train_seconds", "error", "extras"):
            del sparse[optional]
        writer = EvaluationStore(path)
        writer.put_many(PROBLEM, [evaluations[0]] + evaluations[2:])
        writer.put_raw_rows([self._raw_row(evaluations[1].genome, json.dumps(sparse))])
        writer.close()
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        with EvaluationStore(path, readonly=True) as store:
            for evaluation in evaluations:
                key = evaluation.genome.cache_key()
                served = store.get(PROBLEM, key, genome=evaluation.genome)
                assert served == store.get(PROBLEM, key).as_cache_copy()
                assert served.summary() == store.get(PROBLEM, key).as_cache_copy().summary()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before

    def test_every_run_reads_through_to_the_store(self, tmp_path, sample_genome):
        store = EvaluationStore(tmp_path / "store.sqlite")
        store.put(PROBLEM, _rich_evaluation(sample_genome))
        for _ in range(2):  # two runs, two caches: no tier outlives its run
            cache = StoreBackedCache(store, PROBLEM)
            served, owner = cache.lookup_or_reserve(sample_genome)
            assert not owner and served is not None
            assert cache.store_statistics.hits == 1
        store.close()


_SECONDS = st.one_of(
    st.floats(min_value=0.0, max_value=1e308, allow_nan=False),
    st.sampled_from([5e-324, 1.1125369292536007e-308, 1.7976931348623157e308, 0.0]),
)


def _float64_bytes(value: float) -> bytes:
    return struct.pack("<d", value)


class TestStoredColumns:
    """The typed columns a hit is served from equal the payload's values."""

    # The search space fixture is frozen, so sharing it across examples is safe.
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e308)),
                _SECONDS,
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_columns_equal_the_payload_through_a_shard_round_trip(
        self, tmp_path_factory, small_search_space, rows, seed
    ):
        from repro.store import migrate_store

        root = tmp_path_factory.mktemp("columns")
        genomes = [e.genome for e in _evaluations(small_search_space, len(rows), seed=seed)]
        evaluations = [
            CandidateEvaluation(
                genome=genome,
                accuracy=accuracy,
                fpga_metrics=None if outputs is None else HardwareMetrics(
                    device_name="fpga", batch_size=1024, potential_gflops=1.0,
                    effective_gflops=1.0, total_time_seconds=1.0,
                    outputs_per_second=outputs, latency_seconds=0.0, efficiency=0.5,
                ),
                evaluation_seconds=seconds,
            )
            for genome, (accuracy, outputs, seconds) in zip(genomes, rows)
        ]
        single = root / "single.sqlite"
        with EvaluationStore(single) as store:
            assert store.put_many(PROBLEM, evaluations) == len(evaluations)
            written = list(store.iter_raw_rows())
        migrate_store(single, shards=4, output_path=root / "sharded")
        with EvaluationStore(root / "sharded") as sharded, EvaluationStore(
            root / "back.sqlite"
        ) as back:
            back.put_raw_rows(sharded.iter_raw_rows())
            returned = list(back.iter_raw_rows())
        assert returned == written
        by_key = {e.genome.cache_key(): e for e in evaluations}
        for _, key, accuracy, fpga, seconds, _, payload in written + returned:
            data = json.loads(payload)
            from_payload = (
                data["accuracy"],
                data["fpga_metrics"]["outputs_per_second"] if data["fpga_metrics"] else 0.0,
                data["evaluation_seconds"],
            )
            original = by_key[key]
            from_record = (
                original.accuracy,
                original.fpga_outputs_per_second,
                original.evaluation_seconds,
            )
            for column, value, source in zip((accuracy, fpga, seconds), from_payload, from_record):
                assert type(column) is float
                assert _float64_bytes(column) == _float64_bytes(value) == _float64_bytes(source)


def _run_engine(space, evaluator, cache, seed=3, population=6, budget=18, initial=None):
    fitness = FitnessEvaluator([ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()])
    engine = EvolutionaryEngine(
        space=space,
        evaluator=evaluator,
        fitness=fitness,
        config=EngineConfig(population_size=population, max_evaluations=budget, seed=seed),
        cache=cache,
        initial_genomes=initial,
    )
    return engine.run()


class TestWarmStartEngine:
    def test_cold_store_run_is_bit_identical_to_storeless_run(
        self, tmp_path, small_search_space, fake_evaluator
    ):
        plain = _run_engine(small_search_space, fake_evaluator, EvaluationCache())
        store = EvaluationStore(tmp_path / "store.sqlite")
        stored = _run_engine(
            small_search_space, fake_evaluator, StoreBackedCache(store, PROBLEM)
        )
        assert [
            (e.genome.cache_key(), e.accuracy) for e in plain.history.evaluations()
        ] == [(e.genome.cache_key(), e.accuracy) for e in stored.history.evaluations()]
        assert plain.best.genome == stored.best.genome
        store.close()

    def test_second_run_is_served_from_the_store(
        self, tmp_path, small_search_space, fake_evaluator
    ):
        store = EvaluationStore(tmp_path / "store.sqlite")
        cache = StoreBackedCache(store, PROBLEM)
        first = _run_engine(small_search_space, fake_evaluator, cache)
        cache.flush()
        assert first.statistics.models_evaluated > 0

        warm_cache = StoreBackedCache(store, PROBLEM)
        second = _run_engine(small_search_space, fake_evaluator, warm_cache)
        assert second.statistics.models_evaluated == 0
        assert warm_cache.store_statistics.hits == second.statistics.cache_hits
        assert second.best.genome == first.best.genome
        store.close()

    def test_warm_start_seeds_population_from_best_stored(
        self, tmp_path, small_search_space, fake_evaluator
    ):
        store = EvaluationStore(tmp_path / "store.sqlite")
        cache = StoreBackedCache(store, PROBLEM)
        _run_engine(small_search_space, fake_evaluator, cache)
        cache.flush()

        seeds = [e.genome for e in store.best(PROBLEM, limit=4)]
        outcome = _run_engine(
            small_search_space,
            fake_evaluator,
            StoreBackedCache(store, PROBLEM),
            seed=4,  # different RNG stream: seeds must still come from the store
            initial=seeds,
        )
        assert outcome.statistics.warm_start_seeds == len(seeds)
        best_stored_key = seeds[0].cache_key()
        seen_keys = {e.genome.cache_key() for e in outcome.history.evaluations()}
        assert best_stored_key in seen_keys
        store.close()

    def test_stale_seeds_outside_the_space_are_filtered(
        self, tmp_path, small_search_space, fake_evaluator, sample_genome
    ):
        # A 64-neuron layer is outside small_search_space's layer-size menu,
        # mimicking a store row written under an older, wider configuration.
        from repro.core.genome import MLPGenome

        stale = sample_genome.with_mlp(
            MLPGenome(hidden_layers=(64,), activations=("relu",))
        )
        assert not small_search_space.contains(stale)
        outcome = _run_engine(
            small_search_space, fake_evaluator, EvaluationCache(), initial=[stale]
        )
        assert outcome.statistics.warm_start_seeds == 0


class TestSearchIntegration:
    @pytest.fixture
    def dataset(self):
        return load_dataset("credit-g", seed=0, scale=0.08)

    def _config(self, dataset, store_path="", warm_start=0, **overrides):
        settings = dict(
            population_size=4,
            max_evaluations=8,
            seed=0,
            training_epochs=2,
            store=StoreConfig(path=str(store_path), warm_start=warm_start),
        )
        settings.update(overrides)
        return ECADConfig.template_for_dataset(dataset, **settings)

    def test_search_populates_store_and_reruns_from_it(self, tmp_path, dataset):
        path = tmp_path / "store.sqlite"
        cold = CoDesignSearch(dataset, config=self._config(dataset, path)).run()
        assert cold.statistics.store_hits == 0
        assert cold.statistics.store_misses == cold.statistics.models_evaluated

        warm = CoDesignSearch(dataset, config=self._config(dataset, path)).run()
        assert warm.statistics.models_evaluated == 0
        assert warm.statistics.store_hits > 0
        assert warm.best_accuracy == cold.best_accuracy

    def test_warm_start_through_the_config(self, tmp_path, dataset):
        path = tmp_path / "store.sqlite"
        CoDesignSearch(dataset, config=self._config(dataset, path)).run()
        warm = CoDesignSearch(
            dataset, config=self._config(dataset, path, warm_start=4)
        ).run()
        assert warm.statistics.warm_start_seeds == 4

    def test_different_seed_is_a_different_problem(self, tmp_path, dataset):
        path = tmp_path / "store.sqlite"
        CoDesignSearch(dataset, config=self._config(dataset, path)).run()
        other = CoDesignSearch(
            dataset, config=self._config(dataset, path, seed=1)
        ).run()
        # Nothing is shared across problem digests: everything re-evaluates.
        assert other.statistics.store_hits == 0

    def test_process_backend_search_writes_to_the_store(self, tmp_path, dataset):
        path = tmp_path / "store.sqlite"
        config = self._config(dataset, path, backend="processes", eval_parallelism=2)
        result = CoDesignSearch(dataset, config=config).run()
        assert result.statistics.models_evaluated > 0
        with EvaluationStore(path, readonly=True) as store:
            assert store.count() == result.statistics.models_evaluated


class TestDigests:
    def test_dataset_fingerprint_tracks_content(self):
        a = load_dataset("credit-g", seed=0, scale=0.05)
        b = load_dataset("credit-g", seed=0, scale=0.05)
        c = load_dataset("credit-g", seed=1, scale=0.05)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert dataset_fingerprint(a) != dataset_fingerprint(c)

    def test_problem_digest_sensitivity(self):
        dataset = load_dataset("credit-g", seed=0, scale=0.05)
        base = ECADConfig.template_for_dataset(dataset)
        assert problem_digest(base, dataset) == problem_digest(base, dataset)
        from dataclasses import replace

        assert problem_digest(replace(base, seed=7), dataset) != problem_digest(base, dataset)
        assert problem_digest(
            replace(base, training_epochs=99), dataset
        ) != problem_digest(base, dataset)
        # Search-shape fields do not change what one evaluation computes.
        assert problem_digest(
            replace(base, max_evaluations=999, population_size=50, eval_parallelism=4),
            dataset,
        ) == problem_digest(base, dataset)


class TestStoreConfig:
    def test_defaults_are_inactive(self):
        config = StoreConfig()
        assert not config.active
        assert StoreConfig(path="x.sqlite").active
        assert not StoreConfig(path="x.sqlite", enabled=False).active

    def test_negative_warm_start_rejected(self):
        with pytest.raises(ConfigurationError):
            StoreConfig(warm_start=-1)

    def test_ecad_config_round_trip_and_strictness(self):
        dataset = load_dataset("credit-g", seed=0, scale=0.05)
        config = ECADConfig.template_for_dataset(
            dataset, store=StoreConfig(path="s.sqlite", warm_start=3)
        )
        back = ECADConfig.from_dict(config.to_dict())
        assert back.store == config.store
        bad = config.to_dict()
        bad["store"]["warm_starts"] = 3
        del bad["store"]["warm_start"]
        with pytest.raises(ConfigurationError, match="store"):
            ECADConfig.from_dict(bad)

    def test_cli_warm_start_without_store_errors(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="warm-start needs a store"):
            main(["run", "--dataset", "credit-g", "--scale", "0.05",
                  "--warm-start", "4", "--dry-run"])
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "ws", "datasets": ["credit-g"], "seeds": [0], "scale": 0.05,
        }))
        with pytest.raises(SystemExit, match="warm-start needs a store"):
            main(["sweep", "--spec", str(spec_path), "--warm-start", "4", "--dry-run"])
        # With a store attached the same invocations are accepted.
        assert main(["run", "--dataset", "credit-g", "--scale", "0.05",
                     "--warm-start", "4", "--store", str(tmp_path / "s.sqlite"),
                     "--dry-run"]) == 0

    def test_store_fields_reachable_via_set_overrides(self):
        dataset = load_dataset("credit-g", seed=0, scale=0.05)
        config = ECADConfig.template_for_dataset(dataset)
        updated = config.with_overrides(["store.path=results/e.sqlite", "store.warm_start=5"])
        assert updated.store.path == "results/e.sqlite"
        assert updated.store.warm_start == 5


# ---------------------------------------------------------------------------
# Two-process concurrent writes (the process-pool deployment shape).
# ---------------------------------------------------------------------------


def _write_worker(path: str, seed: int, count: int) -> int:
    """Child-process body: open the shared store and write ``count`` rows."""
    space = CoDesignSearchSpace()
    rng = np.random.default_rng(seed)
    store = EvaluationStore(path)
    written = 0
    try:
        for index in range(count):
            genome = space.random_genome(rng)
            evaluation = CandidateEvaluation(
                genome=genome, accuracy=0.5 + 0.4 * rng.random(), parameter_count=1
            )
            written += store.put_many(f"problem-{seed}", [evaluation])
    finally:
        store.close()
    return written


class TestConcurrentWrites:
    def test_two_processes_write_the_same_store(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        EvaluationStore(path).close()  # create the schema up front
        count = 25
        processes = [
            multiprocessing.Process(target=_write_worker, args=(path, seed, count))
            for seed in (1, 2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        with EvaluationStore(path, readonly=True) as store:
            assert store.count("problem-1") + store.count("problem-2") == 2 * count
            # Every row is still readable (no torn writes).
            assert len(store.export_rows()) == 2 * count

    def test_threaded_writers_share_one_store_instance(self, tmp_path, small_search_space):
        import threading

        store = EvaluationStore(tmp_path / "store.sqlite")
        evaluations = _evaluations(small_search_space, 24)
        chunks = [evaluations[i::4] for i in range(4)]
        threads = [
            threading.Thread(target=store.put_many, args=(PROBLEM, chunk))
            for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.count(PROBLEM) == 24
        store.close()


# ---------------------------------------------------------------------------
# Flush retry: transient write failures must never lose rows.
# ---------------------------------------------------------------------------


class _FlakyStore:
    """Repository wrapper that fails the first ``failures`` put_many calls.

    Stands in for a store hitting transient multi-writer contention
    (``database is locked`` past the busy timeout).
    """

    def __init__(self, store, failures):
        self._store = store
        self.failures = failures
        self.put_calls = 0

    @property
    def readonly(self):
        return self._store.readonly

    @property
    def path(self):
        return self._store.path

    def get(self, problem_digest, genome_key, genome=None):
        return self._store.get(problem_digest, genome_key, genome)

    def put_many(self, problem_digest, evaluations):
        self.put_calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise StoreError("database is locked (injected)")
        return self._store.put_many(problem_digest, evaluations)


class TestFlushRetry:
    def test_transient_failure_is_retried_within_one_flush(
        self, tmp_path, small_search_space
    ):
        store = EvaluationStore(tmp_path / "store.sqlite")
        flaky = _FlakyStore(store, failures=2)
        cache = StoreBackedCache(
            flaky, PROBLEM, write_batch_size=1,
            write_retries=3, retry_backoff_seconds=0.0,
        )
        _publish(cache, _evaluations(small_search_space, 1)[0])
        assert store.count(PROBLEM) == 1
        assert cache.store_statistics.writes == 1
        assert cache.store_statistics.write_retries == 2
        assert cache.store_statistics.write_errors == 0
        assert cache.pending_writes() == 0
        store.close()

    def test_exhausted_retries_requeue_the_batch_without_loss(
        self, tmp_path, small_search_space
    ):
        store = EvaluationStore(tmp_path / "store.sqlite")
        flaky = _FlakyStore(store, failures=10_000)
        cache = StoreBackedCache(
            flaky, PROBLEM, write_batch_size=64,
            write_retries=2, retry_backoff_seconds=0.0,
        )
        evaluations = _evaluations(small_search_space, 5)
        for evaluation in evaluations:
            _publish(cache, evaluation)
        assert cache.flush() == 0
        # The batch is re-queued, not discarded: no write_errors, no loss.
        assert cache.pending_writes() == 5
        assert cache.store_statistics.write_errors == 0
        assert store.count(PROBLEM) == 0
        # The store heals (contention passes): the next flush persists all.
        flaky.failures = 0
        assert cache.flush() == 5
        assert store.count(PROBLEM) == 5
        assert cache.store_statistics.write_errors == 0
        assert cache.pending_writes() == 0
        store.close()

    def test_backlog_cap_drops_oldest_and_counts_write_errors(
        self, tmp_path, small_search_space
    ):
        store = EvaluationStore(tmp_path / "store.sqlite")
        flaky = _FlakyStore(store, failures=10_000)
        cache = StoreBackedCache(
            flaky, PROBLEM, write_batch_size=4, max_pending_writes=4,
            write_retries=0, retry_backoff_seconds=0.0,
        )
        evaluations = _evaluations(small_search_space, 6)
        for evaluation in evaluations:
            _publish(cache, evaluation)
        cache.flush()
        # Only the overflow beyond max_pending_writes is dropped (oldest
        # first); only those rows count as write_errors.
        assert cache.pending_writes() == 4
        assert cache.store_statistics.write_errors == 2
        flaky.failures = 0
        assert cache.flush() == 4
        keys = {e.genome.cache_key() for e in evaluations[2:]}
        assert {
            row["cache_key"] for row in store.export_rows(problem_digest=PROBLEM)
        } == keys
        store.close()

    def test_failed_auto_flush_backs_off_but_explicit_flush_retries(
        self, tmp_path, small_search_space
    ):
        store = EvaluationStore(tmp_path / "store.sqlite")
        flaky = _FlakyStore(store, failures=1)
        cache = StoreBackedCache(
            flaky, PROBLEM, write_batch_size=1,
            write_retries=0, retry_backoff_seconds=0.0,
        )
        evaluations = _evaluations(small_search_space, 2)
        _publish(cache, evaluations[0])  # auto-flush fails once, row re-queued
        assert cache.pending_writes() == 1
        # The cooldown suppresses the queue-triggered flush for the next row…
        _publish(cache, evaluations[1])
        assert cache.pending_writes() == 2
        assert flaky.put_calls == 1
        # …but an explicit flush (end of run) always reaches the store.
        assert cache.flush() == 2
        assert store.count(PROBLEM) == 2
        store.close()


# ---------------------------------------------------------------------------
# Sharded store: routing, auto-detection, and single-file equivalence.
# ---------------------------------------------------------------------------


def _strip_timestamps(rows):
    return [
        {key: value for key, value in row.items() if key != "created_at"}
        for row in rows
    ]


class TestShardedStore:
    PROBLEMS = ("problem-a", "problem-b", "problem-c", "problem-d", "problem-e")

    def _populated_pair(self, tmp_path, space):
        """The same rows written to a single-file and a 4-shard store."""
        single = EvaluationStore(tmp_path / "single.sqlite")
        sharded = EvaluationStore(tmp_path / "sharded", shards=4)
        by_problem = {}
        for index, problem in enumerate(self.PROBLEMS):
            evaluations = _evaluations(space, 4, seed=index)
            by_problem[problem] = evaluations
            single.put_many(problem, evaluations)
            sharded.put_many(problem, evaluations)
        return single, sharded, by_problem

    def test_each_problem_lives_in_exactly_one_shard(self, tmp_path, small_search_space):
        from repro.store import ShardedStore

        store = EvaluationStore(tmp_path / "sharded", shards=4)
        for index, problem in enumerate(self.PROBLEMS):
            store.put_many(problem, _evaluations(small_search_space, 3, seed=index))
        repository = store.repository
        assert isinstance(repository, ShardedStore)
        for problem in self.PROBLEMS:
            owner = repository.shard_index(problem)
            for shard_index_, shard_path in enumerate(repository.shard_paths):
                with EvaluationStore(shard_path) as shard:
                    expected = 3 if shard_index_ == owner else 0
                    assert shard.count(problem) == expected
        store.close()

    def test_sharded_layout_is_auto_detected_on_reopen(self, tmp_path, small_search_space):
        path = tmp_path / "sharded"
        store = EvaluationStore(path, shards=4)
        store.put_many(PROBLEM, _evaluations(small_search_space, 5))
        store.close()
        # No shard count passed: the layout descriptor wins.
        reopened = EvaluationStore(path)
        assert reopened.shards == 4
        assert reopened.count() == 5
        reopened.close()
        # Read-only opening works too (the `ecad store` commands).
        reader = EvaluationStore(path, readonly=True)
        assert reader.count() == 5
        with pytest.raises(StoreError, match="read-only"):
            reader.put_many(PROBLEM, _evaluations(small_search_space, 1))
        reader.close()

    def test_shard_count_mismatch_is_rejected(self, tmp_path):
        EvaluationStore(tmp_path / "sharded", shards=4).close()
        with pytest.raises(StoreError, match="4 shard"):
            EvaluationStore(tmp_path / "sharded", shards=2)

    def test_single_file_with_shards_requested_points_at_migrate(
        self, tmp_path, small_search_space
    ):
        path = tmp_path / "store.sqlite"
        store = EvaluationStore(path)
        store.put_many(PROBLEM, _evaluations(small_search_space, 1))
        store.close()
        with pytest.raises(StoreError, match="ecad store migrate"):
            EvaluationStore(path, shards=4)

    def test_foreign_directory_is_rejected(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(StoreError, match="not a sharded evaluation store"):
            EvaluationStore(tmp_path / "plain")

    def test_sharded_matches_single_file_reads(self, tmp_path, small_search_space):
        single, sharded, by_problem = self._populated_pair(tmp_path, small_search_space)
        try:
            assert sharded.count() == single.count()
            for problem, evaluations in by_problem.items():
                assert sharded.count(problem) == single.count(problem)
                for evaluation in evaluations:
                    key = evaluation.genome.cache_key()
                    lhs = single.get(problem, key)
                    rhs = sharded.get(problem, key)
                    assert evaluation_to_payload(lhs) == evaluation_to_payload(rhs)
                # best(): identical candidates in identical order.
                assert [
                    e.genome.cache_key() for e in single.best(problem, 3)
                ] == [e.genome.cache_key() for e in sharded.best(problem, 3)]
            # Whole-store fan-outs aggregate to the same result.
            assert _strip_timestamps(sharded.export_rows()) == _strip_timestamps(
                single.export_rows()
            )
            assert [
                (p["problem_digest"], p["evaluations"], p["best_accuracy"])
                for p in sharded.problems()
            ] == [
                (p["problem_digest"], p["evaluations"], p["best_accuracy"])
                for p in single.problems()
            ]
        finally:
            single.close()
            sharded.close()

    def test_sharded_matches_single_file_warm_start(self, tmp_path, small_search_space):
        single, sharded, _ = self._populated_pair(tmp_path, small_search_space)
        try:
            for problem in self.PROBLEMS:
                single_seeds = [g.genome.cache_key() for g in single.best(problem, 8)]
                sharded_seeds = [g.genome.cache_key() for g in sharded.best(problem, 8)]
                assert single_seeds == sharded_seeds
        finally:
            single.close()
            sharded.close()

    def test_sharded_prune_fans_out(self, tmp_path, small_search_space):
        _, sharded, by_problem = self._populated_pair(tmp_path, small_search_space)
        removed = sharded.prune(keep_best=1)
        assert removed == sum(len(v) - 1 for v in by_problem.values())
        assert sharded.count() == len(by_problem)
        sharded.close()

    def test_stats_size_includes_wal_sidecars(self, tmp_path, small_search_space):
        from pathlib import Path

        path = tmp_path / "store.sqlite"
        store = EvaluationStore(path)
        store.put_many(PROBLEM, _evaluations(small_search_space, 8))
        sidecar = Path(str(path) + "-wal")
        assert sidecar.exists() and sidecar.stat().st_size > 0
        expected = sum(
            candidate.stat().st_size
            for candidate in (path, sidecar, Path(str(path) + "-shm"))
            if candidate.exists()
        )
        stats = store.stats()
        assert stats["size_bytes"] == expected
        # The old main-file-only measurement undercounted.
        assert stats["size_bytes"] > path.stat().st_size
        assert stats["shards"] == 1
        store.close()

    def test_sharded_stats_aggregate_every_shard(self, tmp_path, small_search_space):
        _, sharded, by_problem = self._populated_pair(tmp_path, small_search_space)
        stats = sharded.stats()
        assert stats["shards"] == 4
        assert stats["evaluations"] == sum(len(v) for v in by_problem.values())
        assert stats["problems"] == len(by_problem)
        total = sum(
            entry.stat().st_size
            for entry in (tmp_path / "sharded").iterdir()
        )
        assert stats["size_bytes"] == total
        sharded.close()

    def test_export_rows_iter_streams_lazily_and_matches_export_rows(
        self, tmp_path, small_search_space
    ):
        for name, shards in (("single.sqlite", 1), ("sharded", 4)):
            store = EvaluationStore(tmp_path / name, shards=shards)
            for index, problem in enumerate(self.PROBLEMS):
                store.put_many(problem, _evaluations(small_search_space, 4, seed=index))
            iterator = store.export_rows_iter(chunk_size=3)
            assert iter(iterator) is iterator  # a true stream, not a list
            assert _strip_timestamps(list(iterator)) == _strip_timestamps(
                store.export_rows()
            )
            per_problem = list(
                store.export_rows_iter(problem_digest=self.PROBLEMS[0], chunk_size=2)
            )
            assert _strip_timestamps(per_problem) == _strip_timestamps(
                store.export_rows(problem_digest=self.PROBLEMS[0])
            )
            store.close()


class TestStoreMigration:
    def _seed_single(self, path, space, problems=3, rows=4):
        store = EvaluationStore(path)
        for index in range(problems):
            store.put_many(f"problem-{index}", _evaluations(space, rows, seed=index))
        store.close()
        return problems * rows

    def test_dry_run_reports_without_writing(self, tmp_path, small_search_space):
        from repro.store import migrate_store

        path = tmp_path / "store.sqlite"
        total = self._seed_single(path, small_search_space)
        report = migrate_store(path, shards=4, dry_run=True)
        assert report["rows"] == total
        assert sum(report["rows_per_shard"]) == total
        assert report["dry_run"] is True
        assert path.is_file()  # untouched
        assert not (tmp_path / "store.sqlite.migrating").exists()

    def test_migrate_to_output_directory(self, tmp_path, small_search_space):
        from repro.store import migrate_store

        path = tmp_path / "store.sqlite"
        total = self._seed_single(path, small_search_space)
        report = migrate_store(path, shards=4, output_path=tmp_path / "out")
        assert report["rows"] == total
        assert path.is_file()  # source preserved on --output migrations
        with EvaluationStore(tmp_path / "out") as sharded:
            assert sharded.shards == 4
            assert sharded.count() == total
            with EvaluationStore(path, readonly=True) as single:
                assert _strip_timestamps(sharded.export_rows()) == _strip_timestamps(
                    single.export_rows()
                )

    def test_in_place_migration_swaps_and_keeps_backup(
        self, tmp_path, small_search_space
    ):
        from repro.store import migrate_store

        path = tmp_path / "store.sqlite"
        total = self._seed_single(path, small_search_space)
        report = migrate_store(path, shards=4)
        assert report["backup"] == str(path) + ".pre-shard.bak"
        assert path.is_dir()
        assert (tmp_path / "store.sqlite.pre-shard.bak").is_file()
        # Same path, now sharded — every consumer reopens transparently.
        with EvaluationStore(path) as store:
            assert store.shards == 4
            assert store.count() == total

    def test_resharding_a_sharded_store(self, tmp_path, small_search_space):
        from repro.store import migrate_store

        path = tmp_path / "store.sqlite"
        total = self._seed_single(path, small_search_space)
        migrate_store(path, shards=2)
        report = migrate_store(path, shards=8, output_path=tmp_path / "wide")
        assert report["rows"] == total
        with EvaluationStore(tmp_path / "wide") as store:
            assert store.shards == 8
            assert store.count() == total

    def test_existing_target_is_refused(self, tmp_path, small_search_space):
        from repro.store import migrate_store

        path = tmp_path / "store.sqlite"
        self._seed_single(path, small_search_space)
        (tmp_path / "out").mkdir()
        with pytest.raises(StoreError, match="already exists"):
            migrate_store(path, shards=4, output_path=tmp_path / "out")


# ---------------------------------------------------------------------------
# Multi-process contention: M processes x K threads, zero lost rows.
# ---------------------------------------------------------------------------


def _contended_cache_writer(path: str, seed: int, threads: int, rows: int) -> None:
    """Child-process body: hammer one store through StoreBackedCache.

    A deliberately tiny busy timeout makes ``database is locked`` likely
    under multi-writer contention; the flush retry/re-queue path must still
    persist every row.
    """
    import threading
    import time as _time

    space = CoDesignSearchSpace()
    store = EvaluationStore(path, timeout_seconds=0.05)
    failures = []

    def body(thread_index: int) -> None:
        try:
            cache = StoreBackedCache(
                store,
                f"contended-{seed}-{thread_index}",
                write_batch_size=1,
                write_retries=4,
                retry_backoff_seconds=0.005,
            )
            for evaluation in _evaluations(space, rows, seed=seed * 100 + thread_index):
                _publish(cache, evaluation)
            deadline = _time.monotonic() + 60.0
            while cache.pending_writes():
                cache.flush()
                if _time.monotonic() > deadline:
                    raise RuntimeError("pending writes never drained")
        except BaseException as exc:  # noqa: BLE001 - reported via exit code
            failures.append(exc)

    workers = [
        threading.Thread(target=body, args=(index,)) for index in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    store.close()
    if failures:
        raise SystemExit(1)


class TestContendedWrites:
    PROCESSES = 3
    THREADS = 2
    ROWS = 8

    def _hammer(self, path: str) -> None:
        processes = [
            multiprocessing.Process(
                target=_contended_cache_writer,
                args=(path, seed, self.THREADS, self.ROWS),
            )
            for seed in range(self.PROCESSES)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=180)
            assert process.exitcode == 0

    def test_no_rows_lost_on_a_contended_single_file(self, tmp_path):
        path = str(tmp_path / "contended.sqlite")
        EvaluationStore(path).close()
        self._hammer(path)
        with EvaluationStore(path, readonly=True) as store:
            assert store.count() == self.PROCESSES * self.THREADS * self.ROWS

    def test_no_rows_lost_on_a_contended_sharded_store(self, tmp_path):
        path = str(tmp_path / "contended-sharded")
        EvaluationStore(path, shards=4).close()
        self._hammer(path)
        with EvaluationStore(path, readonly=True) as store:
            assert store.shards == 4
            assert store.count() == self.PROCESSES * self.THREADS * self.ROWS


class TestShardsConfig:
    def test_shards_round_trip_and_validation(self):
        config = StoreConfig(path="s", shards=4)
        assert StoreConfig.from_dict(config.__dict__).shards == 4
        with pytest.raises(ConfigurationError, match="shards"):
            StoreConfig(shards=0)
        with pytest.raises(ConfigurationError, match="shards"):
            StoreConfig(shards=2048)

    def test_shards_reachable_via_set_overrides(self):
        dataset = load_dataset("credit-g", seed=0, scale=0.05)
        config = ECADConfig.template_for_dataset(dataset)
        updated = config.with_overrides(
            ["store.path=results/e.sqlite", "store.shards=4"]
        )
        assert updated.store.shards == 4
        back = ECADConfig.from_dict(updated.to_dict())
        assert back.store.shards == 4

    def test_search_opens_a_sharded_store_from_config(self, tmp_path):
        dataset = load_dataset("credit-g", seed=0, scale=0.05)
        config = ECADConfig.template_for_dataset(
            dataset,
            store=StoreConfig(path=str(tmp_path / "sharded"), shards=4),
        )
        search = CoDesignSearch(dataset, config=config)
        try:
            assert search.store is not None
            assert search.store.shards == 4
        finally:
            search.close()

    def test_service_config_store_shards(self):
        from repro.core.config import ServiceConfig

        config = ServiceConfig(store_path="s", store_shards=4)
        assert ServiceConfig.from_dict(config.to_dict()).store_shards == 4
        with pytest.raises(ConfigurationError, match="store_shards"):
            ServiceConfig(store_shards=0)
