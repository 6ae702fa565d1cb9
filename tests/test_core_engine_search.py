"""Unit and integration tests for the evolutionary engine, configuration file
and the high-level CoDesignSearch / RandomSearch front-ends."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.core.callbacks import Callback, ProgressLogger, SearchHistory
from repro.core.candidate import CandidateEvaluation
from repro.core.config import ECADConfig, HardwareTargetConfig, NNAStructureConfig, OptimizationTargetConfig
from repro.core.engine import EngineConfig, EvolutionaryEngine
from repro.core.errors import ConfigurationError, SearchError
from repro.core.fitness import FitnessEvaluator, ParetoRankingEvaluator
from repro.core.objectives import ObjectiveSpec
from repro.core.genome import CoDesignSearchSpace, HardwareSearchSpace, MLPSearchSpace
from repro.core.search import CoDesignSearch, RandomSearch
from repro.hardware.device import ARRIA10_GX1150
from repro.hardware.systolic import GridSearchSpace


def _fitness() -> FitnessEvaluator:
    return FitnessEvaluator([ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()])


class TestEngineConfig:
    def test_defaults_are_valid(self):
        EngineConfig()

    def test_validation(self):
        with pytest.raises(SearchError):
            EngineConfig(population_size=1)
        with pytest.raises(SearchError):
            EngineConfig(population_size=10, max_evaluations=5)
        with pytest.raises(SearchError):
            EngineConfig(crossover_probability=1.5)
        with pytest.raises(SearchError):
            EngineConfig(max_stagnation_steps=-1)

    def test_tournament_size_validation(self):
        with pytest.raises(SearchError):
            EngineConfig(tournament_size=0)
        with pytest.raises(SearchError):
            EngineConfig(tournament_size=-3)
        with pytest.raises(SearchError):
            EngineConfig(population_size=4, tournament_size=5)
        # At most the whole population is legal.
        EngineConfig(population_size=4, tournament_size=4)

    def test_nsga2_tournament_size_validation(self):
        with pytest.raises(SearchError):
            EngineConfig(nsga2_tournament_size=1)
        with pytest.raises(SearchError):
            EngineConfig(population_size=4, nsga2_tournament_size=5)
        assert EngineConfig().nsga2_tournament_size == 2  # classic binary
        EngineConfig(population_size=4, nsga2_tournament_size=4)

    def test_eval_parallelism_validation(self):
        with pytest.raises(SearchError):
            EngineConfig(eval_parallelism=0)
        with pytest.raises(SearchError):
            EngineConfig(eval_parallelism=-2)
        EngineConfig(eval_parallelism=8)


class TestEvolutionaryEngine:
    def _engine(self, small_search_space, fake_evaluator, **overrides) -> EvolutionaryEngine:
        config = EngineConfig(
            population_size=overrides.pop("population_size", 6),
            max_evaluations=overrides.pop("max_evaluations", 40),
            seed=overrides.pop("seed", 0),
            **overrides,
        )
        return EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=_fitness(),
            config=config,
            device=ARRIA10_GX1150,
        )

    def test_run_produces_full_population_and_history(self, small_search_space, fake_evaluator):
        engine = self._engine(small_search_space, fake_evaluator)
        result = engine.run()
        assert len(result.population) == 6
        assert len(result.history) == result.statistics.models_generated
        assert result.statistics.models_generated == 40
        assert result.statistics.models_evaluated + result.statistics.cache_hits == 40
        assert result.best.fitness_value >= result.population.worst.fitness_value

    def test_search_improves_over_initial_population(self, small_search_space, fake_evaluator):
        """Scored in one common reference frame, the final population's best must
        not be worse than the best of the random initial population."""
        engine = self._engine(small_search_space, fake_evaluator, max_evaluations=60)
        result = engine.run()
        fitness = _fitness()
        all_evaluations = result.history.evaluations()
        scores = fitness.score_population(all_evaluations)
        initial_best = max(score.fitness for score in scores[:6])
        final_keys = {member.genome.cache_key() for member in result.population}
        final_best = max(
            score.fitness
            for evaluation, score in zip(all_evaluations, scores)
            if evaluation.genome.cache_key() in final_keys
        )
        assert final_best >= initial_best - 1e-9

    def test_same_seed_reproduces_search(self, small_search_space, fake_evaluator):
        result_a = self._engine(small_search_space, fake_evaluator, seed=7).run()
        result_b = self._engine(small_search_space, fake_evaluator, seed=7).run()
        keys_a = [r.evaluation.genome.cache_key() for r in result_a.history.records]
        keys_b = [r.evaluation.genome.cache_key() for r in result_b.history.records]
        assert keys_a == keys_b

    def test_cache_hits_counted_for_duplicate_candidates(self, small_search_space, fake_evaluator):
        engine = self._engine(
            small_search_space,
            fake_evaluator,
            max_evaluations=80,
            avoid_duplicate_genomes=False,
        )
        result = engine.run()
        # with duplicates allowed in a tiny space, the cache must be exercised
        assert result.statistics.cache_hits > 0
        assert result.statistics.models_evaluated < result.statistics.models_generated

    def test_evaluator_failures_do_not_crash_the_search(self, small_search_space):
        calls = {"count": 0}

        def flaky_evaluator(genome):
            calls["count"] += 1
            if calls["count"] % 3 == 0:
                raise RuntimeError("simulated worker failure")
            from tests.conftest import make_fake_evaluation

            return make_fake_evaluation(genome, accuracy=0.7, fpga_outputs=1e6, gpu_outputs=1e6)

        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=flaky_evaluator,
            fitness=_fitness(),
            config=EngineConfig(population_size=4, max_evaluations=20, seed=0),
            device=ARRIA10_GX1150,
        )
        result = engine.run()
        failed = [r for r in result.history.records if r.evaluation.failed]
        assert failed  # failures were recorded...
        assert not result.best.evaluation.failed  # ...but never became the best candidate

    def test_generational_mode_runs(self, small_search_space, fake_evaluator):
        engine = self._engine(small_search_space, fake_evaluator, steady_state=False, max_evaluations=30)
        result = engine.run()
        assert result.statistics.models_generated <= 30
        assert len(result.population) >= 2

    def test_stagnation_early_stop(self, small_search_space):
        def constant_evaluator(genome):
            from tests.conftest import make_fake_evaluation

            return make_fake_evaluation(genome, accuracy=0.5, fpga_outputs=1e5, gpu_outputs=1e5)

        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=constant_evaluator,
            fitness=_fitness(),
            config=EngineConfig(
                population_size=4, max_evaluations=200, seed=0, max_stagnation_steps=5
            ),
            device=ARRIA10_GX1150,
        )
        result = engine.run()
        assert result.statistics.models_generated < 200

    def test_custom_callback_hooks_invoked(self, small_search_space, fake_evaluator):
        events = {"start": 0, "evaluations": 0, "steps": 0, "end": 0}

        class Recorder(Callback):
            def on_search_start(self, population):
                events["start"] += 1

            def on_evaluation(self, evaluation, fitness, step):
                events["evaluations"] += 1

            def on_step_end(self, population, step):
                events["steps"] += 1

            def on_search_end(self, population):
                events["end"] += 1

        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=_fitness(),
            config=EngineConfig(population_size=4, max_evaluations=12, seed=0),
            device=ARRIA10_GX1150,
            callbacks=[Recorder()],
        )
        engine.run()
        assert events["start"] == 1
        assert events["end"] == 1
        assert events["evaluations"] == 12
        assert events["steps"] == 8  # 12 evaluations - 4 initial population members

    def test_serial_statistics_report_throughput_fields(self, small_search_space, fake_evaluator):
        result = self._engine(small_search_space, fake_evaluator).run()
        stats = result.statistics
        assert stats.peak_in_flight == 1
        assert stats.evaluations_per_second > 0
        as_dict = stats.to_dict()
        assert as_dict["peak_in_flight"] == 1
        assert as_dict["evaluations_per_second"] == stats.evaluations_per_second

    def test_progress_logger_prints(self, small_search_space, fake_evaluator, capsys):
        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=_fitness(),
            config=EngineConfig(population_size=4, max_evaluations=12, seed=0),
            device=ARRIA10_GX1150,
            callbacks=[ProgressLogger(interval=1)],
        )
        engine.run()
        assert "best fitness" in capsys.readouterr().out


class TestAsyncEvolutionaryEngine:
    """The asynchronous batched pipeline (eval_parallelism > 1)."""

    def _engine(self, small_search_space, evaluator, **overrides) -> EvolutionaryEngine:
        config = EngineConfig(
            population_size=overrides.pop("population_size", 6),
            max_evaluations=overrides.pop("max_evaluations", 40),
            seed=overrides.pop("seed", 0),
            eval_parallelism=overrides.pop("eval_parallelism", 4),
            **overrides,
        )
        return EvolutionaryEngine(
            space=small_search_space,
            evaluator=evaluator,
            fitness=_fitness(),
            config=config,
            device=ARRIA10_GX1150,
        )

    def test_async_run_respects_budget_and_fills_population(self, small_search_space, fake_evaluator):
        result = self._engine(small_search_space, fake_evaluator).run()
        stats = result.statistics
        assert stats.models_generated == 40
        assert stats.models_evaluated + stats.cache_hits == 40
        assert len(result.history) == 40
        assert len(result.population) == 6
        assert not result.best.evaluation.failed
        assert 1 <= stats.peak_in_flight <= 4
        assert stats.evaluations_per_second > 0

    def test_async_keeps_multiple_evaluations_in_flight(self, small_search_space):
        import threading as _threading
        import time as _time

        in_flight = {"now": 0, "peak": 0}
        lock = _threading.Lock()

        def slow_evaluator(genome):
            with lock:
                in_flight["now"] += 1
                in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            _time.sleep(0.01)
            with lock:
                in_flight["now"] -= 1
            from tests.conftest import make_fake_evaluation

            neurons = genome.mlp.total_hidden_neurons
            return make_fake_evaluation(genome, min(0.99, 0.5 + neurons / 200.0), 1e6, 1e6)

        result = self._engine(small_search_space, slow_evaluator, eval_parallelism=4).run()
        assert in_flight["peak"] > 1
        assert result.statistics.peak_in_flight > 1

    def test_concurrent_duplicates_trigger_exactly_one_fresh_evaluation(self, small_search_space):
        import threading as _threading
        import time as _time

        calls: dict[str, int] = {}
        lock = _threading.Lock()

        def counting_evaluator(genome):
            with lock:
                calls[genome.cache_key()] = calls.get(genome.cache_key(), 0) + 1
            _time.sleep(0.003)
            from tests.conftest import make_fake_evaluation

            neurons = genome.mlp.total_hidden_neurons
            return make_fake_evaluation(genome, min(0.99, 0.5 + neurons / 200.0), 1e6, 1e6)

        result = self._engine(
            small_search_space,
            counting_evaluator,
            max_evaluations=80,
            avoid_duplicate_genomes=False,
        ).run()
        stats = result.statistics
        # Duplicates occurred in a tiny space...
        assert stats.cache_hits > 0
        # ...but no genome was ever evaluated twice: repeats were answered by
        # the cache or coalesced onto the in-flight evaluation.
        assert max(calls.values()) == 1
        assert stats.models_evaluated == len(calls)
        assert stats.models_evaluated + stats.cache_hits == stats.models_generated

    def test_async_evaluator_failures_do_not_crash_the_search(self, small_search_space):
        import threading as _threading

        counter = {"count": 0}
        lock = _threading.Lock()

        def flaky_evaluator(genome):
            with lock:
                counter["count"] += 1
                count = counter["count"]
            if count % 3 == 0:
                raise RuntimeError("simulated worker failure")
            from tests.conftest import make_fake_evaluation

            return make_fake_evaluation(genome, accuracy=0.7, fpga_outputs=1e6, gpu_outputs=1e6)

        result = self._engine(
            small_search_space, flaky_evaluator, population_size=4, max_evaluations=20
        ).run()
        failed = [r for r in result.history.records if r.evaluation.failed]
        assert failed
        assert not result.best.evaluation.failed

    def test_async_stagnation_early_stop(self, small_search_space):
        def constant_evaluator(genome):
            from tests.conftest import make_fake_evaluation

            return make_fake_evaluation(genome, accuracy=0.5, fpga_outputs=1e5, gpu_outputs=1e5)

        result = self._engine(
            small_search_space,
            constant_evaluator,
            population_size=4,
            max_evaluations=200,
            max_stagnation_steps=5,
        ).run()
        assert result.statistics.models_generated < 200

    def test_default_parallelism_uses_the_serial_path(self, small_search_space, fake_evaluator):
        """eval_parallelism=1 must reproduce the serial engine bit for bit."""
        serial = self._engine(small_search_space, fake_evaluator, eval_parallelism=1, seed=11).run()
        again = self._engine(small_search_space, fake_evaluator, eval_parallelism=1, seed=11).run()
        keys_a = [r.evaluation.genome.cache_key() for r in serial.history.records]
        keys_b = [r.evaluation.genome.cache_key() for r in again.history.records]
        assert keys_a == keys_b
        assert serial.best.genome.cache_key() == again.best.genome.cache_key()
        assert serial.statistics.to_dict().keys() == again.statistics.to_dict().keys()
        for field in ("models_generated", "models_evaluated", "cache_hits", "peak_in_flight"):
            assert getattr(serial.statistics, field) == getattr(again.statistics, field)


def _run_digest(history, statistics, members=()) -> str:
    """Hash of everything a seeded run decides: history, trace, survivors, counters."""
    digest = hashlib.sha256()
    for record in history.records:
        evaluation = record.evaluation
        digest.update(
            repr(
                (
                    record.step,
                    evaluation.genome.cache_key(),
                    evaluation.accuracy,
                    evaluation.error,
                    evaluation.from_cache,
                    record.fitness.fitness,
                )
            ).encode()
        )
    digest.update(repr(history.best_fitness_trace).encode())
    digest.update(repr(list(members)).encode())
    counters = {
        name: value
        for name, value in statistics.to_dict().items()
        if not name.endswith("seconds") and name != "evaluations_per_second"
    }
    digest.update(repr(sorted(counters.items())).encode())
    return digest.hexdigest()[:16]


def _flaky(fake_evaluator):
    calls = {"count": 0}

    def evaluate(genome):
        calls["count"] += 1
        if calls["count"] % 3 == 0:
            raise RuntimeError("simulated worker failure")
        return fake_evaluator(genome)

    return evaluate


def _constant(genome):
    from tests.conftest import make_fake_evaluation

    return make_fake_evaluation(genome, accuracy=0.5, fpga_outputs=1e5, gpu_outputs=1e5)


def _engine_digest(
    space, evaluator, nsga2=False, initial_genomes=None, selection=None, **overrides
) -> str:
    config = EngineConfig(
        population_size=overrides.pop("population_size", 6),
        max_evaluations=overrides.pop("max_evaluations", 40),
        seed=overrides.pop("seed", 3),
        selection=selection or ("nsga2" if nsga2 else "tournament"),
        **overrides,
    )
    objectives = [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]
    result = EvolutionaryEngine(
        space=space,
        evaluator=evaluator,
        fitness=ParetoRankingEvaluator(objectives) if nsga2 else FitnessEvaluator(objectives),
        config=config,
        device=ARRIA10_GX1150,
        initial_genomes=initial_genomes,
    ).run()
    members = [
        (member.genome.cache_key(), member.fitness_value, member.birth_step)
        for member in result.population
    ]
    return _run_digest(result.history, result.statistics, members)


def _warm_start_genomes(space):
    rng = np.random.default_rng(99)
    drawn = [space.random_genome(rng, device=ARRIA10_GX1150) for _ in range(3)]
    return [drawn[0], drawn[1], drawn[0], drawn[2]]


def _random_search_digest(space, evaluator) -> str:
    result = RandomSearch(
        space=space,
        evaluator=evaluator,
        objectives=[ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()],
        max_evaluations=30,
        seed=3,
        device=ARRIA10_GX1150,
    ).run()
    return _run_digest(
        result.history, result.statistics, [result.best_fitness_candidate.genome.cache_key()]
    )


def _surrogate_digest(dataset, evaluator, tmp_path, base) -> str:
    from repro.core.config import SurrogateConfig

    from tests.test_surrogate import _search

    _search(dataset, tmp_path, strategy="evolutionary").run(evaluator=evaluator)
    result = _search(
        dataset,
        tmp_path,
        strategy="surrogate",
        surrogate=SurrogateConfig(min_rows=16, pool_size=4, base=base),
    ).run(evaluator=evaluator)
    assert result.statistics.surrogate_screened > 0
    return _run_digest(
        result.history, result.statistics, [result.best_fitness_candidate.genome.cache_key()]
    )


#: Digests of seeded runs recorded before the engine's loops were merged into
#: one evaluation pipeline; any drift in breeding, scoring, landing order or
#: counters shows up here.  ``roulette`` and ``rank`` pin the two schemes
#: whose parent draws are weighted.
_SEEDED_DIGESTS = {
    "serial_weighted_sum": "f6f425649b27acc7",
    "serial_nsga2": "88eaef893d0dbad1",
    "raising_evaluator": "8d28f0de7ee0cbeb",
    "stagnation_stop": "b73fb0fff5ece534",
    "no_dedup": "3f92c139743774c4",
    "warm_start": "ab15f2b012ba3d16",
    "generational_weighted_sum": "f420bae9269c946f",
    "generational_nsga2": "01ce9c91b2b3b829",
    "window1_batch4": "e5b0e89178f7e3ba",
    "window1_batch4_failures": "b9a5698421b8aa81",
    "roulette": "a503db58b45c1122",
    "rank": "cd792410c78b6810",
    "random_search": "3461b3ec87e8acd6",
    "surrogate_weighted_sum": "fb8e47be4701b6a1",
    "surrogate_nsga2": "8c82b823111aa0ea",
}


class TestSeededRunDigests:
    @pytest.mark.parametrize("case", sorted(_SEEDED_DIGESTS))
    def test_seeded_run_matches_recorded_digest(
        self, case, small_search_space, fake_evaluator, tiny_dataset, tmp_path
    ):
        space = small_search_space
        runs = {
            "serial_weighted_sum": lambda: _engine_digest(space, fake_evaluator),
            "serial_nsga2": lambda: _engine_digest(space, fake_evaluator, nsga2=True),
            "raising_evaluator": lambda: _engine_digest(space, _flaky(fake_evaluator)),
            "stagnation_stop": lambda: _engine_digest(
                space, _constant, max_evaluations=200, max_stagnation_steps=5
            ),
            "no_dedup": lambda: _engine_digest(
                space, fake_evaluator, max_evaluations=80, avoid_duplicate_genomes=False
            ),
            "warm_start": lambda: _engine_digest(
                space, fake_evaluator, initial_genomes=_warm_start_genomes(space)
            ),
            "generational_weighted_sum": lambda: _engine_digest(
                space, fake_evaluator, steady_state=False
            ),
            "generational_nsga2": lambda: _engine_digest(
                space, fake_evaluator, nsga2=True, steady_state=False
            ),
            "window1_batch4": lambda: _engine_digest(space, fake_evaluator, eval_batch_size=4),
            "window1_batch4_failures": lambda: _engine_digest(
                space, _flaky(fake_evaluator), eval_batch_size=4
            ),
            "roulette": lambda: _engine_digest(space, fake_evaluator, selection="roulette"),
            "rank": lambda: _engine_digest(space, fake_evaluator, selection="rank"),
            "random_search": lambda: _random_search_digest(space, fake_evaluator),
            "surrogate_weighted_sum": lambda: _surrogate_digest(
                tiny_dataset, fake_evaluator, tmp_path, "weighted_sum"
            ),
            "surrogate_nsga2": lambda: _surrogate_digest(
                tiny_dataset, fake_evaluator, tmp_path, "nsga2"
            ),
        }
        assert runs[case]() == _SEEDED_DIGESTS[case]


def _three_genome_space() -> CoDesignSearchSpace:
    return CoDesignSearchSpace(
        mlp_space=MLPSearchSpace(
            min_layers=1,
            max_layers=1,
            layer_sizes=(8, 16, 32),
            activations=("relu",),
            allow_bias_toggle=False,
        ),
        hardware_space=HardwareSearchSpace(
            grid_space=GridSearchSpace(
                rows=(4,), columns=(4,), interleave_rows=(2,), interleave_columns=(2,),
                vector_width=(2,),
            ),
            batch_sizes=(512,),
        ),
        gpu_batch_sizes=(128,),
    )


class TestBatchedDispatchRepeats:
    """A genome repeated inside one dispatched chunk must not wait on itself."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"population_size": 2, "tournament_size": 2},
            {"population_size": 3, "avoid_duplicate_genomes": False},
            {"population_size": 3, "avoid_duplicate_genomes": False, "eval_parallelism": 4},
        ],
        ids=["fallback_repeat", "no_dedup_initializer", "no_dedup_four_threads"],
    )
    def test_repeat_within_a_chunk_finishes(self, fake_evaluator, overrides):
        import sys as _sys
        import threading as _threading

        engine = EvolutionaryEngine(
            space=_three_genome_space(),
            evaluator=fake_evaluator,
            fitness=_fitness(),
            config=EngineConfig(max_evaluations=24, seed=0, eval_batch_size=4, **overrides),
        )
        outcome = {}
        runner = _threading.Thread(
            target=lambda: outcome.update(result=engine.run()), daemon=True
        )
        interval = _sys.getswitchinterval()
        _sys.setswitchinterval(1e-5)
        try:
            runner.start()
            runner.join(timeout=30)
        finally:
            _sys.setswitchinterval(interval)
        assert not runner.is_alive(), "engine deadlocked on a repeated genome"
        stats = outcome["result"].statistics
        assert stats.models_generated == 24
        assert stats.models_generated == stats.models_evaluated + stats.cache_hits
        assert stats.models_evaluated <= 3


    def test_chunks_sharing_genomes_in_opposite_order_finish(
        self, small_search_space, fake_evaluator, rng
    ):
        import threading as _threading
        import time as _time

        class SlowReserveCache(EvaluationCache):
            """Holds each reservation long enough for the other chunk to take one."""

            def lookup_or_reserve(self, genome):
                result = super().lookup_or_reserve(genome)
                _time.sleep(0.05)
                return result

        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=_fitness(),
            config=EngineConfig(population_size=4, max_evaluations=8),
            cache=SlowReserveCache(),
        )
        first = small_search_space.random_genome(rng, device=ARRIA10_GX1150)
        second = first
        while second.cache_key() == first.cache_key():
            second = small_search_space.random_genome(rng, device=ARRIA10_GX1150)
        runners = [
            _threading.Thread(target=engine.chunks.evaluate_chunk, args=(chunk,), daemon=True)
            for chunk in ([first, second], [second, first])
        ]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=30)
        assert not any(runner.is_alive() for runner in runners), "chunks waited on each other"
        assert engine.statistics.models_evaluated == 2
        assert engine.statistics.cache_hits == 2


class TestSearchHistory:
    def test_series_and_queries(self, small_search_space, fake_evaluator):
        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=_fitness(),
            config=EngineConfig(population_size=4, max_evaluations=16, seed=0),
            device=ARRIA10_GX1150,
        )
        result = engine.run()
        history: SearchHistory = result.history
        pairs = history.accuracy_throughput_series(device="fpga")
        assert len(pairs) == 16
        assert all(0 <= accuracy <= 1 for accuracy, _ in pairs)
        assert history.best_accuracy() == max(a for a, _ in pairs)
        assert len(history.unique_evaluations()) <= len(history)
        assert len(history.best_fitness_trace) > 0
        with pytest.raises(ValueError):
            history.accuracy_throughput_series(device="tpu")


class TestECADConfig:
    def test_template_from_dataset_sets_dimensions_and_protocol(self, tiny_dataset, tiny_presplit_dataset):
        config = ECADConfig.template_for_dataset(tiny_dataset)
        assert config.nna.input_size == tiny_dataset.num_features
        assert config.nna.output_size == tiny_dataset.num_classes
        assert config.evaluation_protocol == "10-fold"
        presplit = ECADConfig.template_for_dataset(tiny_presplit_dataset)
        assert presplit.evaluation_protocol == "1-fold"

    def test_round_trip_json_file(self, tiny_dataset, tmp_path):
        config = ECADConfig.template_for_dataset(tiny_dataset, population_size=10, max_evaluations=50)
        path = tmp_path / "config.json"
        config.save(path)
        loaded = ECADConfig.load(path)
        assert loaded == config

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ECADConfig.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            ECADConfig.load(bad)
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text('{"dataset_name": "x"}')
        with pytest.raises(ConfigurationError):
            ECADConfig.load(incomplete)

    def test_to_search_space_and_engine_config(self, tiny_dataset):
        config = ECADConfig.template_for_dataset(tiny_dataset, population_size=7, max_evaluations=21, seed=3)
        space = config.to_search_space()
        assert space.mlp_space.layer_sizes == config.nna.layer_sizes
        engine_config = config.to_engine_config()
        assert engine_config.population_size == 7
        assert engine_config.max_evaluations == 21
        assert engine_config.seed == 3

    def test_mutation_config_follows_objectives(self, tiny_dataset):
        accuracy_only = ECADConfig.template_for_dataset(
            tiny_dataset, optimization=OptimizationTargetConfig.accuracy_only()
        )
        assert accuracy_only.to_mutation_config().grid_dimension == 0.0
        codesign = ECADConfig.template_for_dataset(
            tiny_dataset, optimization=OptimizationTargetConfig.accuracy_and_throughput()
        )
        assert codesign.to_mutation_config().grid_dimension > 0.0

    def test_hardware_target_resolution(self):
        target = HardwareTargetConfig(fpga="stratix10", ddr_banks=2, clock_mhz=300.0, gpu="m5000")
        device = target.fpga_device()
        assert device.ddr_banks == 2
        assert device.clock_mhz == 300.0
        assert target.gpu_device().name == "NVIDIA Quadro M5000"
        assert HardwareTargetConfig(gpu="").gpu_device() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NNAStructureConfig(input_size=0, output_size=2)
        with pytest.raises(ConfigurationError):
            OptimizationTargetConfig(objectives=())
        with pytest.raises(ConfigurationError):
            ECADConfig(
                dataset_name="x",
                nna=NNAStructureConfig(input_size=4, output_size=2),
                evaluation_protocol="5-fold",
            )


class TestCoDesignSearchFrontEnd:
    def test_full_search_with_fake_evaluator(self, tiny_dataset, fake_evaluator):
        config = ECADConfig.template_for_dataset(
            tiny_dataset, population_size=5, max_evaluations=20, seed=0, training_epochs=2
        )
        search = CoDesignSearch(tiny_dataset, config=config)
        result = search.run(evaluator=fake_evaluator)
        assert 0 <= result.best_accuracy <= 1
        assert result.frontier
        assert result.statistics.models_generated == 20
        rows = result.pareto_rows(count=2)
        assert rows[0].accuracy >= rows[-1].accuracy

    def test_configuration_dataset_mismatch_rejected(self, tiny_dataset, tiny_presplit_dataset):
        config = ECADConfig.template_for_dataset(tiny_presplit_dataset)
        with pytest.raises(ConfigurationError):
            CoDesignSearch(tiny_dataset, config=config)

    def test_real_end_to_end_search_on_tiny_dataset(self, tiny_dataset):
        """Slowest test in the suite: the full master/worker pipeline, few evaluations."""
        config = ECADConfig.template_for_dataset(
            tiny_dataset,
            population_size=4,
            max_evaluations=8,
            seed=0,
            training_epochs=3,
            evaluation_protocol="1-fold",
        )
        result = CoDesignSearch(tiny_dataset, config=config).run()
        assert result.best_accuracy > 0.5
        best = result.best_accuracy_candidate
        assert best.fpga_metrics is not None
        assert best.gpu_metrics is not None
        assert best.synthesis is not None
        assert result.statistics.average_evaluation_seconds > 0


class TestRandomSearch:
    def test_random_search_baseline(self, small_search_space, fake_evaluator):
        search = RandomSearch(
            space=small_search_space,
            evaluator=fake_evaluator,
            objectives=[ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()],
            max_evaluations=30,
            seed=0,
            device=ARRIA10_GX1150,
        )
        result = search.run()
        assert len(result.history) == 30
        assert result.frontier
        assert result.statistics.models_generated == 30

    @pytest.mark.parametrize(
        "overrides",
        [{"max_evaluations": 0}, {"eval_batch_size": 0}, {"eval_parallelism": 0}],
    )
    def test_random_search_validation(self, small_search_space, fake_evaluator, overrides):
        with pytest.raises(ConfigurationError):
            RandomSearch(small_search_space, fake_evaluator, **overrides)

    def test_evolution_at_least_matches_random_on_fake_landscape(
        self, small_search_space, fake_evaluator
    ):
        """The steady-state engine should not lose to random search on the same budget."""
        objectives = [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]
        random_result = RandomSearch(
            small_search_space,
            fake_evaluator,
            objectives=objectives,
            max_evaluations=40,
            seed=1,
            device=ARRIA10_GX1150,
        ).run()
        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=FitnessEvaluator(objectives),
            config=EngineConfig(population_size=6, max_evaluations=40, seed=1),
            device=ARRIA10_GX1150,
        )
        evolved = engine.run()
        evolved_best_throughput = max(
            r.evaluation.fpga_outputs_per_second for r in evolved.history.records
        )
        random_best_throughput = max(
            r.evaluation.fpga_outputs_per_second for r in random_result.history.records
        )
        assert evolved_best_throughput >= 0.8 * random_best_throughput


def _six_genome_space() -> CoDesignSearchSpace:
    """One hidden layer of 8, 16 or 32 neurons, relu or tanh, one hardware point."""
    space = _three_genome_space()
    return CoDesignSearchSpace(
        mlp_space=MLPSearchSpace(
            min_layers=1,
            max_layers=1,
            layer_sizes=(8, 16, 32),
            activations=("relu", "tanh"),
            allow_bias_toggle=False,
        ),
        hardware_space=space.hardware_space,
        gpu_batch_sizes=space.gpu_batch_sizes,
    )


class TestRandomSearchWindow:
    """RandomSearch evaluates its draws through the engine's chunk pipeline."""

    @staticmethod
    def _run(evaluator, **window):
        return RandomSearch(
            space=_six_genome_space(),
            evaluator=evaluator,
            objectives=[ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()],
            max_evaluations=40,
            seed=0,
            device=ARRIA10_GX1150,
            **window,
        ).run()

    @pytest.mark.parametrize(
        "eval_parallelism, eval_batch_size", [(1, 1), (4, 1), (1, 4), (2, 3)]
    )
    def test_window_matches_serial_results(self, fake_evaluator, eval_parallelism, eval_batch_size):
        from tests.test_batched_evaluation import _BatchRecordingEvaluator

        serial = self._run(fake_evaluator)
        evaluated: list[str] = []

        def counted(genome):
            evaluated.append(genome.cache_key())
            return fake_evaluator(genome)

        evaluator = _BatchRecordingEvaluator(counted)
        windowed = self._run(
            evaluator, eval_parallelism=eval_parallelism, eval_batch_size=eval_batch_size
        )

        serial_history = serial.history.evaluations()
        windowed_history = windowed.history.evaluations()
        assert len(windowed_history) == len(serial_history) == 40
        assert [e.genome.cache_key() for e in windowed_history] == [
            e.genome.cache_key() for e in serial_history
        ]
        assert [e.accuracy for e in windowed_history] == [e.accuracy for e in serial_history]
        assert windowed.statistics.models_evaluated == serial.statistics.models_evaluated
        assert windowed.statistics.cache_hits == serial.statistics.cache_hits
        assert serial.statistics.cache_hits > 0  # the draws repeat
        # duplicates are answered by the cache, never evaluated twice
        assert len(evaluated) == len(set(evaluated)) == windowed.statistics.models_evaluated
        assert windowed.best_accuracy == serial.best_accuracy
        if eval_batch_size > 1:
            assert max(evaluator.batch_sizes) > 1
        else:
            assert evaluator.batch_sizes == []

    def test_real_master_window(self, tiny_dataset):
        config = ECADConfig.template_for_dataset(
            tiny_dataset,
            population_size=4,
            max_evaluations=8,
            training_epochs=2,
            backend="threads",
            eval_parallelism=4,
        )
        search = CoDesignSearch(tiny_dataset, config=config)
        master = search.build_master()
        try:
            result = RandomSearch(
                space=config.to_search_space(),
                evaluator=master,
                objectives=[ObjectiveSpec.accuracy()],
                max_evaluations=6,
                seed=2,
                device=config.hardware.fpga_device(),
                eval_parallelism=4,
            ).run()
        finally:
            master.shutdown()
        assert len(result.history) == 6
        assert result.statistics.models_evaluated > 0
        assert result.statistics.total_evaluation_seconds > 0
        assert 0 <= result.best_accuracy <= 1

    def test_window_captures_evaluator_failures(self, small_search_space, fake_evaluator):
        calls = {"n": 0}

        def flaky(genome):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("injected failure")
            return fake_evaluator(genome)

        result = RandomSearch(
            space=small_search_space,
            evaluator=flaky,
            objectives=[ObjectiveSpec.accuracy()],
            max_evaluations=12,
            seed=5,
            device=ARRIA10_GX1150,
            eval_parallelism=2,
        ).run()
        assert len(result.history) == 12
        failed = [e for e in result.history.evaluations() if e.failed]
        assert failed  # injected failures surfaced as failed evaluations
        assert all("injected failure" in e.error for e in failed)
        assert 0 <= result.best_accuracy <= 1

    @staticmethod
    def _run_tanh_fails(**window):
        """40 draws over six genomes through a serial Master; tanh genomes fail."""
        from repro.workers.base import Worker, WorkerReport
        from repro.workers.master import Master

        class TanhFailsWorker(Worker):
            name = "stub"

            def __init__(self) -> None:
                self.calls = 0

            def evaluate(self, request):
                self.calls += 1
                if request.genome.mlp.activations[0] == "tanh":
                    return WorkerReport(worker_name=self.name, error="injected tanh failure")
                return WorkerReport(
                    worker_name=self.name,
                    accuracy=request.genome.mlp.hidden_layers[0] / 64,
                    parameter_count=request.genome.mlp.hidden_layers[0],
                )

        worker = TanhFailsWorker()
        master = Master(workers=[worker], backend="serial")
        try:
            result = RandomSearch(
                space=_six_genome_space(), evaluator=master, max_evaluations=40, seed=0, **window
            ).run()
        finally:
            master.shutdown()
        return result, worker.calls

    @pytest.mark.parametrize("eval_batch_size", [1, 4])
    def test_failed_genomes_are_evaluated_again_through_a_real_master(self, eval_batch_size):
        """Failures are never cached, so a repeat of a failed genome is no cache hit."""
        result, calls = self._run_tanh_fails(eval_batch_size=eval_batch_size)
        stats = result.statistics
        draws = result.history.evaluations()
        successful = [e.genome.cache_key() for e in draws if not e.failed]
        assert len(successful) < len(draws)
        assert len(successful) - len(set(successful)) > 0  # successful genomes repeat
        assert len(draws) - len(successful) > len({e.genome.cache_key() for e in draws if e.failed})
        assert stats.models_evaluated + stats.cache_hits == stats.models_generated == 40
        assert stats.models_evaluated == len(draws) - (len(successful) - len(set(successful)))
        assert calls == stats.models_evaluated

    @pytest.mark.parametrize(
        "window", [{"eval_batch_size": 4}, {"eval_batch_size": 3, "eval_parallelism": 2}]
    )
    def test_failed_repeat_counters_do_not_depend_on_the_chunk_size(self, window):
        serial, serial_calls = self._run_tanh_fails()
        chunked, chunked_calls = self._run_tanh_fails(**window)
        assert (serial.statistics.models_evaluated, serial.statistics.cache_hits) == (27, 13)
        assert chunked.statistics.models_evaluated == serial.statistics.models_evaluated
        assert chunked.statistics.cache_hits == serial.statistics.cache_hits
        assert chunked_calls == serial_calls == 27
        assert [e.failed for e in chunked.history.evaluations()] == [
            e.failed for e in serial.history.evaluations()
        ]
