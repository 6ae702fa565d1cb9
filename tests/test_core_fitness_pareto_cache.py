"""Unit tests for fitness evaluation, Pareto analysis, the evaluation cache,
population management and selection schemes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.core.candidate import CandidateEvaluation
from repro.core.errors import ConfigurationError, SearchError
from repro.core.fitness import FitnessEvaluator, FitnessResult
from repro.core.objectives import (
    ObjectiveSpec,
    available_objectives,
    build_objective_vector,
    get_objective,
    register_objective,
)
from repro.core.genome import CoDesignGenome, HardwareGenome, MLPGenome
from repro.core.pareto import (
    ParetoPoint,
    dominated_by,
    knee_point,
    make_points,
    pareto_frontier,
    pareto_frontier_indices,
    top_tradeoff_points,
)
from repro.core.population import Individual, Population
from repro.core.selection import (
    NSGA2Selection,
    RankSelection,
    RouletteWheelSelection,
    TournamentSelection,
    available_selection_schemes,
    get_selection,
)
from repro.hardware.systolic import GridConfig

from tests.conftest import make_fake_evaluation, plain_dominates


def _publish(cache: EvaluationCache, evaluation: CandidateEvaluation) -> None:
    """Publish one evaluation the way the search does: ``complete`` under its genome."""
    cache.complete(evaluation.genome, evaluation)


def _genome(neurons: int = 16, rows: int = 4) -> CoDesignGenome:
    return CoDesignGenome(
        mlp=MLPGenome(hidden_layers=(neurons,), activations=("relu",)),
        hardware=HardwareGenome(grid=GridConfig(rows, 4, 2, 2, 2), batch_size=512),
    )


class TestObjectives:
    def test_builtin_objectives_registered(self):
        names = available_objectives()
        for expected in ("accuracy", "fpga_throughput", "gpu_throughput", "fpga_latency", "fpga_efficiency"):
            assert expected in names

    def test_objective_values_from_evaluation(self):
        evaluation = make_fake_evaluation(_genome(), accuracy=0.9, fpga_outputs=2e6, gpu_outputs=1e6)
        assert get_objective("accuracy")(evaluation) == pytest.approx(0.9)
        assert get_objective("fpga_throughput")(evaluation) == pytest.approx(2e6)
        assert get_objective("gpu_throughput")(evaluation) == pytest.approx(1e6)
        assert get_objective("dsp_usage")(evaluation) == evaluation.genome.hardware.grid.dsp_blocks_used

    def test_missing_metrics_give_neutral_values(self):
        evaluation = make_fake_evaluation(_genome(), accuracy=0.5)
        assert get_objective("fpga_throughput")(evaluation) == 0.0
        assert get_objective("fpga_latency")(evaluation) == float("inf")
        assert get_objective("fpga_efficiency")(evaluation) == 0.0

    def test_register_custom_objective(self):
        register_objective("test_neurons", lambda e: float(e.genome.mlp.total_hidden_neurons), overwrite=True)
        evaluation = make_fake_evaluation(_genome(neurons=24), accuracy=0.5)
        assert get_objective("test_neurons")(evaluation) == 24.0
        with pytest.raises(ConfigurationError):
            register_objective("test_neurons", lambda e: 0.0)
        with pytest.raises(ConfigurationError):
            get_objective("does_not_exist")

    def test_objective_config_validation(self):
        with pytest.raises(ConfigurationError):
            ObjectiveSpec(name="not_registered")
        with pytest.raises(ConfigurationError):
            ObjectiveSpec(name="accuracy", weight=0.0)


class TestFitnessEvaluator:
    def test_accuracy_only_orders_by_accuracy(self):
        evaluator = FitnessEvaluator([ObjectiveSpec.accuracy()])
        evaluations = [
            make_fake_evaluation(_genome(8), accuracy=0.6, fpga_outputs=1e6),
            make_fake_evaluation(_genome(16), accuracy=0.9, fpga_outputs=1e5),
            make_fake_evaluation(_genome(32), accuracy=0.75, fpga_outputs=5e5),
        ]
        results = evaluator.score_population(evaluations)
        order = np.argsort([-r.fitness for r in results])
        assert list(order) == [1, 2, 0]

    def test_multi_objective_rewards_balanced_candidates(self):
        evaluator = FitnessEvaluator(
            [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]
        )
        evaluations = [
            make_fake_evaluation(_genome(8), accuracy=0.90, fpga_outputs=1e4),
            make_fake_evaluation(_genome(16), accuracy=0.89, fpga_outputs=9e6),
            make_fake_evaluation(_genome(32), accuracy=0.50, fpga_outputs=9.5e6),
        ]
        results = evaluator.score_population(evaluations)
        best = int(np.argmax([r.fitness for r in results]))
        assert best == 1  # near-top accuracy AND near-top throughput wins

    def test_minimized_objective_contributes_inverted(self):
        evaluator = FitnessEvaluator([ObjectiveSpec(name="parameter_count", maximize=False)])
        small = make_fake_evaluation(_genome(8), accuracy=0.5)
        big = make_fake_evaluation(_genome(64), accuracy=0.5)
        results = evaluator.score_population([small, big])
        assert results[0].fitness > results[1].fitness

    def test_failed_evaluations_get_minus_infinity(self):
        evaluator = FitnessEvaluator([ObjectiveSpec.accuracy()])
        ok = make_fake_evaluation(_genome(8), accuracy=0.7)
        failed = CandidateEvaluation(genome=_genome(16), error="boom")
        results = evaluator.score_population([ok, failed])
        assert results[1].fitness == float("-inf")
        assert np.isnan(results[1].objectives["accuracy"])

    def test_score_single_against_reference(self):
        evaluator = FitnessEvaluator([ObjectiveSpec.accuracy()])
        reference = [make_fake_evaluation(_genome(8), accuracy=0.6)]
        candidate = make_fake_evaluation(_genome(16), accuracy=0.9)
        result = evaluator.score(candidate, reference)
        assert result.objectives["accuracy"] == pytest.approx(0.9)
        assert result.objective("accuracy") == pytest.approx(0.9)
        with pytest.raises(KeyError):
            result.objective("fpga_throughput")

    def test_duplicate_or_empty_objectives_rejected(self):
        with pytest.raises(ConfigurationError):
            FitnessEvaluator([])
        with pytest.raises(ConfigurationError):
            FitnessEvaluator([ObjectiveSpec.accuracy(), ObjectiveSpec.accuracy()])

    def test_empty_population_scores_to_empty_list(self):
        evaluator = FitnessEvaluator([ObjectiveSpec.accuracy()])
        assert evaluator.score_population([]) == []


class TestPareto:
    def test_dominates(self):
        assert dominated_by([(1, 2)], [(2, 2)]).tolist() == [True]
        assert dominated_by([(1, 2)], [(2, 3)]).tolist() == [True]
        assert dominated_by([(2, 1)], [(1, 2)]).tolist() == [False]
        assert dominated_by([(1, 1)], [(1, 1)]).tolist() == [False]
        with pytest.raises(ValueError):
            dominated_by([(1, 2)], [(1,)])

    def test_frontier_indices(self):
        points = [(1, 5), (2, 4), (3, 3), (2, 2), (0, 6)]
        frontier = pareto_frontier_indices(points)
        assert set(frontier) == {0, 1, 2, 4}

    def test_pareto_frontier_sorted_by_first_objective(self):
        points = make_points(
            [{"a": 0.9, "t": 1e5}, {"a": 0.8, "t": 1e6}, {"a": 0.7, "t": 5e5}],
            lambda d: d["a"],
            lambda d: d["t"],
        )
        frontier = pareto_frontier(points)
        assert [p.payload["a"] for p in frontier] == [0.9, 0.8]

    def test_knee_point_balances_objectives(self):
        points = [
            ParetoPoint(values=(1.0, 0.0), payload="acc"),
            ParetoPoint(values=(0.0, 1.0), payload="thr"),
            ParetoPoint(values=(0.7, 0.7), payload="balanced"),
        ]
        assert knee_point(points).payload == "balanced"
        with pytest.raises(ValueError):
            knee_point([])

    def test_top_tradeoff_points_table_iv_style(self):
        frontier = [
            ParetoPoint(values=(0.99, 1e5), payload="best_acc"),
            ParetoPoint(values=(0.97, 2e6), payload="best_thr"),
            ParetoPoint(values=(0.98, 1e6), payload="middle"),
        ]
        rows = top_tradeoff_points(frontier, count=2, primary=0)
        assert rows[0].payload == "best_acc"
        assert rows[1].payload == "best_thr"
        assert top_tradeoff_points([], count=2) == []
        with pytest.raises(ValueError):
            top_tradeoff_points(frontier, count=0)

    def test_pareto_point_validation(self):
        with pytest.raises(ValueError):
            ParetoPoint(values=())
        with pytest.raises(ValueError):
            make_points([1, 2])


class TestEvaluationCache:
    def test_lookup_miss_then_hit(self):
        cache = EvaluationCache()
        genome = _genome(8)
        assert cache.lookup(genome) is None
        _publish(cache, make_fake_evaluation(genome, accuracy=0.8))
        hit = cache.lookup(genome)
        assert hit is not None
        assert hit.from_cache
        assert hit.accuracy == pytest.approx(0.8)
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1
        assert cache.statistics.hit_rate == pytest.approx(0.5)

    def test_identical_parameters_share_an_entry(self):
        cache = EvaluationCache()
        _publish(cache, make_fake_evaluation(_genome(8), accuracy=0.8))
        equivalent = _genome(8)
        assert equivalent in cache
        assert len(cache) == 1

    def test_failed_evaluations_not_cached(self):
        cache = EvaluationCache()
        _publish(cache, CandidateEvaluation(genome=_genome(8), error="boom"))
        assert len(cache) == 0

    def test_capacity_bound_evicts_oldest(self):
        cache = EvaluationCache(max_entries=2)
        first, second, third = _genome(8), _genome(16), _genome(32)
        for genome in (first, second, third):
            _publish(cache, make_fake_evaluation(genome, accuracy=0.5))
        assert len(cache) == 2
        assert first not in cache
        assert second in cache and third in cache

    def test_clear_resets_everything(self):
        cache = EvaluationCache()
        _publish(cache, make_fake_evaluation(_genome(8), accuracy=0.5))
        cache.lookup(_genome(8))
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.lookups == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)

    def test_lru_eviction_refreshes_recency_on_hits(self):
        """Regression: eviction must be least-recently-USED, not oldest-inserted."""
        cache = EvaluationCache(max_entries=2)
        first, second, third = _genome(8), _genome(16), _genome(32)
        _publish(cache, make_fake_evaluation(first, accuracy=0.5))
        _publish(cache, make_fake_evaluation(second, accuracy=0.5))
        # Touch the older entry, making `second` the least recently used...
        assert cache.lookup(first) is not None
        _publish(cache, make_fake_evaluation(third, accuracy=0.5))
        # ...so inserting a third entry evicts `second`, not `first`.
        assert first in cache
        assert second not in cache
        assert third in cache

    def test_lru_store_refreshes_recency_too(self):
        cache = EvaluationCache(max_entries=2)
        first, second, third = _genome(8), _genome(16), _genome(32)
        _publish(cache, make_fake_evaluation(first, accuracy=0.5))
        _publish(cache, make_fake_evaluation(second, accuracy=0.5))
        _publish(cache, make_fake_evaluation(first, accuracy=0.6))  # refresh
        _publish(cache, make_fake_evaluation(third, accuracy=0.5))
        assert first in cache
        assert second not in cache


class TestEvaluationCacheInFlight:
    def test_reserve_then_complete_publishes_to_waiters(self):
        import threading

        cache = EvaluationCache()
        genome = _genome(8)
        cached, owner = cache.lookup_or_reserve(genome)
        assert cached is None and owner
        assert cache.in_flight_count == 1

        waiter_results = []

        def waiter():
            evaluation, is_owner = cache.lookup_or_reserve(_genome(8))
            waiter_results.append((evaluation, is_owner))

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        for thread in threads:
            thread.start()
        # Waiters are blocked on the in-flight evaluation, not re-evaluating.
        assert all(thread.is_alive() for thread in threads)
        cache.complete(genome, make_fake_evaluation(genome, accuracy=0.8))
        for thread in threads:
            thread.join(timeout=5)
        assert len(waiter_results) == 3
        for evaluation, is_owner in waiter_results:
            assert not is_owner
            assert evaluation.from_cache
            assert evaluation.accuracy == pytest.approx(0.8)
        assert cache.in_flight_count == 0
        assert cache.statistics.stores == 1
        assert cache.statistics.coalesced == 3

    def test_failed_completion_reaches_waiters_but_is_not_cached(self):
        import threading

        cache = EvaluationCache()
        genome = _genome(8)
        _, owner = cache.lookup_or_reserve(genome)
        assert owner
        results = []
        thread = threading.Thread(
            target=lambda: results.append(cache.lookup_or_reserve(_genome(8)))
        )
        thread.start()
        cache.complete(genome, CandidateEvaluation(genome=genome, error="boom"))
        thread.join(timeout=5)
        evaluation, is_owner = results[0]
        assert not is_owner
        assert evaluation.failed
        assert len(cache) == 0  # failures are never cached

    def test_abandon_lets_a_waiter_take_ownership(self):
        import threading

        cache = EvaluationCache()
        genome = _genome(8)
        _, owner = cache.lookup_or_reserve(genome)
        assert owner
        results = []
        thread = threading.Thread(
            target=lambda: results.append(cache.lookup_or_reserve(_genome(8)))
        )
        thread.start()
        cache.abandon(genome)
        thread.join(timeout=5)
        evaluation, is_owner = results[0]
        assert evaluation is None
        assert is_owner  # the waiter inherited the reservation
        assert cache.in_flight_count == 1
        cache.complete(genome, make_fake_evaluation(genome, accuracy=0.7))
        assert cache.in_flight_count == 0

    def test_cached_entry_short_circuits_reservation(self):
        cache = EvaluationCache()
        genome = _genome(8)
        _publish(cache, make_fake_evaluation(genome, accuracy=0.9))
        cached, owner = cache.lookup_or_reserve(genome)
        assert not owner
        assert cached.from_cache
        assert cache.in_flight_count == 0


def _individual(neurons: int, accuracy: float, fitness: float) -> Individual:
    from repro.core.fitness import FitnessResult

    evaluation = make_fake_evaluation(_genome(neurons), accuracy=accuracy, fpga_outputs=1e5)
    return Individual(
        genome=evaluation.genome,
        evaluation=evaluation,
        fitness=FitnessResult(fitness=fitness, objectives={"accuracy": accuracy}),
    )


class TestPopulation:
    def test_members_sorted_by_fitness(self):
        population = Population(capacity=4)
        population.add(_individual(8, 0.5, 0.5))
        population.add(_individual(16, 0.9, 0.9))
        population.add(_individual(32, 0.7, 0.7))
        assert population.best.fitness_value == pytest.approx(0.9)
        assert population.worst.fitness_value == pytest.approx(0.5)
        assert len(population) == 3
        assert not population.is_full

    def test_steady_state_replacement(self):
        population = Population(capacity=2)
        population.add(_individual(8, 0.5, 0.5))
        population.add(_individual(16, 0.7, 0.7))
        # a better newcomer evicts the worst member
        evicted = population.add(_individual(32, 0.9, 0.9))
        assert evicted is not None and evicted.fitness_value == pytest.approx(0.5)
        # a worse newcomer bounces off
        rejected = population.add(_individual(64, 0.1, 0.1))
        assert rejected is not None and rejected.fitness_value == pytest.approx(0.1)
        assert len(population) == 2

    def test_contains_genome(self):
        population = Population(capacity=4)
        member = _individual(8, 0.5, 0.5)
        population.add(member)
        assert population.contains_genome(member.genome)
        assert not population.contains_genome(_genome(64))

    def test_empty_population_errors(self):
        population = Population(capacity=2)
        with pytest.raises(SearchError):
            _ = population.best
        with pytest.raises(SearchError):
            Population(capacity=1)

    def test_rescore_requires_matching_lengths(self):
        population = Population(capacity=2)
        population.add(_individual(8, 0.5, 0.5))
        with pytest.raises(SearchError):
            population.rescore([])


class TestSelection:
    def _population(self) -> Population:
        population = Population(capacity=8)
        for index, fitness in enumerate([0.1, 0.3, 0.5, 0.7, 0.9]):
            population.add(_individual(8 * (index + 1), fitness, fitness))
        return population

    def test_tournament_prefers_fit_individuals(self, rng):
        population = self._population()
        scheme = TournamentSelection(tournament_size=3)
        picks = [scheme.select(population, rng).fitness_value for _ in range(200)]
        assert np.mean(picks) > 0.55

    def test_roulette_and_rank_return_members(self, rng):
        population = self._population()
        for scheme in (RouletteWheelSelection(), RankSelection()):
            individual = scheme.select(population, rng)
            assert individual in population.members

    def test_rank_selection_prefers_better_members(self, rng):
        population = self._population()
        picks = [RankSelection(selection_pressure=2.0).select(population, rng).fitness_value for _ in range(300)]
        assert np.mean(picks) > 0.55

    def test_rank_selection_builds_one_cdf_per_population_size(self, rng, monkeypatch):
        population = self._population()
        scheme = RankSelection()
        built = []
        original = RankSelection._rank_cdf

        def counting(self, count):
            built.append(count)
            return original(self, count)

        monkeypatch.setattr(RankSelection, "_rank_cdf", counting)
        for _ in range(20):
            scheme.select(population, rng)
        population.add(_individual(48, 0.95, 0.95))
        for _ in range(20):
            scheme.select(population, rng)
        assert built == [5, 6]

    def test_roulette_builds_one_wheel_per_fitness_state(self, rng, monkeypatch):
        from repro.core.fitness import FitnessResult

        population = self._population()
        scheme = RouletteWheelSelection()
        built = []
        original = RouletteWheelSelection._wheel_cdf

        def counting(population):
            built.append(tuple(member.fitness_value for member in population.members))
            return original(population)

        monkeypatch.setattr(RouletteWheelSelection, "_wheel_cdf", staticmethod(counting))
        for _ in range(20):
            scheme.select(population, rng)
        # A rescore replaces a member's result: one new wheel, equal values or not.
        member = population.members[0]
        member.fitness = FitnessResult(fitness=member.fitness_value, objectives={})
        for _ in range(20):
            scheme.select(population, rng)
        population.add(_individual(48, 0.95, 0.95))
        for _ in range(20):
            scheme.select(population, rng)
        assert len(built) == 3
        assert built[0] == built[1]
        assert scheme._cdf == original(population)

    def test_roulette_draws_uniformly_from_a_flat_wheel(self, rng):
        population = Population(capacity=3)
        for neurons in (8, 16, 24):
            population.add(_individual(neurons, 0.5, 0.5))
        scheme = RouletteWheelSelection()
        picks = {scheme.select(population, rng).genome for _ in range(60)}
        assert scheme._cdf is None
        assert len(picks) == 3

    def test_select_pair_returns_distinct_parents(self, rng):
        population = self._population()
        first, second = TournamentSelection().select_pair(population, rng)
        assert first is not second

    def test_registry_and_validation(self):
        assert set(available_selection_schemes()) == {"tournament", "roulette", "rank", "nsga2"}
        assert isinstance(get_selection("tournament", tournament_size=2), TournamentSelection)
        scheme = RankSelection()
        assert get_selection(scheme) is scheme
        with pytest.raises(ValueError):
            get_selection("random_pick")
        with pytest.raises(ValueError):
            TournamentSelection(tournament_size=1)
        with pytest.raises(ValueError):
            RankSelection(selection_pressure=3.0)
        with pytest.raises(ValueError):
            NSGA2Selection(tournament_size=1)
        assert NSGA2Selection().tournament_size == 2  # classic binary default
        assert get_selection("nsga2", tournament_size=3).tournament_size == 3

    def test_selection_from_empty_population_raises(self, rng):
        population = Population(capacity=2)
        with pytest.raises(SearchError):
            TournamentSelection().select(population, rng)


# ---------------------------------------------------------------------------
# Exact equivalence of the O(1) bookkeeping with the all-history originals
# ---------------------------------------------------------------------------


def _legacy_score(evaluator, evaluation, reference):
    """The original reference-list ``score``: normalize against every value."""
    population = list(reference)
    if evaluation not in population:
        population.append(evaluation)
    rows = [evaluator.raw_objectives(e) for e in population]
    row = rows[population.index(evaluation)]
    vector = build_objective_vector(evaluation, evaluator.objectives, evaluator.constraints)
    if evaluation.failed or not vector.feasible:
        return float("-inf")
    fitness = 0.0
    for objective in evaluator.objectives:
        value = row[objective.name]
        if objective.scale > 0:
            normalized = _legacy_clip01(value / objective.scale)
        else:
            values = [r[objective.name] for r in rows if np.isfinite(r[objective.name])]
            if not values:
                normalized = 0.0
            elif max(values) - min(values) < 1e-12:
                normalized = 0.5
            else:
                low, high = min(values), max(values)
                normalized = _legacy_clip01((value - low) / (high - low))
        fitness += objective.weight * (normalized if objective.maximize else 1.0 - normalized)
    return fitness


def _legacy_clip01(value):
    if not np.isfinite(value):
        return 0.0
    return float(min(1.0, max(0.0, value)))


def _legacy_frontier_indices(points):
    """The original all-pairs Python loop of ``pareto_frontier_indices``."""
    vectors = [tuple(float(v) for v in point) for point in points]
    frontier = []
    for i, candidate in enumerate(vectors):
        if not any(i != j and plain_dominates(other, candidate) for j, other in enumerate(vectors)):
            frontier.append(i)
    return frontier


def _random_history(seed: int, count: int = 60) -> list[CandidateEvaluation]:
    """Seeded evaluations mixing failures, missing FPGA metrics and ties."""
    rng = np.random.default_rng(seed)
    history = []
    for index in range(count):
        genome = _genome(neurons=int(rng.choice([8, 16, 32, 64])), rows=int(rng.choice([2, 4, 8])))
        draw = rng.random()
        if draw < 0.1:
            history.append(CandidateEvaluation(genome=genome, error=f"boom {index}"))
            continue
        # No FPGA metrics -> fpga_latency is inf and fpga_throughput is 0.
        fpga = 0.0 if draw < 0.25 else float(rng.choice([1e5, 5e5, 2e6, float(rng.uniform(1e4, 1e7))]))
        accuracy = float(rng.choice([0.5, 0.75, float(rng.uniform(0.4, 0.99))]))
        history.append(make_fake_evaluation(genome, accuracy=accuracy, fpga_outputs=fpga, gpu_outputs=1e6))
    return history


def _mixed_evaluator() -> FitnessEvaluator:
    return FitnessEvaluator(
        [
            ObjectiveSpec.accuracy(weight=2.0),  # scale > 0
            ObjectiveSpec.fpga_throughput(),
            ObjectiveSpec(name="fpga_latency", maximize=False, weight=0.5),  # minimized, inf
            ObjectiveSpec(name="gpu_throughput"),  # constant over the history
            ObjectiveSpec(name="parameter_count", maximize=False),
        ],
        constraints=["accuracy>=0.55"],  # some candidates are infeasible
    )


class TestRunningBoundsEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_running_bounds_equal_reference_list_scoring(self, seed):
        from repro.core.fitness import ObjectiveBounds

        evaluator = _mixed_evaluator()
        history = _random_history(seed)
        bounds = ObjectiveBounds()
        for step, evaluation in enumerate(history):
            running = evaluator.score_against(evaluation, bounds)
            listed = evaluator.score(evaluation, history[:step])
            legacy = _legacy_score(evaluator, evaluation, history[:step])
            assert running.fitness == listed.fitness == legacy
            if not evaluation.failed:
                assert running.objectives == listed.objectives
                assert running.vector == listed.vector

    @pytest.mark.parametrize("seed", [5, 6])
    def test_repeated_candidates_score_like_the_reference_list(self, seed):
        from repro.core.fitness import ObjectiveBounds

        evaluator = _mixed_evaluator()
        history = _random_history(seed, count=30)
        history = history + history[::3]  # cache hits re-enter the same record
        bounds = ObjectiveBounds()
        for step, evaluation in enumerate(history):
            assert evaluator.score_against(evaluation, bounds).fitness == _legacy_score(
                evaluator, evaluation, history[:step]
            )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_carried_rescoring_equals_fresh_scoring(self, seed):
        evaluator = _mixed_evaluator()
        population = _random_history(seed, count=24)
        fresh = evaluator.score_population(population)
        carried = evaluator.score_population(population, carried=fresh)
        assert [r.fitness for r in carried] == [r.fitness for r in fresh]
        assert [r.vector for r in carried] == [r.vector for r in fresh]
        # Results without a vector (hand-built) are measured afresh.
        bare = [FitnessResult(fitness=0.0) for _ in population]
        assert [r.fitness for r in evaluator.score_population(population, carried=bare)] == [
            r.fitness for r in fresh
        ]

    def test_engine_history_fitness_matches_reference_list_scoring(
        self, small_search_space, fake_evaluator
    ):
        from repro.core.engine import EngineConfig, EvolutionaryEngine

        fitness = FitnessEvaluator(
            [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]
        )
        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=fitness,
            config=EngineConfig(population_size=6, max_evaluations=60, seed=3),
        )
        result = engine.run()
        evaluations = result.history.evaluations()
        for step, record in enumerate(result.history.records):
            assert record.fitness.fitness == _legacy_score(
                fitness, record.evaluation, evaluations[:step]
            )

    def test_rank_evaluator_rejects_running_bounds(self):
        from repro.core.fitness import ObjectiveBounds, ParetoRankingEvaluator

        evaluator = ParetoRankingEvaluator([ObjectiveSpec.accuracy()])
        with pytest.raises(TypeError):
            evaluator.score_against(make_fake_evaluation(_genome(), accuracy=0.5), ObjectiveBounds())


class TestVectorizedFrontier:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_all_pairs_loop(self, seed):
        rng = np.random.default_rng(seed)
        dims = 1 + seed % 4
        count = int(rng.integers(1, 80))
        # A small value grid forces ties and exact duplicates.
        points = rng.integers(0, 4, size=(count, dims)).astype(float)
        special = rng.random((count, dims))
        points[special < 0.05] = np.nan
        points[(special >= 0.05) & (special < 0.08)] = np.inf
        points[(special >= 0.08) & (special < 0.1)] = -np.inf
        rows = [tuple(row) for row in points]
        assert pareto_frontier_indices(rows) == _legacy_frontier_indices(rows)

    def test_duplicates_ties_and_nan_kept(self):
        nan = float("nan")
        points = [(1, 2), (2, 1), (1, 2), (1, 1), (nan, 9), (2, 1), (0, 0)]
        assert pareto_frontier_indices(points) == [0, 1, 2, 4, 5]
        assert pareto_frontier_indices(points) == _legacy_frontier_indices(points)

    def test_edge_shapes(self):
        assert pareto_frontier_indices([]) == []
        assert pareto_frontier_indices([(3.0,)]) == [0]
        with pytest.raises(ValueError):
            pareto_frontier_indices([(1, 2), (1,)])

    def test_blocked_comparison_matches_single_block(self, monkeypatch):
        from repro.core import pareto

        rng = np.random.default_rng(11)
        rows = [tuple(r) for r in rng.integers(0, 6, size=(50, 3)).astype(float)]
        expected = pareto.pareto_frontier_indices(rows)
        monkeypatch.setattr(pareto, "_PAIRWISE_BLOCK", 7)
        assert pareto.pareto_frontier_indices(rows) == expected


class TestGroupedFrontierArchive:
    @staticmethod
    def _legacy_archive(offers):
        """The original archive update: a Python loop over every member."""
        members, updates = {}, 0
        for key, vector in offers:
            if not vector.feasible or key in members:
                continue
            if any(member.dominates(vector) for member in members.values()):
                continue
            for stale in [k for k, member in members.items() if vector.dominates(member)]:
                del members[stale]
            members[key] = vector
            updates += 1
        order = sorted(members, key=lambda k: members[k].canonical[0], reverse=True)
        return order, updates

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_member_by_member_loop(self, seed):
        from repro.core.frontier import FrontierArchive
        from repro.core.objectives import ObjectiveVector

        rng = np.random.default_rng(seed)
        specs = [ObjectiveSpec.accuracy(), ObjectiveSpec(name="fpga_latency", maximize=False)]
        names = tuple(spec.name for spec in specs)
        archive = FrontierArchive(objectives=specs)
        offers = []
        for index in range(150):
            # Small value grid: many exact ties; some inf latencies.
            values = (float(rng.integers(0, 5)) / 4, float(rng.choice([1.0, 2.0, 3.0, np.inf])))
            vector = ObjectiveVector(
                names=names, values=values, maximize=(True, False), feasible=rng.random() > 0.1
            )
            # Revisit earlier genomes now and then, like cache hits do.
            neurons = int(rng.integers(1, index + 1)) if index and rng.random() < 0.2 else index + 1
            evaluation = make_fake_evaluation(_genome(neurons), accuracy=0.5)
            offers.append((evaluation.genome.cache_key(), vector))
            archive.observe(evaluation, step=index, vector=vector)
        order, updates = self._legacy_archive(offers)
        assert [m.evaluation.genome.cache_key() for m in archive.members()] == order
        assert archive.updates == updates


class TestMemoizedCacheKey:
    @staticmethod
    def _fresh_key(genome: CoDesignGenome) -> str:
        import hashlib
        import json

        canonical = json.dumps(genome.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_key_is_computed_once_and_correct(self):
        genome = _genome(24)
        key = genome.cache_key()
        assert key == self._fresh_key(genome)
        assert genome.cache_key() is key

    def test_equality_and_hash_ignore_the_memo(self):
        keyed, plain = _genome(24), _genome(24)
        keyed.cache_key()
        assert keyed == plain and hash(keyed) == hash(plain)
        assert {keyed: 1}[plain] == 1
        assert "_cache_key" not in repr(keyed)

    def test_survives_pickle(self):
        import pickle

        genome = _genome(32, rows=8)
        key = genome.cache_key()
        restored = pickle.loads(pickle.dumps(genome))
        assert restored == genome and hash(restored) == hash(genome)
        assert restored.cache_key() == key == self._fresh_key(restored)
        unkeyed = pickle.loads(pickle.dumps(_genome(32, rows=8)))
        assert unkeyed.cache_key() == key

    def test_survives_evaluation_json_round_trip(self):
        from repro.store.serialize import dumps, loads

        evaluation = make_fake_evaluation(_genome(16, rows=2), accuracy=0.8, fpga_outputs=3e5)
        key = evaluation.genome.cache_key()
        restored = loads(dumps(evaluation))
        assert restored.genome == evaluation.genome
        assert restored.genome.cache_key() == key

    def test_derived_genomes_get_their_own_key(self):
        genome = _genome(16)
        genome.cache_key()
        wider = genome.with_mlp(MLPGenome(hidden_layers=(64,), activations=("relu",)))
        assert wider.cache_key() == self._fresh_key(wider) != genome.cache_key()
