"""Tests for the Pareto-native multi-objective search API.

Covers the typed objective model (ObjectiveVector / constraints), NSGA-II
machinery (fast non-dominated sorting, crowding distance, selection scheme,
ranking evaluator), the search-strategy registry, the streaming
FrontierArchive (including the exact-match-with-post-hoc acceptance
criterion), async callback-dispatch ordering, and core/pareto edge cases.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.frontier import accuracy_throughput_frontier
from repro.core.callbacks import Callback
from repro.core.config import ECADConfig, OptimizationTargetConfig
from repro.core.engine import EngineConfig, EvolutionaryEngine
from repro.core.errors import ConfigurationError
from repro.core.fitness import (
    FitnessEvaluator,
    FitnessObjective,
    ParetoRankingEvaluator,
    parse_constraint,
)
from repro.core.frontier import FrontierArchive
from repro.core.genome import CoDesignGenome, HardwareGenome, MLPGenome
from repro.core.objectives import Constraint, ObjectiveVector, build_objective_vector
from repro.core.pareto import (
    ParetoPoint,
    crowding_distances,
    evaluation_frontier,
    fast_non_dominated_sort,
    hypervolume_2d,
    knee_point,
    pareto_frontier_indices,
    top_tradeoff_points,
)
from repro.core.search import CoDesignSearch, RandomSearch
from repro.core.selection import NSGA2Selection, get_selection
from repro.core.strategy import (
    STRATEGIES,
    EvolutionaryStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.hardware.device import ARRIA10_GX1150
from repro.hardware.systolic import GridConfig

from tests.conftest import make_fake_evaluation


def _genome(neurons: int = 16, rows: int = 4) -> CoDesignGenome:
    return CoDesignGenome(
        mlp=MLPGenome(hidden_layers=(neurons,), activations=("relu",)),
        hardware=HardwareGenome(grid=GridConfig(rows, 4, 2, 2, 2), batch_size=512),
    )


def _objectives() -> list[FitnessObjective]:
    return [FitnessObjective.accuracy(), FitnessObjective.fpga_throughput()]


# ---------------------------------------------------------------------------
# Constraints and objective vectors
# ---------------------------------------------------------------------------


class TestConstraints:
    def test_parse_every_operator(self):
        for text, op in (
            ("dsp_usage<=512", "<="),
            ("accuracy>=0.9", ">="),
            ("fpga_latency<0.001", "<"),
            ("fpga_throughput>1000", ">"),
        ):
            constraint = parse_constraint(text)
            assert constraint.op == op
            assert str(parse_constraint(str(constraint))) == str(constraint)

    def test_parse_rejects_malformed_expressions(self):
        for bad in ("dsp_usage", "<=3", "dsp_usage<=", "dsp_usage<=abc", "nope<=1"):
            with pytest.raises(ConfigurationError):
                parse_constraint(bad)

    def test_satisfaction_and_violation(self):
        constraint = Constraint(objective="dsp_usage", op="<=", bound=100.0)
        assert constraint.satisfied(100.0)
        assert not constraint.satisfied(100.5)
        assert constraint.violation(100.5) == pytest.approx(0.5)
        assert constraint.violation(99.0) == 0.0
        strict = Constraint(objective="accuracy", op=">", bound=0.5)
        assert not strict.satisfied(0.5)
        assert strict.satisfied(0.51)

    def test_constraint_feasibility_flows_into_fitness(self):
        # dsp_usage of these genomes is grid-dependent; bound it below usage.
        evaluation = make_fake_evaluation(_genome(rows=8), accuracy=0.9, fpga_outputs=1e6)
        usage = evaluation.genome.hardware.grid.dsp_blocks_used
        evaluator = FitnessEvaluator(_objectives(), constraints=[f"dsp_usage<={usage - 1}"])
        results = evaluator.score_population([evaluation])
        assert results[0].fitness == float("-inf")
        assert not results[0].vector.feasible
        assert results[0].vector.violation > 0
        # A loose bound keeps the candidate feasible with unchanged scoring.
        loose = FitnessEvaluator(_objectives(), constraints=[f"dsp_usage<={usage}"])
        feasible = loose.score_population([evaluation])
        assert feasible[0].vector.feasible
        assert np.isfinite(feasible[0].fitness)


class TestObjectiveVector:
    def test_canonical_negates_minimized_objectives(self):
        vector = ObjectiveVector(
            names=("accuracy", "parameter_count"),
            values=(0.9, 1000.0),
            maximize=(True, False),
        )
        assert vector.canonical == (0.9, -1000.0)
        assert vector.value("accuracy") == pytest.approx(0.9)
        with pytest.raises(KeyError):
            vector.value("nope")

    def test_dominance_respects_directions(self):
        small = ObjectiveVector(("accuracy", "parameter_count"), (0.9, 100.0), (True, False))
        big = ObjectiveVector(("accuracy", "parameter_count"), (0.9, 200.0), (True, False))
        assert small.dominates(big)
        assert not big.dominates(small)

    def test_constrained_dominance(self):
        feasible = ObjectiveVector(("accuracy",), (0.1,), (True,), feasible=True)
        infeasible = ObjectiveVector(
            ("accuracy",), (0.99,), (True,), feasible=False, violation=5.0
        )
        worse_infeasible = ObjectiveVector(
            ("accuracy",), (0.99,), (True,), feasible=False, violation=9.0
        )
        assert feasible.dominates(infeasible)
        assert not infeasible.dominates(feasible)
        assert infeasible.dominates(worse_infeasible)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ObjectiveVector(names=(), values=(), maximize=())
        with pytest.raises(ValueError):
            ObjectiveVector(names=("a",), values=(1.0, 2.0), maximize=(True,))
        a = ObjectiveVector(("accuracy",), (0.5,), (True,))
        b = ObjectiveVector(("fpga_throughput",), (1e6,), (True,))
        with pytest.raises(ValueError):
            a.dominates(b)

    def test_failed_evaluation_builds_infeasible_nan_vector(self):
        from repro.core.candidate import CandidateEvaluation

        failed = CandidateEvaluation(genome=_genome(), error="boom")
        vector = build_objective_vector(failed, _objectives())
        assert not vector.feasible
        assert vector.violation == float("inf")
        assert all(np.isnan(v) for v in vector.values)


# ---------------------------------------------------------------------------
# NSGA-II primitives
# ---------------------------------------------------------------------------


class TestFastNonDominatedSort:
    def test_fronts_partition_and_order(self):
        points = [(1.0, 1.0), (0.5, 0.5), (2.0, 0.1), (0.1, 2.0), (0.4, 0.4)]
        fronts = fast_non_dominated_sort(points)
        assert sorted(i for front in fronts for i in front) == list(range(len(points)))
        assert set(fronts[0]) == {0, 2, 3}  # mutually non-dominated trio
        assert set(fronts[1]) == {1}
        assert set(fronts[2]) == {4}

    def test_front_zero_matches_frontier_indices(self):
        rng = np.random.default_rng(3)
        points = [tuple(rng.uniform(0, 1, size=2)) for _ in range(40)]
        fronts = fast_non_dominated_sort(points)
        assert sorted(fronts[0]) == sorted(pareto_frontier_indices(points))

    def test_empty_and_identical_points(self):
        assert fast_non_dominated_sort([]) == []
        fronts = fast_non_dominated_sort([(1.0, 1.0)] * 4)
        assert fronts == [[0, 1, 2, 3]]  # ties never dominate each other


class TestCrowdingDistance:
    def test_boundaries_are_infinite_and_interior_ordered(self):
        values = [(0.0, 1.0), (0.4, 0.65), (0.5, 0.5), (1.0, 0.0)]
        distances = crowding_distances(values)
        assert distances[0] == float("inf")
        assert distances[3] == float("inf")
        assert np.isfinite(distances[1]) and np.isfinite(distances[2])
        assert distances[1] > 0 and distances[2] > 0

    def test_tiny_fronts_all_infinite(self):
        assert crowding_distances([]) == []
        assert crowding_distances([(1.0, 2.0)]) == [float("inf")]
        assert crowding_distances([(1.0, 2.0), (2.0, 1.0)]) == [float("inf")] * 2

    def test_degenerate_objective_span_ignored(self):
        values = [(0.0, 5.0), (0.5, 5.0), (1.0, 5.0)]
        distances = crowding_distances(values)
        assert distances[0] == float("inf") and distances[2] == float("inf")
        assert np.isfinite(distances[1])


class TestHypervolume:
    def test_rectangle_area(self):
        assert hypervolume_2d([(1.0, 1.0)]) == pytest.approx(1.0)
        assert hypervolume_2d([(2.0, 3.0)], reference=(1.0, 1.0)) == pytest.approx(2.0)

    def test_staircase_union(self):
        points = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        # 3x1 + 2x1 + 1x1 staircase
        assert hypervolume_2d(points) == pytest.approx(6.0)

    def test_dominated_points_do_not_add_area(self):
        base = [(1.0, 3.0), (3.0, 1.0)]
        assert hypervolume_2d(base + [(0.5, 0.5)]) == pytest.approx(hypervolume_2d(base))

    def test_empty_and_subreference_points(self):
        assert hypervolume_2d([]) == 0.0
        assert hypervolume_2d([(-1.0, -2.0)]) == 0.0


class TestParetoRankingEvaluator:
    def test_rank_zero_scores_above_rank_one(self):
        evaluator = ParetoRankingEvaluator(_objectives())
        evaluations = [
            make_fake_evaluation(_genome(8), accuracy=0.9, fpga_outputs=1e5),   # front 0
            make_fake_evaluation(_genome(16), accuracy=0.5, fpga_outputs=1e6),  # front 0
            make_fake_evaluation(_genome(32), accuracy=0.4, fpga_outputs=5e5),  # dominated
        ]
        results = evaluator.score_population(evaluations)
        assert results[0].fitness > results[2].fitness
        assert results[1].fitness > results[2].fitness
        assert results[0].fitness > 0 and results[1].fitness > 0
        assert results[2].fitness <= -0.09  # strictly below every front-0 score

    def test_failed_candidates_keep_minus_infinity(self):
        from repro.core.candidate import CandidateEvaluation

        evaluator = ParetoRankingEvaluator(_objectives())
        ok = make_fake_evaluation(_genome(8), accuracy=0.7, fpga_outputs=1e6)
        failed = CandidateEvaluation(genome=_genome(16), error="boom")
        results = evaluator.score_population([ok, failed])
        assert results[1].fitness == float("-inf")
        assert np.isfinite(results[0].fitness)

    def test_engine_admits_newcomers_throughout_an_nsga2_run(
        self, small_search_space, fake_evaluator
    ):
        """Regression: newcomers must be scored population-relative.

        Rank-encoded fitness computed against the full history is not
        comparable to the population-relative scores ``Population.add``
        weighs it against; with that bug the population froze early in the
        run and late non-dominated offspring were rejected.
        """
        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=ParetoRankingEvaluator(_objectives()),
            config=EngineConfig(population_size=6, max_evaluations=80, seed=0),
            device=ARRIA10_GX1150,
            selection=get_selection("nsga2"),
        )
        result = engine.run()
        latest_birth = max(member.birth_step for member in result.population.members)
        assert latest_birth > 40  # members kept arriving in the run's second half

    def test_frontier_progress_resets_nsga2_stagnation(
        self, small_search_space, fake_evaluator
    ):
        """Regression: the capped rank score must not trip early stopping.

        The best front-0 member always scores exactly CROWDING_SPAN, so the
        scalar trace never 'improves'; an advancing frontier archive is the
        progress signal that must keep the search alive.
        """
        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=ParetoRankingEvaluator(_objectives()),
            config=EngineConfig(
                population_size=6, max_evaluations=80, seed=0, max_stagnation_steps=5
            ),
            device=ARRIA10_GX1150,
            selection=get_selection("nsga2"),
        )
        result = engine.run()
        # The frontier keeps advancing on this landscape, so the run must
        # consume far more than population + stagnation-window evaluations.
        assert result.statistics.models_generated > 6 + 5 + 10
        assert result.statistics.frontier_updates > 10


class TestNSGA2Selection:
    def _population(self):
        from repro.core.population import Individual, Population

        evaluator = ParetoRankingEvaluator(_objectives())
        evaluations = [
            make_fake_evaluation(_genome(8, rows=2), accuracy=0.9, fpga_outputs=1e5),
            make_fake_evaluation(_genome(16, rows=2), accuracy=0.5, fpga_outputs=1e6),
            make_fake_evaluation(_genome(32, rows=2), accuracy=0.4, fpga_outputs=5e5),
            make_fake_evaluation(_genome(64, rows=2), accuracy=0.3, fpga_outputs=1e4),
        ]
        results = evaluator.score_population(evaluations)
        population = Population(capacity=8)
        for evaluation, result in zip(evaluations, results):
            population.add(
                Individual(genome=evaluation.genome, evaluation=evaluation, fitness=result)
            )
        return population

    def test_prefers_first_front(self, rng):
        population = self._population()
        scheme = NSGA2Selection()
        front0_accuracies = {0.9, 0.5}
        picks = [scheme.select(population, rng).evaluation.accuracy for _ in range(200)]
        front0_share = sum(1 for a in picks if a in front0_accuracies) / len(picks)
        assert front0_share > 0.7

    def test_registry_resolution_and_empty_population(self, rng):
        from repro.core.errors import SearchError
        from repro.core.population import Population

        assert isinstance(get_selection("nsga2"), NSGA2Selection)
        with pytest.raises(SearchError):
            NSGA2Selection().select(Population(capacity=2), rng)

    def test_scalar_fallback_without_vectors(self, rng):
        from repro.core.fitness import FitnessResult
        from repro.core.population import Individual, Population

        population = Population(capacity=4)
        for neurons, fitness in ((8, 0.9), (16, 0.1)):
            evaluation = make_fake_evaluation(_genome(neurons), accuracy=fitness)
            population.add(
                Individual(
                    genome=evaluation.genome,
                    evaluation=evaluation,
                    fitness=FitnessResult(fitness=fitness),
                )
            )
        picks = [NSGA2Selection().select(population, rng).fitness_value for _ in range(100)]
        assert np.mean(picks) > 0.4  # better scalar member preferred on average


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------


class TestStrategyRegistry:
    def test_builtins_registered_with_aliases(self):
        assert set(available_strategies()) >= {"evolutionary", "nsga2", "random"}
        assert "weighted_sum" in STRATEGIES
        assert isinstance(get_strategy("weighted_sum"), EvolutionaryStrategy)
        instance = EvolutionaryStrategy()
        assert get_strategy(instance) is instance

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            get_strategy("simulated_annealing")
        with pytest.raises(ConfigurationError):
            register_strategy("nsga2", EvolutionaryStrategy)

    def test_config_strategy_field_validated_and_persisted(self, tiny_dataset, tmp_path):
        config = ECADConfig.template_for_dataset(tiny_dataset, strategy="nsga2")
        path = tmp_path / "config.json"
        config.save(path)
        assert ECADConfig.load(path).strategy == "nsga2"
        with pytest.raises(ConfigurationError):
            ECADConfig.template_for_dataset(tiny_dataset, strategy="nope")

    def test_constraints_persist_through_config_round_trip(self, tiny_dataset, tmp_path):
        optimization = OptimizationTargetConfig(constraints=("dsp_usage<=512",))
        config = ECADConfig.template_for_dataset(tiny_dataset, optimization=optimization)
        path = tmp_path / "config.json"
        config.save(path)
        loaded = ECADConfig.load(path)
        assert loaded.optimization.constraints == ("dsp_usage<=512",)
        assert len(loaded.optimization.to_constraints()) == 1
        with pytest.raises(ConfigurationError):
            OptimizationTargetConfig(constraints=("not a constraint",))


# ---------------------------------------------------------------------------
# End-to-end strategies (acceptance criteria)
# ---------------------------------------------------------------------------


class TestStrategiesEndToEnd:
    def _search(self, tiny_dataset, **config_overrides) -> CoDesignSearch:
        config = ECADConfig.template_for_dataset(
            tiny_dataset,
            population_size=6,
            max_evaluations=40,
            seed=0,
            training_epochs=2,
            **config_overrides,
        )
        return CoDesignSearch(tiny_dataset, config=config)

    def test_nsga2_produces_non_degenerate_frontier(self, tiny_dataset, fake_evaluator):
        """Acceptance: >= 3 mutually non-dominated points on the synthetic dataset."""
        result = self._search(tiny_dataset, strategy="nsga2").run(evaluator=fake_evaluator)
        archive = result.frontier_archive
        assert archive is not None
        vectors = archive.vectors()
        assert len(vectors) >= 3
        for a in vectors:
            for b in vectors:
                if a is not b:
                    assert not a.dominates(b)

    def test_streaming_archive_matches_posthoc_extraction_exactly(
        self, tiny_dataset, fake_evaluator
    ):
        """Acceptance: the final FrontierArchive state == post-hoc extraction."""
        for strategy in ("evolutionary", "nsga2"):
            result = self._search(tiny_dataset, strategy=strategy).run(evaluator=fake_evaluator)
            unique = result.history.unique_evaluations()
            posthoc = {
                unique[i].genome.cache_key()
                for i in pareto_frontier_indices(
                    [(e.accuracy, e.fpga_outputs_per_second) for e in unique if not e.failed]
                )
            }
            streamed = {e.genome.cache_key() for e in result.frontier_archive.frontier()}
            assert streamed == posthoc

    def test_weighted_sum_default_is_bit_identical_to_explicit_strategy(
        self, tiny_dataset, fake_evaluator
    ):
        """Acceptance: existing weighted-sum runs are unchanged by the redesign."""
        default = self._search(tiny_dataset).run(evaluator=fake_evaluator)
        explicit = self._search(tiny_dataset, strategy="evolutionary").run(
            evaluator=fake_evaluator
        )
        aliased = self._search(tiny_dataset).run(evaluator=fake_evaluator, strategy="weighted_sum")
        for other in (explicit, aliased):
            assert [e.genome.cache_key() for e in default.history.evaluations()] == [
                e.genome.cache_key() for e in other.history.evaluations()
            ]
            assert [r.fitness.fitness for r in default.history.records] == [
                r.fitness.fitness for r in other.history.records
            ]
            assert (
                default.best_fitness_candidate.genome.cache_key()
                == other.best_fitness_candidate.genome.cache_key()
            )

    def test_nsga2_matches_weighted_sum_hypervolume_at_equal_budget(
        self, tiny_dataset, fake_evaluator
    ):
        weighted = self._search(tiny_dataset).run(evaluator=fake_evaluator)
        nsga2 = self._search(tiny_dataset, strategy="nsga2").run(evaluator=fake_evaluator)
        points = {
            name: [(v.values[0], v.values[1]) for v in result.frontier_archive.vectors()]
            for name, result in (("weighted", weighted), ("nsga2", nsga2))
        }
        # One shared throughput scale so the two areas are commensurable.
        throughput_max = max(t for front in points.values() for _, t in front)
        hypervolumes = {
            name: hypervolume_2d([(a, t / throughput_max) for a, t in front])
            for name, front in points.items()
        }
        assert len(points["nsga2"]) >= 3
        assert hypervolumes["nsga2"] >= 0.95 * hypervolumes["weighted"]

    def test_random_strategy_routes_through_random_search(self, tiny_dataset, fake_evaluator):
        result = self._search(tiny_dataset, strategy="random").run(evaluator=fake_evaluator)
        assert result.statistics.models_generated == 40
        assert result.frontier_archive is not None
        assert result.statistics.frontier_size == len(result.frontier_archive)

    def test_random_strategy_honours_the_evaluation_window(self, tiny_dataset, fake_evaluator):
        serial = self._search(tiny_dataset, strategy="random").run(evaluator=fake_evaluator)
        windowed = self._search(
            tiny_dataset, strategy="random", eval_batch_size=4, eval_parallelism=2
        ).run(evaluator=fake_evaluator)
        assert serial.statistics.peak_in_flight == 1
        assert windowed.statistics.peak_in_flight == 8
        assert [e.genome.cache_key() for e in windowed.history.evaluations()] == [
            e.genome.cache_key() for e in serial.history.evaluations()
        ]

    def test_random_strategy_dispatches_search_callbacks(self, tiny_dataset, fake_evaluator):
        """Regression: user callbacks must not be dropped by the random strategy."""
        seen: list[int] = []

        class Recorder(Callback):
            def on_evaluation(self, evaluation, fitness, step):
                seen.append(step)

        config = ECADConfig.template_for_dataset(
            tiny_dataset,
            population_size=6,
            max_evaluations=20,
            seed=0,
            training_epochs=2,
            strategy="random",
        )
        search = CoDesignSearch(tiny_dataset, config=config, callbacks=[Recorder()])
        result = search.run(evaluator=fake_evaluator)
        assert len(seen) == result.statistics.models_generated == 20

    def test_constraints_exclude_candidates_from_frontier(self, tiny_dataset, fake_evaluator):
        loose = self._search(tiny_dataset, strategy="nsga2").run(evaluator=fake_evaluator)
        usages = [
            e.genome.hardware.grid.dsp_blocks_used
            for e in loose.history.evaluations()
            if not e.failed
        ]
        bound = float(np.median(usages))
        constrained = self._search(
            tiny_dataset,
            strategy="nsga2",
            optimization=OptimizationTargetConfig(constraints=(f"dsp_usage<={bound}",)),
        ).run(evaluator=fake_evaluator)
        for evaluation in constrained.frontier_archive.frontier():
            assert evaluation.genome.hardware.grid.dsp_blocks_used <= bound


# ---------------------------------------------------------------------------
# FrontierArchive unit behaviour
# ---------------------------------------------------------------------------


class TestFrontierArchive:
    def test_incremental_updates_and_snapshots(self):
        archive = FrontierArchive(objectives=_objectives())
        a = make_fake_evaluation(_genome(8), accuracy=0.5, fpga_outputs=1e5)
        b = make_fake_evaluation(_genome(16), accuracy=0.9, fpga_outputs=2e5)  # dominates a
        c = make_fake_evaluation(_genome(32), accuracy=0.4, fpga_outputs=1e4)  # dominated
        assert archive.observe(a, step=0)
        assert archive.observe(b, step=1)
        assert not archive.observe(c, step=2)
        assert len(archive) == 1  # a was evicted by b
        assert archive.updates == 2
        assert [s.size for s in archive.snapshots] == [1, 1]
        assert archive.frontier()[0].accuracy == pytest.approx(0.9)

    def test_duplicate_genomes_and_failures_ignored(self):
        from repro.core.candidate import CandidateEvaluation

        archive = FrontierArchive(objectives=_objectives())
        a = make_fake_evaluation(_genome(8), accuracy=0.5, fpga_outputs=1e5)
        assert archive.observe(a)
        assert not archive.observe(a)  # same genome: cache hit re-entering history
        assert not archive.observe(CandidateEvaluation(genome=_genome(16), error="boom"))
        assert len(archive) == 1

    def test_tied_vectors_coexist(self):
        archive = FrontierArchive(objectives=_objectives())
        archive.observe(make_fake_evaluation(_genome(8), accuracy=0.5, fpga_outputs=1e5))
        archive.observe(make_fake_evaluation(_genome(16), accuracy=0.5, fpga_outputs=1e5))
        assert len(archive) == 2

    def test_rows_carry_objective_values_and_summary(self):
        archive = FrontierArchive(objectives=_objectives())
        archive.observe(make_fake_evaluation(_genome(8), accuracy=0.5, fpga_outputs=1e5))
        row = archive.rows()[0]
        assert row["accuracy"] == pytest.approx(0.5)
        assert row["fpga_throughput"] == pytest.approx(1e5)
        assert "hidden_layers" in row

    def test_random_search_streams_the_archive(self, small_search_space, fake_evaluator):
        result = RandomSearch(
            space=small_search_space,
            evaluator=fake_evaluator,
            objectives=_objectives(),
            max_evaluations=30,
            seed=0,
            device=ARRIA10_GX1150,
        ).run()
        archive = result.frontier_archive
        assert archive is not None and len(archive) > 0
        streamed = {e.genome.cache_key() for e in archive.frontier()}
        unique = result.history.unique_evaluations()
        posthoc = {
            unique[i].genome.cache_key()
            for i in pareto_frontier_indices(
                [(e.accuracy, e.fpga_outputs_per_second) for e in unique if not e.failed]
            )
        }
        assert streamed == posthoc


# ---------------------------------------------------------------------------
# Async callback dispatch (satellite: completion order, exactly once)
# ---------------------------------------------------------------------------


class _RecordingCallback(Callback):
    def __init__(self) -> None:
        self.starts = 0
        self.ends = 0
        self.evaluations: list[tuple[str, int]] = []
        self.steps: list[int] = []
        self.threads: set[int] = set()
        self.pending_step_ends = 0
        self.violations: list[str] = []

    def on_search_start(self, population) -> None:
        self.starts += 1
        self.threads.add(threading.get_ident())

    def on_evaluation(self, evaluation, fitness, step) -> None:
        self.threads.add(threading.get_ident())
        if self.pending_step_ends > 0 and self.starts > 0:
            self.violations.append("on_evaluation before previous on_step_end")
        self.evaluations.append((evaluation.genome.cache_key(), step))
        if self.starts > 0:  # steady-state phase: expect a matching step end
            self.pending_step_ends += 1

    def on_step_end(self, population, step) -> None:
        self.threads.add(threading.get_ident())
        self.steps.append(step)
        self.pending_step_ends = max(0, self.pending_step_ends - 1)

    def on_search_end(self, population) -> None:
        self.ends += 1
        self.threads.add(threading.get_ident())


class TestAsyncCallbackDispatch:
    def test_engine_async_path_fires_hooks_exactly_once_in_completion_order(
        self, small_search_space, fake_evaluator
    ):
        recorder = _RecordingCallback()
        engine = EvolutionaryEngine(
            space=small_search_space,
            evaluator=fake_evaluator,
            fitness=FitnessEvaluator(_objectives()),
            config=EngineConfig(
                population_size=6, max_evaluations=40, seed=0, eval_parallelism=4
            ),
            device=ARRIA10_GX1150,
            callbacks=[recorder],
        )
        result = engine.run()
        stats = result.statistics
        assert recorder.starts == 1 and recorder.ends == 1
        # exactly once per generated candidate
        assert len(recorder.evaluations) == stats.models_generated == 40
        # one step end per steady-state insertion, strictly increasing
        assert len(recorder.steps) == stats.models_generated - 6
        assert recorder.steps == sorted(recorder.steps)
        assert len(set(recorder.steps)) == len(recorder.steps)
        # interleaving: every steady-state evaluation saw its step end
        assert not recorder.violations
        assert recorder.pending_step_ends == 0
        # all hooks fired from the coordinating thread, not worker threads
        assert len(recorder.threads) == 1

    def test_real_master_threads_backend_dispatch(self, tiny_dataset):
        """Regression: callback dispatch through Master under --backend threads."""
        recorder = _RecordingCallback()
        config = ECADConfig.template_for_dataset(
            tiny_dataset,
            population_size=4,
            max_evaluations=8,
            seed=0,
            training_epochs=2,
            backend="threads",
            eval_parallelism=4,
        )
        search = CoDesignSearch(tiny_dataset, config=config, callbacks=[recorder])
        result = search.run()
        stats = result.statistics
        assert recorder.starts == 1 and recorder.ends == 1
        assert len(recorder.evaluations) == stats.models_generated == 8
        keys = [key for key, _ in recorder.evaluations]
        # each candidate exactly once: history and callback agree one-to-one
        assert keys == [e.genome.cache_key() for e in result.history.evaluations()]
        assert len(recorder.steps) == 4
        assert recorder.steps == sorted(recorder.steps)
        assert not recorder.violations
        assert len(recorder.threads) == 1


# ---------------------------------------------------------------------------
# core/pareto edge cases (satellite)
# ---------------------------------------------------------------------------


class TestParetoEdgeCases:
    def test_knee_point_single_point(self):
        only = ParetoPoint(values=(1.0, 2.0), payload="solo")
        assert knee_point([only]).payload == "solo"

    def test_knee_point_duplicate_and_tied_points(self):
        tied = [
            ParetoPoint(values=(0.5, 0.5), payload="a"),
            ParetoPoint(values=(0.5, 0.5), payload="b"),
        ]
        assert knee_point(tied).payload in {"a", "b"}

    def test_knee_point_empty_raises(self):
        with pytest.raises(ValueError):
            knee_point([])

    def test_top_tradeoff_points_edge_cases(self):
        assert top_tradeoff_points([], count=3) == []
        solo = [ParetoPoint(values=(0.9, 1e5), payload="solo")]
        assert [p.payload for p in top_tradeoff_points(solo, count=3)] == ["solo"]
        duplicates = [
            ParetoPoint(values=(0.9, 1e5), payload="a"),
            ParetoPoint(values=(0.9, 1e5), payload="b"),
        ]
        rows = top_tradeoff_points(duplicates, count=2)
        assert {p.payload for p in rows} == {"a", "b"}

    def test_all_dominated_set_still_summarizable(self):
        # Callers may pass a non-frontier set; helpers must not crash.
        chain = [
            ParetoPoint(values=(0.1, 0.1), payload="worst"),
            ParetoPoint(values=(0.5, 0.5), payload="middle"),
            ParetoPoint(values=(0.9, 0.9), payload="best"),
        ]
        assert knee_point(chain).payload == "best"
        rows = top_tradeoff_points(chain, count=2)
        assert rows[0].payload == "best"

    def test_frontier_indices_empty_single_and_duplicates(self):
        assert pareto_frontier_indices([]) == []
        assert pareto_frontier_indices([(1.0, 2.0)]) == [0]
        assert pareto_frontier_indices([(1.0, 1.0), (1.0, 1.0)]) == [0, 1]

    def test_evaluation_frontier_rejects_unknown_device(self):
        with pytest.raises(ValueError):
            evaluation_frontier([], device="tpu")
        assert evaluation_frontier([], device="fpga") == []


# ---------------------------------------------------------------------------
# Property test: all frontier-extraction paths agree (satellite)
# ---------------------------------------------------------------------------


_metrics_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    ),
    min_size=0,
    max_size=16,
)


class TestFrontierPathsAgree:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(metrics=_metrics_strategy)
    def test_search_analysis_and_pareto_paths_agree(self, metrics):
        evaluations = [
            make_fake_evaluation(_genome(8 + 8 * i), accuracy=accuracy, fpga_outputs=fpga)
            for i, (accuracy, fpga) in enumerate(metrics)
        ]
        via_search = evaluation_frontier(evaluations, device="fpga")
        via_analysis = accuracy_throughput_frontier(evaluations, device="fpga")
        direct = [
            evaluations[i]
            for i in pareto_frontier_indices(
                [(e.accuracy, e.fpga_outputs_per_second) for e in evaluations]
            )
        ]
        assert [id(e) for e in via_search] == [id(e) for e in via_analysis]
        assert {id(e) for e in via_search} == {id(e) for e in direct}
        archive = FrontierArchive(objectives=_objectives())
        for evaluation in evaluations:
            archive.observe(evaluation)
        # archive dedupes by genome; compare on unique genomes
        unique: dict[str, object] = {}
        for e in evaluations:
            unique.setdefault(e.genome.cache_key(), e)
        unique_frontier = {
            list(unique)[i]
            for i in pareto_frontier_indices(
                [(e.accuracy, e.fpga_outputs_per_second) for e in unique.values()]
            )
        }
        assert {e.genome.cache_key() for e in archive.frontier()} == unique_frontier
