"""The steady-state evolutionary engine — the heart of the ECAD flow.

Section III-A of the paper: the evolutionary process, "based on a steady-state
model", generates a population of NNA/hardware co-design candidates, has each
evaluated by workers, scores them with user-defined fitness functions, and
iterates by selecting parents, recombining and mutating them, and inserting
offspring back into the population.

The engine is deliberately decoupled from the evaluation machinery: it only
needs a callable ``evaluator(genome) -> CandidateEvaluation``.  In the full
system that callable is the :class:`~repro.workers.master.Master`; in unit
tests it can be a cheap synthetic function.  Caching, duplicate avoidance and
run-time statistics (Table III) live here because they are properties of the
search, not of any individual worker.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, as_completed, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..hardware.device import FPGADevice
from .cache import EvaluationCache
from .callbacks import Callback, CallbackList, SearchHistory
from .candidate import CandidateEvaluation
from .crossover import CoDesignCrossover
from .errors import SearchError
from .fitness import FitnessEvaluator, FitnessResult, ObjectiveBounds
from .frontier import FrontierArchive
from .genome import CoDesignGenome, CoDesignSearchSpace
from .mutation import CoDesignMutator, MutationConfig
from .population import Individual, Population
from .selection import SelectionScheme, get_selection

__all__ = ["EngineConfig", "RunStatistics", "EngineResult", "EvolutionaryEngine"]

#: Evaluator signature: maps a genome to its full evaluation record.
Evaluator = Callable[[CoDesignGenome], CandidateEvaluation]


@dataclass(frozen=True)
class EngineConfig:
    """Hyperparameters of the evolutionary search itself.

    Attributes
    ----------
    population_size:
        Number of individuals retained in the steady-state population.
    max_evaluations:
        Total number of candidate evaluations (including the initial
        population and cache hits) before the search stops.
    crossover_probability:
        Probability that an offspring is produced by recombination of two
        parents (otherwise a single parent is cloned) before mutation.
    mutation_probability:
        Probability that the offspring is mutated (applied after crossover;
        a cloned, unmutated offspring is still possible but will usually be
        deduplicated by the cache).
    selection:
        Name of the parent-selection scheme (``tournament``, ``roulette``,
        ``rank``, ``nsga2``).
    tournament_size:
        Tournament size for scalar ``tournament`` selection.
    nsga2_tournament_size:
        Tournament size for ``nsga2`` (rank + crowding) selection.  Defaults
        to the classic binary tournament; raise it to match a scalarized
        baseline's selection pressure when comparing strategies at equal
        budgets (see the table4 benchmark).
    steady_state:
        True for the paper's steady-state replacement; False switches to a
        generational model (used only by the ablation benchmark).
    avoid_duplicate_genomes:
        Skip offspring whose exact parameters are already in the population
        (the cache still answers repeats across the whole run).
    seed:
        RNG seed for the search (initial population, selection, operators).
    max_stagnation_steps:
        Stop early when the best fitness has not improved for this many
        steps; ``0`` disables early stopping.
    eval_parallelism:
        Maximum number of candidate evaluations kept in flight at once.
        ``1`` (the default) runs the original, bit-for-bit reproducible
        serial steady-state loop; larger values switch the steady-state
        search to the asynchronous batched pipeline (offspring are generated
        in windows, dispatched concurrently, and inserted in completion
        order).
    eval_batch_size:
        Number of offspring bred and dispatched together as one evaluator
        call.  ``1`` (the default) keeps per-candidate dispatch; larger
        values let a batch-capable evaluator (``evaluate_batch``, e.g. the
        master fanning out fused-GEMM workers) amortize training and
        hardware-model work across the batch.  Any value above 1 routes the
        steady-state search through the asynchronous pipeline.
    """

    population_size: int = 24
    max_evaluations: int = 200
    crossover_probability: float = 0.5
    mutation_probability: float = 0.9
    selection: str = "tournament"
    tournament_size: int = 3
    nsga2_tournament_size: int = 2
    steady_state: bool = True
    avoid_duplicate_genomes: bool = True
    seed: int | None = None
    max_stagnation_steps: int = 0
    eval_parallelism: int = 1
    eval_batch_size: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise SearchError(f"population_size must be >= 2, got {self.population_size}")
        if self.tournament_size < 1:
            raise SearchError(f"tournament_size must be >= 1, got {self.tournament_size}")
        if self.tournament_size > self.population_size:
            raise SearchError(
                "tournament_size must not exceed population_size "
                f"({self.tournament_size} > {self.population_size})"
            )
        if self.nsga2_tournament_size < 2:
            raise SearchError(
                f"nsga2_tournament_size must be >= 2, got {self.nsga2_tournament_size}"
            )
        if self.nsga2_tournament_size > self.population_size:
            raise SearchError(
                "nsga2_tournament_size must not exceed population_size "
                f"({self.nsga2_tournament_size} > {self.population_size})"
            )
        if self.eval_parallelism < 1:
            raise SearchError(f"eval_parallelism must be >= 1, got {self.eval_parallelism}")
        if self.eval_batch_size < 1:
            raise SearchError(f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        if self.max_evaluations < self.population_size:
            raise SearchError(
                "max_evaluations must be at least population_size "
                f"({self.max_evaluations} < {self.population_size})"
            )
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise SearchError(
                f"crossover_probability must be in [0, 1], got {self.crossover_probability}"
            )
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise SearchError(
                f"mutation_probability must be in [0, 1], got {self.mutation_probability}"
            )
        if self.max_stagnation_steps < 0:
            raise SearchError(
                f"max_stagnation_steps must be >= 0, got {self.max_stagnation_steps}"
            )


@dataclass
class RunStatistics:
    """Run-time statistics of one search — the rows of Table III.

    Attributes
    ----------
    models_generated:
        Number of candidate genomes produced by the engine (initial population
        plus offspring), i.e. "Total Models Evaluated" in the paper's wording,
        which counts generated combinations.
    models_evaluated:
        Number of genomes actually sent to workers (cache misses).
    cache_hits:
        Number of candidate evaluations answered by the cache.
    total_evaluation_seconds:
        Sum of wall-clock evaluation time across all fresh evaluations.
    wall_clock_seconds:
        End-to-end search time.
    peak_in_flight:
        Largest number of candidate evaluations that were in flight at the
        same time (1 for the serial engine).
    frontier_size:
        Size of the streaming Pareto-frontier archive when the search ended.
    frontier_updates:
        How many evaluations changed the frontier during the run.
    store_hits:
        Evaluations answered by the persistent evaluation store (a subset of
        ``cache_hits``; 0 when no store is configured).
    store_misses:
        Store lookups that fell through to a fresh evaluation.
    warm_start_seeds:
        Initial-population members seeded from the store's best stored
        candidates instead of being drawn at random.
    surrogate_screened:
        Offspring candidates scored by the surrogate pre-screen (0 when the
        ``surrogate`` strategy is off or its model never became ready).
    real_evals_saved:
        Screened candidates discarded without a full-budget evaluation —
        the evaluations the surrogate saved relative to evaluating every
        bred candidate.
    surrogate_mae:
        Mean absolute error of the surrogate's accuracy predictions against
        the real evaluations of the candidates it promoted (0 when unused).
    rung_evaluations:
        Low-fidelity (reduced-epoch) trainings spent in successive-halving
        rungs; these are real but cheap trainings, kept separate from
        ``models_evaluated`` so full-budget counts stay comparable.
    """

    models_generated: int = 0
    models_evaluated: int = 0
    cache_hits: int = 0
    total_evaluation_seconds: float = 0.0
    wall_clock_seconds: float = 0.0
    peak_in_flight: int = 0
    frontier_size: int = 0
    frontier_updates: int = 0
    store_hits: int = 0
    store_misses: int = 0
    warm_start_seeds: int = 0
    surrogate_screened: int = 0
    real_evals_saved: int = 0
    surrogate_mae: float = 0.0
    rung_evaluations: int = 0

    @property
    def average_evaluation_seconds(self) -> float:
        """Mean evaluation time per freshly evaluated model (0 when none)."""
        if self.models_evaluated == 0:
            return 0.0
        return self.total_evaluation_seconds / self.models_evaluated

    @property
    def evaluations_per_second(self) -> float:
        """Fresh evaluations completed per wall-clock second (0 when unknown).

        Guards both degenerate cases: no fresh evaluations (an all-cache-hit
        run is not infinitely fast) and a zero/near-zero wall clock (timer
        resolution can report 0.0 for trivial runs, which would otherwise
        divide to ``inf`` and poison downstream throughput tables).
        """
        if self.models_evaluated == 0 or self.wall_clock_seconds <= 1e-9:
            return 0.0
        return self.models_evaluated / self.wall_clock_seconds

    def to_dict(self) -> dict:
        """Flat dictionary used by reports."""
        return {
            "models_generated": self.models_generated,
            "models_evaluated": self.models_evaluated,
            "cache_hits": self.cache_hits,
            "total_evaluation_seconds": self.total_evaluation_seconds,
            "average_evaluation_seconds": self.average_evaluation_seconds,
            "wall_clock_seconds": self.wall_clock_seconds,
            "evaluations_per_second": self.evaluations_per_second,
            "peak_in_flight": self.peak_in_flight,
            "frontier_size": self.frontier_size,
            "frontier_updates": self.frontier_updates,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "warm_start_seeds": self.warm_start_seeds,
            "surrogate_screened": self.surrogate_screened,
            "real_evals_saved": self.real_evals_saved,
            "surrogate_mae": self.surrogate_mae,
            "rung_evaluations": self.rung_evaluations,
        }


@dataclass
class EngineResult:
    """Everything a finished search returns."""

    population: Population
    history: SearchHistory
    statistics: RunStatistics
    frontier: FrontierArchive | None = None
    best: Individual = field(init=False)

    def __post_init__(self) -> None:
        self.best = self.population.best


class EvolutionaryEngine:
    """Steady-state evolutionary search over a co-design space.

    Parameters
    ----------
    space:
        The joint NNA/hardware search space.
    evaluator:
        Callable mapping a genome to a :class:`CandidateEvaluation` (usually a
        :class:`~repro.workers.master.Master`).
    fitness:
        Multi-objective fitness evaluator used for selection and replacement.
    config:
        Engine hyperparameters.
    device:
        Optional FPGA device used to keep mutated/crossed genomes feasible.
    mutation_config:
        Relative mutation-operator weights.
    cache:
        Evaluation cache; a fresh unbounded cache is created when omitted.
    callbacks:
        Extra callbacks in addition to the built-in :class:`SearchHistory`
        and streaming :class:`FrontierArchive`.
    frontier:
        Streaming Pareto-frontier archive; when omitted one is created over
        the fitness evaluator's objectives (and constraints).  It is updated
        through the callback bus on both the serial and asynchronous paths.
    initial_genomes:
        Genomes to seed the initial population with (warm-start from the
        persistent evaluation store).  They are consumed before any random
        genome is drawn, deduplicated, capped at the population size, and
        evaluated through the normal cache path — a store-backed cache
        answers them instantly.  The random stream is untouched when this is
        empty, so runs without seeds stay bit-for-bit reproducible.
    """

    def __init__(
        self,
        space: CoDesignSearchSpace,
        evaluator: Evaluator,
        fitness: FitnessEvaluator,
        config: EngineConfig | None = None,
        device: FPGADevice | None = None,
        mutation_config: MutationConfig | None = None,
        cache: EvaluationCache | None = None,
        callbacks: list[Callback] | None = None,
        selection: SelectionScheme | None = None,
        frontier: FrontierArchive | None = None,
        initial_genomes: list[CoDesignGenome] | None = None,
    ) -> None:
        self.space = space
        self.evaluator = evaluator
        self.fitness = fitness
        self.config = config or EngineConfig()
        self.device = device
        self.cache = cache if cache is not None else EvaluationCache()
        self.mutator = CoDesignMutator(
            space=space, config=mutation_config or MutationConfig(), device=device
        )
        self.crossover = CoDesignCrossover(device=device)
        if selection is not None:
            self.selection = selection
        elif self.config.selection == "tournament":
            self.selection = get_selection(
                "tournament", tournament_size=self.config.tournament_size
            )
        elif self.config.selection == "nsga2":
            self.selection = get_selection(
                "nsga2", tournament_size=self.config.nsga2_tournament_size
            )
        else:
            self.selection = get_selection(self.config.selection)
        self.history = SearchHistory()
        self._bounds = ObjectiveBounds()
        self.frontier = frontier if frontier is not None else FrontierArchive(
            objectives=fitness.objectives,
            constraints=getattr(fitness, "constraints", ()),
        )
        self.callbacks = CallbackList([self.history, self.frontier, *(callbacks or [])])
        self._rng = np.random.default_rng(self.config.seed)
        self.statistics = RunStatistics()
        self._stats_lock = threading.Lock()
        self.initial_genomes = list(initial_genomes or [])

    # ------------------------------------------------------------------ run
    def run(self) -> EngineResult:
        """Execute the search and return the final population, history and stats.

        With ``eval_parallelism=1`` (the default) this is the paper's serial
        steady-state loop, bit-for-bit reproducible for a fixed seed.  With
        ``eval_parallelism > 1`` the steady-state search runs as an
        asynchronous batched pipeline that keeps up to that many candidate
        evaluations in flight; ``eval_batch_size > 1`` additionally fuses
        offspring into batch evaluator calls on that pipeline.
        """
        if self.config.steady_state and (
            self.config.eval_parallelism > 1 or self.config.eval_batch_size > 1
        ):
            return self._run_async()
        start_time = time.perf_counter()
        self.statistics.peak_in_flight = 1
        population = self._initialize_population()
        self.callbacks.on_search_start(population)

        step = len(population)
        stagnation = 0
        best_fitness = population.best.fitness_value
        frontier_marker = self.frontier.updates

        while self.statistics.models_generated < self.config.max_evaluations:
            if self.config.steady_state:
                inserted = self._steady_state_step(population, step)
            else:
                inserted = self._generational_step(population, step)
            step += 1
            self.callbacks.on_step_end(population, step)

            if population.best.fitness_value > best_fitness + 1e-12:
                best_fitness = population.best.fitness_value
                stagnation = 0
            elif self._frontier_progressed(frontier_marker):
                stagnation = 0
            else:
                stagnation += 1
            frontier_marker = self.frontier.updates
            if (
                self.config.max_stagnation_steps > 0
                and stagnation >= self.config.max_stagnation_steps
            ):
                break
            if not inserted and not self.config.steady_state:
                break

        self.statistics.wall_clock_seconds = time.perf_counter() - start_time
        self._record_frontier_statistics()
        self.callbacks.on_search_end(population)
        return EngineResult(
            population=population,
            history=self.history,
            statistics=self.statistics,
            frontier=self.frontier,
        )

    # ------------------------------------------------------- async pipeline
    def _run_async(self) -> EngineResult:
        """Asynchronous steady-state search with a bounded in-flight window.

        Offspring are generated (on the main thread, preserving the RNG
        stream) in windows of at most ``eval_parallelism``, dispatched to a
        thread pool, and inserted into the population in *completion* order.
        Offspring generation dedups against both the population and the
        genomes currently in flight; the evaluation cache's in-flight
        registry additionally coalesces concurrent duplicates so each unique
        genome is evaluated at most once.
        """
        start_time = time.perf_counter()
        executor = ThreadPoolExecutor(
            max_workers=self.config.eval_parallelism, thread_name_prefix="ecad-eval"
        )
        try:
            population = self._initialize_population_async(executor)
            self.callbacks.on_search_start(population)

            step = len(population)
            stagnation = 0
            best_fitness = population.best.fitness_value
            frontier_marker = self.frontier.updates
            in_flight: dict[Future, list[CoDesignGenome]] = {}
            stop_generating = False

            while True:
                while (
                    not stop_generating
                    and len(in_flight) < self.config.eval_parallelism
                    and self.statistics.models_generated < self.config.max_evaluations
                ):
                    pending_keys = {
                        genome.cache_key()
                        for batch in in_flight.values()
                        for genome in batch
                    }
                    chunk: list[CoDesignGenome] = []
                    while (
                        len(chunk) < self.config.eval_batch_size
                        and self.statistics.models_generated < self.config.max_evaluations
                    ):
                        genome = self._make_offspring(population, in_flight_keys=pending_keys)
                        if genome is None:
                            stop_generating = True
                            break
                        self.statistics.models_generated += 1
                        pending_keys.add(genome.cache_key())
                        chunk.append(genome)
                    if not chunk:
                        break
                    in_flight[executor.submit(self._evaluate_concurrent_batch, chunk)] = chunk
                    self.statistics.peak_in_flight = max(
                        self.statistics.peak_in_flight,
                        sum(len(batch) for batch in in_flight.values()),
                    )
                if not in_flight:
                    break

                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    batch = in_flight.pop(future)
                    evaluations = future.result()
                    for genome, evaluation in zip(batch, evaluations):
                        fitness = self._score_newcomer(evaluation, population)
                        self.callbacks.on_evaluation(evaluation, fitness, step)
                        population.add(
                            Individual(
                                genome=genome,
                                evaluation=evaluation,
                                fitness=fitness,
                                birth_step=step,
                            )
                        )
                        self._rescore(population)
                        step += 1
                        self.callbacks.on_step_end(population, step)

                        if population.best.fitness_value > best_fitness + 1e-12:
                            best_fitness = population.best.fitness_value
                            stagnation = 0
                        elif self._frontier_progressed(frontier_marker):
                            stagnation = 0
                        else:
                            stagnation += 1
                        frontier_marker = self.frontier.updates
                        if (
                            self.config.max_stagnation_steps > 0
                            and stagnation >= self.config.max_stagnation_steps
                        ):
                            # Stop breeding; candidates already in flight still land.
                            stop_generating = True
        finally:
            executor.shutdown(wait=True)

        self.statistics.wall_clock_seconds = time.perf_counter() - start_time
        self._record_frontier_statistics()
        self.callbacks.on_search_end(population)
        return EngineResult(
            population=population,
            history=self.history,
            statistics=self.statistics,
            frontier=self.frontier,
        )

    def _record_frontier_statistics(self) -> None:
        self.statistics.frontier_size = len(self.frontier)
        self.statistics.frontier_updates = self.frontier.updates

    def _frontier_progressed(self, marker: int) -> bool:
        """Frontier growth counts as progress for rank-based evaluators.

        Pareto-rank scores are capped (the best front-0 member always scores
        the same), so the scalar best-fitness trace cannot register
        improvement; an advancing frontier archive is the honest progress
        signal.  Weighted-sum runs keep the original scalar-only stagnation
        behaviour.
        """
        return getattr(self.fitness, "population_relative", False) and (
            self.frontier.updates > marker
        )

    def _score_newcomer(
        self, evaluation: CandidateEvaluation, population: Population
    ) -> FitnessResult:
        """Score one newly evaluated candidate for admission.

        Scalarizing evaluators normalize against the whole evaluation history
        plus the newcomer; the running ``_bounds`` hold exactly that history's
        min/max, so the cost does not grow with the run.  Rank-encoding
        evaluators (``population_relative``) must be scored against the
        current population: a newcomer's front index within the whole history
        is not comparable to the population-relative scores
        ``Population.add`` weighs it against, and would wrongly reject
        non-dominated offspring late in a run.
        """
        if getattr(self.fitness, "population_relative", False):
            return self.fitness.score(evaluation, reference=population.evaluations())
        return self.fitness.score_against(evaluation, self._bounds)

    def _initialize_population_async(self, executor: ThreadPoolExecutor) -> Population:
        """Evaluate the whole initial population concurrently."""
        population = Population(capacity=self.config.population_size)
        genomes: list[CoDesignGenome] = []
        keys: set[str] = set()
        for genome in self._warm_start_pool():
            if self.statistics.models_generated >= self.config.max_evaluations:
                break
            keys.add(genome.cache_key())
            genomes.append(genome)
            self.statistics.models_generated += 1
            self.statistics.warm_start_seeds += 1
        attempts = 0
        max_attempts = self.config.population_size * 20
        while (
            len(genomes) < self.config.population_size
            and self.statistics.models_generated < self.config.max_evaluations
        ):
            attempts += 1
            if attempts > max_attempts:
                raise SearchError(
                    "failed to build a feasible initial population; "
                    "check the search space against the target device"
                )
            genome = self.space.random_genome(self._rng, device=self.device)
            if self.config.avoid_duplicate_genomes and genome.cache_key() in keys:
                continue
            keys.add(genome.cache_key())
            genomes.append(genome)
            self.statistics.models_generated += 1

        chunk_size = self.config.eval_batch_size
        chunks = [genomes[i : i + chunk_size] for i in range(0, len(genomes), chunk_size)]
        futures = {
            executor.submit(self._evaluate_concurrent_batch, chunk): chunk for chunk in chunks
        }
        self.statistics.peak_in_flight = max(
            self.statistics.peak_in_flight,
            min(len(genomes), self.config.eval_parallelism * chunk_size),
        )
        for future in as_completed(futures):
            chunk = futures[future]
            for genome, evaluation in zip(chunk, future.result()):
                fitness = self._score_newcomer(evaluation, population)
                self.callbacks.on_evaluation(evaluation, fitness, len(population))
                population.add(
                    Individual(
                        genome=genome,
                        evaluation=evaluation,
                        fitness=fitness,
                        birth_step=len(population),
                    )
                )
                self._rescore(population)
        if len(population) < 2:
            raise SearchError("initial population has fewer than two members")
        return population

    def _evaluate_concurrent_batch(
        self, genomes: list[CoDesignGenome]
    ) -> list[CandidateEvaluation]:
        """Evaluate a chunk of genomes as one fused call, in input order.

        Cache hits are resolved individually (and counted as such); the
        remaining fresh genomes go through the evaluator's ``evaluate_batch``
        when it has one, or a per-genome loop otherwise.  Each fresh
        candidate is stored in the cache under its own key, so downstream
        cache/store semantics are identical to per-candidate dispatch, and
        per-candidate ``evaluation_seconds`` is the chunk wall clock split
        evenly.
        """
        results: list[CandidateEvaluation | None] = [None] * len(genomes)
        fresh: list[tuple[int, CoDesignGenome]] = []
        for index, genome in enumerate(genomes):
            cached, owner = self.cache.lookup_or_reserve(genome)
            if not owner:
                with self._stats_lock:
                    self.statistics.cache_hits += 1
                results[index] = cached
                continue
            fresh.append((index, genome))
        if not fresh:
            return results  # type: ignore[return-value]

        fresh_genomes = [genome for _index, genome in fresh]
        try:
            start = time.perf_counter()
            try:
                batch_evaluate = getattr(self.evaluator, "evaluate_batch", None)
                if batch_evaluate is not None and len(fresh_genomes) > 1:
                    evaluations = list(batch_evaluate(fresh_genomes))
                else:
                    evaluations = [self.evaluator(genome) for genome in fresh_genomes]
                if len(evaluations) != len(fresh_genomes):
                    raise SearchError(
                        "batch evaluator returned "
                        f"{len(evaluations)} evaluations for {len(fresh_genomes)} genomes"
                    )
            except Exception as exc:  # noqa: BLE001 - worker failures must not kill the search
                evaluations = [
                    CandidateEvaluation(genome=genome, error=str(exc))
                    for genome in fresh_genomes
                ]
            elapsed = time.perf_counter() - start
            per_candidate = elapsed / len(fresh_genomes)
            with self._stats_lock:
                self.statistics.models_evaluated += len(fresh_genomes)
                self.statistics.total_evaluation_seconds += elapsed
            for (index, genome), evaluation in zip(fresh, evaluations):
                evaluation = self._stamp_elapsed(evaluation, per_candidate)
                self.cache.complete(genome, evaluation)
                results[index] = evaluation
        except BaseException:
            for index, genome in fresh:
                if results[index] is None:
                    self.cache.abandon(genome)
            raise
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ internals
    def _warm_start_pool(self) -> list[CoDesignGenome]:
        """Validated, deduplicated warm-start genomes, capped at the population.

        Stale store rows are filtered out: a seed must still lie inside the
        current search space and fit the target device.
        """
        pool: list[CoDesignGenome] = []
        keys: set[str] = set()
        for genome in self.initial_genomes:
            if len(pool) >= self.config.population_size:
                break
            if not self.space.contains(genome):
                continue
            if self.device is not None and not genome.hardware.fits(self.device):
                continue
            key = genome.cache_key()
            if key in keys:
                continue
            keys.add(key)
            pool.append(genome)
        return pool

    def _initialize_population(self) -> Population:
        population = Population(capacity=self.config.population_size)
        for genome in self._warm_start_pool():
            if (
                len(population) >= self.config.population_size
                or self.statistics.models_generated >= self.config.max_evaluations
            ):
                break
            individual = self._evaluate_and_wrap(genome, step=len(population), population=population)
            population.add(individual)
            self._rescore(population)
            self.statistics.warm_start_seeds += 1
        attempts = 0
        max_attempts = self.config.population_size * 20
        while len(population) < self.config.population_size:
            if self.statistics.models_generated >= self.config.max_evaluations:
                break
            attempts += 1
            if attempts > max_attempts:
                raise SearchError(
                    "failed to build a feasible initial population; "
                    "check the search space against the target device"
                )
            genome = self.space.random_genome(self._rng, device=self.device)
            if self.config.avoid_duplicate_genomes and population.contains_genome(genome):
                continue
            individual = self._evaluate_and_wrap(genome, step=len(population), population=population)
            population.add(individual)
            self._rescore(population)
        if len(population) < 2:
            raise SearchError("initial population has fewer than two members")
        return population

    def _steady_state_step(self, population: Population, step: int) -> bool:
        genome = self._make_offspring(population)
        if genome is None:
            return False
        individual = self._evaluate_and_wrap(genome, step, population=population)
        population.add(individual)
        self._rescore(population)
        return True

    def _generational_step(self, population: Population, step: int) -> bool:
        """Replace the whole population each step (ablation mode)."""
        offspring: list[Individual] = []
        budget = self.config.max_evaluations - self.statistics.models_generated
        count = min(self.config.population_size, budget)
        if count <= 0:
            return False
        for _ in range(count):
            genome = self._make_offspring(population)
            if genome is None:
                continue
            offspring.append(self._evaluate_and_wrap(genome, step, population=population))
        if not offspring:
            return False
        # Elitism: keep the best parent.
        survivors = [population.best, *offspring]
        survivors = survivors[: self.config.population_size]
        population.members = survivors
        self._rescore(population)
        return True

    def _make_offspring(
        self, population: Population, in_flight_keys: set[str] | None = None
    ) -> CoDesignGenome | None:
        for _ in range(20):
            if self._rng.random() < self.config.crossover_probability and len(population) >= 2:
                parent_a, parent_b = self.selection.select_pair(population, self._rng)
                genome = self.crossover.recombine(parent_a.genome, parent_b.genome, self._rng)
            else:
                parent = self.selection.select(population, self._rng)
                genome = parent.genome
            if self._rng.random() < self.config.mutation_probability:
                genome = self.mutator.mutate(genome, self._rng)
            if self.config.avoid_duplicate_genomes and (
                population.contains_genome(genome)
                or (in_flight_keys and genome.cache_key() in in_flight_keys)
            ):
                continue
            return genome
        # Give up on uniqueness and explore randomly instead.
        return self.space.random_genome(self._rng, device=self.device)

    def _evaluate_and_wrap(
        self, genome: CoDesignGenome, step: int, population: Population
    ) -> Individual:
        evaluation = self._evaluate(genome)
        fitness = self._score_newcomer(evaluation, population)
        self.callbacks.on_evaluation(evaluation, fitness, step)
        return Individual(genome=genome, evaluation=evaluation, fitness=fitness, birth_step=step)

    def _evaluate(self, genome: CoDesignGenome) -> CandidateEvaluation:
        self.statistics.models_generated += 1
        cached = self.cache.lookup(genome)
        if cached is not None:
            self.statistics.cache_hits += 1
            return cached
        start = time.perf_counter()
        try:
            evaluation = self.evaluator(genome)
        except Exception as exc:  # noqa: BLE001 - worker failures must not kill the search
            evaluation = CandidateEvaluation(genome=genome, error=str(exc))
        elapsed = time.perf_counter() - start
        evaluation = self._stamp_elapsed(evaluation, elapsed)
        self.statistics.models_evaluated += 1
        self.statistics.total_evaluation_seconds += elapsed
        self.cache.store(evaluation)
        return evaluation

    @staticmethod
    def _stamp_elapsed(evaluation: CandidateEvaluation, elapsed: float) -> CandidateEvaluation:
        """Fill in the measured wall-clock time when the evaluator left it at 0."""
        if evaluation.evaluation_seconds != 0.0 or evaluation.failed:
            return evaluation
        return CandidateEvaluation(
            genome=evaluation.genome,
            accuracy=evaluation.accuracy,
            accuracy_std=evaluation.accuracy_std,
            parameter_count=evaluation.parameter_count,
            fpga_metrics=evaluation.fpga_metrics,
            gpu_metrics=evaluation.gpu_metrics,
            synthesis=evaluation.synthesis,
            train_seconds=evaluation.train_seconds,
            evaluation_seconds=elapsed,
            extras=evaluation.extras,
        )

    def _rescore(self, population: Population) -> None:
        """Re-normalize fitness across the current population.

        Min-max normalization is population-relative, so after every insertion
        all members are rescored against the same reference — this keeps the
        steady-state replacement decisions consistent.  Each member's raw
        values and vector are carried over; only the normalization is redone.
        """
        results = self.fitness.score_population(
            population.evaluations(), carried=[member.fitness for member in population]
        )
        population.rescore(results)
