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
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..hardware.device import FPGADevice
from .cache import EvaluationCache
from .callbacks import Callback, CallbackList, SearchHistory
from .candidate import CandidateEvaluation
from .crossover import CoDesignCrossover
from .errors import SearchError
from .fitness import FitnessEvaluator, ObjectiveBounds
from .frontier import FrontierArchive
from .genome import CoDesignGenome, CoDesignSearchSpace
from .mutation import CoDesignMutator, MutationConfig
from .population import Individual, Population
from .selection import SelectionScheme, get_selection

__all__ = ["EngineConfig", "RunStatistics", "EngineResult", "ChunkEvaluator", "EvolutionaryEngine"]

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
        Maximum number of dispatched chunks in flight at once.  Every
        candidate goes through one evaluation pipeline; ``1`` (the default)
        is a window of one chunk evaluated inline on the calling thread —
        the paper's serial steady-state loop, bit-for-bit reproducible for
        a fixed seed.  Larger values evaluate chunks on a thread pool of
        that size and insert steady-state offspring in completion order.
    eval_batch_size:
        Number of genomes bred and dispatched together as one chunk.  ``1``
        (the default) keeps per-candidate dispatch; larger values let a
        batch-capable evaluator (``evaluate_batch``, e.g. the master fanning
        out fused-GEMM workers) amortize training and hardware-model work
        across the chunk.
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


class ChunkEvaluator:
    """The evaluation pipeline every search dispatches its genomes through.

    Evaluates chunks of up to ``batch_size`` genomes with ``evaluator``,
    resolved through ``cache``, and adds fresh evaluations, cache hits and
    evaluation time to ``statistics`` under a lock, so up to ``parallelism``
    chunks may run at once on other threads.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        cache: EvaluationCache,
        statistics: RunStatistics,
        batch_size: int,
        parallelism: int,
    ) -> None:
        self.evaluator = evaluator
        self.cache = cache
        self.statistics = statistics
        self.batch_size = batch_size
        self.parallelism = parallelism
        self._stats_lock = threading.Lock()

    def executor(self) -> ThreadPoolExecutor | None:
        """A pool of ``parallelism`` threads, or None: a window of one runs inline."""
        if self.parallelism == 1:
            return None
        return ThreadPoolExecutor(max_workers=self.parallelism, thread_name_prefix="ecad-eval")

    def evaluate_all(
        self, genomes: list[CoDesignGenome], executor: ThreadPoolExecutor | None
    ) -> list[CandidateEvaluation]:
        """Evaluate a fixed list of genomes through the window, behind a barrier.

        The chunks run inline, or on the executor's ``parallelism`` threads;
        the evaluations come back in input order.
        """
        size = self.batch_size
        chunks = [genomes[index : index + size] for index in range(0, len(genomes), size)]
        self.statistics.peak_in_flight = max(
            self.statistics.peak_in_flight,
            min(len(genomes), self.parallelism * size),
        )
        evaluate = map if executor is None else executor.map
        return [evaluation for batch in evaluate(self.evaluate_chunk, chunks) for evaluation in batch]

    def evaluate_chunk(self, genomes: list[CoDesignGenome]) -> list[CandidateEvaluation]:
        """Evaluate one dispatched chunk of genomes, in input order.

        Each distinct genome goes through the cache's single-flight
        ``lookup_or_reserve``: hits, including genomes another chunk has in
        flight, count as cache hits.  A genome repeated within the chunk takes
        a cache copy of its first occurrence and counts as a cache hit too; it
        must not reserve again, or it would wait on its own ticket.
        Reservations are taken in cache-key order, so two chunks holding the
        same genomes can never wait on each other.

        The fresh genomes go to the evaluator's ``evaluate_batch`` when it has
        one and there is more than one of them, otherwise one call each.  An
        evaluator exception fails every fresh genome of the chunk.  Each fresh
        result is published under its own key with the chunk's wall clock
        split evenly, so cache and store see what per-candidate dispatch
        would have produced.
        """
        keys = [genome.cache_key() for genome in genomes]
        results: list[CandidateEvaluation | None] = [None] * len(genomes)
        first: dict[str, int] = {}
        repeats: list[tuple[int, int]] = []
        fresh: list[int] = []
        elapsed = 0.0
        try:
            for index in sorted(range(len(genomes)), key=keys.__getitem__):
                key = keys[index]
                if key in first:
                    repeats.append((index, first[key]))
                    continue
                first[key] = index
                cached, owner = self.cache.lookup_or_reserve(genomes[index])
                if owner:
                    fresh.append(index)
                else:
                    results[index] = cached
            fresh.sort()
            fresh_genomes = [genomes[index] for index in fresh]
            if fresh_genomes:
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
                for index, evaluation in zip(fresh, evaluations):
                    evaluation = self._stamp_elapsed(evaluation, elapsed / len(fresh))
                    self.cache.complete(genomes[index], evaluation)
                    results[index] = evaluation
        except BaseException:
            # Release every reservation this chunk still holds; waiters retry.
            for index in fresh:
                if results[index] is None:
                    self.cache.abandon(genomes[index])
            raise
        for index, source in repeats:
            results[index] = results[source].as_cache_copy()
        with self._stats_lock:
            self.statistics.models_evaluated += len(fresh)
            self.statistics.cache_hits += len(genomes) - len(fresh)
            self.statistics.total_evaluation_seconds += elapsed
        return results  # type: ignore[return-value]

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
        through the callback bus as evaluations land.
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
        self.chunks = ChunkEvaluator(
            evaluator,
            self.cache,
            self.statistics,
            batch_size=self.config.eval_batch_size,
            parallelism=self.config.eval_parallelism,
        )
        self.initial_genomes = list(initial_genomes or [])

    # ------------------------------------------------------------------ run
    def run(self) -> EngineResult:
        """Execute the search and return the final population, history and stats.

        Every candidate, initial or bred, goes through one evaluation
        pipeline: genomes are bred on the calling thread and dispatched in
        chunks of ``eval_batch_size``, with at most ``eval_parallelism``
        chunks in flight.  Steady-state offspring land in completion order,
        ties in submission order, so a window of one (evaluated inline) is
        the paper's serial steady-state loop, bit-for-bit reproducible for a
        fixed seed.  Generational mode breeds a whole generation against the
        unchanged population, evaluates it behind a barrier, scores it in
        breed order at one step, then replaces the population elitistically.
        """
        config = self.config
        statistics = self.statistics
        start_time = time.perf_counter()
        executor = self.chunks.executor()
        try:
            population = self._initialize_population(executor)
            self.callbacks.on_search_start(population)

            step = len(population)
            stagnation = 0
            best_fitness = population.best.fitness_value
            frontier_marker = self.frontier.updates
            stopped = False

            def end_step() -> None:
                nonlocal step, stagnation, best_fitness, frontier_marker, stopped
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
                # Stop breeding; candidates already in flight still land.
                stopped = stopped or 0 < config.max_stagnation_steps <= stagnation

            def land(genomes: list[CoDesignGenome], evaluations: list[CandidateEvaluation]) -> None:
                for genome, evaluation in zip(genomes, evaluations):
                    population.add(self._wrap_landed(genome, evaluation, step, population))
                    self._rescore(population)
                    end_step()

            in_flight: dict[Future, list[CoDesignGenome]] = {}
            while in_flight or (
                not stopped and statistics.models_generated < config.max_evaluations
            ):
                if not config.steady_state:
                    # One generation, bred against the unchanged population,
                    # evaluated behind a barrier and scored in breed order.
                    count = min(
                        config.population_size,
                        config.max_evaluations - statistics.models_generated,
                    )
                    genomes = [self._make_offspring(population) for _ in range(count)]
                    statistics.models_generated += count
                    offspring = [
                        self._wrap_landed(genome, evaluation, step, population)
                        for genome, evaluation in zip(genomes, self.chunks.evaluate_all(genomes, executor))
                    ]
                    # Elitism: keep the best parent.
                    population.members = [population.best, *offspring][: config.population_size]
                    self._rescore(population)
                    end_step()
                    continue
                while (
                    not stopped
                    and len(in_flight) < config.eval_parallelism
                    and statistics.models_generated < config.max_evaluations
                ):
                    pending = {genome.cache_key() for chunk in in_flight.values() for genome in chunk}
                    chunk: list[CoDesignGenome] = []
                    while (
                        len(chunk) < config.eval_batch_size
                        and statistics.models_generated < config.max_evaluations
                    ):
                        genome = self._make_offspring(population, pending)
                        pending.add(genome.cache_key())
                        chunk.append(genome)
                        statistics.models_generated += 1
                    statistics.peak_in_flight = max(
                        statistics.peak_in_flight,
                        len(chunk) + sum(map(len, in_flight.values())),
                    )
                    if executor is None:
                        land(chunk, self.chunks.evaluate_chunk(chunk))
                    else:
                        in_flight[executor.submit(self.chunks.evaluate_chunk, chunk)] = chunk
                if in_flight:
                    wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in [future for future in in_flight if future.done()]:
                        land(in_flight.pop(future), future.result())
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

        statistics.wall_clock_seconds = time.perf_counter() - start_time
        self._record_frontier_statistics()
        self.callbacks.on_search_end(population)
        return EngineResult(
            population=population,
            history=self.history,
            statistics=statistics,
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

    def _wrap_landed(
        self,
        genome: CoDesignGenome,
        evaluation: CandidateEvaluation,
        step: int,
        population: Population,
    ) -> Individual:
        """Score one landed evaluation, announce it, and wrap it for admission.

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
            fitness = self.fitness.score(evaluation, reference=population.evaluations())
        else:
            fitness = self.fitness.score_against(evaluation, self._bounds)
        self.callbacks.on_evaluation(evaluation, fitness, step)
        return Individual(genome=genome, evaluation=evaluation, fitness=fitness, birth_step=step)

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

    def _initialize_population(self, executor: ThreadPoolExecutor | None) -> Population:
        """Draw the initial genomes, warm-start seeds first, and admit them in draw order."""
        genomes = self._warm_start_pool()
        self.statistics.warm_start_seeds = len(genomes)
        keys = {genome.cache_key() for genome in genomes}
        attempts = 0
        while len(genomes) < self.config.population_size:
            attempts += 1
            if attempts > self.config.population_size * 20:
                raise SearchError(
                    "failed to build a feasible initial population; "
                    "check the search space against the target device"
                )
            genome = self.space.random_genome(self._rng, device=self.device)
            if self.config.avoid_duplicate_genomes and genome.cache_key() in keys:
                continue
            keys.add(genome.cache_key())
            genomes.append(genome)
        self.statistics.models_generated += len(genomes)
        population = Population(capacity=self.config.population_size)
        for genome, evaluation in zip(genomes, self.chunks.evaluate_all(genomes, executor)):
            population.add(self._wrap_landed(genome, evaluation, len(population), population))
            self._rescore(population)
        return population

    def _make_offspring(
        self, population: Population, in_flight_keys: set[str] | None = None
    ) -> CoDesignGenome:
        """Breed one offspring; the breeding hook subclasses may override.

        With ``avoid_duplicate_genomes`` the offspring is kept out of the
        population and ``in_flight_keys``; after 20 tries a random genome is
        drawn instead, without that check.
        """
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
