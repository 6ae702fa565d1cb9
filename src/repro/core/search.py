"""High-level co-design search front-end.

:class:`CoDesignSearch` ties the whole ECAD flow together: given a dataset and
an :class:`~repro.core.config.ECADConfig` it builds the search space, the
workers and master, the fitness evaluator and the evolutionary engine, runs
the search, and returns a :class:`SearchResult` with the best candidates, the
Pareto frontier, the full history and the run-time statistics (everything the
paper's tables and figures are derived from).

It also provides :class:`RandomSearch`, the random-search baseline the
evolutionary algorithm is compared against in the ablation benchmark (the
paper cites evidence that evolution beats random search [4]).  Both searches
evaluate their genomes through the engine's
:class:`~repro.core.engine.ChunkEvaluator`, so the cache, the evaluation
window and the run statistics behave the same for each.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..datasets.base import Dataset
from .cache import EvaluationCache
from .callbacks import Callback, CallbackList, SearchHistory
from .candidate import CandidateEvaluation
from .config import ECADConfig
from .engine import ChunkEvaluator, EngineConfig, EngineResult, EvolutionaryEngine, RunStatistics
from .errors import ConfigurationError
from .fitness import FitnessEvaluator, ObjectiveBounds
from .frontier import FrontierArchive
from .genome import CoDesignGenome, CoDesignSearchSpace
from .objectives import Constraint, ObjectiveSpec
from .pareto import ParetoPoint, evaluation_frontier, top_tradeoff_points

__all__ = ["SearchResult", "CoDesignSearch", "RandomSearch", "close_active_searches"]

#: Live searches with possibly-open stores / unflushed write-behind caches.
#: Weak references only — a search that is garbage-collected drops out on its
#: own; :func:`close_active_searches` sweeps whatever is still alive (the
#: CLI's KeyboardInterrupt handler uses this to avoid losing store writes).
_ACTIVE_SEARCHES: "weakref.WeakSet[CoDesignSearch]" = weakref.WeakSet()
_ACTIVE_LOCK = threading.Lock()


def close_active_searches() -> int:
    """Close every live :class:`CoDesignSearch`; returns how many were closed.

    Flushes each search's write-behind store cache and closes search-owned
    stores.  Safe to call at any time (``close`` is idempotent); used by the
    CLI to shut down cleanly on Ctrl-C.
    """
    with _ACTIVE_LOCK:
        searches = list(_ACTIVE_SEARCHES)
    for search in searches:
        try:
            search.close()
        except Exception:  # noqa: BLE001 - best-effort cleanup must not raise
            pass
    return len(searches)


@dataclass
class SearchResult:
    """Outcome of one co-design search.

    Attributes
    ----------
    best_accuracy_candidate:
        The evaluated candidate with the highest accuracy seen anywhere in the
        search (Table I / Table II rows).
    best_fitness_candidate:
        The candidate the engine ranked best under the configured fitness.
    frontier:
        The accuracy-vs-FPGA-throughput Pareto frontier over all evaluated
        candidates (Table IV / Figure 2 material).
    frontier_archive:
        The streaming :class:`~repro.core.frontier.FrontierArchive` the
        engine maintained over the *configured* objectives during the run
        (``None`` for evaluators that bypass the engine).
    history:
        Full evaluation history.
    statistics:
        Run-time statistics (Table III).
    """

    best_accuracy_candidate: CandidateEvaluation
    best_fitness_candidate: CandidateEvaluation
    frontier: list[CandidateEvaluation] = field(default_factory=list)
    history: SearchHistory = field(default_factory=SearchHistory)
    statistics: RunStatistics = field(default_factory=RunStatistics)
    frontier_archive: FrontierArchive | None = None

    @property
    def best_accuracy(self) -> float:
        """Highest accuracy achieved by any evaluated candidate."""
        return self.best_accuracy_candidate.accuracy

    def pareto_rows(self, count: int = 2) -> list[CandidateEvaluation]:
        """Representative frontier rows, Table-IV style (best accuracy first)."""
        points = [
            ParetoPoint(values=(c.accuracy, c.fpga_outputs_per_second), payload=c)
            for c in self.frontier
        ]
        rows = top_tradeoff_points(points, count=count, primary=0)
        return [row.payload for row in rows]


class CoDesignSearch:
    """End-to-end ECAD search over one dataset.

    Parameters
    ----------
    dataset:
        The problem to co-design for.
    config:
        The ECAD configuration file; when omitted a template is generated
        automatically from the dataset (as the paper describes).
    callbacks:
        Extra engine callbacks (progress logging, checkpointing, ...).
    backend:
        Execution backend name for the master ("serial", "threads" or
        "processes"); ``None`` (the default) uses the configuration's
        ``backend`` field.
    store:
        Persistent evaluation store to read through / write behind.  ``None``
        (the default) opens one from the configuration's ``store`` section
        when that is active; the search owns (and eventually closes) a store
        it opened itself but never one passed in.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: ECADConfig | None = None,
        callbacks: list[Callback] | None = None,
        backend: str | None = None,
        store=None,
    ) -> None:
        self.dataset = dataset
        self.config = config or ECADConfig.template_for_dataset(dataset)
        if self.config.nna.input_size != dataset.num_features:
            raise ConfigurationError(
                f"configuration expects {self.config.nna.input_size} input features "
                f"but dataset {dataset.name!r} has {dataset.num_features}"
            )
        if self.config.nna.output_size != dataset.num_classes:
            raise ConfigurationError(
                f"configuration expects {self.config.nna.output_size} classes "
                f"but dataset {dataset.name!r} has {dataset.num_classes}"
            )
        self.callbacks = list(callbacks or [])
        self.backend = backend if backend is not None else self.config.backend
        self.store = store
        self._owns_store = False
        self.problem_digest: str | None = None
        if self.store is None and self.config.store.active:
            # Imported lazily: repro.store depends on repro.core at import time.
            from ..store import EvaluationStore

            self.store = EvaluationStore(
                self.config.store.path,
                readonly=self.config.store.readonly,
                shards=self.config.store.shards,
            )
            self._owns_store = True
        if self.store is not None:
            from ..store import StoreBackedCache, problem_digest

            self.problem_digest = problem_digest(self.config, dataset)
            self.cache: EvaluationCache = StoreBackedCache(self.store, self.problem_digest)
        else:
            self.cache = EvaluationCache()
        with _ACTIVE_LOCK:
            _ACTIVE_SEARCHES.add(self)

    # ----------------------------------------------------------- assembly
    #: Worker types consulted for every candidate, resolved by registered
    #: name so plugins can swap implementations without touching this class.
    worker_types: tuple[str, ...] = ("simulation", "hardware_db", "physical")

    def build_master(self):
        """Construct the master with the workers the configuration asks for."""
        # Imported lazily to keep repro.core free of a package-level
        # dependency cycle with repro.workers.
        from ..workers.base import resolve_worker
        from ..workers.master import Master

        fpga = self.config.hardware.fpga_device()
        gpu = self.config.hardware.gpu_device()
        workers = []
        for type_name in self.worker_types:
            worker_cls = resolve_worker(type_name)
            if type_name == "simulation":
                workers.append(worker_cls(gpu=gpu, measure_gpu=gpu is not None))
            else:
                workers.append(worker_cls(device=fpga))
        return Master(
            workers=workers,
            dataset=self.dataset,
            evaluation_protocol=self.config.evaluation_protocol,
            num_folds=self.config.num_folds,
            training_config=self.config.to_training_config(),
            backend=self.backend,
            max_workers=max(self.config.eval_parallelism, 1),
            seed=self.config.seed,
        )

    def build_engine(
        self,
        evaluator=None,
        fitness: FitnessEvaluator | None = None,
        selection=None,
        engine_cls: type[EvolutionaryEngine] | None = None,
        engine_config: EngineConfig | None = None,
        **engine_kwargs,
    ) -> EvolutionaryEngine:
        """Construct the evolutionary engine.

        ``fitness`` and ``selection`` default to the configuration's
        weighted-sum evaluator and selection scheme; search strategies (e.g.
        NSGA-II) inject their own here.  ``engine_cls`` lets a strategy swap
        in an :class:`EvolutionaryEngine` subclass (the surrogate-screened
        engine does), ``engine_config`` overrides the derived
        :class:`EngineConfig`, and extra keyword arguments are forwarded to
        the engine constructor.  When the configuration asks for
        warm-starting, the engine is seeded with the store's best candidates
        for the current problem digest.
        """
        space = self.config.to_search_space()
        if fitness is None:
            fitness = FitnessEvaluator(
                self.config.optimization.to_fitness_objectives(),
                constraints=self.config.optimization.to_constraints(),
            )
        if evaluator is None:
            evaluator = self.build_master()
        cls = engine_cls if engine_cls is not None else EvolutionaryEngine
        return cls(
            space=space,
            evaluator=evaluator,
            fitness=fitness,
            config=engine_config if engine_config is not None else self.config.to_engine_config(),
            device=self.config.hardware.fpga_device(),
            mutation_config=self.config.to_mutation_config(),
            cache=self.cache,
            callbacks=self.callbacks,
            selection=selection,
            initial_genomes=self.warm_start_genomes(),
            **engine_kwargs,
        )

    def warm_start_genomes(self) -> list[CoDesignGenome]:
        """Best stored genomes for this problem, for population seeding.

        Returns at most ``config.store.warm_start`` genomes, best stored
        accuracy first; empty when warm-starting is disabled, no store is
        attached, or the store has never seen this problem.  Stale genomes
        (outside the current search space) are filtered later by the engine.
        """
        limit = self.config.store.warm_start
        if limit <= 0 or self.store is None or self.problem_digest is None:
            return []
        from .errors import StoreError

        try:
            best = self.store.best(self.problem_digest, limit=limit)
        except StoreError:
            return []
        return [evaluation.genome for evaluation in best]

    # ---------------------------------------------------------------- run
    def run(self, evaluator=None, strategy=None) -> SearchResult:
        """Run the full search and package the results.

        The search is driven by a registered
        :class:`~repro.core.strategy.SearchStrategy` — ``strategy`` (a name
        or instance) when given, otherwise the configuration's ``strategy``
        field (``"evolutionary"`` by default, which reproduces the paper's
        weighted-sum steady-state search exactly).  When no evaluator is
        supplied, the strategy builds (and owns) a master whose execution
        backend is released once the search finishes.  Any write-behind
        store rows are flushed before the result is returned, and the
        result's statistics carry the store hit/miss counters.
        """
        from .strategy import get_strategy

        chosen = strategy if strategy is not None else self.config.strategy
        try:
            result = get_strategy(chosen).execute(self, evaluator)
        finally:
            self._flush_store()
        self._record_store_statistics(result.statistics)
        return result

    def close(self) -> None:
        """Flush pending store writes and close a search-owned store."""
        self._flush_store()
        if self._owns_store and self.store is not None:
            self.store.close()
            self.store = None
        with _ACTIVE_LOCK:
            _ACTIVE_SEARCHES.discard(self)

    def _flush_store(self) -> None:
        flush = getattr(self.cache, "flush", None)
        if callable(flush):
            flush()

    def _record_store_statistics(self, statistics: RunStatistics) -> None:
        store_stats = getattr(self.cache, "store_statistics", None)
        if store_stats is not None:
            statistics.store_hits = store_stats.hits
            statistics.store_misses = store_stats.misses

    def _package(self, outcome: EngineResult) -> SearchResult:
        evaluations = [e for e in outcome.history.evaluations() if not e.failed]
        if not evaluations:
            raise ConfigurationError("the search produced no successful evaluations")
        best_accuracy = max(evaluations, key=lambda e: e.accuracy)
        return SearchResult(
            best_accuracy_candidate=best_accuracy,
            best_fitness_candidate=outcome.best.evaluation,
            frontier=evaluation_frontier(evaluations, device="fpga"),
            history=outcome.history,
            statistics=outcome.statistics,
            frontier_archive=outcome.frontier,
        )


class RandomSearch:
    """Uniform random search over the same co-design space (baseline).

    Evaluates ``max_evaluations`` genomes drawn uniformly from the search
    space with the same evaluator and returns the same :class:`SearchResult`
    structure, so the ablation benchmark can compare it directly with the
    evolutionary engine.  ``eval_batch_size`` and ``eval_parallelism`` set
    the evaluation window exactly as they do for the engine.
    """

    def __init__(
        self,
        space: CoDesignSearchSpace,
        evaluator,
        objectives: list[ObjectiveSpec] | None = None,
        max_evaluations: int = 100,
        seed: int | None = 0,
        device=None,
        constraints: list[Constraint | str] | None = None,
        callbacks: list[Callback] | None = None,
        cache: EvaluationCache | None = None,
        eval_batch_size: int = 1,
        eval_parallelism: int = 1,
    ) -> None:
        if max_evaluations <= 0:
            raise ConfigurationError(f"max_evaluations must be positive, got {max_evaluations}")
        if eval_batch_size < 1:
            raise ConfigurationError(f"eval_batch_size must be >= 1, got {eval_batch_size}")
        if eval_parallelism < 1:
            raise ConfigurationError(f"eval_parallelism must be >= 1, got {eval_parallelism}")
        self.space = space
        self.evaluator = evaluator
        self.fitness = FitnessEvaluator(
            objectives or [ObjectiveSpec.accuracy()], constraints=constraints or ()
        )
        self.max_evaluations = int(max_evaluations)
        self.seed = seed
        self.device = device
        self.callbacks = list(callbacks or [])
        self.cache = cache if cache is not None else EvaluationCache()
        self.eval_batch_size = int(eval_batch_size)
        self.eval_parallelism = int(eval_parallelism)

    def run(self) -> SearchResult:
        """Draw, evaluate and rank random candidates.

        Every genome is drawn up front, so the RNG stream does not depend on
        the evaluation schedule.  The draws then go through the engine's
        evaluation pipeline (:class:`~repro.core.engine.ChunkEvaluator`):
        chunks of ``eval_batch_size`` with up to ``eval_parallelism`` chunks
        in flight, resolved through the evaluation cache.  They are scored
        in draw order, so the history and the result ranking do not depend on
        the window and the ablation baseline stays reproducible.
        """
        rng = np.random.default_rng(self.seed)
        history = SearchHistory()
        archive = FrontierArchive(
            objectives=self.fitness.objectives, constraints=self.fitness.constraints
        )
        statistics = RunStatistics()
        start = time.perf_counter()
        genomes: list[CoDesignGenome] = [
            self.space.random_genome(rng, device=self.device)
            for _ in range(self.max_evaluations)
        ]
        statistics.models_generated = len(genomes)
        chunks = ChunkEvaluator(
            self.evaluator,
            self.cache,
            statistics,
            batch_size=self.eval_batch_size,
            parallelism=self.eval_parallelism,
        )
        executor = chunks.executor()
        try:
            evaluations = chunks.evaluate_all(genomes, executor)
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

        callbacks = CallbackList([history, archive, *self.callbacks])
        bounds = ObjectiveBounds()
        for step, evaluation in enumerate(evaluations):
            callbacks.on_evaluation(evaluation, self.fitness.score_against(evaluation, bounds), step)
        statistics.wall_clock_seconds = time.perf_counter() - start
        statistics.frontier_size = len(archive)
        statistics.frontier_updates = archive.updates

        successful = [e for e in evaluations if not e.failed]
        if not successful:
            raise ConfigurationError("random search produced no successful evaluations")
        scored = self.fitness.score_population(successful)
        best_index = int(np.argmax([result.fitness for result in scored]))
        best_accuracy = max(successful, key=lambda e: e.accuracy)
        return SearchResult(
            best_accuracy_candidate=best_accuracy,
            best_fitness_candidate=successful[best_index],
            frontier=evaluation_frontier(successful, device="fpga"),
            history=history,
            statistics=statistics,
            frontier_archive=archive,
        )
