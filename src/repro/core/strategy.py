"""Pluggable search strategies over the co-design space.

The paper's evaluation compares several ways of exploring the same search
space — the steady-state evolutionary search, a random-search baseline, and
frontier-oriented multi-objective selection.  :class:`SearchStrategy` is the
protocol unifying them: a strategy drives a configured
:class:`~repro.core.search.CoDesignSearch` end to end and returns the same
:class:`~repro.core.search.SearchResult` shape, so every consumer (CLI,
experiment runner, benchmarks) is strategy-agnostic.

Strategies are an open registry (:data:`STRATEGIES` /
:func:`register_strategy`), like datasets, backends, devices and objectives:

* ``evolutionary`` (aliases ``weighted_sum``, ``default``) — the paper's
  steady-state search with the scalarized weighted-sum fitness.  This is the
  default and reproduces pre-strategy behaviour bit for bit.
* ``nsga2`` — NSGA-II: Pareto-rank + crowding-distance scoring
  (:class:`~repro.core.fitness.ParetoRankingEvaluator`) with the ``nsga2``
  selection scheme, for searches whose *product* is the frontier itself.
* ``random`` — uniform random search at the same evaluation budget (the
  ablation baseline).
"""

from __future__ import annotations

from ..registry import Registry
from .errors import ConfigurationError
from .fitness import ParetoRankingEvaluator
from .selection import get_selection

__all__ = [
    "SearchStrategy",
    "EvolutionaryStrategy",
    "NSGA2Strategy",
    "RandomStrategy",
    "SurrogateStrategy",
    "STRATEGIES",
    "register_strategy",
    "available_strategies",
    "arena_strategies",
    "get_strategy",
]


class SearchStrategy:
    """Protocol: drives one configured search and packages its result.

    Subclasses implement :meth:`execute`; ``search`` is a
    :class:`~repro.core.search.CoDesignSearch` (dataset + configuration +
    builders), ``evaluator`` an optional externally owned evaluator.  When
    ``evaluator`` is ``None`` the strategy builds (and shuts down) its own
    master through ``search.build_master()``.
    """

    name: str = "strategy"

    #: Whether the arena enters this strategy into tournaments by default.
    #: Plugins may register helper strategies (e.g. fixed replay baselines)
    #: that should not compete; they set this to False.
    arena_eligible: bool = True

    def execute(self, search, evaluator=None):
        """Run the search end to end.

        Parameters
        ----------
        search:
            The configured :class:`~repro.core.search.CoDesignSearch` to
            drive; supplies the dataset, configuration, evaluation cache and
            the master/engine factories.
        evaluator:
            Optional externally owned evaluator (a callable
            ``genome -> CandidateEvaluation``, typically a
            :class:`~repro.workers.master.Master`).  When ``None``, the
            strategy builds its own master and shuts it down afterwards.

        Returns
        -------
        SearchResult
            The packaged outcome (best candidates, frontier, history,
            run-time statistics), identical in shape for every strategy.
        """
        raise NotImplementedError


#: The open strategy registry; plugins may register additional strategies.
STRATEGIES: Registry[type[SearchStrategy]] = Registry("search strategy")


def register_strategy(
    name: str,
    strategy: type[SearchStrategy],
    aliases: tuple[str, ...] = (),
    overwrite: bool = False,
) -> None:
    """Register a strategy class under ``name`` (and ``aliases``).

    Parameters
    ----------
    name:
        Stable identifier usable from configuration files, experiment specs
        and the CLI (``--strategy``).
    strategy:
        The :class:`SearchStrategy` subclass to instantiate per run.
    aliases:
        Additional names resolving to the same strategy.
    overwrite:
        Allow replacing an existing registration (off by default so typos
        do not silently shadow built-ins).

    Raises
    ------
    ConfigurationError
        When the name is already registered and ``overwrite`` is False.
    """
    try:
        STRATEGIES.register(name, strategy, aliases=aliases, overwrite=overwrite)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def available_strategies() -> list[str]:
    """Sorted names of all registered strategies."""
    return STRATEGIES.available()


def arena_strategies() -> list[str]:
    """Sorted names of strategies that enter arena tournaments by default.

    Every registered strategy competes unless its class opts out with
    ``arena_eligible = False``.
    """
    return [
        name
        for name, strategy_cls in STRATEGIES.entries().items()
        if getattr(strategy_cls, "arena_eligible", True)
    ]


def get_strategy(name: str | SearchStrategy) -> SearchStrategy:
    """Resolve a strategy by name (instances pass through unchanged).

    Parameters
    ----------
    name:
        A registered strategy name (or alias), or an already constructed
        :class:`SearchStrategy` instance.

    Returns
    -------
    SearchStrategy
        A fresh instance for names; the same object for instances.

    Raises
    ------
    ConfigurationError
        When the name is not registered.
    """
    if isinstance(name, SearchStrategy):
        return name
    try:
        strategy_cls = STRATEGIES.resolve(str(name))
    except KeyError as exc:
        # The registry message already lists what is available and suggests
        # near-miss names; re-raising it verbatim keeps the hint.
        raise ConfigurationError(str(exc.args[0])) from exc
    return strategy_cls()


class EvolutionaryStrategy(SearchStrategy):
    """The paper's steady-state search with the weighted-sum fitness.

    This is the default strategy and reproduces pre-strategy behaviour bit
    for bit: scalarized selection fitness, tournament parent selection, and
    the steady-state engine with the configured evaluation window.
    """

    name = "evolutionary"

    def build_engine(self, search, evaluator):
        """Engine factory hook; subclasses swap fitness/selection here.

        Parameters
        ----------
        search:
            The driving :class:`~repro.core.search.CoDesignSearch`.
        evaluator:
            The candidate evaluator the engine will call.

        Returns
        -------
        EvolutionaryEngine
            A fully wired engine (cache, callbacks, warm-start seeds).
        """
        return search.build_engine(evaluator=evaluator)

    def execute(self, search, evaluator=None):
        owned_master = None
        if evaluator is None:
            owned_master = search.build_master()
            evaluator = owned_master
        engine = self.build_engine(search, evaluator)
        try:
            outcome = engine.run()
        finally:
            if owned_master is not None:
                owned_master.shutdown()
        return search._package(outcome)


class NSGA2Strategy(EvolutionaryStrategy):
    """NSGA-II: Pareto-rank scoring plus rank/crowding binary tournament."""

    name = "nsga2"

    def build_engine(self, search, evaluator):
        config = search.config
        fitness = ParetoRankingEvaluator(
            config.optimization.to_fitness_objectives(),
            constraints=config.optimization.to_constraints(),
        )
        return search.build_engine(
            evaluator=evaluator,
            fitness=fitness,
            selection=get_selection(
                "nsga2", tournament_size=config.nsga2_tournament_size
            ),
        )


class SurrogateStrategy(EvolutionaryStrategy):
    """Surrogate-assisted, multi-fidelity search over the evaluation store.

    Wraps the base evolutionary (or NSGA-II — ``surrogate.base``) search with
    the conformal offspring pre-screen and successive-halving fidelity rungs
    of :mod:`repro.surrogate`.  The screen trains on the persistent store's
    rows for the current problem digest and feeds every real result back; on
    an empty or too-small store it is a provable no-op and the run is
    bit-identical to the base strategy.  ``surrogate.enabled=false`` skips
    the screen entirely (the A/B arm of the ablation benchmark).
    """

    name = "surrogate"

    def build_engine(self, search, evaluator):
        # Imported lazily: repro.surrogate builds on repro.core and the
        # store; importing it at module scope would cycle through this
        # registry module.
        config = search.config.surrogate
        if not config.active:
            if config.base == "nsga2":
                return NSGA2Strategy().build_engine(search, evaluator)
            return super().build_engine(search, evaluator)
        from ..surrogate.engine import build_surrogate_engine

        return build_surrogate_engine(search, evaluator)


class RandomStrategy(SearchStrategy):
    """Uniform random search at the configured evaluation budget.

    The ablation baseline.  It shares the search's evaluation cache (and
    therefore any attached persistent store) and honours the evaluation
    window (``eval_batch_size``, ``eval_parallelism``) like every other
    strategy, but ignores ``warm_start`` — seeding a uniform baseline would
    bias the very comparison it exists for.
    """

    name = "random"

    def execute(self, search, evaluator=None):
        from .search import RandomSearch

        config = search.config
        owned_master = None
        if evaluator is None:
            owned_master = search.build_master()
            evaluator = owned_master
        try:
            return RandomSearch(
                space=config.to_search_space(),
                evaluator=evaluator,
                objectives=config.optimization.to_fitness_objectives(),
                constraints=config.optimization.to_constraints(),
                max_evaluations=config.max_evaluations,
                seed=config.seed,
                device=config.hardware.fpga_device(),
                callbacks=search.callbacks,
                cache=search.cache,
                eval_batch_size=config.eval_batch_size,
                eval_parallelism=config.eval_parallelism,
            ).run()
        finally:
            if owned_master is not None:
                owned_master.shutdown()


register_strategy("evolutionary", EvolutionaryStrategy, aliases=("weighted_sum", "default"))
register_strategy("nsga2", NSGA2Strategy)
register_strategy("random", RandomStrategy)
register_strategy("surrogate", SurrogateStrategy)
