"""The surrogate-screened steady-state engine and its factory.

:class:`SurrogateEngine` runs the ordinary
:class:`~repro.core.engine.EvolutionaryEngine` pipeline and overrides only
its breeding hook.  Until the screener's model is ready (store empty, too
few rows, unsupported objectives) the hook delegates to the base breeder and
consumes the *same* RNG stream — the surrogate path is provably a no-op in
that regime, and a run over an empty store is bit-identical to the wrapped
base strategy.

Once the model is ready, each breeding call:

1. breeds a pool of ``surrogate.pool_size`` unique offspring with the normal
   selection/crossover/mutation operators,
2. either promotes a uniformly random pool member (with probability
   ``exploration_fraction`` — the screen always keeps exploring) or ranks
   the pool by predicted Pareto contribution,
3. optionally winnows the top-ranked survivors through successive-halving
   fidelity rungs (:mod:`repro.surrogate.fidelity`),
4. returns the winner, which the engine evaluates at full budget.

Every landed evaluation — the initial population and cache hits included —
is fed back into the screener before the next offspring is bred.  Only the
winner counts against ``max_evaluations``; the discarded pool members are
the ``real_evals_saved``.
"""

from __future__ import annotations

import dataclasses
import logging

from ..core.callbacks import Callback
from ..core.engine import EvolutionaryEngine
from ..core.errors import StoreError
from ..core.fitness import ParetoRankingEvaluator
from ..core.genome import CoDesignGenome
from ..core.population import Population
from ..core.selection import get_selection
from .fidelity import SuccessiveHalving
from .screen import OffspringScreener

__all__ = ["SurrogateEngine", "build_surrogate_engine"]

logger = logging.getLogger(__name__)


class _ScreenerFeedback(Callback):
    """Feeds every landed evaluation back into the screener."""

    def __init__(self, screener: OffspringScreener) -> None:
        self.screener = screener

    def on_evaluation(self, evaluation, fitness, step) -> None:
        self.screener.observe(evaluation)


class SurrogateEngine(EvolutionaryEngine):
    """Steady-state engine with a conformal offspring pre-screen.

    Parameters
    ----------
    screener:
        The :class:`~repro.surrogate.screen.OffspringScreener`, already
        seeded with the store's rows for the current problem.
    fidelity:
        The successive-halving rung runner (may be unsupported/disabled, in
        which case the top-ranked candidate goes straight to full budget).
    surrogate_config:
        The run's ``surrogate`` configuration section.

    Other parameters are forwarded to :class:`EvolutionaryEngine` unchanged.
    Screening is inherently sequential (every decision feeds the model that
    makes the next one), so the factory always builds this engine with a
    window of one: ``eval_parallelism=1`` and ``eval_batch_size=1``.
    """

    def __init__(self, *args, screener: OffspringScreener, fidelity: SuccessiveHalving,
                 surrogate_config, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.screener = screener
        self.fidelity = fidelity
        self.surrogate_config = surrogate_config
        self.callbacks.append(_ScreenerFeedback(screener))

    # ------------------------------------------------------------ the screen
    def _make_offspring(
        self, population: Population, in_flight_keys: set[str] | None = None
    ) -> CoDesignGenome:
        if not self.screener.ready:
            # No-op regime: same code path, same RNG stream as the base
            # strategy — a run over an empty/too-small store is bit-identical.
            return super()._make_offspring(population, in_flight_keys)

        pool = self._breed_pool(population)
        if len(pool) < 2:
            return super()._make_offspring(population, in_flight_keys)

        explore = self._rng.random() < self.surrogate_config.exploration_fraction
        order = self.screener.rank(pool, population.evaluations())
        self.statistics.surrogate_screened += len(pool)
        if explore:
            winner = pool[int(self._rng.integers(len(pool)))]
        else:
            survivors = [pool[i] for i in order[: self.surrogate_config.rung_survivors]]
            survivors, rung_cost = self.fidelity.winnow(survivors)
            self.statistics.rung_evaluations += rung_cost
            winner = survivors[0]
        self.statistics.real_evals_saved += len(pool) - 1
        return winner

    def _breed_pool(self, population: Population) -> list[CoDesignGenome]:
        """Breed up to ``pool_size`` unique offspring with the base operators."""
        pool: list[CoDesignGenome] = []
        keys: set[str] = set()
        for _ in range(self.surrogate_config.pool_size):
            genome = super()._make_offspring(population, in_flight_keys=keys)
            key = genome.cache_key()
            if key in keys:
                continue
            keys.add(key)
            pool.append(genome)
        return pool

    def _record_frontier_statistics(self) -> None:
        super()._record_frontier_statistics()
        self.statistics.surrogate_mae = self.screener.mean_absolute_error


def build_surrogate_engine(search, evaluator) -> SurrogateEngine:
    """Wire a :class:`SurrogateEngine` for one configured search.

    Resolves the base strategy's fitness/selection (weighted-sum or NSGA-II),
    seeds the screener with the store's rows for the search's problem digest,
    and forces a window of one (``eval_parallelism=1``,
    ``eval_batch_size=1``) — screening is sequential by construction.
    """
    config = search.config
    surrogate = config.surrogate
    fitness = None
    selection = None
    if surrogate.base == "nsga2":
        fitness = ParetoRankingEvaluator(
            config.optimization.to_fitness_objectives(),
            constraints=config.optimization.to_constraints(),
        )
        selection = get_selection(
            "nsga2", tournament_size=config.nsga2_tournament_size
        )

    screener = OffspringScreener(config.optimization.to_fitness_objectives(), surrogate)
    if not screener.model.supported:
        logger.info(
            "surrogate screen inactive: objective(s) %s cannot be modelled from store rows",
            ", ".join(obj.name for obj in screener.objectives),
        )
    if search.store is not None and search.problem_digest is not None:
        # Streamed, not materialized: a large (possibly sharded) store is
        # deserialized row by row instead of as one full-table list.
        seeded = 0
        try:
            seeded = screener.seed(
                search.store.export_rows_iter(problem_digest=search.problem_digest)
            )
        except StoreError as exc:
            logger.warning("surrogate could not read store rows: %s", exc)
        logger.info(
            "surrogate seeded with %d stored evaluations (model %s)",
            seeded,
            "ready" if screener.ready else f"needs >= {surrogate.min_rows} rows",
        )

    engine_config = config.to_engine_config()
    if engine_config.eval_parallelism > 1 or engine_config.eval_batch_size > 1:
        logger.info(
            "surrogate strategy runs the serial steady-state loop; "
            "ignoring eval_parallelism=%d / eval_batch_size=%d",
            engine_config.eval_parallelism,
            engine_config.eval_batch_size,
        )
        engine_config = dataclasses.replace(
            engine_config, eval_parallelism=1, eval_batch_size=1
        )
    return search.build_engine(
        evaluator=evaluator,
        fitness=fitness,
        selection=selection,
        engine_cls=SurrogateEngine,
        engine_config=engine_config,
        screener=screener,
        fidelity=SuccessiveHalving(
            evaluator,
            rung_epochs=surrogate.rung_epochs,
            promote_fraction=surrogate.promote_fraction,
        ),
        surrogate_config=surrogate,
    )
