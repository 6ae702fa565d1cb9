"""Parent-selection schemes for the steady-state engine.

The paper cites Goldberg & Deb's comparative analysis of selection schemes
[16]; the engine defaults to tournament selection (robust, scale-free) but
roulette-wheel and rank selection are also provided so the ablation benchmark
can compare them.  NSGA-II selection (tournament on non-dominated rank with
crowding-distance tiebreak, over the members' typed objective vectors) backs
the multi-objective ``nsga2`` search strategy.
"""

from __future__ import annotations

from operator import is_not

import numpy as np

from ..sampling import pick_weighted, weights_cdf
from .errors import SearchError
from .fitness import FitnessResult
from .pareto import nsga2_ranking
from .population import Individual, Population

__all__ = [
    "SelectionScheme",
    "TournamentSelection",
    "RouletteWheelSelection",
    "RankSelection",
    "NSGA2Selection",
    "get_selection",
    "available_selection_schemes",
]


class SelectionScheme:
    """Base class: picks one parent from a population."""

    name: str = "selection"

    def select(self, population: Population, rng: np.random.Generator) -> Individual:
        """Return one parent."""
        raise NotImplementedError

    def select_pair(self, population: Population, rng: np.random.Generator) -> tuple[Individual, Individual]:
        """Return two parents, distinct whenever the population allows it."""
        first = self.select(population, rng)
        if len(population) < 2:
            return first, first
        for _ in range(16):
            second = self.select(population, rng)
            if second is not first:
                return first, second
        return first, second


class TournamentSelection(SelectionScheme):
    """Pick the fittest of ``tournament_size`` uniformly sampled members."""

    name = "tournament"

    def __init__(self, tournament_size: int = 3) -> None:
        if tournament_size < 2:
            raise ValueError(f"tournament_size must be >= 2, got {tournament_size}")
        self.tournament_size = int(tournament_size)

    def select(self, population: Population, rng: np.random.Generator) -> Individual:
        if len(population) == 0:
            raise SearchError("cannot select from an empty population")
        size = min(self.tournament_size, len(population))
        indices = rng.choice(len(population), size=size, replace=False)
        contenders = [population.members[int(i)] for i in indices]
        return max(contenders, key=lambda member: member.fitness_value)


class RouletteWheelSelection(SelectionScheme):
    """Fitness-proportional selection (after shifting fitness to be positive)."""

    name = "roulette"

    def __init__(self) -> None:
        #: Wheel memo for the last-seen population state, keyed like
        #: :class:`NSGA2Selection`'s ranking memo on the members' fitness
        #: results; ``None`` when the wheel is flat and the pick is uniform.
        self._cache_key: tuple[FitnessResult, ...] = ()
        self._cdf: list[float] | None = None

    def select(self, population: Population, rng: np.random.Generator) -> Individual:
        if len(population) == 0:
            raise SearchError("cannot select from an empty population")
        key = tuple(member.fitness for member in population.members)
        if len(key) != len(self._cache_key) or any(map(is_not, key, self._cache_key)):
            self._cdf = self._wheel_cdf(population)
            self._cache_key = key
        if self._cdf is None:
            index = int(rng.integers(0, len(population)))
        else:
            index = pick_weighted(rng, self._cdf)
        return population.members[index]

    @staticmethod
    def _wheel_cdf(population: Population) -> list[float] | None:
        fitness = np.asarray(
            [
                member.fitness_value if np.isfinite(member.fitness_value) else 0.0
                for member in population.members
            ],
            dtype=float,
        )
        shifted = fitness - fitness.min()
        total = shifted.sum()
        if total <= 0:
            return None
        return weights_cdf(shifted / total)


class RankSelection(SelectionScheme):
    """Linear rank-based selection (pressure controlled by ``selection_pressure``)."""

    name = "rank"

    def __init__(self, selection_pressure: float = 1.5) -> None:
        if not 1.0 < selection_pressure <= 2.0:
            raise ValueError(
                f"selection_pressure must be in (1, 2], got {selection_pressure}"
            )
        self.selection_pressure = float(selection_pressure)
        #: Rank-weight cdf per population size: the weights depend on nothing
        #: else, so each size's cdf is built once.
        self._cdfs: dict[int, list[float]] = {}

    def select(self, population: Population, rng: np.random.Generator) -> Individual:
        if len(population) == 0:
            raise SearchError("cannot select from an empty population")
        count = len(population)
        if count == 1:
            return population.members[0]
        cdf = self._cdfs.get(count)
        if cdf is None:
            cdf = self._cdfs[count] = self._rank_cdf(count)
        return population.members[pick_weighted(rng, cdf)]

    def _rank_cdf(self, count: int) -> list[float]:
        # members[0] is the best; rank 0 = best.
        ranks = np.arange(count, dtype=float)
        pressure = self.selection_pressure
        probabilities = (2 - pressure) / count + 2 * (count - 1 - ranks) * (pressure - 1) / (
            count * (count - 1)
        )
        return weights_cdf(probabilities / probabilities.sum())


class NSGA2Selection(SelectionScheme):
    """NSGA-II tournament: lower Pareto rank wins, crowding breaks ties.

    Ranks and crowding come from :func:`~repro.core.pareto.nsga2_ranking`
    over the members' :class:`~repro.core.objectives.ObjectiveVector`s (constrained dominance,
    so feasible members always outrank infeasible ones); within a front the
    more isolated member (larger crowding distance) is preferred, preserving
    frontier diversity.  Populations whose fitness results carry no vectors
    (e.g. a plain scalarizing evaluator) fall back to scalar-fitness
    comparison, which keeps the scheme usable everywhere.

    ``tournament_size`` defaults to the classic binary tournament and is
    configurable through ``nsga2_tournament_size``.  The right pressure is
    landscape-dependent: generational NSGA-II gets extra pressure from
    mu+lambda survival, while this steady-state loop replaces one member
    per step, so at small populations a binary tournament rarely samples
    the (2-3 member) first front and the search can breed from dominated
    stock — there, matching the scalarized baseline's tournament size
    keeps an equal-budget frontier comparison apples to apples (see the
    table4 benchmark).  On near-degenerate landscapes (a hard accuracy
    plateau makes dominance effectively one-dimensional) the same pressure
    fixates the tiny population on the accuracy-extreme point, so the
    binary default is kept for general use.
    """

    name = "nsga2"

    def __init__(self, tournament_size: int = 2) -> None:
        if tournament_size < 2:
            raise ValueError(f"tournament_size must be >= 2, got {tournament_size}")
        self.tournament_size = int(tournament_size)
        #: Ranking memo for the last-seen population state.  Keyed on the
        #: identity of every member's fitness result, in member order: a
        #: rescore replaces the objects it changes, so the key changes exactly
        #: when the ranking could — selection between rescores reuses the
        #: sort instead of redoing O(n^2) dominance work per parent pick.  The
        #: memo holds the keyed objects, so no id in the key can be reused by
        #: a newer result while it is live.
        self._cache_key: tuple[FitnessResult, ...] = ()
        self._cache: tuple[list[int], list[float]] = ([], [])

    def select(self, population: Population, rng: np.random.Generator) -> Individual:
        if len(population) == 0:
            raise SearchError("cannot select from an empty population")
        if len(population) == 1:
            return population.members[0]
        key = tuple(member.fitness for member in population.members)
        if len(key) != len(self._cache_key) or any(map(is_not, key, self._cache_key)):
            self._cache = self._ranking(population)
            self._cache_key = key
        ranks, crowding = self._cache
        size = min(self.tournament_size, len(population))
        picks = [int(i) for i in rng.choice(len(population), size=size, replace=False)]
        best = picks[0]
        for contender in picks[1:]:
            best = self._better(best, contender, ranks, crowding)
        return population.members[best]

    @staticmethod
    def _better(i: int, j: int, ranks: list[int], crowding: list[float]) -> int:
        if ranks[i] != ranks[j]:
            return i if ranks[i] < ranks[j] else j
        if crowding[i] != crowding[j]:
            return i if crowding[i] > crowding[j] else j
        return i

    def _ranking(self, population: Population) -> tuple[list[int], list[float]]:
        """Per-member (non-dominated rank, crowding distance)."""
        members = population.members
        vectors = [member.fitness.vector for member in members]
        if any(vector is None for vector in vectors):
            # No typed vectors: rank by scalar fitness (one member per front).
            order = sorted(
                range(len(members)), key=lambda k: members[k].fitness_value, reverse=True
            )
            ranks = [0] * len(members)
            for rank, index in enumerate(order):
                ranks[index] = rank
            return ranks, [0.0] * len(members)
        fronts, crowding = nsga2_ranking(vectors)
        ranks = [0] * len(members)
        for rank, front in enumerate(fronts):
            for i in front:
                ranks[i] = rank
        return ranks, crowding


_REGISTRY: dict[str, type[SelectionScheme]] = {
    TournamentSelection.name: TournamentSelection,
    RouletteWheelSelection.name: RouletteWheelSelection,
    RankSelection.name: RankSelection,
    NSGA2Selection.name: NSGA2Selection,
}


def available_selection_schemes() -> list[str]:
    """Sorted names of all registered selection schemes."""
    return sorted(_REGISTRY)


def get_selection(name: str | SelectionScheme, **kwargs) -> SelectionScheme:
    """Resolve a selection scheme by name, forwarding keyword arguments."""
    if isinstance(name, SelectionScheme):
        if kwargs:
            raise ValueError("cannot pass keyword arguments together with a scheme instance")
        return name
    key = str(name).strip().lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown selection scheme {name!r}; available: {', '.join(available_selection_schemes())}"
        )
    return _REGISTRY[key](**kwargs)
