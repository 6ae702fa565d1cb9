"""Population container for the steady-state evolutionary engine.

The ECAD evolutionary process is "based on a steady-state model" (section
III-A, citing Goldberg & Deb): instead of replacing a whole generation at
once, offspring are inserted one (or a few) at a time, replacing the worst
members of the population.  :class:`Population` implements that replacement
policy, tracks every member's evaluation and fitness, and exposes the views
the engine and analysis layers need (best member, sorted members, objective
matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from .candidate import CandidateEvaluation
from .errors import SearchError
from .fitness import FitnessResult, ObjectiveBounds
from .genome import CoDesignGenome

__all__ = ["Individual", "Population"]

#: Sort key: a member's scalar fitness (``Individual.fitness_value``).
_FITNESS = attrgetter("fitness.fitness")


@dataclass
class Individual:
    """One population member: genome, its evaluation and its fitness."""

    genome: CoDesignGenome
    evaluation: CandidateEvaluation
    fitness: FitnessResult
    birth_step: int = 0

    @property
    def fitness_value(self) -> float:
        """Scalar fitness used for selection and replacement."""
        return self.fitness.fitness

    def objective(self, name: str) -> float:
        """Raw objective value recorded at evaluation time."""
        return self.fitness.objective(name)


class Population:
    """Fixed-capacity, fitness-ordered population with steady-state replacement.

    Besides the members (kept sorted by descending fitness) the population
    keeps state derived from them, updated as members come and go so that no
    landing has to rescan everyone: the cache-key count of their genomes
    (:meth:`contains_genome` is a set lookup) and :attr:`bounds`, the running
    min/max of their finite raw objective values, the reference a weighted-sum
    fitness is normalized against.  Evicting a member that holds a bound
    recomputes that objective's bound from the remaining members.

    Attributes
    ----------
    capacity:
        Maximum number of individuals retained.
    bounds:
        Per-objective min/max of the members' finite raw objective values.
    """

    def __init__(self, capacity: int, members: list[Individual] | None = None) -> None:
        if capacity < 2:
            raise SearchError(f"population capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.members = members or []
        self._sort()

    # ------------------------------------------------------------ accessors
    @property
    def members(self) -> list[Individual]:
        """Current individuals (kept sorted by descending fitness)."""
        return self._members

    @members.setter
    def members(self, members: list[Individual]) -> None:
        """Replace every member, in the given order, and rebuild the derived state."""
        self._members = list(members)
        self._keys: dict[str, int] = {}
        for member in self._members:
            key = member.genome.cache_key()
            self._keys[key] = self._keys.get(key, 0) + 1
        self._rebuild_bounds()

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    @property
    def is_full(self) -> bool:
        """Whether the population is at capacity."""
        return len(self._members) >= self.capacity

    @property
    def best(self) -> Individual:
        """The fittest individual."""
        if not self._members:
            raise SearchError("population is empty")
        return self._members[0]

    @property
    def worst(self) -> Individual:
        """The least fit individual."""
        if not self._members:
            raise SearchError("population is empty")
        return self._members[-1]

    def genomes(self) -> list[CoDesignGenome]:
        """Genomes of all members, fitness-ordered."""
        return [member.genome for member in self._members]

    def evaluations(self) -> list[CandidateEvaluation]:
        """Evaluations of all members, fitness-ordered."""
        return [member.evaluation for member in self._members]

    def contains_genome(self, genome: CoDesignGenome) -> bool:
        """Whether an identical genome is already present."""
        return genome.cache_key() in self._keys

    # ----------------------------------------------------------- mutation
    def add(self, individual: Individual) -> Individual | None:
        """Insert an individual, evicting the worst member when at capacity.

        Returns the evicted individual (or ``None`` when nothing was evicted).
        When the population is full and the newcomer is no better than the
        current worst member, the newcomer itself is "evicted" (not inserted)
        and nothing changes, which is the steady-state replacement policy.
        """
        if not self.is_full:
            self._members.append(individual)
            self._enter(individual)
            self._sort()
            return None
        current_worst = self.worst
        if individual.fitness_value <= current_worst.fitness_value:
            return individual
        self._members[-1] = individual
        self._enter(individual)
        self._leave(current_worst)
        self._sort()
        return current_worst

    def rescore(self, fitness_results: list[FitnessResult]) -> None:
        """Replace every member's fitness, in member order, and re-sort.

        A rescore normally carries each member's raw objective values over
        (the same dictionary); results with other raw values rebuild
        :attr:`bounds`.
        """
        if len(fitness_results) != len(self._members):
            raise SearchError(
                f"got {len(fitness_results)} fitness results for {len(self._members)} members"
            )
        raw_changed = False
        for member, result in zip(self._members, fitness_results):
            raw_changed = raw_changed or result.objectives is not member.fitness.objectives
            member.fitness = result
        if raw_changed:
            self._rebuild_bounds()
        self._sort()

    def rescore_member(self, member: Individual, result: FitnessResult) -> None:
        """Replace one member's fitness and re-sort; the others keep theirs."""
        raw_changed = result.objectives is not member.fitness.objectives
        member.fitness = result
        if raw_changed:
            self._rebuild_bounds()
        self._sort()

    # ------------------------------------------------------------ internals
    def _enter(self, individual: Individual) -> None:
        """Count a new member's genome and fold its raw values into the bounds."""
        key = individual.genome.cache_key()
        self._keys[key] = self._keys.get(key, 0) + 1
        self.bounds.observe(individual.fitness.objectives)

    def _leave(self, individual: Individual) -> None:
        """Uncount an evicted member; refold every bound it held."""
        key = individual.genome.cache_key()
        count = self._keys[key] - 1
        if count:
            self._keys[key] = count
        else:
            del self._keys[key]
        low, high = self.bounds.low, self.bounds.high
        for name, value in individual.fitness.objectives.items():
            if value == low.get(name) or value == high.get(name):
                self._refold(name)

    def _rebuild_bounds(self) -> None:
        self.bounds = ObjectiveBounds()
        names = dict.fromkeys(name for member in self._members for name in member.fitness.objectives)
        for name in names:
            self._refold(name)

    def _refold(self, name: str) -> None:
        """Recompute one objective's bounds from the current members."""
        values = [
            value
            for member in self._members
            if math.isfinite(value := member.fitness.objectives.get(name, math.nan))
        ]
        if values:
            self.bounds.low[name] = min(values)
            self.bounds.high[name] = max(values)
        else:
            self.bounds.low.pop(name, None)
            self.bounds.high.pop(name, None)

    def _sort(self) -> None:
        self._members.sort(key=_FITNESS, reverse=True)
