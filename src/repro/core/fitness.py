"""Fitness functions and multi-objective evaluation.

Section III-A: *"Each candidate in the population is evaluated according to
configurable and potentially multiple criteria, for example accuracy alone or
accuracy vs throughput.  Result evaluation is done using user defined fitness
functions ... Simple evaluation functions can be specified in the
configuration file and more complex ones are written in code and added by
registering them with the framework."*

The typed objective model (registry, :class:`~repro.core.objectives.ObjectiveSpec`,
:class:`~repro.core.objectives.ObjectiveVector`, constraints) lives in
:mod:`repro.core.objectives`.  This module provides the evaluators built on
top of it:

* :class:`FitnessEvaluator` — scalarizes several objectives into a weighted
  sum of min-max-normalized values (the paper's selection fitness) while
  natively producing each candidate's :class:`ObjectiveVector` for Pareto
  analysis, and
* :class:`ParetoRankingEvaluator` — NSGA-II scoring: non-dominated fronts
  plus crowding distance (:func:`~repro.core.pareto.nsga2_ranking`), encoded
  as a scalar so the steady-state population machinery (selection,
  replacement) needs no changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .candidate import CandidateEvaluation
from .errors import ConfigurationError
from .objectives import (
    Constraint,
    ObjectiveSpec,
    ObjectiveVector,
    build_objective_vector,
    resolve_constraints,
)
from .pareto import nsga2_ranking

__all__ = [
    "FitnessResult",
    "ObjectiveBounds",
    "FitnessEvaluator",
    "ParetoRankingEvaluator",
]


@dataclass(frozen=True)
class FitnessResult:
    """Scalar fitness plus the raw objective values it was derived from.

    ``vector`` carries the typed, direction-aware objective values (with
    feasibility) whenever the result was produced by an evaluator; Pareto
    machinery (NSGA-II selection, the frontier archive) consumes it.
    """

    fitness: float
    objectives: dict[str, float] = field(default_factory=dict)
    vector: ObjectiveVector | None = None

    def objective(self, name: str) -> float:
        """Raw value of one objective by name."""
        key = str(name).strip().lower()
        if key not in self.objectives:
            raise KeyError(f"objective {name!r} was not part of this evaluation")
        return self.objectives[key]

    @property
    def feasible(self) -> bool:
        """Whether the candidate satisfies every configured constraint."""
        return self.vector.feasible if self.vector is not None else np.isfinite(self.fitness)


class ObjectiveBounds:
    """Running min/max of every objective's finite raw values.

    Folding values in one at a time keeps the first of equal values, exactly
    like ``min``/``max`` over the whole list, so a candidate normalized
    against running bounds gets the same float as one normalized against
    the full reference list.  Objectives with no finite value seen yet have
    no entry.
    """

    __slots__ = ("low", "high")

    def __init__(self) -> None:
        self.low: dict[str, float] = {}
        self.high: dict[str, float] = {}

    def observe(self, raw: dict[str, float]) -> None:
        """Fold one candidate's raw objective values into the bounds."""
        for name, value in raw.items():
            if not math.isfinite(value):
                continue
            low = self.low.get(name)
            if low is None or value < low:
                self.low[name] = value
            high = self.high.get(name)
            if high is None or value > high:
                self.high[name] = value


class FitnessEvaluator:
    """Scalarizes multiple objectives for steady-state selection.

    The scalar fitness of a candidate is the weighted sum of its normalized
    objective values.  Objectives with a fixed ``scale`` are divided by that
    scale; others are min-max normalized against the finite values of a
    reference set (see :class:`ObjectiveBounds`), which keeps very
    differently scaled objectives (accuracy in [0,1], throughput in the
    millions) comparable.  Minimized objectives contribute
    ``1 - normalized`` so that larger fitness is always better.  Failed
    evaluations always receive ``-inf``, as do candidates violating any
    feasibility ``constraint``.
    """

    #: Whether scalar scores are only comparable within one scored set.
    #: The engine scores newcomers against the current *population* (not the
    #: full history) for evaluators that set this, so admission decisions in
    #: ``Population.add`` compare like with like.
    population_relative = False

    def __init__(
        self,
        objectives: list[ObjectiveSpec],
        constraints: Sequence[Constraint | str] = (),
    ) -> None:
        if not objectives:
            raise ConfigurationError("at least one fitness objective is required")
        names = [obj.name for obj in objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate objective names in {names}")
        self.objectives = list(objectives)
        self.constraints = resolve_constraints(constraints)
        self._names = tuple(names)

    @property
    def objective_names(self) -> list[str]:
        """Names of the configured objectives, in order."""
        return list(self._names)

    # -------------------------------------------------------------- scoring
    def raw_objectives(self, evaluation: CandidateEvaluation) -> dict[str, float]:
        """Raw objective values of one candidate."""
        if evaluation.failed:
            return {obj.name: float("nan") for obj in self.objectives}
        return {obj.name: obj.raw_value(evaluation) for obj in self.objectives}

    def normalization(self, bounds: ObjectiveBounds) -> list[tuple[str, float, bool, float, float | None]]:
        """Each objective's term of the weighted sum against ``bounds``.

        A term is ``(name, weight, maximize, offset, divisor)``: a raw value
        ``v`` normalizes to ``clip01((v - offset) / divisor)`` (a fixed
        ``scale`` is the divisor, with offset 0), or to ``offset`` itself when
        ``divisor`` is None — 0.0 while no finite value bounds the objective,
        0.5 when its range is degenerate.  Against two bounds with equal
        normalizations every candidate gets the same score.
        """
        terms = []
        for objective in self.objectives:
            offset, divisor = 0.0, objective.scale
            if objective.scale <= 0:
                low = bounds.low.get(objective.name)
                if low is None:
                    divisor = None
                else:
                    offset, divisor = low, bounds.high[objective.name] - low
                    if divisor < 1e-12:
                        offset, divisor = 0.5, None
            terms.append((objective.name, objective.weight, objective.maximize, offset, divisor))
        return terms

    def score_population(
        self,
        evaluations: list[CandidateEvaluation],
        carried: Sequence[FitnessResult] | None = None,
        bounds: ObjectiveBounds | None = None,
    ) -> list[FitnessResult]:
        """Score every candidate against the population's own value ranges.

        ``carried`` holds one earlier result per evaluation (the members'
        current fitness, when rescoring a population); its raw values and
        vectors are reused, so only the normalization is redone.  ``bounds``
        are those value ranges when the caller already keeps them (a
        population's running bounds, see :class:`~repro.core.population.Population`);
        ``evaluations`` may then be any subset of the population.  They are
        folded from ``evaluations`` when omitted.
        """
        previous = carried if carried is not None else [None] * len(evaluations)
        measured = [
            self._measure(evaluation, result)
            for evaluation, result in zip(evaluations, previous, strict=True)
        ]
        if bounds is None:
            bounds = ObjectiveBounds()
            for raw, _vector in measured:
                bounds.observe(raw)
        terms = self.normalization(bounds)
        return [self._scalarize(raw, vector, terms) for raw, vector in measured]

    def score(self, evaluation: CandidateEvaluation, reference: list[CandidateEvaluation]) -> FitnessResult:
        """Score one candidate against a reference population (itself included)."""
        bounds = ObjectiveBounds()
        for other in reference:
            bounds.observe(self.raw_objectives(other))
        return self.score_against(evaluation, bounds)

    def score_against(self, evaluation: CandidateEvaluation, bounds: ObjectiveBounds) -> FitnessResult:
        """Score a newcomer against running bounds, folding it in first.

        With ``bounds`` accumulated over every earlier candidate this equals
        :meth:`score` against that whole history, at a cost independent of
        its length.
        """
        raw, vector = self._measure(evaluation)
        bounds.observe(raw)
        return self._scalarize(raw, vector, self.normalization(bounds))

    # --------------------------------------------------------------- helpers
    def _measure(
        self, evaluation: CandidateEvaluation, previous: FitnessResult | None = None
    ) -> tuple[dict[str, float], ObjectiveVector]:
        """Raw values and vector of one candidate, reusing ``previous``'s when it has them."""
        if previous is not None and previous.vector is not None and previous.vector.names == self._names:
            return previous.objectives, previous.vector
        raw = self.raw_objectives(evaluation)
        raw_values = None if evaluation.failed else [raw[name] for name in self._names]
        vector = build_objective_vector(
            evaluation, self.objectives, self.constraints, raw_values=raw_values
        )
        return raw, vector

    def _scalarize(
        self,
        raw: dict[str, float],
        vector: ObjectiveVector,
        terms: list[tuple[str, float, bool, float, float | None]],
    ) -> FitnessResult:
        if not vector.feasible:
            # Failed evaluations always carry an infeasible vector.
            return FitnessResult(fitness=float("-inf"), objectives=raw, vector=vector)
        fitness = 0.0
        for name, weight, maximize, offset, divisor in terms:
            normalized = offset if divisor is None else _clip01((raw[name] - offset) / divisor)
            fitness += weight * (normalized if maximize else 1.0 - normalized)
        return FitnessResult(fitness=fitness, objectives=raw, vector=vector)


class ParetoRankingEvaluator(FitnessEvaluator):
    """NSGA-II scoring: non-dominated rank plus crowding-distance tiebreak.

    Instead of a weighted sum, the scalar fitness encodes the candidate's
    Pareto layer within the reference population: members of front ``r``
    score in ``(-r, -r + CROWDING_SPAN]``, ordered within the front by
    descending crowding distance.  Sorting by this scalar therefore exactly
    reproduces NSGA-II's ``(rank, crowding)`` comparison, so the unchanged
    steady-state population machinery performs NSGA-II replacement, and any
    selection scheme reading ``fitness_value`` performs NSGA-II selection.
    Infeasible candidates are ranked after every feasible front (constrained
    dominance); failed evaluations keep ``-inf``.
    """

    #: Width of the in-front crowding band; < 1 keeps ranks separated.
    CROWDING_SPAN = 0.9

    #: Rank-encoded scores depend on the scored set: a front index within the
    #: full history is meaningless next to one within the 16-member
    #: population, so the engine must score newcomers population-relative.
    population_relative = True

    def score(self, evaluation: CandidateEvaluation, reference: list[CandidateEvaluation]) -> FitnessResult:
        """Rank one candidate within a reference population (itself included)."""
        population = list(reference)
        if evaluation not in population:
            population.append(evaluation)
        results = self.score_population(population)
        return results[population.index(evaluation)]

    def score_against(self, evaluation: CandidateEvaluation, bounds: ObjectiveBounds) -> FitnessResult:
        raise TypeError("rank-encoded fitness needs the scored set; use score()")

    def score_population(
        self,
        evaluations: list[CandidateEvaluation],
        carried: Sequence[FitnessResult] | None = None,
        bounds: ObjectiveBounds | None = None,
    ) -> list[FitnessResult]:
        """Rank the whole scored set; ``bounds`` only serve the base scalarization."""
        base = super().score_population(evaluations, carried, bounds)
        scoreable = [i for i, e in enumerate(evaluations) if not e.failed]
        if not scoreable:
            return base
        fronts, crowding = nsga2_ranking([base[i].vector for i in scoreable])
        results = list(base)
        for rank, front in enumerate(fronts):
            order = sorted(front, key=lambda j: -crowding[j])
            for position, j in enumerate(order):
                index = scoreable[j]
                fitness = -float(rank) + self.CROWDING_SPAN * (1.0 - position / len(front))
                results[index] = FitnessResult(
                    fitness=fitness,
                    objectives=base[index].objectives,
                    vector=base[index].vector,
                )
        return results


def _clip01(value: float) -> float:
    """``value`` clipped to [0, 1]; non-finite values count as 0."""
    if not math.isfinite(value):
        return 0.0
    return 1.0 if value >= 1.0 else (value if value > 0.0 else 0.0)
