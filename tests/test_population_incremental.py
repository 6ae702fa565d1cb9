"""Property test: the engine's incremental population state equals a rescan.

``Population`` keeps its members' cache-key counts and the running min/max
of their raw objectives, and ``EvolutionaryEngine._admit`` rescores only what
a landing changed.  Random landing/eviction/generational sequences — failed
and infeasible members, NaN/inf raw values, ties, signed zeros and a
fixed-``scale`` objective — must leave every member's fitness bit-equal to a
from-scratch ``score_population`` over the members in their current order.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidate import CandidateEvaluation
from repro.core.engine import EngineConfig, EvolutionaryEngine
from repro.core.fitness import FitnessEvaluator, ObjectiveBounds
from repro.core.objectives import ObjectiveSpec, register_objective
from repro.core.genome import CoDesignSearchSpace
from repro.core.objectives import Constraint
from repro.core.population import Individual, Population

for _name in ("probe_fixed", "probe_max", "probe_min", "probe_limit"):
    register_objective(_name, lambda e, key=_name: e.extras[key], overwrite=True)

OBJECTIVES = [
    ObjectiveSpec("probe_fixed", maximize=True, weight=1.0, scale=2.0),
    ObjectiveSpec("probe_max", maximize=True, weight=0.7),
    ObjectiveSpec("probe_min", maximize=False, weight=1.3),
]
CONSTRAINTS = [Constraint("probe_limit", "<=", 5.0)]
CAPACITY = 5

_pool_rng = np.random.default_rng(7)
_space = CoDesignSearchSpace()
GENOMES = []
while len(GENOMES) < 7:
    genome = _space.random_genome(_pool_rng)
    if genome not in GENOMES:
        GENOMES.append(genome)

#: Few distinct values so ties, signed zeros and non-finite values recur.
raw_value = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0 + 1e-13, 2.5, -3.0, 7.25, math.nan, math.inf, -math.inf]
) | st.floats(min_value=-10.0, max_value=10.0)

evaluation_strategy = st.tuples(
    st.integers(min_value=0, max_value=len(GENOMES) - 1),
    st.booleans(),  # failed
    raw_value,
    raw_value,
    raw_value,
    st.sampled_from([0.0, 4.0, 6.0, math.nan]),  # constraint value: 6 and NaN are infeasible
)

step_strategy = st.one_of(
    st.tuples(st.just("land"), evaluation_strategy),
    st.tuples(st.just("generational"), st.lists(evaluation_strategy, min_size=1, max_size=CAPACITY)),
    st.tuples(st.just("rescore")),
)


def _evaluation(spec) -> CandidateEvaluation:
    index, failed, fixed, high, low, limit = spec
    if failed:
        return CandidateEvaluation(genome=GENOMES[index], error="injected failure")
    return CandidateEvaluation(
        genome=GENOMES[index],
        accuracy=0.5,
        extras={"probe_fixed": fixed, "probe_max": high, "probe_min": low, "probe_limit": limit},
    )


def _bits(value: float) -> bytes:
    return struct.pack("d", value)


def _check(engine: EvolutionaryEngine, population: Population) -> None:
    evaluations = population.evaluations()
    expected = engine.fitness.score_population(evaluations)
    assert [_bits(m.fitness.fitness) for m in population] == [_bits(r.fitness) for r in expected]
    fitness = [m.fitness_value for m in population]
    assert fitness == sorted(fitness, reverse=True)
    scratch = ObjectiveBounds()
    for member in population:
        scratch.observe(member.fitness.objectives)
    assert population.bounds.low == scratch.low
    assert population.bounds.high == scratch.high
    for genome in GENOMES:
        scan = any(m.genome.cache_key() == genome.cache_key() for m in population)
        assert population.contains_genome(genome) == scan


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(step_strategy, min_size=1, max_size=30))
def test_incremental_rescoring_matches_a_full_rescore(steps):
    fitness = FitnessEvaluator(OBJECTIVES, constraints=CONSTRAINTS)
    engine = EvolutionaryEngine(
        space=_space,
        evaluator=lambda genome: None,
        fitness=fitness,
        config=EngineConfig(population_size=CAPACITY, max_evaluations=CAPACITY),
    )
    history = ObjectiveBounds()
    population = Population(capacity=CAPACITY)

    def landed(spec) -> Individual:
        evaluation = _evaluation(spec)
        return Individual(
            genome=evaluation.genome,
            evaluation=evaluation,
            fitness=fitness.score_against(evaluation, history),
        )

    for step in steps:
        if step[0] == "land":
            before = {id(m): m.fitness for m in population}
            key = fitness.normalization(population.bounds)
            newcomer = landed(step[1])
            engine._admit(population, newcomer)
            if fitness.normalization(population.bounds) == key:
                # Bounds held: every member that stayed keeps its result object.
                for member in population:
                    if member is not newcomer:
                        assert member.fitness is before[id(member)]
        elif step[0] == "generational" and len(population):
            offspring = [landed(spec) for spec in step[1]]
            population.members = [population.best, *offspring][:CAPACITY]
            engine._rescore(population)
        else:
            engine._rescore(population)
        _check(engine, population)
