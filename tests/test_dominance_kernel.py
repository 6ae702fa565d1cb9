"""The dominance kernel in ``repro.core.pareto`` against its scalar definition.

``ObjectiveVector.dominates`` is the one scalar statement of constrained
Pareto dominance.  These property tests draw objective-vector sets with tied
values, duplicate points, NaN values and infeasible members (equal and
infinite violations) and check that:

* ``constrained_fronts`` returns the fronts of Deb's fast non-dominated sort
  (kept below as ``_legacy_fronts``, the double loop it replaced) list for
  list, in the same order — crowding ties break by position, so front order
  is part of the ranking;
* ``dominated_by`` agrees with ``ObjectiveVector.dominates`` pair by pair;
* the surrogate screen's Pareto bonus equals its former per-candidate loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SurrogateConfig
from repro.core.objectives import ObjectiveSpec, ObjectiveVector
from repro.core.pareto import (
    constrained_fronts,
    crowding_distances,
    dominated_by,
    nsga2_ranking,
)
from repro.surrogate.model import SurrogateModel
from repro.surrogate.screen import OffspringScreener

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

NAN = float("nan")
INF = float("inf")

#: A coarse value grid: ties and exact duplicates are common, NaN appears.
_VALUES = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0, 3.0, 4.0, NAN])


def _legacy_fronts(vectors: list[ObjectiveVector]) -> list[list[int]]:
    """Deb's fast non-dominated sort as the pure-Python double loop it was."""
    count = len(vectors)
    dominated: list[list[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    fronts: list[list[int]] = [[]]
    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            if vectors[i].dominates(vectors[j]):
                dominated[i].append(j)
            elif vectors[j].dominates(vectors[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: list[int] = []
        for i in fronts[current]:
            for j in dominated[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]


@st.composite
def _vector_sets(draw, max_size: int = 18) -> list[ObjectiveVector]:
    width = draw(st.integers(min_value=1, max_value=3))
    names = tuple(f"o{i}" for i in range(width))
    maximize = tuple(draw(st.lists(st.booleans(), min_size=width, max_size=width)))
    rows = st.lists(_VALUES, min_size=width, max_size=width)
    # A pool of rows, drawn from repeatedly, makes duplicates.
    pool = draw(st.lists(rows, min_size=1, max_size=12))
    vectors = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        values = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        feasible = draw(st.integers(min_value=0, max_value=3)) > 0
        violation = 0.0 if feasible else draw(st.sampled_from([0.5, 1.0, INF]))
        vectors.append(
            ObjectiveVector(
                names=names, values=values, maximize=maximize, feasible=feasible, violation=violation
            )
        )
    return vectors


def _fronts_of(vectors: list[ObjectiveVector]) -> list[list[int]]:
    return constrained_fronts(
        [vector.canonical for vector in vectors],
        [vector.feasible for vector in vectors],
        [vector.violation for vector in vectors],
    )


class TestConstrainedFronts:
    @SETTINGS
    @given(vectors=_vector_sets())
    def test_equals_the_double_loop_order_included(self, vectors):
        assert _fronts_of(vectors) == _legacy_fronts(vectors)

    @SETTINGS
    @given(vectors=_vector_sets())
    def test_nsga2_ranking_equals_loop_fronts_and_crowding(self, vectors):
        fronts, crowding = nsga2_ranking(vectors)
        assert fronts == _legacy_fronts(vectors)
        expected = [0.0] * len(vectors)
        for front in fronts:
            distances = crowding_distances([vectors[i].canonical for i in front])
            for i, distance in zip(front, distances):
                expected[i] = distance
        np.testing.assert_array_equal(crowding, expected)

    def test_later_front_order_follows_last_dominator(self):
        # Front 0 is A=(2, 0) and B=(0, 2).  The members after them alternate
        # between one that only A dominates and one that only B dominates, so
        # front 1 lists A's victims first, then B's, each in index order.
        points = [(2.0, 0.0), (0.0, 2.0)] + [(1.0, -1.0), (-1.0, 1.0)] * 5
        count = len(points)
        fronts = constrained_fronts(points, [True] * count, [0.0] * count)
        assert fronts == [[0, 1], [2, 4, 6, 8, 10, 3, 5, 7, 9, 11]]
        vectors = [ObjectiveVector(("a", "b"), p, (True, True)) for p in points]
        assert fronts == _legacy_fronts(vectors)

    def test_infeasible_members_rank_by_violation(self):
        fronts = constrained_fronts(
            [(0.0,), (9.0,), (5.0,), (1.0,)], [True, False, False, False], [0.0, 2.0, INF, 1.0]
        )
        assert fronts == [[0], [3], [1], [2]]

    def test_empty_set(self):
        assert constrained_fronts([], [], []) == []
        assert nsga2_ranking([]) == ([], [])


class TestDominatedBy:
    @SETTINGS
    @given(vectors=_vector_sets(max_size=10))
    def test_agrees_with_the_scalar_definition_pair_by_pair(self, vectors):
        feasible = [vector for vector in vectors if vector.feasible]
        canonical = np.asarray([vector.canonical for vector in feasible], dtype=float)
        for i, point in enumerate(feasible):
            for j, other in enumerate(feasible):
                verdict = dominated_by(canonical[i : i + 1], canonical[j : j + 1])
                assert verdict.tolist() == [other.dominates(point)]
        if feasible:
            expected = [any(o.dominates(p) for o in feasible) for p in feasible]
            assert dominated_by(canonical, canonical).tolist() == expected

    @SETTINGS
    @given(vectors=_vector_sets(max_size=10), block=st.integers(min_value=1, max_value=64))
    def test_blocks_do_not_change_the_verdict(self, vectors, block):
        from repro.core import pareto

        rows = [vector.canonical for vector in vectors if vector.feasible]
        if not rows:
            return
        expected = dominated_by(rows, rows).tolist()
        original = pareto._PAIRWISE_BLOCK
        pareto._PAIRWISE_BLOCK = block
        try:
            assert dominated_by(rows, rows).tolist() == expected
        finally:
            pareto._PAIRWISE_BLOCK = original


# ---------------------------------------------------------------------------
# The surrogate screen's Pareto bonus
# ---------------------------------------------------------------------------

_SCREEN_OBJECTIVES = [
    ObjectiveSpec.accuracy(),
    ObjectiveSpec.fpga_throughput(),
    ObjectiveSpec(name="gpu_throughput", maximize=False),
]
_COLUMN_VALUES = st.sampled_from([0.0, 1.0, 2.0, NAN, INF, -INF, None])


def _legacy_pareto_bonus(objectives, directed, reference_rows):
    """The screen's former bonus: one reference scan per candidate."""
    if not reference_rows:
        return np.ones(directed.shape[0], dtype=np.float64)
    reference = np.asarray(
        [
            [
                value if objective.maximize else -value
                for objective, value in (
                    (obj, SurrogateModel.targets_from_row(row, obj.name)) for obj in objectives
                )
            ]
            for row in reference_rows
        ],
        dtype=np.float64,
    )
    reference = reference[np.all(np.isfinite(reference), axis=1)]
    if reference.shape[0] == 0:
        return np.ones(directed.shape[0], dtype=np.float64)
    bonus = np.empty(directed.shape[0], dtype=np.float64)
    for i in range(directed.shape[0]):
        at_least = np.all(reference >= directed[i], axis=1)
        strictly = np.any(reference > directed[i], axis=1)
        bonus[i] = 0.0 if bool(np.any(at_least & strictly)) else 1.0
    return bonus


@st.composite
def _screen_inputs(draw):
    width = draw(st.integers(min_value=1, max_value=len(_SCREEN_OBJECTIVES)))
    objectives = _SCREEN_OBJECTIVES[:width]
    columns = [
        {"accuracy": "accuracy", "fpga_throughput": "fpga_outputs_per_second"}.get(
            obj.name, "gpu_outputs_per_second"
        )
        for obj in objectives
    ]
    rows = draw(
        st.lists(
            st.fixed_dictionaries({column: _COLUMN_VALUES for column in columns}), max_size=8
        )
    )
    candidates = draw(st.integers(min_value=1, max_value=8))
    directed = np.asarray(
        draw(st.lists(_VALUES, min_size=candidates * width, max_size=candidates * width)),
        dtype=np.float64,
    ).reshape(candidates, width)
    return objectives, directed, rows


class TestScreenParetoBonus:
    @SETTINGS
    @given(inputs=_screen_inputs())
    def test_equals_the_per_candidate_loop(self, inputs):
        objectives, directed, rows = inputs
        screener = OffspringScreener(objectives, SurrogateConfig())
        bonus = screener._pareto_bonus(directed, rows)
        expected = _legacy_pareto_bonus(objectives, directed, rows)
        assert bonus.dtype == expected.dtype
        assert bonus.tolist() == expected.tolist()
