"""Pareto-dominance utilities for multi-objective co-design results.

Section III-B: *"the Pareto frontiers that result after parsing the
evolutionary design space define what the optimal solution is ... Having the
data to make decisions based on trade-offs is highly valuable."*  Table IV of
the paper reports, per dataset, two points from the accuracy-vs-throughput
Pareto frontier.  This module provides dominance tests, frontier extraction
and the "best trade-off rows" selection that the table uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ParetoPoint",
    "dominates",
    "pareto_frontier",
    "pareto_frontier_indices",
    "fast_non_dominated_sort",
    "crowding_distances",
    "hypervolume_2d",
    "evaluation_frontier",
    "knee_point",
    "top_tradeoff_points",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate's objective vector plus an arbitrary payload.

    Attributes
    ----------
    values:
        Objective values, all expressed in *maximization* form (callers negate
        minimized objectives before building points).
    payload:
        The underlying object (typically a ``CandidateEvaluation``).
    """

    values: tuple[float, ...]
    payload: object = None

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("a Pareto point needs at least one objective value")
        object.__setattr__(self, "values", values)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance between two plain objective vectors (maximization).

    Parameters
    ----------
    a, b:
        Objective vectors of equal length, every objective expressed in
        maximization form (negate minimized objectives first).

    Returns
    -------
    bool
        True when ``a`` is at least as good as ``b`` in every objective and
        strictly better in at least one.

    Raises
    ------
    ValueError
        When the vectors have different lengths.
    """
    a = tuple(float(x) for x in a)
    b = tuple(float(x) for x in b)
    if len(a) != len(b):
        raise ValueError(f"objective vectors have different lengths: {len(a)} vs {len(b)}")
    at_least_as_good = all(x >= y for x, y in zip(a, b))
    strictly_better = any(x > y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


#: Elements per pairwise-comparison block in :func:`pareto_frontier_indices`.
_PAIRWISE_BLOCK = 1 << 22


def pareto_frontier_indices(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated points (maximization in every objective).

    Parameters
    ----------
    points:
        Objective vectors, all in maximization form.

    Returns
    -------
    list[int]
        Indices into ``points`` of the non-dominated members, in input
        order.  Duplicates of a frontier point are all kept (none dominates
        the other), and a point with a NaN value neither dominates nor is
        dominated (every comparison with NaN is false, as in
        :func:`dominates`).

    Raises
    ------
    ValueError
        When the vectors have different lengths.
    """
    rows = [[float(v) for v in point] for point in points]
    if not rows:
        return []
    if len({len(row) for row in rows}) > 1:
        raise ValueError("objective vectors have different lengths")
    matrix = np.asarray(rows, dtype=float).reshape(len(rows), len(rows[0]))
    # Rows with a NaN take part in no dominance.  The rest are compared as
    # distinct points only: equal points share one verdict.
    comparable = ~np.isnan(matrix).any(axis=1)
    distinct, group = np.unique(matrix[comparable], axis=0, return_inverse=True)
    dominated = np.zeros(len(distinct), dtype=bool)
    # All pairs at once, in row blocks so memory stays bounded:
    # block[i, j] compares candidate i against every distinct point j.
    step = max(1, _PAIRWISE_BLOCK // max(distinct.size, 1))
    for start in range(0, len(distinct), step):
        block = distinct[start : start + step, None, :]
        at_least_as_good = (distinct[None, :, :] >= block).all(axis=2)
        strictly_better = (distinct[None, :, :] > block).any(axis=2)
        dominated[start : start + step] = (at_least_as_good & strictly_better).any(axis=1)
    keep = np.ones(len(rows), dtype=bool)
    keep[comparable] = ~dominated[group.reshape(-1)]
    return np.flatnonzero(keep).tolist()


def pareto_frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset of ``points``.

    Parameters
    ----------
    points:
        Candidate points (values in maximization form).

    Returns
    -------
    list[ParetoPoint]
        The Pareto frontier, sorted by the first objective, best first.
    """
    indices = pareto_frontier_indices([point.values for point in points])
    frontier = [points[i] for i in indices]
    return sorted(frontier, key=lambda point: point.values[0], reverse=True)


def fast_non_dominated_sort(
    items: Sequence, dominates_fn: Callable[[object, object], bool] | None = None
) -> list[list[int]]:
    """NSGA-II fast non-dominated sorting (Deb et al. 2002).

    Partitions ``items`` into successive non-dominated fronts and returns
    them as lists of indices: front 0 is the Pareto frontier of the whole
    set, front 1 the frontier of the remainder, and so on.

    Parameters
    ----------
    items:
        Objective vectors.  By default plain sequences of floats in
        maximization form compared with :func:`dominates`; pass
        ``dominates_fn`` to sort richer objects (e.g.
        ``ObjectiveVector.dominates`` for constrained dominance).
    dominates_fn:
        Binary predicate ``dominates_fn(a, b)`` — True when ``a`` dominates
        ``b``.
    """
    compare = dominates_fn or dominates
    count = len(items)
    dominated_by: list[list[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    fronts: list[list[int]] = [[]]
    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            if compare(items[i], items[j]):
                dominated_by[i].append(j)
            elif compare(items[j], items[i]):
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: list[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    return [front for front in fronts if front]


def crowding_distances(values: Sequence[Sequence[float]]) -> list[float]:
    """NSGA-II crowding distance of every point within one front.

    Boundary points (extreme in any objective) get infinite distance so they
    are always preferred; interior points get the normalized perimeter of
    the cuboid spanned by their neighbours.

    Parameters
    ----------
    values:
        Objective vectors of one front.  Maximization-form (or any
        consistently ordered) values; direction does not matter because the
        measure is symmetric.

    Returns
    -------
    list[float]
        Crowding distance per point, aligned with ``values``; larger means
        lonelier (preferred for diversity).
    """
    count = len(values)
    if count == 0:
        return []
    if count <= 2:
        return [float("inf")] * count
    matrix = np.asarray([[float(v) for v in row] for row in values], dtype=float)
    distances = np.zeros(count, dtype=float)
    for column in range(matrix.shape[1]):
        order = np.argsort(matrix[:, column], kind="stable")
        low = matrix[order[0], column]
        high = matrix[order[-1], column]
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        span = high - low
        if span < 1e-12:
            continue
        for position in range(1, count - 1):
            index = order[position]
            if np.isinf(distances[index]):
                continue
            gap = matrix[order[position + 1], column] - matrix[order[position - 1], column]
            distances[index] += gap / span
    return [float(d) for d in distances]


def hypervolume_2d(
    points: Sequence[Sequence[float]], reference: Sequence[float] = (0.0, 0.0)
) -> float:
    """Hypervolume (area) dominated by a 2-D point set, maximization form.

    The standard frontier-quality indicator: the area between the Pareto
    frontier of ``points`` and the ``reference`` point (which should be
    dominated by every point; contributions below it are clipped to zero).
    Used by the benchmark harness to compare NSGA-II and weighted-sum
    searches at equal evaluation budgets.

    Parameters
    ----------
    points:
        2-D objective vectors in maximization form; non-finite points are
        ignored.
    reference:
        The reference corner the dominated area is measured against.

    Returns
    -------
    float
        The dominated area (0 when no finite point remains).
    """
    ref_x, ref_y = float(reference[0]), float(reference[1])
    clipped = [
        (max(float(x), ref_x), max(float(y), ref_y))
        for x, y in points
        if np.isfinite(float(x)) and np.isfinite(float(y))
    ]
    if not clipped:
        return 0.0
    frontier = sorted(
        (clipped[i] for i in pareto_frontier_indices(clipped)),
        key=lambda p: p[0],
        reverse=True,
    )
    area = 0.0
    previous_y = ref_y
    for x, y in frontier:
        area += (x - ref_x) * (y - previous_y)
        previous_y = max(previous_y, y)
    return float(area)


def evaluation_frontier(evaluations: Sequence, device: str = "fpga") -> list:
    """The canonical accuracy-vs-throughput Pareto frontier of evaluations.

    Single source of truth used by ``SearchResult``, the analysis layer and
    the reports: failed evaluations are dropped, the objective vector is
    ``(accuracy, outputs/s)`` for the chosen device, and the frontier is
    returned best-accuracy first.

    Parameters
    ----------
    evaluations:
        Any sequence of
        :class:`~repro.core.candidate.CandidateEvaluation`-shaped objects.
    device:
        ``"fpga"`` or ``"gpu"`` — which throughput axis to use.

    Returns
    -------
    list
        The non-dominated evaluations, best accuracy first.

    Raises
    ------
    ValueError
        For an unknown ``device``.
    """
    if device not in ("fpga", "gpu"):
        raise ValueError(f"device must be 'fpga' or 'gpu', got {device!r}")
    valid = [e for e in evaluations if not e.failed]
    if not valid:
        return []
    points = [
        ParetoPoint(
            values=(
                e.accuracy,
                e.fpga_outputs_per_second if device == "fpga" else e.gpu_outputs_per_second,
            ),
            payload=e,
        )
        for e in valid
    ]
    return [point.payload for point in pareto_frontier(points)]


def knee_point(frontier: Sequence[ParetoPoint]) -> ParetoPoint:
    """The frontier point with the best balanced trade-off.

    Objectives are min-max normalized over the frontier; the knee is the point
    maximizing the minimum normalized objective (the most "balanced" point).
    Useful as a single-answer summary of a two-objective frontier.

    Parameters
    ----------
    frontier:
        A non-empty Pareto frontier.

    Returns
    -------
    ParetoPoint
        The most balanced frontier member.

    Raises
    ------
    ValueError
        When ``frontier`` is empty.
    """
    if not frontier:
        raise ValueError("frontier must not be empty")
    matrix = np.asarray([point.values for point in frontier], dtype=float)
    lows = matrix.min(axis=0)
    highs = matrix.max(axis=0)
    spans = np.where(highs - lows > 1e-12, highs - lows, 1.0)
    normalized = (matrix - lows) / spans
    scores = normalized.min(axis=1)
    return frontier[int(np.argmax(scores))]


def top_tradeoff_points(
    frontier: Sequence[ParetoPoint],
    count: int = 2,
    primary: int = 0,
) -> list[ParetoPoint]:
    """Pick ``count`` representative rows from a frontier, Table-IV style.

    The first selected point is the one with the best primary objective
    (accuracy in the paper's usage); subsequent points are the remaining
    frontier entries with the best *other* objectives, i.e. the "sacrifice a
    little accuracy for a big throughput win" rows.

    Parameters
    ----------
    frontier:
        A Pareto frontier (already non-dominated).
    count:
        Number of rows to return (fewer if the frontier is smaller).
    primary:
        Index of the primary objective inside ``values``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not frontier:
        return []
    remaining = list(frontier)
    remaining.sort(key=lambda point: point.values[primary], reverse=True)
    selected = [remaining.pop(0)]
    secondary_indices = [i for i in range(len(selected[0].values)) if i != primary]
    while remaining and len(selected) < count:
        if secondary_indices:
            remaining.sort(
                key=lambda point: tuple(point.values[i] for i in secondary_indices),
                reverse=True,
            )
        selected.append(remaining.pop(0))
    return selected


def make_points(
    items: Sequence[object],
    *extractors: Callable[[object], float],
) -> list[ParetoPoint]:
    """Build Pareto points from arbitrary objects and value extractors.

    Parameters
    ----------
    items:
        Payload objects (evaluations, frontier members, rows, ...).
    *extractors:
        One callable per objective, each mapping an item to a float in
        maximization form.

    Returns
    -------
    list[ParetoPoint]
        One point per item, values in extractor order, payload attached.
    """
    if not extractors:
        raise ValueError("at least one extractor is required")
    return [
        ParetoPoint(values=tuple(extract(item) for extract in extractors), payload=item)
        for item in items
    ]


__all__.append("make_points")
