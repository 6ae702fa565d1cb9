"""Pareto-dominance utilities for multi-objective co-design results.

Section III-B: *"the Pareto frontiers that result after parsing the
evolutionary design space define what the optimal solution is ... Having the
data to make decisions based on trade-offs is highly valuable."*  Table IV of
the paper reports, per dataset, two points from the accuracy-vs-throughput
Pareto frontier.  This module provides frontier extraction, NSGA-II
ranking and the "best trade-off rows" selection that the table uses.

Pareto dominance is computed in one place: the array kernel behind
:func:`dominated_by` (which rows of one set some row of another dominates)
and :func:`constrained_fronts` (NSGA-II's non-dominated fronts under
constrained dominance).  The frontier extraction here, the streaming
:class:`~repro.core.frontier.FrontierArchive`, NSGA-II scoring and
selection (through :func:`nsga2_ranking`) and the surrogate screen's Pareto
bonus all call it.  The scalar definition it must agree with is
:meth:`repro.core.objectives.ObjectiveVector.dominates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ParetoPoint",
    "dominated_by",
    "constrained_fronts",
    "nsga2_ranking",
    "pareto_frontier",
    "pareto_frontier_indices",
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


#: Elements per pairwise-comparison block in :func:`dominated_by`.
_PAIRWISE_BLOCK = 1 << 22


def _dominance(points: np.ndarray, by: np.ndarray) -> np.ndarray:
    """``[i, j]`` is True when ``by[j]`` Pareto-dominates ``points[i]``.

    Both arrays are ``(rows, objectives)`` in maximization form.  Every
    comparison with NaN is false, so a row holding a NaN neither dominates
    nor is dominated.
    """
    ahead = by[None, :, :]
    behind = points[:, None, :]
    return (ahead >= behind).all(axis=2) & (ahead > behind).any(axis=2)


def dominated_by(points: Sequence[Sequence[float]], by: Sequence[Sequence[float]]) -> np.ndarray:
    """Which ``points`` some row of ``by`` Pareto-dominates (maximization).

    Parameters
    ----------
    points, by:
        ``(rows, objectives)`` arrays (or nested sequences) of equal width,
        every objective in maximization form.

    Returns
    -------
    numpy.ndarray
        One bool per row of ``points``: True when at least one row of
        ``by`` is at least as good in every objective and strictly better
        in one.  Any comparison with NaN is false.  ``points`` is compared
        in blocks of rows, so memory stays within ``_PAIRWISE_BLOCK``
        elements whatever the sizes.

    Raises
    ------
    ValueError
        When the two sets have different numbers of objectives.
    """
    points = np.asarray(points, dtype=float)
    by = np.asarray(by, dtype=float)
    if points.shape[1] != by.shape[1]:
        raise ValueError(f"cannot compare {points.shape[1]} objectives with {by.shape[1]}")
    step = max(1, _PAIRWISE_BLOCK // max(by.size, 1))
    if len(points) <= step:
        return _dominance(points, by).any(axis=1)
    dominated = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), step):
        dominated[start : start + step] = _dominance(points[start : start + step], by).any(axis=1)
    return dominated


def constrained_fronts(
    canonical: Sequence[Sequence[float]],
    feasible: Sequence[bool],
    violation: Sequence[float],
) -> list[list[int]]:
    """NSGA-II non-dominated fronts under constrained dominance (Deb et al. 2002).

    A feasible member dominates every infeasible one; of two infeasible
    members the smaller ``violation`` dominates; two feasible members
    compare by Pareto dominance of their ``canonical`` (maximization-form)
    rows, where any comparison with NaN is false.

    Parameters
    ----------
    canonical:
        ``(members, objectives)`` values in maximization form.
    feasible, violation:
        Per-member feasibility and total constraint violation.

    Returns
    -------
    list[list[int]]
        Member indices by front: front 0 is the frontier of the whole set,
        front 1 the frontier of the rest, and so on.  The order within each
        front is that of Deb's fast non-dominated sort, which downstream
        crowding ties depend on: front 0 in index order, and each later
        member by the position of its last dominator in the previous front,
        then by index.
    """
    count = len(feasible)
    if count == 0:
        return []
    feasible = np.asarray(feasible, dtype=bool)
    violation = np.asarray(violation, dtype=float)
    matrix = np.asarray(canonical, dtype=float).reshape(count, -1)
    # beats[i, j]: member i dominates member j.
    beats = np.where(
        feasible[:, None] == feasible[None, :],
        np.where(
            feasible[:, None],
            _dominance(matrix, matrix).T,
            violation[:, None] < violation[None, :],
        ),
        feasible[:, None],
    )
    remaining = beats.sum(axis=0)
    front = np.flatnonzero(remaining == 0)
    fronts: list[list[int]] = []
    while front.size:
        fronts.append(front.tolist())
        beaten = beats[front]
        remaining -= beaten.sum(axis=0)
        released = np.flatnonzero((remaining == 0) & beaten.any(axis=0))
        # Deb's loop appends a member when its last dominator in this front
        # releases it, scanning each dominator's victims in index order.
        # ``released`` is in index order, so a stable sort breaks ties by index.
        last = len(front) - 1 - beaten[::-1, released].argmax(axis=0)
        front = released[np.argsort(last, kind="stable")]
    return fronts


def nsga2_ranking(vectors: Sequence) -> tuple[list[list[int]], list[float]]:
    """NSGA-II fronts and per-member crowding distance of objective vectors.

    Parameters
    ----------
    vectors:
        :class:`~repro.core.objectives.ObjectiveVector`-shaped objects
        (``canonical``, ``feasible``, ``violation``).

    Returns
    -------
    tuple[list[list[int]], list[float]]
        :func:`constrained_fronts` of the vectors, and each member's
        :func:`crowding_distances` value within its own front, aligned
        with ``vectors``.
    """
    canonical = [vector.canonical for vector in vectors]
    fronts = constrained_fronts(
        canonical,
        [vector.feasible for vector in vectors],
        [vector.violation for vector in vectors],
    )
    crowding = [0.0] * len(vectors)
    for front in fronts:
        for index, distance in zip(front, crowding_distances([canonical[i] for i in front])):
            crowding[index] = distance
    return fronts, crowding


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
        dominated (see :func:`dominated_by`).

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
    # Equal points share one verdict, so only distinct points are compared
    # (sorted, which also makes the comparison faster).
    distinct, group = np.unique(matrix, axis=0, return_inverse=True)
    return np.flatnonzero(~dominated_by(distinct, distinct)[group.reshape(-1)]).tolist()


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
