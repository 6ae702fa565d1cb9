"""Streaming Pareto-frontier archive, updated while the search runs.

Section III-B: *"the Pareto frontiers that result after parsing the
evolutionary design space define what the optimal solution is ... Having the
data to make decisions based on trade-offs is highly valuable."*  Instead of
re-deriving the frontier from the full history after the run,
:class:`FrontierArchive` rides the engine's callback bus (whatever the
evaluation window) and maintains the non-dominated set incrementally:
every evaluation either joins the frontier (evicting the members it
dominates) or is discarded, and each change is recorded as a
:class:`FrontierSnapshot` so the frontier's growth over the run can be
reported.  Its final state is exactly the Pareto frontier of the run's
unique successful evaluations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .callbacks import Callback
from .candidate import CandidateEvaluation
from .fitness import FitnessResult
from .objectives import (
    Constraint,
    ObjectiveSpec,
    ObjectiveVector,
    build_objective_vector,
    resolve_constraints,
)
from .pareto import dominated_by

__all__ = ["FrontierSnapshot", "FrontierMember", "FrontierArchive"]


@dataclass(frozen=True)
class FrontierSnapshot:
    """One frontier change: when it happened and how big the frontier was.

    ``best_accuracy`` is the running maximum accuracy over every feasible,
    successful evaluation seen so far (not just frontier members); arena
    leaderboards derive evals-to-target from it.
    """

    step: int
    size: int
    evaluations_seen: int
    best_accuracy: float = 0.0


@dataclass(frozen=True)
class FrontierMember:
    """One archived candidate: its evaluation plus its objective vector."""

    evaluation: CandidateEvaluation
    vector: ObjectiveVector


class FrontierArchive(Callback):
    """Maintains the running Pareto frontier over configured objectives.

    Parameters
    ----------
    objectives:
        Objective specs defining the frontier's axes (order matters for
        reporting; the first objective is the primary sort key).
    constraints:
        Feasibility constraints; infeasible candidates never enter the
        archive.

    The archive is an engine :class:`~repro.core.callbacks.Callback`: the
    engine feeds it through ``on_evaluation`` as each evaluation lands, so
    the frontier is live *during* the run.  It can also be fed directly via :meth:`observe`.  Updates are lock-protected, and duplicate genomes
    (cache hits re-entering the history) are ignored so the final state
    matches post-hoc extraction over the run's unique evaluations.
    """

    def __init__(
        self,
        objectives: Sequence[ObjectiveSpec],
        constraints: Sequence[Constraint | str] = (),
    ) -> None:
        if not objectives:
            raise ValueError("a frontier archive needs at least one objective")
        self.objectives = list(objectives)
        self.constraints = resolve_constraints(constraints)
        self.snapshots: list[FrontierSnapshot] = []
        self.updates = 0
        self.evaluations_seen = 0
        self._best_accuracy = 0.0
        self._names = tuple(spec.name for spec in self.objectives)
        self._members: dict[str, FrontierMember] = {}
        # Members grouped by distinct canonical (maximization-form) vector;
        # ``_matrix`` holds one row per group, in ``_points`` order, so a
        # dominance check costs one array operation over distinct points.
        self._points: dict[tuple[float, ...], list[str]] = {}
        self._matrix = np.empty((0, len(self._names)))
        self._lock = threading.Lock()

    # ------------------------------------------------------------- callback
    def on_evaluation(
        self, evaluation: CandidateEvaluation, fitness: FitnessResult, step: int
    ) -> None:
        """Engine callback: offer each scored evaluation to the archive.

        Parameters
        ----------
        evaluation:
            The candidate that just finished evaluating.
        fitness:
            Its fitness result; the attached objective vector is reused when
            it was scored under the archive's own objectives, otherwise the
            vector is rebuilt from the evaluation.
        step:
            The engine step the evaluation landed on (recorded in
            snapshots).
        """
        self.observe(evaluation, step=step, vector=fitness.vector if fitness is not None else None)

    # -------------------------------------------------------------- updates
    def observe(
        self,
        evaluation: CandidateEvaluation,
        step: int = 0,
        vector: ObjectiveVector | None = None,
    ) -> bool:
        """Offer one evaluation to the archive.

        Parameters
        ----------
        evaluation:
            The candidate to consider.  Failed, infeasible and duplicate
            candidates never enter the archive.
        step:
            Search step recorded in the snapshot when the frontier changes.
        vector:
            Pre-computed objective vector; when ``None`` (or computed under
            different objectives) one is built from the evaluation.

        Returns
        -------
        bool
            True when the frontier changed (the candidate joined it,
            possibly evicting dominated members).
        """
        with self._lock:
            self.evaluations_seen += 1
            if evaluation.failed:
                return False
            if vector is None or vector.names != self._names:
                vector = build_objective_vector(evaluation, self.objectives, self.constraints)
            if not vector.feasible:
                return False
            accuracy = float(getattr(evaluation, "accuracy", 0.0) or 0.0)
            if accuracy > self._best_accuracy:
                self._best_accuracy = accuracy
            key = evaluation.genome.cache_key()
            if key in self._members:
                return False
            point = vector.canonical
            group = self._points.get(point)
            if group is None:
                # A point equal to a member's is neither dominated nor
                # dominating, so only a new distinct point is compared.
                # Feasible vectors only: constrained dominance is plain
                # Pareto dominance on the canonical values.
                row = np.asarray([point], dtype=float)
                matrix = self._matrix
                if dominated_by(row, matrix)[0]:
                    return False
                dominated = dominated_by(matrix, row)
                if dominated.any():
                    points = list(self._points)
                    for index in np.flatnonzero(dominated):
                        for stale in self._points.pop(points[index]):
                            del self._members[stale]
                    matrix = matrix[~dominated]
                self._points[point] = group = []
                self._matrix = np.vstack([matrix, row])
            group.append(key)
            self._members[key] = FrontierMember(evaluation=evaluation, vector=vector)
            self.updates += 1
            self.snapshots.append(
                FrontierSnapshot(
                    step=int(step),
                    size=len(self._members),
                    evaluations_seen=self.evaluations_seen,
                    best_accuracy=self._best_accuracy,
                )
            )
            return True

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    @property
    def best_accuracy(self) -> float:
        """Best accuracy over every feasible, successful evaluation seen."""
        with self._lock:
            return self._best_accuracy

    @property
    def objective_names(self) -> list[str]:
        """Names of the frontier's objectives, in order."""
        return [spec.name for spec in self.objectives]

    def members(self) -> list[FrontierMember]:
        """Current frontier members.

        Returns
        -------
        list[FrontierMember]
            Mutually non-dominated members, sorted by the first objective's
            canonical (maximization-form) value, best first.
        """
        with self._lock:
            members = list(self._members.values())
        return sorted(members, key=lambda m: m.vector.canonical[0], reverse=True)

    def frontier(self) -> list[CandidateEvaluation]:
        """Frontier evaluations, same order as :meth:`members`."""
        return [member.evaluation for member in self.members()]

    def vectors(self) -> list[ObjectiveVector]:
        """Frontier objective vectors, same order as :meth:`members`."""
        return [member.vector for member in self.members()]

    def rows(self) -> list[dict]:
        """Flat report rows (JSON/CSV friendly).

        Returns
        -------
        list[dict]
            One row per frontier member: the raw objective values merged
            with the candidate summary
            (:meth:`~repro.core.candidate.CandidateEvaluation.summary`).
        """
        rows = []
        for member in self.members():
            row = dict(member.vector.as_dict())
            row.update(member.evaluation.summary())
            rows.append(row)
        return rows
