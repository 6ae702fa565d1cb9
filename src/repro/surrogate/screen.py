"""The offspring pre-screener: calibrated ranking by Pareto contribution.

Each steady-state step the surrogate engine breeds a *pool* of candidate
offspring and asks the screener which one deserves a real NN training.  The
screener scores every pool member with the conformal surrogate
(:mod:`repro.surrogate.model`) and ranks them by predicted Pareto
contribution:

* Per objective it takes the **optimistic end** of the conformal interval
  (upper for maximized, lower for minimized objectives).  A candidate is
  therefore only ranked low — i.e. screened out — when even an
  interval-width benefit of the doubt leaves it unattractive; that is the
  calibrated skip decision.
* Candidates whose optimistic objective vector is not dominated by any
  current population member get a flat Pareto bonus, so predicted frontier
  growth beats marginal improvements in crowded regions.

Every real evaluation flows back through :meth:`OffspringScreener.observe`
(online refit every ``refit_interval`` fresh results) and settles the
surrogate's running mean absolute error for the run statistics.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.candidate import CandidateEvaluation
from ..core.config import SurrogateConfig
from ..core.genome import CoDesignGenome
from ..core.objectives import ObjectiveSpec
from ..core.pareto import dominated_by
from .features import genome_features, row_features
from .model import SurrogateModel

__all__ = ["OffspringScreener"]


class OffspringScreener:
    """Ranks offspring pools with a conformal surrogate over store rows.

    Parameters
    ----------
    objectives:
        The run's optimization objectives (name, weight, maximize).
    config:
        The ``surrogate`` configuration section (pool size, confidence,
        refit cadence, minimum rows).
    """

    def __init__(self, objectives: list[ObjectiveSpec], config: SurrogateConfig) -> None:
        self.objectives = list(objectives)
        self.config = config
        self.model = SurrogateModel(
            [obj.name for obj in objectives], confidence=config.confidence
        )
        self._rows: dict[str, dict] = {}
        self._seeded = 0
        self._fresh_since_fit = 0
        self._predicted: dict[str, float] = {}
        self._mae_objective = (
            "accuracy"
            if any(obj.name == "accuracy" for obj in self.objectives)
            else self.objectives[0].name
        )
        self._absolute_error_sum = 0.0
        self._absolute_error_count = 0

    # ------------------------------------------------------------- feeding
    def seed(self, rows: Iterable[dict]) -> int:
        """Load stored rows (``EvaluationStore.export_rows`` shape); refit once.

        Accepts any iterable — pass
        :meth:`~repro.store.EvaluationStore.export_rows_iter` to stream a
        large store without materializing it.

        Returns the number of usable rows added.  Failed rows and duplicates
        (by genome cache key) are skipped.
        """
        added = 0
        for row in rows:
            if self._add_row(row):
                added += 1
        self._seeded += added
        if added:
            self._refit()
        return added

    def observe(self, evaluation: CandidateEvaluation) -> None:
        """Feed one real evaluation back (online refit, MAE settlement)."""
        if evaluation.failed:
            return
        row = evaluation.summary()
        key = row.get("cache_key", "")
        predicted = self._predicted.pop(key, None)
        if predicted is not None:
            actual = SurrogateModel.targets_from_row(row, self._mae_objective)
            if np.isfinite(actual):
                self._absolute_error_sum += abs(predicted - actual)
                self._absolute_error_count += 1
        if not self._add_row(row):
            return
        self._fresh_since_fit += 1
        if not self.model.ready or self._fresh_since_fit >= self.config.refit_interval:
            self._refit()

    def _add_row(self, row: dict) -> bool:
        key = str(row.get("cache_key", ""))
        if not key or row.get("error") or key in self._rows:
            return False
        self._rows[key] = dict(row)
        return True

    def _refit(self) -> None:
        self._fresh_since_fit = 0
        if not self.model.supported or len(self._rows) < self.config.min_rows:
            return
        rows = list(self._rows.values())
        features = np.stack([row_features(row) for row in rows])
        self.model.fit(features, rows)

    # ------------------------------------------------------------- queries
    @property
    def ready(self) -> bool:
        """Whether the screen should gate offspring this step.

        Readiness is gated on the *seeded* (store-provided) row count, not
        the online observations: real results made during the run refine an
        already trusted model but never bootstrap one.  This keeps the no-op
        guarantee unconditional — a run over an empty or too-small store is
        bit-identical to the base strategy for its whole duration, however
        long it runs.
        """
        return (
            self._seeded >= self.config.min_rows
            and len(self._rows) >= self.config.min_rows
            and self.model.ready
        )

    @property
    def row_count(self) -> int:
        """Distinct usable evaluations currently backing the model."""
        return len(self._rows)

    @property
    def mean_absolute_error(self) -> float:
        """Running MAE of the promoted candidates' predictions (0 until settled)."""
        if self._absolute_error_count == 0:
            return 0.0
        return self._absolute_error_sum / self._absolute_error_count

    def rank(
        self,
        genomes: list[CoDesignGenome],
        reference: list[CandidateEvaluation],
    ) -> list[int]:
        """Pool indices ordered best-first by predicted Pareto contribution.

        Parameters
        ----------
        genomes:
            The bred offspring pool.
        reference:
            The current population's evaluations; their raw objective values
            define the normalization ranges and the dominance reference for
            the Pareto bonus.

        Raises
        ------
        RuntimeError
            When called before the model is :attr:`ready`.
        """
        if not self.ready:
            raise RuntimeError("OffspringScreener.rank called before the model is ready")
        features = np.stack([genome_features(genome) for genome in genomes])
        predictions = self.model.predict(features)

        reference_rows = [e.summary() for e in reference if not e.failed]
        scores = np.zeros(len(genomes), dtype=np.float64)
        # Directed optimistic vectors (maximize-space) for the Pareto bonus.
        directed = np.zeros((len(genomes), len(self.objectives)), dtype=np.float64)
        for column, objective in enumerate(self.objectives):
            means, half_width = predictions[objective.name]
            optimistic = means + half_width if objective.maximize else means - half_width
            low, high = self._observed_range(objective.name, reference_rows)
            span = high - low
            if span < 1e-12:
                normalized = np.zeros_like(optimistic)
            elif objective.maximize:
                normalized = (optimistic - low) / span
            else:
                normalized = (high - optimistic) / span
            scores += objective.weight * normalized
            directed[:, column] = optimistic if objective.maximize else -optimistic
        scores += self._pareto_bonus(directed, reference_rows)

        order = sorted(range(len(genomes)), key=lambda i: (-scores[i], i))
        for index in order:
            means, _ = predictions[self._mae_objective]
            self._predicted[genomes[index].cache_key()] = float(means[index])
        return order

    # ------------------------------------------------------------ internals
    def _observed_range(self, objective_name: str, reference_rows: list[dict]) -> tuple[float, float]:
        """Min/max of one objective over stored rows plus the reference set."""
        values = [
            SurrogateModel.targets_from_row(row, objective_name)
            for row in list(self._rows.values()) + reference_rows
        ]
        finite = [v for v in values if np.isfinite(v)]
        if not finite:
            return 0.0, 0.0
        return min(finite), max(finite)

    def _pareto_bonus(self, directed: np.ndarray, reference_rows: list[dict]) -> np.ndarray:
        """+1 for candidates whose optimistic vector no reference point dominates."""
        reference = np.asarray(
            [
                [
                    value if objective.maximize else -value
                    for objective, value in (
                        (obj, SurrogateModel.targets_from_row(row, obj.name))
                        for obj in self.objectives
                    )
                ]
                for row in reference_rows
            ],
            dtype=np.float64,
        ).reshape(len(reference_rows), len(self.objectives))
        reference = reference[np.all(np.isfinite(reference), axis=1)]
        return np.where(dominated_by(directed, reference), 0.0, 1.0)
