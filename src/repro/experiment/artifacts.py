"""Structured results of experiment runs.

:class:`RunArtifact` is the durable record of one grid cell — what the
search found, how long it took, and whether it succeeded — written to disk
as soon as the cell finishes so a partially-completed grid can be resumed.
:class:`ExperimentReport` aggregates the artifacts of a whole grid and
exports them as JSON and as a flat CSV, the same table format the benchmark
harness writes to ``benchmarks/out``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.reporting import format_table, save_rows_csv
from ..core.errors import ConfigurationError
from .spec import ExperimentSpec, RunCell

__all__ = ["RunArtifact", "ExperimentReport"]

#: Column order of the aggregate CSV export.
REPORT_COLUMNS = (
    "run_id",
    "dataset",
    "objective",
    "seed",
    "status",
    "best_accuracy",
    "fpga_outputs_per_second",
    "gpu_outputs_per_second",
    "hidden_layers",
    "models_generated",
    "models_evaluated",
    "store_hits",
    "frontier_size",
    "wall_clock_seconds",
    "error",
)


@dataclass
class RunArtifact:
    """Everything worth keeping from one grid cell.

    Attributes
    ----------
    run_id / dataset / objective / seed:
        The cell coordinates (see :class:`~repro.experiment.spec.RunCell`).
    status:
        ``"completed"`` or ``"failed"``; resume re-runs failed cells.
    best_accuracy:
        Highest accuracy any evaluated candidate reached.
    best_candidate:
        Flat summary of the best-accuracy candidate
        (:meth:`~repro.core.candidate.CandidateEvaluation.summary`).
    pareto:
        Representative accuracy-vs-throughput frontier rows (Table IV style).
    frontier:
        The full streamed Pareto frontier over the run's *configured*
        objectives: per-member objective values plus candidate summary, as
        maintained by the engine's
        :class:`~repro.core.frontier.FrontierArchive` during the run.
    snapshots:
        Frontier-change timeline: one dict per
        :class:`~repro.core.frontier.FrontierSnapshot` (``step``, ``size``,
        ``evaluations_seen``, ``best_accuracy``); arena leaderboards derive
        evals-to-target from it.
    statistics:
        Run-time statistics dict (Table III style).
    wall_clock_seconds:
        End-to-end cell time, including dataset generation.
    error:
        Failure description when ``status == "failed"``.
    cell_digest:
        Digest of the per-run spec settings this artifact was produced
        under; resume discards artifacts whose digest no longer matches.
    """

    run_id: str
    dataset: str
    objective: str
    seed: int
    status: str = "completed"
    best_accuracy: float = 0.0
    best_candidate: dict = field(default_factory=dict)
    pareto: list = field(default_factory=list)
    frontier: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    statistics: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    error: str = ""
    cell_digest: str = ""

    @property
    def completed(self) -> bool:
        """Whether this cell finished successfully."""
        return self.status == "completed"

    @classmethod
    def from_result(
        cls,
        cell: RunCell,
        result,
        wall_clock_seconds: float,
        cell_digest: str = "",
        pareto_rows: int = 4,
    ) -> "RunArtifact":
        """Build the artifact of a successful cell from its ``SearchResult``."""
        return cls(
            run_id=cell.run_id,
            dataset=cell.dataset,
            objective=cell.objective,
            seed=cell.seed,
            status="completed",
            best_accuracy=float(result.best_accuracy),
            best_candidate=result.best_accuracy_candidate.summary(),
            pareto=[candidate.summary() for candidate in result.pareto_rows(count=pareto_rows)],
            frontier=(
                result.frontier_archive.rows() if result.frontier_archive is not None else []
            ),
            snapshots=(
                [
                    {
                        "step": snapshot.step,
                        "size": snapshot.size,
                        "evaluations_seen": snapshot.evaluations_seen,
                        "best_accuracy": snapshot.best_accuracy,
                    }
                    for snapshot in result.frontier_archive.snapshots
                ]
                if result.frontier_archive is not None
                else []
            ),
            statistics=result.statistics.to_dict(),
            wall_clock_seconds=float(wall_clock_seconds),
            cell_digest=cell_digest,
        )

    @classmethod
    def from_failure(
        cls, cell: RunCell, error: str, wall_clock_seconds: float, cell_digest: str = ""
    ) -> "RunArtifact":
        """Build the artifact of a failed cell."""
        return cls(
            run_id=cell.run_id,
            dataset=cell.dataset,
            objective=cell.objective,
            seed=cell.seed,
            status="failed",
            error=str(error),
            wall_clock_seconds=float(wall_clock_seconds),
            cell_digest=cell_digest,
        )

    # ------------------------------------------------------------ reporting
    def row(self) -> dict:
        """Flat dictionary — one line of the aggregate CSV/table."""
        return {
            "run_id": self.run_id,
            "dataset": self.dataset,
            "objective": self.objective,
            "seed": self.seed,
            "status": self.status,
            "best_accuracy": self.best_accuracy,
            "fpga_outputs_per_second": self.best_candidate.get("fpga_outputs_per_second", 0.0),
            "gpu_outputs_per_second": self.best_candidate.get("gpu_outputs_per_second", 0.0),
            "hidden_layers": "x".join(
                str(h) for h in self.best_candidate.get("hidden_layers", [])
            ),
            "models_generated": self.statistics.get("models_generated", 0),
            "models_evaluated": self.statistics.get("models_evaluated", 0),
            "store_hits": self.statistics.get("store_hits", 0),
            "frontier_size": self.statistics.get("frontier_size", len(self.frontier)),
            "wall_clock_seconds": self.wall_clock_seconds,
            "error": self.error,
        }

    # ----------------------------------------------------------------- JSON
    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "dataset": self.dataset,
            "objective": self.objective,
            "seed": self.seed,
            "status": self.status,
            "best_accuracy": self.best_accuracy,
            "best_candidate": dict(self.best_candidate),
            "pareto": [dict(row) for row in self.pareto],
            "frontier": [dict(row) for row in self.frontier],
            "snapshots": [dict(row) for row in self.snapshots],
            "statistics": dict(self.statistics),
            "wall_clock_seconds": self.wall_clock_seconds,
            "error": self.error,
            "cell_digest": self.cell_digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifact":
        try:
            return cls(
                run_id=str(data["run_id"]),
                dataset=str(data["dataset"]),
                objective=str(data["objective"]),
                seed=int(data["seed"]),
                status=str(data.get("status", "completed")),
                best_accuracy=float(data.get("best_accuracy", 0.0)),
                best_candidate=dict(data.get("best_candidate", {})),
                pareto=list(data.get("pareto", [])),
                frontier=list(data.get("frontier", [])),
                snapshots=list(data.get("snapshots", [])),
                statistics=dict(data.get("statistics", {})),
                wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
                error=str(data.get("error", "")),
                cell_digest=str(data.get("cell_digest", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed run artifact: {exc}") from exc

    def save(self, path: str | Path) -> None:
        """Write the artifact to a JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "RunArtifact":
        """Read an artifact from a JSON file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read run artifact {path}: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class ExperimentReport:
    """Aggregate of every cell artifact of one experiment grid."""

    spec: ExperimentSpec
    artifacts: list[RunArtifact] = field(default_factory=list)

    @property
    def completed(self) -> list[RunArtifact]:
        """Artifacts of successfully finished cells."""
        return [artifact for artifact in self.artifacts if artifact.completed]

    @property
    def failed(self) -> list[RunArtifact]:
        """Artifacts of failed cells."""
        return [artifact for artifact in self.artifacts if not artifact.completed]

    def rows(self) -> list[dict]:
        """One flat row per artifact, in grid order."""
        return [artifact.row() for artifact in self.artifacts]

    def summary_table(self) -> str:
        """Aligned plain-text table of the whole grid."""
        return format_table(
            self.rows(), columns=list(REPORT_COLUMNS), title=f"Experiment {self.spec.name!r}"
        )

    def best_artifact(self) -> RunArtifact:
        """The completed cell with the highest best accuracy."""
        completed = self.completed
        if not completed:
            raise ConfigurationError("experiment produced no completed runs")
        return max(completed, key=lambda artifact: artifact.best_accuracy)

    # ----------------------------------------------------------- persistence
    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "artifacts": [artifact.to_dict() for artifact in self.artifacts],
        }

    def save(self, directory: str | Path) -> tuple[Path, Path]:
        """Write ``report.json`` and ``report.csv`` under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        json_path = directory / "report.json"
        csv_path = directory / "report.csv"
        json_path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        save_rows_csv(self.rows(), csv_path, columns=list(REPORT_COLUMNS))
        return json_path, csv_path
