"""Worker protocol and shared request/report types.

Section III-B of the paper describes three kinds of workers the evolutionary
engine can query:

* the **simulation worker** for instruction-set architectures (CPU/GPU) — it
  also performs the network training that produces accuracy,
* the **hardware database worker** for modeled FPGA overlays, and
* the **physical worker** for synthesis-level metrics (ALM/M20K/DSP, Fmax,
  power).

All workers implement the same small protocol: ``evaluate(request) ->
WorkerReport``.  Requests carry the genome plus the dataset/evaluation context
so workers stay stateless with respect to the search and can be distributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..core.genome import CoDesignGenome
from ..datasets.base import Dataset
from ..nn.training import TrainingConfig
from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.shared import SharedDatasetHandle

__all__ = [
    "EvaluationRequest",
    "WorkerReport",
    "Worker",
    "WORKER_TYPES",
    "register_worker",
    "available_workers",
    "resolve_worker",
]


@dataclass(frozen=True)
class EvaluationRequest:
    """One unit of work handed to a worker.

    Attributes
    ----------
    genome:
        The co-design candidate to evaluate.
    dataset:
        The dataset the candidate's network is trained/evaluated on.  Workers
        that do not need data (hardware database, physical) ignore it.
    evaluation_protocol:
        ``"1-fold"`` or ``"10-fold"``, matching the paper's two protocols.
    num_folds:
        Fold count for the 10-fold protocol.
    training_config:
        Hyperparameters of the per-candidate training loop.
    seed:
        Seed controlling training and fold shuffling, for reproducibility.
    """

    genome: CoDesignGenome
    dataset: Dataset | None = None
    evaluation_protocol: str = "1-fold"
    num_folds: int = 10
    training_config: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int | None = None
    shared_dataset: "SharedDatasetHandle | None" = None

    def __post_init__(self) -> None:
        if self.evaluation_protocol not in ("1-fold", "10-fold"):
            raise ValueError(
                f"evaluation_protocol must be '1-fold' or '10-fold', got {self.evaluation_protocol!r}"
            )
        if self.num_folds < 2:
            raise ValueError(f"num_folds must be >= 2, got {self.num_folds}")

    def materialize(self) -> "EvaluationRequest":
        """Resolve the shared-memory dataset handle, if any, into a dataset.

        With the processes backend the master ships a tiny
        :class:`~repro.datasets.shared.SharedDatasetHandle` instead of the
        arrays; the receiving process attaches (memoized per process) before
        the workers run.  Requests without a handle pass through unchanged.
        """
        if self.dataset is not None or self.shared_dataset is None:
            return self
        from ..datasets.shared import attach_shared_dataset

        return replace(self, dataset=attach_shared_dataset(self.shared_dataset), shared_dataset=None)


@dataclass
class WorkerReport:
    """The raw measurements one worker produced for one request.

    Only the fields a given worker knows about are populated; the master
    merges reports from all workers into a single
    :class:`~repro.core.candidate.CandidateEvaluation`.
    """

    worker_name: str
    accuracy: float | None = None
    accuracy_std: float | None = None
    parameter_count: int | None = None
    train_seconds: float = 0.0
    fpga_metrics: object | None = None
    gpu_metrics: object | None = None
    synthesis: object | None = None
    error: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether this worker failed on the request."""
        return bool(self.error)


class Worker:
    """Base class for all workers."""

    #: Stable identifier used in reports and diagnostics.
    name: str = "worker"

    def evaluate(self, request: EvaluationRequest) -> WorkerReport:
        """Evaluate one request and return the raw measurements."""
        raise NotImplementedError

    def evaluate_batch(self, requests: list[EvaluationRequest]) -> list[WorkerReport]:
        """Evaluate many requests, one report per request, in input order.

        The default simply loops :meth:`evaluate`; workers that can amortize
        work across a population (fused training) override this.  Overrides must return results identical to the looped
        default for the same requests.
        """
        return [self.evaluate(request) for request in requests]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Registry of worker classes, keyed by stable type name.  The paper's three
#: worker types register themselves on import; plugins may add (or override)
#: types so the search front-end builds them by name.
WORKER_TYPES: Registry[type] = Registry("worker type")

register_worker = WORKER_TYPES.register


def available_workers() -> list[str]:
    """Canonical names of all registered worker types."""
    return WORKER_TYPES.available()


def resolve_worker(name: str) -> type:
    """Look up a worker class by registered type name."""
    return WORKER_TYPES.resolve(name)
