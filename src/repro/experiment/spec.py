"""Declarative experiment specifications.

The paper's results are a *matrix* of searches — six datasets, two
optimization targets, several seeds and folds feeding Tables I–IV and
Figures 2–4 — yet a single :class:`~repro.core.config.ECADConfig` only
describes one run.  :class:`ExperimentSpec` is the grid in object form: a
list of dataset names × a list of objective specs × a list of seeds, plus
the shared run settings (devices, execution backend, dotted-key
configuration overrides).  Like ``ECADConfig`` it round-trips through JSON,
so a whole experiment is one declarative file executed by
:class:`~repro.experiment.runner.ExperimentRunner`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..core.config import JSONConfig, OptimizationTargetConfig
from ..core.errors import ConfigurationError
from ..core.objectives import objective_default_maximize
from ..registry import normalize_key

__all__ = [
    "RunCell",
    "ExperimentSpec",
    "split_objective_spec",
    "objective_config_from_spec",
    "objective_slug",
]


def split_objective_spec(spec: str) -> tuple[str | None, str]:
    """Split an optional ``strategy:`` prefix off one objective-grid entry.

    ``"nsga2:codesign"`` → ``("nsga2", "codesign")`` — a *frontier-mode*
    cell that runs the NSGA-II strategy; a bare ``"codesign"`` →
    ``(None, "codesign")`` and follows the spec-level default strategy.
    """
    head, separator, tail = str(spec).partition(":")
    if separator and head.strip() and tail.strip():
        return normalize_key(head), tail.strip()
    return None, str(spec)


def objective_config_from_spec(
    spec: str, constraints: tuple[str, ...] = ()
) -> OptimizationTargetConfig:
    """Build the optimization-target section for one objective-grid entry.

    ``"accuracy"`` and ``"codesign"`` map to the paper's two named searches
    (Tables I/II and Table IV respectively); any other entry is one or more
    registered objective names joined with ``+`` (e.g.
    ``"accuracy+fpga_latency"``), each following the direction declared at
    registration time (``maximize_by_default``).  A ``strategy:`` prefix
    (see :func:`split_objective_spec`) is ignored here; ``constraints`` are
    attached verbatim.
    """
    _, spec = split_objective_spec(spec)
    key = normalize_key(spec)
    if key == "accuracy":
        base = OptimizationTargetConfig.accuracy_only()
    elif key == "codesign":
        base = OptimizationTargetConfig.accuracy_and_throughput()
    else:
        names = [part for part in key.split("+") if part]
        if not names:
            raise ConfigurationError(f"objective spec {spec!r} is empty")
        base = OptimizationTargetConfig(
            objectives=tuple(
                (name, 1.0, objective_default_maximize(name)) for name in names
            )
        )
    if constraints:
        base = base.with_constraints(constraints)
    return base


def objective_slug(spec: str) -> str:
    """Filesystem-safe identifier of one objective-grid entry."""
    return normalize_key(spec).replace(":", "-").replace("+", "-")


@dataclass(frozen=True)
class RunCell:
    """One cell of the experiment grid: dataset × objective × seed.

    ``run_id`` is a stable, filesystem-safe identifier derived from the cell
    coordinates; checkpoint/resume keys per-run artifacts on it.
    """

    dataset: str
    objective: str
    seed: int
    index: int

    @property
    def run_id(self) -> str:
        return f"{normalize_key(self.dataset)}__{objective_slug(self.objective)}__s{self.seed}"

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "dataset": self.dataset,
            "objective": self.objective,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ExperimentSpec(JSONConfig):
    """A declarative grid of co-design searches.

    Attributes
    ----------
    name:
        Experiment identifier; the default output directory is derived from
        it.
    datasets:
        Registered dataset names forming the first grid axis.
    objectives:
        Objective specs forming the second axis (see
        :func:`objective_config_from_spec`).  An entry may carry a
        ``strategy:`` prefix (e.g. ``"nsga2:codesign"``) to run that cell
        under a specific search strategy — a *frontier-mode* cell.
    seeds:
        Search seeds forming the third axis.
    strategy:
        Default search strategy for cells without a ``strategy:`` prefix
        (``"evolutionary"``, ``"nsga2"`` or ``"random"``).
    constraints:
        Feasibility constraint expressions (``"dsp_usage<=512"``) applied to
        every run's optimization targets.
    scale / data_seed:
        Synthetic-dataset size scale and generation seed shared by all runs.
    fpga / gpu:
        Device-catalogue names shared by all runs.
    backend / eval_parallelism:
        Execution backend and in-flight candidate budget for each search.
    run_parallelism:
        How many whole grid cells are kept in flight at once by the runner
        (fanned through the execution-backend stack; 1 = sequential).
    store_path:
        Persistent evaluation-store file shared by every cell of the grid;
        empty disables the store.  Repeating a sweep against a warm store
        answers previously evaluated candidates without re-training them.
    warm_start:
        Seed each cell's initial population with up to this many of the best
        stored candidates for that cell's problem digest (0 disables).
    overrides:
        Dotted-key configuration overrides applied to every generated
        :class:`~repro.core.config.ECADConfig` (e.g.
        ``{"population_size": 8, "nna.max_layers": 3}``).
    output_dir:
        Default artifact directory; empty derives ``experiments/<name>``.
    """

    section = "experiment spec"

    name: str
    datasets: tuple[str, ...]
    objectives: tuple[str, ...] = ("codesign",)
    seeds: tuple[int, ...] = (0,)
    scale: float = 0.1
    data_seed: int = 0
    fpga: str = "arria10"
    gpu: str = "titan_x"
    backend: str = "serial"
    eval_parallelism: int = 1
    run_parallelism: int = 1
    strategy: str = "evolutionary"
    constraints: tuple[str, ...] = ()
    store_path: str = ""
    warm_start: int = 0
    overrides: dict = field(default_factory=dict)
    output_dir: str = ""

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ConfigurationError("experiment name must not be empty")
        if not self.datasets:
            raise ConfigurationError("experiment needs at least one dataset")
        if not self.objectives:
            raise ConfigurationError("experiment needs at least one objective spec")
        if not self.seeds:
            raise ConfigurationError("experiment needs at least one seed")
        # Imported lazily: repro.core.strategy is registry-only but keep the
        # import pattern consistent with the backend check below.
        from ..core.strategy import STRATEGIES, available_strategies

        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown search strategy {self.strategy!r}; "
                f"registered: {', '.join(available_strategies())}"
            )
        for spec in self.objectives:
            cell_strategy, _ = split_objective_spec(spec)
            if cell_strategy is not None and cell_strategy not in STRATEGIES:
                raise ConfigurationError(
                    f"objective spec {spec!r} names unknown strategy {cell_strategy!r}; "
                    f"registered: {', '.join(available_strategies())}"
                )
            objective_config_from_spec(spec, constraints=self.constraints)  # validate eagerly
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if self.eval_parallelism < 1:
            raise ConfigurationError(
                f"eval_parallelism must be >= 1, got {self.eval_parallelism}"
            )
        if self.run_parallelism < 1:
            raise ConfigurationError(
                f"run_parallelism must be >= 1, got {self.run_parallelism}"
            )
        if self.warm_start < 0:
            raise ConfigurationError(f"warm_start must be >= 0, got {self.warm_start}")
        # Imported lazily: repro.workers depends on repro.core at import time.
        from ..workers.backends import BACKENDS, available_backends

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; registered: {', '.join(available_backends())}"
            )

    # ----------------------------------------------------------------- grid
    def cells(self) -> list[RunCell]:
        """All grid cells in deterministic (dataset, objective, seed) order."""
        cells: list[RunCell] = []
        for dataset in self.datasets:
            for objective in self.objectives:
                for seed in self.seeds:
                    cells.append(
                        RunCell(
                            dataset=dataset,
                            objective=objective,
                            seed=int(seed),
                            index=len(cells),
                        )
                    )
        return cells

    @property
    def grid_size(self) -> int:
        """Total number of runs in the grid."""
        return len(self.datasets) * len(self.objectives) * len(self.seeds)

    def cell_digest(self) -> str:
        """Digest of the settings that shape an *individual* run.

        Grid axes (datasets/objectives/seeds) and purely organizational
        fields are excluded, so extending the grid keeps previously
        completed cells valid while changing, say, ``training_epochs`` via
        ``overrides`` invalidates them.
        """
        data = self.to_dict()
        for key in ("name", "datasets", "objectives", "seeds", "run_parallelism", "output_dir"):
            data.pop(key, None)
        # The store location never changes what a run computes, only where
        # results are remembered — it must not invalidate completed cells.
        data.pop("store_path", None)
        # Fields newer than the first release are omitted at their defaults so
        # artifacts checkpointed before the field existed stay resumable.
        if data.get("strategy") == "evolutionary":
            data.pop("strategy", None)
        if not data.get("constraints"):
            data.pop("constraints", None)
        if not data.get("warm_start"):
            data.pop("warm_start", None)
        payload = json.dumps(data, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
