"""The benchmark's workloads: real co-design searches and sweeps.

Every workload drives the program through a public entry point with real
NN training, the FPGA/GPU/synthesis models and, for the sweep, the SQLite
evaluation store.  A workload is set up once per run (:meth:`setup`, which
the runner repeats to time it) and then repeated (:meth:`rep`) for the
measured period.  All inputs derive from the workload seed; the program
only ever sees the generated datasets and configurations.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import Usage, non_dominated

__all__ = ["Outcome", "WORKLOADS", "derive_seed"]

#: The objective every workload searches: accuracy + FPGA throughput.
OBJECTIVES = [("accuracy", True), ("fpga_throughput", True)]


def derive_seed(*parts) -> int:
    """A 31-bit seed derived from the workload seed and a role label."""
    digest = hashlib.sha256(":".join(str(part) for part in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def frontier_points(rows: list[dict]) -> list[tuple[float, float]]:
    """(accuracy, FPGA outputs/s) of each frontier row."""
    return [(float(row["accuracy"]), float(row["fpga_throughput"])) for row in rows]


def hypervolume(points) -> float:
    """Accuracy x FPGA outputs/s area dominated by ``points``, origin reference."""
    from repro.core.pareto import hypervolume_2d

    return float(hypervolume_2d(points))


@dataclass
class Outcome:
    """What one repetition produced and what it cost."""

    key: str
    candidates: int
    wall_s: float
    cpu_parent_s: float
    cpu_children_s: float
    hypervolume: float
    best_accuracy: float
    digest: str
    failed_candidates: int = 0
    #: Seconds the reference kernel took beside this repetition (set by the runner).
    kernel_s: float = 0.0
    latencies: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)


class ColdSearch:
    """``CoDesignSearch.run`` from an empty cache, ``subsearches`` per cycle.

    One cycle runs ``subsearches`` independent problems, each a dataset
    and a search seed of its own, so a run's figures average over several
    datasets and search trajectories instead of resting on one.  Set-up is
    timed in a fresh interpreter, so it counts importing the program as well
    as generating the inputs.
    """

    setup_in_fresh_process = True

    def __init__(self, why, dataset, scale, subsearches, settings):
        self.why = why
        self.dataset_name = dataset
        self.scale = scale
        self.subsearches = subsearches
        self.settings = dict(settings)
        self.problems: list[tuple] = []
        # Pool workers finish in varying order, which steers the search.
        self.deterministic = self.settings.get("backend", "serial") == "serial"

    def setup(self, seed: int, workdir: Path) -> None:
        """Generate the dataset and the configuration of every sub-search."""
        from repro.core.config import ECADConfig, OptimizationTargetConfig
        from repro.datasets.registry import load_dataset

        problems = []
        for k in range(self.subsearches):
            dataset = load_dataset(
                self.dataset_name, seed=derive_seed(seed, "data", k), scale=self.scale
            )
            config = ECADConfig.template_for_dataset(
                dataset,
                optimization=OptimizationTargetConfig.accuracy_and_throughput(),
                seed=derive_seed(seed, "search", k),
            ).with_overrides(self.settings)
            problems.append((dataset, config))
        self.problems = problems

    def rep(self, index: int) -> Outcome:
        from repro.core.search import CoDesignSearch
        from repro.experiment.artifacts import RunArtifact
        from repro.experiment.spec import RunCell
        from repro.service.jobs import deterministic_result_digest

        k = index % self.subsearches
        dataset, config = self.problems[k]
        usage = Usage()
        start = time.perf_counter()
        search = CoDesignSearch(dataset, config=config)
        try:
            result = search.run()
        finally:
            search.close()
        wall = time.perf_counter() - start
        cpu_parent, cpu_children = usage.elapsed()

        stats = result.statistics
        history = result.history.evaluations()
        rows = result.frontier_archive.rows()
        cell = RunCell(dataset=dataset.name, objective="codesign", seed=config.seed, index=k)
        artifact = RunArtifact.from_result(cell, result, wall)
        checks = {
            "accounting": stats.models_generated == stats.models_evaluated + stats.cache_hits
            == config.max_evaluations,
            "frontier_non_dominated": non_dominated(rows, OBJECTIVES),
        }
        return Outcome(
            key=f"sub{k}",
            candidates=stats.models_generated,
            wall_s=wall,
            cpu_parent_s=cpu_parent,
            cpu_children_s=cpu_children,
            hypervolume=hypervolume(frontier_points(rows)),
            best_accuracy=result.best_accuracy,
            digest=deterministic_result_digest(artifact.to_dict()),
            failed_candidates=sum(1 for evaluation in history if evaluation.failed),
            latencies=[e.evaluation_seconds for e in history if not e.from_cache],
            checks=checks,
        )

    def teardown(self) -> None:
        self.problems = []


class WarmSweep:
    """``ExperimentRunner.run`` over a grid whose every candidate is stored.

    Set-up runs the grid cold into an empty store (the write-heavy fill);
    each repetition re-runs it into a fresh output directory, where the
    store answers every candidate (the read-heavy pass).
    """

    deterministic = True
    subsearches = 1
    setup_in_fresh_process = False

    def __init__(self, why, dataset, scale, seeds, settings):
        self.why = why
        self.dataset_name = dataset
        self.scale = scale
        self.seeds = seeds
        self.settings = dict(settings)
        self.workdir: Path | None = None
        self.spec = None
        self.cold: dict = {}

    def _spec(self, seed: int):
        from repro.experiment.spec import ExperimentSpec

        return ExperimentSpec(
            name="perfbench-warm-sweep",
            datasets=(self.dataset_name,),
            objectives=("codesign",),
            seeds=tuple(derive_seed(seed, "search", k) for k in range(self.seeds)),
            scale=self.scale,
            data_seed=derive_seed(seed, "data"),
            store_path=str(self.workdir / "store.sqlite"),
            overrides=dict(self.settings),
        )

    def setup(self, seed: int, workdir: Path) -> None:
        """Fill a fresh store with one cold pass of the grid."""
        from repro.experiment.runner import ExperimentRunner

        self.workdir = workdir
        for stale in workdir.glob("store.sqlite*"):
            stale.unlink()
        shutil.rmtree(workdir / "cold", ignore_errors=True)
        self.spec = self._spec(seed)
        report = ExperimentRunner(self.spec, output_dir=workdir / "cold").run(resume=False)
        self.cold = _sweep_summary(report)

    def rep(self, index: int) -> Outcome:
        from repro.experiment.runner import ExperimentRunner

        output_dir = self.workdir / f"warm-{index}"
        usage = Usage()
        start = time.perf_counter()
        report = ExperimentRunner(self.spec, output_dir=output_dir).run()
        wall = time.perf_counter() - start
        cpu_parent, cpu_children = usage.elapsed()
        shutil.rmtree(output_dir, ignore_errors=True)

        warm = _sweep_summary(report)
        budget = int(self.settings["max_evaluations"])
        stats = [artifact.statistics for artifact in report.artifacts]
        checks = {
            "completed": all(artifact.completed for artifact in report.artifacts),
            "accounting": all(
                s.get("models_generated") == s.get("models_evaluated", 0) + s.get("cache_hits", 0)
                == budget
                for s in stats
            ),
            "frontier_non_dominated": all(
                non_dominated(artifact.frontier, OBJECTIVES) for artifact in report.artifacts
            ),
            "warm_trains_nothing": all(
                s.get("models_evaluated") == 0 and s.get("store_hits", 0) > 0 for s in stats
            ),
            "warm_frontier_equals_cold": warm["frontiers"] == self.cold["frontiers"],
            "warm_best_accuracy_equals_cold": warm["best"] == self.cold["best"],
            "warm_digest_equals_cold": warm["digest"] == self.cold["digest"],
        }
        return Outcome(
            key="sweep",
            candidates=sum(int(s.get("models_generated", 0)) for s in stats),
            wall_s=wall,
            cpu_parent_s=cpu_parent,
            cpu_children_s=cpu_children,
            hypervolume=statistics.mean(hypervolume(points) for points in warm["frontiers"]),
            best_accuracy=statistics.mean(warm["best"]),
            digest=warm["digest"],
            failed_candidates=sum(1 for artifact in report.artifacts if not artifact.completed),
            checks=checks,
        )

    def teardown(self) -> None:
        if self.workdir is not None:
            for stale in self.workdir.glob("store.sqlite*"):
                stale.unlink()
            shutil.rmtree(self.workdir / "cold", ignore_errors=True)


def _sweep_summary(report) -> dict:
    from repro.service.jobs import deterministic_result_digest

    artifacts = [artifact.to_dict() for artifact in report.artifacts]
    return {
        "digest": deterministic_result_digest({"artifacts": artifacts}),
        "best": [artifact.best_accuracy for artifact in report.artifacts],
        "frontiers": [frontier_points(artifact.frontier) for artifact in report.artifacts],
    }


def _workloads() -> dict:
    # Settings are ``ECADConfig`` overrides.  Every workload narrows the layer
    # menu: the shipped one reaches 1024-wide layers, whose training cost
    # varies a hundredfold between search trajectories, and no run-to-run
    # figure was steady with it.  On mnist_like a 784 x 32 layer already
    # makes OpenBLAS split its products over threads; two pool processes then
    # contend for two cores and a repetition takes one to five times as long
    # by chance, so that menu stops at 16 units.
    return {
        "cold_serial_creditg": ColdSearch(
            "k-fold training on the shipped serial backend, no store: training and the "
            "per-candidate model calls do the work; the baseline a parallel path must beat",
            dataset="credit_g_like",
            scale=0.3,
            subsearches=16,
            settings={
                "evaluation_protocol": "10-fold",
                "num_folds": 3,
                "training_epochs": 8,
                "population_size": 8,
                "max_evaluations": 48,
                "backend": "serial",
                "nna.layer_sizes": [16, 32, 64],
                "nna.max_layers": 2,
            },
        ),
        "cold_procs_mnist": ColdSearch(
            "wide pre-split inputs on 2 worker processes in batches of 8, no store: dispatch, "
            "pickling, shared-memory datasets, fused training and vectorized hardware models",
            dataset="mnist_like",
            scale=0.01,
            subsearches=8,
            settings={
                "evaluation_protocol": "1-fold",
                "training_epochs": 2,
                "population_size": 8,
                "max_evaluations": 64,
                "backend": "processes",
                "eval_parallelism": 2,
                "eval_batch_size": 8,
                "nna.layer_sizes": [8, 16],
                "nna.max_layers": 2,
            },
        ),
        "warm_sweep_phishing": WarmSweep(
            "2-seed sweep re-run against the store it filled: every candidate is a store hit, "
            "so scoring, frontier, store reads and checkpoints do the work",
            dataset="phishing_like",
            scale=0.03,
            seeds=2,
            settings={
                "evaluation_protocol": "10-fold",
                "num_folds": 3,
                "training_epochs": 1,
                "population_size": 24,
                "max_evaluations": 200,
                "nna.layer_sizes": [16, 32, 64, 128],
                "nna.max_layers": 3,
            },
        ),
    }


WORKLOADS = _workloads()
