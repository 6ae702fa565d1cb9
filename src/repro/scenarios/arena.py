"""The arena: strategy-vs-strategy tournaments over scenario packs.

:class:`ArenaRunner` is a thin conductor over existing machinery: each
scenario pack lowers to one :class:`~repro.experiment.spec.ExperimentSpec`
(datasets × strategy-prefixed objectives × seeds) executed by its own
:class:`~repro.experiment.runner.ExperimentRunner` under
``<output_dir>/scenarios/<pack>``, so per-cell ``RunArtifact`` checkpoints,
digest-aware resume and crash recovery are inherited unchanged.  All
scenarios share *one* evaluation store and *one* execution pool (wrapped in
:class:`~repro.workers.backends.NonOwningBackend` so per-search shutdowns
cannot tear it down), which is what makes tournaments cheap to repeat: a
warm store answers repeated candidates across strategies and runs.

From the finished artifacts the runner derives the leaderboard metrics —
hypervolume over the scenario's configured objectives, evaluations until
the pack's target accuracy, real (non-cached) evaluations, wall-clock — and
upserts them into the durable :class:`~repro.scenarios.leaderboard.Leaderboard`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.config import JSONConfig
from ..core.errors import ConfigurationError
from ..core.pareto import hypervolume_2d
from ..core.strategy import STRATEGIES, arena_strategies
from ..experiment.runner import ExperimentRunner
from ..experiment.spec import objective_config_from_spec, split_objective_spec
from ..workers.backends import NonOwningBackend, resolve_backend
from .leaderboard import Leaderboard
from .packs import ScenarioPack, available_scenarios, get_scenario

__all__ = ["ArenaConfig", "ArenaRunner", "artifact_metrics"]


@dataclass(frozen=True)
class ArenaConfig(JSONConfig):
    """Everything one tournament needs, in declarative form.

    Attributes
    ----------
    scenarios:
        Catalog names of the packs to run; empty means *every* registered
        pack.
    strategies:
        Competing strategy names; empty means every registered strategy
        whose class is ``arena_eligible``.
    seeds:
        Search seeds; each (strategy, scenario, seed) triple is one
        leaderboard row.
    output_dir:
        Root artifact directory; per-scenario experiment checkpoints live
        under ``<output_dir>/scenarios/<pack>``.
    store_path:
        Shared evaluation store; empty derives ``<output_dir>/store.sqlite``
        so tournaments are warm by default.
    warm_start:
        Per-run warm-start budget from the shared store (0 disables).
    backend / eval_parallelism:
        The shared execution pool every search dispatches through.
    run_parallelism:
        Whole grid cells kept in flight per scenario (1 = sequential).
    leaderboard_path:
        Standings SQLite file; empty derives
        ``<output_dir>/leaderboard.sqlite``.

    ``with_overrides`` accepts ``--set`` keys with or without the ``arena.``
    prefix (``--set arena.seeds=[0,1]`` or ``--set warm_start=4``).
    """

    section = "arena config"
    override_prefix = "arena."

    scenarios: tuple[str, ...] = ()
    strategies: tuple[str, ...] = ()
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "arena"
    store_path: str = ""
    warm_start: int = 0
    backend: str = "serial"
    eval_parallelism: int = 1
    run_parallelism: int = 1
    leaderboard_path: str = ""

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("arena needs at least one seed")
        if not str(self.output_dir).strip():
            raise ConfigurationError("arena output_dir must not be empty")
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

    # ------------------------------------------------------------ resolution
    def resolved_scenarios(self) -> list[ScenarioPack]:
        """The packs this tournament runs (named, or the whole catalog)."""
        names = self.scenarios or tuple(available_scenarios())
        return [get_scenario(name) for name in names]

    def resolved_strategies(self) -> tuple[str, ...]:
        """Canonical competing strategy names (named, or every eligible one)."""
        if not self.strategies:
            return tuple(arena_strategies())
        canonical: list[str] = []
        for strategy in self.strategies:
            try:
                resolved = STRATEGIES.canonical_name(strategy)
            except KeyError as exc:
                raise ConfigurationError(str(exc.args[0])) from exc
            if resolved not in canonical:
                canonical.append(resolved)
        return tuple(canonical)

    @property
    def resolved_store_path(self) -> str:
        """The shared store file (defaults inside the output directory)."""
        return self.store_path or str(Path(self.output_dir) / "store.sqlite")

    @property
    def resolved_leaderboard_path(self) -> str:
        """The standings file (defaults inside the output directory)."""
        return self.leaderboard_path or str(Path(self.output_dir) / "leaderboard.sqlite")


def artifact_metrics(artifact, pack: ScenarioPack) -> dict:
    """Leaderboard metrics of one grid-cell artifact under ``pack``.

    Hypervolume is computed over the scenario's configured objectives in
    maximization form against the origin reference: frontier values are
    negated for minimized objectives, a single-objective scenario scores
    the best canonical value (clipped at 0), and scenarios with more than
    two objectives score the leading pair (documented in ARENA.md).
    Evals-to-target is the ``evaluations_seen`` of the first frontier
    snapshot whose running best accuracy reached ``pack.target_accuracy``
    (0 when disabled or never reached).
    """
    objectives = objective_config_from_spec(
        pack.objective, constraints=pack.constraints
    ).to_fitness_objectives()
    directions = [(spec.name, bool(spec.maximize)) for spec in objectives]
    canonical_points = []
    for row in artifact.frontier:
        point = []
        for name, maximize in directions:
            value = float(row.get(name, 0.0))
            point.append(value if maximize else -value)
        canonical_points.append(point)
    if not canonical_points:
        hypervolume = 0.0
    elif len(directions) == 1:
        hypervolume = max(0.0, max(point[0] for point in canonical_points))
    else:
        hypervolume = hypervolume_2d(
            [(point[0], point[1]) for point in canonical_points]
        )
    evals_to_target = 0
    if pack.target_accuracy > 0:
        for snapshot in artifact.snapshots:
            if float(snapshot.get("best_accuracy", 0.0)) >= pack.target_accuracy:
                evals_to_target = int(snapshot.get("evaluations_seen", 0))
                break
    return {
        "hypervolume": float(hypervolume),
        "evals_to_target": evals_to_target,
        "real_evals": int(artifact.statistics.get("models_evaluated", 0)),
        "wall_clock_seconds": float(artifact.wall_clock_seconds),
        "best_accuracy": float(artifact.best_accuracy),
        "frontier_size": len(artifact.frontier),
        "status": artifact.status,
    }


class ArenaRunner:
    """Runs one tournament: every strategy × every scenario × every seed.

    Parameters
    ----------
    config:
        The :class:`ArenaConfig` describing the tournament.
    printer:
        Optional progress callable (``print`` in the CLI); ``None`` keeps
        the runner silent.
    store / backend:
        Externally owned warm singletons (the job service passes its own);
        when ``None`` the runner opens/creates its own from the config and
        closes them when the tournament ends.
    """

    def __init__(self, config: ArenaConfig, printer=None, store=None, backend=None) -> None:
        self.config = config
        self._printer = printer
        self._external_store = store
        self._external_backend = backend

    def _log(self, message: str) -> None:
        if self._printer is not None:
            self._printer(message)

    # ------------------------------------------------------------- planning
    def specs(self):
        """The per-scenario tournament specs, in catalog order."""
        strategies = self.config.resolved_strategies()
        if not strategies:
            raise ConfigurationError("no arena-eligible strategies are registered")
        pairs = []
        for pack in self.config.resolved_scenarios():
            spec = pack.to_spec(
                strategies,
                seeds=self.config.seeds,
                store_path=self.config.resolved_store_path,
                warm_start=self.config.warm_start,
                backend=self.config.backend,
                eval_parallelism=self.config.eval_parallelism,
                run_parallelism=self.config.run_parallelism,
                output_dir=str(Path(self.config.output_dir) / "scenarios" / pack.key),
            )
            pairs.append((pack, spec))
        return pairs

    def plan(self, resume: bool = True) -> list[dict]:
        """Dry-run view: one row per grid cell across every scenario."""
        rows = []
        for pack, spec in self.specs():
            runner = ExperimentRunner(spec)
            for row in runner.plan(resume=resume):
                row = dict(row)
                row["scenario"] = pack.name
                rows.append(row)
        return rows

    # ------------------------------------------------------------ execution
    def run(self, resume: bool = True) -> list[dict]:
        """Execute the tournament and return the final leaderboard rows.

        Each scenario runs through its own :class:`ExperimentRunner`
        (checkpointed, resumable); every finished cell upserts its
        leaderboard row immediately, so standings survive a crash
        mid-tournament.  Cells whose artifacts exist are skipped under
        ``resume`` — re-running a finished tournament only recomputes
        metrics from the saved artifacts.
        """
        pairs = self.specs()
        store = self._external_store
        owned_store = None
        if store is None and self.config.resolved_store_path:
            from ..store import EvaluationStore

            owned_store = EvaluationStore(self.config.resolved_store_path)
            store = owned_store
        backend = self._external_backend
        owned_backend = None
        if backend is None:
            owned_backend = resolve_backend(
                self.config.backend,
                max_workers=max(
                    self.config.eval_parallelism * self.config.run_parallelism, 1
                ),
            )
            backend = owned_backend
        shared = NonOwningBackend(backend)
        leaderboard = Leaderboard(self.config.resolved_leaderboard_path)
        try:
            for pack, spec in pairs:
                self._log(f"arena scenario {pack.name!r}: {spec.grid_size} runs")
                runner = ExperimentRunner(
                    spec,
                    printer=self._printer,
                    store=store,
                    backend=shared,
                )
                report = runner.run(resume=resume)
                self._record(leaderboard, pack, report)
            return leaderboard.rows()
        finally:
            leaderboard.close()
            if owned_store is not None:
                owned_store.close()
            if owned_backend is not None:
                owned_backend.shutdown()

    def _record(self, leaderboard: Leaderboard, pack: ScenarioPack, report) -> None:
        """Aggregate one scenario's artifacts into leaderboard rows.

        A pack may span several datasets; per (strategy, seed) the dataset
        cells aggregate as: mean hypervolume, summed evaluation counts and
        wall-clock, best accuracy maximum — and ``failed`` status when any
        cell failed.
        """
        grouped: dict[tuple[str, int], list] = {}
        for artifact in report.artifacts:
            strategy, _ = split_objective_spec(artifact.objective)
            strategy = strategy or report.spec.strategy
            grouped.setdefault((strategy, artifact.seed), []).append(artifact)
        for (strategy, seed), artifacts in sorted(grouped.items()):
            metrics = [artifact_metrics(artifact, pack) for artifact in artifacts]
            count = len(metrics)
            leaderboard.record(
                strategy=strategy,
                scenario=pack.name,
                seed=seed,
                hypervolume=sum(m["hypervolume"] for m in metrics) / count,
                evals_to_target=sum(m["evals_to_target"] for m in metrics),
                real_evals=sum(m["real_evals"] for m in metrics),
                wall_clock_seconds=sum(m["wall_clock_seconds"] for m in metrics),
                best_accuracy=max(m["best_accuracy"] for m in metrics),
                frontier_size=sum(m["frontier_size"] for m in metrics),
                status=(
                    "failed"
                    if any(m["status"] != "completed" for m in metrics)
                    else "completed"
                ),
                run_id=",".join(artifact.run_id for artifact in artifacts),
            )

