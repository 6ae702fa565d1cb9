"""Arena subsystem tests: scenario packs, tournaments, leaderboard, CLI.

The cross-strategy invariant suite runs one tiny tournament (every registered
strategy on one scenario, fixed seed) through the real engine and asserts the
properties every strategy must share: the run completes, the streamed
frontier is mutually non-dominated, hypervolume is finite and bit-identical
for a fixed seed, and the run statistics are self-consistent.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.reporting import rows_to_csv
from repro.core.errors import ConfigurationError, ServiceError
from repro.core.strategy import STRATEGIES, arena_strategies, get_strategy
from repro.experiment.artifacts import RunArtifact
from repro.experiment.spec import objective_config_from_spec, split_objective_spec
from repro.scenarios import (
    LEADERBOARD_COLUMNS,
    ArenaConfig,
    ArenaRunner,
    Leaderboard,
    ScenarioPack,
    artifact_metrics,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.workers.backends import resolve_backend

# Snapshot before any test registers helper strategies (the registry has no
# unregister, so tests that add strategies would otherwise leak into the
# expected competitor set).
COMPETITORS = tuple(sorted(arena_strategies()))

# One deliberately tiny pack shared by every tournament test in this module:
# a real co-design search (two objectives, real training) at the smallest
# budget that still produces a non-trivial frontier.
TINY_PACK = register_scenario(
    ScenarioPack(
        name="tiny-test-arena",
        description="minimal co-design scenario for the test suite",
        datasets=("credit_g_like",),
        objective="codesign",
        scale=0.05,
        population_size=4,
        max_evaluations=6,
        training_epochs=1,
        target_accuracy=0.5,
    ),
    overwrite=True,
)


@pytest.fixture(scope="module")
def tournament(tmp_path_factory):
    """One full tournament: every registered strategy × tiny pack × seed 0."""
    output_dir = tmp_path_factory.mktemp("arena")
    config = ArenaConfig(
        scenarios=("tiny-test-arena",),
        seeds=(0,),
        output_dir=str(output_dir),
    )
    rows = ArenaRunner(config).run()
    artifacts = {}
    runs_dir = Path(output_dir) / "scenarios" / "tiny_test_arena" / "runs"
    for path in sorted(runs_dir.glob("*.json")):
        artifact = RunArtifact.load(path)
        strategy, _ = split_objective_spec(artifact.objective)
        artifacts[strategy] = artifact
    return config, rows, artifacts


# --------------------------------------------------------- scenario catalog
class TestScenarioPacks:
    def test_at_least_three_builtin_packs(self):
        names = available_scenarios()
        for name in ("edge-tiny-dsp", "datacenter-throughput", "noisy-labels"):
            assert name in names

    def test_builtin_packs_validate_and_lower_to_specs(self):
        for name in ("edge-tiny-dsp", "datacenter-throughput", "noisy-labels"):
            pack = get_scenario(name)
            spec = pack.to_spec(("nsga2", "random"), seeds=(0, 1))
            assert spec.objectives == (f"nsga2:{pack.objective}", f"random:{pack.objective}")
            assert spec.grid_size == len(pack.datasets) * 2 * 2
            assert spec.overrides["max_evaluations"] == pack.max_evaluations
            assert spec.constraints == pack.constraints

    def test_strategy_aliases_canonicalize_and_dedup(self):
        pack = get_scenario("tiny-test-arena")
        spec = pack.to_spec(("weighted_sum", "evolutionary", "default"))
        assert spec.objectives == ("evolutionary:codesign",)

    def test_unknown_dataset_rejected_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            ScenarioPack(
                name="bad", description="x", datasets=("credit_g_lik",)
            )

    def test_budget_and_target_validation(self):
        with pytest.raises(ConfigurationError, match="max_evaluations"):
            ScenarioPack(
                name="bad", description="x", datasets=("credit_g_like",), max_evaluations=0
            )
        with pytest.raises(ConfigurationError, match="target_accuracy"):
            ScenarioPack(
                name="bad", description="x", datasets=("credit_g_like",), target_accuracy=1.5
            )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(TINY_PACK)

    def test_unknown_scenario_suggests_near_miss(self):
        with pytest.raises(ConfigurationError, match=r"did you mean edge-tiny-dsp"):
            get_scenario("edge tiny dps")


# ------------------------------------------------- registry near-miss fixes
class TestRegistrySuggestions:
    """Satellite: unknown-name errors suggest near misses on all registries."""

    def test_datasets(self):
        from repro.datasets.registry import DATASETS

        with pytest.raises(KeyError, match=r"did you mean mnist_like"):
            DATASETS.resolve("mnist_lik")

    def test_strategies(self):
        with pytest.raises(ConfigurationError, match=r"did you mean nsga2"):
            get_strategy("nsga II")

    def test_fpga_devices(self):
        from repro.hardware.device import FPGA_DEVICES

        with pytest.raises(KeyError, match=r"did you mean arria10"):
            FPGA_DEVICES.resolve("aria10")

    def test_gpu_devices(self):
        from repro.hardware.device import GPU_DEVICES

        with pytest.raises(KeyError, match=r"did you mean titan_x"):
            GPU_DEVICES.resolve("titan_xp")

    def test_backends(self):
        with pytest.raises(ValueError, match=r"did you mean serial"):
            resolve_backend("serail")

    def test_no_suggestion_when_nothing_is_close(self):
        from repro.datasets.registry import DATASETS

        with pytest.raises(KeyError) as excinfo:
            DATASETS.resolve("zzzzzzzz")
        assert "did you mean" not in str(excinfo.value)
        assert "available:" in str(excinfo.value)

    def test_alias_keys_participate_in_matching(self):
        # "thread-pool" normalizes to "thread_pool", an alias of "threads".
        with pytest.raises(ValueError, match=r"did you mean threads"):
            resolve_backend("thread-poool")


# ------------------------------------------------------------- leaderboard
class TestLeaderboard:
    def test_upsert_and_tie_stable_ordering(self, tmp_path):
        path = tmp_path / "lb.sqlite"
        with Leaderboard(path) as board:
            # Insert out of order, with a hypervolume tie inside a scenario.
            board.record("random", "s1", 1, hypervolume=0.5)
            board.record("evolutionary", "s1", 0, hypervolume=0.5)
            board.record("nsga2", "s1", 0, hypervolume=0.9)
            board.record("nsga2", "s0", 0, hypervolume=0.1)
            board.record("random", "s1", 0, hypervolume=0.5)
            order = [(r["scenario"], r["strategy"], r["seed"]) for r in board.rows()]
        assert order == [
            ("s0", "nsga2", 0),
            ("s1", "nsga2", 0),
            ("s1", "evolutionary", 0),
            ("s1", "random", 0),
            ("s1", "random", 1),
        ]

    def test_primary_key_replaces_in_place(self, tmp_path):
        with Leaderboard(tmp_path / "lb.sqlite") as board:
            board.record("nsga2", "s0", 0, hypervolume=0.1)
            board.record("nsga2", "s0", 0, hypervolume=0.7, real_evals=12)
            assert len(board) == 1
            row = board.rows()[0]
        assert row["hypervolume"] == 0.7
        assert row["real_evals"] == 12

    def test_survives_process_style_reopen(self, tmp_path):
        path = tmp_path / "lb.sqlite"
        with Leaderboard(path) as board:
            board.record("nsga2", "s0", 0, hypervolume=0.42, status="completed")
        with Leaderboard(path) as board:
            rows = board.rows()
        assert rows == [
            {
                "scenario": "s0",
                "strategy": "nsga2",
                "seed": 0,
                "hypervolume": 0.42,
                "evals_to_target": 0,
                "real_evals": 0,
                "wall_clock_seconds": 0.0,
                "best_accuracy": 0.0,
                "frontier_size": 0,
                "status": "completed",
                "run_id": "",
            }
        ]


# ------------------------------------------------------------ arena config
class TestArenaConfig:
    def test_round_trip(self):
        config = ArenaConfig(
            scenarios=("edge-tiny-dsp",),
            strategies=("nsga2", "random"),
            seeds=(0, 1),
            output_dir="out",
            warm_start=4,
            backend="threads",
            eval_parallelism=2,
        )
        assert ArenaConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown arena config key"):
            ArenaConfig.from_dict({"scenarios": [], "bogus": 1})

    def test_overrides_accept_optional_arena_prefix(self):
        config = ArenaConfig().with_overrides(
            ["arena.seeds=[0,1,2]", "warm_start=4", 'arena.backend="threads"']
        )
        assert config.seeds == (0, 1, 2)
        assert config.warm_start == 4
        assert config.backend == "threads"

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown arena config key"):
            ArenaConfig().with_overrides(["arena.bogus=1"])

    def test_derived_paths_live_under_output_dir(self):
        config = ArenaConfig(output_dir="t")
        assert config.resolved_store_path == str(Path("t") / "store.sqlite")
        assert config.resolved_leaderboard_path == str(Path("t") / "leaderboard.sqlite")
        explicit = ArenaConfig(output_dir="t", store_path="s.sqlite", leaderboard_path="l.sqlite")
        assert explicit.resolved_store_path == "s.sqlite"
        assert explicit.resolved_leaderboard_path == "l.sqlite"

    def test_resolved_strategies_default_to_arena_eligible(self):
        assert ArenaConfig().resolved_strategies() == tuple(arena_strategies())
        with pytest.raises(ConfigurationError, match="did you mean"):
            ArenaConfig(strategies=("nsga II",)).resolved_strategies()

    def test_arena_eligible_opt_out_is_honoured(self):
        from repro.core.strategy import SearchStrategy, register_strategy

        class HiddenStrategy(SearchStrategy):
            name = "hidden_baseline"
            arena_eligible = False

        register_strategy("hidden_baseline", HiddenStrategy, overwrite=True)
        try:
            assert "hidden_baseline" in STRATEGIES.available()
            assert "hidden_baseline" not in arena_strategies()
        finally:
            # The registry has no unregister; rebinding to an eligible class
            # would change global state, so just assert and leave it hidden.
            pass


# ---------------------------------------------- cross-strategy invariants
def _canonical_points(artifact, pack):
    objectives = objective_config_from_spec(
        pack.objective, constraints=pack.constraints
    ).to_fitness_objectives()
    points = []
    for row in artifact.frontier:
        points.append(
            tuple(
                float(row[spec.name]) if spec.maximize else -float(row[spec.name])
                for spec in objectives
            )
        )
    return points


class TestCrossStrategyInvariants:
    """Every registered strategy must satisfy the same run contract."""

    def test_every_registered_strategy_competed(self, tournament):
        _, rows, artifacts = tournament
        assert set(artifacts) == set(COMPETITORS)
        assert {row["strategy"] for row in rows} == set(COMPETITORS)

    @pytest.mark.parametrize("strategy", COMPETITORS)
    def test_run_completes(self, tournament, strategy):
        _, _, artifacts = tournament
        artifact = artifacts[strategy]
        assert artifact.status == "completed"
        assert artifact.error == ""
        assert artifact.best_accuracy > 0

    @pytest.mark.parametrize("strategy", COMPETITORS)
    def test_frontier_is_mutually_non_dominated(self, tournament, strategy):
        from tests.conftest import plain_dominates

        _, _, artifacts = tournament
        points = _canonical_points(artifacts[strategy], TINY_PACK)
        assert points, "every completed run must archive a non-empty frontier"
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i != j:
                    assert not plain_dominates(a, b)

    @pytest.mark.parametrize("strategy", COMPETITORS)
    def test_hypervolume_finite_and_consistent_with_artifact(self, tournament, strategy):
        import math

        _, rows, artifacts = tournament
        metrics = artifact_metrics(artifacts[strategy], TINY_PACK)
        assert math.isfinite(metrics["hypervolume"])
        assert metrics["hypervolume"] >= 0
        row = next(r for r in rows if r["strategy"] == strategy)
        assert row["hypervolume"] == metrics["hypervolume"]

    @pytest.mark.parametrize("strategy", COMPETITORS)
    def test_run_statistics_self_consistent(self, tournament, strategy):
        _, _, artifacts = tournament
        stats = artifacts[strategy].statistics
        # Every generated candidate is either freshly evaluated, answered by
        # the cache (store hits included), or saved by the surrogate screen.
        assert stats["models_generated"] == (
            stats["models_evaluated"] + stats["cache_hits"] + stats["real_evals_saved"]
        )
        # Store-backed runs: every store miss fell through to a fresh
        # evaluation, and every store hit was served through the cache.
        assert stats["store_misses"] == stats["models_evaluated"]
        assert stats["store_hits"] <= stats["cache_hits"]
        assert stats["frontier_size"] == len(artifacts[strategy].frontier)

    @pytest.mark.parametrize("strategy", COMPETITORS)
    def test_snapshots_track_monotone_best_accuracy(self, tournament, strategy):
        _, _, artifacts = tournament
        snapshots = artifacts[strategy].snapshots
        assert snapshots, "a non-empty frontier implies at least one snapshot"
        best = [s["best_accuracy"] for s in snapshots]
        assert best == sorted(best)
        seen = [s["evaluations_seen"] for s in snapshots]
        assert seen == sorted(seen)
        assert artifacts[strategy].best_accuracy >= best[-1] - 1e-12

    def test_hypervolume_bit_identical_for_fixed_seed(self, tournament, tmp_path):
        """A warm-store re-run in a fresh directory reproduces the search
        results exactly: identical hypervolume, accuracy and frontier size
        (only the cost columns — real evals, wall clock — may differ)."""
        config, rows, _ = tournament
        rerun_config = ArenaConfig(
            scenarios=("tiny-test-arena",),
            strategies=("nsga2", "random"),
            seeds=(0,),
            output_dir=str(tmp_path / "rerun"),
            store_path=config.resolved_store_path,
        )
        rerun_rows = ArenaRunner(rerun_config).run()
        for strategy in ("nsga2", "random"):
            first = next(r for r in rows if r["strategy"] == strategy)
            second = next(r for r in rerun_rows if r["strategy"] == strategy)
            assert second["hypervolume"] == first["hypervolume"]
            assert second["best_accuracy"] == first["best_accuracy"]
            assert second["frontier_size"] == first["frontier_size"]
            assert second["evals_to_target"] == first["evals_to_target"]


# ------------------------------------------------- leaderboard determinism
class TestLeaderboardDeterminism:
    def test_resumed_tournament_exports_byte_identical_csv(self, tournament):
        """Satellite: two arena runs, same seed + warm store (the second
        resumes from the first's checkpoints) → byte-identical CSV."""
        config, rows, _ = tournament
        first_csv = rows_to_csv(rows, columns=list(LEADERBOARD_COLUMNS))
        second_rows = ArenaRunner(config).run()
        second_csv = rows_to_csv(second_rows, columns=list(LEADERBOARD_COLUMNS))
        assert second_csv == first_csv
        assert first_csv.count("\n") == len(COMPETITORS) + 1

    def test_evals_to_target_from_snapshots(self):
        artifact = RunArtifact(
            run_id="r",
            dataset="d",
            objective="nsga2:codesign",
            seed=0,
            frontier=[{"accuracy": 0.8, "fpga_throughput": 10.0}],
            snapshots=[
                {"step": 0, "size": 1, "evaluations_seen": 1, "best_accuracy": 0.3},
                {"step": 4, "size": 1, "evaluations_seen": 5, "best_accuracy": 0.62},
                {"step": 7, "size": 2, "evaluations_seen": 8, "best_accuracy": 0.8},
            ],
            statistics={"models_evaluated": 9},
            wall_clock_seconds=1.5,
            best_accuracy=0.8,
        )
        pack = ScenarioPack(
            name="unregistered-metrics-pack",
            description="x",
            datasets=("credit_g_like",),
            target_accuracy=0.6,
        )
        metrics = artifact_metrics(artifact, pack)
        assert metrics["evals_to_target"] == 5
        assert metrics["real_evals"] == 9
        assert metrics["hypervolume"] == pytest.approx(0.8 * 10.0)
        # Target never reached -> 0 (sentinel for "did not finish").
        cold = ScenarioPack(
            name="unregistered-metrics-pack-2",
            description="x",
            datasets=("credit_g_like",),
            target_accuracy=0.95,
        )
        assert artifact_metrics(artifact, cold)["evals_to_target"] == 0


# ---------------------------------------------------------------- service
class TestScenarioJobs:
    def test_scenario_shape_lowers_to_spec(self):
        from repro.service.runtime import normalize_job_spec

        spec, name = normalize_job_spec(
            {
                "scenario": {
                    "pack": "tiny-test-arena",
                    "strategies": ["nsga2", "random"],
                    "seeds": [0, 1],
                    "warm_start": 2,
                    "store_path": "store.sqlite",
                }
            }
        )
        assert name == "arena-tiny_test_arena"
        assert spec["objectives"] == ["nsga2:codesign", "random:codesign"]
        assert spec["seeds"] == [0, 1]
        assert spec["warm_start"] == 2
        assert spec["store_path"] == "store.sqlite"

    def test_scenario_shape_defaults_to_arena_strategies(self):
        from repro.service.runtime import normalize_job_spec

        spec, _ = normalize_job_spec({"scenario": {"pack": "tiny-test-arena"}})
        assert spec["objectives"] == [
            f"{strategy}:codesign" for strategy in arena_strategies()
        ]

    def test_scenario_shape_error_paths(self):
        from repro.service.runtime import normalize_job_spec

        with pytest.raises(ServiceError, match="exactly one of"):
            normalize_job_spec({})
        with pytest.raises(ServiceError, match="exactly one of"):
            normalize_job_spec(
                {"run": {"dataset": "mnist_like"}, "scenario": {"pack": "noisy-labels"}}
            )
        with pytest.raises(ServiceError, match="'scenario.pack' is required"):
            normalize_job_spec({"scenario": {}})
        with pytest.raises(ServiceError, match="did you mean"):
            normalize_job_spec({"scenario": {"pack": "edge tiny dps"}})
        with pytest.raises(ServiceError, match="unknown scenario job key"):
            normalize_job_spec({"scenario": {"pack": "noisy-labels", "bogus": 1}})


# -------------------------------------------------------------------- CLI
class TestArenaCLI:
    def test_packs_lists_catalog(self, capsys):
        from repro.cli import main

        assert main(["arena", "packs"]) == 0
        out = capsys.readouterr().out
        for name in ("edge-tiny-dsp", "datacenter-throughput", "noisy-labels"):
            assert name in out

    def test_dry_run_plans_without_executing(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "arena",
                "--scenario",
                "tiny-test-arena",
                "--strategy",
                "random",
                "--output-dir",
                str(tmp_path),
                "--dry-run",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run: nothing executed" in out
        assert "credit_g_like__random-codesign__s0" in out
        assert "1 run(s) to execute" in out
        assert not (tmp_path / "leaderboard.sqlite").exists()

    def test_set_overrides_reach_the_plan(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "arena",
                "--scenario",
                "tiny-test-arena",
                "--strategy",
                "random",
                "--output-dir",
                str(tmp_path),
                "--set",
                "arena.seeds=[0,1,2]",
                "--dry-run",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 run(s) to execute" in out
        for seed in (0, 1, 2):
            assert f"credit_g_like__random-codesign__s{seed}" in out

    def test_unknown_scenario_reports_suggestion(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "arena",
                    "--scenario",
                    "edge tiny dps",
                    "--output-dir",
                    str(tmp_path),
                    "--dry-run",
                ]
            )
        message = str(excinfo.value)
        assert "unknown scenario pack" in message
        assert "did you mean edge-tiny-dsp?" in message

    def test_unknown_override_key_is_an_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown arena config key"):
            main(
                [
                    "arena",
                    "--output-dir",
                    str(tmp_path),
                    "--set",
                    "arena.bogus=1",
                    "--dry-run",
                ]
            )

    def test_show_without_leaderboard_is_an_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no leaderboard"):
            main(["arena", "show", "--output-dir", str(tmp_path / "missing")])

    def test_micro_tournament_populates_leaderboard_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        output_dir = tmp_path / "arena"
        csv_path = tmp_path / "lb.csv"
        json_path = tmp_path / "lb.json"
        code = main(
            [
                "arena",
                "--scenario",
                "tiny-test-arena",
                "--strategy",
                "random",
                "--output-dir",
                str(output_dir),
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Arena leaderboard" in out
        assert (output_dir / "leaderboard.sqlite").exists()
        csv_lines = csv_path.read_text().strip().splitlines()
        assert csv_lines[0] == ",".join(LEADERBOARD_COLUMNS)
        assert len(csv_lines) == 2
        payload = json.loads(json_path.read_text())
        assert payload[0]["strategy"] == "random"
        assert payload[0]["status"] == "completed"
        assert payload[0]["real_evals"] > 0

        # `arena show` renders the persisted standings in a fresh invocation
        # (the process-restart survival contract).
        assert main(["arena", "show", "--output-dir", str(output_dir)]) == 0
        shown = capsys.readouterr().out
        assert "tiny-test-arena" in shown
        assert "random" in shown
