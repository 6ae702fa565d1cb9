"""Unified experiment API: registries, specs, runner, CLI sweep/resume."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.core.config import ECADConfig
from repro.core.errors import ConfigurationError
from repro.core.objectives import ObjectiveSpec, register_objective
from repro.datasets.registry import DatasetEntry, dataset_entry, register_dataset
from repro.experiment import (
    ExperimentReport,
    ExperimentRunner,
    ExperimentSpec,
    Registry,
    RunArtifact,
    resume_experiment,
)
from repro.experiment.spec import objective_config_from_spec, objective_slug
from repro.hardware.device import FPGADevice, fpga_device, register_fpga_device
from repro.workers.backends import ThreadPoolBackend, register_backend, resolve_backend
from repro.workers.base import available_workers, resolve_worker

#: Tiny per-run settings shared by the end-to-end grid tests.
TINY_OVERRIDES = {
    "population_size": 4,
    "max_evaluations": 4,
    "training_epochs": 1,
    "num_folds": 2,
}


def tiny_spec(name: str, **kwargs) -> ExperimentSpec:
    defaults = dict(
        name=name,
        datasets=("credit-g", "phishing"),
        objectives=("accuracy", "codesign"),
        seeds=(0,),
        scale=0.05,
        overrides=dict(TINY_OVERRIDES),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestRegistryPrimitive:
    def test_register_resolve_aliases(self):
        registry = Registry("widget")
        registry.register("alpha", 1, aliases=("a", "first"))
        assert registry.resolve("alpha") == 1
        assert registry.resolve("a") == 1
        assert registry.resolve("FIRST") == 1  # normalization
        assert registry.canonical_name("a") == "alpha"
        assert "alpha" in registry and "a" in registry
        assert registry.available() == ["alpha"]

    def test_duplicate_rejected_unless_overwrite(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("alpha", 2)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("beta", 2, aliases=("alpha",))
        registry.register("alpha", 3, overwrite=True)
        assert registry.resolve("alpha") == 3

    def test_allow_rebind(self):
        registry = Registry("widget", allow_rebind=True)
        registry.register("alpha", 1)
        registry.register("alpha", 2)  # same canonical name: allowed
        assert registry.resolve("alpha") == 2
        with pytest.raises(ValueError):
            registry.register("beta", 3, aliases=("alpha",))  # different entry: still rejected

    def test_overwrite_updates_existing_aliases(self):
        registry = Registry("widget")
        registry.register("alpha", 1, aliases=("a", "al"))
        registry.register("alpha", 2, overwrite=True)
        # aliases from the earlier registration follow the new object
        assert registry.resolve("a") == 2
        assert registry.resolve("al") == 2
        rebindable = Registry("widget", allow_rebind=True)
        rebindable.register("beta", 1, aliases=("b",))
        rebindable.register("beta", 9)
        assert rebindable.resolve("b") == 9

    def test_unknown_lists_available(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        with pytest.raises(KeyError, match="unknown widget 'gamma'.*alpha"):
            registry.resolve("gamma")
        assert registry.get("gamma") is None

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("deco")
        def thing():
            return 42

        assert registry.resolve("deco") is thing

    def test_entries_and_len(self):
        registry = Registry("widget")
        registry.register("b", 2)
        registry.register("a", 1, aliases=("a_alias",))
        assert registry.entries() == {"a": 1, "b": 2}
        assert len(registry) == 2


class TestOpenRegistries:
    """User-defined entries usable by name without touching library code."""

    def test_custom_backend_registered_and_resolved(self):
        register_backend(
            "test_two_threads",
            lambda max_workers=2: ThreadPoolBackend(max_workers=2),
        )
        backend = resolve_backend("test_two_threads")
        assert isinstance(backend, ThreadPoolBackend)
        backend.shutdown()
        # the configuration layer accepts it by name immediately
        dataset_config = ECADConfig.template_for_dataset(
            dataset_entry("credit-g").load(scale=0.05), backend="test_two_threads"
        )
        assert dataset_config.backend == "test_two_threads"

    def test_custom_fpga_device_registered_and_resolved(self):
        device = FPGADevice(
            name="Test Board 1000",
            dsp_count=100,
            m20k_count=200,
            alm_count=10_000,
            clock_mhz=100.0,
        )
        register_fpga_device("test_board", device, aliases=("tb1000",))
        assert fpga_device("tb1000") is device

    def test_custom_objective_registered_and_usable(self):
        register_objective("test_neg_params", lambda e: -float(e.parameter_count))
        objective = ObjectiveSpec(name="test_neg_params", maximize=True)
        assert objective.name == "test_neg_params"

    def test_worker_types_registered(self):
        assert {"simulation", "hardware_db", "physical"} <= set(available_workers())
        from repro.workers.simulation import SimulationWorker

        assert resolve_worker("sim") is SimulationWorker

    def test_custom_dataset_registered(self):
        entry = dataset_entry("credit-g")
        register_dataset(
            DatasetEntry(
                name="test_credit_alias",
                factory=entry.factory,
                evaluation_protocol=entry.evaluation_protocol,
                paper_top_accuracy_any=0.0,
                paper_top_accuracy_mlp=0.0,
                paper_ecad_accuracy=0.0,
            )
        )
        assert dataset_entry("test-credit-alias").name == "test_credit_alias"


class TestObjectiveSpecs:
    def test_shorthands(self):
        accuracy = objective_config_from_spec("accuracy")
        assert accuracy.objectives == (("accuracy", 1.0, True),)
        codesign = objective_config_from_spec("codesign")
        assert ("fpga_throughput", 1.0, True) in codesign.objectives

    def test_compound_spec(self):
        config = objective_config_from_spec("accuracy+fpga_latency")
        assert config.objectives == (("accuracy", 1.0, True), ("fpga_latency", 1.0, False))

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown objective"):
            objective_config_from_spec("accuracy+nonsense")

    def test_registered_direction_is_respected(self):
        register_objective(
            "test_cost_metric", lambda e: float(e.parameter_count), maximize_by_default=False
        )
        config = objective_config_from_spec("accuracy+test_cost_metric")
        assert ("test_cost_metric", 1.0, False) in config.objectives

    def test_slug(self):
        assert objective_slug("accuracy+fpga_latency") == "accuracy-fpga_latency"


class TestExperimentSpec:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec("round-trip", seeds=(0, 1), backend="threads", eval_parallelism=2)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_grid_cells(self):
        spec = tiny_spec("grid", seeds=(0, 1))
        cells = spec.cells()
        assert len(cells) == spec.grid_size == 2 * 2 * 2
        assert [cell.index for cell in cells] == list(range(8))
        assert cells[0].run_id == "credit_g__accuracy__s0"
        assert len({cell.run_id for cell in cells}) == len(cells)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one dataset"):
            tiny_spec("bad", datasets=())
        with pytest.raises(ConfigurationError, match="unknown objective"):
            tiny_spec("bad", objectives=("nonsense",))
        with pytest.raises(ConfigurationError, match="unknown backend"):
            tiny_spec("bad", backend="mpi")
        with pytest.raises(ConfigurationError, match="run_parallelism"):
            tiny_spec("bad", run_parallelism=0)

    def test_unknown_spec_key_rejected(self):
        data = tiny_spec("strict").to_dict()
        data["dataset"] = ["typo"]
        with pytest.raises(ConfigurationError, match="unknown experiment spec key"):
            ExperimentSpec.from_dict(data)

    def test_cell_digest_ignores_grid_axes(self):
        base = tiny_spec("digest")
        wider = tiny_spec("digest-wider", datasets=("credit-g",), seeds=(0, 1, 2))
        assert base.cell_digest() == wider.cell_digest()
        deeper = tiny_spec(
            "digest", overrides={**TINY_OVERRIDES, "training_epochs": 3}
        )
        assert base.cell_digest() != deeper.cell_digest()

    def test_cell_digest_backward_compatible_at_strategy_defaults(self):
        """Regression: pre-strategy checkpoints must survive the upgrade.

        The digest of a spec at default strategy/constraints must equal the
        digest computed before those fields existed, so previously completed
        artifacts are still resumable; non-default values must change it.
        """
        import hashlib
        import json

        base = tiny_spec("digest")
        legacy = base.to_dict()
        for key in ("name", "datasets", "objectives", "seeds", "run_parallelism", "output_dir"):
            legacy.pop(key, None)
        legacy.pop("strategy", None)
        legacy.pop("constraints", None)
        # Store fields post-date the first release too: a legacy spec dict
        # never carried them, and at their defaults they must not change
        # the digest.
        legacy.pop("store_path", None)
        legacy.pop("warm_start", None)
        legacy_digest = hashlib.sha256(
            json.dumps(legacy, sort_keys=True).encode()
        ).hexdigest()[:16]
        assert base.cell_digest() == legacy_digest
        assert tiny_spec("digest", strategy="nsga2").cell_digest() != base.cell_digest()
        # The store location is purely organizational: it must never
        # invalidate completed cells, while enabling warm-start must.
        assert (
            tiny_spec("digest", store_path="some/store.sqlite").cell_digest()
            == base.cell_digest()
        )
        assert tiny_spec("digest", warm_start=4).cell_digest() != base.cell_digest()
        assert (
            tiny_spec("digest", constraints=("dsp_usage<=512",)).cell_digest()
            != base.cell_digest()
        )


class TestExperimentRunner:
    def test_full_grid_artifacts_and_report(self, tmp_path):
        spec = tiny_spec("runner")
        runner = ExperimentRunner(spec, output_dir=tmp_path / "exp")
        report = runner.run()
        assert isinstance(report, ExperimentReport)
        assert len(report.artifacts) == 4
        assert not report.failed
        assert all(0 <= artifact.best_accuracy <= 1 for artifact in report.artifacts)
        # per-run artifacts + aggregate JSON/CSV on disk
        for cell in spec.cells():
            assert (tmp_path / "exp" / "runs" / f"{cell.run_id}.json").exists()
        csv_lines = (tmp_path / "exp" / "report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("run_id,dataset,objective,seed,status,best_accuracy")
        assert len(csv_lines) == 5
        assert report.best_artifact().best_accuracy == max(
            artifact.best_accuracy for artifact in report.artifacts
        )

    def test_resume_skips_completed_cells(self, tmp_path):
        spec = tiny_spec("resume")
        out = tmp_path / "exp"
        ExperimentRunner(spec, output_dir=out).run()
        mtimes = {
            path.name: path.stat().st_mtime_ns for path in (out / "runs").iterdir()
        }
        report = resume_experiment(out)
        assert len(report.artifacts) == 4
        after = {path.name: path.stat().st_mtime_ns for path in (out / "runs").iterdir()}
        assert after == mtimes  # nothing re-ran, nothing rewritten

    def test_resume_reruns_failed_and_stale_cells(self, tmp_path):
        spec = tiny_spec("stale")
        out = tmp_path / "exp"
        runner = ExperimentRunner(spec, output_dir=out)
        cells = spec.cells()
        # a failed artifact and one from different per-run settings are both re-run
        RunArtifact.from_failure(cells[0], "boom", 0.0, cell_digest=spec.cell_digest()).save(
            runner.artifact_path(cells[0])
        )
        good = RunArtifact.from_failure(cells[1], "", 0.0, cell_digest="0123456789abcdef")
        good.status = "completed"
        good.save(runner.artifact_path(cells[1]))
        plan = {row["run_id"]: row["status"] for row in runner.plan()}
        assert plan[cells[0].run_id] == "pending"
        assert plan[cells[1].run_id] == "pending"
        report = runner.run()
        assert not report.failed

    def test_partial_checkpoint_resumes_remaining(self, tmp_path):
        spec = tiny_spec("partial")
        out = tmp_path / "exp"
        runner = ExperimentRunner(spec, output_dir=out)
        cells = spec.cells()
        # pre-complete one cell with a recognizable marker artifact
        marker = RunArtifact(
            run_id=cells[2].run_id,
            dataset=cells[2].dataset,
            objective=cells[2].objective,
            seed=cells[2].seed,
            best_accuracy=0.123456,
            cell_digest=spec.cell_digest(),
        )
        marker.save(runner.artifact_path(cells[2]))
        report = runner.run()
        by_id = {artifact.run_id: artifact for artifact in report.artifacts}
        assert by_id[cells[2].run_id].best_accuracy == pytest.approx(0.123456)
        assert all(artifact.completed for artifact in report.artifacts)

    def test_plan_without_resume_reports_everything_pending(self, tmp_path):
        spec = tiny_spec("plan-no-resume", datasets=("credit-g",), objectives=("accuracy",))
        out = tmp_path / "exp"
        runner = ExperimentRunner(spec, output_dir=out)
        runner.run()
        assert all(row["status"] == "completed" for row in runner.plan())
        assert all(row["status"] == "pending" for row in runner.plan(resume=False))

    def test_run_parallelism_fans_cells_out(self, tmp_path):
        spec = tiny_spec("parallel", run_parallelism=3)
        report = ExperimentRunner(spec, output_dir=tmp_path / "exp").run()
        assert len(report.artifacts) == 4
        assert not report.failed

    def test_failed_cell_is_reported_not_raised(self, tmp_path):
        spec = tiny_spec(
            "failing",
            datasets=("credit-g", "no-such-dataset"),
            objectives=("accuracy",),
        )
        report = ExperimentRunner(spec, output_dir=tmp_path / "exp").run()
        assert len(report.failed) == 1
        assert "no-such-dataset" in report.failed[0].error or "unknown dataset" in report.failed[0].error

    def test_resume_requires_checkpoint(self, tmp_path):
        with pytest.raises(ConfigurationError, match="spec.json"):
            resume_experiment(tmp_path / "empty")


class TestCLISweep:
    def _write_spec(self, tmp_path, name="cli"):
        spec = tiny_spec(name)
        path = tmp_path / "spec.json"
        spec.save(path)
        return spec, path

    def test_dry_run_plan(self, tmp_path, capsys):
        _, path = self._write_spec(tmp_path)
        code = main(["sweep", "--spec", str(path), "--output-dir", str(tmp_path / "out"), "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cell(s) to run" in out
        assert "credit_g__accuracy__s0" in out
        assert not (tmp_path / "out" / "runs").exists()  # nothing executed

    def test_sweep_and_resume_end_to_end(self, tmp_path, capsys):
        _, path = self._write_spec(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["sweep", "--spec", str(path), "--output-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "report.csv" in out
        artifacts = sorted(os.listdir(out_dir / "runs"))
        assert len(artifacts) == 4
        payload = json.loads((out_dir / "report.json").read_text())
        assert len(payload["artifacts"]) == 4

        # resume skips every completed cell
        assert main(["resume", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("skipping") == 4

    def test_registry_commands(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "serial" in out and "threads" in out and "simulation" in out
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Arria 10 GX 1150" in out and "NVIDIA Titan X" in out

    def test_datasets_table_shows_protocol_and_accuracies(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "credit_g_like" in out
        assert "10-fold" in out and "1-fold" in out
        assert "0.788" in out  # paper's ECAD Credit-g accuracy
        assert "paper_ecad" in out

    def test_sweep_missing_spec_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--spec", str(tmp_path / "none.json")])


class TestCustomEntriesEndToEnd:
    """A user-defined backend + device + objective drive a grid by name."""

    def test_custom_registrations_used_by_experiment(self, tmp_path):
        register_backend(
            "test_e2e_threads",
            lambda max_workers=2: ThreadPoolBackend(max_workers=max_workers),
        )
        register_fpga_device(
            "test_e2e_board",
            FPGADevice(
                name="E2E Board",
                dsp_count=512,
                m20k_count=1024,
                alm_count=100_000,
                clock_mhz=200.0,
            ),
        )
        register_objective("test_e2e_small", lambda e: -float(e.parameter_count))
        spec = tiny_spec(
            "custom-e2e",
            datasets=("credit-g",),
            objectives=("accuracy+test_e2e_small",),
            backend="test_e2e_threads",
            eval_parallelism=2,
            fpga="test_e2e_board",
        )
        report = ExperimentRunner(spec, output_dir=tmp_path / "exp").run()
        assert not report.failed
        artifact = report.artifacts[0]
        assert artifact.completed
        assert artifact.objective == "accuracy+test_e2e_small"
