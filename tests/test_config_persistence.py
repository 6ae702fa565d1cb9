"""Configuration persistence: JSON round-trips, strict parsing, CLI precedence."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from repro.cli import build_parser, resolve_run_config
from repro.core.config import (
    ECADConfig,
    HardwareTargetConfig,
    NNAStructureConfig,
    OptimizationTargetConfig,
    ServiceConfig,
    StoreConfig,
    SurrogateConfig,
    parse_override,
    parse_override_value,
)
from repro.core.errors import ConfigurationError
from repro.datasets.registry import load_dataset
from repro.experiment.spec import ExperimentSpec
from repro.scenarios.arena import ArenaConfig
from repro.store.digest import problem_digest


@pytest.fixture
def config() -> ECADConfig:
    dataset = load_dataset("credit-g", seed=0, scale=0.05)
    return ECADConfig.template_for_dataset(
        dataset,
        optimization=OptimizationTargetConfig.accuracy_and_throughput(),
        population_size=4,
        max_evaluations=8,
        training_epochs=2,
        seed=3,
    )


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self, config):
        assert ECADConfig.from_dict(config.to_dict()) == config

    def test_save_load_identity(self, config, tmp_path):
        path = tmp_path / "nested" / "config.json"
        config.save(path)
        assert ECADConfig.load(path) == config

    def test_saved_file_is_plain_json(self, config, tmp_path):
        path = tmp_path / "config.json"
        config.save(path)
        data = json.loads(path.read_text())
        assert data["dataset_name"] == config.dataset_name
        assert data["nna"]["input_size"] == config.nna.input_size

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            ECADConfig.load(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ECADConfig.load(path)


class TestStrictParsing:
    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            ECADConfig.from_dict([1, 2, 3])

    def test_missing_nna_rejected(self, config):
        data = config.to_dict()
        del data["nna"]
        with pytest.raises(ConfigurationError, match="malformed"):
            ECADConfig.from_dict(data)

    def test_missing_required_fields_rejected(self, config):
        with pytest.raises(ConfigurationError, match="malformed"):
            ECADConfig.from_dict({"dataset_name": "x", "nna": {"input_size": 4}})
        data = config.to_dict()
        del data["dataset_name"]
        with pytest.raises(ConfigurationError, match="dataset_name"):
            ECADConfig.from_dict(data)

    def test_unknown_top_level_key_rejected(self, config):
        data = config.to_dict()
        data["populationsize"] = 8  # typo for population_size
        with pytest.raises(ConfigurationError, match="unknown configuration key"):
            ECADConfig.from_dict(data)

    def test_unknown_section_key_rejected(self, config):
        data = config.to_dict()
        data["nna"]["maxlayers"] = 6
        with pytest.raises(ConfigurationError, match="unknown nna key"):
            ECADConfig.from_dict(data)
        data = config.to_dict()
        data["hardware"]["fgpa"] = "arria10"
        with pytest.raises(ConfigurationError, match="unknown hardware key"):
            ECADConfig.from_dict(data)

    def test_malformed_objectives_rejected(self, config):
        data = config.to_dict()
        data["optimization"]["objectives"] = [["accuracy", 1.0]]  # missing maximize
        with pytest.raises(ConfigurationError, match="triples"):
            ECADConfig.from_dict(data)

    def test_unregistered_backend_rejected(self, config):
        data = config.to_dict()
        data["backend"] = "mpi"
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ECADConfig.from_dict(data)


#: ``--set`` texts whose parsed values have the wrong type for their field.
MALFORMED_OVERRIDES = [
    ("store.enabled", "False"),
    ("store.readonly", '"no"'),
    ("training_epochs", "2.9"),
    ("eval_parallelism", "true"),
    ("seed", '"abc"'),
    ("nna.activations", '"relu"'),
    ("optimization.objectives", '[["accuracy", 1.0, "false"]]'),
    ("optimization.constraints", '"dsp_usage<=512"'),
]


class TestMalformedValues:
    """Values of the wrong type are rejected, never coerced."""

    @pytest.mark.parametrize("key, text", MALFORMED_OVERRIDES)
    def test_from_dict_rejects(self, config, key, text):
        data = config.to_dict()
        *sections, leaf = key.split(".")
        node = data
        for section in sections:
            node = node[section]
        node[leaf] = parse_override_value(text)
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            ECADConfig.from_dict(data)

    @pytest.mark.parametrize("key, text", MALFORMED_OVERRIDES)
    def test_with_overrides_rejects(self, config, key, text):
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            config.with_overrides([f"{key}={text}"])

    @pytest.mark.parametrize(
        "cls, data, key",
        [
            (ExperimentSpec, {"name": "x", "datasets": "phishing"}, "datasets"),
            (ArenaConfig, {"seeds": "0"}, "seeds"),
            (ServiceConfig, {"port": "8282"}, "port"),
        ],
    )
    def test_other_configs_reject(self, cls, data, key):
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            cls.from_dict(data)


class TestDigestPins:
    """Decoding must not move the digests that key stores and sweep resumes."""

    @pytest.fixture
    def dataset(self):
        return load_dataset("credit-g", seed=0, scale=0.05)

    def test_problem_digests(self, dataset):
        codesign = ECADConfig.template_for_dataset(dataset, seed=3)
        accuracy = ECADConfig.template_for_dataset(
            dataset, seed=3, optimization=OptimizationTargetConfig.accuracy_only()
        )
        assert problem_digest(codesign, dataset) == (
            "e7bb1cdd0a67321044df7231aeed844988d52ec741e17bd8246810f66e73d6e9"
        )
        accuracy_digest = "97f14749ca38549cc652a8d2fce10cc5b8734e485f1f8b68c843a69319f8efaf"
        assert problem_digest(accuracy, dataset) == accuracy_digest
        # An int weight decodes as a float, so it hashes like 1.0.
        overridden = codesign.with_overrides(
            {"optimization.objectives": [["accuracy", 1, True]]}
        )
        assert problem_digest(overridden, dataset) == accuracy_digest

    def test_cell_digest(self):
        spec = ExperimentSpec(name="x", datasets=("credit-g",), overrides={"a": 1})
        assert spec.cell_digest() == "b6819499bf2f5809"
        assert ExperimentSpec.from_dict(spec.to_dict()).cell_digest() == "b6819499bf2f5809"


def _all_config_classes(config: ECADConfig) -> list:
    """One non-default instance of every configuration class."""
    return [
        NNAStructureConfig(input_size=20, output_size=2, layer_sizes=(16, 32), activations=("relu",)),
        HardwareTargetConfig(fpga="stratix10", clock_mhz=250.0, fpga_batch_sizes=(512,)),
        OptimizationTargetConfig(
            objectives=(("accuracy", 1.0, True), ("fpga_latency", 0.5, False)),
            constraints=("dsp_usage<=512",),
        ),
        StoreConfig(path="s.sqlite", enabled=False, readonly=True, warm_start=4, shards=2),
        SurrogateConfig(base="nsga2", rung_epochs=(1, 2), exploration_fraction=0.3),
        ServiceConfig(port=0, store_shards=4, long_poll_timeout=5.0),
        replace(config, seed=None, store=StoreConfig(path="s.sqlite", warm_start=2)),
        ExperimentSpec(
            name="x",
            datasets=("credit-g", "phishing"),
            seeds=(0, 1),
            constraints=("dsp_usage<=512",),
            overrides={"nna.max_layers": 3},
        ),
        ArenaConfig(scenarios=("noisy-labels",), strategies=("nsga2",), seeds=(0, 2)),
    ]


class TestEveryConfigRoundTrips:
    def test_json_round_trip(self, config):
        for original in _all_config_classes(config):
            data = json.loads(json.dumps(original.to_dict()))
            assert type(original).from_dict(data) == original

    def test_save_load(self, config, tmp_path):
        for index, original in enumerate(_all_config_classes(config)):
            path = tmp_path / f"{index}.json"
            original.save(path)
            assert type(original).load(path) == original


class TestOverrides:
    def test_parse_override_value_types(self):
        assert parse_override_value("3") == 3
        assert parse_override_value("0.5") == 0.5
        assert parse_override_value("true") is True
        assert parse_override_value("[1, 2]") == [1, 2]
        assert parse_override_value("stratix10") == "stratix10"

    def test_parse_override_requires_equals(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_override("population_size")
        assert parse_override("a.b=7") == ("a.b", 7)

    def test_with_overrides_strings(self, config):
        updated = config.with_overrides(
            ["backend=threads", "eval_parallelism=4", "nna.max_layers=2", "hardware.fpga=stratix10"]
        )
        assert updated.backend == "threads"
        assert updated.eval_parallelism == 4
        assert updated.nna.max_layers == 2
        assert updated.hardware.fpga == "stratix10"
        # the original is untouched (frozen dataclasses)
        assert config.backend == "serial"

    def test_with_overrides_mapping(self, config):
        updated = config.with_overrides({"training_epochs": 5, "nna.min_layers": 2})
        assert updated.training_epochs == 5
        assert updated.nna.min_layers == 2

    def test_with_overrides_unknown_key_rejected(self, config):
        with pytest.raises(ConfigurationError, match="unknown configuration key"):
            config.with_overrides(["no_such_field=1"])
        with pytest.raises(ConfigurationError, match="no section"):
            config.with_overrides(["nope.deep=1"])

    def test_with_overrides_revalidates(self, config):
        with pytest.raises(ConfigurationError):
            config.with_overrides(["eval_parallelism=0"])

    def test_nsga2_tournament_size_round_trip(self, config):
        assert config.nsga2_tournament_size == 2  # classic binary default
        updated = config.with_overrides(["nsga2_tournament_size=3"])
        assert updated.nsga2_tournament_size == 3
        assert updated.to_engine_config().nsga2_tournament_size == 3
        reloaded = type(config).from_dict(updated.to_dict())
        assert reloaded.nsga2_tournament_size == 3
        with pytest.raises(ConfigurationError, match="nsga2_tournament_size"):
            config.with_overrides(["nsga2_tournament_size=1"])


class TestCLIPrecedence:
    """--set beats explicit flags beats the configuration file."""

    def _args(self, argv):
        return build_parser().parse_args(argv)

    def test_flags_beat_config_file(self, config, tmp_path):
        path = tmp_path / "config.json"
        config.save(path)
        args = self._args(
            ["run", "--dataset", "credit-g", "--scale", "0.05",
             "--config", str(path), "--backend", "threads", "--eval-workers", "3"]
        )
        _, resolved = resolve_run_config(args)
        assert resolved.backend == "threads"
        assert resolved.eval_parallelism == 3
        # everything else still comes from the file
        assert resolved.population_size == config.population_size

    def test_set_beats_flags(self, config, tmp_path):
        path = tmp_path / "config.json"
        config.save(path)
        args = self._args(
            ["run", "--dataset", "credit-g", "--scale", "0.05",
             "--config", str(path), "--backend", "threads",
             "--set", "backend=processes", "--set", "population_size=6"]
        )
        _, resolved = resolve_run_config(args)
        assert resolved.backend == "processes"
        assert resolved.population_size == 6

    def test_config_file_wins_over_template_defaults(self, config, tmp_path):
        path = tmp_path / "config.json"
        config.save(path)
        args = self._args(
            ["run", "--dataset", "credit-g", "--scale", "0.05",
             "--config", str(path), "--population", "99"]
        )
        _, resolved = resolve_run_config(args)
        # --population only feeds the generated template; a config file wins.
        assert resolved.population_size == config.population_size

    def test_eval_workers_validation(self, config, tmp_path):
        args = self._args(
            ["run", "--dataset", "credit-g", "--scale", "0.05", "--eval-workers", "0"]
        )
        with pytest.raises(SystemExit):
            resolve_run_config(args)

    def test_eval_batch_flag_and_validation(self, config, tmp_path):
        path = tmp_path / "config.json"
        config.save(path)
        args = self._args(
            ["run", "--dataset", "credit-g", "--scale", "0.05",
             "--config", str(path), "--eval-batch", "8"]
        )
        _, resolved = resolve_run_config(args)
        assert resolved.eval_batch_size == 8
        assert resolved.to_engine_config().eval_batch_size == 8
        args = self._args(
            ["run", "--dataset", "credit-g", "--scale", "0.05", "--eval-batch", "0"]
        )
        with pytest.raises(SystemExit):
            resolve_run_config(args)

    def test_eval_batch_size_roundtrip_and_validation(self, config):
        updated = config.with_overrides(["eval_batch_size=4"])
        assert updated.eval_batch_size == 4
        assert ECADConfig.from_dict(updated.to_dict()).eval_batch_size == 4
        with pytest.raises(ConfigurationError, match="eval_batch_size"):
            config.with_overrides(["eval_batch_size=0"])
