"""Tests for the surrogate-assisted search subsystem (repro.surrogate).

Covers the acceptance criteria from the subsystem's introduction:

* genome feature extraction is deterministic and bit-identical across
  processes,
* split-conformal intervals reach their nominal coverage (within 5%) on
  held-out rows,
* the ``surrogate`` strategy is a provable no-op — bit-identical to its
  base strategy — on an empty or too-small store,
* a seeded store engages the screen and the new run-statistics counters,
* fidelity rungs winnow survivors without leaking the reduced training
  budget.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import ECADConfig, StoreConfig, SurrogateConfig
from repro.core.errors import ConfigurationError
from repro.core.objectives import ObjectiveSpec
from repro.core.search import CoDesignSearch
from repro.core.strategy import SurrogateStrategy, get_strategy
from repro.nn.training import TrainingConfig
from repro.surrogate.features import (
    feature_names,
    features_from_parts,
    genome_features,
    row_features,
)
from repro.surrogate.fidelity import SuccessiveHalving
from repro.surrogate.model import ConformalRegressor, SurrogateModel
from repro.surrogate.screen import OffspringScreener

from tests.conftest import make_fake_evaluation


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

_FEATURE_SCRIPT = """
import hashlib
from repro.core.genome import CoDesignGenome, HardwareGenome, MLPGenome
from repro.hardware.systolic import GridConfig
from repro.surrogate.features import genome_features

genome = CoDesignGenome(
    mlp=MLPGenome(hidden_layers=(16, 8), activations=("relu", "tanh"), use_bias=True),
    hardware=HardwareGenome(
        grid=GridConfig(rows=8, columns=8, interleave_rows=4, interleave_columns=4,
                        vector_width=4),
        batch_size=1024,
    ),
    gpu_batch_size=256,
)
print(hashlib.sha256(genome_features(genome).tobytes()).hexdigest())
"""


class TestFeatures:
    def test_names_match_vector_length(self, sample_genome):
        vector = genome_features(sample_genome)
        assert vector.shape == (len(feature_names()),)
        assert vector.dtype == np.float64
        assert np.all(np.isfinite(vector))

    def test_bit_identical_across_processes(self, sample_genome):
        """The exact acceptance criterion: same genome, same bytes, any process."""
        import hashlib

        local = hashlib.sha256(genome_features(sample_genome).tobytes()).hexdigest()
        digests = [
            subprocess.run(
                [sys.executable, "-c", _FEATURE_SCRIPT],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert digests[0] == digests[1] == local

    def test_row_features_match_genome_features(self, sample_genome):
        """Store rows and live genomes must land on the same feature vector."""
        evaluation = make_fake_evaluation(sample_genome, 0.9, 1e6, 2e6)
        row = evaluation.summary()
        assert np.array_equal(row_features(row), genome_features(sample_genome))

    def test_unknown_activation_encodes_as_zero(self):
        grid = {"rows": 4, "columns": 4, "interleave_rows": 2,
                "interleave_columns": 2, "vector_width": 4}
        known = features_from_parts([8], ["relu"], True, grid, 256, 128)
        unknown = features_from_parts([8], ["swish"], True, grid, 256, 128)
        assert not np.array_equal(known, unknown)
        assert np.all(np.isfinite(unknown))


# ---------------------------------------------------------------------------
# Conformal model
# ---------------------------------------------------------------------------


class TestConformalRegressor:
    def _linear_data(self, rng, n, d=5, noise=0.1):
        X = rng.normal(size=(n, d))
        w = np.linspace(1.0, -1.0, d)
        y = X @ w + noise * rng.normal(size=n)
        return X, y

    def test_coverage_at_least_nominal_minus_five_percent(self, rng):
        """The paper-motivating guarantee, checked empirically on held-out rows."""
        X, y = self._linear_data(rng, 320)
        model = ConformalRegressor(confidence=0.8)
        assert model.fit(X[:240], y[:240])
        predictions, half_width = model.predict(X[240:])
        covered = np.abs(y[240:] - predictions) <= half_width
        assert covered.mean() >= 0.8 - 0.05

    def test_wider_intervals_at_higher_confidence(self, rng):
        X, y = self._linear_data(rng, 200)
        loose = ConformalRegressor(confidence=0.6)
        tight = ConformalRegressor(confidence=0.95)
        assert loose.fit(X, y) and tight.fit(X, y)
        _, loose_width = loose.predict(X[:1])
        _, tight_width = tight.predict(X[:1])
        assert tight_width > loose_width

    def test_refuses_to_fit_without_enough_calibration_rows(self, rng):
        X, y = self._linear_data(rng, 8)
        model = ConformalRegressor(confidence=0.8)
        assert not model.fit(X, y)
        assert not model.fitted

    def test_surrogate_model_rejects_unsupported_objectives(self):
        model = SurrogateModel(["accuracy", "chip_temperature"])
        assert not model.supported
        assert not model.ready


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class TestSurrogateConfig:
    def test_defaults_valid_and_active(self):
        config = SurrogateConfig()
        assert config.active
        assert config.base == "evolutionary"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": "random"},
            {"min_rows": 1},
            {"pool_size": 1},
            {"exploration_fraction": 1.5},
            {"confidence": 1.0},
            {"refit_interval": 0},
            {"rung_epochs": (4, 2)},
            {"rung_epochs": (0,)},
            {"rung_survivors": 0},
            {"promote_fraction": 0.0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            SurrogateConfig(**kwargs)

    def test_round_trips_through_ecad_config(self, tiny_dataset, tmp_path):
        config = ECADConfig.template_for_dataset(
            tiny_dataset,
            strategy="surrogate",
            surrogate=SurrogateConfig(pool_size=4, rung_epochs=(2, 4), enabled=False),
        )
        path = tmp_path / "config.json"
        config.save(path)
        loaded = ECADConfig.load(path)
        assert loaded.surrogate == config.surrogate
        assert loaded.surrogate.rung_epochs == (2, 4)
        assert not loaded.surrogate.active

    def test_set_overrides_reach_the_section(self, tiny_dataset):
        config = ECADConfig.template_for_dataset(tiny_dataset)
        updated = config.with_overrides(
            ["surrogate.pool_size=4", "surrogate.rung_epochs=[2,4]"]
        )
        assert updated.surrogate.pool_size == 4
        assert updated.surrogate.rung_epochs == (2, 4)
        with pytest.raises(ConfigurationError):
            config.with_overrides(["surrogate.turbo=true"])

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigurationError):
            SurrogateConfig.from_dict({"poolsize": 4})

    def test_surrogate_section_never_changes_the_problem_digest(self, tiny_dataset):
        """Screen settings shape which candidates run, not what a run returns."""
        plain = ECADConfig.template_for_dataset(tiny_dataset)
        screened = ECADConfig.template_for_dataset(
            tiny_dataset,
            strategy="surrogate",
            surrogate=SurrogateConfig(pool_size=4, min_rows=16),
        )
        from repro.store.digest import problem_digest

        assert problem_digest(plain, tiny_dataset) == problem_digest(screened, tiny_dataset)


# ---------------------------------------------------------------------------
# Strategy: the no-op guarantee and the engaged screen
# ---------------------------------------------------------------------------


def _search(dataset, tmp_path=None, **config_overrides) -> CoDesignSearch:
    if tmp_path is not None:
        config_overrides.setdefault(
            "store", StoreConfig(path=str(tmp_path / "store.sqlite"))
        )
    config = ECADConfig.template_for_dataset(
        dataset,
        population_size=6,
        max_evaluations=30,
        seed=0,
        training_epochs=2,
        **config_overrides,
    )
    return CoDesignSearch(dataset, config=config)


def _trace(result) -> list[tuple[str, float]]:
    return [
        (evaluation.genome.cache_key(), evaluation.accuracy)
        for evaluation in result.history.evaluations()
    ]


class TestSurrogateStrategyNoOp:
    def test_registered_and_resolvable(self):
        assert isinstance(get_strategy("surrogate"), SurrogateStrategy)

    def test_no_store_runs_bit_identical_to_base(self, tiny_dataset, fake_evaluator):
        base = _search(tiny_dataset, strategy="evolutionary").run(evaluator=fake_evaluator)
        screened = _search(tiny_dataset, strategy="surrogate").run(evaluator=fake_evaluator)
        assert _trace(screened) == _trace(base)
        assert screened.statistics.surrogate_screened == 0
        assert screened.statistics.real_evals_saved == 0
        assert screened.statistics.rung_evaluations == 0

    def test_empty_store_runs_bit_identical_to_base(
        self, tiny_dataset, fake_evaluator, tmp_path
    ):
        base = _search(tiny_dataset, tmp_path / "a", strategy="evolutionary").run(
            evaluator=fake_evaluator
        )
        screened = _search(tiny_dataset, tmp_path / "b", strategy="surrogate").run(
            evaluator=fake_evaluator
        )
        assert _trace(screened) == _trace(base)
        assert screened.statistics.surrogate_screened == 0

    def test_disabled_surrogate_runs_base_even_with_rows(
        self, tiny_dataset, fake_evaluator, tmp_path
    ):
        _search(tiny_dataset, tmp_path, strategy="evolutionary").run(
            evaluator=fake_evaluator
        )
        base = _search(tiny_dataset, strategy="evolutionary").run(evaluator=fake_evaluator)
        disabled = _search(
            tiny_dataset,
            tmp_path,
            strategy="surrogate",
            surrogate=SurrogateConfig(enabled=False),
        ).run(evaluator=fake_evaluator)
        assert _trace(disabled) == _trace(base)
        assert disabled.statistics.surrogate_screened == 0

    def test_nsga2_base_supported(self, tiny_dataset, fake_evaluator):
        result = _search(
            tiny_dataset,
            strategy="surrogate",
            surrogate=SurrogateConfig(base="nsga2"),
        ).run(evaluator=fake_evaluator)
        assert result.statistics.models_generated == 30


class TestSurrogateStrategyEngaged:
    def test_seeded_store_engages_screen_and_counters(
        self, tiny_dataset, fake_evaluator, tmp_path
    ):
        # First run populates the store for this problem digest...
        _search(tiny_dataset, tmp_path, strategy="evolutionary").run(
            evaluator=fake_evaluator
        )
        # ...and the second run screens against those rows.
        screened = _search(
            tiny_dataset,
            tmp_path,
            strategy="surrogate",
            surrogate=SurrogateConfig(min_rows=16, pool_size=4),
        ).run(evaluator=fake_evaluator)
        stats = screened.statistics
        assert stats.surrogate_screened > 0
        assert stats.real_evals_saved > 0
        assert stats.models_generated == 30
        # Saved evaluations are pool members that never reached the evaluator:
        # every screened step breeds a pool but spends one real evaluation.
        assert stats.real_evals_saved >= stats.surrogate_screened // 4

    def test_statistics_dict_carries_surrogate_counters(
        self, tiny_dataset, fake_evaluator
    ):
        result = _search(tiny_dataset, strategy="surrogate").run(evaluator=fake_evaluator)
        data = result.statistics.to_dict()
        for key in ("surrogate_screened", "real_evals_saved", "surrogate_mae",
                    "rung_evaluations"):
            assert key in data


# ---------------------------------------------------------------------------
# Screener unit behaviour
# ---------------------------------------------------------------------------


def _objectives():
    return [ObjectiveSpec.accuracy(), ObjectiveSpec.fpga_throughput()]


class TestOffspringScreener:
    def test_rank_before_ready_raises(self, sample_genome):
        screener = OffspringScreener(_objectives(), SurrogateConfig())
        with pytest.raises(RuntimeError):
            screener.rank([sample_genome], [])

    def test_failed_and_duplicate_rows_ignored(self, sample_genome):
        screener = OffspringScreener(_objectives(), SurrogateConfig())
        good = make_fake_evaluation(sample_genome, 0.9, 1e6, 2e6).summary()
        failed = dict(good, cache_key="other", error="boom")
        assert screener.seed([good, good, failed]) == 1
        assert screener.row_count == 1

    def test_becomes_ready_with_enough_rows(self, small_search_space, fake_evaluator, rng):
        config = SurrogateConfig(min_rows=16)
        screener = OffspringScreener(_objectives(), config)
        rows = []
        seen = set()
        while len(rows) < 24:
            genome = small_search_space.random_genome(rng)
            if genome.cache_key() in seen:
                continue
            seen.add(genome.cache_key())
            rows.append(fake_evaluator(genome).summary())
        assert screener.seed(rows) == 24
        assert screener.ready
        pool = [small_search_space.random_genome(rng) for _ in range(4)]
        order = screener.rank(pool, [])
        assert sorted(order) == list(range(len(pool)))


# ---------------------------------------------------------------------------
# Fidelity rungs
# ---------------------------------------------------------------------------


class _CountingEvaluator:
    """Evaluator exposing a mutable training_config, like the Master."""

    def __init__(self):
        self.training_config = TrainingConfig(epochs=8, batch_size=16)
        self.calls: list[int] = []

    def __call__(self, genome):
        self.calls.append(self.training_config.epochs)
        accuracy = min(0.99, 0.5 + genome.mlp.total_hidden_neurons / 200.0)
        return make_fake_evaluation(genome, accuracy, 1e6, 2e6)


class TestSuccessiveHalving:
    def _pool(self, small_search_space, rng, count=4):
        pool = []
        seen = set()
        while len(pool) < count:
            genome = small_search_space.random_genome(rng)
            if genome.cache_key() not in seen:
                seen.add(genome.cache_key())
                pool.append(genome)
        return pool

    def test_winnows_to_promote_fraction(self, small_search_space, rng):
        evaluator = _CountingEvaluator()
        halving = SuccessiveHalving(evaluator, rung_epochs=(2,), promote_fraction=0.5)
        pool = self._pool(small_search_space, rng)
        survivors, spent = halving.winnow(pool)
        assert len(survivors) == 2
        assert spent == 4
        assert evaluator.calls == [2, 2, 2, 2]
        # The best low-fidelity candidate survives.
        best = max(pool, key=lambda g: g.mlp.total_hidden_neurons)
        assert best in survivors

    def test_restores_full_training_budget(self, small_search_space, rng):
        evaluator = _CountingEvaluator()
        halving = SuccessiveHalving(evaluator, rung_epochs=(2, 4), promote_fraction=0.5)
        halving.winnow(self._pool(small_search_space, rng))
        assert evaluator.training_config.epochs == 8

    def test_rung_at_or_above_full_budget_skipped(self, small_search_space, rng):
        evaluator = _CountingEvaluator()
        halving = SuccessiveHalving(evaluator, rung_epochs=(8,), promote_fraction=0.5)
        pool = self._pool(small_search_space, rng)
        survivors, spent = halving.winnow(pool)
        assert survivors == pool
        assert spent == 0

    def test_plain_callable_disables_rungs(self, small_search_space, rng, fake_evaluator):
        halving = SuccessiveHalving(fake_evaluator, rung_epochs=(2,))
        pool = self._pool(small_search_space, rng)
        survivors, spent = halving.winnow(pool)
        assert survivors == pool
        assert spent == 0

    def test_crashing_rung_cannot_promote_a_broken_candidate(
        self, small_search_space, rng
    ):
        class Flaky(_CountingEvaluator):
            def __call__(self, genome):
                if len(self.calls) == 0:
                    self.calls.append(self.training_config.epochs)
                    raise RuntimeError("worker died")
                return super().__call__(genome)

        evaluator = Flaky()
        halving = SuccessiveHalving(evaluator, rung_epochs=(2,), promote_fraction=0.25)
        pool = self._pool(small_search_space, rng)
        survivors, spent = halving.winnow(pool)
        assert spent == 4
        assert len(survivors) == 1
        assert survivors[0] is not pool[0]


# ---------------------------------------------------------------------------
# Engine integration details
# ---------------------------------------------------------------------------


class TestSurrogateEngineWiring:
    def test_parallel_configs_are_clamped_serial(self, tiny_dataset, fake_evaluator):
        search = _search(
            tiny_dataset,
            strategy="surrogate",
            backend="threads",
            eval_parallelism=4,
        )
        from repro.surrogate.engine import build_surrogate_engine

        engine = build_surrogate_engine(search, fake_evaluator)
        assert engine.config.eval_parallelism == 1
        assert engine.config.eval_batch_size == 1

    def test_engine_config_passthrough_unchanged_for_base(
        self, tiny_dataset, fake_evaluator
    ):
        search = _search(tiny_dataset, strategy="surrogate")
        from repro.surrogate.engine import build_surrogate_engine

        engine = build_surrogate_engine(search, fake_evaluator)
        expected = search.config.to_engine_config()
        assert engine.config == expected
