"""Unit tests for repro.nn.preprocessing, repro.nn.evaluation and the reference trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.evaluation import kfold_indices
from repro.nn.mlp import MLP, MLPSpec
from repro.nn.preprocessing import (
    MinMaxScaler,
    OneHotEncoder,
    StandardScaler,
    one_hot,
    train_test_split,
)
from repro.nn.reference import Trainer, evaluate_kfold, evaluate_single_fold
from repro.nn.training import TrainingConfig


class TestScalers:
    def test_standard_scaler_zero_mean_unit_std(self, rng):
        features = rng.normal(5.0, 3.0, size=(200, 4))
        scaled = StandardScaler().fit_transform(features)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_feature_safe(self):
        features = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(features)
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_standard_scaler_inverse_round_trip(self, rng):
        features = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(features)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(features)), features)

    def test_standard_scaler_requires_fit(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_minmax_scaler_range(self, rng):
        features = rng.normal(size=(100, 5)) * 10
        scaled = MinMaxScaler().fit_transform(features)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_scalers_reject_empty_or_1d(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.empty((0, 3)))
        with pytest.raises(ValueError):
            MinMaxScaler().fit(np.ones(5))


class TestOneHot:
    def test_one_hot_rows(self):
        encoded = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_out_of_range_raises(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 3]), 3)

    def test_encoder_fit_infers_classes_and_round_trips(self):
        labels = np.array([2, 0, 1, 2])
        encoder = OneHotEncoder()
        encoded = encoder.fit_transform(labels)
        assert encoder.num_classes == 3
        np.testing.assert_array_equal(encoder.inverse_transform(encoded), labels)

    def test_encoder_rejects_labels_beyond_declared_classes(self):
        with pytest.raises(ValueError):
            OneHotEncoder(num_classes=2).fit(np.array([0, 1, 2]))


class TestTrainTestSplit:
    def test_split_sizes(self, rng):
        features = rng.normal(size=(100, 3))
        labels = (rng.random(100) > 0.5).astype(int)
        train_x, test_x, train_y, test_y = train_test_split(features, labels, test_fraction=0.2, seed=0)
        assert train_x.shape[0] + test_x.shape[0] == 100
        assert test_x.shape[0] == pytest.approx(20, abs=2)
        assert train_x.shape[0] == train_y.shape[0]
        assert test_x.shape[0] == test_y.shape[0]

    def test_stratified_split_keeps_both_classes(self, rng):
        labels = np.array([0] * 90 + [1] * 10)
        features = rng.normal(size=(100, 2))
        _, _, train_y, test_y = train_test_split(features, labels, test_fraction=0.2, seed=1)
        assert set(np.unique(test_y)) == {0, 1}
        assert set(np.unique(train_y)) == {0, 1}

    def test_invalid_fraction_raises(self, rng):
        with pytest.raises(ValueError):
            train_test_split(rng.normal(size=(10, 2)), np.zeros(10), test_fraction=1.5)

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            train_test_split(rng.normal(size=(10, 2)), np.zeros(9))


class TestTrainer:
    def test_training_improves_accuracy_on_separable_data(self, tiny_dataset, fast_training_config):
        spec = MLPSpec(
            input_size=tiny_dataset.num_features,
            output_size=tiny_dataset.num_classes,
            hidden_sizes=(16,),
            activations=("relu",),
        )
        model = MLP(spec, seed=0)
        from repro.nn.metrics import accuracy

        before = accuracy(model.predict(tiny_dataset.features), tiny_dataset.labels)
        history = Trainer(fast_training_config, seed=0).fit(model, tiny_dataset.features, tiny_dataset.labels)
        after = accuracy(model.predict(tiny_dataset.features), tiny_dataset.labels)
        assert after > before
        assert after > 0.8
        assert history.epochs_run == fast_training_config.epochs
        assert len(history.train_loss) == history.epochs_run
        assert history.wall_time_seconds > 0

    def test_early_stopping_halts_training(self, tiny_dataset):
        config = TrainingConfig(epochs=50, batch_size=16, early_stopping_patience=2, validation_fraction=0.2)
        spec = MLPSpec(input_size=tiny_dataset.num_features, output_size=2, hidden_sizes=(16,), activations=("relu",))
        history = Trainer(config, seed=0).fit(MLP(spec, seed=0), tiny_dataset.features, tiny_dataset.labels)
        assert history.epochs_run < 50
        assert history.stopped_early
        assert np.isfinite(history.best_validation_accuracy)

    def test_trainer_validates_inputs(self, tiny_dataset, fast_training_config):
        spec = MLPSpec(input_size=5, output_size=2, hidden_sizes=(4,), activations=("relu",))
        trainer = Trainer(fast_training_config, seed=0)
        with pytest.raises(ValueError):
            trainer.fit(MLP(spec, seed=0), tiny_dataset.features, tiny_dataset.labels)

    def test_trainer_rejects_labels_above_output_size(self, fast_training_config, rng):
        spec = MLPSpec(input_size=3, output_size=2, hidden_sizes=(4,), activations=("relu",))
        with pytest.raises(ValueError):
            Trainer(fast_training_config).fit(MLP(spec, seed=0), rng.normal(size=(10, 3)), np.full(10, 5))

    def test_training_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(validation_fraction=0.7)


class TestEvaluation:
    def test_kfold_indices_partition_all_samples(self):
        folds = kfold_indices(23, 5, seed=0)
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(23))
        for train, test in folds:
            assert set(train.tolist()).isdisjoint(set(test.tolist()))
            assert len(train) + len(test) == 23

    def test_kfold_indices_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(3, 5)

    def test_single_fold_evaluation(self, tiny_presplit_dataset, fast_training_config):
        spec = MLPSpec(
            input_size=tiny_presplit_dataset.num_features,
            output_size=tiny_presplit_dataset.num_classes,
            hidden_sizes=(16,),
            activations=("relu",),
        )
        result = evaluate_single_fold(
            spec,
            tiny_presplit_dataset.features,
            tiny_presplit_dataset.labels,
            tiny_presplit_dataset.test_features,
            tiny_presplit_dataset.test_labels,
            training_config=fast_training_config,
            seed=0,
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert result.accuracy > 0.6
        assert len(result.fold_accuracies) == 1
        assert result.accuracy_std == 0.0
        assert result.parameter_count == spec.parameter_count

    def test_kfold_evaluation_averages_folds(self, tiny_dataset, fast_training_config):
        spec = MLPSpec(
            input_size=tiny_dataset.num_features,
            output_size=tiny_dataset.num_classes,
            hidden_sizes=(8,),
            activations=("relu",),
        )
        result = evaluate_kfold(
            spec,
            tiny_dataset.features,
            tiny_dataset.labels,
            num_folds=4,
            training_config=fast_training_config,
            seed=0,
        )
        assert len(result.fold_accuracies) == 4
        assert result.accuracy == pytest.approx(np.mean(result.fold_accuracies))
        assert result.accuracy > 0.6
        assert result.train_seconds > 0
        assert len(result.histories) == 4
