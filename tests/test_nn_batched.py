"""Bit-identical equivalence of the batched training path vs the scalar path.

The batched evaluation pipeline is only usable because its results are
*exactly* those of the per-candidate path at fixed seeds — same cache keys,
same store rows, same search trajectories.  These tests pin that contract:
every member's final parameters (which see every optimizer step), accuracy,
validation curve and early-stop epoch must match to the last bit (``==`` or
equal bytes, not ``allclose``).  The stacked trainer computes no loss, so
the reference's per-epoch loss has nothing to be compared with.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.datasets import SyntheticSpec, make_classification
from repro.nn import MLPSpec, TrainingConfig
from repro.nn import batched as nn_batched
from repro.nn import reference
from repro.nn.batched import BatchedTrainer, train_and_score_batch
from repro.nn.evaluation import evaluate_kfold_batch, evaluate_single_fold_batch
from repro.nn.mlp import MLP
from repro.nn.preprocessing import one_hot
from repro.nn.reference import (
    Trainer,
    backpropagate,
    evaluate_kfold,
    evaluate_single_fold,
    get_optimizer,
)


def _dataset(seed: int = 0, samples: int = 160, features: int = 12, classes: int = 3):
    spec = SyntheticSpec(
        name="batched-test",
        num_features=features,
        num_classes=classes,
        num_samples=samples,
    )
    return make_classification(spec, seed=seed)


def _assert_histories_identical(batched, scalar) -> None:
    assert batched.validation_accuracy == scalar.validation_accuracy
    assert batched.epochs_run == scalar.epochs_run
    assert batched.stopped_early == scalar.stopped_early


def _flat(model: MLP) -> np.ndarray:
    """A scalar model's parameters in a stacked row's order ``[W0, b0, W1, ...]``."""
    return np.concatenate([param.ravel() for param in model.parameters()])


def _assert_member_matches(group, position: int, scalar_model: MLP) -> None:
    """Member ``position``'s final parameter row has the reference model's bytes."""
    assert group.flat_parameters[position].tobytes() == _flat(scalar_model).tobytes()


@pytest.fixture
def final_parameters(monkeypatch):
    """Record each run's final parameters, keyed by its seed, on both trainers.

    Stacked rows come from every ``BatchedTrainer.fit`` group; reference
    parameters from every model the reference protocols build, read after
    they have trained.  Returns a callable giving the ``(stacked, scalar)``
    dicts of flat rows recorded so far.
    """
    stacked: dict[int, np.ndarray] = {}
    scalar_models: dict[int, MLP] = {}
    original_fit = BatchedTrainer.fit

    def recording_fit(self, spec, features_list, labels_list, seeds):
        group, histories = original_fit(self, spec, features_list, labels_list, seeds)
        for seed, row in zip(seeds, group.flat_parameters):
            assert seed not in stacked
            stacked[seed] = row.copy()
        return group, histories

    def recording_mlp(spec, seed=None):
        assert seed not in scalar_models
        scalar_models[seed] = MLP(spec, seed=seed)
        return scalar_models[seed]

    monkeypatch.setattr(BatchedTrainer, "fit", recording_fit)
    monkeypatch.setattr(reference, "MLP", recording_mlp)

    def snapshot():
        return stacked, {seed: _flat(model) for seed, model in scalar_models.items()}

    return snapshot


def _assert_final_parameters_identical(final_parameters) -> None:
    stacked, scalar = final_parameters()
    assert stacked and stacked.keys() == scalar.keys()
    for seed, row in stacked.items():
        assert row.tobytes() == scalar[seed].tobytes(), seed


def _scalar_fit(spec, config, features, labels, seed):
    model = MLP(spec, seed=seed)
    trainer = Trainer(config, seed=seed)
    history = trainer.fit(model, features, labels)
    return model, history


SPEC = MLPSpec(input_size=12, output_size=3, hidden_sizes=(16, 8), activations=("relu", "tanh"))
SPEC3 = MLPSpec(
    input_size=12,
    output_size=3,
    hidden_sizes=(16, 12, 8),
    activations=("sigmoid", "tanh", "relu"),
)


class TestBatchedTrainerEquivalence:
    @pytest.mark.parametrize("optimizer", ["sgd", "momentum", "rmsprop", "adam"])
    def test_single_member_group_matches_scalar(self, optimizer):
        dataset = _dataset(seed=1)
        config = TrainingConfig(epochs=6, batch_size=16, optimizer=optimizer, learning_rate=0.01)
        scalar_model, scalar_history = _scalar_fit(
            SPEC, config, dataset.features, dataset.labels, seed=7
        )
        group, histories = BatchedTrainer(config).fit(
            SPEC, [dataset.features], [dataset.labels], seeds=[7]
        )
        _assert_histories_identical(histories[0], scalar_history)
        _assert_member_matches(group, 0, scalar_model)

    def test_group_matches_per_candidate_loop_across_seeds(self):
        dataset = _dataset(seed=2)
        config = TrainingConfig(epochs=8, batch_size=32, learning_rate=0.005)
        seeds = [3, 11, 42, 1234]
        group, histories = BatchedTrainer(config).fit(
            SPEC,
            [dataset.features] * len(seeds),
            [dataset.labels] * len(seeds),
            seeds=seeds,
        )
        for position, seed in enumerate(seeds):
            scalar_model, scalar_history = _scalar_fit(
                SPEC, config, dataset.features, dataset.labels, seed=seed
            )
            _assert_histories_identical(histories[position], scalar_history)
            _assert_member_matches(group, position, scalar_model)

    def test_early_stopping_epochs_match_per_seed(self):
        # A patient config on an easy dataset makes candidates stop at
        # different epochs; frozen candidates must not perturb the others.
        dataset = _dataset(seed=3, samples=200)
        config = TrainingConfig(
            epochs=20, batch_size=16, learning_rate=0.05, early_stopping_patience=2
        )
        seeds = [0, 1, 2, 3, 4, 5]
        group, histories = BatchedTrainer(config).fit(
            SPEC,
            [dataset.features] * len(seeds),
            [dataset.labels] * len(seeds),
            seeds=seeds,
        )
        stop_epochs = set()
        for position, seed in enumerate(seeds):
            scalar_model, scalar_history = _scalar_fit(
                SPEC, config, dataset.features, dataset.labels, seed=seed
            )
            _assert_histories_identical(histories[position], scalar_history)
            _assert_member_matches(group, position, scalar_model)
            stop_epochs.add(scalar_history.epochs_run)
        # The scenario must actually exercise divergent stopping points.
        assert len(stop_epochs) > 1

    @pytest.mark.parametrize("optimizer", ["sgd", "momentum", "rmsprop", "adam"])
    def test_three_hidden_layers_with_staggered_early_stops_match_scalar(self, optimizer):
        # Once a member stops, each step gathers and scatters the active rows
        # of the flat buffers; the frozen rows must stay exactly as they were.
        dataset = _dataset(seed=3, samples=200)
        config = TrainingConfig(
            epochs=20,
            batch_size=16,
            optimizer=optimizer,
            learning_rate=0.05,
            early_stopping_patience=2,
        )
        seeds = [0, 1, 2, 3, 4, 5]
        group, histories = BatchedTrainer(config).fit(
            SPEC3,
            [dataset.features] * len(seeds),
            [dataset.labels] * len(seeds),
            seeds=seeds,
        )
        stop_epochs = set()
        for position, seed in enumerate(seeds):
            scalar_model, scalar_history = _scalar_fit(
                SPEC3, config, dataset.features, dataset.labels, seed=seed
            )
            _assert_histories_identical(histories[position], scalar_history)
            _assert_member_matches(group, position, scalar_model)
            stop_epochs.add(scalar_history.epochs_run)
        assert len(stop_epochs) > 1

    @pytest.mark.parametrize("inputs", ["shared", "distinct"])
    def test_unshuffled_validation_split_with_staggered_stops_matches_scalar(self, inputs):
        # Without shuffling every epoch walks each run's train indices in
        # split order; the shared path gathers from the one caller matrix,
        # the distinct path from the runs' stacked copies.
        config = TrainingConfig(
            epochs=20,
            batch_size=16,
            learning_rate=0.05,
            early_stopping_patience=2,
            shuffle=False,
        )
        seeds = [0, 1, 2, 3, 4, 5]
        if inputs == "shared":
            dataset = _dataset(seed=3, samples=200)
            datasets = [dataset] * len(seeds)
        else:
            datasets = [_dataset(seed=20 + seed, samples=200) for seed in seeds]
        group, histories = BatchedTrainer(config).fit(
            SPEC,
            [dataset.features for dataset in datasets],
            [dataset.labels for dataset in datasets],
            seeds=seeds,
        )
        stop_epochs = set()
        for position, (seed, dataset) in enumerate(zip(seeds, datasets)):
            scalar_model, scalar_history = _scalar_fit(
                SPEC, config, dataset.features, dataset.labels, seed=seed
            )
            _assert_histories_identical(histories[position], scalar_history)
            _assert_member_matches(group, position, scalar_model)
            stop_epochs.add(scalar_history.epochs_run)
        assert len(stop_epochs) > 1

    def test_no_bias_and_no_shuffle(self):
        dataset = _dataset(seed=4)
        spec = MLPSpec(
            input_size=12, output_size=3, hidden_sizes=(10,), activations=("sigmoid",), use_bias=False
        )
        config = TrainingConfig(epochs=4, batch_size=16, shuffle=False)
        group, histories = BatchedTrainer(config).fit(
            spec, [dataset.features] * 2, [dataset.labels] * 2, seeds=[9, 10]
        )
        for position, seed in enumerate([9, 10]):
            scalar_model, scalar_history = _scalar_fit(
                spec, config, dataset.features, dataset.labels, seed=seed
            )
            _assert_histories_identical(histories[position], scalar_history)
            _assert_member_matches(group, position, scalar_model)

    def test_validation_disabled_runs_all_epochs(self):
        dataset = _dataset(seed=5)
        config = TrainingConfig(epochs=3, batch_size=16, early_stopping_patience=0)
        group, histories = BatchedTrainer(config).fit(
            SPEC, [dataset.features], [dataset.labels], seeds=[1]
        )
        scalar_model, scalar_history = _scalar_fit(
            SPEC, config, dataset.features, dataset.labels, seed=1
        )
        _assert_histories_identical(histories[0], scalar_history)
        _assert_member_matches(group, 0, scalar_model)
        assert histories[0].epochs_run == 3
        assert histories[0].validation_accuracy == []

    def test_train_and_score_batch_scores_match(self, final_parameters):
        train = _dataset(seed=6, samples=140)
        test = _dataset(seed=7, samples=60)
        config = TrainingConfig(epochs=5, batch_size=16)
        seeds = [21, 22, 23]
        scored = train_and_score_batch(
            SPEC,
            [train.features] * 3,
            [train.labels] * 3,
            [test.features] * 3,
            [test.labels] * 3,
            training_config=config,
            seeds=seeds,
        )
        for (score, history), seed in zip(scored, seeds):
            model, scalar_history = _scalar_fit(
                SPEC, config, train.features, train.labels, seed=seed
            )
            from repro.nn.metrics import accuracy

            assert score == accuracy(model.predict(test.features), test.labels)
            _assert_histories_identical(history, scalar_history)
            assert final_parameters()[0][seed].tobytes() == _flat(model).tobytes()


def _materialized_split_fit(model, features, labels, config, seed):
    """Reference copy of ``Trainer.fit`` from before it trained on row indices.

    It copies the train and validation rows out of ``features`` and predicts
    on the train split after every epoch, as the trainer did then.  Returns
    ``(train_loss, validation_accuracy, epochs_run, stopped_early)``.
    """
    rng = np.random.default_rng(seed)
    optimizer = get_optimizer(config.optimizer, learning_rate=config.learning_rate)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels).reshape(-1).astype(int)

    train_x, train_y, val_x, val_y = features, labels, None, None
    num_samples = features.shape[0]
    val_count = int(round(config.validation_fraction * num_samples))
    if (
        config.validation_fraction > 0.0
        and config.early_stopping_patience != 0
        and val_count >= 1
        and num_samples - val_count >= 1
    ):
        order = rng.permutation(num_samples)
        val_idx, train_idx = order[:val_count], order[val_count:]
        train_x, train_y = features[train_idx], labels[train_idx]
        val_x, val_y = features[val_idx], labels[val_idx]
    encoded_train_y = one_hot(train_y, model.spec.output_size)

    train_loss: list[float] = []
    validation_accuracy: list[float] = []
    best_val_accuracy = -np.inf
    epochs_without_improvement = 0
    epochs_run, stopped_early = 0, False
    num_samples = train_x.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(num_samples) if config.shuffle else np.arange(num_samples)
        epoch_losses = []
        for start in range(0, num_samples, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss_value, gradients = backpropagate(model, train_x[batch_idx], encoded_train_y[batch_idx])
            epoch_losses.append(loss_value)
            optimizer.step(model.parameters(), gradients)
        train_loss.append(float(np.mean(epoch_losses)) if epoch_losses else float("nan"))
        model.predict(train_x)  # the per-epoch train-split prediction
        epochs_run = epoch + 1
        if val_x is not None:
            val_accuracy = float(np.mean(model.predict(val_x) == val_y))
            validation_accuracy.append(val_accuracy)
            if val_accuracy > best_val_accuracy + 1e-9:
                best_val_accuracy = val_accuracy
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
            if (
                config.early_stopping_patience > 0
                and epochs_without_improvement >= config.early_stopping_patience
            ):
                stopped_early = True
                break
    return train_loss, validation_accuracy, epochs_run, stopped_early


class TestTrainerMatchesMaterializedSplit:
    """The index-split ``Trainer`` changes no bit against the copied-rows loop."""

    @pytest.mark.parametrize("shuffle", [True, False], ids=["shuffle", "no-shuffle"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("patience", [2, 0], ids=["validation", "no-validation"])
    def test_fit_matches_reference_loop(self, optimizer, shuffle, patience):
        dataset = _dataset(seed=3, samples=200)
        config = TrainingConfig(
            epochs=12,
            batch_size=16,
            optimizer=optimizer,
            learning_rate=0.05,
            early_stopping_patience=patience,
            shuffle=shuffle,
        )
        for seed in (0, 1, 2):
            model, history = _scalar_fit(SPEC, config, dataset.features, dataset.labels, seed)
            reference = MLP(SPEC, seed=seed)
            train_loss, validation_accuracy, epochs_run, stopped_early = _materialized_split_fit(
                reference, dataset.features, dataset.labels, config, seed
            )
            assert history.train_loss == train_loss
            assert history.validation_accuracy == validation_accuracy
            assert (history.epochs_run, history.stopped_early) == (epochs_run, stopped_early)
            for layer, reference_layer in zip(model.layers, reference.layers):
                assert np.array_equal(layer.weights, reference_layer.weights)
                assert np.array_equal(layer.bias, reference_layer.bias)
            assert bool(validation_accuracy) == (patience > 0)


class TestTrainingMemory:
    def test_shared_matrix_with_validation_split_copies_no_train_rows(self):
        # 8 runs over one shared (N, F) matrix: the group gathers each
        # mini-batch from it, so only the validation rows (10%) are copied.
        group_size, samples, features = 8, 2000, 100
        rng = np.random.default_rng(0)
        data = rng.normal(size=(samples, features))
        labels = rng.integers(0, 3, size=samples)
        spec = MLPSpec(input_size=features, output_size=3, hidden_sizes=(8,), activations=("relu",))
        config = TrainingConfig(epochs=2, batch_size=64, early_stopping_patience=5)
        one_copy = group_size * samples * features * 8
        tracemalloc.start()
        try:
            BatchedTrainer(config).fit(
                spec, [data] * group_size, [labels] * group_size, seeds=list(range(group_size))
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_copy / 2, f"peak {peak / 1e6:.1f} MB vs one copy {one_copy / 1e6:.1f} MB"


class TestFlatParameterLayout:
    def test_weights_and_biases_are_views_of_one_buffer(self):
        group = nn_batched.StackedMLPGroup(SPEC3, seeds=[1, 2, 3])
        flat = group.flat_parameters
        assert flat.shape == (3, SPEC3.parameter_count)
        tensors = []
        for weights, biases in zip(group.weights, group.biases):
            assert np.shares_memory(weights, flat) and np.shares_memory(biases, flat)
            assert all(weights[member].flags.c_contiguous for member in range(3))
            tensors += [weights, biases]
        # The views tile each row once, in the scalar order [W0, b0, W1, ...].
        flat[:] = np.arange(flat.size, dtype=float).reshape(flat.shape)
        for member in range(3):
            row = np.concatenate([tensor[member].ravel() for tensor in tensors])
            assert np.array_equal(row, flat[member])

    @pytest.mark.parametrize(
        "hidden, activations",
        [((16,), ("relu",)), ((16, 12, 8), ("sigmoid", "tanh", "relu"))],
        ids=["depth1", "depth3"],
    )
    def test_optimizer_updates_once_per_train_step(self, monkeypatch, hidden, activations):
        counts = {"update": 0, "train_step": 0}
        original_update = nn_batched._BatchedAdam._update
        original_train_step = nn_batched.StackedMLPGroup.train_step

        def counting_update(self, *args):
            counts["update"] += 1
            return original_update(self, *args)

        def counting_train_step(self, *args):
            counts["train_step"] += 1
            return original_train_step(self, *args)

        monkeypatch.setattr(nn_batched._BatchedAdam, "_update", counting_update)
        monkeypatch.setattr(nn_batched.StackedMLPGroup, "train_step", counting_train_step)
        spec = MLPSpec(input_size=12, output_size=3, hidden_sizes=hidden, activations=activations)
        dataset = _dataset(seed=3, samples=200)
        config = TrainingConfig(
            epochs=20, batch_size=16, learning_rate=0.05, early_stopping_patience=2
        )
        _, histories = BatchedTrainer(config).fit(
            spec, [dataset.features] * 4, [dataset.labels] * 4, seeds=[0, 1, 2, 3]
        )
        assert counts["train_step"] > 0
        assert counts["update"] == counts["train_step"]
        # Early stops left some steps on a subset of rows (the gather path).
        assert len({history.epochs_run for history in histories}) > 1


class TestBatchedEvaluationEquivalence:
    def test_single_fold_batch_matches_loop(self, final_parameters):
        train = _dataset(seed=8, samples=150)
        test = _dataset(seed=9, samples=50)
        config = TrainingConfig(epochs=5, batch_size=16, early_stopping_patience=2)
        seeds = [5, 17, 29]
        batched = evaluate_single_fold_batch(
            SPEC,
            train.features,
            train.labels,
            test.features,
            test.labels,
            training_config=config,
            seeds=seeds,
        )
        for result, seed in zip(batched, seeds):
            scalar = evaluate_single_fold(
                SPEC,
                train.features,
                train.labels,
                test.features,
                test.labels,
                training_config=config,
                seed=seed,
            )
            assert result.accuracy == scalar.accuracy
            assert result.fold_accuracies == scalar.fold_accuracies
            assert result.parameter_count == scalar.parameter_count
            for batched_history, scalar_history in zip(result.histories, scalar.histories):
                _assert_histories_identical(batched_history, scalar_history)
        _assert_final_parameters_identical(final_parameters)

    def test_single_fold_batch_without_standardization(self, final_parameters):
        train = _dataset(seed=10, samples=120)
        test = _dataset(seed=11, samples=40)
        config = TrainingConfig(epochs=3, batch_size=32)
        batched = evaluate_single_fold_batch(
            SPEC,
            train.features,
            train.labels,
            test.features,
            test.labels,
            training_config=config,
            seeds=[4],
            standardize=False,
        )
        scalar = evaluate_single_fold(
            SPEC,
            train.features,
            train.labels,
            test.features,
            test.labels,
            training_config=config,
            seed=4,
            standardize=False,
        )
        assert batched[0].accuracy == scalar.accuracy
        _assert_final_parameters_identical(final_parameters)

    def test_kfold_batch_matches_loop(self, final_parameters):
        dataset = _dataset(seed=12, samples=110)
        config = TrainingConfig(epochs=3, batch_size=16, early_stopping_patience=2)
        seeds = [31, 57]
        batched = evaluate_kfold_batch(
            SPEC,
            dataset.features,
            dataset.labels,
            num_folds=5,
            training_config=config,
            seeds=seeds,
        )
        for result, seed in zip(batched, seeds):
            scalar = evaluate_kfold(
                SPEC,
                dataset.features,
                dataset.labels,
                num_folds=5,
                training_config=config,
                seed=seed,
            )
            assert result.accuracy == scalar.accuracy
            assert result.fold_accuracies == scalar.fold_accuracies
            for batched_history, scalar_history in zip(result.histories, scalar.histories):
                _assert_histories_identical(batched_history, scalar_history)
        _assert_final_parameters_identical(final_parameters)

    def test_kfold_batch_respects_small_group_chunks(self):
        dataset = _dataset(seed=13, samples=90)
        config = TrainingConfig(epochs=2, batch_size=16)
        chunked = evaluate_kfold_batch(
            SPEC,
            dataset.features,
            dataset.labels,
            num_folds=4,
            training_config=config,
            seeds=[8],
            max_group_size=1,
        )
        unchunked = evaluate_kfold_batch(
            SPEC,
            dataset.features,
            dataset.labels,
            num_folds=4,
            training_config=config,
            seeds=[8],
            max_group_size=16,
        )
        assert chunked[0].fold_accuracies == unchunked[0].fold_accuracies

    @pytest.mark.parametrize("block_bytes", [1, 30720], ids=["one-member", "two-members"])
    def test_kfold_batch_blockwise_prediction_matches_loop(
        self, monkeypatch, final_parameters, block_bytes
    ):
        # A small prediction budget splits every stacked prediction into
        # member blocks; early stopping leaves gaps in the active members.
        monkeypatch.setattr(nn_batched, "_PREDICT_BLOCK_BYTES", block_bytes)
        block_sizes = []
        original = nn_batched.StackedMLPGroup.predict

        def spying(group, inputs, rows=None):
            block_sizes.append(group.group_size if isinstance(rows, slice) else len(rows))
            return original(group, inputs, rows)

        monkeypatch.setattr(nn_batched.StackedMLPGroup, "predict", spying)
        dataset = _dataset(seed=16, samples=160)
        config = TrainingConfig(
            epochs=20, batch_size=16, learning_rate=0.05, early_stopping_patience=2
        )
        batched = evaluate_kfold_batch(
            SPEC, dataset.features, dataset.labels, num_folds=6, training_config=config, seeds=[5]
        )
        scalar = evaluate_kfold(
            SPEC, dataset.features, dataset.labels, num_folds=6, training_config=config, seed=5
        )
        assert batched[0].fold_accuracies == scalar.fold_accuracies
        for batched_history, scalar_history in zip(batched[0].histories, scalar.histories):
            _assert_histories_identical(batched_history, scalar_history)
        _assert_final_parameters_identical(final_parameters)
        assert len({history.epochs_run for history in scalar.histories}) > 1
        if block_bytes == 1:
            assert set(block_sizes) == {1}
        else:
            assert 2 in block_sizes and max(block_sizes) < 6

    def test_kfold_batch_builds_one_chunk_at_a_time(self, monkeypatch):
        # A chunk's fold arrays are released before the next chunk is built,
        # so peak memory holds one chunk, not every fold of every candidate.
        from repro.nn import evaluation as nn_evaluation

        previous_chunk = []
        live_when_building = []
        original_fold_run = nn_evaluation._fold_run
        original_train = nn_batched.train_and_score_batch

        def building(*args):
            live_when_building.append(sum(ref() is not None for ref in previous_chunk))
            return original_fold_run(*args)

        def training(spec, train_xs, *args, **kwargs):
            previous_chunk[:] = [weakref.ref(x) for x in train_xs]
            return original_train(spec, train_xs, *args, **kwargs)

        monkeypatch.setattr(nn_evaluation, "_fold_run", building)
        monkeypatch.setattr(nn_batched, "train_and_score_batch", training)
        dataset = _dataset(seed=17, samples=100)
        config = TrainingConfig(epochs=2, batch_size=16)
        batched = evaluate_kfold_batch(
            SPEC,
            dataset.features,
            dataset.labels,
            num_folds=5,
            training_config=config,
            seeds=[3, 4],
            max_group_size=4,
        )
        assert len(live_when_building) == 10
        assert live_when_building == [0] * 10
        scalar = evaluate_kfold(
            SPEC, dataset.features, dataset.labels, num_folds=5, training_config=config, seed=4
        )
        assert batched[1].fold_accuracies == scalar.fold_accuracies

    def test_mixed_topologies_batch_by_spec(self):
        # The worker groups by spec; here we assert each spec group alone
        # reproduces the scalar loop, covering a mixed-topology population.
        train = _dataset(seed=14, samples=100)
        test = _dataset(seed=15, samples=40)
        config = TrainingConfig(epochs=3, batch_size=16)
        specs = [
            MLPSpec(input_size=12, output_size=3, hidden_sizes=(8,), activations=("relu",)),
            MLPSpec(input_size=12, output_size=3, hidden_sizes=(24, 12), activations=("elu", "relu")),
        ]
        for spec in specs:
            batched = evaluate_single_fold_batch(
                spec,
                train.features,
                train.labels,
                test.features,
                test.labels,
                training_config=config,
                seeds=[2, 3],
            )
            for result, seed in zip(batched, [2, 3]):
                scalar = evaluate_single_fold(
                    spec,
                    train.features,
                    train.labels,
                    test.features,
                    test.labels,
                    training_config=config,
                    seed=seed,
                )
                assert result.accuracy == scalar.accuracy
