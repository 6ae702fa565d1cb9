"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module regenerates one table or figure from the paper's
evaluation section.  The runs are scaled down (smaller synthetic datasets,
fewer candidate evaluations, fewer training epochs) so that the whole harness
completes in minutes on a laptop, but the *structure* of each experiment — the
search objectives, the devices compared, the metrics reported — matches the
paper.  Each module prints the regenerated rows/series and asserts the
qualitative "shape" the paper reports.

Generated tables are also written as CSV files under ``benchmarks/out/``,
which git ignores, so running the harness leaves the working tree clean.  The
committed ``benchmarks/results/*.csv`` are reference snapshots of earlier
runs; copy a fresh table over its snapshot only on purpose.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.reporting import format_table, save_rows_csv
from repro.core.config import ECADConfig, OptimizationTargetConfig
from repro.core.search import CoDesignSearch
from repro.datasets.registry import load_dataset
from repro.nn.evaluation import evaluate_kfold_batch, evaluate_single_fold_batch
from repro.nn.mlp import MLPSpec
from repro.nn.training import TrainingConfig

#: Git-ignored directory where every benchmark writes its regenerated table as CSV.
RESULTS_DIR = Path(__file__).parent / "out"

#: Sample-count scale applied to every synthetic dataset in the harness.
DATASET_SCALES = {
    "mnist_like": 0.02,
    "fashion_mnist_like": 0.02,
    "credit_g_like": 0.30,
    "har_like": 0.03,
    "phishing_like": 0.03,
    "bioresponse_like": 0.04,
}

#: Training budget used for every candidate evaluation in the harness.
BENCH_TRAINING = TrainingConfig(
    epochs=8, batch_size=32, learning_rate=0.01, early_stopping_patience=3, validation_fraction=0.15
)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def bench_dataset(name: str, seed: int = 0):
    """Load a paper dataset at harness scale."""
    return load_dataset(name, seed=seed, scale=DATASET_SCALES.get(name, 0.05))


def bench_config(
    dataset,
    objective: str = "codesign",
    fpga: str = "arria10",
    gpu: str = "titan_x",
    population: int = 6,
    evaluations: int = 18,
    num_folds: int = 3,
    seed: int = 0,
) -> ECADConfig:
    """Build a small-but-structurally-faithful search configuration."""
    optimization = (
        OptimizationTargetConfig.accuracy_only()
        if objective == "accuracy"
        else OptimizationTargetConfig.accuracy_and_throughput()
    )
    return ECADConfig.template_for_dataset(
        dataset,
        fpga=fpga,
        gpu=gpu,
        optimization=optimization,
        population_size=population,
        max_evaluations=evaluations,
        seed=seed,
        num_folds=num_folds,
        training_epochs=BENCH_TRAINING.epochs,
        training_batch_size=BENCH_TRAINING.batch_size,
    )


def run_search(dataset, config: ECADConfig):
    """Run a CoDesignSearch with the harness training budget."""
    search = CoDesignSearch(dataset, config=config)
    # Swap the template's default training configuration for the faster
    # harness one (higher learning rate so few epochs still converge).
    master = search.build_master()
    master.training_config = BENCH_TRAINING
    engine = search.build_engine(evaluator=master)
    outcome = engine.run()
    return search._package(outcome)


def baseline_mlp_accuracy(dataset, num_folds: int = 3, seed: int = 0) -> float:
    """Fixed-topology baseline: one hidden layer of 100 ReLU units (the
    sklearn ``MLPClassifier`` default the paper's tables quote)."""
    spec = MLPSpec(
        input_size=dataset.num_features,
        output_size=dataset.num_classes,
        hidden_sizes=(100,),
        activations=("relu",),
    )
    if dataset.has_test_split:
        (result,) = evaluate_single_fold_batch(
            spec,
            dataset.features,
            dataset.labels,
            dataset.test_features,
            dataset.test_labels,
            training_config=BENCH_TRAINING,
            seeds=[seed],
        )
    else:
        (result,) = evaluate_kfold_batch(
            spec,
            dataset.features,
            dataset.labels,
            num_folds=num_folds,
            training_config=BENCH_TRAINING,
            seeds=[seed],
        )
    return result.accuracy


def emit_table(rows, columns, title: str, csv_name: str) -> None:
    """Print a regenerated table and persist it as CSV."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    print()
    print(format_table(rows, columns=columns, title=title))
    save_rows_csv(rows, RESULTS_DIR / csv_name, columns=columns)
