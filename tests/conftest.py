"""Shared fixtures for the test suite.

Fixtures are deliberately small (tiny datasets, few epochs, small populations)
so the whole suite runs in a few minutes while still exercising every code
path end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidate import CandidateEvaluation
from repro.core.genome import (
    CoDesignGenome,
    CoDesignSearchSpace,
    HardwareGenome,
    HardwareSearchSpace,
    MLPGenome,
    MLPSearchSpace,
)
from repro.core.objectives import ObjectiveVector
from repro.datasets.base import Dataset
from repro.datasets.synthetic import SyntheticSpec, make_classification
from repro.hardware.device import ARRIA10_GX1150, TITAN_X
from repro.hardware.fpga_model import FPGAPerformanceModel
from repro.hardware.gpu_model import GPUPerformanceModel
from repro.hardware.systolic import GridConfig, GridSearchSpace
from repro.nn.mlp import MLPSpec
from repro.nn.training import TrainingConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG shared by randomized tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_dataset() -> Dataset:
    """A small, easy binary-classification dataset (fast to train on)."""
    spec = SyntheticSpec(
        name="tiny",
        num_features=12,
        num_classes=2,
        num_samples=160,
        class_separation=3.0,
        prototypes_per_class=1,
        noise_feature_fraction=0.2,
    )
    return make_classification(spec, seed=7)


@pytest.fixture
def tiny_presplit_dataset() -> Dataset:
    """A small dataset with a dedicated test partition (1-fold protocol)."""
    spec = SyntheticSpec(
        name="tiny_presplit",
        num_features=10,
        num_classes=3,
        num_samples=150,
        num_test_samples=60,
        class_separation=3.0,
        prototypes_per_class=1,
        noise_feature_fraction=0.2,
    )
    return make_classification(spec, seed=11)


@pytest.fixture
def small_mlp_spec() -> MLPSpec:
    """A small MLP specification matching the tiny dataset."""
    return MLPSpec(input_size=12, output_size=2, hidden_sizes=(16,), activations=("relu",))


@pytest.fixture
def fast_training_config() -> TrainingConfig:
    """Few epochs, early stopping off, for quick tests."""
    return TrainingConfig(
        epochs=5,
        batch_size=16,
        learning_rate=0.01,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )


@pytest.fixture
def small_grid() -> GridConfig:
    """A modest grid configuration that fits every catalogue device."""
    return GridConfig(rows=8, columns=8, interleave_rows=4, interleave_columns=4, vector_width=4)


@pytest.fixture
def small_search_space() -> CoDesignSearchSpace:
    """A compact co-design search space for engine tests."""
    return CoDesignSearchSpace(
        mlp_space=MLPSearchSpace(
            min_layers=1,
            max_layers=2,
            layer_sizes=(8, 16, 32),
            activations=("relu", "tanh"),
        ),
        hardware_space=HardwareSearchSpace(
            grid_space=GridSearchSpace(
                rows=(2, 4, 8),
                columns=(2, 4, 8),
                interleave_rows=(2, 4),
                interleave_columns=(2, 4),
                vector_width=(2, 4),
            ),
            batch_sizes=(256, 512, 1024),
        ),
        gpu_batch_sizes=(128, 256),
    )


@pytest.fixture
def sample_genome(small_grid) -> CoDesignGenome:
    """A fixed, feasible co-design genome."""
    return CoDesignGenome(
        mlp=MLPGenome(hidden_layers=(16, 8), activations=("relu", "tanh"), use_bias=True),
        hardware=HardwareGenome(grid=small_grid, batch_size=1024),
        gpu_batch_size=256,
    )


@pytest.fixture
def fpga_model() -> FPGAPerformanceModel:
    """Arria 10 FPGA performance model."""
    return FPGAPerformanceModel(ARRIA10_GX1150)


@pytest.fixture
def gpu_model() -> GPUPerformanceModel:
    """Titan X GPU performance model."""
    return GPUPerformanceModel(TITAN_X)


def make_fake_evaluation(
    genome: CoDesignGenome,
    accuracy: float,
    fpga_outputs: float = 0.0,
    gpu_outputs: float = 0.0,
) -> CandidateEvaluation:
    """Build a CandidateEvaluation with synthetic hardware metrics (test helper)."""
    from repro.hardware.results import HardwareMetrics

    def metrics(device: str, outputs: float) -> HardwareMetrics | None:
        if outputs <= 0:
            return None
        return HardwareMetrics(
            device_name=device,
            batch_size=1024,
            potential_gflops=100.0,
            effective_gflops=min(50.0, outputs / 1e5),
            total_time_seconds=1024 / outputs,
            outputs_per_second=outputs,
            latency_seconds=1e-4,
            efficiency=min(1.0, outputs / 1e7),
        )

    return CandidateEvaluation(
        genome=genome,
        accuracy=accuracy,
        parameter_count=genome.mlp.total_hidden_neurons * 10,
        fpga_metrics=metrics("fpga", fpga_outputs),
        gpu_metrics=metrics("gpu", gpu_outputs),
        evaluation_seconds=0.01,
    )


def plain_dominates(a, b) -> bool:
    """Pareto dominance of two maximization-form points, by the scalar definition.

    Both points become all-maximized, feasible
    :class:`~repro.core.objectives.ObjectiveVector`s, so this is
    ``ObjectiveVector.dominates`` (which raises on a length mismatch).
    """

    def vector(point) -> ObjectiveVector:
        names = tuple(f"o{i}" for i in range(len(point)))
        return ObjectiveVector(names=names, values=tuple(point), maximize=(True,) * len(point))

    return vector(a).dominates(vector(b))


@pytest.fixture
def fake_evaluator():
    """A cheap deterministic evaluator usable in place of the Master.

    Accuracy rises with network size (saturating), FPGA throughput falls with
    network size, giving a genuine accuracy/throughput trade-off for the
    engine to explore.
    """

    def evaluate(genome: CoDesignGenome) -> CandidateEvaluation:
        neurons = genome.mlp.total_hidden_neurons
        accuracy = min(0.99, 0.5 + 0.4 * (1.0 - np.exp(-neurons / 32.0)))
        fpga_outputs = 1e7 / (1.0 + neurons / 8.0) * (genome.hardware.grid.pe_count / 16.0)
        gpu_outputs = 1.2e6
        return make_fake_evaluation(genome, accuracy, fpga_outputs, gpu_outputs)

    return evaluate
