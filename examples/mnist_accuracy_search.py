"""Accuracy-only architecture search on the MNIST analogue (Tables I/II flow).

The paper's Table I/II results come from running the evolutionary search with
accuracy as the only fitness criterion.  This example does the same on the
synthetic MNIST analogue, compares the evolved network against a fixed
single-hidden-layer baseline (the ``MLPClassifier`` topology the paper's
tables quote), and then shows what the evolved network would cost on the
Stratix 10 overlay and the Titan X — i.e. what you give up by ignoring
hardware during the search.

Run with::

    python examples/mnist_accuracy_search.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_scientific, format_table
from repro.core.config import ECADConfig, OptimizationTargetConfig
from repro.core.search import CoDesignSearch
from repro.datasets.registry import dataset_entry, load_dataset
from repro.hardware.device import STRATIX10_2800, TITAN_X
from repro.hardware.fpga_model import FPGAPerformanceModel
from repro.hardware.gpu_model import GPUPerformanceModel
from repro.hardware.systolic import GridSearchSpace
from repro.nn.evaluation import evaluate_single_fold_batch
from repro.nn.mlp import MLPSpec
from repro.nn.training import TrainingConfig


def main() -> None:
    dataset = load_dataset("mnist", seed=0, scale=0.02)
    entry = dataset_entry("mnist")
    print(f"dataset: {dataset}")
    print(f"paper reference accuracies: best MLP {entry.paper_top_accuracy_mlp}, "
          f"ECAD {entry.paper_ecad_accuracy}")

    training = TrainingConfig(epochs=8, batch_size=32, learning_rate=0.01)

    # Fixed baseline: one hidden layer of 100 ReLU neurons.
    baseline_spec = MLPSpec(
        input_size=dataset.num_features,
        output_size=dataset.num_classes,
        hidden_sizes=(100,),
        activations=("relu",),
    )
    (baseline,) = evaluate_single_fold_batch(
        baseline_spec,
        dataset.features,
        dataset.labels,
        dataset.test_features,
        dataset.test_labels,
        training_config=training,
        seeds=[0],
    )
    print(f"\nfixed 100-neuron MLP baseline accuracy: {baseline.accuracy:.4f}")

    # Accuracy-only evolutionary search.
    config = ECADConfig.template_for_dataset(
        dataset,
        optimization=OptimizationTargetConfig.accuracy_only(),
        population_size=6,
        max_evaluations=16,
        training_epochs=training.epochs,
        seed=0,
    )
    result = CoDesignSearch(dataset, config=config).run()
    best = result.best_accuracy_candidate
    print(f"ECAD evolved MLP accuracy:              {result.best_accuracy:.4f}")
    print(f"  evolved hidden layers: {list(best.genome.mlp.hidden_layers)}")
    print(f"  evolved activations:   {list(best.genome.mlp.activations)}")

    # What the evolved network costs on hardware (outside the fitness loop).
    spec = best.genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
    fpga = FPGAPerformanceModel(STRATIX10_2800)
    grid, fpga_metrics = fpga.best_grid_for(
        spec, GridSearchSpace().feasible_configs(STRATIX10_2800)[::7], batch_size=2048
    )
    gpu_metrics = GPUPerformanceModel(TITAN_X).evaluate(spec, batch_size=512)
    rows = [
        {
            "device": "Stratix 10 2800 (best grid)",
            "outputs_per_s": fpga_metrics.outputs_per_second,
            "efficiency": round(fpga_metrics.efficiency, 3),
            "latency_us": round(fpga_metrics.latency_seconds * 1e6, 1),
        },
        {
            "device": "Titan X",
            "outputs_per_s": gpu_metrics.outputs_per_second,
            "efficiency": round(gpu_metrics.efficiency, 4),
            "latency_us": round(gpu_metrics.latency_seconds * 1e6, 1),
        },
    ]
    print()
    print(f"best overlay grid for the evolved network: {grid}")
    print(format_table(rows, title="Hardware cost of the accuracy-optimal network"))
    print(f"\nFPGA vs GPU throughput: "
          f"{format_scientific(fpga_metrics.outputs_per_second)} vs "
          f"{format_scientific(gpu_metrics.outputs_per_second)} outputs/s")


if __name__ == "__main__":
    main()
