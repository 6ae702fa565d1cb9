"""Ablation — k-fold training: stacked folds vs the scalar fold loop.

Every k-fold candidate trains on the stacked trainer through
:meth:`SimulationWorker.evaluate`.  How many folds it stacks per group
depends on the dataset's size: up to 8 at or below ``2**19`` feature
elements (rows x features), one above.  Stacking pays where each step's GEMMs
are small, and a stacked chunk holds about two copies of each of its folds,
so wide or tall datasets train their folds in groups of one.  The scalar
fold loop (:func:`~repro.nn.reference.evaluate_kfold`, the reference the
stacked path is bit-identical to) is the baseline.

This benchmark runs one dataset on each side of that line, 10 folds, each
through the worker and through the scalar reference, and records seconds
per candidate (best of three passes) and the peak of traced allocations
(``tracemalloc``) while one candidate trains:

* ``credit_g_like`` (1000 x 20, below the line): the worker must stack folds
  and be at least 1.2x faster than the scalar loop (1.49x measured on a
  quiet 2-CPU host, 1.24x with the test suite running beside it).
* ``har_like`` at scale 0.1 (1030 x 561, above the line): the worker must
  train only groups of one and allocate no more than the scalar loop (10%
  slack).  Its speedup over the scalar loop is reported, not asserted.

Both cases assert the worker's fold accuracies equal the reference's.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.genome import CoDesignGenome, HardwareGenome, MLPGenome
from repro.datasets.registry import load_dataset
from repro.hardware.systolic import GridConfig
from repro.nn import batched as nn_batched
from repro.nn.reference import evaluate_kfold
from repro.nn.training import TrainingConfig
from repro.workers.base import EvaluationRequest
from repro.workers.simulation import SimulationWorker

from conftest import emit_table

NUM_FOLDS = 10
TRAINING = TrainingConfig(epochs=4, batch_size=32)
TOPOLOGIES = [
    ((64, 32), ("relu", "sigmoid")),
    ((32,), ("tanh",)),
    ((128,), ("elu",)),
]
#: (dataset, scale, whether the worker stacks folds into groups larger than one)
CASES = [("credit_g_like", 1.0, True), ("har_like", 0.1, False)]


def _requests(dataset) -> list[EvaluationRequest]:
    grid = GridConfig(rows=8, columns=8, interleave_rows=4, interleave_columns=4, vector_width=4)
    return [
        EvaluationRequest(
            genome=CoDesignGenome(
                mlp=MLPGenome(hidden_layers=layers, activations=activations),
                hardware=HardwareGenome(grid=grid, batch_size=256),
                gpu_batch_size=128,
            ),
            dataset=dataset,
            evaluation_protocol="10-fold",
            num_folds=NUM_FOLDS,
            training_config=TRAINING,
            seed=100 + index,
        )
        for index, (layers, activations) in enumerate(TOPOLOGIES)
    ]


def _scalar(request: EvaluationRequest) -> list[float]:
    dataset = request.dataset
    return evaluate_kfold(
        request.genome.mlp.to_spec(dataset.num_features, dataset.num_classes),
        dataset.features,
        dataset.labels,
        num_folds=request.num_folds,
        training_config=request.training_config,
        seed=request.seed,
    ).fold_accuracies


def _timed(fn, requests) -> tuple[float, list[list[float]]]:
    """Best of three passes, in seconds per candidate, and the fold accuracies."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        folds = [fn(request) for request in requests]
        best = min(best, (time.perf_counter() - start) / len(requests))
    return best, folds


def _peak_bytes(fn, request) -> int:
    tracemalloc.start()
    try:
        fn(request)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(("name", "scale", "stacked"), CASES, ids=[case[0] for case in CASES])
def test_kfold_routing(monkeypatch, name, scale, stacked):
    dataset = load_dataset(name, seed=0, scale=scale)
    requests = _requests(dataset)
    worker = SimulationWorker(gpu=None, measure_gpu=False)

    groups = []
    original = nn_batched.train_and_score_batch

    def counting(spec, train_xs, *args, **kwargs):
        groups.append(len(train_xs))
        return original(spec, train_xs, *args, **kwargs)

    monkeypatch.setattr(nn_batched, "train_and_score_batch", counting)

    def through_worker(request):
        return worker.evaluate(request).extras["fold_accuracies"]

    worker_s, worker_folds = _timed(through_worker, requests)
    scalar_s, scalar_folds = _timed(_scalar, requests)
    assert worker_folds == scalar_folds
    if stacked:
        assert max(groups) > 1
    else:
        assert set(groups) == {1}

    worker_peak = _peak_bytes(through_worker, requests[0])
    scalar_peak = _peak_bytes(_scalar, requests[0])
    rows = [
        {
            "dataset": name,
            "shape": "x".join(str(n) for n in dataset.features.shape),
            "route": "stacked" if stacked else "groups of one",
            "worker_s_per_candidate": round(worker_s, 4),
            "scalar_s_per_candidate": round(scalar_s, 4),
            "speedup": round(scalar_s / worker_s, 3),
            "worker_peak_mb": round(worker_peak / 2**20, 2),
            "scalar_peak_mb": round(scalar_peak / 2**20, 2),
        }
    ]
    emit_table(
        rows,
        columns=list(rows[0]),
        title=f"k-fold routing ablation: {name}",
        csv_name=f"ablation_kfold_routing_{name}.csv",
    )
    if stacked:
        assert scalar_s / worker_s >= 1.2
    else:
        assert worker_peak <= 1.1 * scalar_peak
