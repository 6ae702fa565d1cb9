"""Candidate evaluation: single-fold and k-fold accuracy measurement.

The paper reports two evaluation protocols:

* **10-fold cross-validation** following the OpenML estimation procedure for
  Credit-g, HAR, Phishing and Bioresponse (Table I), and
* **single fold** (pre-split train/test) for MNIST and Fashion-MNIST
  (Table II) and for the Pareto-frontier searches (Table IV).

Both train on the stacked :class:`~repro.nn.batched.BatchedTrainer`, one
seed per candidate, and both return an :class:`EvaluationResult` whose
fields map directly onto the metrics the ECAD fitness functions consume.
:func:`evaluate_single_fold_batch` and :func:`evaluate_kfold_batch` take a
list of seeds; one candidate is ``seeds=[seed]``.  A candidate's runs (its
folds, or its one train/test split) are pooled with those of every other
seed, grouped by shape and trained in chunks of at most ``max_group_size``
stacked runs, and only one chunk's arrays are alive at a time.

Both are bit-identical to the fold-by-fold scalar loop in
:mod:`repro.nn.reference` (:func:`~repro.nn.reference.evaluate_single_fold`,
:func:`~repro.nn.reference.evaluate_kfold`) at the same seeds, up to the
wall-clock fields.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .mlp import MLPSpec
from .preprocessing import StandardScaler
from .training import TrainingConfig, TrainingHistory

__all__ = [
    "EvaluationResult",
    "kfold_indices",
    "evaluate_single_fold_batch",
    "evaluate_kfold_batch",
]


@dataclass
class EvaluationResult:
    """Outcome of training + testing one MLP specification.

    Attributes
    ----------
    accuracy:
        Mean test accuracy over folds (single value for 1-fold evaluation).
    fold_accuracies:
        Per-fold accuracies, length 1 for single-fold evaluation.
    train_seconds:
        Total wall-clock seconds spent training and evaluating all folds.
    parameter_count:
        Trainable parameter count of the evaluated specification.
    histories:
        Per-fold training histories (per-epoch validation accuracy, epochs
        run, early stopping; no training loss).
    """

    accuracy: float
    fold_accuracies: list[float] = field(default_factory=list)
    train_seconds: float = 0.0
    parameter_count: int = 0
    histories: list[TrainingHistory] = field(default_factory=list)

    @property
    def accuracy_std(self) -> float:
        """Standard deviation of per-fold accuracy (0 for a single fold)."""
        if len(self.fold_accuracies) < 2:
            return 0.0
        return float(np.std(self.fold_accuracies))


def kfold_indices(num_samples: int, num_folds: int, seed: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Return ``num_folds`` (train_indices, test_indices) pairs.

    Folds are contiguous slices of a shuffled permutation, matching the
    standard cross-validation estimation procedure the paper cites.  Every
    sample appears in exactly one test fold.
    """
    if num_folds < 2:
        raise ValueError(f"num_folds must be >= 2, got {num_folds}")
    if num_samples < num_folds:
        raise ValueError(
            f"cannot split {num_samples} samples into {num_folds} folds"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_samples)
    fold_sizes = np.full(num_folds, num_samples // num_folds, dtype=int)
    fold_sizes[: num_samples % num_folds] += 1
    folds: list[tuple[np.ndarray, np.ndarray]] = []
    start = 0
    for size in fold_sizes:
        test_idx = order[start : start + size]
        train_idx = np.concatenate([order[:start], order[start + size :]])
        folds.append((train_idx, test_idx))
        start += size
    return folds


# ------------------------------------------------------------ batched paths
#: One training run of a batched evaluation, ``(shape, build)``: ``build()``
#: returns ``(train_x, train_y, test_x, test_y, seed)`` on demand.  Runs with
#: equal ``shape`` keys must build equally shaped arrays, so they can stack.
_Run = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int | None]
_LazyRun = tuple[Hashable, Callable[[], _Run]]


def _score_runs_batched(
    spec: MLPSpec,
    runs: list[_LazyRun],
    training_config: TrainingConfig,
    standardize: bool,
    max_group_size: int,
) -> list[tuple[float, "TrainingHistory"]]:
    """Batch-train heterogeneous runs of one spec, preserving input order.

    Runs are grouped by their ``shape`` key, chunked to ``max_group_size``
    and trained through :func:`~repro.nn.batched.train_and_score_batch`.  A
    chunk's runs are built and standardized (scaler fit on that run's own
    train split) only when the chunk trains, so at most one chunk's arrays
    are alive at a time.  Results are bit-identical to training each run on
    the scalar :class:`~repro.nn.reference.Trainer` with the same seed.
    """
    from .batched import train_and_score_batch

    if max_group_size < 1:
        raise ValueError(f"max_group_size must be >= 1, got {max_group_size}")

    groups: dict[Hashable, list[int]] = {}
    for position, (shape, _) in enumerate(runs):
        groups.setdefault(shape, []).append(position)

    results: list[tuple[float, "TrainingHistory"] | None] = [None] * len(runs)
    for positions in groups.values():
        for start in range(0, len(positions), max_group_size):
            chunk = positions[start : start + max_group_size]
            built = _prepare_chunk([runs[p][1] for p in chunk], standardize)
            scored = train_and_score_batch(
                spec,
                [run[0] for run in built],
                [run[1] for run in built],
                [run[2] for run in built],
                [run[3] for run in built],
                training_config=training_config,
                seeds=[run[4] for run in built],
            )
            # Release this chunk's arrays before the next chunk is built.
            del built
            for position, outcome in zip(chunk, scored):
                results[position] = outcome
    return results  # type: ignore[return-value]


def _prepare_chunk(builders: list[Callable[[], _Run]], standardize: bool) -> list[_Run]:
    """Build and standardize one chunk's runs.

    Each distinct input array is converted once: runs that share array
    objects (the shared pre-split path) keep sharing them after conversion,
    which lets the batched trainer gather every run's batches from the one
    matrix instead of a stacked copy.
    """
    label_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _flat_labels(labels: np.ndarray) -> np.ndarray:
        # The cache keeps ``labels`` alive, so its id cannot be reused.
        cached = label_cache.get(id(labels))
        if cached is None:
            cached = (labels, np.asarray(labels).reshape(-1))
            label_cache[id(labels)] = cached
        return cached[1]

    prepared = []
    for build in builders:
        train_x, train_y, test_x, test_y, seed = build()
        train_x = np.asarray(train_x, dtype=float)
        test_x = np.asarray(test_x, dtype=float)
        if standardize:
            scaler = StandardScaler().fit(train_x)
            train_x = scaler.transform(train_x)
            test_x = scaler.transform(test_x)
        prepared.append((train_x, _flat_labels(train_y), test_x, _flat_labels(test_y), seed))
    return prepared


def _fixed_run(split: tuple[np.ndarray, ...], seed: int | None) -> _Run:
    """A run over an already-built ``(train_x, train_y, test_x, test_y)`` split."""
    return (*split, seed)


def _fold_run(
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    seed: int | None,
) -> _Run:
    """One k-fold run's train/test split (the builder of a :data:`_LazyRun`)."""
    return features[train_idx], labels[train_idx], features[test_idx], labels[test_idx], seed


def evaluate_single_fold_batch(
    spec: MLPSpec,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    training_config: TrainingConfig | None = None,
    seeds: list[int | None] | None = None,
    standardize: bool = True,
    max_group_size: int = 8,
) -> list[EvaluationResult]:
    """Single-fold evaluation of many same-spec candidates on one train/test split.

    The candidates share the dataset arrays and differ only in seed (the
    master derives one per genome), so preprocessing is shared and training
    is fused across the group.  Returns one :class:`EvaluationResult` per
    seed, bit-identical to :func:`repro.nn.reference.evaluate_single_fold`
    called in a loop — except the wall-clock fields, which report each
    candidate's share of the fused group time.
    """
    training_config = training_config or TrainingConfig()
    if seeds is None:
        seeds = [None]
    start = time.perf_counter()
    split = (
        np.asarray(train_features, dtype=float),
        np.asarray(train_labels).reshape(-1),
        np.asarray(test_features, dtype=float),
        np.asarray(test_labels).reshape(-1),
    )
    runs: list[_LazyRun] = [(None, partial(_fixed_run, split, seed)) for seed in seeds]
    scored = _score_runs_batched(spec, runs, training_config, standardize, max_group_size)
    elapsed = time.perf_counter() - start
    per_candidate_seconds = elapsed / len(seeds)
    return [
        EvaluationResult(
            accuracy=score,
            fold_accuracies=[score],
            train_seconds=per_candidate_seconds,
            parameter_count=spec.parameter_count,
            histories=[history],
        )
        for score, history in scored
    ]


def evaluate_kfold_batch(
    spec: MLPSpec,
    features: np.ndarray,
    labels: np.ndarray,
    num_folds: int = 10,
    training_config: TrainingConfig | None = None,
    seeds: list[int | None] | None = None,
    standardize: bool = True,
    max_group_size: int = 8,
) -> list[EvaluationResult]:
    """k-fold evaluation of many same-spec candidates with fused training.

    Every candidate keeps its own fold split (``kfold_indices`` seeded by its
    seed) and per-fold seeds, exactly as
    :func:`repro.nn.reference.evaluate_kfold`; the candidate x fold runs are
    pooled and batch-trained together.  Returns one :class:`EvaluationResult`
    per seed, bit-identical to that fold-by-fold loop up to wall-clock fields.
    """
    training_config = training_config or TrainingConfig()
    if seeds is None:
        seeds = [None]
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels).reshape(-1)

    start = time.perf_counter()
    runs: list[_LazyRun] = []
    owners: list[tuple[int, int]] = []
    for candidate, seed in enumerate(seeds):
        folds = kfold_indices(features.shape[0], num_folds, seed=seed)
        for fold_number, (train_idx, test_idx) in enumerate(folds):
            fold_seed = None if seed is None else seed + fold_number
            build = partial(_fold_run, features, labels, train_idx, test_idx, fold_seed)
            runs.append(((train_idx.size, test_idx.size), build))
            owners.append((candidate, fold_number))
    scored = _score_runs_batched(spec, runs, training_config, standardize, max_group_size)
    elapsed = time.perf_counter() - start
    per_candidate_seconds = elapsed / len(seeds)

    results: list[EvaluationResult] = []
    for candidate in range(len(seeds)):
        fold_accuracies: list[float] = []
        histories: list[TrainingHistory] = []
        for (owner, _), (score, history) in zip(owners, scored):
            if owner == candidate:
                fold_accuracies.append(score)
                histories.append(history)
        results.append(
            EvaluationResult(
                accuracy=float(np.mean(fold_accuracies)),
                fold_accuracies=fold_accuracies,
                train_seconds=per_candidate_seconds,
                parameter_count=spec.parameter_count,
                histories=histories,
            )
        )
    return results
