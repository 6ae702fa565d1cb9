"""Engine callbacks and the search-history recorder.

The evolutionary engine reports progress through a small callback protocol so
that logging, live plotting, checkpointing or early termination can be added
without modifying the engine.  :class:`SearchHistory` is the built-in callback
every search installs: it records every evaluated candidate in order, which is
the raw material for the paper's scatter plots (Figure 2), the Pareto tables
(Table IV) and the run-time statistics (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .candidate import CandidateEvaluation
from .fitness import FitnessResult
from .population import Population

__all__ = ["Callback", "CallbackList", "SearchHistory", "ProgressLogger"]


class Callback:
    """Base class for engine callbacks; all hooks are optional no-ops.

    Dispatch guarantees (every engine configuration):

    * every hook fires on the engine's coordinating thread, never on an
      evaluation worker thread, so callbacks need no locking of their own;
    * ``on_evaluation`` fires exactly once per generated candidate (cache
      hits included), before the next offspring is bred; steady-state
      offspring fire in *completion* order, which with
      ``eval_parallelism > 1`` may differ from breed order, while the
      initial population and each generation fire in breed order;
    * in steady-state mode each ``on_evaluation`` is followed by the
      matching ``on_step_end`` (with a strictly increasing step) before the
      next candidate's hooks; the initial population fires
      ``on_evaluation`` only, and a generation fires one ``on_step_end``
      after all its offspring.
    """

    def on_search_start(self, population: Population) -> None:
        """Called once after the initial population has been evaluated."""

    def on_evaluation(self, evaluation: CandidateEvaluation, fitness: FitnessResult, step: int) -> None:
        """Called after every candidate evaluation (including cache hits)."""

    def on_step_end(self, population: Population, step: int) -> None:
        """Called after each steady-state replacement step."""

    def on_search_end(self, population: Population) -> None:
        """Called once when the search finishes."""


class CallbackList(Callback):
    """Dispatches every hook to a list of callbacks, in order."""

    def __init__(self, callbacks: list[Callback] | None = None) -> None:
        self.callbacks: list[Callback] = list(callbacks or [])

    def append(self, callback: Callback) -> None:
        """Add one callback to the end of the dispatch order."""
        self.callbacks.append(callback)

    def on_search_start(self, population: Population) -> None:
        for callback in self.callbacks:
            callback.on_search_start(population)

    def on_evaluation(self, evaluation: CandidateEvaluation, fitness: FitnessResult, step: int) -> None:
        for callback in self.callbacks:
            callback.on_evaluation(evaluation, fitness, step)

    def on_step_end(self, population: Population, step: int) -> None:
        for callback in self.callbacks:
            callback.on_step_end(population, step)

    def on_search_end(self, population: Population) -> None:
        for callback in self.callbacks:
            callback.on_search_end(population)


@dataclass
class HistoryRecord:
    """One entry of the search history: an evaluation and its fitness at a step."""

    step: int
    evaluation: CandidateEvaluation
    fitness: FitnessResult

    @property
    def accuracy(self) -> float:
        """Convenience accessor used by the figure benchmarks."""
        return self.evaluation.accuracy

    @property
    def fpga_outputs_per_second(self) -> float:
        """Convenience accessor used by the figure benchmarks."""
        return self.evaluation.fpga_outputs_per_second

    @property
    def gpu_outputs_per_second(self) -> float:
        """Convenience accessor used by the figure benchmarks."""
        return self.evaluation.gpu_outputs_per_second


@dataclass
class SearchHistory(Callback):
    """Records every evaluated candidate plus per-step best-fitness traces."""

    records: list[HistoryRecord] = field(default_factory=list)
    best_fitness_trace: list[float] = field(default_factory=list)
    best_accuracy_trace: list[float] = field(default_factory=list)

    # ------------------------------------------------------------ callbacks
    def on_evaluation(self, evaluation: CandidateEvaluation, fitness: FitnessResult, step: int) -> None:
        self.records.append(HistoryRecord(step=step, evaluation=evaluation, fitness=fitness))

    def on_step_end(self, population: Population, step: int) -> None:
        self.best_fitness_trace.append(population.best.fitness_value)
        self.best_accuracy_trace.append(
            max(member.evaluation.accuracy for member in population.members)
        )

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.records)

    def evaluations(self) -> list[CandidateEvaluation]:
        """All evaluations in the order they happened."""
        return [record.evaluation for record in self.records]

    def unique_evaluations(self) -> list[CandidateEvaluation]:
        """Evaluations of distinct genomes only (first occurrence kept)."""
        seen: set[str] = set()
        unique: list[CandidateEvaluation] = []
        for record in self.records:
            key = record.evaluation.genome.cache_key()
            if key in seen:
                continue
            seen.add(key)
            unique.append(record.evaluation)
        return unique

    def best_accuracy(self) -> float:
        """Highest accuracy ever evaluated (nan when empty)."""
        if not self.records:
            return float("nan")
        return max(record.evaluation.accuracy for record in self.records)

    def accuracy_throughput_series(self, device: str = "fpga") -> list[tuple[float, float]]:
        """(accuracy, outputs/s) pairs for every evaluation — Figure 2 raw data."""
        if device not in ("fpga", "gpu"):
            raise ValueError(f"device must be 'fpga' or 'gpu', got {device!r}")
        pairs: list[tuple[float, float]] = []
        for record in self.records:
            throughput = (
                record.fpga_outputs_per_second if device == "fpga" else record.gpu_outputs_per_second
            )
            pairs.append((record.accuracy, throughput))
        return pairs


class ProgressLogger(Callback):
    """Prints a short line every ``interval`` steps (used by the CLI)."""

    def __init__(self, interval: int = 25, printer=print) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = int(interval)
        self._printer = printer

    def on_step_end(self, population: Population, step: int) -> None:
        if step % self.interval != 0:
            return
        best = population.best
        self._printer(
            f"[step {step:5d}] best fitness {best.fitness_value:.4f} "
            f"accuracy {best.evaluation.accuracy:.4f} "
            f"fpga {best.evaluation.fpga_outputs_per_second:.3e} out/s"
        )
