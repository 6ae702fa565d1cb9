"""In-memory span tracing installed from outside the program.

The benchmark records where a run's time goes without changing the code it
measures: :func:`install` replaces a fixed list of public functions and
methods of ``repro`` with wrappers that open a :class:`Span` around each
call, and :func:`uninstall` puts every original object back.  Spans carry a
name, start and end (``time.perf_counter``, which is CLOCK_MONOTONIC and so
comparable across processes on Linux), the id of the span that caused them,
and the process and thread they ran on.  They stay in memory and are written
out once, at the end of the run.

Process-pool workers are forked after the wrappers are installed, so they
inherit them.  A forked child starts with an empty span list, and every time
one of its root spans ends it appends its spans to ``spans-<pid>.jsonl`` in
the tracer's spool directory; :meth:`Tracer.merge_children` reads them back
and links each child root span to the parent-process span that dispatched it
(same ``link`` key, enclosing interval).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = [
    "Span",
    "Target",
    "Tracer",
    "install",
    "uninstall",
    "self_times",
    "union_length",
    "program_targets",
]


@dataclass(eq=False)
class Span:
    """One traced call."""

    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    pid: int = 0
    tid: int = 0
    link: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "pid": self.pid,
            "tid": self.tid,
            "link": self.link,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans for one benchmark run.

    Recording takes no lock: ``list.append`` and ``next`` on an
    ``itertools.count`` are atomic under the interpreter lock, and a lock
    held by another thread at ``fork`` time would deadlock the child.
    """

    def __init__(self, spool_dir: str | Path, scopes: tuple[str, ...] = ()) -> None:
        self.spool_dir = Path(spool_dir)
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self.scopes = frozenset(scopes)
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Open spans named in ``scopes``, innermost last: the innermost one is
        # the parent of spans opened on threads that have no open span of
        # their own, such as the engine's evaluation pool threads.
        self._open_scopes: list[Span] = []

    @property
    def in_child(self) -> bool:
        return os.getpid() != self.pid

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, link: str = "") -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._open_scopes[-1] if self._open_scopes else None
        # Child-process ids live in their own range so merged ids never clash.
        sid = next(self._ids) + (os.getpid() << 32 if self.in_child else 0)
        span = Span(
            sid=sid,
            name=name,
            start=time.perf_counter(),
            parent=parent.sid if parent is not None else None,
            pid=os.getpid(),
            tid=threading.get_ident(),
            link=link,
        )
        stack.append(span)
        if name in self.scopes:
            self._open_scopes.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)
        if span.name in self.scopes:
            for index in range(len(self._open_scopes) - 1, -1, -1):
                if self._open_scopes[index] is span:
                    del self._open_scopes[index]
                    break
        if span.parent is None and self.in_child:
            self._spool()

    @contextlib.contextmanager
    def span(self, name: str, link: str = ""):
        """Record one span around a block of the benchmark's own code."""
        span = self.open(name, link)
        try:
            yield span
        finally:
            self.close(span)

    def _spool(self) -> None:
        spans, self.spans = self.spans, []
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")

    def after_fork(self) -> None:
        """Reset per-process state in a freshly forked child."""
        self.spans = []
        self._local = threading.local()
        self._open_scopes = []

    def merge_children(self) -> int:
        """Read spooled child spans back and link their roots; returns count."""
        dispatchers: dict[str, list[Span]] = {}
        for span in self.spans:
            if span.link:
                dispatchers.setdefault(span.link, []).append(span)
        merged = 0
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    span = Span(**json.loads(line))
                    if span.parent is None:
                        span.parent = _enclosing(dispatchers.get(span.link, ()), span)
                    self.spans.append(span)
                    merged += 1
            path.unlink()
        return merged


def _enclosing(candidates, span: Span) -> int | None:
    """Id of the latest-starting candidate whose interval contains ``span``."""
    best = None
    for candidate in candidates:
        if candidate.start <= span.start and span.end <= candidate.end:
            if best is None or candidate.start > best.start:
                best = candidate
    return best.sid if best is not None else None


# ---------------------------------------------------------------- analysis
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of the intervals
    its child spans cover, whichever thread or process they ran on."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration - union_length(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


# ---------------------------------------------------------------- wrappers
@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``name``.

    ``link`` maps the call's arguments to the key that ties a dispatched
    task to the span that dispatched it; ``before``/``after`` record span
    attributes (``after(args, kwargs, result, state) -> dict``).  A call
    made directly inside a span named in ``unless_inside`` is not recorded:
    its time stays with the caller.
    """

    owner: object
    attr: str
    name: str
    link: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None
    unless_inside: tuple[str, ...] = ()


_ACTIVE: list[Tracer] = []
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    for tracer in _ACTIVE:
        tracer.after_fork()


def _wrap(tracer: Tracer, target: Target, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if target.unless_inside:
            current = tracer.current()
            if current is not None and current.name in target.unless_inside:
                return original(*args, **kwargs)
        link = target.link(args, kwargs) if target.link is not None else ""
        state = target.before(args, kwargs) if target.before is not None else None
        span = tracer.open(target.name, link)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if target.after is not None:
            span.attrs.update(target.after(args, kwargs, result, state))
        return result

    return wrapper


def install(tracer: Tracer, targets: list[Target]) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the patch list :func:`uninstall` reverses.

    Only attributes the owner defines itself are patched, so an inherited
    method is never shadowed by a wrapper on the subclass.
    """
    global _FORK_HOOK_REGISTERED
    if not _FORK_HOOK_REGISTERED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOK_REGISTERED = True
    tracer.spool_dir.mkdir(parents=True, exist_ok=True)
    patches = []
    for target in targets:
        original = vars(target.owner)[target.attr]
        setattr(target.owner, target.attr, _wrap(tracer, target, original))
        patches.append((target.owner, target.attr, original))
    _ACTIVE.append(tracer)
    return patches


def uninstall(tracer: Tracer, patches: list[tuple[object, str, object]]) -> None:
    """Put back every original object :func:`install` replaced."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    if tracer in _ACTIVE:
        _ACTIVE.remove(tracer)


# ------------------------------------------------------- the program's layers
def _fused_candidates(requests) -> int:
    """Candidates that share their (topology, protocol) group with another.

    ``SimulationWorker.evaluate_batch`` trains such groups as one stacked
    GEMM; a group of one is a scalar training in a batch of one.
    """
    groups: dict[tuple, int] = {}
    for request in requests:
        dataset = request.dataset
        if dataset is None:
            continue
        spec = request.genome.mlp.to_spec(dataset.num_features, dataset.num_classes)
        key = (spec, request.evaluation_protocol, request.num_folds)
        groups[key] = groups.get(key, 0) + 1
    return sum(size for size in groups.values() if size > 1)


def _file_bytes(args, kwargs, result, state) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        return {"bytes": Path(path).stat().st_size}
    except (OSError, TypeError):
        return {"bytes": 0}


def program_targets() -> list[Target]:
    """The public entry points of every layer the benchmark reports on."""
    from repro.core import crossover, fitness, mutation, selection
    from repro.core.cache import EvaluationCache
    from repro.core.engine import EvolutionaryEngine
    from repro.core.fitness import FitnessEvaluator
    from repro.core.frontier import FrontierArchive
    from repro.core.search import CoDesignSearch
    from repro.datasets import registry
    from repro.datasets.shared import SharedDataset
    from repro.experiment import runner
    from repro.experiment.artifacts import RunArtifact
    from repro.hardware import vectorized
    from repro.hardware.fpga_model import FPGAPerformanceModel
    from repro.hardware.gpu_model import GPUPerformanceModel
    from repro.hardware.synthesis import SynthesisModel
    from repro.store.cache import StoreBackedCache
    from repro.store.store import EvaluationStore
    from repro.workers import master
    from repro.workers.simulation import SimulationWorker

    targets = [
        Target(runner.ExperimentRunner, "run", "experiment.run"),
        Target(registry, "load_dataset", "datasets.load"),
        Target(runner, "load_dataset", "datasets.load"),
        Target(RunArtifact, "save", "experiment.checkpoint", after=_file_bytes),
        Target(CoDesignSearch, "run", "search.run"),
        Target(EvolutionaryEngine, "run", "engine.run"),
        Target(mutation.CoDesignMutator, "mutate", "engine.breed"),
        Target(crossover.CoDesignCrossover, "recombine", "engine.breed"),
        Target(
            FrontierArchive,
            "observe",
            "frontier.observe",
            before=lambda args, kwargs: args[0].updates,
            after=lambda args, kwargs, result, state: {"updated": args[0].updates > state},
        ),
        Target(
            EvaluationCache,
            "lookup",
            "cache.lookup",
            after=lambda args, kwargs, result, state: {"hit": result is not None},
        ),
        Target(
            EvaluationCache,
            "lookup_or_reserve",
            "cache.lookup",
            after=lambda args, kwargs, result, state: {"hit": not result[1]},
        ),
        Target(
            EvaluationStore,
            "get",
            "store.get",
            after=lambda args, kwargs, result, state: {"hit": result is not None},
        ),
        Target(
            EvaluationStore,
            "put_many",
            "store.put",
            after=lambda args, kwargs, result, state: {"rows": int(result)},
        ),
        Target(StoreBackedCache, "flush", "store.flush"),
        Target(
            master.Master,
            "evaluate",
            "master.call",
            link=lambda args, kwargs: args[1].cache_key(),
            after=lambda args, kwargs, result, state: {"batch": 1},
        ),
        # ``Master.__call__`` is the same function object as ``evaluate``
        # bound under a second name, and the engine calls it that way.
        Target(
            master.Master,
            "__call__",
            "master.call",
            link=lambda args, kwargs: args[1].cache_key(),
            after=lambda args, kwargs, result, state: {"batch": 1},
        ),
        Target(
            master.Master,
            "evaluate_batch",
            "master.call",
            link=lambda args, kwargs: args[1][0].cache_key() if args[1] else "",
            after=lambda args, kwargs, result, state: {"batch": len(result)},
        ),
        # The task bodies run inline on the serial backend and in pool
        # processes otherwise; their link key ties them to the master call.
        Target(
            master,
            "_evaluate_worker",
            "workers.task",
            link=lambda args, kwargs: kwargs["request"].genome.cache_key(),
        ),
        Target(
            master,
            "_run_workers_serial",
            "workers.task",
            link=lambda args, kwargs: args[0][1].genome.cache_key(),
        ),
        Target(
            master,
            "_run_workers_serial_batch",
            "workers.task",
            link=lambda args, kwargs: args[0][1][0].genome.cache_key() if args[0][1] else "",
        ),
        Target(
            SimulationWorker,
            "evaluate",
            "train",
            after=lambda args, kwargs, result, state: {"candidates": 1, "fused": 0},
        ),
        Target(
            SimulationWorker,
            "evaluate_batch",
            "train",
            after=lambda args, kwargs, result, state: {
                "candidates": len(args[1]),
                "fused": _fused_candidates(args[1]),
            },
        ),
        Target(FPGAPerformanceModel, "evaluate", "hw_model"),
        Target(vectorized, "evaluate_workloads", "hw_model"),
        Target(SynthesisModel, "estimate", "synth"),
        Target(GPUPerformanceModel, "evaluate", "gpu_model"),
        Target(SharedDataset, "__init__", "datasets.share"),
    ]
    for cls in _defining(fitness, FitnessEvaluator, "score"):
        targets.append(Target(cls, "score", "fitness.score"))
    # ``score`` re-scores its reference set through ``score_population``;
    # that time belongs to ``score``, so only the engine's own re-scoring of
    # the population is recorded as ``fitness.rescore``.
    for cls in _defining(fitness, FitnessEvaluator, "score_population"):
        targets.append(
            Target(cls, "score_population", "fitness.rescore", unless_inside=("fitness.score",))
        )
    for attr in ("select", "select_pair"):
        for cls in _defining(selection, selection.SelectionScheme, attr):
            targets.append(Target(cls, attr, "engine.breed"))
    return targets


def _defining(module, base: type, attr: str) -> list[type]:
    """Classes in ``module`` derived from ``base`` that define ``attr`` themselves."""
    found: list[type] = []
    for cls in vars(module).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, base)
            and attr in vars(cls)
            and cls not in found
        ):
            found.append(cls)
    return found
