"""Host fingerprint, timing statistics, output checks and layer breakdowns."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import re
import resource
import statistics
import sys
import time

from spans import Span, self_times

__all__ = [
    "METRIC_NAME",
    "THREAD_VARIABLES",
    "REFERENCE_KERNEL_S",
    "HOST_ELASTICITY",
    "POOL_ELASTICITY",
    "host_fingerprint",
    "reference_kernel",
    "host_factor",
    "tail_percentile",
    "timing_summary",
    "Usage",
    "non_dominated",
    "layer_of",
    "layer_breakdown",
    "layer_self_shares",
    "phase_of",
]

#: What every metric name printed by the benchmark must match.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: BLAS/OpenMP thread variables, recorded as found; the benchmark sets none.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def host_fingerprint() -> dict:
    """CPUs, interpreter, numpy and BLAS build, start method, thread variables."""
    import numpy as np

    blas: dict = {}
    try:
        config = np.show_config(mode="dicts")
        found = config.get("Build Dependencies", {}).get("blas", {})
        blas = {
            "name": found.get("name", ""),
            "version": found.get("version", ""),
            "configuration": found.get("openblas configuration", ""),
        }
    except (TypeError, ValueError, AttributeError):
        blas = {"name": "unknown"}
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count() or 0
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": blas,
        # The platform default, read without fixing the default context.
        "start_method": multiprocessing.get_all_start_methods()[0],
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


#: Seconds :func:`reference_kernel` takes on the reference host: a 2-CPU x86
#: guest with Python 3.11 and numpy 2.4, running at its quietest.  Figures
#: scaled by :func:`host_factor` are what that host would give.
REFERENCE_KERNEL_S = 0.040

_KERNEL_A = None
_KERNEL_B = None


def reference_kernel() -> float:
    """Seconds one run of a fixed interpreter and small-matrix kernel takes now.

    A shared host runs the same code up to twice as slowly for stretches of
    seconds to minutes.  Timed between repetitions, this kernel measures how
    fast the host is running at that moment.  It mixes what the program
    spends its time on (dict, list and string work in the interpreter, small
    single-threaded matrix products) and calls nothing of the program, so a
    change to the program cannot move it.
    """
    import gc

    import numpy as np

    global _KERNEL_A, _KERNEL_B
    if _KERNEL_A is None:
        rng = np.random.default_rng(0)
        _KERNEL_A = rng.standard_normal((32, 64))
        _KERNEL_B = rng.standard_normal((64, 16))
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(120_000):
            key = i % 613
            table[key] = table.get(key, 0) + len(f"{key}:{i}")
        rows = [[float(j) for j in range(16)] for _ in range(600)]
        sum(max(row) for row in rows)
        for _ in range(450):
            np.maximum(_KERNEL_A @ _KERNEL_B, 0.0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


#: How closely the program's pace follows the kernel's.  Over ten-run sets
#: on the reference host, work in the benchmark's own process slowed by the
#: 0.5th to 0.8th power of the kernel's slowdown (0.7 on the warm sweep), and
#: work in pool processes, which spread over both cores and balance their
#: load, by about the 0.25th to 0.3rd power.
HOST_ELASTICITY = 0.7
POOL_ELASTICITY = 0.3


def host_factor(kernel_s: float, elasticity: float = HOST_ELASTICITY) -> float:
    """How many times slower than on the reference host the program ran.

    ``kernel_s`` is the reference kernel's time beside the work.
    """
    return (kernel_s / REFERENCE_KERNEL_S) ** elasticity


def tail_percentile(samples, min_beyond: int = 10, percentiles=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value, sample_count)`` using the nearest-rank
    value, or ``None`` when even the median has fewer samples beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in percentiles:
        rank = math.ceil(count * percentile / 100.0)
        if rank >= 1 and count - rank >= min_beyond:
            return percentile, ordered[rank - 1], count
    return None


def timing_summary(samples) -> dict:
    """Median plus the tail percentile chosen by :func:`tail_percentile`."""
    summary = {"count": len(samples), "median": statistics.median(samples) if samples else 0.0}
    tail = tail_percentile(samples)
    if tail is not None:
        summary["tail_percentile"], summary["tail"], _ = tail
    return summary


class Usage:
    """CPU seconds of this process and its reaped children since creation."""

    def __init__(self) -> None:
        self._self = resource.getrusage(resource.RUSAGE_SELF)
        self._children = resource.getrusage(resource.RUSAGE_CHILDREN)

    def elapsed(self) -> tuple[float, float]:
        now_self = resource.getrusage(resource.RUSAGE_SELF)
        now_children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (
            (now_self.ru_utime + now_self.ru_stime) - (self._self.ru_utime + self._self.ru_stime),
            (now_children.ru_utime + now_children.ru_stime)
            - (self._children.ru_utime + self._children.ru_stime),
        )


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def non_dominated(rows: list[dict], objectives: list[tuple[str, bool]]) -> bool:
    """Whether no frontier row dominates another under ``(name, maximize)``."""
    points = [
        [float(row[name]) if maximize else -float(row[name]) for name, maximize in objectives]
        for row in rows
    ]
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b)):
                return False
    return True


# ------------------------------------------------------------ breakdowns
def phase_of(spans: list[Span]) -> dict[int, str]:
    """Name of each span's root ancestor (its benchmark phase)."""
    by_id = {span.sid: span for span in spans}
    phases: dict[int, str] = {}
    for span in spans:
        chain = []
        node = span
        while node is not None and node.sid not in phases:
            chain.append(node.sid)
            node = by_id.get(node.parent) if node.parent is not None else None
        root = phases[node.sid] if node is not None else by_id[chain[-1]].name
        for sid in chain:
            phases[sid] = root
    return phases


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the part before the first dot."""
    return name.split(".", 1)[0]


def layer_breakdown(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed attributes.

    A call nested directly inside a span of the same name (a batch method
    falling back to the scalar one, a base-class method reached through
    ``super``) adds to the self time but is not counted again in calls,
    total or attributes.
    """
    by_id = {span.sid: span for span in spans}
    own = self_times(spans)
    layers: dict[str, dict] = {}
    for span in spans:
        layer = layers.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        layer["self_s"] += own[span.sid]
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None and parent.name == span.name:
            continue
        layer["calls"] += 1
        layer["total_s"] += span.duration
        for key, value in span.attrs.items():
            layer[key] = layer.get(key, 0) + value
    return layers


def layer_self_shares(breakdown: dict[str, dict]) -> dict[str, float]:
    """Each layer's share of all self time, largest first."""
    totals: dict[str, float] = {}
    for name, layer in breakdown.items():
        totals[layer_of(name)] = totals.get(layer_of(name), 0.0) + layer["self_s"]
    whole = sum(totals.values())
    return {
        layer: (value / whole if whole else 0.0)
        for layer, value in sorted(totals.items(), key=lambda item: -item[1])
    }
