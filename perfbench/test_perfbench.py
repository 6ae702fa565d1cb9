"""Unit tests of the benchmark's own helpers (no workload is run)."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import run
from measure import METRIC_NAME, layer_breakdown, tail_percentile
from spans import (
    Span,
    Target,
    Tracer,
    install,
    program_targets,
    self_times,
    uninstall,
    union_length,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ------------------------------------------------------------ percentiles
@pytest.mark.parametrize(
    ("count", "expected"),
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(count, expected):
    samples = [float(i) for i in range(1, count + 1)]
    chosen = tail_percentile(samples)
    if expected is None:
        assert chosen is None
        return
    percentile, value, sample_count = chosen
    assert percentile == expected
    assert sample_count == count
    assert sum(1 for sample in samples if sample > value) >= 10


def test_tail_percentile_uses_nearest_rank_of_unsorted_samples():
    samples = list(reversed([float(i) for i in range(1, 101)]))
    assert tail_percentile(samples) == (90.0, 90.0, 100)


# -------------------------------------------------------------- self time
def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_with_nested_and_cross_thread_overlapping_children():
    spans = [
        Span(sid=1, name="engine.run", start=0.0, end=10.0, tid=1),
        Span(sid=2, name="fitness.score", start=1.0, end=4.0, parent=1, tid=1),
        Span(sid=3, name="fitness.rescore", start=2.0, end=3.0, parent=2, tid=1),
        # An evaluation on a pool thread overlapping the scoring above.
        Span(sid=4, name="master.call", start=3.0, end=6.0, parent=1, tid=2),
        Span(sid=5, name="train", start=3.5, end=5.5, parent=4, pid=99, tid=3),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0 - 2.0)
    assert own[5] == pytest.approx(2.0)


def test_breakdown_counts_same_name_nesting_once():
    spans = [
        Span(sid=1, name="engine.run", start=0.0, end=10.0),
        Span(sid=2, name="train", start=1.0, end=4.0, parent=1, attrs={"candidates": 2}),
        Span(sid=3, name="train", start=2.0, end=3.0, parent=2, attrs={"candidates": 1}),
        Span(sid=4, name="train", start=5.0, end=6.0, parent=1, attrs={"candidates": 1}),
    ]
    layers = layer_breakdown(spans)
    assert layers["train"]["calls"] == 2
    assert layers["train"]["candidates"] == 3
    assert layers["train"]["total_s"] == pytest.approx(4.0)
    assert layers["train"]["self_s"] == pytest.approx(4.0)
    assert layers["engine.run"]["self_s"] == pytest.approx(6.0)


def test_call_inside_an_excluded_span_is_not_recorded(tmp_path):
    class Probe:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer(tmp_path)
    patches = install(
        tracer,
        [
            Target(Probe, "outer", "probe.outer"),
            Target(Probe, "inner", "probe.inner", unless_inside=("probe.outer",)),
        ],
    )
    try:
        assert Probe().outer() == 2
        assert Probe().inner() == 1
    finally:
        uninstall(tracer, patches)
    assert [span.name for span in tracer.spans] == ["probe.outer", "probe.inner"]
    assert tracer.spans[1].parent is None


def test_spans_on_other_threads_attach_to_the_open_scope(tmp_path):
    tracer = Tracer(tmp_path, scopes=("engine.run",))
    with tracer.span("engine.run") as scope:
        worker = threading.Thread(target=lambda: tracer.close(tracer.open("master.call")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        with tracer.span("fitness.score") as nested:
            pass
    call = next(span for span in tracer.spans if span.name == "master.call")
    assert call.parent == scope.sid
    assert call.tid != scope.tid
    assert nested.parent == scope.sid


# --------------------------------------------------------------- wrappers
def test_wrappers_leave_patched_objects_exactly_as_they_were(tmp_path):
    targets = program_targets()
    owners = {id(target.owner): target.owner for target in targets}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    tracer = Tracer(tmp_path)
    patches = install(tracer, targets)
    try:
        for target in targets:
            assert vars(target.owner)[target.attr] is not before[id(target.owner)][target.attr]
    finally:
        uninstall(tracer, patches)
    for key, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[key].keys()
        for attr, value in before[key].items():
            assert after[attr] is value, f"{owner!r}.{attr} was not restored"


def test_wrapped_call_records_a_span_and_returns_the_result(tmp_path):
    class Probe:
        def double(self, value):
            return 2 * value

    tracer = Tracer(tmp_path)
    patches = install(
        tracer,
        [Target(Probe, "double", "probe.double", after=lambda a, k, r, s: {"out": r})],
    )
    try:
        assert Probe().double(21) == 42
        assert Probe.double.__name__ == "double"
    finally:
        uninstall(tracer, patches)
    assert [(span.name, span.attrs) for span in tracer.spans] == [("probe.double", {"out": 42})]


# ------------------------------------------------------------- host speed
def _outcome(cpu_parent_s, cpu_children_s, kernel_s):
    from workloads import Outcome

    return Outcome(
        key="sub0", candidates=10, wall_s=2.0, cpu_parent_s=cpu_parent_s,
        cpu_children_s=cpu_children_s, hypervolume=1.0, best_accuracy=1.0, digest="",
        kernel_s=kernel_s,
    )


def test_work_in_the_benchmark_process_is_scaled_by_the_kernel():
    from measure import REFERENCE_KERNEL_S, host_factor

    factor = host_factor(2 * REFERENCE_KERNEL_S)
    assert 1.0 < factor <= 2.0
    assert host_factor(REFERENCE_KERNEL_S) == pytest.approx(1.0)
    slow = _outcome(1.0, 0.0, 2 * REFERENCE_KERNEL_S)
    assert run.reference_share(slow) == pytest.approx(factor)
    assert run.throughput([slow]) == pytest.approx(5.0 * factor)
    assert run.throughput([slow], at_reference=False) == pytest.approx(5.0)
    assert run.cpu_cost([slow]) == pytest.approx(100.0 / factor)


def test_pool_process_work_follows_the_kernel_less_closely():
    from measure import POOL_ELASTICITY, REFERENCE_KERNEL_S, host_factor

    factor = host_factor(2 * REFERENCE_KERNEL_S)
    pool = host_factor(2 * REFERENCE_KERNEL_S, POOL_ELASTICITY)
    assert 1.0 < pool < factor
    pooled = _outcome(0.0, 1.0, 2 * REFERENCE_KERNEL_S)
    assert run.reference_share(pooled) == pytest.approx(pool)
    half = _outcome(1.0, 1.0, 2 * REFERENCE_KERNEL_S)
    assert run.reference_share(half) == pytest.approx(1 / (0.5 / factor + 0.5 / pool))
    assert run.cpu_cost([half]) == pytest.approx(100.0 * (1 / factor + 1 / pool))


def test_throughput_and_cpu_cost_are_totals_over_repetitions():
    from measure import REFERENCE_KERNEL_S

    quick = _outcome(1.0, 0.0, REFERENCE_KERNEL_S)
    slow = _outcome(3.0, 0.0, REFERENCE_KERNEL_S)
    slow.wall_s = 6.0
    assert run.throughput([quick, slow]) == pytest.approx(20 / 8.0)
    assert run.cpu_cost([quick, slow]) == pytest.approx(1000.0 * 4.0 / 20)


def test_reference_kernel_leaves_the_collector_as_it_found_it():
    import gc

    from measure import reference_kernel

    assert gc.isenabled()
    assert reference_kernel() > 0
    assert gc.isenabled()


# ----------------------------------------------------------- metric names
def test_every_metric_name_is_well_formed():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert METRIC_NAME.fullmatch(metric["name"])
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
