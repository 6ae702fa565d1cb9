"""Real-workload benchmark of the ECAD co-design system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_serial_creditg --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` measures the end-to-end metrics with nothing patched.
Throughput and CPU cost are given at the speed of a reference host, by a
fixed kernel timed between repetitions (see ``reference_share``).
``--trace 1`` is the separate traced run: it wraps each layer's public entry
points (see ``spans.program_targets``) on alternate cycles of the
repetitions, reports per-layer metrics, the self-time breakdown and the
tracing overhead, and restores every wrapped function afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
including the host fingerprint and, for traced runs, every span, are
written under ``.perfbench/results/`` in the repository root, which git
ignores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"

#: End-to-end metrics: name -> unit.  Throughput and CPU cost are given at
#: the reference host's speed (see ``measure.reference_kernel``).
END_TO_END = {
    "setup_s": "s",
    "candidates_per_ref_s": "candidates/ref-s",
    "cpu_ref_ms_per_candidate": "ref-ms",
    "peak_rss_mb": "MB",
    "hypervolume": "outputs/s",
    "best_accuracy": "fraction",
}

#: Per-layer metrics of the traced run: name -> unit.  ``datasets.load_s``,
#: ``store.put_rows`` and ``store.flush_s`` are per traced set-up; ``cpu.*``
#: and ``host.*`` are per untraced repetition, ``host.*`` as measured on this
#: host; the rest are per traced repetition.
PER_LAYER = {
    "fitness.score_s": "s",
    "fitness.score_calls": "count",
    "fitness.rescore_s": "s",
    "frontier.observe_s": "s",
    "frontier.updates": "count",
    "engine.breed_s": "s",
    "engine.breed_calls": "count",
    "engine.self_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hit_ratio": "ratio",
    "store.put_rows": "count",
    "store.flush_s": "s",
    "experiment.checkpoint_s": "s",
    "experiment.checkpoint_bytes": "bytes",
    "master.calls": "count",
    "master.batch_mean": "candidates",
    "master.call_s": "s",
    "master.wait_s": "s",
    "train.s": "s",
    "train.calls": "count",
    "train.fused_ratio": "ratio",
    "hw_model.s": "s",
    "hw_model.calls": "count",
    "synth.s": "s",
    "gpu_model.s": "s",
    "datasets.load_s": "s",
    "datasets.share_s": "s",
    "cpu.parent_s": "s",
    "cpu.children_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_fraction": "ratio",
    "host.kernel_ms": "ms",
    "host.candidates_per_s": "candidates/s",
    "host.cpu_ms_per_candidate": "ms",
}

#: Spans that adopt work started on threads with no open span of their own.
SCOPES = ("bench.setup", "bench.rep", "experiment.run", "search.run", "engine.run")

#: Timed set-ups per untraced run; ``setup_s`` is their median.
SETUPS = {"cold_serial_creditg": 7, "cold_procs_mnist": 7, "warm_sweep_phishing": 3}

#: No run may take longer than this, whatever ``--seconds`` asks for.
HARD_LIMIT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="import the program, set up, and exit"
    )
    return parser.parse_args(argv)


def median_by_key(outcomes, value) -> dict:
    groups: dict = {}
    for outcome in outcomes:
        groups.setdefault(outcome.key, []).append(value(outcome))
    return {key: statistics.median(values) for key, values in groups.items()}


def reference_share(outcome) -> float:
    """How much faster the reference host would have run this repetition.

    The reference kernel runs in the benchmark's own process and measures the
    pace of the core that process runs on.  The share of the repetition's CPU
    time spent in that process is taken to have run ``host_factor`` times
    slower than on the reference host; the share spent in pool processes,
    which spread over every core and balance their work between them, follows
    the kernel less closely (``POOL_ELASTICITY``).
    """
    from measure import POOL_ELASTICITY, host_factor

    cpu = outcome.cpu_parent_s + outcome.cpu_children_s
    own = outcome.cpu_parent_s / cpu if cpu > 0 else 1.0
    pool = host_factor(outcome.kernel_s, POOL_ELASTICITY)
    return 1.0 / (own / host_factor(outcome.kernel_s) + (1.0 - own) / pool)


def throughput(outcomes, at_reference=True) -> float:
    """Candidates per second over all repetitions.

    ``at_reference`` scales each repetition to the reference host's speed
    (see :func:`reference_share`).
    """
    wall = sum(o.wall_s / (reference_share(o) if at_reference else 1.0) for o in outcomes)
    return sum(o.candidates for o in outcomes) / wall


def cpu_cost(outcomes, at_reference=True) -> float:
    """Parent plus pool-process CPU ms per candidate over all repetitions."""
    from measure import POOL_ELASTICITY, host_factor

    def cpu(o):
        if not at_reference:
            return o.cpu_parent_s + o.cpu_children_s
        return o.cpu_parent_s / host_factor(o.kernel_s) + o.cpu_children_s / host_factor(
            o.kernel_s, POOL_ELASTICITY
        )

    return 1000.0 * sum(cpu(o) for o in outcomes) / sum(o.candidates for o in outcomes)


def end_to_end_metrics(outcomes, setups, setup_kernels) -> dict:
    """The user-visible figures of an untraced run.

    Set-up time is the median of the set-ups, and throughput and CPU cost
    are totals over the run's repetitions, each set-up and repetition scaled
    to the reference host's speed: on a shared host the same work runs up to
    twice as slowly for minutes at a time, and only scaled figures repeat
    from run to run.  A set-up runs in one process, as the benchmark's own
    work does.  Search quality is the mean over the sub-searches, each an
    independent problem, of its median over repetitions.
    """
    from measure import host_factor, peak_rss_mb

    return {
        "setup_s": statistics.median(
            seconds / host_factor(kernel_s) for seconds, kernel_s in zip(setups, setup_kernels)
        ),
        "candidates_per_ref_s": throughput(outcomes),
        "cpu_ref_ms_per_candidate": cpu_cost(outcomes),
        "peak_rss_mb": peak_rss_mb(),
        "hypervolume": statistics.mean(median_by_key(outcomes, lambda o: o.hypervolume).values()),
        "best_accuracy": statistics.mean(
            median_by_key(outcomes, lambda o: o.best_accuracy).values()
        ),
    }


def per_layer_metrics(spans, traced_reps, outcomes, traced_outcomes) -> tuple[dict, dict]:
    from measure import layer_breakdown, phase_of

    phases = phase_of(spans)
    setup = layer_breakdown([s for s in spans if phases[s.sid] == "bench.setup"])
    reps = layer_breakdown([s for s in spans if phases[s.sid] == "bench.rep"])

    def rep(name, key="total_s"):
        return reps.get(name, {}).get(key, 0) / traced_reps

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lookups = reps.get("cache.lookup", {})
    gets = reps.get("store.get", {})
    master = reps.get("master.call", {})
    train = reps.get("train", {})
    metrics = {
        "fitness.score_s": rep("fitness.score"),
        "fitness.score_calls": rep("fitness.score", "calls"),
        "fitness.rescore_s": rep("fitness.rescore"),
        "frontier.observe_s": rep("frontier.observe"),
        "frontier.updates": rep("frontier.observe", "updated"),
        "engine.breed_s": rep("engine.breed"),
        "engine.breed_calls": rep("engine.breed", "calls"),
        "engine.self_s": rep("engine.run", "self_s"),
        "cache.lookups": rep("cache.lookup", "calls"),
        "cache.hit_ratio": ratio(lookups.get("hit", 0), lookups.get("calls", 0)),
        "store.get_s": rep("store.get"),
        "store.get_calls": rep("store.get", "calls"),
        "store.hit_ratio": ratio(gets.get("hit", 0), gets.get("calls", 0)),
        "store.put_rows": setup.get("store.put", {}).get("rows", 0),
        "store.flush_s": setup.get("store.flush", {}).get("total_s", 0.0),
        "experiment.checkpoint_s": rep("experiment.checkpoint"),
        "experiment.checkpoint_bytes": rep("experiment.checkpoint", "bytes"),
        "master.calls": rep("master.call", "calls"),
        "master.batch_mean": ratio(master.get("batch", 0), master.get("calls", 0)),
        "master.call_s": rep("master.call"),
        "master.wait_s": rep("master.call", "self_s"),
        "train.s": rep("train"),
        "train.calls": rep("train", "calls"),
        "train.fused_ratio": ratio(train.get("fused", 0), train.get("candidates", 0)),
        "hw_model.s": rep("hw_model"),
        "hw_model.calls": rep("hw_model", "calls"),
        "synth.s": rep("synth"),
        "gpu_model.s": rep("gpu_model"),
        "datasets.load_s": setup.get("datasets.load", {}).get("total_s", 0.0),
        "datasets.share_s": rep("datasets.share"),
        "cpu.parent_s": statistics.mean(o.cpu_parent_s for o in outcomes),
        "cpu.children_s": statistics.mean(o.cpu_children_s for o in outcomes),
        "trace.overhead_ratio": throughput(outcomes) / throughput(traced_outcomes),
    }
    total_self = sum(layer["self_s"] for layer in reps.values())
    breakdown = {
        name: dict(layer, self_share=layer["self_s"] / total_self if total_self else 0.0)
        for name, layer in sorted(reps.items(), key=lambda item: -item[1]["self_s"])
    }
    return metrics, breakdown


def timed_setup(workload, args, workdir) -> float:
    """Seconds one set-up of ``workload`` takes, in a fresh interpreter if it asks."""
    start = time.perf_counter()
    if workload.setup_in_fresh_process:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
        ]
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    else:
        workload.setup(args.seed, workdir)
    return time.perf_counter() - start


def run_workload(args) -> dict:
    from measure import (
        REFERENCE_KERNEL_S,
        host_fingerprint,
        layer_self_shares,
        reference_kernel,
        timing_summary,
    )
    from spans import Tracer, install, program_targets, uninstall
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUTPUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "tmp").mkdir(exist_ok=True)
    # Any temporary file the program or multiprocessing makes stays inside
    # the checkout.
    tempfile.tempdir = str(workdir / "tmp")

    tracer = Tracer(workdir / "spool", scopes=SCOPES) if args.trace else None
    targets = program_targets() if args.trace else []
    started = time.perf_counter()
    setups: list[float] = []
    setup_kernels: list[float] = []
    outcomes = []
    traced_outcomes = []
    try:
        if tracer is not None:
            patches = install(tracer, targets)
            try:
                with tracer.span("bench.setup"):
                    workload.setup(args.seed, workdir)
            finally:
                uninstall(tracer, patches)
        else:
            for _ in range(SETUPS[args.workload]):
                kernel_before = reference_kernel()
                setups.append(timed_setup(workload, args, workdir))
                setup_kernels.append((kernel_before + reference_kernel()) / 2)
            if workload.setup_in_fresh_process:
                workload.setup(args.seed, workdir)

        # One untimed repetition first: lazy imports and first-call costs
        # that a process pays once must not land in the first timed cycle.
        warmup = workload.rep(0)
        cycle = workload.subsearches
        cycles_needed = 2 if tracer is not None else 1
        deadline = time.perf_counter() + args.seconds
        index = 0
        # The reference kernel runs before the first repetition and after
        # each one; a repetition's host speed is the mean of the two beside it.
        kernel_before = reference_kernel()
        while True:
            traced = tracer is not None and (index // cycle) % 2 == 1
            if traced:
                patches = install(tracer, targets)
                try:
                    with tracer.span("bench.rep"):
                        outcome = workload.rep(index)
                finally:
                    uninstall(tracer, patches)
                traced_outcomes.append(outcome)
            else:
                outcome = workload.rep(index)
                outcomes.append(outcome)
            kernel_after = reference_kernel()
            outcome.kernel_s = (kernel_before + kernel_after) / 2
            kernel_before = kernel_after
            index += 1
            now = time.perf_counter()
            if now - started > HARD_LIMIT_S and (tracer is None or traced_outcomes):
                break
            if index >= cycle * cycles_needed and now >= deadline:
                break
    finally:
        workload.teardown()
        # Shared-memory datasets start multiprocessing's resource tracker;
        # stop it and wait for it, so that no process outlives the run.
        resource_tracker._resource_tracker._stop()
    if tracer is not None:
        tracer.merge_children()

    every = [warmup] + outcomes + traced_outcomes
    results = [(name, bool(ok)) for o in every for name, ok in o.checks.items()]
    digests: dict[str, set] = {}
    for outcome in every:
        digests.setdefault(outcome.key, set()).add(outcome.digest)
    if workload.deterministic:
        results.append(("digest_repeats", all(len(found) == 1 for found in digests.values())))
    checks: dict[str, bool] = {}
    for name, ok in results:
        checks[name] = checks.get(name, True) and ok
    run_digest = hashlib.sha256(
        "".join(sorted(min(found) for found in digests.values())).encode()
    ).hexdigest()
    attempted = sum(o.candidates for o in every) + len(results)
    failed = sum(o.failed_candidates for o in every) + sum(1 for _, ok in results if not ok)

    measured = {
        "kernel_ms": 1000.0 * statistics.median(o.kernel_s for o in outcomes),
        "candidates_per_s": throughput(outcomes, at_reference=False),
        "cpu_ms_per_candidate": cpu_cost(outcomes, at_reference=False),
    }
    if tracer is not None:
        metrics, breakdown = per_layer_metrics(
            tracer.spans, len(traced_outcomes), outcomes, traced_outcomes
        )
        metrics.update({f"host.{name}": value for name, value in measured.items()})
        shares = layer_self_shares(breakdown)
        metrics["failed_fraction"] = failed / attempted
        units = PER_LAYER
    else:
        metrics, breakdown, shares = end_to_end_metrics(outcomes, setups, setup_kernels), {}, {}
        units = END_TO_END

    latencies = [value for outcome in every for value in outcome.latencies]
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "digest": run_digest,
        "checks": checks,
        "setup_samples_s": setups,
        "setup_kernel_s": setup_kernels,
        "repetitions": [
            {
                "key": o.key,
                "candidates": o.candidates,
                "wall_s": o.wall_s,
                "cpu_parent_s": o.cpu_parent_s,
                "cpu_children_s": o.cpu_children_s,
                "hypervolume": o.hypervolume,
                "best_accuracy": o.best_accuracy,
                "digest": o.digest,
                "kernel_s": o.kernel_s,
            }
            for o in every
        ],
        "traced_repetitions": len(traced_outcomes),
        "as_measured": dict(measured, reference_kernel_ms=1000.0 * REFERENCE_KERNEL_S),
        "repetition_wall_s": timing_summary([o.wall_s for o in outcomes]),
        "candidate_latency_s": timing_summary(latencies),
        "breakdown": breakdown,
        "layer_self_share": shares,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": attempted,
        "failed": failed,
    }
    results = OUTPUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    if tracer is not None:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def print_record(record) -> None:
    host = record["host"]
    print(
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{len(record['repetitions'])} repetitions, digest {record['digest'][:16]}"
    )
    print(
        f"host: {host['usable_cpus']}/{host['cpu_count']} CPUs, python {host['python']}, "
        f"numpy {host['numpy']}, BLAS {host['blas'].get('name')} {host['blas'].get('version')}, "
        f"start method {host['start_method']}, thread variables {host['thread_variables']}"
    )
    latency = record["candidate_latency_s"]
    if latency["count"]:
        tail = (
            f", p{latency['tail_percentile']:g} {1000 * latency['tail']:.2f} ms"
            if "tail" in latency
            else ""
        )
        print(
            f"candidate latency: median {1000 * latency['median']:.2f} ms{tail} "
            f"({latency['count']} samples)"
        )
    measured = record["as_measured"]
    setup = (
        f"set-up median {statistics.median(record['setup_samples_s']):.3f} s, "
        if record["setup_samples_s"]
        else ""
    )
    print(
        f"as measured on this host: {setup}{measured['candidates_per_s']:.2f} candidates/s, "
        f"{measured['cpu_ms_per_candidate']:.2f} ms CPU per candidate; reference kernel "
        f"median {measured['kernel_ms']:.1f} ms (reference host {measured['reference_kernel_ms']:g} ms)"
    )
    failing = [name for name, ok in record["checks"].items() if not ok]
    print(f"checks: {'all passed' if not failing else 'FAILED ' + ', '.join(failing)}")
    if record["breakdown"]:
        print(f"{'span':<24}{'calls':>10}{'total_s':>12}{'self_s':>12}{'self share':>12}")
        for name, layer in record["breakdown"].items():
            print(
                f"{name:<24}{layer['calls']:>10}{layer['total_s']:>12.4f}"
                f"{layer['self_s']:>12.4f}{layer['self_share']:>12.1%}"
            )
        shares = ", ".join(f"{k} {v:.1%}" for k, v in record["layer_self_share"].items())
        print(f"self-time share by layer: {shares}")
    for name, metric in record["metrics"].items():
        print(f"{name:<28}{metric['value']:>16.6g} {metric['unit']}")


def result_line(record) -> str:
    return json.dumps(
        {
            "correct": all(record["checks"].values()) and record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(args) -> int:
    """Run every workload in its own process and print one combined table."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print()
    print(f"{'workload':<22}{'metric':<28}{'value':>16} unit")
    for key, metric in combined["metrics"].items():
        workload, name = key.split(".", 1)
        print(f"{workload:<22}{name:<28}{metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)} or all",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        WORKLOADS[args.workload].setup(args.seed, OUTPUT / "work")
        return 0
    record = run_workload(args)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
