"""Command-line interface to the ECAD reproduction.

Built around the unified experiment API: single searches (``run``),
Pareto-frontier searches (``frontier``), declarative grids with
checkpoint/resume (``sweep`` / ``resume``), and introspection of the open
registries (``datasets``, ``backends``, ``devices``).  Any configuration
field can be overridden from the command line with ``--set key=value``.

Examples
--------
Run a small accuracy+throughput search on the Credit-g analogue::

    ecad run --dataset credit-g --max-evaluations 60 --scale 0.2

Run the same search asynchronously, 4 candidate evaluations in flight on a
thread pool, with a generic config override::

    ecad run --dataset credit-g --backend threads --eval-workers 4 \
        --set nna.max_layers=3

Run a Pareto-native NSGA-II search under a DSP budget and print the
streamed frontier::

    ecad frontier --dataset credit-g --strategy nsga2 \
        --constraint "dsp_usage<=512"

Execute a whole experiment grid from a declarative spec, then resume it
after an interruption::

    ecad sweep --spec my_experiment.json --output-dir results/exp1
    ecad resume results/exp1

Remember evaluations across runs in a persistent store and warm-start the
next search from the best stored candidates::

    ecad run --dataset credit-g --store results/ecad.sqlite
    ecad run --dataset credit-g --store results/ecad.sqlite --warm-start 8
    ecad store stats --store results/ecad.sqlite
    ecad store export --store results/ecad.sqlite --output store.csv
    ecad store prune --store results/ecad.sqlite --keep-best 50

Run a long-lived co-design service and submit jobs to it::

    ecad serve --port 8282 --data-dir results/service
    ecad submit --server localhost:8282 --dataset credit-g --max-evaluations 60
    ecad jobs --server localhost:8282
    ecad result --server localhost:8282 JOB_ID --wait
    ecad cancel --server localhost:8282 JOB_ID

Run a strategy-vs-strategy tournament over the built-in scenario packs and
render the persistent leaderboard afterwards::

    ecad arena --output-dir results/arena
    ecad arena show --output-dir results/arena --csv leaderboard.csv
    ecad arena packs
    ecad arena --scenario edge-tiny-dsp --strategy nsga2 --strategy random \
        --set arena.seeds=[0,1] --dry-run

Inspect what is registered::

    ecad datasets
    ecad backends
    ecad devices
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .analysis.reporting import (
    format_scientific,
    format_table,
    save_rows_csv,
    stream_rows_csv,
)
from .core.callbacks import ProgressLogger
from .core.config import ECADConfig, OptimizationTargetConfig, ServiceConfig
from .core.errors import ConfigurationError, ServiceError, StoreError
from .core.pareto import knee_point, make_points
from .core.search import CoDesignSearch, close_active_searches
from .core.strategy import available_strategies
from .datasets.csv_io import load_dataset_csv
from .datasets.registry import available_datasets, dataset_entries, load_dataset
from .experiment import ExperimentRunner, ExperimentSpec, resume_experiment
from .hardware.device import FPGA_DEVICES, GPU_DEVICES
from .workers.backends import available_backends
from .workers.base import available_workers

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``ecad`` command."""
    parser = argparse.ArgumentParser(
        prog="ecad",
        description="Evolutionary co-design of MLPs and FPGA overlay hardware (ECAD reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a single co-design search")
    _add_search_arguments(run_parser)
    run_parser.add_argument("--progress-every", type=int, default=10, help="progress print interval (steps)")
    run_parser.add_argument("--output", default="", help="optional path to write results as JSON")
    run_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved search plan (strategy, objectives, store) without running",
    )

    frontier_parser = subparsers.add_parser(
        "frontier",
        help="run a Pareto-frontier search and print the streamed frontier",
    )
    _add_search_arguments(frontier_parser, default_strategy="nsga2")
    frontier_parser.add_argument(
        "--top", type=int, default=12, help="maximum number of frontier rows to print"
    )
    frontier_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved search plan (strategy, objectives, constraints) without running",
    )
    frontier_parser.add_argument("--progress-every", type=int, default=10, help="progress print interval (steps)")
    frontier_parser.add_argument("--output", default="", help="optional path to write the frontier as JSON")

    template_parser = subparsers.add_parser("template", help="generate a configuration template from a dataset")
    _add_dataset_arguments(template_parser)
    template_parser.add_argument("--output", required=True, help="path of the JSON configuration to write")
    template_parser.add_argument("--fpga", default="arria10", help="FPGA target")
    template_parser.add_argument("--gpu", default="titan_x", help="GPU baseline")

    sweep_parser = subparsers.add_parser(
        "sweep", help="execute a declarative experiment grid from a spec file"
    )
    sweep_parser.add_argument("--spec", required=True, help="path to an ExperimentSpec JSON file")
    sweep_parser.add_argument(
        "--output-dir",
        default="",
        help="artifact directory (default: the spec's output_dir, or experiments/<name>)",
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resume-aware run plan without executing anything",
    )
    sweep_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="re-run every cell even when a completed artifact exists",
    )
    sweep_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent evaluation store shared by every cell (overrides the "
        "spec's store_path)",
    )
    sweep_parser.add_argument(
        "--warm-start",
        type=int,
        default=None,
        metavar="N",
        help="seed each cell's population with up to N stored candidates "
        "(overrides the spec's warm_start)",
    )

    store_parser = subparsers.add_parser(
        "store", help="inspect and maintain a persistent evaluation store"
    )
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    stats_parser = store_subparsers.add_parser(
        "stats", help="summarize the store: problems, rows, best accuracies, size"
    )
    stats_parser.add_argument("--store", required=True, metavar="PATH", help="store file")
    prune_parser = store_subparsers.add_parser(
        "prune", help="delete stored evaluations to keep the store small"
    )
    prune_parser.add_argument("--store", required=True, metavar="PATH", help="store file")
    prune_parser.add_argument(
        "--keep-best",
        type=int,
        default=None,
        metavar="N",
        help="keep only the N highest-accuracy rows per problem digest",
    )
    prune_parser.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        metavar="D",
        help="delete rows written more than D days ago",
    )
    export_parser = store_subparsers.add_parser(
        "export", help="export every stored evaluation as a flat CSV"
    )
    export_parser.add_argument("--store", required=True, metavar="PATH", help="store file")
    export_parser.add_argument("--output", required=True, metavar="CSV", help="CSV path to write")
    rows_parser = store_subparsers.add_parser(
        "rows",
        help="list one problem's stored evaluations (the surrogate's training data)",
    )
    rows_parser.add_argument("--store", required=True, metavar="PATH", help="store file")
    rows_parser.add_argument(
        "--problem",
        required=True,
        metavar="DIGEST",
        help="problem digest (any unambiguous prefix, as printed by 'store stats')",
    )
    rows_parser.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="show at most N rows (accuracy-ordered; 0 = all)",
    )
    rows_parser.add_argument(
        "--output", default=None, metavar="CSV", help="also write every row to a CSV file"
    )
    migrate_parser = store_subparsers.add_parser(
        "migrate",
        help="copy a store into an N-shard layout (in place unless --output is given)",
    )
    migrate_parser.add_argument(
        "--store", required=True, metavar="PATH", help="store to migrate (file or sharded dir)"
    )
    migrate_parser.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="shard count of the new layout (rows are routed by problem-digest prefix)",
    )
    migrate_parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="write the sharded layout here instead of migrating in place",
    )
    migrate_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report the row counts and per-shard distribution without writing",
    )

    resume_parser = subparsers.add_parser(
        "resume", help="resume a checkpointed experiment from its output directory"
    )
    resume_parser.add_argument("output_dir", help="directory a previous 'ecad sweep' wrote")

    serve_parser = subparsers.add_parser(
        "serve", help="run the long-lived co-design job service (JSON HTTP API)"
    )
    # Every default comes from ServiceConfig, the one source of them.
    service_defaults = ServiceConfig()
    serve_parser.add_argument("--host", default=service_defaults.host, help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=service_defaults.port, help="bind port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--data-dir",
        default=service_defaults.data_dir,
        help="service state directory (job queue, per-job artifacts)",
    )
    serve_parser.add_argument(
        "--queue",
        default=service_defaults.queue_path,
        metavar="PATH",
        help="job queue SQLite file (default: <data-dir>/queue.sqlite)",
    )
    serve_parser.add_argument(
        "--store",
        default=service_defaults.store_path,
        metavar="PATH",
        help="shared persistent evaluation store used by every job",
    )
    serve_parser.add_argument(
        "--store-shards",
        type=int,
        default=service_defaults.store_shards,
        metavar="N",
        help="shard the shared store over N SQLite files so concurrent jobs "
        "on different problems never contend on one writer lock",
    )
    serve_parser.add_argument(
        "--max-jobs",
        type=int,
        default=service_defaults.max_concurrent_jobs,
        help="jobs executed concurrently",
    )
    serve_parser.add_argument(
        "--backend",
        default=service_defaults.backend,
        help=f"shared execution backend for candidate evaluation ({', '.join(available_backends())})",
    )
    serve_parser.add_argument(
        "--eval-workers",
        type=int,
        default=service_defaults.eval_workers,
        help="worker-pool size of the shared backend",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a co-design job to a running service"
    )
    _add_server_argument(submit_parser)
    submit_parser.add_argument(
        "--spec", default="", metavar="FILE", help="ExperimentSpec JSON file to submit as-is"
    )
    submit_parser.add_argument("--dataset", default="", help="registered dataset name (single-run shorthand)")
    submit_parser.add_argument(
        "--objective",
        default="codesign",
        help="objective spec for the single-run shorthand (e.g. accuracy, codesign, nsga2:codesign)",
    )
    submit_parser.add_argument("--seed", type=int, default=0, help="search seed")
    submit_parser.add_argument("--scale", type=float, default=None, help="sample-count scale for synthetic datasets")
    submit_parser.add_argument("--name", default="", help="job name (default: derived from the spec)")
    submit_parser.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="configuration override by dotted key (repeatable, JSON values accepted)",
    )
    submit_parser.add_argument(
        "--wait", action="store_true", help="block until the job finishes and print its result"
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None, help="give up after this many seconds with --wait"
    )

    jobs_parser = subparsers.add_parser("jobs", help="list jobs on a running service")
    _add_server_argument(jobs_parser)
    jobs_parser.add_argument("--state", default=None, help="filter by state (queued, running, done, failed, cancelled)")
    jobs_parser.add_argument("--limit", type=int, default=50, help="maximum rows to print")

    result_parser = subparsers.add_parser("result", help="fetch one job's status or final result")
    _add_server_argument(result_parser)
    result_parser.add_argument("job_id", help="job id returned by 'ecad submit'")
    result_parser.add_argument("--wait", action="store_true", help="block until the job reaches a terminal state")
    result_parser.add_argument("--timeout", type=float, default=None, help="give up after this many seconds with --wait")
    result_parser.add_argument("--output", default="", metavar="FILE", help="write the full result payload as JSON")

    cancel_parser = subparsers.add_parser("cancel", help="cancel a queued or running job")
    _add_server_argument(cancel_parser)
    cancel_parser.add_argument("job_id", help="job id returned by 'ecad submit'")

    arena_parser = subparsers.add_parser(
        "arena",
        help="strategy-vs-strategy tournaments over named scenario packs",
    )
    arena_parser.add_argument(
        "arena_action",
        nargs="?",
        choices=("run", "show", "packs"),
        default="run",
        help="run the tournament (default), show the stored leaderboard, "
        "or list the scenario catalog",
    )
    arena_parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        default=[],
        metavar="NAME",
        help="scenario pack to run (repeatable; default: every registered pack)",
    )
    arena_parser.add_argument(
        "--strategy",
        action="append",
        dest="strategies",
        default=[],
        metavar="NAME",
        help="competing strategy (repeatable; default: every arena-eligible strategy)",
    )
    arena_parser.add_argument(
        "--seed",
        action="append",
        dest="seeds",
        type=int,
        default=[],
        metavar="N",
        help="search seed (repeatable; default: 0)",
    )
    arena_parser.add_argument(
        "--output-dir",
        default="arena",
        help="tournament root directory (per-scenario checkpoints, store, leaderboard)",
    )
    arena_parser.add_argument(
        "--store",
        default="",
        metavar="PATH",
        help="shared evaluation store (default: <output-dir>/store.sqlite)",
    )
    arena_parser.add_argument(
        "--warm-start",
        type=int,
        default=0,
        metavar="N",
        help="seed each run's population with up to N stored candidates (0 disables)",
    )
    arena_parser.add_argument(
        "--backend",
        default="serial",
        help=f"shared execution backend ({', '.join(available_backends())})",
    )
    arena_parser.add_argument(
        "--eval-workers",
        type=int,
        default=1,
        metavar="N",
        help="in-flight candidate evaluations per search",
    )
    arena_parser.add_argument(
        "--run-parallelism",
        type=int,
        default=1,
        metavar="N",
        help="grid cells kept in flight per scenario (1 = sequential)",
    )
    arena_parser.add_argument(
        "--leaderboard",
        default="",
        metavar="PATH",
        help="leaderboard SQLite file (default: <output-dir>/leaderboard.sqlite)",
    )
    arena_parser.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="arena config override ('arena.' prefix optional, JSON values "
        "accepted, e.g. --set arena.seeds=[0,1])",
    )
    arena_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resume-aware tournament plan without executing anything",
    )
    arena_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="re-run every cell even when a completed artifact exists",
    )
    arena_parser.add_argument(
        "--csv", default="", metavar="PATH", help="also export the leaderboard as CSV"
    )
    arena_parser.add_argument(
        "--json",
        dest="json_path",
        default="",
        metavar="PATH",
        help="also export the leaderboard as JSON",
    )

    subparsers.add_parser("datasets", help="list the registered datasets")
    subparsers.add_parser("backends", help="list the registered execution backends and worker types")
    subparsers.add_parser("devices", help="list the registered FPGA and GPU devices")
    return parser


def _add_server_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        default="127.0.0.1:8282",
        metavar="HOST:PORT",
        help="address of a running 'ecad serve' instance",
    )


def _add_search_arguments(
    parser: argparse.ArgumentParser, default_strategy: str | None = None
) -> None:
    """Arguments shared by the single-search commands (``run``, ``frontier``)."""
    _add_dataset_arguments(parser)
    parser.add_argument("--config", default="", help="path to a JSON ECAD configuration file")
    parser.add_argument("--population", type=int, default=16, help="population size")
    parser.add_argument("--max-evaluations", type=int, default=80, help="total candidate evaluations")
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    parser.add_argument("--fpga", default="arria10", help="FPGA target (see 'ecad devices')")
    parser.add_argument("--gpu", default="titan_x", help="GPU baseline (see 'ecad devices', or '' to disable)")
    parser.add_argument(
        "--objective",
        choices=("accuracy", "codesign"),
        default="codesign",
        help="accuracy-only search or joint accuracy+throughput co-design",
    )
    parser.add_argument("--epochs", type=int, default=10, help="training epochs per candidate")
    parser.add_argument(
        "--strategy",
        default=None,
        help=f"search strategy ({', '.join(available_strategies())}; "
        f"default: the config file's value, else {default_strategy or 'evolutionary'})",
    )
    # Applied only when neither --strategy nor a config file chooses one.
    parser.set_defaults(fallback_strategy=default_strategy or "")
    parser.add_argument(
        "--constraint",
        action="append",
        dest="constraints",
        default=[],
        metavar="EXPR",
        help="feasibility constraint on a registered objective, e.g. "
        "--constraint dsp_usage<=512 (repeatable; violating candidates are infeasible)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend for candidate evaluation (see 'ecad backends'; "
        "default: serial, or the config file's value)",
    )
    parser.add_argument(
        "--eval-workers",
        type=int,
        default=None,
        help="candidate evaluations kept in flight at once (default: 1 = reproducible serial search)",
    )
    parser.add_argument(
        "--eval-batch",
        type=int,
        default=None,
        help="offspring fused into one batched dispatch so workers can run "
        "fused GEMM training over whole candidate groups (default: 1)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent evaluation store file (SQLite); evaluations are served "
        "from it across runs and fresh results written back",
    )
    parser.add_argument(
        "--warm-start",
        type=int,
        default=None,
        metavar="N",
        help="seed the initial population with up to N of the best stored "
        "candidates for this problem (requires --store or a config store path)",
    )
    parser.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="KEY=VALUE",
        help="override any configuration field by dotted key "
        "(e.g. --set nna.max_layers=3 --set hardware.fpga=stratix10); "
        "applied last, JSON values accepted",
    )


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="", help=f"registered dataset name ({', '.join(available_datasets())})")
    parser.add_argument("--csv", default="", help="path to a CSV dataset export (last column = label)")
    parser.add_argument("--test-csv", default="", help="optional pre-split test partition CSV")
    parser.add_argument("--scale", type=float, default=0.1, help="sample-count scale for synthetic datasets")
    parser.add_argument("--data-seed", type=int, default=0, help="seed for synthetic dataset generation")


def _resolve_dataset(args: argparse.Namespace):
    if args.csv:
        return load_dataset_csv(args.csv, test_path=args.test_csv or None)
    if args.dataset:
        return load_dataset(args.dataset, seed=args.data_seed, scale=args.scale)
    raise SystemExit("error: provide either --dataset or --csv")


# ---------------------------------------------------------------- registries
def _command_datasets() -> int:
    rows = [
        {
            "name": entry.name,
            "protocol": entry.evaluation_protocol,
            "paper_best_any": entry.paper_top_accuracy_any,
            "paper_best_mlp": entry.paper_top_accuracy_mlp,
            "paper_ecad": entry.paper_ecad_accuracy,
        }
        for entry in dataset_entries()
    ]
    print(format_table(rows, title="Registered datasets (reference accuracies from Tables I/II)"))
    return 0


def _command_backends() -> int:
    print("execution backends: " + ", ".join(available_backends()))
    print("worker types:       " + ", ".join(available_workers()))
    print("search strategies:  " + ", ".join(available_strategies()))
    return 0


def _command_devices() -> int:
    fpga_rows = [
        {
            "name": name,
            "device": device.name,
            "dsp": device.dsp_count,
            "clock_mhz": device.clock_mhz,
            "ddr_banks": device.ddr_banks,
            "peak_gflops": device.peak_gflops,
        }
        for name, device in FPGA_DEVICES.entries().items()
    ]
    gpu_rows = [
        {
            "name": name,
            "device": device.name,
            "peak_tflops": device.peak_tflops,
            "bandwidth_gbps": device.memory_bandwidth_gbps,
            "sms": device.streaming_multiprocessors,
        }
        for name, device in GPU_DEVICES.entries().items()
    ]
    print(format_table(fpga_rows, title="Registered FPGA devices"))
    print()
    print(format_table(gpu_rows, title="Registered GPU devices"))
    return 0


# ------------------------------------------------------------------ template
def _command_template(args: argparse.Namespace) -> int:
    dataset = _resolve_dataset(args)
    config = ECADConfig.template_for_dataset(dataset, fpga=args.fpga, gpu=args.gpu)
    config.save(args.output)
    print(f"wrote configuration template for {dataset.name!r} to {args.output}")
    return 0


# ----------------------------------------------------------------------- run
def resolve_run_config(args: argparse.Namespace):
    """Build the (dataset, config) pair for ``ecad run``.

    Precedence, lowest to highest: configuration file (or generated
    template), explicit CLI flags (``--backend`` / ``--eval-workers``),
    generic ``--set key=value`` overrides.
    """
    dataset = _resolve_dataset(args)
    if args.config:
        config = ECADConfig.load(args.config)
    else:
        optimization = (
            OptimizationTargetConfig.accuracy_only()
            if args.objective == "accuracy"
            else OptimizationTargetConfig.accuracy_and_throughput()
        )
        config = ECADConfig.template_for_dataset(
            dataset,
            fpga=args.fpga,
            gpu=args.gpu,
            optimization=optimization,
            population_size=args.population,
            max_evaluations=args.max_evaluations,
            seed=args.seed,
            training_epochs=args.epochs,
        )
    # Explicit CLI flags win over whatever the configuration file says.
    overrides = {}
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.eval_workers is not None:
        if args.eval_workers < 1:
            raise SystemExit(f"error: --eval-workers must be >= 1, got {args.eval_workers}")
        overrides["eval_parallelism"] = args.eval_workers
    if getattr(args, "eval_batch", None) is not None:
        if args.eval_batch < 1:
            raise SystemExit(f"error: --eval-batch must be >= 1, got {args.eval_batch}")
        overrides["eval_batch_size"] = args.eval_batch
    if getattr(args, "strategy", None):
        overrides["strategy"] = args.strategy
    elif not args.config and getattr(args, "fallback_strategy", ""):
        # No explicit flag and no config file: the command's own default
        # (e.g. nsga2 for `ecad frontier`) applies.
        overrides["strategy"] = args.fallback_strategy
    if getattr(args, "constraints", None):
        overrides["optimization"] = config.optimization.with_constraints(
            tuple(config.optimization.constraints) + tuple(args.constraints)
        )
    if getattr(args, "store", None) is not None or getattr(args, "warm_start", None) is not None:
        store = config.store
        if args.store is not None:
            store = replace(store, path=args.store)
        if args.warm_start is not None:
            store = replace(store, warm_start=args.warm_start)
        overrides["store"] = store
    if overrides:
        config = replace(config, **overrides)
    # Generic --set assignments are the most specific and win over both.
    if args.overrides:
        config = config.with_overrides(args.overrides)
    if config.store.warm_start > 0 and not config.store.active:
        raise SystemExit(
            "error: --warm-start needs a store to read from; "
            "pass --store PATH (or set store.path in the configuration)"
        )
    return dataset, config


def _print_search_plan(dataset, config) -> None:
    """The resolved plan both ``run --dry-run`` and ``frontier --dry-run`` print."""
    objectives = config.optimization.to_fitness_objectives()
    print(f"dataset:     {dataset.name}  ({dataset.num_samples} samples, "
          f"{dataset.num_features} features, {dataset.num_classes} classes)")
    print(f"strategy:    {config.strategy}")
    print("objectives:  " + ", ".join(
        f"{obj.name} ({'max' if obj.maximize else 'min'}, w={obj.weight:g})"
        for obj in objectives
    ))
    constraints = config.optimization.constraints
    print("constraints: " + (", ".join(constraints) if constraints else "(none)"))
    print(f"budget:      {config.max_evaluations} evaluations, "
          f"population {config.population_size}, seed {config.seed}")
    print(f"backend:     {config.backend} (eval_parallelism={config.eval_parallelism}, "
          f"eval_batch_size={config.eval_batch_size})")
    if config.store.active:
        mode = "readonly" if config.store.readonly else "read/write"
        layout = f", shards={config.store.shards}" if config.store.shards > 1 else ""
        print(f"store:       {config.store.path} ({mode}, "
              f"warm_start={config.store.warm_start}{layout})")
    else:
        print("store:       (disabled)")
    if config.strategy == "surrogate":
        surrogate = config.surrogate
        if surrogate.active:
            rungs = ",".join(str(e) for e in surrogate.rung_epochs) or "(none)"
            print(f"surrogate:   base={surrogate.base}, pool={surrogate.pool_size}, "
                  f"min_rows={surrogate.min_rows}, "
                  f"explore={surrogate.exploration_fraction:g}, "
                  f"confidence={surrogate.confidence:g}, rungs={rungs}")
        else:
            print("surrogate:   (disabled: runs the base strategy unchanged)")
    print("\ndry run: nothing executed")


def _command_run(args: argparse.Namespace) -> int:
    dataset, config = resolve_run_config(args)
    if args.dry_run:
        _print_search_plan(dataset, config)
        return 0
    search = CoDesignSearch(
        dataset, config=config, callbacks=[ProgressLogger(interval=args.progress_every)]
    )
    result = search.run()

    best = result.best_accuracy_candidate
    print()
    print(f"dataset: {dataset.name}  ({dataset.num_samples} samples, "
          f"{dataset.num_features} features, {dataset.num_classes} classes)")
    print(f"best accuracy: {result.best_accuracy:.4f}")
    print(f"  hidden layers: {list(best.genome.mlp.hidden_layers)}")
    print(f"  activations:   {list(best.genome.mlp.activations)}")
    print(f"  grid:          {best.genome.hardware.grid}")
    print(f"  FPGA outputs/s: {format_scientific(best.fpga_outputs_per_second)}")
    print(f"  GPU outputs/s:  {format_scientific(best.gpu_outputs_per_second)}")
    print()

    rows = [
        {
            "accuracy": candidate.accuracy,
            "fpga_outputs_per_s": candidate.fpga_outputs_per_second,
            "gpu_outputs_per_s": candidate.gpu_outputs_per_second,
            "hidden_layers": "x".join(str(h) for h in candidate.genome.mlp.hidden_layers),
            "grid": str(candidate.genome.hardware.grid),
        }
        for candidate in result.pareto_rows(count=4)
    ]
    print(format_table(rows, title="Pareto frontier (best rows)"))
    print()
    stats = result.statistics.to_dict()
    print(format_table([stats], title="Run statistics"))

    if args.output:
        payload = {
            "dataset": dataset.name,
            "best_accuracy": result.best_accuracy,
            "best_candidate": best.summary(),
            "pareto_rows": [candidate.summary() for candidate in result.pareto_rows(count=4)],
            "statistics": stats,
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote results to {args.output}")
    return 0


# ------------------------------------------------------------------ frontier
def _command_frontier(args: argparse.Namespace) -> int:
    dataset, config = resolve_run_config(args)
    objectives = config.optimization.to_fitness_objectives()
    if args.dry_run:
        _print_search_plan(dataset, config)
        return 0

    search = CoDesignSearch(
        dataset, config=config, callbacks=[ProgressLogger(interval=args.progress_every)]
    )
    result = search.run()
    archive = result.frontier_archive
    if archive is None or len(archive) == 0:
        print("the search streamed no feasible frontier points")
        return 1

    members = archive.members()
    columns = list(archive.objective_names) + ["hidden_layers", "grid", "fpga_batch"]
    rows = []
    for member in members[: max(args.top, 1)]:
        row = {name: value for name, value in member.vector.as_dict().items()}
        row["hidden_layers"] = "x".join(str(h) for h in member.evaluation.genome.mlp.hidden_layers)
        row["grid"] = str(member.evaluation.genome.hardware.grid)
        row["fpga_batch"] = member.evaluation.genome.hardware.batch_size
        rows.append(row)
    print()
    print(format_table(
        rows,
        columns=columns,
        title=f"Pareto frontier ({len(members)} points, strategy={config.strategy})",
    ))

    if len(members) >= 2:
        points = make_points(
            members, *(lambda m, i=i: m.vector.canonical[i] for i in range(len(objectives)))
        )
        knee = knee_point(points).payload
        knee_values = ", ".join(
            f"{name}={value:g}" for name, value in knee.vector.as_dict().items()
        )
        print(f"\nknee point (best balanced trade-off): {knee_values}")

    trace = " -> ".join(str(s.size) for s in archive.snapshots[-8:])
    print(f"frontier growth (last snapshots): {trace}")
    print()
    print(format_table([result.statistics.to_dict()], title="Run statistics"))

    if args.output:
        payload = {
            "dataset": dataset.name,
            "strategy": config.strategy,
            "objectives": archive.objective_names,
            "constraints": list(config.optimization.constraints),
            "frontier": archive.rows(),
            "snapshots": [
                {"step": s.step, "size": s.size, "evaluations_seen": s.evaluations_seen}
                for s in archive.snapshots
            ],
            "statistics": result.statistics.to_dict(),
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote frontier to {args.output}")
    return 0


# --------------------------------------------------------------------- store
def _command_store(args: argparse.Namespace) -> int:
    from .store import EvaluationStore

    if args.store_command == "stats":
        with EvaluationStore(args.store, readonly=True) as store:
            stats = store.stats()
            problems = store.problems()
        print(format_table([stats], title=f"Evaluation store {args.store}"))
        if problems:
            rows = [
                {
                    "problem": entry["problem_digest"][:12],
                    "evaluations": entry["evaluations"],
                    "best_accuracy": entry["best_accuracy"],
                    "stored_eval_seconds": entry["stored_eval_seconds"],
                }
                for entry in problems
            ]
            print()
            print(format_table(rows, title="Stored problems"))
        return 0
    if args.store_command == "prune":
        if args.keep_best is None and args.older_than_days is None:
            raise SystemExit("error: prune needs --keep-best and/or --older-than-days")
        older_than_seconds = (
            args.older_than_days * 86400.0 if args.older_than_days is not None else None
        )
        with EvaluationStore(args.store) as store:
            removed = store.prune(
                keep_best=args.keep_best, older_than_seconds=older_than_seconds
            )
            remaining = store.count()
        print(f"pruned {removed} stored evaluation(s), {remaining} left")
        return 0
    if args.store_command == "export":
        # Streamed row by row: a large (possibly sharded) store is never
        # materialized as one full-table list.
        with EvaluationStore(args.store, readonly=True) as store:
            exported = stream_rows_csv(store.export_rows_iter(), args.output)
        if not exported:
            print("the store holds no evaluations")
            return 1
        print(f"exported {exported} stored evaluation(s) to {args.output}")
        return 0
    if args.store_command == "rows":
        with EvaluationStore(args.store, readonly=True) as store:
            matches = [
                entry["problem_digest"]
                for entry in store.problems()
                if entry["problem_digest"].startswith(args.problem)
            ]
            if not matches:
                raise SystemExit(
                    f"error: no stored problem matches digest prefix {args.problem!r} "
                    "(see 'ecad store stats')"
                )
            if len(matches) > 1:
                raise SystemExit(
                    f"error: digest prefix {args.problem!r} is ambiguous: "
                    + ", ".join(digest[:12] for digest in matches)
                )
            rows = store.export_rows(problem_digest=matches[0])
        print(f"problem {matches[0]} holds {len(rows)} stored evaluation(s)")
        shown = rows if args.limit <= 0 else rows[: args.limit]
        table = [
            {
                "accuracy": row["accuracy"],
                "hidden_layers": "x".join(str(h) for h in row["hidden_layers"]),
                "grid": f"{row['grid']['rows']}x{row['grid']['columns']}"
                        f"v{row['grid']['vector_width']}",
                "fpga_outputs_per_s": row["fpga_outputs_per_second"],
                "train_seconds": row["train_seconds"],
                "error": (row.get("error") or "")[:30],
            }
            for row in shown
        ]
        if table:
            print()
            print(format_table(table, title=f"Top rows (showing {len(shown)} of {len(rows)})"))
        if args.output:
            flat = []
            for row in rows:
                record = dict(row)
                record["hidden_layers"] = "x".join(str(h) for h in record["hidden_layers"])
                record["activations"] = ",".join(record["activations"])
                for key, value in record.pop("grid", {}).items():
                    record[f"grid_{key}"] = value
                flat.append(record)
            save_rows_csv(flat, args.output, columns=list(flat[0].keys()))
            print(f"\nwrote {len(flat)} row(s) to {args.output}")
        return 0
    if args.store_command == "migrate":
        from .store import migrate_store

        report = migrate_store(
            args.store, shards=args.shards, output_path=args.output, dry_run=args.dry_run
        )
        distribution = " ".join(
            f"shard-{index:03d}:{count}"
            for index, count in enumerate(report["rows_per_shard"])
        )
        print(format_table(
            [{key: value for key, value in report.items() if key != "rows_per_shard"}],
            title="Store migration (planned)" if args.dry_run else "Store migration",
        ))
        print(f"\nrow distribution: {distribution}")
        if args.dry_run:
            print("\ndry run: nothing written")
        else:
            print(f"\nmigrated {report['rows']} row(s) into {report['shards']} shard(s) "
                  f"at {report['target']}")
            if "backup" in report:
                print(f"original store kept at {report['backup']}")
        return 0
    raise SystemExit(f"error: unknown store command {args.store_command!r}")


# --------------------------------------------------------------------- sweep
def _command_sweep(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(args.spec)
    if args.store is not None:
        spec = replace(spec, store_path=args.store)
    if args.warm_start is not None:
        spec = replace(spec, warm_start=args.warm_start)
    if spec.warm_start > 0 and not spec.store_path:
        raise SystemExit(
            "error: warm-start needs a store to read from; "
            "pass --store PATH (or set store_path in the spec)"
        )
    runner = ExperimentRunner(spec, output_dir=args.output_dir or None, printer=print)
    if args.dry_run:
        rows = runner.plan(resume=not args.no_resume)
        print(format_table(rows, title=f"Sweep plan for experiment {spec.name!r} "
                                       f"({spec.grid_size} cells)"))
        pending = sum(1 for row in rows if row["status"] == "pending")
        print(f"\n{pending} cell(s) to run, {len(rows) - pending} already completed "
              f"(artifacts in {runner.output_dir})")
        return 0
    report = runner.run(resume=not args.no_resume)
    print()
    print(report.summary_table())
    if report.failed:
        print(f"\n{len(report.failed)} cell(s) FAILED")
        return 1
    return 0


def _command_resume(args: argparse.Namespace) -> int:
    report = resume_experiment(args.output_dir, printer=print)
    print()
    print(report.summary_table())
    return 1 if report.failed else 0


# --------------------------------------------------------------------- arena
def _arena_config(args: argparse.Namespace):
    """Build the :class:`ArenaConfig` from CLI flags, then ``--set`` overrides."""
    from .scenarios import ArenaConfig

    config = ArenaConfig(
        scenarios=tuple(args.scenarios),
        strategies=tuple(args.strategies),
        seeds=tuple(args.seeds) or (0,),
        output_dir=args.output_dir,
        store_path=args.store,
        warm_start=args.warm_start,
        backend=args.backend,
        eval_parallelism=args.eval_workers,
        run_parallelism=args.run_parallelism,
        leaderboard_path=args.leaderboard,
    )
    if args.overrides:
        config = config.with_overrides(args.overrides)
    return config


def _print_leaderboard(rows: list[dict], args: argparse.Namespace, source: str) -> None:
    from .analysis.reporting import save_rows_json
    from .scenarios import LEADERBOARD_COLUMNS

    columns = list(LEADERBOARD_COLUMNS)
    if not rows:
        print(f"leaderboard at {source} is empty")
    else:
        print(format_table(rows, columns=columns, title=f"Arena leaderboard ({source})"))
    if args.csv:
        save_rows_csv(rows, args.csv, columns=columns)
        print(f"wrote {args.csv}")
    if args.json_path:
        save_rows_json(rows, args.json_path, columns=columns)
        print(f"wrote {args.json_path}")


def _command_arena(args: argparse.Namespace) -> int:
    import os

    from .scenarios import ArenaRunner, Leaderboard, available_scenarios, get_scenario

    if args.arena_action == "packs":
        rows = []
        for name in available_scenarios():
            pack = get_scenario(name)
            rows.append(
                {
                    "name": pack.name,
                    "datasets": ",".join(pack.datasets),
                    "objective": pack.objective,
                    "constraints": ",".join(pack.constraints) or "-",
                    "fpga": pack.fpga,
                    "gpu": pack.gpu,
                    "budget": f"{pack.max_evaluations} evals",
                    "description": pack.description,
                }
            )
        print(format_table(rows, title=f"Scenario packs ({len(rows)} registered)"))
        return 0

    config = _arena_config(args)
    if args.arena_action == "show":
        path = config.resolved_leaderboard_path
        if not os.path.exists(path):
            raise SystemExit(
                f"error: no leaderboard at {path}; run 'ecad arena' first "
                f"(or point --output-dir/--leaderboard at an existing tournament)"
            )
        with Leaderboard(path) as leaderboard:
            rows = leaderboard.rows()
        _print_leaderboard(rows, args, path)
        return 0

    runner = ArenaRunner(config, printer=print)
    if args.dry_run:
        rows = runner.plan(resume=not args.no_resume)
        scenario_count = len({row["scenario"] for row in rows})
        print(
            format_table(
                rows,
                columns=["scenario", "run_id", "dataset", "objective", "seed", "status"],
                title=f"Arena plan: {len(rows)} runs across {scenario_count} scenario(s)",
            )
        )
        pending = sum(1 for row in rows if row["status"] == "pending")
        print(f"\n{pending} run(s) to execute, {len(rows) - pending} already completed")
        print("dry run: nothing executed")
        return 0
    rows = runner.run(resume=not args.no_resume)
    print()
    _print_leaderboard(rows, args, config.resolved_leaderboard_path)
    failed = sum(1 for row in rows if row["status"] != "completed")
    if failed:
        print(f"\n{failed} leaderboard row(s) FAILED")
        return 1
    return 0


# ------------------------------------------------------------------- service
def service_config(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`ServiceConfig` an ``ecad serve`` command line asks for."""
    return ServiceConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        queue_path=args.queue,
        store_path=args.store,
        store_shards=args.store_shards,
        max_concurrent_jobs=args.max_jobs,
        backend=args.backend,
        eval_workers=args.eval_workers,
    )


def _command_serve(args: argparse.Namespace) -> int:
    from .service import CoDesignService

    service = CoDesignService(service_config(args), printer=print)
    service.start()
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\ninterrupted: re-queueing running jobs and shutting down")
        service.stop()
        return 130
    service.stop()
    return 0


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

    return ServiceClient(args.server)


def _job_row(job: dict) -> dict:
    stages = (job.get("stages") or {}).values()
    screened = sum(int(stage.get("surrogate_screened", 0)) for stage in stages)
    saved = sum(int(stage.get("real_evals_saved", 0)) for stage in stages)
    return {
        "job_id": job["job_id"],
        "name": job["name"],
        "state": job["state"],
        "cells": f"{job['completed_cells']}/{job['total_cells']}" if job["total_cells"] else "-",
        "screened": f"{screened} (-{saved})" if screened else "-",
        "attempts": job["attempts"],
        "error": (job.get("error") or "")[:40],
    }


def _command_submit(args: argparse.Namespace) -> int:
    from .core.config import parse_override

    if bool(args.spec) == bool(args.dataset):
        raise SystemExit("error: provide either --spec FILE or --dataset NAME")
    if args.spec:
        with open(args.spec) as handle:
            body: dict = {"spec": json.load(handle)}
    else:
        run: dict = {"dataset": args.dataset, "objective": args.objective, "seed": args.seed}
        if args.scale is not None:
            run["scale"] = args.scale
        if args.overrides:
            run["overrides"] = dict(parse_override(item) for item in args.overrides)
        body = {"run": run}
    if args.name:
        body["name"] = args.name

    client = _service_client(args)
    job = client.submit(body)
    print(f"submitted job {job['job_id']} ({job['name']}) -> {job['state']}")
    if not args.wait:
        print(f"poll it with: ecad result --server {args.server} {job['job_id']}")
        return 0
    payload = client.wait(job["job_id"], timeout=args.timeout)
    return _print_result(payload)


def _command_jobs(args: argparse.Namespace) -> int:
    client = _service_client(args)
    jobs = client.jobs(state=args.state, limit=args.limit)
    if not jobs:
        print("no jobs" + (f" in state {args.state!r}" if args.state else ""))
        return 0
    print(format_table([_job_row(job) for job in jobs], title=f"Jobs on {client.base_url}"))
    return 0


def _print_result(payload: dict) -> int:
    state = payload.get("state", "?")
    print(f"job {payload.get('job_id')} ({payload.get('name')}): {state}")
    result = payload.get("result") or {}
    if result:
        print(f"  cells: {result.get('completed_cells')}/{result.get('grid_size')} completed, "
              f"{result.get('failed_cells')} failed")
        print(f"  result digest: {result.get('result_digest')}")
    if payload.get("error"):
        print(f"  error: {payload['error']}")
    return 0 if state == "done" else 1


def _command_result(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.wait:
        payload = client.wait(args.job_id, timeout=args.timeout)
    else:
        finished, payload = client.result(args.job_id)
        if not finished:
            print(f"job {args.job_id}: {payload.get('state')} "
                  f"({payload.get('completed_cells')}/{payload.get('total_cells')} cells)")
            return 1
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote result payload to {args.output}")
    return _print_result(payload)


def _command_cancel(args: argparse.Namespace) -> int:
    client = _service_client(args)
    job = client.cancel(args.job_id)
    if job["state"] == "cancelled":
        print(f"job {args.job_id} cancelled")
    elif job.get("cancel_requested"):
        print(f"job {args.job_id} is {job['state']}; it will stop at the next checkpoint")
    else:
        print(f"job {args.job_id} already {job['state']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``ecad`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _command_datasets()
        if args.command == "backends":
            return _command_backends()
        if args.command == "devices":
            return _command_devices()
        if args.command == "template":
            return _command_template(args)
        if args.command == "run":
            return _command_run(args)
        if args.command == "frontier":
            return _command_frontier(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "resume":
            return _command_resume(args)
        if args.command == "store":
            return _command_store(args)
        if args.command == "arena":
            return _command_arena(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "submit":
            return _command_submit(args)
        if args.command == "jobs":
            return _command_jobs(args)
        if args.command == "result":
            return _command_result(args)
        if args.command == "cancel":
            return _command_cancel(args)
    except (ConfigurationError, StoreError, ServiceError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    except KeyboardInterrupt:
        # Close any in-flight search so its evaluation store flushes; cells
        # that already finished have their RunArtifact checkpoints on disk,
        # so `ecad resume` / `ecad sweep` pick up exactly where this stopped.
        closed = close_active_searches()
        note = f" ({closed} open search(es) closed, checkpoints flushed)" if closed else ""
        print(f"\ninterrupted{note}", file=sys.stderr)
        return 130
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
