"""The ECAD configuration file.

Section III of the paper: once a problem is identified, "a dataset will be
exported into a Comma Separated Value (CSV) tabular data format, in addition a
configuration file will be created and will contain information on (a) the
general NNA structure including input and output sizes, initial number of
layers and neurons, (b) Hardware target including reconfigurable hardware
device type, DSP count, memory size and number of blocks, (c) optimization
targets such as accuracy, throughput, latency, and floating-point operations.
Note that the configuration file can be generated automatically based on an
existing template configuration file and the dataset."

:class:`ECADConfig` is that file in object form: it can be loaded from / saved
to JSON (through the strict :class:`JSONConfig` codec every configuration
class shares), validated, and turned into the concrete objects the search needs
(search space, fitness objectives, engine configuration, devices).  The
``template_for_dataset`` constructor implements the automatic generation from
a dataset.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Iterable, Mapping, get_args, get_origin, get_type_hints

from ..datasets.base import Dataset, DatasetInfo
from ..hardware.device import FPGADevice, GPUDevice, fpga_device, gpu_device
from ..nn.training import TrainingConfig
from .engine import EngineConfig
from .errors import ConfigurationError
from .genome import CoDesignSearchSpace, HardwareSearchSpace, MLPSearchSpace
from .mutation import MutationConfig
from .objectives import ObjectiveSpec

__all__ = [
    "JSONConfig",
    "NNAStructureConfig",
    "HardwareTargetConfig",
    "OptimizationTargetConfig",
    "StoreConfig",
    "SurrogateConfig",
    "ServiceConfig",
    "ECADConfig",
    "parse_override",
    "parse_override_value",
]


#: Nouns for field types in decoding errors (``float`` fields accept ints).
_TYPE_NOUNS = {bool: "bool", int: "int", float: "number", str: "string", dict: "object"}


class JSONConfig:
    """Strict JSON codec shared by the frozen configuration dataclasses.

    Every configuration class (this module's sections, ``ExperimentSpec``,
    ``ArenaConfig``) inherits ``to_dict`` / ``from_dict`` / ``save`` /
    ``load`` / ``with_overrides`` from here; the dataclass fields are the
    only schema.  Decoding walks the fields and their type hints: a missing
    key takes the field default, an unknown key is rejected, a nested
    dataclass is a section, ``X | None`` accepts ``null``, and every other
    value must already have its field's type — ``bool`` only a bool, ``int``
    an int but not a bool, ``float`` an int or float (stored as float),
    ``str`` only a string, a tuple only a list or tuple (each item checked).
    Anything else raises :class:`ConfigurationError` naming the dotted key.
    ``__post_init__`` then applies each class's own value checks.
    """

    #: Name used in error messages ("unknown <section> key ...").
    section = "configuration"
    #: Optional prefix ``with_overrides`` strips from each key.
    override_prefix = ""

    def to_dict(self) -> dict:
        """JSON-serializable representation (tuples become lists)."""
        return {spec.name: _encode(getattr(self, spec.name)) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping):
        """Strict inverse of :meth:`to_dict`."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"malformed {cls.section}: expected an object, got {type(data).__name__}"
            )
        return _decode_section(cls, data, prefix="", root=cls.section)

    def save(self, path: str | Path) -> None:
        """Write the configuration to a JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path):
        """Read a configuration from a JSON file."""
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"{cls.section} file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{cls.section} file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def with_overrides(self, assignments: Mapping[str, object] | Iterable[str]):
        """Apply dotted-key overrides and return the re-validated configuration.

        ``assignments`` is either a mapping of dotted keys to values
        (``{"nna.max_layers": 6}``) or an iterable of CLI-style
        ``"key=value"`` strings (values parsed as JSON when possible).  This
        is the machinery behind the ``--set`` flag and the experiment specs'
        ``overrides`` section; unknown keys are rejected, and the values go
        through the same strict decoding as a configuration file.
        """
        if isinstance(assignments, Mapping):
            pairs = [(str(key), value) for key, value in assignments.items()]
        else:
            pairs = [parse_override(assignment) for assignment in assignments]
        data = self.to_dict()
        for dotted_key, value in pairs:
            parts = [part for part in dotted_key.removeprefix(self.override_prefix).split(".") if part]
            if not parts:
                raise ConfigurationError(f"empty override key in {dotted_key!r}")
            node = data
            for part in parts[:-1]:
                if not isinstance(node.get(part), dict):
                    raise ConfigurationError(
                        f"unknown {self.section} key {dotted_key!r} (no section {part!r})"
                    )
                node = node[part]
            if parts[-1] not in node:
                raise ConfigurationError(
                    f"unknown {self.section} key {dotted_key!r}; "
                    f"known keys here: {', '.join(sorted(node))}"
                )
            node[parts[-1]] = value
        return type(self).from_dict(data)


@functools.cache
def _schema(cls) -> tuple:
    """``(field, type hint)`` pairs of a configuration dataclass."""
    hints = get_type_hints(cls)
    return tuple((spec, hints[spec.name]) for spec in fields(cls))


def _encode(value):
    if isinstance(value, JSONConfig):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def _decode_section(cls, data: Mapping, prefix: str, root: str):
    schema = _schema(cls)
    unknown = sorted(set(data) - {spec.name for spec, _ in schema})
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.section} key(s): {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(spec.name for spec, _ in schema))}"
        )
    kwargs = {}
    for spec, hint in schema:
        key = prefix + spec.name
        if spec.name not in data:
            if spec.default is MISSING and spec.default_factory is MISSING:
                raise ConfigurationError(f"malformed {root}: missing required key {key!r}")
            continue
        value = data[spec.name]
        if is_dataclass(hint):
            if not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"malformed {root}: {key!r} expects an object, got {value!r}"
                )
            kwargs[spec.name] = _decode_section(hint, value, key + ".", root)
            continue
        try:
            kwargs[spec.name] = _decode_value(value, hint)
        except TypeError:
            raise ConfigurationError(
                f"malformed {root}: {key!r} expects {_noun(hint)}, got {value!r}"
            ) from None
    return cls(**kwargs)


def _decode_value(value, hint):
    """``value`` checked against ``hint``; raises ``TypeError`` on a mismatch."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            items = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(items) == len(value):
                return tuple(_decode_value(item, sub) for item, sub in zip(value, items))
    elif type(None) in args:  # X | None
        return None if value is None else _decode_value(value, args[0])
    elif hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif hint is dict:
        if isinstance(value, Mapping):
            return dict(value)
    elif isinstance(value, hint) and not (hint is int and isinstance(value, bool)):
        return value
    raise TypeError(value)


def _noun(hint) -> str:
    """How a decoding error names the type a field expects."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            return f"list of {_noun(args[0])}s"
        arity = "triple" if len(args) == 3 else f"{len(args)}-item list"
        return f"[{', '.join(map(_noun, args))}] {arity}"
    if type(None) in args:
        return f"{_noun(args[0])} or null"
    return _TYPE_NOUNS[hint]


def parse_override_value(text: str):
    """Parse a ``--set`` value: JSON when possible, bare string otherwise."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError):
        return text


def parse_override(assignment: str) -> tuple[str, object]:
    """Split one ``key=value`` assignment into a dotted key and parsed value."""
    key, separator, raw = str(assignment).partition("=")
    key = key.strip()
    if not separator or not key:
        raise ConfigurationError(
            f"override {assignment!r} is not of the form key=value (e.g. nna.max_layers=6)"
        )
    return key, parse_override_value(raw)


@dataclass(frozen=True)
class NNAStructureConfig(JSONConfig):
    """Section (a) of the configuration file: the NNA structure and bounds."""

    section = "nna"

    input_size: int
    output_size: int
    min_layers: int = 1
    max_layers: int = 4
    layer_sizes: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024)
    activations: tuple[str, ...] = ("relu", "tanh", "sigmoid", "elu")
    allow_bias_toggle: bool = True

    def __post_init__(self) -> None:
        if self.input_size <= 0:
            raise ConfigurationError(f"input_size must be positive, got {self.input_size}")
        if self.output_size <= 0:
            raise ConfigurationError(f"output_size must be positive, got {self.output_size}")

    def to_search_space(self) -> MLPSearchSpace:
        """Build the network half of the co-design search space."""
        return MLPSearchSpace(
            min_layers=self.min_layers,
            max_layers=self.max_layers,
            layer_sizes=tuple(self.layer_sizes),
            activations=tuple(self.activations),
            allow_bias_toggle=self.allow_bias_toggle,
        )


@dataclass(frozen=True)
class HardwareTargetConfig(JSONConfig):
    """Section (b) of the configuration file: the hardware targets.

    Attributes
    ----------
    fpga:
        Catalogue name of the FPGA target (e.g. ``"arria10"``, ``"stratix10"``).
    ddr_banks:
        DDR banks populated on the board (overrides the catalogue default).
    clock_mhz:
        Overlay clock override; 0 keeps the catalogue value.
    gpu:
        Catalogue name of the GPU baseline, or empty to skip the GPU model.
    fpga_batch_sizes / gpu_batch_sizes:
        Batch-size choices exposed to the search.
    """

    section = "hardware"

    fpga: str = "arria10"
    ddr_banks: int = 0
    clock_mhz: float = 0.0
    gpu: str = "titan_x"
    fpga_batch_sizes: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192)
    gpu_batch_sizes: tuple[int, ...] = (64, 128, 256, 512, 1024)

    def fpga_device(self) -> FPGADevice:
        """Resolve the FPGA target, applying bank/clock overrides."""
        device = fpga_device(self.fpga)
        if self.ddr_banks > 0:
            device = device.with_ddr_banks(self.ddr_banks)
        if self.clock_mhz > 0:
            device = device.with_clock(self.clock_mhz)
        return device

    def gpu_device(self) -> GPUDevice | None:
        """Resolve the GPU baseline, or None when disabled."""
        if not self.gpu:
            return None
        return gpu_device(self.gpu)

    def to_search_space(self) -> HardwareSearchSpace:
        """Build the hardware half of the co-design search space."""
        return HardwareSearchSpace(batch_sizes=tuple(self.fpga_batch_sizes))


@dataclass(frozen=True)
class OptimizationTargetConfig(JSONConfig):
    """Section (c) of the configuration file: what the search optimizes.

    Each target is ``(objective name, weight, maximize)``; the default is the
    joint accuracy + FPGA-throughput search used for Table IV and Figure 2.
    ``constraints`` are feasibility bounds on registered objectives
    (``"dsp_usage<=512"`` style): hardware budgets expressed as constraints
    instead of fitness penalties — violating candidates are infeasible and
    never selected, bred from, or admitted to the frontier.
    """

    section = "optimization"

    objectives: tuple[tuple[str, float, bool], ...] = (
        ("accuracy", 1.0, True),
        ("fpga_throughput", 1.0, True),
    )
    constraints: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ConfigurationError("at least one optimization target is required")
        object.__setattr__(
            self, "constraints", tuple(str(c).strip() for c in self.constraints)
        )
        self.to_constraints()  # validate eagerly

    def to_fitness_objectives(self) -> list[ObjectiveSpec]:
        """Build the fitness-objective list for the evaluator."""
        objectives = []
        for name, weight, maximize in self.objectives:
            scale = 1.0 if name == "accuracy" else 0.0
            objectives.append(
                ObjectiveSpec(name=name, weight=float(weight), maximize=bool(maximize), scale=scale)
            )
        return objectives

    def to_constraints(self) -> list:
        """Parse the constraint expressions into ``Constraint`` objects."""
        from .objectives import parse_constraint

        return [parse_constraint(text) for text in self.constraints]

    def with_constraints(self, constraints: Iterable[str]) -> "OptimizationTargetConfig":
        """A copy of this target section with ``constraints`` replacing the old ones."""
        return OptimizationTargetConfig(
            objectives=self.objectives, constraints=tuple(constraints)
        )

    @classmethod
    def accuracy_only(cls) -> "OptimizationTargetConfig":
        """Target used for the Table I / Table II accuracy searches."""
        return cls(objectives=(("accuracy", 1.0, True),))

    @classmethod
    def accuracy_and_throughput(cls) -> "OptimizationTargetConfig":
        """Target used for the Table IV / Figure 2 co-design searches."""
        return cls(objectives=(("accuracy", 1.0, True), ("fpga_throughput", 1.0, True)))


@dataclass(frozen=True)
class StoreConfig(JSONConfig):
    """Persistent evaluation-store settings (the ``store`` config section).

    Attributes
    ----------
    path:
        Location of the SQLite store file.  Empty (the default) disables the
        store entirely; the search then runs on the in-memory cache alone.
    enabled:
        Master switch — lets a config keep its ``path`` while temporarily
        opting out (e.g. for a bit-identity A/B run).
    readonly:
        Open the store for reads only: evaluations are served from it but
        fresh results are not written back.  Useful for sharing a reference
        store between many consumers.
    warm_start:
        Seed the initial population with up to this many of the best stored
        candidates matching the current problem digest (0 disables
        warm-starting; the run then stays bit-identical to a store-less run
        on a cold store).
    shards:
        Number of SQLite shard files the store spreads rows over (routed by
        problem-digest prefix).  ``1`` (the default) is the original
        single-file layout; ``N > 1`` opens/creates an N-shard directory so
        concurrent jobs on different problems never contend on one writer
        lock.  An existing sharded layout is auto-detected regardless of
        this value; pointing ``shards > 1`` at an existing single file
        fails with a hint to run ``ecad store migrate``.
    """

    section = "store"

    path: str = ""
    enabled: bool = True
    readonly: bool = False
    warm_start: int = 0
    shards: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", str(self.path))
        if self.warm_start < 0:
            raise ConfigurationError(f"warm_start must be >= 0, got {self.warm_start}")
        if not (1 <= self.shards <= 1024):
            raise ConfigurationError(
                f"store shards must be in [1, 1024], got {self.shards}"
            )

    @property
    def active(self) -> bool:
        """Whether a store should actually be opened for this run."""
        return self.enabled and bool(self.path)



@dataclass(frozen=True)
class SurrogateConfig(JSONConfig):
    """Surrogate-assisted search settings (the ``surrogate`` config section).

    When enabled, the ``surrogate`` strategy wraps the base evolutionary (or
    NSGA-II) search with an offspring pre-screen: a cheap regressor trained on
    the evaluation store's rows for the current problem predicts each
    objective with a split-conformal interval, and only candidates the model
    ranks highly (by predicted Pareto contribution) receive a real NN
    training.  Everything here shapes *which* candidates get real evaluations,
    never what one evaluation returns, so none of these fields participate in
    the store's problem digest.

    Attributes
    ----------
    enabled:
        Master switch — lets a config keep its surrogate tuning while
        temporarily opting out: with ``enabled`` false the ``surrogate``
        strategy runs its base strategy unchanged (the A/B arm of the
        ablation).  Runs not using the ``surrogate`` strategy never consult
        this section at all.
    base:
        The wrapped strategy: ``"evolutionary"`` (weighted-sum fitness) or
        ``"nsga2"`` (Pareto rank + crowding).
    min_rows:
        Minimum number of store-seeded evaluations before the model is
        trusted.  Real results observed during the run refine the model but
        never bootstrap one, so below this threshold the search runs exactly
        like the base strategy for its whole duration (the screen is a no-op
        on an empty or too-small store).
    pool_size:
        Offspring candidates bred per steady-state step once the screen is
        active; the surrogate ranks the pool and only the winner is really
        evaluated.
    exploration_fraction:
        Probability that a step ignores the ranking and promotes a random
        pool member instead — the screen always keeps exploring, so a wrong
        model cannot permanently blind the search.
    confidence:
        Nominal coverage of the split-conformal prediction intervals
        (e.g. 0.8 → 80% of true values fall inside the interval).  Ranking
        uses the optimistic end of each interval, so a candidate is only
        screened out when the model is confident it offers nothing.
    refit_interval:
        Refit the model after this many fresh real evaluations (online
        feedback; every real result becomes training data).
    rung_epochs:
        Successive-halving fidelity rungs: ascending low-epoch budgets the
        screened survivors are trained at before the full-budget evaluation
        (empty disables the fidelity lever).  Requires an evaluator exposing
        a mutable ``training_config`` (the master does).
    rung_survivors:
        Pool members entering the first rung; each rung promotes the top
        ``promote_fraction`` until one survivor gets the full budget.
    promote_fraction:
        Fraction of candidates promoted out of each rung (at least one
        always survives).
    """

    section = "surrogate"

    enabled: bool = True
    base: str = "evolutionary"
    min_rows: int = 24
    pool_size: int = 8
    exploration_fraction: float = 0.15
    confidence: float = 0.8
    refit_interval: int = 8
    rung_epochs: tuple[int, ...] = ()
    rung_survivors: int = 2
    promote_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.base not in ("evolutionary", "weighted_sum", "default", "nsga2"):
            raise ConfigurationError(
                f"surrogate.base must be 'evolutionary' or 'nsga2', got {self.base!r}"
            )
        if self.min_rows < 2:
            raise ConfigurationError(f"surrogate.min_rows must be >= 2, got {self.min_rows}")
        if self.pool_size < 2:
            raise ConfigurationError(f"surrogate.pool_size must be >= 2, got {self.pool_size}")
        if not 0.0 <= self.exploration_fraction <= 1.0:
            raise ConfigurationError(
                "surrogate.exploration_fraction must be in [0, 1], "
                f"got {self.exploration_fraction}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"surrogate.confidence must be in (0, 1), got {self.confidence}"
            )
        if self.refit_interval < 1:
            raise ConfigurationError(
                f"surrogate.refit_interval must be >= 1, got {self.refit_interval}"
            )
        object.__setattr__(self, "rung_epochs", tuple(int(e) for e in self.rung_epochs))
        if any(e <= 0 for e in self.rung_epochs):
            raise ConfigurationError(
                f"surrogate.rung_epochs must all be positive, got {self.rung_epochs}"
            )
        if list(self.rung_epochs) != sorted(self.rung_epochs):
            raise ConfigurationError(
                f"surrogate.rung_epochs must be ascending, got {self.rung_epochs}"
            )
        if self.rung_survivors < 1:
            raise ConfigurationError(
                f"surrogate.rung_survivors must be >= 1, got {self.rung_survivors}"
            )
        if not 0.0 < self.promote_fraction <= 1.0:
            raise ConfigurationError(
                f"surrogate.promote_fraction must be in (0, 1], got {self.promote_fraction}"
            )

    @property
    def active(self) -> bool:
        """Whether the surrogate screen should be built for this run."""
        return self.enabled



@dataclass(frozen=True)
class ServiceConfig(JSONConfig):
    """Settings of the long-lived ``ecad serve`` co-design service.

    Attributes
    ----------
    host / port:
        Bind address of the HTTP API.  Port 0 asks the OS for a free
        ephemeral port (useful for tests and CI).
    data_dir:
        Root directory of everything the service persists: the job queue
        database and one artifact directory per job
        (``<data_dir>/jobs/<job_id>/``).
    queue_path:
        Location of the SQLite job-queue database.  Empty (the default)
        derives ``<data_dir>/queue.sqlite``.
    store_path:
        Persistent :class:`~repro.store.EvaluationStore` shared by every job
        the service runs; empty disables the shared store.
    store_shards:
        Shard count of the shared store (see ``StoreConfig.shards``) — with
        ``max_concurrent_jobs > 1`` a sharded store lets jobs on different
        problems write without contending on one SQLite writer lock.
    max_concurrent_jobs:
        How many jobs the scheduler keeps running at once.  Queued jobs wait
        until a slot frees up.
    backend / eval_workers:
        Default execution backend and candidate-evaluation parallelism for
        jobs that do not choose their own.  The service owns one warm
        backend pool of ``eval_workers`` workers shared by all jobs.
    long_poll_timeout:
        Upper bound (seconds) on how long ``GET /jobs/{id}/frontier`` holds
        a long-poll open before answering with no new events.
    """

    section = "service config"

    host: str = "127.0.0.1"
    port: int = 8282
    data_dir: str = "ecad-service"
    queue_path: str = ""
    store_path: str = ""
    store_shards: int = 1
    max_concurrent_jobs: int = 1
    backend: str = "threads"
    eval_workers: int = 4
    long_poll_timeout: float = 30.0

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.max_concurrent_jobs < 1:
            raise ConfigurationError(
                f"max_concurrent_jobs must be >= 1, got {self.max_concurrent_jobs}"
            )
        if self.eval_workers < 1:
            raise ConfigurationError(f"eval_workers must be >= 1, got {self.eval_workers}")
        if not (1 <= self.store_shards <= 1024):
            raise ConfigurationError(
                f"store_shards must be in [1, 1024], got {self.store_shards}"
            )
        if self.long_poll_timeout <= 0:
            raise ConfigurationError(
                f"long_poll_timeout must be positive, got {self.long_poll_timeout}"
            )

    @property
    def resolved_queue_path(self) -> Path:
        """The queue database location, derived from ``data_dir`` when unset."""
        return Path(self.queue_path) if self.queue_path else Path(self.data_dir) / "queue.sqlite"


@dataclass(frozen=True)
class ECADConfig(JSONConfig):
    """The full ECAD configuration file.

    ``backend`` ("serial", "threads" or "processes") selects how candidate
    evaluations are dispatched, ``eval_parallelism`` bounds how many are
    kept in flight at once (1 keeps the reproducible serial search), and
    ``eval_batch_size`` fuses that many offspring into one batched dispatch
    so workers can run fused GEMM training over whole candidate groups
    (results stay bit-identical).
    ``strategy`` names the registered search strategy driving the run:
    ``"evolutionary"`` (the default weighted-sum steady-state search),
    ``"nsga2"`` (Pareto-native multi-objective search), ``"random"``, or
    ``"surrogate"`` (the store-trained offspring pre-screen configured by
    the ``surrogate`` section, :class:`SurrogateConfig`).
    ``nsga2_tournament_size`` sets the NSGA-II selection pressure (default:
    the classic binary tournament; raise it to match a scalarized baseline's
    tournament when comparing strategies at equal budgets).
    ``store`` configures the persistent cross-run evaluation store
    (:class:`StoreConfig`): when its ``path`` is set, evaluations are served
    from / written to an SQLite file shared across runs, and ``warm_start``
    seeds the initial population from the best stored candidates.

    JSON files, ``--set`` overrides and service payloads all decode through
    the strict :class:`JSONConfig` codec: each section is a nested object,
    unknown keys are rejected and every value must have its field's type
    (``true``/``false`` for flags, integers for counts, lists for menus).
    """

    dataset_name: str
    nna: NNAStructureConfig
    hardware: HardwareTargetConfig = field(default_factory=HardwareTargetConfig)
    optimization: OptimizationTargetConfig = field(default_factory=OptimizationTargetConfig)
    population_size: int = 24
    max_evaluations: int = 200
    seed: int | None = 0
    evaluation_protocol: str = "1-fold"
    num_folds: int = 10
    training_epochs: int = 20
    training_batch_size: int = 32
    dataset_csv: str = ""
    dataset_test_csv: str = ""
    backend: str = "serial"
    eval_parallelism: int = 1
    eval_batch_size: int = 1
    strategy: str = "evolutionary"
    nsga2_tournament_size: int = 2
    store: StoreConfig = field(default_factory=StoreConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)

    def __post_init__(self) -> None:
        if self.evaluation_protocol not in ("1-fold", "10-fold"):
            raise ConfigurationError(
                f"evaluation_protocol must be '1-fold' or '10-fold', got {self.evaluation_protocol!r}"
            )
        # Imported lazily: repro.workers depends on repro.core at import time.
        from ..workers.backends import BACKENDS, available_backends

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; registered: {', '.join(available_backends())}"
            )
        from .strategy import STRATEGIES, available_strategies

        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown search strategy {self.strategy!r}; "
                f"registered: {', '.join(available_strategies())}"
            )
        if self.eval_parallelism < 1:
            raise ConfigurationError(
                f"eval_parallelism must be >= 1, got {self.eval_parallelism}"
            )
        if self.eval_batch_size < 1:
            raise ConfigurationError(
                f"eval_batch_size must be >= 1, got {self.eval_batch_size}"
            )
        if self.nsga2_tournament_size < 2:
            raise ConfigurationError(
                f"nsga2_tournament_size must be >= 2, got {self.nsga2_tournament_size}"
            )
        if self.num_folds < 2:
            raise ConfigurationError(f"num_folds must be >= 2, got {self.num_folds}")
        if self.training_epochs <= 0:
            raise ConfigurationError(f"training_epochs must be positive, got {self.training_epochs}")
        if self.training_batch_size <= 0:
            raise ConfigurationError(
                f"training_batch_size must be positive, got {self.training_batch_size}"
            )

    # ----------------------------------------------------------- factories
    @classmethod
    def template_for_dataset(
        cls,
        dataset: Dataset | DatasetInfo,
        fpga: str = "arria10",
        gpu: str = "titan_x",
        optimization: OptimizationTargetConfig | None = None,
        **overrides,
    ) -> "ECADConfig":
        """Automatically generate a configuration from a dataset.

        Mirrors the paper's note that "the configuration file can be generated
        automatically based on an existing template configuration file and the
        dataset": the NNA input/output sizes come from the dataset, the
        evaluation protocol follows the dataset's pre-split status, and the
        layer-size menu is clipped to sensible values for the input width.
        """
        info = dataset.info() if isinstance(dataset, Dataset) else dataset
        protocol = overrides.pop(
            "evaluation_protocol", "1-fold" if info.has_test_split else "10-fold"
        )
        nna = NNAStructureConfig(input_size=info.num_features, output_size=info.num_classes)
        hardware = HardwareTargetConfig(fpga=fpga, gpu=gpu)
        return cls(
            dataset_name=info.name,
            nna=nna,
            hardware=hardware,
            optimization=optimization or OptimizationTargetConfig(),
            evaluation_protocol=protocol,
            **overrides,
        )

    # --------------------------------------------------------- conversions
    def to_search_space(self) -> CoDesignSearchSpace:
        """Build the joint co-design search space."""
        return CoDesignSearchSpace(
            mlp_space=self.nna.to_search_space(),
            hardware_space=self.hardware.to_search_space(),
            gpu_batch_sizes=tuple(self.hardware.gpu_batch_sizes),
        )

    def to_engine_config(self) -> EngineConfig:
        """Build the evolutionary-engine configuration."""
        return EngineConfig(
            population_size=self.population_size,
            max_evaluations=self.max_evaluations,
            seed=self.seed,
            eval_parallelism=self.eval_parallelism,
            eval_batch_size=self.eval_batch_size,
            nsga2_tournament_size=self.nsga2_tournament_size,
        )

    def to_training_config(self) -> TrainingConfig:
        """Build the candidate-training configuration."""
        return TrainingConfig(epochs=self.training_epochs, batch_size=self.training_batch_size)

    def to_mutation_config(self) -> MutationConfig:
        """Build mutation weights appropriate for the optimization targets."""
        names = {name for name, _, _ in self.optimization.objectives}
        hardware_objectives = {
            "fpga_throughput",
            "fpga_latency",
            "fpga_efficiency",
            "fpga_effective_gflops",
            "gpu_throughput",
            "dsp_usage",
        }
        if names & hardware_objectives:
            return MutationConfig()
        return MutationConfig.accuracy_only()
