"""Typed multi-objective model: registered objectives, specs, vectors, constraints.

Section III-A of the paper: *"Each candidate in the population is evaluated
according to configurable and potentially multiple criteria, for example
accuracy alone or accuracy vs throughput."*  The paper's headline results are
accuracy-vs-throughput *frontiers*, so multi-objective data is first-class
here rather than an implementation detail of the scalarized fitness:

* the objective registry (:data:`OBJECTIVES`, :func:`register_objective`) maps
  stable names to functions over :class:`~repro.core.candidate.CandidateEvaluation`,
* :class:`ObjectiveSpec` is one named objective with a direction, weight and
  optional normalization scale,
* :class:`Constraint` is a feasibility bound on a registered objective
  (``dsp_usage<=512`` style) — budgets are constraints, not penalty hacks,
* :class:`ObjectiveVector` is the direction-aware, constraint-aware value
  vector of one candidate, with Deb-style constrained Pareto dominance.

:class:`~repro.core.fitness.FitnessEvaluator` produces
:class:`ObjectiveVector`s natively; Pareto utilities
(:mod:`repro.core.pareto`), the NSGA-II selection scheme and the streaming
:class:`~repro.core.frontier.FrontierArchive` all consume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from ..registry import Registry, normalize_key
from .candidate import CandidateEvaluation
from .errors import ConfigurationError

__all__ = [
    "OBJECTIVES",
    "ObjectiveFunction",
    "register_objective",
    "available_objectives",
    "get_objective",
    "objective_default_maximize",
    "ObjectiveSpec",
    "Constraint",
    "parse_constraint",
    "resolve_constraints",
    "ObjectiveVector",
    "build_objective_vector",
]

#: An objective maps an evaluated candidate to a raw scalar value.
ObjectiveFunction = Callable[[CandidateEvaluation], float]

#: The shared objective registry; plugins may register additional objectives.
OBJECTIVES: Registry[ObjectiveFunction] = Registry("objective")

#: Default optimization direction per registered objective (True = maximize).
_DEFAULT_MAXIMIZE: dict[str, bool] = {}


def register_objective(
    name: str,
    function: ObjectiveFunction,
    overwrite: bool = False,
    maximize_by_default: bool = True,
) -> None:
    """Register a new objective under ``name``.

    Parameters
    ----------
    name:
        Stable identifier usable from configuration files.
    function:
        Callable mapping a :class:`CandidateEvaluation` to a float.
    overwrite:
        Allow replacing an existing registration (off by default so typos do
        not silently shadow built-ins).
    maximize_by_default:
        Direction used when the objective is named without an explicit
        direction (e.g. in an experiment spec's objective grid); pass False
        for cost-style objectives such as latency.
    """
    try:
        OBJECTIVES.register(name, function, overwrite=overwrite)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    _DEFAULT_MAXIMIZE[OBJECTIVES.canonical_name(name)] = bool(maximize_by_default)


def objective_default_maximize(name: str) -> bool:
    """Whether a registered objective is maximized when no direction is given.

    Parameters
    ----------
    name:
        Registered objective name (experiment specs name objectives without
        an explicit direction, e.g. ``"accuracy+fpga_latency"``).

    Returns
    -------
    bool
        The direction declared at registration time (True = maximize).

    Raises
    ------
    ConfigurationError
        For unknown objective names.
    """
    get_objective(name)  # raise the usual error for unknown names
    return _DEFAULT_MAXIMIZE.get(OBJECTIVES.canonical_name(name), True)


def available_objectives() -> list[str]:
    """Sorted names of all registered objectives."""
    return OBJECTIVES.available()


def get_objective(name: str) -> ObjectiveFunction:
    """Look up a registered objective by name.

    Parameters
    ----------
    name:
        Registered objective name (registry-normalized, so ``"FPGA-Throughput"``
        resolves to ``fpga_throughput``).

    Returns
    -------
    ObjectiveFunction
        The registered callable ``CandidateEvaluation -> float``.

    Raises
    ------
    ConfigurationError
        For unknown objective names (the message lists what is available).
    """
    try:
        return OBJECTIVES.resolve(name)
    except KeyError as exc:
        # The registry message already lists what is available and suggests
        # near-miss names; re-raising it verbatim keeps the hint.
        raise ConfigurationError(str(exc.args[0])) from exc


# ---------------------------------------------------------------------------
# Built-in objectives
# ---------------------------------------------------------------------------


def _accuracy(evaluation: CandidateEvaluation) -> float:
    return evaluation.accuracy


def _fpga_throughput(evaluation: CandidateEvaluation) -> float:
    return evaluation.fpga_outputs_per_second


def _gpu_throughput(evaluation: CandidateEvaluation) -> float:
    return evaluation.gpu_outputs_per_second


def _fpga_latency(evaluation: CandidateEvaluation) -> float:
    return evaluation.fpga_metrics.latency_seconds if evaluation.fpga_metrics else float("inf")


def _fpga_efficiency(evaluation: CandidateEvaluation) -> float:
    return evaluation.fpga_metrics.efficiency if evaluation.fpga_metrics else 0.0


def _fpga_effective_gflops(evaluation: CandidateEvaluation) -> float:
    return evaluation.fpga_metrics.effective_gflops if evaluation.fpga_metrics else 0.0


def _parameter_count(evaluation: CandidateEvaluation) -> float:
    return float(evaluation.parameter_count)


def _dsp_usage(evaluation: CandidateEvaluation) -> float:
    return float(evaluation.genome.hardware.grid.dsp_blocks_used)


register_objective("accuracy", _accuracy)
register_objective("fpga_throughput", _fpga_throughput)
register_objective("gpu_throughput", _gpu_throughput)
register_objective("fpga_latency", _fpga_latency, maximize_by_default=False)
register_objective("fpga_efficiency", _fpga_efficiency)
register_objective("fpga_effective_gflops", _fpga_effective_gflops)
register_objective("parameter_count", _parameter_count, maximize_by_default=False)
register_objective("dsp_usage", _dsp_usage, maximize_by_default=False)


# ---------------------------------------------------------------------------
# Objective specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectiveSpec:
    """One named objective with an optimization direction and a weight.

    Attributes
    ----------
    name:
        Registered objective name.
    maximize:
        True to maximize, False to minimize (e.g. latency, parameter count).
    weight:
        Relative weight in the scalarized selection fitness.
    scale:
        Optional fixed normalization scale.  When > 0, the raw value is
        divided by this scale instead of being min-max normalized against the
        current population — useful when the expected magnitude is known
        (e.g. accuracy is already in [0, 1]).
    """

    name: str
    maximize: bool = True
    weight: float = 1.0
    scale: float = 0.0

    def __post_init__(self) -> None:
        # Resolved once: the registry lookup is too slow for the scoring loop.
        object.__setattr__(self, "_function", get_objective(self.name))
        if self.weight <= 0:
            raise ConfigurationError(f"objective weight must be positive, got {self.weight}")
        if self.scale < 0:
            raise ConfigurationError(f"objective scale must be >= 0, got {self.scale}")

    def raw_value(self, evaluation: CandidateEvaluation) -> float:
        """The raw objective value for one candidate."""
        return float(self._function(evaluation))

    @classmethod
    def accuracy(cls, weight: float = 1.0) -> "ObjectiveSpec":
        """Convenience constructor: maximize accuracy (already in [0, 1])."""
        return cls(name="accuracy", maximize=True, weight=weight, scale=1.0)

    @classmethod
    def fpga_throughput(cls, weight: float = 1.0) -> "ObjectiveSpec":
        """Convenience constructor: maximize FPGA outputs/s."""
        return cls(name="fpga_throughput", maximize=True, weight=weight)

    @classmethod
    def gpu_throughput(cls, weight: float = 1.0) -> "ObjectiveSpec":
        """Convenience constructor: maximize GPU outputs/s."""
        return cls(name="gpu_throughput", maximize=True, weight=weight)

    @classmethod
    def fpga_latency(cls, weight: float = 1.0) -> "ObjectiveSpec":
        """Convenience constructor: minimize FPGA latency."""
        return cls(name="fpga_latency", maximize=False, weight=weight)


# ---------------------------------------------------------------------------
# Feasibility constraints
# ---------------------------------------------------------------------------

#: Supported comparison operators, longest first so parsing is unambiguous.
_CONSTRAINT_OPS = ("<=", ">=", "<", ">")


@dataclass(frozen=True)
class Constraint:
    """A feasibility bound on one registered objective.

    Resource budgets (DSP blocks, BRAM, power, parameter counts) are
    expressed as constraints instead of fitness penalties: candidates that
    violate any constraint are *infeasible* — they receive the worst
    possible scalar fitness and are dominated by every feasible candidate
    under constrained Pareto dominance.

    Attributes
    ----------
    objective:
        Registered objective name whose raw value is bounded.
    op:
        One of ``<=``, ``>=``, ``<``, ``>``.
    bound:
        The feasibility bound.
    """

    objective: str
    op: str
    bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "_function", get_objective(self.objective))
        if self.op not in _CONSTRAINT_OPS:
            raise ConfigurationError(
                f"unknown constraint operator {self.op!r}; allowed: {', '.join(_CONSTRAINT_OPS)}"
            )
        object.__setattr__(self, "bound", float(self.bound))

    def value(self, evaluation: CandidateEvaluation) -> float:
        """The raw constrained-objective value of one candidate."""
        return float(self._function(evaluation))

    def satisfied(self, value: float) -> bool:
        """Whether a raw value meets the bound."""
        value = float(value)
        if not np.isfinite(value):
            return False
        if self.op == "<=":
            return value <= self.bound
        if self.op == ">=":
            return value >= self.bound
        if self.op == "<":
            return value < self.bound
        return value > self.bound

    def violation(self, value: float) -> float:
        """How far past the bound a raw value is (0 when satisfied)."""
        if self.satisfied(value):
            return 0.0
        if not np.isfinite(float(value)):
            return float("inf")
        return abs(float(value) - self.bound)

    def __str__(self) -> str:
        bound = int(self.bound) if float(self.bound).is_integer() else self.bound
        return f"{self.objective}{self.op}{bound}"


def parse_constraint(text: str) -> Constraint:
    """Parse a ``objective<=bound`` style constraint expression.

    Parameters
    ----------
    text:
        The CLI/spec syntax, e.g. ``dsp_usage<=512``, ``accuracy>=0.9`` or
        ``fpga_latency<0.001``.

    Returns
    -------
    Constraint
        The parsed, validated constraint.

    Raises
    ------
    ConfigurationError
        For malformed expressions, unknown objectives or non-numeric bounds.
    """
    expression = str(text).strip()
    for op in _CONSTRAINT_OPS:
        name, separator, raw_bound = expression.partition(op)
        if not separator:
            continue
        name = name.strip()
        raw_bound = raw_bound.strip()
        if not name or not raw_bound:
            break
        try:
            bound = float(raw_bound)
        except ValueError as exc:
            raise ConfigurationError(
                f"constraint {text!r} has a non-numeric bound {raw_bound!r}"
            ) from exc
        return Constraint(objective=name, op=op, bound=bound)
    raise ConfigurationError(
        f"constraint {text!r} is not of the form OBJECTIVE OP BOUND "
        f"(e.g. dsp_usage<=512); operators: {', '.join(_CONSTRAINT_OPS)}"
    )


def resolve_constraints(constraints: Iterable[Constraint | str]) -> list[Constraint]:
    """Normalize a mixed list of constraint objects / expressions.

    Parameters
    ----------
    constraints:
        :class:`Constraint` instances (passed through) and/or string
        expressions (parsed with :func:`parse_constraint`); ``None`` is
        treated as empty.

    Returns
    -------
    list[Constraint]
        The resolved constraints, in input order.
    """
    resolved: list[Constraint] = []
    for constraint in constraints or ():
        if isinstance(constraint, Constraint):
            resolved.append(constraint)
        else:
            resolved.append(parse_constraint(constraint))
    return resolved


# ---------------------------------------------------------------------------
# Objective vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectiveVector:
    """The typed, direction-aware objective values of one candidate.

    Attributes
    ----------
    names:
        Objective names, in configuration order.
    values:
        Raw objective values (same order as ``names``).
    maximize:
        Per-objective optimization direction.
    feasible:
        False when the candidate failed to evaluate or violates a
        feasibility constraint.
    violation:
        Total constraint violation (0 for feasible candidates); used to
        order infeasible candidates under constrained dominance.
    """

    names: tuple[str, ...]
    values: tuple[float, ...]
    maximize: tuple[bool, ...]
    feasible: bool = True
    violation: float = 0.0

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        values = tuple(float(v) for v in self.values)
        maximize = tuple(bool(m) for m in self.maximize)
        if not names:
            raise ValueError("an objective vector needs at least one objective")
        if len(values) != len(names) or len(maximize) != len(names):
            raise ValueError(
                f"objective vector shape mismatch: {len(names)} names, "
                f"{len(values)} values, {len(maximize)} directions"
            )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "maximize", maximize)
        object.__setattr__(self, "violation", float(self.violation))

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def canonical(self) -> tuple[float, ...]:
        """Values in maximization form (minimized objectives negated), computed once."""
        return tuple(
            value if is_max else -value for value, is_max in zip(self.values, self.maximize)
        )

    def value(self, name: str) -> float:
        """Raw value of one objective by name (registry-style normalization)."""
        key = normalize_key(name)
        for objective, value in zip(self.names, self.values):
            if normalize_key(objective) == key:
                return value
        raise KeyError(f"objective {name!r} is not part of this vector")

    def dominates(self, other: "ObjectiveVector") -> bool:
        """Constrained Pareto dominance (Deb 2002).

        A feasible vector dominates any infeasible one; between two
        infeasible vectors the smaller total violation dominates; between
        two feasible vectors standard Pareto dominance applies on the
        canonical (maximization-form) values.
        """
        if self.names != other.names:
            raise ValueError(
                f"cannot compare objective vectors over {self.names} and {other.names}"
            )
        if self.feasible != other.feasible:
            return self.feasible
        if not self.feasible:
            return self.violation < other.violation
        a, b = self.canonical, other.canonical
        at_least_as_good = all(x >= y for x, y in zip(a, b))
        strictly_better = any(x > y for x, y in zip(a, b))
        return at_least_as_good and strictly_better

    def as_dict(self) -> dict[str, float]:
        """Name -> raw value mapping (report/JSON friendly)."""
        return dict(zip(self.names, self.values))


def build_objective_vector(
    evaluation: CandidateEvaluation,
    objectives: Sequence[ObjectiveSpec],
    constraints: Sequence[Constraint | str] = (),
    raw_values: Sequence[float] | None = None,
) -> ObjectiveVector:
    """Evaluate every objective and constraint for one candidate.

    Failed evaluations yield an all-NaN, infeasible vector with infinite
    violation, so they sort after every real candidate under constrained
    dominance.  ``raw_values`` (objective values in ``objectives`` order)
    skips re-evaluating the objective functions when the caller already has
    them.
    """
    if not objectives:
        raise ConfigurationError("at least one objective is required to build a vector")
    names = tuple(spec.name for spec in objectives)
    maximize = tuple(spec.maximize for spec in objectives)
    if evaluation.failed:
        return ObjectiveVector(
            names=names,
            values=tuple(float("nan") for _ in objectives),
            maximize=maximize,
            feasible=False,
            violation=float("inf"),
        )
    if raw_values is None:
        values = tuple(spec.raw_value(evaluation) for spec in objectives)
    else:
        values = tuple(float(v) for v in raw_values)
        if len(values) != len(objectives):
            raise ValueError(
                f"got {len(values)} raw values for {len(objectives)} objectives"
            )
    violation = 0.0
    for constraint in resolve_constraints(constraints):
        violation += constraint.violation(constraint.value(evaluation))
    return ObjectiveVector(
        names=names,
        values=values,
        maximize=maximize,
        feasible=violation == 0.0,
        violation=violation,
    )
