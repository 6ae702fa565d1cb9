"""ECAD core: the paper's primary contribution.

Genomes and search spaces for joint NNA/hardware candidates, mutation and
crossover operators, fitness functions and Pareto analysis, the evaluation
cache, the steady-state evolutionary engine, the configuration-file format,
and the high-level :class:`~repro.core.search.CoDesignSearch` front-end.
"""

from .cache import CacheStatistics, EvaluationCache
from .callbacks import Callback, CallbackList, HistoryRecord, ProgressLogger, SearchHistory
from .candidate import CandidateEvaluation
from .config import ECADConfig, HardwareTargetConfig, NNAStructureConfig, OptimizationTargetConfig
from .crossover import CoDesignCrossover, crossover_hardware_fields, crossover_mlp_layers, crossover_swap_halves
from .engine import EngineConfig, EngineResult, EvolutionaryEngine, RunStatistics
from .errors import (
    ConfigurationError,
    ECADError,
    EvaluationError,
    GenomeError,
    InfeasibleHardwareError,
    SearchError,
)
from .fitness import FitnessEvaluator, FitnessResult
from .genome import (
    CoDesignGenome,
    CoDesignSearchSpace,
    HardwareGenome,
    HardwareSearchSpace,
    MLPGenome,
    MLPSearchSpace,
)
from .mutation import CoDesignMutator, MutationConfig
from .objectives import ObjectiveSpec, available_objectives, get_objective, register_objective
from .pareto import ParetoPoint, knee_point, make_points, pareto_frontier, pareto_frontier_indices, top_tradeoff_points
from .population import Individual, Population
from .search import CoDesignSearch, RandomSearch, SearchResult
from .selection import (
    RankSelection,
    RouletteWheelSelection,
    SelectionScheme,
    TournamentSelection,
    available_selection_schemes,
    get_selection,
)

__all__ = [
    "CacheStatistics",
    "EvaluationCache",
    "Callback",
    "CallbackList",
    "HistoryRecord",
    "ProgressLogger",
    "SearchHistory",
    "CandidateEvaluation",
    "ECADConfig",
    "HardwareTargetConfig",
    "NNAStructureConfig",
    "OptimizationTargetConfig",
    "CoDesignCrossover",
    "crossover_hardware_fields",
    "crossover_mlp_layers",
    "crossover_swap_halves",
    "EngineConfig",
    "EngineResult",
    "EvolutionaryEngine",
    "RunStatistics",
    "ConfigurationError",
    "ECADError",
    "EvaluationError",
    "GenomeError",
    "InfeasibleHardwareError",
    "SearchError",
    "FitnessEvaluator",
    "ObjectiveSpec",
    "FitnessResult",
    "available_objectives",
    "get_objective",
    "register_objective",
    "CoDesignGenome",
    "CoDesignSearchSpace",
    "HardwareGenome",
    "HardwareSearchSpace",
    "MLPGenome",
    "MLPSearchSpace",
    "CoDesignMutator",
    "MutationConfig",
    "ParetoPoint",
    "knee_point",
    "make_points",
    "pareto_frontier",
    "pareto_frontier_indices",
    "top_tradeoff_points",
    "Individual",
    "Population",
    "CoDesignSearch",
    "RandomSearch",
    "SearchResult",
    "RankSelection",
    "RouletteWheelSelection",
    "SelectionScheme",
    "TournamentSelection",
    "available_selection_schemes",
    "get_selection",
]
