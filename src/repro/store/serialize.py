"""Lossless JSON round-trip for :class:`~repro.core.candidate.CandidateEvaluation`.

The store persists the *full* merged worker report for each candidate — the
genome, accuracy, FPGA/GPU hardware metrics, the synthesis report and the
workers' free-form extras — so a warm run can serve evaluations that are
indistinguishable from freshly computed ones.  Floats survive the round-trip
exactly (Python's ``json`` emits ``repr``-precision floats), which is what
makes a store-served candidate bit-identical to the original evaluation.
"""

from __future__ import annotations

import json

from ..core.candidate import CandidateEvaluation
from ..core.errors import GenomeError, StoreError
from ..core.genome import CoDesignGenome
from ..hardware.results import HardwareMetrics
from ..hardware.synthesis import SynthesisReport

__all__ = ["evaluation_to_payload", "evaluation_from_payload", "dumps", "loads"]


def _metrics_to_dict(metrics: HardwareMetrics | None) -> dict | None:
    if metrics is None:
        return None
    data = metrics.to_dict()
    data["extras"] = dict(metrics.extras)
    return data


def _metrics_from_dict(data: dict | None) -> HardwareMetrics | None:
    if data is None:
        return None
    extras = data.get("extras") or {}
    return HardwareMetrics.from_dict(data, extras=extras)


def evaluation_to_payload(evaluation: CandidateEvaluation) -> dict:
    """JSON-serializable form of one evaluation.

    Parameters
    ----------
    evaluation:
        The record to persist.  The transient ``from_cache`` flag is not
        stored; the store re-flags rows it serves.

    Returns
    -------
    dict
        A plain dictionary safe for ``json.dumps``.
    """
    return {
        "genome": evaluation.genome.to_dict(),
        "accuracy": evaluation.accuracy,
        "accuracy_std": evaluation.accuracy_std,
        "parameter_count": evaluation.parameter_count,
        "fpga_metrics": _metrics_to_dict(evaluation.fpga_metrics),
        "gpu_metrics": _metrics_to_dict(evaluation.gpu_metrics),
        "synthesis": evaluation.synthesis.to_dict() if evaluation.synthesis else None,
        "train_seconds": evaluation.train_seconds,
        "evaluation_seconds": evaluation.evaluation_seconds,
        "error": evaluation.error,
        "extras": dict(evaluation.extras),
    }


def evaluation_from_payload(data: dict, genome: CoDesignGenome | None = None) -> CandidateEvaluation:
    """Inverse of :func:`evaluation_to_payload`.

    Parameters
    ----------
    data:
        The payload dictionary.
    genome:
        The genome the caller looked the row up by, if any.  When the
        payload's genome dictionary equals ``genome.to_dict()`` the record
        carries this object; any other genome is decoded and validated.

    Raises
    ------
    StoreError
        When the payload is structurally invalid (e.g. written by a corrupt
        store or an incompatible schema).
    """
    try:
        synthesis_data = data.get("synthesis")
        genome_data = data["genome"]
        if genome is None or genome_data != genome.to_dict():
            genome = CoDesignGenome.from_dict(genome_data)
        return CandidateEvaluation(
            genome=genome,
            accuracy=float(data["accuracy"]),
            accuracy_std=float(data.get("accuracy_std", 0.0)),
            parameter_count=int(data.get("parameter_count", 0)),
            fpga_metrics=_metrics_from_dict(data.get("fpga_metrics")),
            gpu_metrics=_metrics_from_dict(data.get("gpu_metrics")),
            synthesis=SynthesisReport.from_dict(synthesis_data) if synthesis_data else None,
            train_seconds=float(data.get("train_seconds", 0.0)),
            evaluation_seconds=float(data.get("evaluation_seconds", 0.0)),
            error=str(data.get("error", "")),
            extras=dict(data.get("extras", {})),
        )
    except (KeyError, TypeError, ValueError, GenomeError) as exc:
        raise StoreError(f"malformed stored evaluation payload: {exc!r}") from exc


def dumps(evaluation: CandidateEvaluation) -> str:
    """Serialize one evaluation to its canonical JSON payload string."""
    # default=str keeps exotic worker extras (numpy scalars, paths) from
    # breaking persistence; the core fields are all plain JSON types.
    return json.dumps(evaluation_to_payload(evaluation), sort_keys=True, default=str)


def loads(payload: str, genome: CoDesignGenome | None = None) -> CandidateEvaluation:
    """Deserialize one evaluation from its JSON payload string.

    ``genome`` is reused for a payload whose genome equals it (see
    :func:`evaluation_from_payload`).
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise StoreError(f"stored evaluation payload is not valid JSON: {exc}") from exc
    return evaluation_from_payload(data, genome)
