"""Lossless JSON round-trip for :class:`~repro.core.candidate.CandidateEvaluation`.

The store persists the *full* merged worker report for each candidate — the
genome, accuracy, FPGA/GPU hardware metrics, the synthesis report and the
workers' free-form extras — so a warm run can serve evaluations that are
indistinguishable from freshly computed ones.  Floats survive the round-trip
exactly (Python's ``json`` emits ``repr``-precision floats), which is what
makes a store-served candidate bit-identical to the original evaluation.

A store hit looked up with its genome is a :class:`StoredEvaluation`: the
row's typed columns answer what a search reads (accuracy, FPGA throughput,
evaluation seconds) and the payload is decoded only when another field is
read.
"""

from __future__ import annotations

import json
from dataclasses import fields
from operator import attrgetter

from ..core.candidate import CandidateEvaluation
from ..core.errors import GenomeError, StoreError
from ..core.genome import CoDesignGenome
from ..hardware.results import HardwareMetrics
from ..hardware.synthesis import SynthesisReport

__all__ = [
    "StoredEvaluation",
    "evaluation_to_payload",
    "evaluation_from_payload",
    "dumps",
    "loads",
]


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


#: Every dataclass field of a record, in declaration order (what ``==`` compares).
_field_values = attrgetter(*(f.name for f in fields(CandidateEvaluation)))


def _deferred(name: str) -> property:
    return property(
        lambda self: getattr(self.payload_record(), name),
        doc=f"``{name}``, decoded from the stored payload on first read.",
    )


class StoredEvaluation(CandidateEvaluation):
    """A store hit served from its row, flagged ``from_cache=True``.

    ``genome`` is the object the caller looked the row up by; ``accuracy``,
    ``fpga_outputs_per_second`` and ``evaluation_seconds`` are the row's
    typed columns, and ``error`` is empty because failed evaluations are
    never stored.  Every other field is read from the payload, which is
    decoded once, on the first such read (:meth:`payload_record`).  To
    callers it is a :class:`CandidateEvaluation`: it compares, summarizes
    and pickles like the eagerly decoded record.

    Parameters
    ----------
    genome:
        The genome the row was looked up by.
    problem_digest, genome_key:
        The row's address, named by decode errors.
    accuracy, fpga_outputs_per_second, evaluation_seconds:
        The row's typed columns.
    payload:
        The row's JSON payload text.
    """

    def __init__(
        self,
        genome: CoDesignGenome,
        problem_digest: str,
        genome_key: str,
        accuracy: float,
        fpga_outputs_per_second: float,
        evaluation_seconds: float,
        payload: str,
    ) -> None:
        # The dataclass fields are plain instance attributes; no validation,
        # because the writer validated the record these columns came from.
        self.__dict__.update(
            genome=genome,
            accuracy=accuracy,
            evaluation_seconds=evaluation_seconds,
            from_cache=True,
            _row=(problem_digest, genome_key, accuracy, fpga_outputs_per_second,
                  evaluation_seconds, payload),
        )

    accuracy_std = _deferred("accuracy_std")
    parameter_count = _deferred("parameter_count")
    fpga_metrics = _deferred("fpga_metrics")
    gpu_metrics = _deferred("gpu_metrics")
    synthesis = _deferred("synthesis")
    train_seconds = _deferred("train_seconds")
    extras = _deferred("extras")

    @property
    def fpga_outputs_per_second(self) -> float:
        """FPGA throughput, from the row's column."""
        return self._row[3]

    def payload_record(self) -> CandidateEvaluation:
        """The payload decoded into a full record (decoded once, then kept).

        Concurrent first reads may each decode; the first record published
        is the one every reader gets.

        Raises
        ------
        StoreError
            When the payload is malformed, or its genome, accuracy, FPGA
            throughput, evaluation seconds or error disagree with the row.
            The message names the problem digest and the genome key.
        """
        record = self.__dict__.get("_payload_record")
        if record is None:
            record = self.__dict__.setdefault("_payload_record", self._decode())
        return record

    def _decode(self) -> CandidateEvaluation:
        problem_digest, genome_key, accuracy, fpga, seconds, payload = self._row
        where = f"stored row {genome_key} of problem {problem_digest}"
        try:
            record = loads(payload, self.genome)
        except StoreError as exc:
            raise StoreError(f"{where}: {exc}") from exc
        disagreements = [
            name
            for name, matches in (
                ("genome", record.genome is self.genome),
                ("accuracy", record.accuracy == accuracy),
                ("fpga_outputs_per_second", record.fpga_outputs_per_second == fpga),
                ("evaluation_seconds", record.evaluation_seconds == seconds),
                ("error", not record.error),
            )
            if not matches
        ]
        if disagreements:
            raise StoreError(
                f"{where}: payload disagrees with the row on {', '.join(disagreements)}"
            )
        return record

    def as_cache_copy(self) -> "StoredEvaluation":
        """Another served record over the same row (nothing is decoded)."""
        return StoredEvaluation(self.genome, *self._row)

    def __eq__(self, other: object) -> bool:
        # The dataclass ``__eq__`` requires equal classes; a served record
        # equals any record with the same field values.
        if not isinstance(other, CandidateEvaluation):
            return NotImplemented
        return _field_values(self) == _field_values(other)
