"""Run records: the engine's unit of result.

A :class:`RunRecord` is everything a sweep consumer needs from one
scenario execution — decode outcome, failure stage, bit error rate,
trace statistics and timing — plus the originating spec, so records are
self-describing: reports can group by any spec field without access to
the grid that produced them.

Outcome stages are named once here (:class:`RecordStage`) and shared by
every layer: the record stages in :data:`STAGES`, the per-node stages
of networked runs, and the receiver-pipeline stages that
:mod:`repro.core.pipeline` historically declared as its own enum.
:func:`make_record` is the one place record invariants (success, BER,
fused-field mirroring) are computed — all three execution drivers
build their records through it.

Equality deliberately excludes wall-clock timing: two runs of the same
resolved spec compare equal whether they executed serially, in a worker
pool, or on different machines.  :meth:`RunRecord.canonical_json` is the
byte-stable form used by determinism tests and the on-disk cache; the
opt-in :class:`StageTrace` profile rides in ``elapsed``-style territory
(serialized only with timing, excluded from equality), so profiling a
run never changes its canonical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from ..exec.graph import StageTrace

__all__ = ["RecordStage", "RunRecord", "STAGES", "bit_error_rate",
           "make_record", "outcome_stage"]


class RecordStage(str, Enum):
    """Every named outcome stage, across all layers of the repo.

    A ``str`` subclass, so members serialize, compare and group
    exactly like the literal strings records always carried.  The
    first six members are the per-record pipeline outcomes
    (:data:`STAGES`); ``NODE_DROPPED``/``NO_DECODE`` label per-node
    rows of networked runs; the rest are the receiver-pipeline
    outcomes re-exported as :data:`repro.core.pipeline.PipelineStage`.
    """

    EXECUTOR_ERROR = "executor_error"
    SIMULATION_FAILED = "simulation_failed"
    PREAMBLE_NOT_FOUND = "preamble_not_found"
    DECODE_FAILED = "decode_failed"
    BIT_ERRORS = "bit_errors"
    DECODED = "decoded"
    # Per-node stages of networked records.
    NODE_DROPPED = "node_dropped"
    NO_DECODE = "no_decode"
    # Receiver-pipeline stages (repro.core.pipeline).
    SATURATED = "saturated"
    CLASSIFIED = "classified"
    COLLISION = "collision"
    FAILED = "failed"

    # Keep f-strings/%-formatting on the bare value across Python
    # versions ("decoded", never "RecordStage.DECODED").
    __str__ = str.__str__
    __format__ = str.__format__


#: Pipeline stages a scenario can end in, ordered by progress.
#: ``executor_error`` is runner-synthesized (per-scenario timeout,
#: crashed worker): the pipeline never ran at all, so such records are
#: never cached.
STAGES = (RecordStage.EXECUTOR_ERROR.value,
          RecordStage.SIMULATION_FAILED.value,
          RecordStage.PREAMBLE_NOT_FOUND.value,
          RecordStage.DECODE_FAILED.value,
          RecordStage.BIT_ERRORS.value,
          RecordStage.DECODED.value)


def bit_error_rate(sent: str, decoded: str) -> float:
    """BER of a decoded payload vs the sent one (1.0 for no decode).

    Mismatches plus the length difference, over the longer payload —
    the one definition every driver shares.
    """
    if not decoded:
        return 1.0
    n = max(len(sent), len(decoded))
    errors = sum(a != b for a, b in zip(sent, decoded))
    errors += abs(len(sent) - len(decoded))
    return errors / n


def outcome_stage(decoded: str, sent: str,
                  empty: "RecordStage | str" = RecordStage.BIT_ERRORS,
                  ) -> str:
    """The stage label for a decode payload vs the sent bits.

    Args:
        decoded: recovered payload ('' when nothing came back).
        sent: the physically encoded payload.
        empty: label for an empty payload.  Drivers labelling a decode
            that *returned* empty keep the default (``bit_errors``,
            the payload is simply wrong); the network layer labels an
            empty fused verdict ``decode_failed`` and an empty node
            report ``no_decode``.
    """
    if decoded == sent:
        return RecordStage.DECODED.value
    if decoded:
        return RecordStage.BIT_ERRORS.value
    return str(empty)


@dataclass
class RunRecord:
    """Outcome of executing one resolved :class:`ScenarioSpec`.

    Attributes:
        spec_hash: content hash of the resolved spec (cache key).
        spec: the resolved spec as a plain dict.
        seed: the concrete noise seed that ran.
        sent_bits: payload physically encoded on the tag.
        decoded_bits: what the decoder recovered ('' on failure).
        success: exact payload match.
        stage: how far the pipeline got (see :data:`STAGES`).
        ber: bit error rate vs the sent payload (1.0 when nothing
            decoded).
        n_samples: RSS samples in the captured pass.
        trace_duration_s: captured window length (simulated seconds).
        sample_rate_hz: concrete sampling rate used.
        noise_floor_lux: the scene's nominal ambient level.
        error: the simulator's error message when ``stage`` is
            ``simulation_failed``, or the runner's diagnosis when it is
            ``executor_error`` ('' otherwise).
        fault_events: injected-fault event counts by kind (e.g.
            ``chunks_dropped``, ``noise_bursts``) when the spec carried
            a fault plan; empty — and omitted from serialized records —
            for fault-free runs, so pre-fault records keep their exact
            bytes.
        nodes: per-node decode outcomes for networked runs
            (``spec["n_receivers"] > 1``): one dict per receiver with
            ``node_id``, ``position_m``, ``bits``, ``success``,
            ``confidence``, ``timestamp_s``, ``timestamp_source`` and
            ``stage``.  Empty for single-receiver runs.
        fused_bits: the network's fused payload verdict.  For
            single-receiver runs this mirrors ``decoded_bits`` so
            fusion columns aggregate uniformly across receiver counts.
        fused_success: fused payload matches ``sent_bits`` exactly.
        best_node_success: did *any* single node decode exactly?  (For
            single-receiver runs: same as ``success``.)
        fusion_gain: ``fused_success - best_node_success``.  The vote
            picks among node reports, so fused success implies some
            node decoded: the per-pass value is 0 (the network's
            verdict reached the any-node ceiling) or -1 (a node held
            the exact payload but the verdict missed it — outvoted by
            a wrong payload, or unreachable from the ``rx0`` query
            viewpoint in a ``partitioned`` topology).  The Section 6
            *improvement* is read from rates across receiver counts:
            fused rate at N receivers vs the N=1 baseline (see
            :func:`repro.analysis.sweep_fusion_gain`).
        speed_est_mps: the network's tracked speed estimate (None when
            no group fit — fewer than two distinct positions, or a
            garbled unfittable pass).
        speed_error: relative speed-estimate error
            ``|est - nominal| / nominal`` (None without an estimate).
        stream_chunks: chunks fed through the streaming runtime when
            the spec requested online replay (``stream_chunk > 0``);
            0 for offline decodes.
        onset_latency_s: sample-clock delay between the preamble's A
            peak and the streaming detector locking on (None when the
            run was offline, or the detector never locked).
        first_bit_latency_s: delay between the first data bit's last
            sample and its provisional online decision (None as above).
        verdict_latency_s: delay between the last data window and the
            final verdict emission (None for offline runs and for
            streamed runs whose decode produced no payload — a failed
            decode measured nothing).  All three
            latencies are sample-clock quantities — deterministic for
            a given spec, so they participate in record equality and
            the byte-stable cache form, unlike wall-clock timing.
        elapsed_s: wall-clock execution time (excluded from equality).
        stage_trace: per-stage wall time/counters when the run had
            telemetry on (``REPRO_TELEMETRY`` / ``--telemetry`` /
            ``--profile``), else None.  Wall-clock instrumentation,
            so it is excluded from equality and from
            :meth:`canonical_json` like ``elapsed_s``.
    """

    spec_hash: str
    spec: dict[str, Any]
    seed: int
    sent_bits: str
    decoded_bits: str
    success: bool
    stage: str
    ber: float
    n_samples: int
    trace_duration_s: float
    sample_rate_hz: float
    noise_floor_lux: float
    error: str = ""
    fault_events: dict[str, int] = field(default_factory=dict)
    nodes: list[dict[str, Any]] = field(default_factory=list)
    fused_bits: str = ""
    fused_success: bool = False
    best_node_success: bool = False
    fusion_gain: float = 0.0
    speed_est_mps: float | None = None
    speed_error: float | None = None
    stream_chunks: int = 0
    onset_latency_s: float | None = None
    first_bit_latency_s: float | None = None
    verdict_latency_s: float | None = None
    elapsed_s: float = field(default=0.0, compare=False)
    stage_trace: StageTrace | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, "
                             f"got {self.stage!r}")

    @property
    def networked(self) -> bool:
        """Whether this record came from a multi-receiver deployment."""
        return bool(self.nodes)

    @property
    def streamed(self) -> bool:
        """Whether this record came from an online streaming replay."""
        return self.stream_chunks > 0

    @property
    def faulted(self) -> bool:
        """Whether any injected fault actually fired during this run."""
        return bool(self.fault_events)

    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        """Plain-dict form (JSON-safe).

        ``fault_events`` is omitted when empty, and ``stage_trace``
        when absent (or when timing is excluded), so unprofiled and
        fault-free records serialize byte-identically to records from
        before those features existed.  Built field by field in
        declaration order: the key order and values are those of
        ``dataclasses.asdict``, with fresh copies of the ``spec``,
        ``nodes`` and ``fault_events`` containers, but without its
        recursive deep-copy walk (this sits on every cache write).
        """
        data = {name: getattr(self, name) for name in _FIELD_ORDER}
        data["spec"] = _copy_plain(self.spec)
        data["nodes"] = _copy_plain(self.nodes)
        if self.fault_events:
            data["fault_events"] = dict(self.fault_events)
        else:
            del data["fault_events"]
        del data["stage_trace"]
        if not include_timing:
            del data["elapsed_s"]
        elif self.stage_trace is not None:
            data["stage_trace"] = self.stage_trace.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict`; tolerates a missing timing.

        Records written before the fusion fields existed are
        single-receiver by construction, so the fused verdict mirrors
        the decode outcome (exactly what the executor stamps on fresh
        single-receiver records) — without this, pre-fusion records in
        a mixed results file would read as fused failures.
        """
        unknown = set(data) - _FIELD_NAMES
        if unknown:
            raise ValueError(f"unknown record fields: {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("stage_trace"), Mapping):
            data["stage_trace"] = StageTrace.from_dict(data["stage_trace"])
        if "fused_bits" not in data and not data.get("nodes"):
            data.setdefault("fused_bits", data.get("decoded_bits", ""))
            data.setdefault("fused_success", data.get("success", False))
            data.setdefault("best_node_success", data.get("success", False))
        return cls(**data)

    def canonical_json(self) -> str:
        """Byte-stable JSON excluding timing — the determinism contract:
        identical resolved specs must produce identical bytes regardless
        of worker count."""
        return json.dumps(self.to_dict(include_timing=False),
                          sort_keys=True, separators=(",", ":"))


#: Field names in declaration order (the :meth:`RunRecord.to_dict` key
#: order), and as a set for :meth:`RunRecord.from_dict`, resolved once.
_FIELD_ORDER = tuple(f.name for f in dataclasses.fields(RunRecord))
_FIELD_NAMES = frozenset(_FIELD_ORDER)


def _copy_plain(value: Any) -> Any:
    """A fresh copy of nested dicts and lists; other values are shared
    (record payloads hold only immutable scalars below them)."""
    if isinstance(value, dict):
        return {key: _copy_plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_plain(item) for item in value]
    return value


def make_record(*, spec_hash: str, spec: dict[str, Any], seed: int,
                sent_bits: str, stage: "RecordStage | str",
                sample_rate_hz: float, decoded_bits: str = "",
                n_samples: int = 0, noise_floor_lux: float = 0.0,
                error: str = "",
                fault_events: Mapping[str, int] | None = None,
                nodes: list[dict[str, Any]] | None = None,
                best_node_success: bool | None = None,
                speed_est_mps: float | None = None,
                speed_error: float | None = None,
                elapsed_s: float = 0.0,
                stage_trace: StageTrace | None = None,
                **stream_fields: Any) -> RunRecord:
    """Build a :class:`RunRecord`, computing the derived invariants.

    The one construction path shared by all three drivers (and the
    runner's synthesized error records): success is the exact payload
    match, BER comes from :func:`bit_error_rate`, trace duration from
    the sample count, and the fused columns mirror the decode verdict
    — for networked runs ``decoded_bits`` *is* the fused payload and
    the caller supplies ``best_node_success``, which also yields the
    per-pass ``fusion_gain``.

    Extra keyword arguments (the streaming latency fields) pass
    through to the record unchanged.
    """
    success = decoded_bits == sent_bits
    best = success if best_node_success is None else bool(best_node_success)
    return RunRecord(
        spec_hash=spec_hash,
        spec=spec,
        seed=seed,
        sent_bits=sent_bits,
        decoded_bits=decoded_bits,
        success=success,
        stage=str(stage),
        ber=bit_error_rate(sent_bits, decoded_bits),
        n_samples=n_samples,
        trace_duration_s=n_samples / sample_rate_hz,
        sample_rate_hz=sample_rate_hz,
        noise_floor_lux=noise_floor_lux,
        error=error,
        fault_events=dict(fault_events) if fault_events else {},
        nodes=nodes if nodes is not None else [],
        fused_bits=decoded_bits,
        fused_success=success,
        best_node_success=best,
        fusion_gain=float(success) - float(best),
        speed_est_mps=speed_est_mps,
        speed_error=speed_error,
        elapsed_s=elapsed_s,
        stage_trace=stage_trace,
        **stream_fields,
    )
