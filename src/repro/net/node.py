"""Receiver nodes: one deployed 'tiny box' plus its local detections.

Section 6 (5): "If the receivers in our system are networked, then they
can share the information about the tracked objects and thus could
improve the system's performance."

A :class:`ReceiverNode` owns a location along a track, a receiver front
end and a decoder; it turns passes into timestamped
:class:`Detection` records that the fusion layer combines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..channel.trace import SignalTrace
from ..core.decoder import AdaptiveThresholdDecoder, DecodeResult
from ..core.errors import DecodeError, PreambleNotFoundError
from ..exec.graph import StageTrace
from ..hardware.frontend import ReceiverFrontEnd

__all__ = ["Detection", "ReceiverNode", "decode_confidence",
           "detection_from_decode", "onset_timestamp"]


def decode_confidence(result: DecodeResult) -> float:
    """Fold one decode's quality signals into [0, 1].

    Preamble verification contributes half; the windows' decision
    margins (distance from threshold, relative to tau_r) the rest.
    Shared by deployed receiver nodes and streaming sessions so both
    report the same confidence currency to the fusion layer.
    """
    base = 0.5 if result.preamble_verified else 0.1
    if not result.windows or result.tau_r <= 0.0:
        return base
    margins = [abs(w.max_value - result.threshold_level) / result.tau_r
               for w in result.windows]
    margin_term = float(np.clip(np.mean(margins), 0.0, 1.0))
    return float(np.clip(base + 0.5 * margin_term, 0.0, 1.0))


def onset_timestamp(trace: SignalTrace) -> float:
    """Estimate when a pass's signal starts in a raw trace.

    The decoder anchors decoded reports on the *preamble start*; a
    failed decode used to be stamped with ``trace.start_time_s`` (the
    capture-window start), which sits a margin earlier and biases any
    track fit mixing decoded and undecoded reports.  This estimates the
    comparable quantity — the first sustained departure from the
    leading quiet baseline — directly from the samples.

    Falls back to the strongest deviation (flat-ish traces), then to
    the window start (degenerate traces).
    """
    x = np.asarray(trace.samples, dtype=float)
    if len(x) < 8:
        return trace.start_time_s
    n_base = max(4, len(x) // 10)
    baseline = float(np.median(x[:n_base]))
    deviation = np.abs(x - baseline)
    # Noise scale of the quiet lead-in; the onset threshold must clear
    # it and be a meaningful fraction of the trace's overall swing.
    noise = float(np.median(deviation[:n_base]))
    peak = float(deviation.max())
    if peak <= 0.0:
        return trace.start_time_s
    threshold = max(6.0 * noise, 0.2 * peak)
    above = np.nonzero(deviation >= threshold)[0]
    index = int(above[0]) if len(above) else int(np.argmax(deviation))
    return trace.start_time_s + index / trace.sample_rate_hz


@dataclass(frozen=True)
class Detection:
    """One node's report of one pass.

    Attributes:
        node_id: reporting node.
        position_m: node position along the track.
        timestamp_s: arrival time of the pass (node-local clock; nodes
            are assumed NTP-ish synchronised to ~ms).  Decoded reports
            anchor on the preamble start; undecoded reports estimate
            the signal onset from the raw trace so the two kinds stay
            comparable in one track fit (see ``timestamp_source``).
        bits: decoded payload ('' when the node could not decode).
        confidence: decode quality in [0, 1] — preamble verification and
            threshold margin folded into one number.
        symbol_period_s: the node's tau_t estimate (used for speed
            estimation downstream).
        timestamp_source: provenance of ``timestamp_s`` —
            ``"preamble_anchor"`` (decoded) or ``"onset_estimate"``
            (undecoded fallback).
    """

    node_id: str
    position_m: float
    timestamp_s: float
    bits: str
    confidence: float
    symbol_period_s: float = 0.0
    timestamp_source: str = "preamble_anchor"

    @property
    def decoded(self) -> bool:
        """Whether the node produced a payload."""
        return self.bits != ""


def detection_from_decode(node_id: str, position_m: float,
                          trace: SignalTrace,
                          result: DecodeResult | None) -> Detection:
    """One receiver's pass report from its decode of ``trace``.

    Shared by deployed receiver nodes and streaming sessions.  A decode
    that returned anchors on the preamble; one that raised (``result``
    None) estimates the signal onset from the raw trace instead.
    """
    if result is None:
        return Detection(node_id=node_id, position_m=position_m,
                         timestamp_s=onset_timestamp(trace),
                         bits="", confidence=0.0,
                         timestamp_source="onset_estimate")
    return Detection(
        node_id=node_id,
        position_m=position_m,
        timestamp_s=result.anchor_points[0].time_s,
        bits=result.bit_string(),
        confidence=decode_confidence(result) if result.success else 0.0,
        symbol_period_s=result.tau_t,
        timestamp_source="preamble_anchor",
    )


@dataclass
class ReceiverNode:
    """A deployed receiver at a fixed position along a track.

    Attributes:
        node_id: unique identifier.
        position_m: location along the track (m).
        frontend: the node's receiver chain.
        decoder: decoding algorithm — anything with the
            ``decode(trace, n_data_symbols=..., stage_trace=...) ->
            DecodeResult`` interface; pass a
            :class:`repro.vehicles.TwoPhaseDecoder` for nodes watching
            tagged cars.
    """

    node_id: str
    position_m: float
    frontend: ReceiverFrontEnd
    decoder: object = field(default_factory=AdaptiveThresholdDecoder)

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("node_id must be non-empty")

    def observe(self, trace: SignalTrace,
                n_data_symbols: int | None = None,
                stage_trace: StageTrace | None = None) -> Detection:
        """Process one captured pass into a detection record.

        ``stage_trace`` goes to the decoder, which times its own
        normalize/acquire/refine_clock/decide stages into it.
        """
        try:
            result = self.decoder.decode(trace, n_data_symbols=n_data_symbols,
                                         stage_trace=stage_trace)
        except (PreambleNotFoundError, DecodeError):
            result = None
        return detection_from_decode(self.node_id, self.position_m, trace,
                                     result)
