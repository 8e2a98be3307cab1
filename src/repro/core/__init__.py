"""Core contribution: decoding, classification, collision analysis,
receiver selection, capacity analysis and the end-to-end link API."""

from .capacity import (
    IndoorSetup,
    max_decodable_height,
    max_supported_speed_mps,
    min_decodable_width,
    probe_decodable,
    probe_spec,
    throughput_symbols_per_second,
)
from .classifier import ClassificationResult, DtwClassifier, Template
from .collision import CollisionAnalyzer, CollisionReport
from .designer import TagDesign, TagDesigner
from .decoder import (
    AdaptiveThresholdDecoder,
    DecodeResult,
    DecoderConfig,
    SymbolWindow,
)
from .errors import (
    ClassificationError,
    DecodeError,
    PassiveVlcError,
    PreambleNotFoundError,
    SaturatedReceiverError,
)
from .link import LinkBudget, LinkReport, PassiveLink
from .pipeline import PipelineResult, PipelineStage, ReceiverPipeline
from .receiver_select import DualReceiverController, ReceiverChoice

__all__ = [
    "IndoorSetup", "max_decodable_height", "max_supported_speed_mps",
    "min_decodable_width", "probe_decodable", "probe_spec",
    "throughput_symbols_per_second",
    "ClassificationResult", "DtwClassifier", "Template",
    "CollisionAnalyzer", "CollisionReport",
    "TagDesign", "TagDesigner",
    "AdaptiveThresholdDecoder", "DecodeResult", "DecoderConfig",
    "SymbolWindow",
    "ClassificationError", "DecodeError", "PassiveVlcError",
    "PreambleNotFoundError", "SaturatedReceiverError",
    "LinkBudget", "LinkReport", "PassiveLink",
    "PipelineResult", "PipelineStage", "ReceiverPipeline",
    "DualReceiverController", "ReceiverChoice",
]
