"""repro.exec — the shared execution core.

One named pipeline (``build → simulate → inject_faults → normalize →
acquire → refine_clock → decide → fuse``) with per-stage
instrumentation, run three ways: serially per scenario
(:mod:`repro.engine.executor`), over the rows of an optics group
(:mod:`repro.tensor.batch`, through the executor's rows step), and
incrementally per chunk (:mod:`repro.stream.decode`).  Each driver
times its stages with :func:`maybe_stage`.
"""

from .graph import (
    PIPELINE_STAGES,
    ExecStage,
    StageTrace,
    collect_traces,
    maybe_stage,
    new_trace,
    profiled,
)

__all__ = [
    "ExecStage", "PIPELINE_STAGES", "StageTrace", "collect_traces",
    "maybe_stage", "new_trace", "profiled",
]
