"""Reference serialization of :class:`RunRecord` built on ``asdict``.

The oracle for :meth:`RunRecord.to_dict`, which builds its dict field
by field instead: same key order, same values, and fresh copies of
every nested container, exactly what ``dataclasses.asdict``'s
recursive deep copy produces.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.engine.records import RunRecord


def reference_to_dict(record: RunRecord,
                      include_timing: bool = True) -> dict[str, Any]:
    """``record``'s plain-dict form through ``dataclasses.asdict``."""
    data = dataclasses.asdict(record)
    if not include_timing:
        data.pop("elapsed_s")
    if not data["fault_events"]:
        data.pop("fault_events")
    data.pop("stage_trace")
    if include_timing and record.stage_trace is not None:
        data["stage_trace"] = record.stage_trace.to_dict()
    return data
