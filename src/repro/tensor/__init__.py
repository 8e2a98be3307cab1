"""Cross-scenario batched execution.

Public surface: :func:`execute_batch` runs N scenarios through the
executor's rows step, one ``(N, T)`` stack per optics group, in one
process (see :mod:`repro.tensor.batch`).

The package init stays import-light: the batch executor loads lazily
on first attribute access, because :mod:`repro.core.decoder` imports
:mod:`repro.tensor.rmq` and an eager ``batch`` import here would be
circular.
"""

from __future__ import annotations

__all__ = ["execute_batch", "optical_key", "fast_path_eligible",
           "clear_plan_cache"]


def __getattr__(name: str):
    if name in __all__:
        from . import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
