"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces a layer's public functions and methods with
thin wrappers that record one span per call: the layer name, start,
end, the enclosing span and the exception type if the call raised.
Spans stay in memory; :meth:`Tracer.summary` turns a slice of them into
per-layer self time (a span's duration minus the part its direct child
spans cover), call counts and error counts.

The wrappers are installed only for traced repetitions and removed
after each one, so untraced repetitions run the unmodified program.
Worker processes of a pool forked before installation never see them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

#: ``(module, class or None, attribute, layer)``: every call into
#: ``module[.class].attribute`` becomes a span named ``layer``.  A
#: function imported by name into another module is wrapped where it
#: is looked up, which is why ``execute_scenario`` appears twice.
LAYER_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.engine.runner", "BatchRunner", "run", "runner"),
    # The parent's wait on pool results (or, in-process, the serial
    # loop around the executor); no public call isolates it.
    ("repro.engine.runner", "BatchRunner", "_execute", "runner.pool_wait"),
    ("repro.engine.cache", "SqliteResultCache", "get", "cache.get"),
    ("repro.engine.cache", "SqliteResultCache", "put", "cache.put"),
    ("repro.engine.runner", None, "execute_scenario", "executor"),
    ("repro.tensor.batch", None, "execute_scenario", "executor"),
    ("repro.tensor.batch", None, "execute_batch", "tensor.batch"),
    ("repro.engine.executor", None, "build_simulator", "channel.build"),
    ("repro.engine.executor", None, "build_scene", "channel.build"),
    ("repro.engine.executor", None, "build_network", "channel.build"),
    ("repro.channel.simulator", "ChannelSimulator", "capture_pass",
     "channel.capture"),
    ("repro.engine.executor", None, "apply_signal_faults", "faults.signal"),
    ("repro.core.decoder", "AdaptiveThresholdDecoder", "decode",
     "decoder.decode"),
    ("repro.vehicles.rooftag", "TwoPhaseDecoder", "decode",
     "vehicles.two_phase"),
    ("repro.net.node", "ReceiverNode", "observe", "net.observe"),
    ("repro.net.tracker", "ReceiverNetwork", "fuse_at", "net.fuse"),
    ("repro.net.tracker", "ReceiverNetwork", "track_at", "net.track"),
    ("repro.stream.decode", "StreamDecoder", "push", "stream.push"),
    ("repro.stream.decode", "StreamDecoder", "flush", "stream.flush"),
    ("repro.stream.detect", "PreambleDetector", "check", "stream.acquire"),
    ("repro.stream.buffer", "StreamBuffer", "append", "stream.buffer"),
    ("repro.stream.normalize", "OnlineNormalizer", "update",
     "stream.normalize"),
)

#: ``(start, end)`` span-index ranges, or None for every span.
Slices = Sequence[tuple[int, int]] | None


@dataclass
class LayerSummary:
    """Aggregates of one layer's spans over a slice of the trace."""

    self_s: float = 0.0
    calls: int = 0
    errors: dict[str, int] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder around calls into the program's layers.

    Args:
        clock: time source in seconds (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.errors: dict[int, str] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span nested in the innermost open one."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int, error: BaseException | None = None) -> None:
        """End the innermost span (which must be ``index``)."""
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is open")
        if error is not None:
            self.errors[index] = type(error).__name__

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        open_, close = self.open, self.close

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = open_(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                close(index, exc)
                raise
            close(index)
            return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple[str, str | None, str, str]]
                  = LAYER_TARGETS) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        try:
            for module_name, class_name, attr, layer in targets:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                self.wrap(owner, attr, layer)
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    def _spans(self, slices: Slices) -> Iterator[tuple[int, int]]:
        """``(index, first index of its slice)`` for every selected span."""
        for start, end in slices if slices is not None else [(0, len(self))]:
            for i in range(start, end):
                yield i, start

    def summary(self, slices: Slices = None) -> dict[str, LayerSummary]:
        """Per-layer aggregates over the spans in ``slices``.

        Each ``(start, end)`` slice must hold whole span trees: take its
        bounds with ``len(tracer)`` between top-level calls.  None
        selects every span.
        """
        child_s: dict[int, float] = {}
        for i, start in self._spans(slices):
            parent = self.parents[i]
            if parent >= start:
                child_s[parent] = (child_s.get(parent, 0.0)
                                   + self.ends[i] - self.starts[i])
        out: dict[str, LayerSummary] = {}
        for i, _ in self._spans(slices):
            duration = self.ends[i] - self.starts[i]
            layer = out.setdefault(self.names[i], LayerSummary())
            layer.self_s += duration - child_s.get(i, 0.0)
            layer.calls += 1
            error = self.errors.get(i)
            if error is not None:
                layer.errors[error] = layer.errors.get(error, 0) + 1
        return out

    def durations(self, name: str, slices: Slices = None) -> list[float]:
        """Inclusive duration of every ``name`` span."""
        return [self.ends[i] - self.starts[i]
                for i, _ in self._spans(slices) if self.names[i] == name]

    def outermost_s(self, names: set[str], slices: Slices = None) -> float:
        """Summed duration of ``names`` spans with no ``names`` ancestor."""
        covered = 0.0
        for i, start in self._spans(slices):
            if self.names[i] not in names:
                continue
            parent = self.parents[i]
            while parent >= start and self.names[parent] not in names:
                parent = self.parents[parent]
            if parent < start:
                covered += self.ends[i] - self.starts[i]
        return covered

    def children_of(self, name: str, parent_name: str,
                    slices: Slices = None) -> int:
        """How many ``name`` spans sit directly inside a ``parent_name``."""
        return sum(1 for i, start in self._spans(slices)
                   if self.names[i] == name and self.parents[i] >= start
                   and self.names[self.parents[i]] == parent_name)
