"""Shared helpers: environment guard, metadata, host speed, statistics,
input picks."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Each of these changes the program being measured: stage profiling,
#: telemetry, the cache backend, lossy chunk transport, the DTW kernel.
FORBIDDEN_ENV = ("REPRO_EXEC_PROFILE", "REPRO_TELEMETRY",
                 "REPRO_CACHE_BACKEND", "REPRO_STREAM_CHUNK_LOSS",
                 "REPRO_DISABLE_NUMBA")

#: Percentiles the tail rule may choose from, ascending.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Length of the windows :class:`HostSpeed` matches times to.
BLOCK_S = 2.5


def forbidden_env(environ: Mapping[str, str]) -> list[str]:
    """The program-altering variables set in ``environ``."""
    return [name for name in FORBIDDEN_ENV if name in environ]


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment_meta(root: Path) -> dict:
    """Where the numbers were measured."""
    import scipy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process and its live children, MiB.

    Children are the program's pool workers; each one's peak is read
    from ``/proc`` while it still runs, so call this before the pool is
    shut down.  The sum bounds what the program held at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(child_peak_mb(child.pid)
                     for child in multiprocessing.active_children())


def child_peak_mb(pid: int) -> float:
    """``VmHWM`` of process ``pid`` in MiB; 0 once it has gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def by_block(stamps: Sequence[float], values: Sequence[float],
             block_s: float, origin: float) -> dict[int, list[float]]:
    """``values`` keyed by the index of the ``block_s`` window, counted
    from ``origin``, that their stamp falls in."""
    groups: dict[int, list[float]] = {}
    for stamp, value in zip(stamps, values):
        groups.setdefault(int((stamp - origin) // block_s), []).append(value)
    return groups


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Nominal time of one :func:`reference_kernel` call.  Gated times are
#: scaled to a host on which the kernel takes this long.
REFERENCE_S = 2.0e-3
#: How much the measured work slows per unit the kernel slows, on a
#: log scale.  Over runs minutes apart on a shared 2-vCPU host, batch
#: times and live CPU rates moved 1.1 to 1.4 times as much as the
#: kernel's time (the multi-process and long-working-set work most);
#: scaling by the plain ratio left the slowest runs 10-15% behind.
ELASTICITY = 1.3
#: Reference runs just before and just after a set-up, which scale it.
SETUP_TICKS = 20

_REF_ROWS = np.random.default_rng(0).random((16, 4000))
_REF_LOOP = range(1000)


def reference_kernel() -> float:
    """A fixed mix of NumPy passes and interpreter loops, about 2 ms.

    It touches no code of the program, so no change to the program can
    make it faster or slower; only the host can.  The mix runs twice:
    the first pass finds the caches as the timed work left them, the
    second finds them warm, so the sum follows a contended memory
    system as well as a slower core.
    """
    total = 0.0
    for _ in range(2):
        rows = np.cumsum(np.sort(_REF_ROWS, axis=1), axis=1)
        total += float((rows[:, ::7] * 1.5).max())
        counts: dict[int, int] = {}
        for v in _REF_LOOP:
            total += (v * 3 + 1) % 7
            counts[v & 63] = counts.get(v & 63, 0) + v
    return total


class HostSpeed:
    """Times of :func:`reference_kernel`, run between timed operations.

    A shared host slows by a third or more for minutes at a time, and
    the slowdown reaches every process on it.  Multiplying a time by
    ``(REFERENCE_S / k) ** ELASTICITY``, where ``k`` is the kernel's
    median time in the same ``BLOCK_S`` window, cancels most of it and
    gives the time on a host where the kernel takes ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times_s: list[float] = []
        #: Thread CPU seconds each run of the kernel took.
        self.cpu_times_s: list[float] = []

    def tick(self, count: int = 1) -> None:
        """Run the kernel ``count`` times and note each time."""
        for _ in range(count):
            cpu = time.thread_time()
            started = time.perf_counter()
            reference_kernel()
            self.times_s.append(time.perf_counter() - started)
            self.stamps.append(started)
            self.cpu_times_s.append(time.thread_time() - cpu)

    def median_s(self) -> float:
        return statistics.median(self.times_s)

    def scale(self, seconds: float) -> float:
        """``seconds`` at reference speed, by the whole-run median."""
        return seconds * (REFERENCE_S / self.median_s()) ** ELASTICITY

    def factors(self, stamps: Sequence[float],
                block_s: float = BLOCK_S) -> list[float]:
        """The factor that takes a time at each stamp to reference
        speed, from the kernel's median time in the stamp's window; the
        whole-run median where a window has none."""
        if not self.times_s:
            raise ValueError("the reference kernel never ran")
        origin = min(list(stamps) + self.stamps)
        medians = {k: statistics.median(v) for k, v in by_block(
            self.stamps, self.times_s, block_s, origin).items()}
        whole = self.median_s()
        return [(REFERENCE_S / medians.get(int((t - origin) // block_s),
                                           whole)) ** ELASTICITY
                for t in stamps]

    def scaled(self, stamps: Sequence[float],
               values: Sequence[float]) -> list[float]:
        """``values`` (seconds) at reference speed."""
        return [v * f for v, f in zip(values, self.factors(stamps))]

    def scaled_median(self, stamps: Sequence[float],
                      values: Sequence[float]) -> float:
        """Median of :meth:`scaled`; NaN for no values."""
        if not len(values):
            return math.nan
        return statistics.median(self.scaled(stamps, values))


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest candidate percentile with ``min_beyond`` samples above it.

    None when even the median is unsupported.
    """
    best = None
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= min_beyond - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (NaN for no values)."""
    if not len(values):
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=float), p))


def stratified(items: Sequence[T], key: Callable[[T], float],
               count: int) -> list[T]:
    """``count`` items at evenly spaced quantiles of ``key``.

    Draws from a seeded pool several times larger than ``count`` keep
    the cost profile of the pick nearly the same for every seed, while
    the items themselves differ.  The pick keeps pool order.
    """
    if count > len(items):
        raise ValueError(f"cannot pick {count} of {len(items)} items")
    order = sorted(range(len(items)), key=lambda i: key(items[i]))
    chosen = sorted(order[int((k + 0.5) * len(items) / count)]
                    for k in range(count))
    return [items[i] for i in chosen]
