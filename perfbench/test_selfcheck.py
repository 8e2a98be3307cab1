"""Self-tests of the benchmark's own machinery.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from batch_workloads import OUTDOOR_LINK, reset_half_warm  # noqa: E402
from common import (  # noqa: E402
    ELASTICITY, REFERENCE_S, HostSpeed, by_block, child_peak_mb, forbidden_env,
    stratified, tail_percentile)
from live_workload import (  # noqa: E402
    CHUNK_SAMPLES, LiveRun, Pass, chunk_feed, offline_verdict,
    reference_cpu_s, run_phase)
from spans import Tracer  # noqa: E402

from repro.engine.cache import SqliteResultCache  # noqa: E402
from repro.engine.executor import capture_trace, execute_scenario  # noqa: E402
from repro.engine.runner import BatchRunner  # noqa: E402
from repro.scenarios.library import expand_family  # noqa: E402
from repro.tags.packet import Packet  # noqa: E402


class FakeClock:
    """A clock that only moves when told to, with a matching sleep."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

def test_by_block_keys_windows_from_the_origin():
    stamps = [10.0, 10.5, 12.4, 12.6, 17.6]
    assert by_block(stamps, [1, 2, 3, 4, 5], 2.5, 10.0) == \
        {0: [1, 2, 3], 1: [4], 3: [5]}


def speed_of(stamps: list[float], times_s: list[float]) -> HostSpeed:
    speed = HostSpeed()
    speed.stamps, speed.times_s = stamps, times_s
    speed.cpu_times_s = list(times_s)
    return speed


def test_scaling_cancels_a_slow_stretch_of_the_host():
    # The kernel takes REFERENCE_S in the first window and 1.5 times
    # as long in the second; an operation that slows with it, by
    # ELASTICITY on a log scale, scales to one value.
    k = REFERENCE_S
    speed = speed_of([0.0, 1.0, 2.0, 3.0, 4.0], [k, k, k, 1.5 * k, 1.5 * k])
    slow = 0.2 * 1.5 ** ELASTICITY
    stamps, values = [0.5, 1.5, 3.5, 4.5], [0.2, 0.2, slow, slow]
    assert speed.scaled(stamps, values) == pytest.approx([0.2] * 4)
    assert speed.scaled_median(stamps, values) == pytest.approx(0.2)
    # A window without kernel runs falls back on the whole-run median.
    assert speed.factors([9.0]) == [pytest.approx(1.0)]
    assert speed.scale(1.0) == pytest.approx(1.0)
    speed.times_s = [2 * k] * 5
    assert speed.scale(1.0) == pytest.approx(0.5 ** ELASTICITY)


def test_reference_kernel_runs_are_timed():
    speed = HostSpeed()
    speed.tick(3)
    assert len(speed.times_s) == len(speed.stamps) == 3
    assert len(speed.cpu_times_s) == 3
    assert all(t > 0.0 for t in speed.times_s)


def test_live_cpu_leaves_out_the_kernel_and_scales_each_window():
    run = LiveRun(cpu_s=0.0)
    # Two windows of 1 s CPU each; the kernel's 0.1 s CPU in each one
    # is left out, and the second window ran at half reference speed.
    run.cpu_ticks = [(0.0, 0.0), (2.5, 1.0), (5.0, 2.0)]
    run.speed = speed_of([0.0, 2.5], [REFERENCE_S, 2 * REFERENCE_S])
    run.speed.cpu_times_s = [0.1, 0.1]
    assert reference_cpu_s(run) == \
        pytest.approx(0.9 + 0.9 * 0.5 ** ELASTICITY)
    run.cpu_ticks = run.cpu_ticks[:1]
    assert reference_cpu_s(run) == 0.0


def test_child_peak_reads_proc_and_tolerates_gone_processes():
    assert child_peak_mb(os.getpid()) > 0.0
    assert child_peak_mb(2**22 + 1) == 0.0


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------

def test_stalled_push_makes_later_chunks_late_not_dropped():
    clock = FakeClock()
    samples = np.arange(5 * CHUNK_SAMPLES, dtype=float)
    dues: list[float] = []
    lags: list[float] = []
    ends: list[float] = []

    async def consume() -> None:
        async for _ in chunk_feed(samples, 0.0, 2000.0, dues, lags,
                                  clock=clock, sleep=clock.sleep):
            # The second push stalls for 100 ms, the rest take 1 ms.
            clock.now += 0.100 if len(ends) == 1 else 0.001
            ends.append(clock.now)

    asyncio.run(consume())
    period = CHUNK_SAMPLES / 2000.0
    assert dues == pytest.approx([period * (k + 1) for k in range(5)])
    latency = [end - due for end, due in zip(ends, dues)]
    assert len(latency) == 5
    assert latency[0] == pytest.approx(0.001)
    assert latency[1] == pytest.approx(0.100)
    # Chunks due during the stall are handed over late, and their
    # latency counts the wait from their due time.
    assert latency[2] == pytest.approx(0.165 - 3 * period)
    assert lags[2] == pytest.approx(0.164 - 3 * period)
    assert latency[2] > latency[3] > latency[4] > 0.001


def test_live_phase_verdicts_match_offline_decode():
    passes = []
    for spec in expand_family("fleet_mix", count=2, seed=7):
        packet = Packet.from_bitstring(spec.bits,
                                       symbol_width_m=spec.symbol_width_m)
        passes.append(Pass(spec, capture_trace(spec),
                           2 * len(packet.data_bits)))
    plan = [(0.0, 0), (0.05, 1), (0.1, 0)]
    run, verdicts = run_phase(passes, plan, seconds=5.0)
    assert run.failed == 0
    assert verdicts == [offline_verdict(passes[i]) for _, i in plan]
    assert run.chunks == len(run.chunk_latency_s) == len(run.push_end_s)
    assert sum(run.push_samples) == run.samples
    assert all(latency >= 0.0 for latency in run.chunk_latency_s)
    assert len(run.cpu_ticks) >= 2 and run.cpu_s > 0.0
    assert len(run.speed.times_s) == len(run.cpu_ticks) - 1


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def at(t: float) -> None:
        clock.now = t

    at(0.0)
    a = tracer.open("a")
    at(1.0)
    b = tracer.open("b")
    at(2.0)
    c = tracer.open("c")
    at(3.0)
    tracer.close(c)
    at(4.0)
    tracer.close(b)
    at(5.0)
    b2 = tracer.open("b")
    at(6.0)
    inner = tracer.open("b")
    at(7.0)
    tracer.close(inner)
    at(9.0)
    tracer.close(b2)
    at(10.0)
    tracer.close(a)

    summary = tracer.summary()
    assert summary["a"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert summary["b"].self_s == pytest.approx(2.0 + 3.0 + 1.0)
    assert tracer.durations("b") == pytest.approx([3.0, 4.0, 1.0])
    assert summary["c"].self_s == pytest.approx(1.0)
    assert sum(s.self_s for s in summary.values()) == pytest.approx(10.0)
    assert tracer.outermost_s({"b"}) == pytest.approx(7.0)
    assert tracer.children_of("c", "b") == 1
    # A slice that starts at the inner span sees it as a root.
    assert tracer.summary([(b2, len(tracer))])["b"].self_s == \
        pytest.approx(3.0 + 1.0)


def test_wrappers_record_errors_and_are_removed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    namespace = types.SimpleNamespace()

    def work(fail: bool) -> int:
        clock.now += 2.0
        if fail:
            raise KeyError("boom")
        return 7

    namespace.work = work
    with tracer.installed([]):
        tracer.wrap(namespace, "work", "layer")
        assert namespace.work(False) == 7
        with pytest.raises(KeyError):
            namespace.work(True)
    assert namespace.work is work
    summary = tracer.summary()["layer"]
    assert (summary.calls, summary.self_s) == (2, pytest.approx(4.0))
    assert summary.errors == {"KeyError": 1}


# ----------------------------------------------------------------------
# Half-warm cache
# ----------------------------------------------------------------------

def test_half_warm_reset_leaves_exactly_the_seeded_half(tmp_path):
    specs = [OUTDOOR_LINK.replace(seed=s) for s in (11, 12, 13, 14)]
    records = [execute_scenario(spec) for spec in specs]
    cache = SqliteResultCache(tmp_path / "cache")
    runner = BatchRunner(workers=1, cache=cache)
    try:
        for _ in range(2):
            reset_half_warm(cache, records, [0, 2])
            assert len(cache) == 2
            assert [records[i].spec_hash in cache for i in range(4)] == \
                [True, False, True, False]
            result = runner.run(specs)
            assert result.stats.cache_hits == 2
            assert len(cache) == 4
            assert [r.canonical_json() for r in result.records] == \
                [r.canonical_json() for r in records]
    finally:
        runner.close()
        cache.close()


# ----------------------------------------------------------------------
# Inputs and guards
# ----------------------------------------------------------------------

def test_stratified_pick_spans_the_quantiles_in_pool_order():
    items = [5, 1, 9, 3, 7, 2, 8, 4, 6, 0]
    assert stratified(items, float, 5) == [5, 1, 9, 3, 7]


def test_forbidden_environment_is_named():
    assert forbidden_env({"REPRO_TELEMETRY": "1", "HOME": "/"}) == \
        ["REPRO_TELEMETRY"]


def _run(cwd: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "grid_shared_optics", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=cwd, capture_output=True, text=True,
        timeout=120, env=env)


def test_refuses_program_altering_environment():
    proc = _run(ROOT, {**os.environ, "REPRO_EXEC_PROFILE": "1"})
    assert proc.returncode == 2
    assert "REPRO_EXEC_PROFILE" in proc.stderr
    assert proc.stdout == ""


def test_setup_only_prints_just_the_setup_time():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "grid_shared_optics", "--seed", "1", "--seconds", "1",
         "--setup-only"], cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["setup_s"] > 0.0 and result["setup_s_as_measured"] > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())
