"""Tests for repro.exec.graph — the named pipeline and its timing hooks."""

import json
import os

import pytest

import repro.obs.registry as registry_mod
from repro.exec import (
    PIPELINE_STAGES,
    ExecStage,
    StageTrace,
    collect_traces,
    maybe_stage,
    new_trace,
    profiled,
)
from repro.obs import (
    TELEMETRY_ENV,
    MetricsRegistry,
    active_registry,
    set_registry,
    telemetry,
    telemetry_enabled,
)


@pytest.fixture(autouse=True)
def _telemetry_off(monkeypatch):
    """Each test starts with telemetry, and so tracing, fully off."""
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    set_registry(None)
    monkeypatch.setattr(registry_mod, "_ENV_DEFAULT", None)
    yield
    set_registry(None)


class TestExecStage:
    def test_pipeline_order(self):
        assert PIPELINE_STAGES == (
            "build", "simulate", "inject_faults", "normalize",
            "acquire", "refine_clock", "decide", "fuse")

    def test_stages_are_plain_strings(self):
        assert ExecStage.BUILD == "build"
        assert str(ExecStage.FUSE) == "fuse"
        assert f"{ExecStage.DECIDE}" == "decide"
        # Serialization must emit the bare value, not the member name.
        assert json.dumps(ExecStage.ACQUIRE) == '"acquire"'


class TestProfilingSwitch:
    """Stage tracing follows the one telemetry switch."""

    def test_off_by_default(self):
        assert not telemetry_enabled()
        assert new_trace() is None

    def test_env_values(self, monkeypatch):
        for raw, expect in [("1", True), ("true", True), ("on", True),
                            ("0", False), ("false", False), ("", False),
                            ("off", False), ("no", False)]:
            monkeypatch.setenv(TELEMETRY_ENV, raw)
            assert (new_trace() is not None) is expect

    def test_forced_overrides_env(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        with profiled(False):
            assert new_trace() is None
            # Workers forked in-scope must inherit the switch.
            assert TELEMETRY_ENV not in os.environ
        assert new_trace() is not None
        monkeypatch.setenv(TELEMETRY_ENV, "0")
        set_registry(MetricsRegistry())
        assert new_trace() is not None

    def test_profiled_restores(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, "0")
        with profiled():
            assert telemetry_enabled()
            assert new_trace() is not None
            # Workers forked in-scope must inherit the switch.
            assert os.environ[TELEMETRY_ENV] == "1"
        assert not telemetry_enabled()
        assert os.environ[TELEMETRY_ENV] == "0"

    def test_profiled_keeps_the_active_registry(self):
        with telemetry() as reg:
            with profiled():
                assert active_registry() is reg
            with profiled(False):
                assert active_registry() is None
            assert active_registry() is reg


class TestStageTrace:
    def test_accumulates(self):
        trace = StageTrace()
        trace.add(ExecStage.BUILD, 0.5)
        trace.add("build", 0.25)
        trace.count("chunks", 3)
        trace.count("chunks")
        assert trace.timings_s == {"build": 0.75}
        assert trace.counters == {"chunks": 4}
        assert trace.total_s == 0.75

    def test_stage_context_times(self):
        trace = StageTrace()
        with trace.stage("decide"):
            pass
        assert trace.timings_s["decide"] >= 0.0

    def test_merge_and_scaled(self):
        a = StageTrace(timings_s={"build": 1.0}, counters={"rows": 2})
        b = StageTrace(timings_s={"build": 0.5, "decide": 2.0},
                       counters={"rows": 1})
        a.merge(b)
        assert a.timings_s == {"build": 1.5, "decide": 2.0}
        assert a.counters == {"rows": 3}
        half = a.scaled(0.5)
        assert half.timings_s == {"build": 0.75, "decide": 1.0}
        # Counters describe the group and are never scaled.
        assert half.counters == {"rows": 3}
        # scaled() is a copy: the original is untouched.
        assert a.timings_s["build"] == 1.5

    def test_merge_empty_traces(self):
        # Empty into empty, empty into populated, populated into
        # empty: no spurious keys, no lost data.
        empty = StageTrace()
        empty.merge(StageTrace())
        assert empty.timings_s == {} and empty.counters == {}
        full = StageTrace(timings_s={"build": 1.0}, counters={"rows": 2})
        full.merge(StageTrace())
        assert full.timings_s == {"build": 1.0}
        assert full.counters == {"rows": 2}
        sink = StageTrace()
        sink.merge(full)
        assert sink.timings_s == {"build": 1.0}
        assert sink.counters == {"rows": 2}
        # merge copies: mutating the source must not alias the sink.
        full.add("build", 9.0)
        assert sink.timings_s == {"build": 1.0}

    def test_scaled_zero_factor(self):
        trace = StageTrace(timings_s={"build": 1.0, "decide": 2.0},
                           counters={"rows": 4})
        zero = trace.scaled(0.0)
        assert zero.timings_s == {"build": 0.0, "decide": 0.0}
        # Counters describe the whole group even at zero scale.
        assert zero.counters == {"rows": 4}
        assert zero.total_s == 0.0

    def test_scaled_empty_trace(self):
        scaled = StageTrace().scaled(0.5)
        assert scaled.timings_s == {} and scaled.counters == {}
        assert scaled.total_s == 0.0

    def test_merge_disjoint_stages(self):
        a = StageTrace(timings_s={"build": 1.0}, counters={"rows": 1})
        b = StageTrace(timings_s={"decide": 2.0}, counters={"chunks": 5})
        a.merge(b)
        assert a.timings_s == {"build": 1.0, "decide": 2.0}
        assert a.counters == {"rows": 1, "chunks": 5}

    def test_to_dict_pipeline_ordered(self):
        trace = StageTrace()
        trace.add("decide", 1.0)
        trace.add("build", 1.0)
        trace.add("acquire", 1.0)
        payload = trace.to_dict()
        assert list(payload["timings_s"]) == ["build", "acquire", "decide"]
        assert "counters" not in payload
        trace.count("n")
        roundtrip = StageTrace.from_dict(trace.to_dict())
        assert roundtrip.timings_s == trace.timings_s
        assert roundtrip.counters == trace.counters

    def test_maybe_stage_null_when_off(self):
        ctx = maybe_stage(None, "build")
        with ctx:
            pass
        # The shared no-op context is reused, not rebuilt per call.
        assert maybe_stage(None, "decide") is ctx


class TestCollectTraces:
    def test_collects_only_in_scope(self):
        with profiled():
            before = new_trace()
            with collect_traces() as traces:
                inside = new_trace()
            after = new_trace()
        # Identity, not equality: empty StageTraces all compare equal.
        assert len(traces) == 1 and traces[0] is inside
        assert before is not traces[0] and after is not traces[0]

    def test_nested_scopes_are_independent(self):
        with profiled():
            with collect_traces() as outer:
                with collect_traces() as inner:
                    t = new_trace()
                assert len(inner) == 1 and inner[0] is t
            assert outer == []
