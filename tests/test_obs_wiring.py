"""Integration tests for the telemetry wiring across engine tiers.

Covers the common ``to_metrics`` shape on every stats object, the
incremental cache/retry/runner instrumentation, and the load-bearing
guarantee: enabling telemetry never changes a single canonical record
byte (checked against the full ``stage_parity.json`` golden set).
"""

import collections
import hashlib
import json
from pathlib import Path

import pytest

import repro.obs.registry as registry_mod
from repro.engine import BatchRunner, ScenarioSpec, SqliteResultCache
from repro.engine.executor import execute_scenario
from repro.engine.runner import RunStats
from repro.engine.spec import expand_grid
from repro.faults.inject import FaultLog
from repro.faults.retry import RetryExhausted, RetryPolicy
from repro.obs import (
    TELEMETRY_ENV,
    EventLog,
    MetricsRegistry,
    set_events,
    set_registry,
    telemetry_session,
)
from repro.stream.session import SessionStats

from tests.test_engine_cache import make_record
from tests.test_exec_parity import NETWORK_FAILURE, SERIAL_FAILURE
from tests.test_tensor_batch import FAST

GOLDEN_PATH = Path(__file__).parent / "baselines" / "stage_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
ENTRIES = GOLDEN["records"]
SPECS = [ScenarioSpec.from_dict(e["spec"]) for e in ENTRIES]
REPRESENTATIVES = (0, 13, 16, 17)


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    set_registry(None)
    set_events(None)
    monkeypatch.setattr(registry_mod, "_ENV_DEFAULT", None)
    yield
    set_registry(None)
    set_events(None)


def counter_value(reg, name, labels=None):
    return reg.counter(name, labels).value


class TestToMetricsCommonShape:
    """Satellite: every stats object folds into the registry the same way."""

    def test_run_stats(self):
        reg = MetricsRegistry()
        stats = RunStats(total=5, cache_hits=2, executed=3,
                         elapsed_s=0.5, backend="process",
                         pool_restarts=1, timeouts=1, executor_errors=1,
                         serial_fallback=True,
                         fault_events={"chunks_dropped": 4})
        stats.to_metrics(reg)
        by = {"backend": "process"}
        assert counter_value(reg, "engine_scenarios_total",
                             {**by, "outcome": "run"}) == 3
        assert counter_value(reg, "engine_scenarios_total",
                             {**by, "outcome": "cached"}) == 2
        assert counter_value(reg, "engine_scenarios_total",
                             {**by, "outcome": "failed"}) == 1
        assert counter_value(reg, "engine_pool_restarts_total") == 1
        assert counter_value(reg, "engine_timeouts_total") == 1
        assert counter_value(reg, "engine_serial_fallbacks_total") == 1
        assert counter_value(reg, "fault_injections_total",
                             {"kind": "chunks_dropped"}) == 4
        assert reg.histogram("engine_batch_seconds", by).count == 1

    def test_fault_log(self):
        reg = MetricsRegistry()
        log = FaultLog(chunks_dropped=2, noise_bursts=1)
        log.to_metrics(reg)
        assert counter_value(reg, "fault_injections_total",
                             {"kind": "chunks_dropped"}) == 2
        assert counter_value(reg, "fault_injections_total",
                             {"kind": "noise_bursts"}) == 1
        # Zero-count kinds stay absent from the snapshot.
        names = {(c["name"], tuple(sorted(c["labels"].items())))
                 for c in reg.snapshot()["counters"]}
        assert ("fault_injections_total",
                (("kind", "dropouts"),)) not in names

    def test_session_stats(self):
        reg = MetricsRegistry()
        SessionStats(n_chunks=4, n_samples=100, busy_s=0.2,
                     max_queue_depth=3, backpressure_waits=1,
                     decode_errors=1).to_metrics(reg)
        assert counter_value(reg, "stream_sessions_total",
                             {"outcome": "poisoned"}) == 1
        assert counter_value(reg, "stream_samples_total") == 100
        assert counter_value(reg, "stream_backpressure_waits_total") == 1
        assert reg.gauge("stream_queue_depth_peak").value == 3
        assert reg.histogram("stream_session_busy_seconds").count == 1
        SessionStats().to_metrics(reg)
        assert counter_value(reg, "stream_sessions_total",
                             {"outcome": "ok"}) == 1


class TestCacheWiring:
    def test_lookups_and_writes_instrumented(self, tmp_path):
        with telemetry_session() as (reg, events):
            cache = SqliteResultCache(tmp_path)
            record = make_record()
            assert cache.get(record.spec_hash) is None
            cache.put(record)
            assert cache.get(record.spec_hash) is not None
            cache.close()
            assert counter_value(reg, "cache_lookups_total",
                                 {"result": "miss"}) == 1
            assert counter_value(reg, "cache_lookups_total",
                                 {"result": "hit"}) == 1
            assert counter_value(reg, "cache_writes_total") == 1
            cache_series = {(c["name"], tuple(c["labels"]))
                            for c in reg.snapshot()["counters"]
                            if c["name"].startswith("cache_")}
            assert cache_series == {("cache_lookups_total", ("result",)),
                                    ("cache_writes_total", ())}
            assert [(e.kind, e.fields) for e in events.events] == [
                ("cache_miss", {"key": record.spec_hash}),
                ("cache_hit", {"key": record.spec_hash})]

    def test_disabled_path_records_nothing(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        cache.put(make_record())
        assert cache.get(make_record().spec_hash) is not None
        cache.close()
        # Only the plain stats counters moved; no registry existed.
        assert cache.stats.hits == 1


class TestRetryWiring:
    def test_retries_and_exhaustion_counted(self):
        with telemetry_session() as (reg, events):
            policy = RetryPolicy(max_attempts=3)
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                raise OSError("still broken")

            with pytest.raises(RetryExhausted):
                policy.call(flaky, sleep=lambda s: None)
            assert calls["n"] == 3
            assert counter_value(reg, "retry_attempts_total",
                                 {"error": "OSError"}) == 2
            assert counter_value(reg, "retry_exhausted_total",
                                 {"error": "OSError"}) == 1
            kinds = [e.kind for e in events.events]
            assert kinds == ["retry", "retry", "retry_exhausted"]
            assert events.events[-1].fields["attempts"] == 3

    def test_success_after_retry_is_not_exhaustion(self):
        with telemetry_session() as (reg, events):
            policy = RetryPolicy(max_attempts=3)
            state = {"n": 0}

            def eventually():
                state["n"] += 1
                if state["n"] < 2:
                    raise OSError("once")
                return "ok"

            assert policy.call(eventually, sleep=lambda s: None) == "ok"
            assert counter_value(reg, "retry_attempts_total",
                                 {"error": "OSError"}) == 1
            assert not events.of_kind("retry_exhausted")


class TestRunnerWiring:
    def test_batch_metrics_and_events(self, tmp_path):
        subset = [SPECS[i] for i in REPRESENTATIVES]
        with telemetry_session() as (reg, events):
            with BatchRunner(cache=tmp_path / "cache") as runner:
                runner.run(subset)
                runner.run(subset)  # warm: all cached
            by = {"backend": "process"}
            assert counter_value(reg, "engine_scenarios_total",
                                 {**by, "outcome": "run"}) == len(subset)
            assert counter_value(reg, "engine_scenarios_total",
                                 {**by, "outcome": "cached"}) == len(subset)
            assert reg.histogram("engine_batch_seconds", by).count == 2
            starts = events.of_kind("batch_start")
            ends = events.of_kind("batch_end")
            assert len(starts) == len(ends) == 2
            assert starts[0].fields["n_specs"] == len(subset)
            assert ends[1].fields["cached"] == len(subset)
            # Incremental cache instrumentation rode along.
            assert counter_value(reg, "cache_lookups_total",
                                 {"result": "hit"}) == len(subset)


class TestPooledTelemetry:
    """Telemetry means the same at ``workers=1`` and ``workers=2``: the
    runner folds the stage traces its records bring back, in the
    parent, one observation per scenario and stage."""

    #: Offline, streamed, faulted, two-phase and networked goldens,
    #: plus build failures contained on one receiver and on an array.
    BATCH = SPECS + [SERIAL_FAILURE, NETWORK_FAILURE]

    @staticmethod
    def untimed(snapshot):
        """The snapshot without seconds (histogram sums and bucket
        counts)."""
        return {group: [{k: v for k, v in series.items()
                         if k not in ("sum", "counts")}
                        for series in entries]
                for group, entries in snapshot.items()}

    @pytest.mark.parametrize("backend", ["process", "tensor"])
    def test_snapshots_match_across_worker_counts(self, backend):
        snapshots = []
        for workers in (1, 2):
            with telemetry_session() as (reg, _):
                with BatchRunner(workers=workers, backend=backend) as runner:
                    runner.run(self.BATCH)
            snapshots.append(self.untimed(reg.snapshot()))
        assert snapshots[0] == snapshots[1]
        drivers = {h["labels"]["driver"] for h in snapshots[0]["histograms"]
                   if h["name"] == "exec_stage_seconds"}
        assert drivers == ({"serial", "network", "tensor"}
                           if backend == "tensor" else {"serial", "network"})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fused_rows_observed_once_each(self, workers):
        with telemetry_session() as (reg, _):
            with BatchRunner(workers=workers, backend="tensor") as runner:
                records = runner.run(SPECS).records
        fused = [r.stage_trace for r in records
                 if "batch_rows" in r.stage_trace.counters]
        # Every single receiver of the goldens; the 4 arrays delegate.
        assert len(fused) == 24
        snapshot = reg.snapshot()
        stages = {h["labels"]["stage"]: h for h in snapshot["histograms"]
                  if h["name"] == "exec_stage_seconds"
                  and h["labels"]["driver"] == "tensor"}
        assert set(stages) == set().union(*(t.timings_s for t in fused))
        for stage, series in stages.items():
            shares = [t.timings_s[stage] for t in fused
                      if stage in t.timings_s]
            assert series["count"] == len(shares), stage
            assert series["sum"] == pytest.approx(sum(shares)), stage
        assert counter_value(reg, "exec_stage_events_total",
                             {"event": "batch_rows",
                              "driver": "tensor"}) == len(fused)

    def test_cache_hits_add_no_stage_samples(self, tmp_path):
        subset = [SPECS[i] for i in REPRESENTATIVES]
        with BatchRunner(cache=tmp_path / "cache") as runner:
            runner.run(subset)
            with telemetry_session() as (reg, _):
                runner.run(subset)
        assert not [h for h in reg.snapshot()["histograms"]
                    if h["name"] == "exec_stage_seconds"]


class TestFoldLookups:
    """The runner's fold resolves each stage series once per batch."""

    def test_one_registry_lookup_per_series(self, monkeypatch):
        specs = expand_grid(FAST, {"ground_lux": [450.0, 2000.0],
                                   "seed": [2, 3, 4, 5]})
        lookups = collections.Counter()
        get_or_create = MetricsRegistry._get_or_create

        def spy(self, cls, name, labels, **kwargs):
            lookups[name, tuple(sorted((labels or {}).items()))] += 1
            return get_or_create(self, cls, name, labels, **kwargs)

        with telemetry_session() as (reg, _):
            with BatchRunner(backend="tensor") as runner:
                monkeypatch.setattr(MetricsRegistry, "_get_or_create", spy)
                records = runner.run(specs).records
        assert all("batch_rows" in r.stage_trace.counters for r in records)
        stage_series = [key for key in lookups
                        if key[0].startswith("exec_stage_")]
        assert len(stage_series) > 4
        assert max(lookups.values()) == 1, lookups.most_common(3)


class TestStreamWiring:
    def test_mux_defaults_to_active_registry(self):
        from repro.stream.session import SessionMux

        with telemetry_session() as (reg, _):
            assert SessionMux().registry is reg
        assert SessionMux().registry is None

    def test_session_metrics_published_after_replay(self):
        from repro.stream import replay_traces

        from tests.test_stream_decode import synthetic_trace

        trace = synthetic_trace(bits="10")
        feeds = {"s0": (trace, 4, None)}
        with telemetry_session() as (reg, _):
            mux = replay_traces(feeds, chunk_size=32)
            assert mux.session("s0").verdict().bits == "10"
            assert counter_value(reg, "stream_sessions_total",
                                 {"outcome": "ok"}) == 1
            chunks = mux.session("s0").stats.n_chunks
            assert chunks > 0
            assert counter_value(reg, "exec_stage_events_total",
                                 {"event": "stream_chunks",
                                  "driver": "stream"}) == chunks
            assert counter_value(reg, "stream_samples_total") == len(
                trace.samples)
            assert reg.histogram("stream_session_busy_seconds").count == 1


class TestByteParityWithTelemetry:
    """The load-bearing guarantee: telemetry on, bytes unchanged."""

    @staticmethod
    def sha(record):
        return hashlib.sha256(record.canonical_json().encode()).hexdigest()

    def test_all_goldens_serial(self):
        with telemetry_session():
            for i, spec in enumerate(SPECS):
                record = execute_scenario(spec)
                assert self.sha(record) == ENTRIES[i]["sha256"], \
                    f"record {i}"

    def test_representatives_tensor(self):
        from repro.tensor.batch import execute_batch

        subset = [SPECS[i] for i in REPRESENTATIVES]
        with telemetry_session():
            records = execute_batch(subset)
        for i, record in zip(REPRESENTATIVES, records):
            assert self.sha(record) == ENTRIES[i]["sha256"], f"record {i}"

    def test_representatives_runner_with_cache(self, tmp_path):
        subset = [SPECS[i] for i in REPRESENTATIVES]
        with telemetry_session():
            with BatchRunner(cache=tmp_path / "cache") as runner:
                cold = runner.run(subset)
                warm = runner.run(subset)
        for i, c, w in zip(REPRESENTATIVES, cold.records, warm.records):
            assert self.sha(c) == ENTRIES[i]["sha256"], f"record {i}"
            assert self.sha(w) == ENTRIES[i]["sha256"], f"record {i}"

    def test_profiled_goldens_publish_stage_histograms(self):
        # Guards against the parity tests passing vacuously: with
        # telemetry on, the runner must actually publish stage samples
        # in-process and from the pool — and the bytes must still match.
        from repro.exec import profiled

        for workers in (1, 2):
            with telemetry_session() as (reg, _):
                # Two tasks, so workers=2 runs them on the pool.
                with profiled(), BatchRunner(workers=workers) as runner:
                    record = runner.run([SPECS[0]] * 2).records[0]
                assert self.sha(record) == ENTRIES[0]["sha256"]
                histograms = reg.snapshot()["histograms"]
                stage_series = [h for h in histograms
                                if h["name"] == "exec_stage_seconds"
                                and h["labels"]["driver"] == "serial"]
                assert stage_series, "no stage histograms published"

    @pytest.mark.parametrize("spec", [SPECS[13], NETWORK_FAILURE],
                             ids=["clean", "contained_failure"])
    def test_networked_stages_publish_network_driver(self, spec):
        # A networked pass labels its stage series driver="network",
        # also when its scene build fails inside the containment
        # boundary and only the partial trace is published.
        from repro.exec import profiled

        for workers in (1, 2):
            with telemetry_session() as (reg, _):
                with profiled(), BatchRunner(workers=workers) as runner:
                    runner.run([spec, spec])
                drivers = {h["labels"]["driver"]
                           for h in reg.snapshot()["histograms"]
                           if h["name"] == "exec_stage_seconds"}
            assert drivers == {"network"}
