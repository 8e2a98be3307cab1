"""Tests for stage-timing reporting and the centralized stage names."""

from repro.core.pipeline import PipelineStage
from repro.engine import RunRecord, stage_stats, stage_table
from repro.engine.records import STAGES, RecordStage
from repro.exec import ExecStage, StageTrace


def make_record(seed=7, trace=None):
    return RunRecord(
        spec_hash="ab" + "0" * 62,
        spec={"bits": "00", "seed": seed},
        seed=seed,
        sent_bits="00",
        decoded_bits="00",
        success=True,
        stage="decoded",
        ber=0.0,
        n_samples=500,
        trace_duration_s=0.25,
        sample_rate_hz=2000.0,
        noise_floor_lux=450.0,
        elapsed_s=0.01,
        stage_trace=trace,
    )


def make_trace(build=0.5, decide=1.5, **counters):
    trace = StageTrace()
    trace.add(ExecStage.BUILD, build)
    trace.add(ExecStage.DECIDE, decide)
    for name, n in counters.items():
        trace.count(name, n)
    return trace


class TestStageNames:
    def test_pipeline_stage_is_the_record_enum(self):
        # One enum for every layer: repro.core.pipeline re-exports it.
        assert PipelineStage is RecordStage

    def test_record_stages_cover_the_outcome_tuple(self):
        assert STAGES == ("executor_error", "simulation_failed",
                          "preamble_not_found", "decode_failed",
                          "bit_errors", "decoded")
        assert all(stage in RecordStage._value2member_map_
                   for stage in STAGES)


class TestStageStats:
    def test_empty_and_unprofiled(self):
        assert stage_stats([])["n_profiled"] == 0
        stats = stage_stats([make_record()])
        assert stats["n_profiled"] == 0
        assert stats["total_s"] == 0.0
        assert stats["stages"] == {}

    def test_aggregates_across_profiled_records(self):
        records = [
            make_record(trace=make_trace(build=0.5, decide=1.5, rows=2)),
            make_record(trace=make_trace(build=0.5, decide=1.5)),
            make_record(),  # unprofiled records do not dilute the mean
        ]
        stats = stage_stats(records)
        assert stats["n_profiled"] == 2
        assert stats["total_s"] == 4.0
        assert stats["stages"]["build"] == {
            "total_s": 1.0, "mean_s": 0.5, "share": 0.25}
        assert stats["stages"]["decide"]["share"] == 0.75
        assert stats["counters"] == {"rows": 2}

    def test_fused_rows_count_their_group_once(self):
        # Every row of a fused group carries the group's counters.
        group = make_trace(batch_rows=3, acquire_checks=7)
        records = [make_record(trace=group) for _ in range(3)]
        records.append(make_record(trace=make_trace(acquire_checks=2)))
        assert stage_stats(records)["counters"] == {
            "acquire_checks": 9, "batch_rows": 3}
        # A partial group keeps its share.
        assert stage_stats(records[:1])["counters"] == {
            "acquire_checks": 7 / 3, "batch_rows": 1}

    def test_fused_outdoor_grid_counts_each_row_once(self):
        from repro.engine import ScenarioSpec, expand_grid
        from repro.exec import profiled
        from repro.tensor.batch import execute_batch

        template = ScenarioSpec(
            source="sun", detector="led", cap=False, ground="tarmac",
            bits="00", symbol_width_m=0.1, speed_mps=5.0,
            receiver_height_m=0.25, start_position_m=-1.5,
            sample_rate_hz=2000.0)
        specs = expand_grid(template, {"ground_lux": [450.0, 100.0],
                                       "seed": [2, 3]})
        with profiled():
            records = execute_batch(specs)
        traces = [r.stage_trace for r in records]
        assert [t.counters["batch_rows"] for t in traces] == [2, 2, 2, 2]
        assert stage_stats(records)["counters"]["batch_rows"] == 4

    def test_stages_in_pipeline_order(self):
        trace = StageTrace()
        trace.add(ExecStage.DECIDE, 1.0)
        trace.add(ExecStage.BUILD, 1.0)
        trace.add(ExecStage.ACQUIRE, 1.0)
        stats = stage_stats([make_record(trace=trace)])
        assert list(stats["stages"]) == ["build", "acquire", "decide"]


class TestStageTable:
    def test_hints_without_traces(self):
        text = stage_table([make_record()])
        assert "--profile" in text
        assert "REPRO_TELEMETRY" in text

    def test_renders_rows_and_counters(self):
        record = make_record(trace=make_trace(rows=3))
        text = stage_table([record])
        assert "1 profiled record" in text
        assert "build" in text and "decide" in text
        assert "counters: rows=3" in text
        # decide holds 75% of the time: its bar dominates build's.
        build_row = next(l for l in text.splitlines() if "build" in l)
        decide_row = next(l for l in text.splitlines() if "decide" in l)
        assert decide_row.count("#") > build_row.count("#")


class TestTraceSerialization:
    def test_trace_rides_only_in_timed_payloads(self):
        record = make_record(trace=make_trace(rows=1))
        assert "stage_trace" in record.to_dict()
        assert "stage_trace" not in record.to_dict(include_timing=False)
        assert "stage_trace" not in record.canonical_json()

    def test_unprofiled_record_omits_the_key(self):
        assert "stage_trace" not in make_record().to_dict()

    def test_roundtrip_through_dict(self):
        record = make_record(trace=make_trace(rows=1))
        back = RunRecord.from_dict(record.to_dict())
        assert isinstance(back.stage_trace, StageTrace)
        assert back.stage_trace.timings_s == record.stage_trace.timings_s
        assert back.stage_trace.counters == record.stage_trace.counters

    def test_trace_excluded_from_equality(self):
        assert make_record(trace=make_trace()) == make_record()
