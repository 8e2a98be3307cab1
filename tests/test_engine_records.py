"""``RunRecord.to_dict`` against its ``dataclasses.asdict`` oracle.

The record builds its plain-dict form field by field; these properties
hold it to the ``asdict`` form byte for byte (key order included) and
check that the nested containers it returns are fresh copies.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.records import STAGES, RunRecord
from repro.exec.graph import StageTrace

from tests.reference_records import reference_to_dict

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                    finite, st.text(max_size=6))

fault_plans = st.dictionaries(
    st.sampled_from(["chunk_drop", "burst_rate_hz", "burst_gain",
                     "delay_chunks", "node_dropout"]),
    finite, min_size=1)

specs = st.builds(
    lambda base, plan: {**base, "fault_plan": plan},
    st.dictionaries(st.text("abcdefgh_", min_size=1, max_size=10), scalars,
                    max_size=8),
    fault_plans)

nodes = st.lists(st.fixed_dictionaries({
    "node_id": st.text("rx0123", min_size=1, max_size=4),
    "position_m": finite,
    "bits": st.text("01", max_size=8),
    "success": st.booleans(),
    "confidence": finite,
    "timestamp_s": st.none() | finite,
    "timestamp_source": st.sampled_from(["clock", "track"]),
    "stage": st.sampled_from(["decoded", "no_decode", "node_dropped"]),
}), max_size=4)

fault_events = st.dictionaries(
    st.sampled_from(["chunks_dropped", "noise_bursts", "dropouts"]),
    st.integers(0, 50), max_size=3)

stage_traces = st.none() | st.builds(
    StageTrace,
    timings_s=st.dictionaries(
        st.sampled_from(["build", "simulate", "acquire", "decide", "x"]),
        st.floats(0.0, 1.0)),
    counters=st.dictionaries(st.sampled_from(["rows", "chunks"]),
                             st.integers(0, 100)))

records = st.builds(
    RunRecord,
    spec_hash=st.integers(0, 2**256 - 1).map("{:064x}".format),
    spec=specs,
    seed=st.integers(0, 2**31 - 1),
    sent_bits=st.text("01", max_size=8),
    decoded_bits=st.text("01", max_size=8),
    success=st.booleans(),
    stage=st.sampled_from(STAGES),
    ber=finite,
    n_samples=st.integers(0, 10**6),
    trace_duration_s=finite,
    sample_rate_hz=finite,
    noise_floor_lux=finite,
    error=st.text(max_size=8),
    fault_events=fault_events,
    nodes=nodes,
    fused_bits=st.text("01", max_size=8),
    speed_est_mps=st.none() | finite,
    onset_latency_s=st.none() | finite,
    elapsed_s=finite,
    stage_trace=stage_traces,
)


@settings(max_examples=100, deadline=None)
@given(record=records, include_timing=st.booleans())
def test_to_dict_matches_asdict_oracle(record, include_timing):
    expected = json.dumps(reference_to_dict(record, include_timing))
    assert json.dumps(record.to_dict(include_timing)) == expected
    assert RunRecord.from_dict(record.to_dict(include_timing)) == record


@settings(max_examples=100, deadline=None)
@given(record=records)
def test_to_dict_returns_fresh_nested_containers(record):
    before = json.dumps(reference_to_dict(record))
    data = record.to_dict()
    data["spec"]["fault_plan"]["chunk_drop"] = -1.0
    data["spec"]["added"] = True
    for node in data["nodes"]:
        node["bits"] = "mutated"
    data["nodes"].append({"node_id": "extra"})
    if "fault_events" in data:
        data["fault_events"]["chunks_dropped"] = -1
    assert json.dumps(reference_to_dict(record)) == before
