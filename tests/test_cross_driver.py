"""Cross-driver differential: generated specs and decode stacks.

Hypothesis draws specs from the registered single-receiver traffic
families, optionally stacked with a regime layer, then varies what
the drivers branch on: a signal-fault plan, streamed replay, and
adaptive or two-phase decoding.  Every draw runs as one optics group
of one to three seeds.  The grouped batch, the serial driver and the
tensor runner must produce byte-identical records.

Pool tasks mix those single receivers with receiver arrays (with node
dropout and intermittent nodes) and decode their rows as one stack;
their records must equal the serial ones, bytes and stage keys.  The
ragged ``decode_rows`` stack itself is held, row by row, to one-row
decodes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decoder import DecoderConfig, decode_rows
from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.engine.executor import execute_scenario
from repro.engine.runner import BatchRunner, _run_task
from repro.engine.spec import CARS, expand_grid
from repro.exec import profiled
from repro.faults.plan import FaultPlan
from repro.scenarios.library import expand_family
from repro.tensor.batch import execute_batch

from tests.test_core_decoder import assert_same_decode, synthetic_packet_trace

TRAFFIC = ("convoy", "fleet_mix", "highway", "intersection",
           "parking_crawl", "receiver_matrix")
REGIMES = ("dirty_tags", "fluorescent_flicker", "fog", "night", "rain",
           "sunlight_ramp", "variable_speed")

#: Each signal-layer fault process, alone or stacked.
SIGNAL_FAULTS = st.fixed_dictionaries({}, optional={
    "burst_rate_hz": st.sampled_from([4.0, 10.0]),
    "dropout_rate_hz": st.sampled_from([5.0, 20.0]),
    "saturate_fraction": st.sampled_from([0.05, 0.2]),
    "clock_drift_ppm": st.sampled_from([-500.0, 300.0]),
}).map(lambda knobs: FaultPlan(**knobs))


@st.composite
def single_receivers(draw):
    """One drawn single-receiver spec."""
    expr = draw(st.sampled_from(TRAFFIC + REGIMES))
    layer = draw(st.sampled_from((None,) + REGIMES))
    if layer is not None and layer != expr:
        expr = f"{expr}*{layer}"
    spec = expand_family(expr, count=1, seed=draw(st.integers(0, 999)))[0]
    if draw(st.booleans()):
        # Two-phase decoding of a tagged car; a bare (clean) tag moves
        # onto a car whose roof fits the shortest payload.
        if spec.car is None:
            spec = spec.replace(car=draw(st.sampled_from(CARS)), bits="00",
                                dirt=0.0)
        spec = spec.replace(decoder="two_phase")
    else:
        spec = spec.replace(decoder="adaptive")
    return spec.replace(
        fault_plan=draw(st.none() | SIGNAL_FAULTS),
        stream_chunk=draw(st.sampled_from([0, 7, 64])))


@st.composite
def single_receiver_groups(draw):
    """One drawn spec at one to three noise seeds."""
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1,
                          max_size=3, unique=True))
    return expand_grid(draw(single_receivers()), {"seed": seeds})


@st.composite
def receiver_arrays(draw):
    """A drawn ``corridor`` or ``sparse_mesh`` array, with node dropout,
    intermittent nodes and signal faults drawn alone or stacked."""
    spec = expand_family(draw(st.sampled_from(("corridor", "sparse_mesh"))),
                         count=1, seed=draw(st.integers(0, 999)))[0]
    knobs = draw(st.fixed_dictionaries({}, optional={
        "node_dropout": st.sampled_from([0.3, 0.6]),
        "node_intermittent": st.sampled_from([0.5, 1.0]),
        "intermittent_fraction": st.sampled_from([0.2, 0.6]),
        "burst_rate_hz": st.just(4.0),
    }))
    return spec.replace(fault_plan=FaultPlan(**knobs) if knobs else None)


def canon(records):
    return [record.canonical_json() for record in records]


@given(single_receiver_groups())
@settings(max_examples=10, deadline=None)
def test_drivers_agree_on_generated_specs(specs):
    serial = canon(execute_scenario(spec) for spec in specs)
    assert canon(execute_batch(specs)) == serial
    with BatchRunner(backend="tensor") as runner:
        assert canon(runner.run(specs).records) == serial


def stage_keys(record):
    trace = record.stage_trace
    return set(trace.timings_s), trace.counters


@given(st.lists(single_receivers() | receiver_arrays(), min_size=2,
                max_size=8))
@settings(max_examples=6, deadline=None)
def test_pool_task_matches_serial_records(specs):
    # What a pool worker runs for a task of several specs.
    with profiled():
        task = _run_task("process", specs, None)
        serial = [execute_scenario(spec) for spec in specs]
    assert canon(task) == canon(serial)
    assert [stage_keys(r) for r in task] == [stage_keys(r) for r in serial]


def test_pooled_runner_matches_serial_records():
    # 24 specs at two workers: tasks of three specs, mixing receiver
    # arrays (one with node faults) with plain, faulted, streamed and
    # two-phase single receivers.
    singles = (expand_family("fleet_mix", count=12, seed=1)
               + [spec.replace(fault_plan=FaultPlan(burst_rate_hz=4.0))
                  for spec in expand_family("highway", count=3, seed=1)]
               + [spec.replace(stream_chunk=64)
                  for spec in expand_family("highway", count=1, seed=2)])
    arrays = expand_family("corridor", count=4, seed=1)
    arrays[1] = arrays[1].replace(fault_plan=FaultPlan(
        node_dropout=0.3, node_intermittent=1.0))
    arrays += expand_family("sparse_mesh", count=4, seed=1)
    specs = [spec for k in range(8)
             for spec in singles[2 * k:2 * k + 2] + arrays[k:k + 1]]
    serial = canon(execute_scenario(spec) for spec in specs)
    with BatchRunner(workers=2) as runner:
        assert [len(task) for task in runner._tasks(specs)] == [3] * 8
        result = runner.run(specs)
    assert not result.stats.serial_fallback
    assert canon(result.records) == serial


#: One decoder config per stack (the stack key), as drawn below.
CONFIGS = st.builds(DecoderConfig,
                    threshold_rule=st.sampled_from(["midpoint", "paper"]),
                    window_shrink_fraction=st.sampled_from([0.0, 0.22, 0.4]),
                    clock_search_span=st.sampled_from([0.05, 0.15, 0.3]),
                    clock_refinement=st.booleans())


@st.composite
def stack_rows(draw, fs):
    """One row of a ragged stack: ``(samples, t0, n_data_symbols)``.

    A drawn packet (whole, quantised into plateaus and ties, or cut off
    after its preamble so its windows fall off the row), a noise or a
    flat row that finds no preamble, or an empty one; each with its own
    start time and length, and auto or fixed length.
    """
    kind = draw(st.sampled_from(["packet", "packet", "cut", "noise",
                                 "flat", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bits = draw(st.text("01", min_size=1, max_size=5))
    symbols = "HLHL" + "".join("HL" if b == "0" else "LH" for b in bits)
    if kind in ("packet", "cut"):
        symbol_s = draw(st.floats(0.12, 0.5))
        lead_s = draw(st.floats(0.1, 1.0))
        samples = synthetic_packet_trace(
            symbols, symbol_duration_s=symbol_s, fs=fs,
            high=draw(st.floats(30.0, 200.0)), low=draw(st.floats(0.0, 30.0)),
            base=draw(st.floats(0.0, 30.0)), noise=draw(st.floats(0.0, 8.0)),
            seed=int(rng.integers(2**16)), lead_s=lead_s,
            tail_s=draw(st.floats(0.0, 1.0))).samples
        if draw(st.booleans()):
            samples = np.round(samples / 8.0)     # plateaus and ties
        if kind == "cut":
            # The preamble and about one symbol more.
            symbols_kept = draw(st.floats(4.6, 5.4))
            samples = samples[:int((lead_s + symbols_kept * symbol_s) * fs)]
    elif kind == "noise":
        samples = rng.normal(50.0, 10.0, size=draw(st.integers(1, 400)))
    elif kind == "flat":
        samples = np.full(draw(st.integers(1, 300)), 42.0)
    else:
        samples = np.zeros(0)
    n_data = draw(st.sampled_from([None, 2 * len(bits), 3]))
    return samples, draw(st.floats(-5.0, 5.0)), n_data


@st.composite
def ragged_stacks(draw):
    fs = draw(st.sampled_from([100.0, 200.0, 500.0]))
    rows = draw(st.lists(stack_rows(fs), min_size=1, max_size=6))
    return fs, draw(CONFIGS), rows


def raised(rows, r):
    error = rows.errors[r]
    return None if error is None else (type(error), str(error))


@given(ragged_stacks())
@settings(max_examples=40, deadline=None)
def test_ragged_stack_matches_one_row_decodes(stack):
    fs, config, rows = stack
    stacked = decode_rows([samples for samples, _, _ in rows], fs,
                          [t0 for _, t0, _ in rows],
                          [n for _, _, n in rows], config)
    for r, (samples, t0, n_data) in enumerate(rows):
        one = decode_rows(samples[None, :], fs, t0, n_data, config)
        assert raised(stacked, r) == raised(one, 0), f"row {r}"
        assert stacked.points[r] == one.points[0], f"row {r}"
        if one.errors[0] is None:
            assert stacked.kept[r] == one.kept[0], f"row {r}"
            assert_same_decode(stacked.result(r), one.result(0))
        else:
            assert isinstance(one.errors[0],
                              (PreambleNotFoundError, DecodeError))
