"""Cross-driver differential: generated single-receiver specs.

Hypothesis draws specs from the registered single-receiver traffic
families, optionally stacked with a regime layer, then varies what
the drivers branch on: a signal-fault plan, streamed replay, and
adaptive or two-phase decoding.  Every draw runs as one optics group
of one to three seeds.  The grouped batch, the serial driver and the
tensor runner must produce byte-identical records.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import execute_scenario
from repro.engine.runner import BatchRunner
from repro.engine.spec import CARS, expand_grid
from repro.faults.plan import FaultPlan
from repro.scenarios.library import expand_family
from repro.tensor.batch import execute_batch

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
def single_receiver_groups(draw):
    """One drawn spec at one to three noise seeds."""
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
    spec = spec.replace(
        fault_plan=draw(st.none() | SIGNAL_FAULTS),
        stream_chunk=draw(st.sampled_from([0, 7, 64])))
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1,
                          max_size=3, unique=True))
    return expand_grid(spec, {"seed": seeds})


def canon(records):
    return [record.canonical_json() for record in records]


@given(single_receiver_groups())
@settings(max_examples=10, deadline=None)
def test_drivers_agree_on_generated_specs(specs):
    serial = canon(execute_scenario(spec) for spec in specs)
    assert canon(execute_batch(specs)) == serial
    with BatchRunner(backend="tensor") as runner:
        assert canon(runner.run(specs).records) == serial
