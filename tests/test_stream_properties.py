"""Streaming parity properties: the chunk-invariance acceptance bar.

Two guarantees are pinned here:

* **Chunk-size invariance** — replaying any scenario's captured trace
  through the online runtime at chunk sizes 1, 7, 64 and whole-trace
  yields byte-identical final verdicts to the offline decoder, with
  monotonically nondecreasing event timestamps, across *every
  registered scenario family* (hypothesis additionally samples
  arbitrary chunk sizes on a synthetic trace);
* **OnlineNormalizer parity** — covered sample-exactly in
  test_stream_normalize.py; here hypothesis drives it through the
  StreamDecoder's own ingestion path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.engine.executor import build_decoder, build_simulator
from repro.engine.spec import ScenarioSpec
from repro.scenarios import family_names, get_family
from repro.stream import StreamDecoder, iter_chunks, replay_trace

from .test_stream_decode import synthetic_trace

CHUNK_SIZES = (1, 7, 64, None)  # None = the whole trace in one chunk

#: Template kept small so every family's pass stays cheap to capture.
_TEMPLATE = ScenarioSpec(bits="10")


def _family_case(name):
    """One deterministic (spec, trace, offline outcome) per family."""
    spec = get_family(name).expand(count=1, seed=0,
                                   template=_TEMPLATE)[0]
    spec = spec.replace(n_receivers=1, stream_chunk=0).resolve()
    trace = build_simulator(spec).capture_pass()
    decoder = build_decoder(spec)
    n_data_symbols = 2 * len(spec.bits)
    try:
        result = decoder.decode(trace, n_data_symbols=n_data_symbols)
        offline = ("returned", result.bit_string(), result.success)
    except PreambleNotFoundError:
        offline = ("preamble_not_found", "", False)
    except DecodeError:
        offline = ("decode_failed", "", False)
    return spec, trace, n_data_symbols, offline


_case_cache: dict = {}


def _cached_case(name):
    if name not in _case_cache:
        _case_cache[name] = _family_case(name)
    return _case_cache[name]


@pytest.mark.parametrize("family", family_names())
def test_chunk_invariance_across_registered_families(family):
    """The acceptance criterion: for every registered family, streaming
    at any chunk size reproduces the offline verdict byte-for-byte."""
    spec, trace, n_data_symbols, offline = _cached_case(family)
    kind, offline_bits, offline_success = offline
    for chunk_size in CHUNK_SIZES:
        size = len(trace) if chunk_size is None else chunk_size
        replay = replay_trace(trace, max(1, size),
                              n_data_symbols=n_data_symbols,
                              decoder=build_decoder(spec))
        verdict = replay.verdict
        assert verdict.bits == offline_bits, (
            f"{family}: chunk {chunk_size} verdict {verdict.bits!r} "
            f"!= offline {offline_bits!r}")
        assert verdict.success == offline_success
        if kind == "returned":
            assert replay.decoder.result is not None
            assert replay.decoder.result.bit_string() == offline_bits
        else:
            assert verdict.stage == kind
        times = [e.stream_time_s for e in replay.events]
        assert times == sorted(times), (
            f"{family}: chunk {chunk_size} event times not monotone")


@settings(max_examples=20, deadline=None)
@given(chunk_size=st.integers(min_value=1, max_value=700))
def test_chunk_invariance_property_synthetic(chunk_size):
    """Hypothesis over arbitrary chunk sizes on a synthetic pass."""
    trace = synthetic_trace(bits="1001")
    offline_bits = "1001"
    replay = replay_trace(trace, chunk_size, n_data_symbols=8)
    assert replay.verdict.bits == offline_bits
    times = [e.stream_time_s for e in replay.events]
    assert times == sorted(times)
    assert [e.kind for e in replay.events] == ["onset", "first_bit",
                                               "verdict"]


@settings(max_examples=20, deadline=None)
@given(chunk_size=st.integers(min_value=1, max_value=300),
       seed=st.integers(min_value=0, max_value=5))
def test_normalizer_parity_through_stream_decoder(chunk_size, seed):
    """The decoder-embedded normalizer's extremes match those
    trace.normalized() uses after the full pass, for any ingestion
    chunking."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(500.0, 30.0, size=400)
    from repro.channel.trace import SignalTrace

    trace = SignalTrace(samples, 200.0)
    stream = StreamDecoder(trace.sample_rate_hz)
    for chunk in iter_chunks(trace.samples, chunk_size):
        stream.push(chunk)
    stream.flush()
    norm = stream.normalizer
    assert np.array_equal((samples - norm.min) / norm.span,
                          trace.normalized().samples)


def test_latencies_shrink_with_chunk_size():
    """On a real simulated pass, finer chunking detects the packet no
    later than coarser chunking — the stream clock advances in chunk
    quanta, so big chunks can only learn about the preamble late."""
    spec = ScenarioSpec(source="sun", detector="led", cap=False,
                        ground="tarmac", bits="1001", symbol_width_m=0.1,
                        speed_mps=5.0, receiver_height_m=0.25,
                        start_position_m=-1.5, sample_rate_hz=2000.0,
                        ground_lux=450.0, seed=3).resolve()
    trace = build_simulator(spec).capture_pass()
    onsets = []
    for chunk_size in (1, 64, len(trace)):
        replay = replay_trace(trace, chunk_size, n_data_symbols=8)
        onset = replay.latency("onset")
        assert onset is not None
        onsets.append(onset)
        assert replay.verdict.bits == "1001"
    assert onsets[0] <= onsets[1] <= onsets[2]
