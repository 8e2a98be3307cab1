"""Tests for repro.stream.decode and repro.stream.detect."""

import numpy as np
import pytest

from repro.channel.trace import SignalTrace
from repro.core.decoder import AdaptiveThresholdDecoder
from repro.stream import (
    PreambleDetector,
    StreamBuffer,
    StreamDecoder,
    StreamState,
    iter_chunks,
    replay_trace,
)
from repro.tags.encoding import Symbol, manchester_encode

from .reference_acquisition import reference_acquire, reference_scan


def synthetic_trace(bits="10", fs=100.0, symbol_s=0.5, lead_s=1.0,
                    tail_s=1.0, noise=0.0, seed=0) -> SignalTrace:
    """Clean HLHL preamble + Manchester data as half-sine bumps."""
    symbols = [Symbol.HIGH, Symbol.LOW, Symbol.HIGH, Symbol.LOW]
    symbols += manchester_encode([int(b) for b in bits])
    per = int(round(symbol_s * fs))
    parts = [np.zeros(int(lead_s * fs))]
    for symbol in symbols:
        if symbol is Symbol.HIGH:
            parts.append(np.sin(np.pi * np.linspace(0.0, 1.0, per,
                                                    endpoint=False)))
        else:
            parts.append(np.zeros(per))
    parts.append(np.zeros(int(tail_s * fs)))
    samples = np.concatenate(parts)
    if noise:
        samples = samples + noise * np.random.default_rng(seed).normal(
            size=len(samples))
    return SignalTrace(samples, fs)


class TestStateMachine:
    def test_walks_all_states(self):
        trace = synthetic_trace()
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4)
        assert stream.state is StreamState.IDLE
        states = {stream.state}
        for chunk in iter_chunks(trace.samples, 16):
            stream.push(chunk)
            states.add(stream.state)
        stream.flush()
        states.add(stream.state)
        assert states == {StreamState.IDLE, StreamState.ACQUIRING,
                          StreamState.DECODING, StreamState.EMITTED}

    def test_push_after_flush_rejected(self):
        stream = StreamDecoder(100.0)
        stream.push(np.zeros(10))
        stream.flush()
        with pytest.raises(RuntimeError):
            stream.push(np.zeros(10))

    def test_flush_is_idempotent(self):
        trace = synthetic_trace()
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4)
        stream.push(trace.samples)
        first = stream.flush()
        assert len(first) == 1
        assert stream.flush() == []
        assert len([e for e in stream.events if e.kind == "verdict"]) == 1

    def test_bad_n_data_symbols(self):
        with pytest.raises(ValueError):
            StreamDecoder(100.0, n_data_symbols=0)


class TestAcquisitionDecoderSelection:
    def test_adaptive_decoder_shared_with_detector(self):
        from repro.core.decoder import DecoderConfig

        decoder = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper"))
        stream = StreamDecoder(100.0, decoder=decoder)
        assert stream.detector.decoder is decoder

    def test_two_phase_wrapper_contributes_inner_adaptive(self):
        """A wrapper decoder's configured inner adaptive decoder drives
        acquisition, so telemetry shares the verdict's thresholds."""
        from repro.core.decoder import DecoderConfig
        from repro.vehicles.rooftag import TwoPhaseDecoder

        inner = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper"))
        stream = StreamDecoder(100.0, decoder=TwoPhaseDecoder(decoder=inner))
        assert stream.detector.decoder is inner


class TestEvents:
    def test_full_event_sequence(self):
        trace = synthetic_trace(bits="10")
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4)
        for chunk in iter_chunks(trace.samples, 8):
            stream.push(chunk)
        stream.flush()
        kinds = [e.kind for e in stream.events]
        assert kinds == ["onset", "first_bit", "verdict"]

    def test_event_timestamps_nondecreasing(self):
        trace = synthetic_trace(bits="1001", noise=0.02)
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=8)
        for chunk in iter_chunks(trace.samples, 5):
            stream.push(chunk)
        stream.flush()
        times = [e.stream_time_s for e in stream.events]
        assert times == sorted(times)

    def test_onset_latency_positive_and_bounded(self):
        trace = synthetic_trace()
        replay = replay_trace(trace, 8, n_data_symbols=4)
        onset = replay.decoder.event("onset")
        # Detection cannot precede the signal, and must lock on within
        # a couple of symbol periods of the A peak.
        assert 0.0 < onset.latency_s < 2.0 * 0.5 + 0.5

    def test_provisional_first_bit_matches_payload(self):
        for bits in ("10", "01"):
            trace = synthetic_trace(bits=bits)
            replay = replay_trace(trace, 8, n_data_symbols=4)
            assert replay.decoder.event("first_bit").bits == bits[0]

    def test_events_carry_session_id(self):
        trace = synthetic_trace()
        stream = StreamDecoder(trace.sample_rate_hz, n_data_symbols=4,
                               session_id="rx7")
        stream.push(trace.samples)
        stream.flush()
        assert all(e.session_id == "rx7" for e in stream.events)

    def test_event_to_dict_round_trips_json(self):
        import json

        trace = synthetic_trace()
        replay = replay_trace(trace, 16, n_data_symbols=4)
        payload = json.dumps([e.to_dict() for e in replay.events])
        assert json.loads(payload)[0]["kind"] == "onset"


class TestParity:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    @pytest.mark.parametrize("bits,noise", [("1001", 0.0), ("10", 0.02)])
    def test_verdict_matches_offline(self, chunk_size, bits, noise):
        trace = synthetic_trace(bits=bits, noise=noise)
        n_data_symbols = 2 * len(bits)
        offline = AdaptiveThresholdDecoder().decode(
            trace, n_data_symbols=n_data_symbols)
        replay = replay_trace(trace, chunk_size,
                              n_data_symbols=n_data_symbols)
        assert replay.verdict.bits == offline.bit_string()
        assert replay.verdict.success == offline.success
        # Not just the payload: the decode result itself is identical.
        assert replay.decoder.result.tau_t == offline.tau_t
        assert replay.decoder.result.symbols == offline.symbols

    def test_failed_offline_decode_fails_identically(self):
        trace = SignalTrace(np.zeros(500), 100.0)
        replay = replay_trace(trace, 32)
        assert replay.verdict.bits == ""
        assert replay.verdict.stage == "preamble_not_found"


class TestDegenerateStreams:
    def test_empty_stream_flushes_cleanly(self):
        stream = StreamDecoder(100.0)
        events = stream.flush()
        assert events[0].stage == "preamble_not_found"

    def test_constant_stream_at_chunk_one(self):
        stream = StreamDecoder(100.0)
        for _ in range(300):
            stream.push(np.array([5.0]))
        verdict = stream.flush()[0]
        assert verdict.bits == ""
        assert stream.state is StreamState.EMITTED

    def test_tiny_stream(self):
        stream = StreamDecoder(100.0)
        stream.push(np.array([1.0, 2.0]))
        assert stream.flush()[0].stage == "preamble_not_found"

    def test_ramp_without_preamble(self):
        stream = StreamDecoder(100.0)
        for chunk in iter_chunks(np.linspace(0.0, 1.0, 400), 16):
            stream.push(chunk)
        assert stream.flush()[0].bits == ""


class TestNormalizerIntegration:
    def test_normalizer_sees_every_sample(self):
        trace = synthetic_trace()
        replay = replay_trace(trace, 17, n_data_symbols=4)
        norm = replay.decoder.normalizer
        assert norm.count == len(trace)
        assert np.array_equal((trace.samples - norm.min) / norm.span,
                              trace.normalized().samples)


class TestPreambleDetector:
    def test_scan_cost_stays_incremental(self):
        """The detector must not re-scan the full history per check."""
        fs = 100.0
        quiet = np.zeros(3000)
        buf = StreamBuffer(fs)
        detector = PreambleDetector()
        for chunk in iter_chunks(quiet, 8):
            buf.append(chunk)
            assert detector.check(buf) is None
        naive = detector.n_checks * len(quiet) // 2
        assert detector.n_scanned_samples < naive / 4
        assert detector.n_scanned_samples < 80_000

    def test_detects_after_quiet_leader(self):
        trace = synthetic_trace(lead_s=20.0)
        replay = replay_trace(trace, 16, n_data_symbols=4)
        onset = replay.decoder.event("onset")
        assert onset is not None
        # The A peak sits one half-symbol past the 20 s leader.
        assert onset.signal_time_s == pytest.approx(20.25, abs=0.2)
        assert replay.verdict.bits == "10"

    def test_noisy_quiet_feed_stays_incremental(self):
        """Pure noise (no packet yet) must not pin the scan anchor:
        smoothed noise always has span-relative extrema, but none of
        them clear the 4-sigma signal bound, so the window must stay
        near min_overlap instead of growing toward the cap
        (regression: a 2 kHz noise feed re-scanned 63x the stream)."""
        fs = 2000.0
        rng = np.random.default_rng(1)
        buf = StreamBuffer(fs)
        detector = PreambleDetector()
        per_check = []
        for _ in range(125):
            buf.append(rng.normal(0.0, 1.0, size=64))
            before = detector.n_scanned_samples
            assert detector.check(buf) is None
            per_check.append(detector.n_scanned_samples - before)
        # Steady state: one overlap (1 s = 2000 samples) plus the new
        # chunk, not a window growing toward max_overlap_s (24000).
        assert max(per_check[40:]) <= int(1.0 * fs) + 64 + 100
        assert detector.n_scanned_samples < 4 * buf.n_appended * 10

    def test_handoff_matches_a_rescanning_detector(self):
        """A failed check hands its finest scan to ``_advance``; the
        scan start must move exactly as when ``_advance`` smoothed and
        searched the window again itself, and every lock must equal the
        reference acquisition of the same window."""

        class Rescanning(PreambleDetector):
            def _advance(self, finest, trace, t_end):
                raw = np.asarray(trace.samples, dtype=float)
                sigma = float(np.std(np.diff(raw))) / np.sqrt(2.0)
                _, first = reference_scan(raw, max(3, len(raw) // 200),
                                          sigma, trace.sample_rate_hz,
                                          trace.start_time_s)
                quiet_from = t_end - self.min_overlap_s
                if first is not None:
                    quiet_from = min(quiet_from, trace.start_time_s
                                     + first / trace.sample_rate_hz
                                     - self.min_overlap_s)
                self._scan_from_s = max(
                    max(self._scan_from_s, min(quiet_from, t_end)),
                    t_end - self.max_overlap_s)

        rng = np.random.default_rng(5)
        feeds = []
        for noise in (0.02, 0.1, 0.3):
            trace = synthetic_trace("1001", fs=2000.0, symbol_s=0.05,
                                    lead_s=1.5, noise=noise,
                                    seed=int(rng.integers(1 << 30)))
            feeds.append(np.round(trace.samples * 40.0))
        feeds.append(rng.normal(0.0, 1.0, size=6000))
        for samples in feeds:
            got, ref = PreambleDetector(), Rescanning()
            bufs = StreamBuffer(2000.0), StreamBuffer(2000.0)
            for chunk in iter_chunks(samples, 64):
                locks = []
                for detector, buf in zip((got, ref), bufs):
                    buf.append(chunk)
                    locks.append(detector.check(buf))
                assert got._scan_from_s == ref._scan_from_s
                assert locks[0] == locks[1]
                if locks[0] is not None:
                    window = bufs[0].window_with_time(
                        got._scan_from_s, bufs[0].end_time_s + 1.0)
                    assert locks[0].points == reference_acquire(
                        SignalTrace(window[0], 2000.0, window[1]))
                    break
            assert (got.n_checks, got.n_scanned_samples) == (
                ref.n_checks, ref.n_scanned_samples)

    def test_bounded_window_on_long_feeds(self):
        """Per-check cost is capped by max_overlap_s."""
        fs = 100.0
        buf = StreamBuffer(fs)
        detector = PreambleDetector()
        detector.min_overlap_s, detector.max_overlap_s = 0.5, 2.0
        rng = np.random.default_rng(0)
        per_check = []
        for _ in range(100):
            buf.append(rng.normal(size=50))
            before = detector.n_scanned_samples
            detector.check(buf)
            per_check.append(detector.n_scanned_samples - before)
        # Late checks scan at most the overlap cap plus one chunk.
        assert max(per_check[10:]) <= int(2.0 * fs) + 50
