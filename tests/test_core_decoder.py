"""Tests for repro.core.decoder (the Section 4.1 algorithm)."""

import numpy as np
import pytest

from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.channel.trace import SignalTrace
from repro.core.decoder import (
    AdaptiveThresholdDecoder,
    DecodeResult,
    DecoderConfig,
)
from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.tags.encoding import Symbol

from .conftest import build_indoor_scene


def synthetic_packet_trace(symbols="HLHLHLHL", symbol_duration_s=0.4,
                           fs=200.0, high=100.0, low=20.0, base=10.0,
                           rise_fraction=0.15, noise=0.0, seed=0,
                           lead_s=1.0, tail_s=1.0):
    """Render a symbol string as a smooth two-level waveform."""
    rng = np.random.default_rng(seed)
    per_symbol = int(symbol_duration_s * fs)
    levels = [high if s == "H" else low for s in symbols]
    steps = np.concatenate([np.full(per_symbol, lv) for lv in levels])
    lead = np.full(int(lead_s * fs), base)
    tail = np.full(int(tail_s * fs), base)
    x = np.concatenate([lead, steps, tail]).astype(float)
    # Smooth the edges like FoV blur does.
    k = max(3, int(rise_fraction * per_symbol))
    kernel = np.hanning(k)
    kernel /= kernel.sum()
    x = np.convolve(x, kernel, mode="same")
    if noise > 0.0:
        x = x + rng.normal(0.0, noise, size=len(x))
    return SignalTrace(x, fs)


class TestConfigValidation:
    def test_threshold_rule(self):
        with pytest.raises(ValueError):
            DecoderConfig(threshold_rule="banana")

    def test_shrink_bounds(self):
        with pytest.raises(ValueError):
            DecoderConfig(window_shrink_fraction=0.5)

    def test_search_span_bounds(self):
        with pytest.raises(ValueError):
            DecoderConfig(clock_search_span=0.5)


class TestThresholds:
    def test_paper_formulas(self):
        """tau_r and tau_t exactly as defined in Section 4.1."""
        from repro.dsp.peaks import Extremum

        a = Extremum(index=0, time_s=1.0, value=0.9, kind="peak")
        b = Extremum(index=1, time_s=1.4, value=0.1, kind="valley")
        c = Extremum(index=2, time_s=1.8, value=0.8, kind="peak")
        tau_r, tau_t = AdaptiveThresholdDecoder.thresholds((a, b, c))
        assert tau_r == pytest.approx(((0.9 - 0.1) + (0.8 - 0.1)) / 2.0)
        assert tau_t == pytest.approx(0.4)

    def test_degenerate_anchors_rejected(self):
        from repro.dsp.peaks import Extremum

        a = Extremum(index=0, time_s=1.0, value=0.1, kind="peak")
        b = Extremum(index=1, time_s=1.4, value=0.9, kind="valley")
        c = Extremum(index=2, time_s=1.8, value=0.1, kind="peak")
        with pytest.raises(PreambleNotFoundError):
            AdaptiveThresholdDecoder.thresholds((a, b, c))


class TestSyntheticDecoding:
    @pytest.mark.parametrize("data_symbols,bits", [
        ("HLHL", "00"), ("LHHL", "10"), ("HLLH", "01"), ("LHLH", "11"),
        ("LHHLLHHL", "1010"),
    ])
    def test_decodes_known_payloads(self, data_symbols, bits):
        trace = synthetic_packet_trace("HLHL" + data_symbols)
        result = AdaptiveThresholdDecoder().decode(
            trace, n_data_symbols=len(data_symbols))
        assert result.symbol_string() == data_symbols
        assert result.bit_string() == bits
        assert result.preamble_verified

    def test_tau_t_matches_symbol_duration(self):
        trace = synthetic_packet_trace("HLHLHLHL", symbol_duration_s=0.5)
        result = AdaptiveThresholdDecoder().decode(trace, n_data_symbols=4)
        assert result.tau_t == pytest.approx(0.5, rel=0.1)

    def test_amplitude_invariance(self):
        """Per-packet thresholds: scaling and offset must not matter."""
        t1 = synthetic_packet_trace("HLHLLHHL", high=100.0, low=20.0, base=10.0)
        t2 = SignalTrace(t1.samples * 3.7 + 55.0, t1.sample_rate_hz)
        r1 = AdaptiveThresholdDecoder().decode(t1, n_data_symbols=4)
        r2 = AdaptiveThresholdDecoder().decode(t2, n_data_symbols=4)
        assert r1.symbol_string() == r2.symbol_string() == "LHHL"

    def test_speed_invariance(self):
        """Different symbol durations (same packet) decode identically."""
        for duration in (0.2, 0.4, 0.8):
            trace = synthetic_packet_trace("HLHLHLLH",
                                           symbol_duration_s=duration)
            result = AdaptiveThresholdDecoder().decode(trace,
                                                       n_data_symbols=4)
            assert result.bit_string() == "01"

    def test_noise_tolerance(self):
        trace = synthetic_packet_trace("HLHLLHHL", noise=4.0, seed=1)
        result = AdaptiveThresholdDecoder().decode(trace, n_data_symbols=4)
        assert result.bit_string() == "10"

    def test_auto_length_mode(self):
        trace = synthetic_packet_trace("HLHLLHHL")
        result = AdaptiveThresholdDecoder().decode(trace)
        assert result.bit_string() == "10"

    def test_invalid_manchester_reported(self):
        trace = synthetic_packet_trace("HLHLHHHH")
        result = AdaptiveThresholdDecoder().decode(trace, n_data_symbols=4)
        assert result.bits is None
        assert not result.success
        assert result.symbol_string() == "HHHH"


class TestFailureModes:
    def test_constant_trace(self):
        trace = SignalTrace(np.full(500, 42.0), 100.0)
        with pytest.raises(PreambleNotFoundError):
            AdaptiveThresholdDecoder().decode(trace)

    def test_pure_noise(self):
        rng = np.random.default_rng(0)
        trace = SignalTrace(rng.normal(100.0, 1.0, 800), 100.0)
        with pytest.raises(PreambleNotFoundError):
            AdaptiveThresholdDecoder().decode(trace)

    def test_truncated_after_preamble(self):
        trace = synthetic_packet_trace("HLHL", tail_s=0.0)
        with pytest.raises((DecodeError, PreambleNotFoundError)):
            AdaptiveThresholdDecoder().decode(trace, n_data_symbols=8)

    def test_bad_n_symbols(self):
        trace = synthetic_packet_trace("HLHLHLHL")
        with pytest.raises(ValueError):
            AdaptiveThresholdDecoder().decode(trace, n_data_symbols=0)


class TestThresholdRules:
    def test_rules_agree_on_valley_anchored_signal(self):
        """With the valley near zero the 'paper' and 'midpoint' rules
        coincide (DESIGN.md Section 5)."""
        trace = synthetic_packet_trace("HLHLLHHL", high=1.0, low=0.02,
                                       base=0.0)
        r_mid = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="midpoint")).decode(
                trace, n_data_symbols=4)
        r_paper = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper")).decode(
                trace, n_data_symbols=4)
        assert r_mid.symbol_string() == r_paper.symbol_string() == "LHHL"

    def test_midpoint_survives_pedestal(self):
        """A large DC pedestal breaks the literal tau_r comparison but
        not the midpoint rule."""
        trace = synthetic_packet_trace("HLHLLHHL", high=520.0, low=450.0,
                                       base=440.0)
        r_mid = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="midpoint")).decode(
                trace, n_data_symbols=4)
        assert r_mid.bit_string() == "10"
        r_paper = AdaptiveThresholdDecoder(
            DecoderConfig(threshold_rule="paper")).decode(
                trace, n_data_symbols=4)
        # The paper rule compares max against the ~70-count swing, which
        # every pedestal-riding window exceeds: all HIGH.
        assert r_paper.symbol_string() == "HHHH"


class TestEndToEnd:
    def test_fig5_scene_decodes(self, indoor_receiver):
        scene = build_indoor_scene(bits="10")
        sim = ChannelSimulator(scene, indoor_receiver,
                               SimulatorConfig(sample_rate_hz=500.0, seed=42))
        result = AdaptiveThresholdDecoder().decode(sim.capture_pass(),
                                                   n_data_symbols=4)
        assert result.bit_string() == "10"

    def test_decode_result_reports_windows(self, indoor_capture_00):
        result = AdaptiveThresholdDecoder().decode(indoor_capture_00,
                                                   n_data_symbols=4)
        assert len(result.windows) == 4
        for w in result.windows:
            assert w.t_end_s > w.t_start_s


class TestVectorizedRefineClock:
    """The broadcast clock search is bit-identical to the triple loop."""

    def _prepared(self, trace):
        decoder = AdaptiveThresholdDecoder()
        try:
            points, smooth = decoder._acquire(trace)
        except PreambleNotFoundError:
            pytest.skip("acquisition rejected this noise draw; the "
                        "clock search never runs")
        tau_r, tau_t = decoder.thresholds(points)
        level = decoder._threshold_level(tau_r, points[1].value)
        return decoder, points, smooth, tau_r, tau_t, level

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("symbols", ["HLHLHLLH", "HLHLLHHLHLLH"])
    def test_matches_reference_on_noisy_traces(self, seed, symbols):
        trace = synthetic_packet_trace(symbols, noise=3.0, seed=seed)
        decoder, points, smooth, tau_r, tau_t, level = self._prepared(trace)
        times = trace.times()
        for n_data in (None, len(symbols) - 4):
            vec = decoder._refine_clock(smooth, times, points, tau_t,
                                        tau_r, level, n_data_symbols=n_data)
            ref = decoder._refine_clock_reference(
                smooth, times, points, tau_t, tau_r, level,
                n_data_symbols=n_data)
            assert vec == ref

    def test_decode_matches_reference_end_to_end(self):
        """Full decodes driven by either clock search agree exactly."""
        trace = synthetic_packet_trace("HLHLHLLHHLLH", noise=2.0, seed=3)
        vec = AdaptiveThresholdDecoder().decode(trace)

        class ReferenceDecoder(AdaptiveThresholdDecoder):
            _refine_clock = AdaptiveThresholdDecoder._refine_clock_reference

        ref = ReferenceDecoder().decode(trace)
        assert vec.symbols == ref.symbols
        assert vec.bits == ref.bits
        assert vec.tau_t == ref.tau_t
        assert vec.threshold_level == ref.threshold_level
        assert [(w.t_start_s, w.t_end_s, w.max_value, w.symbol)
                for w in vec.windows] == [
                    (w.t_start_s, w.t_end_s, w.max_value, w.symbol)
                    for w in ref.windows]

    def test_segment_reduce_matches_scalar_windows(self):
        """The reduceat window extraction equals _window_max/_window_range
        on randomly placed (including empty) windows."""
        from repro.core.decoder import _segment_reduce, _window_slices

        rng = np.random.default_rng(11)
        trace = synthetic_packet_trace("HLHLHLLH", noise=1.0, seed=5)
        decoder = AdaptiveThresholdDecoder()
        _, smooth = decoder._acquire(trace)
        times = trace.times()
        starts = rng.uniform(times[0] - 0.5, times[-1] + 0.5, size=200)
        ends = starts + rng.uniform(-0.05, 0.4, size=200)
        i0, i1, valid = _window_slices(times, starts, ends)
        maxima = _segment_reduce(np.maximum, smooth, -np.inf, i0, i1)
        minima = _segment_reduce(np.minimum, smooth, np.inf, i0, i1)
        for k in range(200):
            w_max = decoder._window_max(smooth, times, starts[k], ends[k])
            w_range = decoder._window_range(smooth, times, starts[k],
                                            ends[k])
            if w_max is None:
                assert not valid[k]
            else:
                assert valid[k]
                assert maxima[k] == w_max
                assert maxima[k] - minima[k] == w_range
