"""Tests for repro.core.decoder (the Section 4.1 algorithm)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.channel.trace import SignalTrace
from repro.core.decoder import (
    AdaptiveThresholdDecoder,
    DecodeResult,
    DecoderConfig,
    decode_rows,
    refine_clock_rows,
    window_tables,
)
from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.engine.executor import build_simulator
from repro.engine.spec import ScenarioSpec
from repro.tags.encoding import Symbol
from repro.tensor.rmq import log_table

from .conftest import build_indoor_scene
from .reference_decode import refine_clock_reference, reference_decode


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
        coincide (see the threshold-rule note in repro.core.decoder)."""
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
    """The table-based clock search is bit-identical to the triple loop."""

    def _prepared(self, trace):
        decoder = AdaptiveThresholdDecoder()
        scan = decoder.scan_preamble(trace)[-1]
        points, smooth = scan.points, scan.smooth
        if points is None:
            pytest.skip("acquisition rejected this noise draw; the "
                        "clock search never runs")
        tau_r, tau_t = decoder.thresholds(points)
        level = decoder._threshold_level(tau_r, points[1].value)
        return decoder, points, smooth, tau_r, tau_t, level

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("symbols", ["HLHLHLLH", "HLHLLHHLHLLH"])
    def test_matches_reference_on_noisy_traces(self, seed, symbols):
        """The row kernel, run on one row as ``decode`` runs it."""
        trace = synthetic_packet_trace(symbols, noise=3.0, seed=seed)
        decoder, points, smooth, tau_r, tau_t, level = self._prepared(trace)
        cfg = decoder.config
        times, fs = trace.times(), trace.sample_rate_hz
        tmax, tmin = window_tables(smooth[None, :], tau_t, cfg, fs)
        for n_data in (None, len(symbols) - 4):
            taus, anchors = refine_clock_rows(
                cfg, np.array([trace.start_time_s]), np.array([len(times)]),
                fs, tmax, tmin, log_table(len(times)),
                np.array([points[0].time_s - 0.5 * tau_t]),
                np.array([tau_t]), np.array([tau_r]), np.array([level]),
                np.array([min(n_data if n_data else 8, 12)]))
            ref = refine_clock_reference(cfg, smooth, times, points, tau_t,
                                         tau_r, level, n_data_symbols=n_data)
            assert (float(taus[0]), float(anchors[0])) == ref

    def test_decode_matches_reference_end_to_end(self):
        """Full decodes agree exactly with the window-by-window oracle."""
        trace = synthetic_packet_trace("HLHLHLLHHLLH", noise=2.0, seed=3)
        assert_same_decode(AdaptiveThresholdDecoder().decode(trace),
                           reference_decode(trace))


def assert_same_decode(got, ref):
    assert got.symbols == ref.symbols
    assert got.bits == ref.bits
    assert got.tau_r == ref.tau_r
    assert got.tau_t == ref.tau_t
    assert got.threshold_level == ref.threshold_level
    assert got.anchor_points == ref.anchor_points
    assert [(w.t_start_s, w.t_end_s, w.max_value, w.symbol)
            for w in got.windows] == [
                (w.t_start_s, w.t_end_s, w.max_value, w.symbol)
                for w in ref.windows]
    assert got.preamble_verified == ref.preamble_verified


class TestDecodeRows:
    """One ``decode_rows`` call over R rows equals R serial decodes."""

    def test_per_row_auto_length(self):
        # One simulator, six noise seeds: the rows share a time grid
        # but acquire different tau_t, so each reads its own number of
        # windows.  At 200 lux two rows miss the preamble and one pads
        # a trimmed '0' bit.
        spec = ScenarioSpec(source="sun", detector="led", cap=False,
                            ground="tarmac", bits="1001",
                            symbol_width_m=0.1, speed_mps=5.0,
                            receiver_height_m=0.25, start_position_m=-1.5,
                            sample_rate_hz=2000.0, ground_lux=200.0)
        sim = build_simulator(spec.resolve())
        fs = sim.config.sample_rate_hz
        t_start, duration = sim.pass_window()
        v0, sigma = sim.respond(duration, t_start)
        traces = [SignalTrace(row, fs, t_start)
                  for row in sim.digitize(v0, sigma, list(range(2, 8)))]
        rows = decode_rows(np.stack([t.samples for t in traces]), fs,
                           t_start, n_data_symbols=None)
        decoded, tau_ts = 0, set()
        for r, trace in enumerate(traces):
            try:
                one = AdaptiveThresholdDecoder().decode(trace)
            except (PreambleNotFoundError, DecodeError) as exc:
                with pytest.raises(type(exc)) as got:
                    rows.result(r)
                assert str(got.value) == str(exc)
                with pytest.raises(type(exc)):
                    reference_decode(trace)
                continue
            decoded += 1
            tau_ts.add(one.tau_t)
            assert_same_decode(rows.result(r), one)
            assert_same_decode(rows.result(r), reference_decode(trace))
        assert decoded >= 3 and len(tau_ts) >= 3
        assert len({rows.kept[r] for r in rows.live}) > 1


def _outcome(decode, trace, n_data, config):
    try:
        return decode(trace, n_data, config)
    except (PreambleNotFoundError, DecodeError, ValueError) as exc:
        return type(exc)


class TestDecodeDifferential:
    """``decode()`` against the reference decode on drawn packets."""

    @given(bits=st.text("01", min_size=1, max_size=6),
           symbol_s=st.floats(0.12, 0.6),
           fs=st.sampled_from([100.0, 200.0, 500.0]),
           high=st.floats(30.0, 200.0), low=st.floats(0.0, 30.0),
           base=st.floats(0.0, 30.0), noise=st.floats(0.0, 12.0),
           seed=st.integers(0, 2**16), lead_s=st.floats(0.1, 1.5),
           tail_s=st.floats(0.0, 1.5),
           n_data=st.one_of(st.none(), st.just(-1), st.integers(1, 30)),
           rule=st.sampled_from(["midpoint", "paper"]),
           shrink=st.sampled_from([0.0, 0.1, 0.22, 0.4]),
           span=st.sampled_from([0.05, 0.15, 0.3]),
           refine=st.booleans())
    # The longest windows a decode asks for: no shrink, widest span.
    @example(bits="01", symbol_s=0.25, fs=200.0, high=100.0, low=20.0,
             base=10.0, noise=1.0, seed=1, lead_s=1.0, tail_s=1.0,
             n_data=-1, rule="midpoint", shrink=0.0, span=0.3, refine=True)
    @settings(max_examples=200, deadline=None)
    def test_decode_matches_reference(self, bits, symbol_s, fs, high, low,
                                      base, noise, seed, lead_s, tail_s,
                                      n_data, rule, shrink, span, refine):
        symbols = "HLHL" + "".join("HL" if b == "0" else "LH" for b in bits)
        trace = synthetic_packet_trace(
            symbols, symbol_duration_s=symbol_s, fs=fs, high=high, low=low,
            base=base, noise=noise, seed=seed, lead_s=lead_s,
            tail_s=tail_s)
        if n_data == -1:
            n_data = len(symbols) - 4      # the true data-symbol count
        config = DecoderConfig(threshold_rule=rule,
                               window_shrink_fraction=shrink,
                               clock_search_span=span,
                               clock_refinement=refine)
        got = _outcome(
            lambda t, n, c: AdaptiveThresholdDecoder(c).decode(t, n),
            trace, n_data, config)
        ref = _outcome(reference_decode, trace, n_data, config)
        if isinstance(ref, type):
            assert got is ref
        else:
            assert not isinstance(got, type), got
            assert_same_decode(got, ref)
