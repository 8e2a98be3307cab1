"""Tests for repro.hardware.amplifier."""

import numpy as np
import pytest

from repro.hardware.amplifier import Amplifier, first_order_lowpass


class TestLowpass:
    def test_dc_preserved(self):
        x = np.full(500, 0.7)
        y = first_order_lowpass(x, 50.0, 1000.0)
        assert np.allclose(y, 0.7, atol=1e-6)

    def test_attenuates_high_frequency(self):
        fs = 2000.0
        t = np.arange(4000) / fs
        slow = np.sin(2 * np.pi * 2.0 * t)
        fast = np.sin(2 * np.pi * 400.0 * t)
        y_slow = first_order_lowpass(slow, 20.0, fs)
        y_fast = first_order_lowpass(fast, 20.0, fs)
        assert np.std(y_fast) < 0.2 * np.std(y_slow)

    def test_transparent_above_nyquist(self):
        x = np.random.default_rng(1).normal(size=256)
        y = first_order_lowpass(x, 10_000.0, 1000.0)
        assert np.allclose(x, y)

    def test_causal_step_response(self):
        """No pre-ringing: output must not move before the step."""
        x = np.concatenate([np.zeros(100), np.ones(100)])
        y = first_order_lowpass(x, 50.0, 1000.0)
        assert np.allclose(y[:100], 0.0, atol=1e-9)
        assert y[-1] == pytest.approx(1.0, abs=0.02)

    def test_empty_input(self):
        out = first_order_lowpass(np.array([]), 10.0, 100.0)
        assert len(out) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            first_order_lowpass(np.zeros(10), 0.0, 100.0)
        with pytest.raises(ValueError):
            first_order_lowpass(np.zeros(10), 10.0, 0.0)


    def test_matches_inline_design_bit_for_bit(self):
        """The memoised design equals the inline butter / lfilter_zi /
        lfilter sequence, including repeated and same-cutoff calls."""
        from scipy import signal as sp_signal

        rng = np.random.default_rng(3)
        for cutoff, fs in [(50.0, 1000.0), (20.0, 2000.0), (20.0, 500.0),
                           (349.9, 700.0), (50.0, 1000.0), (0.5, 2000.0)]:
            x = rng.normal(size=300) + 2.0
            b, a = sp_signal.butter(1, cutoff / (fs / 2.0))
            zi = sp_signal.lfilter_zi(b, a) * x[0]
            expected, _ = sp_signal.lfilter(b, a, x, zi=zi)
            got = first_order_lowpass(x, cutoff, fs)
            assert got.tobytes() == expected.tobytes()
            got[:] = 0.0       # outputs are the caller's to mutate
            assert first_order_lowpass(x, cutoff, fs).tobytes() == \
                expected.tobytes()

    def test_stack_filters_each_row_from_its_first_sample(self):
        """An ``(R, T)`` stack equals per-row 1-D calls bit for bit,
        below Nyquist, where each row starts from its own sample."""
        stack = (np.random.default_rng(4).normal(size=(3, 50))
                 + np.array([[0.0], [5.0], [-2.0]]))
        got = first_order_lowpass(stack, 300.0, 2000.0)
        assert got.shape == stack.shape
        for row, out in zip(stack, got):
            assert out.tobytes() == \
                first_order_lowpass(row, 300.0, 2000.0).tobytes()

    def test_cached_design_is_read_only(self):
        from repro.hardware.amplifier import _rc_design

        first_order_lowpass(np.ones(8), 50.0, 1000.0)
        design = _rc_design(50.0 / (1000.0 / 2.0))
        assert design is _rc_design(0.1)
        for arr in design:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestAmplifier:
    def test_gain_applied(self):
        amp = Amplifier(gain=2.0, rail_high=10.0)
        y = amp.amplify(np.full(300, 0.2), 1000.0)
        assert y[-1] == pytest.approx(0.4, abs=0.01)

    def test_rail_clipping(self):
        amp = Amplifier(gain=5.0, rail_low=0.0, rail_high=1.0)
        y = amp.amplify(np.full(300, 0.5), 1000.0)
        assert np.all(y <= 1.0)
        assert y[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("bandwidth_hz", [300.0, 1.0e6])
    def test_stack_amplifies_row_by_row(self, bandwidth_hz):
        """Band-limited (300 Hz at 2 kS/s) or transparent, a stack
        amplifies bit-identically to its rows one at a time."""
        amp = Amplifier(gain=1.5, bandwidth_hz=bandwidth_hz,
                        input_offset=0.01)
        stack = np.random.default_rng(8).uniform(0.0, 0.8, size=(4, 120))
        got = amp.amplify(stack, 2000.0)
        for row, out in zip(stack, got):
            assert out.tobytes() == amp.amplify(row, 2000.0).tobytes()

    def test_lm358_bandwidth_scales_with_gain(self):
        assert Amplifier.lm358(gain=10.0).bandwidth_hz == pytest.approx(1e5)
        assert Amplifier.lm358(gain=1.0).bandwidth_hz == pytest.approx(1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            Amplifier(gain=0.0)
        with pytest.raises(ValueError):
            Amplifier(rail_low=1.0, rail_high=0.5)
