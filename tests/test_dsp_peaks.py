"""Tests for repro.dsp.peaks (preamble anchor detection)."""

import numpy as np
import pytest

from repro.dsp.peaks import Extremum, find_peaks_and_valleys

from .reference_acquisition import first_preamble_points


def hlhl_wave(fs=100.0, period=1.0, n_cycles=2, amplitude=1.0, base=0.0):
    """Smooth alternating waveform resembling a blurred HLHL preamble."""
    t = np.arange(int(n_cycles * period * fs * 2)) / fs
    return base + amplitude * 0.5 * (1 - np.cos(2 * np.pi * t / period)), t


class TestFindExtrema:
    def test_alternating_wave(self):
        x, _ = hlhl_wave()
        ext = find_peaks_and_valleys(x, 100.0)
        kinds = [e.kind for e in ext]
        assert "peak" in kinds and "valley" in kinds
        # Extrema strictly ordered in time.
        assert all(ext[i].index < ext[i + 1].index
                   for i in range(len(ext) - 1))

    def test_flat_signal_no_extrema(self):
        assert find_peaks_and_valleys(np.full(100, 2.0), 100.0) == []

    def test_short_signal(self):
        assert find_peaks_and_valleys(np.array([1.0, 2.0]), 100.0) == []

    def test_prominence_filters_noise(self):
        rng = np.random.default_rng(0)
        x, _ = hlhl_wave(amplitude=1.0, n_cycles=2)
        noisy = x + rng.normal(0.0, 0.02, size=len(x))
        ext = find_peaks_and_valleys(noisy, 100.0)
        # Only the real peaks (one per cycle, 2 cycles) survive the 20 %
        # prominence gate; noise wiggles must not register.  The cosine
        # form puts up to n_cycles*2 humps in view, so allow that many.
        peaks = [e for e in ext if e.kind == "peak"]
        assert 1 <= len(peaks) <= 4
        assert all(p.value > 0.8 for p in peaks)

    def test_timestamps_respect_start_time(self):
        x, _ = hlhl_wave()
        ext = find_peaks_and_valleys(x, 100.0, start_time_s=10.0)
        assert all(e.time_s >= 10.0 for e in ext)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            find_peaks_and_valleys(np.zeros(10), 0.0)


class TestFirstPreamblePoints:
    def _ext(self, kind, idx, value):
        return Extremum(index=idx, time_s=idx / 100.0, value=value, kind=kind)

    def test_simple_pvp(self):
        seq = [self._ext("peak", 10, 1.0), self._ext("valley", 20, 0.1),
               self._ext("peak", 30, 0.9)]
        points = first_preamble_points(seq)
        assert points is not None
        a, b, c = points
        assert (a.index, b.index, c.index) == (10, 20, 30)

    def test_leading_valley_skipped(self):
        seq = [self._ext("valley", 5, 0.0), self._ext("peak", 10, 1.0),
               self._ext("valley", 20, 0.1), self._ext("peak", 30, 0.9)]
        points = first_preamble_points(seq)
        assert points is not None
        assert points[0].index == 10

    def test_double_peak_keeps_stronger(self):
        seq = [self._ext("peak", 10, 0.5), self._ext("peak", 15, 1.0),
               self._ext("valley", 20, 0.1), self._ext("peak", 30, 0.9)]
        points = first_preamble_points(seq)
        assert points is not None
        assert points[0].index == 15

    def test_deeper_valley_preferred(self):
        seq = [self._ext("peak", 10, 1.0), self._ext("valley", 20, 0.3),
               self._ext("valley", 25, 0.05), self._ext("peak", 30, 0.9)]
        points = first_preamble_points(seq)
        assert points is not None
        assert points[1].index == 25

    def test_incomplete_pattern(self):
        assert first_preamble_points([]) is None
        assert first_preamble_points([self._ext("peak", 1, 1.0)]) is None
        assert first_preamble_points(
            [self._ext("peak", 1, 1.0), self._ext("valley", 2, 0.0)]) is None


class TestDegenerateWindows:
    """Streaming acquisition probes arbitrary suffixes; none of the
    degenerate shapes it produces may raise anywhere in the chain."""

    def test_empty_returns_no_extrema(self):
        assert find_peaks_and_valleys(np.empty(0), 100.0) == []

    def test_one_and_two_samples(self):
        assert find_peaks_and_valleys(np.array([1.0]), 100.0) == []
        assert find_peaks_and_valleys(np.array([1.0, 2.0]), 100.0) == []

    def test_all_constant(self):
        assert find_peaks_and_valleys(np.full(50, 3.3), 100.0) == []

    def test_nan_poisoned_window(self):
        samples = np.array([0.0, 1.0, np.nan, 1.0, 0.0])
        assert find_peaks_and_valleys(samples, 100.0) == []

    def test_infinite_span(self):
        samples = np.array([0.0, np.inf, 0.0, 1.0, 0.0])
        assert find_peaks_and_valleys(samples, 100.0) == []

    def test_acquisition_chain_never_crashes(self):
        """The decoder's acquisition must answer PreambleNotFoundError
        (the domain 'no') — not ValueError/IndexError — on any
        degenerate trace."""
        import pytest

        from repro.channel.trace import SignalTrace
        from repro.core.decoder import AdaptiveThresholdDecoder
        from repro.core.errors import PreambleNotFoundError

        decoder = AdaptiveThresholdDecoder()
        for samples in (np.empty(0), np.zeros(1), np.zeros(2),
                        np.full(100, 7.0), np.array([1.0, 2.0])):
            with pytest.raises(PreambleNotFoundError):
                decoder.acquire_preamble(SignalTrace(samples, 100.0))
