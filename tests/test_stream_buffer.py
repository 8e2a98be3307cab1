"""Tests for repro.stream.buffer."""

import numpy as np
import pytest

from repro.stream.buffer import StreamBuffer


class TestConstruction:
    def test_bad_rate(self):
        with pytest.raises(ValueError):
            StreamBuffer(0.0)

    def test_empty_state(self):
        buf = StreamBuffer(100.0, start_time_s=2.0)
        assert len(buf) == 0
        assert buf.n_appended == 0
        assert buf.end_time_s == 2.0
        assert buf.to_trace().start_time_s == 2.0


class TestAppend:
    def test_chunks_accumulate(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(5.0))
        buf.append(np.arange(5.0, 12.0))
        assert len(buf) == 12
        assert buf.n_appended == 12
        assert buf.end_time_s == pytest.approx(0.12)
        assert np.array_equal(buf.window(0.0, buf.end_time_s),
                              np.arange(12.0))

    def test_empty_chunk_is_noop(self):
        buf = StreamBuffer(100.0)
        buf.append(np.empty(0))
        assert len(buf) == 0 and buf.n_appended == 0

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            StreamBuffer(100.0).append(np.zeros((2, 2)))

    def test_growth_past_initial_allocation(self):
        buf = StreamBuffer(100.0)
        data = np.arange(5000.0)
        for start in range(0, 5000, 37):
            buf.append(data[start:start + 37])
        assert np.array_equal(buf.window(0.0, buf.end_time_s), data)


class TestWindows:
    def test_window_is_view(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(20.0))
        view = buf.window(0.05, 0.10)
        assert np.shares_memory(view, buf._data)
        assert np.array_equal(view, np.arange(5.0, 10.0))

    def test_window_with_time_reports_first_sample_time(self):
        buf = StreamBuffer(100.0, start_time_s=1.0)
        buf.append(np.arange(20.0))
        view, t0 = buf.window_with_time(1.055, 1.10)
        assert t0 == pytest.approx(1.06)
        assert np.array_equal(view, np.arange(6.0, 10.0))

    def test_window_clips_to_available(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(10.0))
        assert np.array_equal(buf.window(-5.0, 50.0), np.arange(10.0))

    def test_empty_window(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(10.0))
        assert len(buf.window(5.0, 6.0)) == 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            StreamBuffer(100.0).window(1.0, 1.0)


class TestToTrace:
    def test_round_trip(self):
        buf = StreamBuffer(100.0, start_time_s=0.5)
        buf.append(np.arange(30.0))
        trace = buf.to_trace(meta={"origin": "test"})
        assert trace.sample_rate_hz == 100.0
        assert trace.start_time_s == 0.5
        assert trace.meta["origin"] == "test"
        assert np.array_equal(trace.samples, np.arange(30.0))

    def test_trace_is_a_copy(self):
        buf = StreamBuffer(100.0)
        buf.append(np.arange(5.0))
        trace = buf.to_trace()
        buf.append(np.arange(5.0))
        assert len(trace) == 5
