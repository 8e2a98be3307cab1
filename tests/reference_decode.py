"""Reference clock refinement and decision windows: the loop oracle.

The decoder refines its clock and reads its decision windows through
sparse max/min tables, with the same row kernel the tensor backend runs
(:func:`repro.core.decoder.refine_clock_rows`).  This module keeps the
readable version those replaced: a scale x delta x window triple loop
and per-window ``searchsorted`` + slice reductions.  Tests hold the
decoder to it.
"""

from __future__ import annotations

import numpy as np

from repro.channel.trace import SignalTrace
from repro.core.decoder import (
    AdaptiveThresholdDecoder,
    DecodeResult,
    DecoderConfig,
    SymbolWindow,
)
from repro.core.errors import DecodeError
from repro.dsp.peaks import Extremum
from repro.tags.encoding import ManchesterError, Symbol, manchester_decode
from repro.tags.packet import PREAMBLE

Triple = tuple[Extremum, Extremum, Extremum]


def window_max(smooth: np.ndarray, times: np.ndarray, w_start: float,
               w_end: float) -> float | None:
    """Max of the smoothed signal in [w_start, w_end), or None."""
    i0 = int(np.searchsorted(times, w_start, side="left"))
    i1 = int(np.searchsorted(times, w_end, side="left"))
    if i1 <= i0 or i0 >= len(smooth):
        return None
    return float(smooth[i0:i1].max())


def window_range(smooth: np.ndarray, times: np.ndarray, w_start: float,
                 w_end: float) -> float | None:
    """Peak-to-peak excursion inside [w_start, w_end), or None."""
    i0 = int(np.searchsorted(times, w_start, side="left"))
    i1 = int(np.searchsorted(times, w_end, side="left"))
    if i1 <= i0 or i0 >= len(smooth):
        return None
    segment = smooth[i0:i1]
    return float(segment.max() - segment.min())


def refine_clock_reference(config: DecoderConfig, smooth: np.ndarray,
                           times: np.ndarray, points: Triple,
                           tau_t: float, tau_r: float, level: float,
                           n_data_symbols: int | None = None,
                           ) -> tuple[float, float]:
    """The literal scale x delta x window search for (tau_t, anchor)."""
    base_anchor = points[0].time_s - 0.5 * tau_t
    shrink_frac = config.window_shrink_fraction
    span = config.clock_search_span
    expected_high = (True, False, True, False)
    n_probe = min(n_data_symbols if n_data_symbols else 8, 12)
    best: tuple[float, float] | None = None
    best_score = -np.inf
    for scale in np.linspace(1.0 - span, 1.0 + span, 13):
        cand_tau = tau_t * scale
        shrink = shrink_frac * cand_tau
        for rel_delta in np.linspace(-0.35, 0.35, 15):
            anchor = base_anchor + rel_delta * cand_tau
            margins: list[float] = []
            for k, is_high in enumerate(expected_high):
                w_max = window_max(smooth, times,
                                   anchor + k * cand_tau + shrink,
                                   anchor + (k + 1) * cand_tau - shrink)
                if w_max is None:
                    margins = []
                    break
                margins.append(w_max - level if is_high else level - w_max)
            if not margins or min(margins) <= 0.0:
                continue
            ranges: list[float] = []
            data_start = anchor + 4.0 * cand_tau
            for k in range(n_probe):
                w_range = window_range(
                    smooth, times, data_start + k * cand_tau + shrink,
                    data_start + (k + 1) * cand_tau - shrink)
                if w_range is None:
                    break
                ranges.append(w_range)
            roughness = float(np.mean(ranges)) if ranges else 0.0
            score = (min(margins) / tau_r
                     - 0.5 * roughness / tau_r
                     - 0.9 * abs(scale - 1.0)
                     - 0.25 * abs(rel_delta))
            if score > best_score:
                best_score = score
                best = (float(cand_tau), float(anchor))
    if best is None:
        return tau_t, base_anchor
    return best


def reference_decode(trace: SignalTrace,
                     n_data_symbols: int | None = None,
                     config: DecoderConfig | None = None) -> DecodeResult:
    """``AdaptiveThresholdDecoder.decode`` with the loop oracles above.

    Acquisition is the decoder's own (it has its oracle in
    ``reference_acquisition``); everything after it is window by
    window.
    """
    decoder = AdaptiveThresholdDecoder(config)
    cfg = decoder.config
    points = decoder.acquire_preamble(trace)
    smooth = decoder.scan_preamble(trace)[-1].smooth
    tau_r, tau_t = decoder.thresholds(points)
    level = decoder._threshold_level(tau_r, points[1].value)
    times = trace.times()
    if cfg.clock_refinement:
        tau_t, anchor = refine_clock_reference(
            cfg, smooth, times, points, tau_t, tau_r, level,
            n_data_symbols)
    else:
        anchor = points[0].time_s - 0.5 * tau_t

    data_start = anchor + 4.0 * tau_t
    if n_data_symbols is not None:
        if n_data_symbols < 1:
            raise ValueError("n_data_symbols must be >= 1")
        n_windows = n_data_symbols
    else:
        n_windows = min(cfg.max_symbols,
                        int(np.floor((times[-1] - data_start) / tau_t)))
    if n_windows < 1:
        raise DecodeError("no decision windows fit")
    shrink = cfg.window_shrink_fraction * tau_t
    windows: list[SymbolWindow] = []
    for k in range(n_windows):
        w_start = data_start + k * tau_t
        w_end = w_start + tau_t
        w_max = window_max(smooth, times, w_start + shrink, w_end - shrink)
        if w_max is None:
            break
        windows.append(SymbolWindow(
            float(w_start), float(w_end), w_max,
            Symbol.HIGH if w_max > level else Symbol.LOW))
    if not windows:
        raise DecodeError("all decision windows fell outside the trace")

    symbols = [w.symbol for w in windows]
    if n_data_symbols is None:
        while symbols and symbols[-1] is Symbol.LOW:
            symbols.pop()
            windows.pop()
        if len(symbols) % 2 == 1:
            symbols.append(Symbol.LOW)
            last = windows[-1]
            windows.append(SymbolWindow(last.t_end_s, last.t_end_s + tau_t,
                                        level, Symbol.LOW))
    try:
        bits: list[int] | None = manchester_decode(symbols)
    except ManchesterError:
        bits = None

    preamble: list[Symbol] = []
    for k in range(4):
        w_max = window_max(smooth, times, anchor + k * tau_t + shrink,
                           anchor + (k + 1) * tau_t - shrink)
        if w_max is None:
            break
        preamble.append(Symbol.HIGH if w_max > level else Symbol.LOW)

    return DecodeResult(symbols=symbols, bits=bits, tau_r=tau_r,
                        tau_t=tau_t, threshold_level=level,
                        anchor_points=points, windows=windows,
                        preamble_verified=tuple(preamble) == PREAMBLE)
