"""The adaptive-threshold decoder (Section 4.1).

The receiver turns the RSS waveform into symbols with two per-packet
thresholds and **no calibration**:

* Find the first two peaks and the first valley of the preamble —
  points A, B, C in Fig. 5(a) — then set

  ``tau_r = ((rA - rB) + (rC - rB)) / 2``      (magnitude threshold)
  ``tau_t = ((tB - tA) + (tC - tB)) / 2``      (symbol period)

* Group subsequent samples into windows of length ``tau_t``; a window
  whose maximum exceeds the magnitude threshold is HIGH, else LOW.

The thresholds are per-packet because "we do not modulate information
with a common transmitter, but we rather let each packet determine its
own parameters: symbol width, materials used and speed".

``tau_r`` as written is a peak-to-valley *swing*; comparing a window max
against it directly implicitly assumes the valley level sits near zero
(true for the paper's normalised dark-room plots).  The faithful rule is
available as ``threshold_rule="paper"``; the default ``"midpoint"`` rule
compares against ``rB + tau_r / 2``, which is identical for
valley-anchored signals and strictly more robust on raw ADC counts with
a non-zero pedestal (see DESIGN.md Section 5 and the threshold-rule
ablation bench).
"""

from __future__ import annotations

import math

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ..channel.trace import SignalTrace
from ..dsp.filters import moving_average
from ..dsp.peaks import Extremum, _prominent_peaks
from ..exec.graph import ExecStage, StageTrace, maybe_stage
from ..tags.encoding import ManchesterError, Symbol, manchester_decode
from ..tensor.rmq import (
    build_table,
    grid_searchsorted,
    log_table,
    masked_query,
)
from .errors import DecodeError, PreambleNotFoundError

__all__ = ["DecoderConfig", "SymbolWindow", "DecodeResult",
           "AdaptiveThresholdDecoder", "ScaleScan", "scan_scale",
           "smoothing_scales", "noise_sigma", "refine_clock_rows",
           "window_maxima", "window_tables", "DecodedRows", "decode_rows"]

#: The preamble's known symbol pattern as HIGH flags (H, L, H, L).
_EXPECTED_HIGH = np.array([True, False, True, False])

#: Extrema count as preamble candidates when their prominence is at
#: least this fraction of the smoothed trace's peak-to-peak span.
PROMINENCE_FRACTION = 0.2

#: A real preamble's swing towers over the sample-to-sample noise:
#: tau_r must reach this many noise sigmas.
NOISE_SIGMAS = 4.0


def smoothing_scales(n_samples: int) -> list[int]:
    """Candidate moving-average windows for acquisition, finest first.

    Small signals (Fig. 15's ~15-count swings) need heavier smoothing
    before their preamble outgrows the noise; clean strong signals must
    not be over-smoothed or narrow symbols blur away.  The preamble
    period is unknown before acquisition, so the windows are fixed
    fractions of the trace.
    """
    return list(dict.fromkeys((max(3, n_samples // 200),
                               max(5, n_samples // 64),
                               max(7, n_samples // 32))))


def noise_sigma(raw: np.ndarray) -> np.ndarray:
    """Sample-to-sample noise sigma along the last axis.

    ``std(diff(raw)) / sqrt(2)`` (differencing white noise doubles its
    variance); zero for traces of three samples or fewer.  A last-axis
    reduction over a C-contiguous ``(R, T)`` stack applies the same
    pairwise summation to each row as the 1-D call, so every row is
    bit-identical to its own per-trace value.
    """
    if raw.shape[-1] <= 3:
        return np.zeros(raw.shape[:-1])
    return np.std(np.diff(raw, axis=-1), axis=-1) / math.sqrt(2.0)


@dataclass(slots=True)
class ScaleScan:
    """What acquisition found at one smoothing scale.

    Attributes:
        smooth: the smoothed trace.
        span: its peak-to-peak range.
        points: the accepted (A, B, C) anchor extrema, or None.
        first_index: with ``want_first``, the sample index of the
            earliest prominent extremum; None when there is none or the
            search did not run (zero, non-finite or sub-noise span).
        reason: why no triple was accepted ('' when one was).
    """

    smooth: np.ndarray
    span: float
    points: tuple[Extremum, Extremum, Extremum] | None = None
    first_index: int | None = None
    reason: str = ""


def _first_triple(peaks: list[int], valleys: list[int],
                  smooth: np.ndarray) -> tuple[int, int, int] | None:
    """Sample indices of the first A (peak), B (valley), C (peak).

    Walks the extrema in time order: valleys before the first peak are
    skipped; A is the highest peak before the first valley that follows
    a peak; B the deepest valley from there to the next peak; C that
    next peak.  Ties keep the earliest extremum.  ``peaks`` and
    ``valleys`` are ascending and disjoint, as scipy returns them; a
    handful of them makes bisecting Python lists cheaper than NumPy.
    """
    if len(peaks) < 2 or not valleys:
        return None
    j = bisect_left(valleys, peaks[0])
    if j == len(valleys):
        return None
    k = bisect_left(peaks, valleys[j])
    if k == len(peaks):
        return None
    m = bisect_left(valleys, peaks[k])
    value = smooth.__getitem__
    return (max(peaks[:k], key=value), min(valleys[j:m], key=value),
            peaks[k])


def scan_scale(raw: np.ndarray, window: int, sigma: float, fs: float,
               t0: float, swing_fraction: float,
               stage_trace: StageTrace | None = None,
               want_first: bool = False) -> ScaleScan:
    """Preamble acquisition at one smoothing scale.

    The one implementation every driver shares: the serial decoder
    loops scales over it, the tensor driver loops rows x scales.  It
    smooths ``raw`` (the ``normalize`` stage), then, as ``acquire``:

    * gates on the span: a zero or non-finite span has no extrema;
    * skips both peak searches when ``span < NOISE_SIGMAS * sigma``.
      This is exact: both halves of ``tau_r`` are differences of values
      inside ``[min, max]``, so ``tau_r <= span`` holds in floating
      point and no triple on this scale could clear the noise bound;
    * finds prominent peaks, then valleys, and the first A/B/C triple
      among their indices.  The valley search is skipped when fewer
      than two peaks stand, unless ``want_first`` asks for the earliest
      extremum (the stream detector's hand-off);
    * checks the triple's plausibility on scalars and builds
      :class:`Extremum` objects for the accepted triple only.

    Args:
        raw: the non-empty trace.
        window: moving-average width in samples.
        sigma: the trace's sample-noise sigma (:func:`noise_sigma`).
        fs: sample rate.
        t0: timestamp of ``raw[0]``.
        swing_fraction: ``DecoderConfig.min_preamble_swing_fraction``.
        stage_trace: optional stage timing sink.
        want_first: report ``first_index``, searching valleys even
            when no triple can form.
    """
    with maybe_stage(stage_trace, ExecStage.NORMALIZE):
        smooth = moving_average(raw, window)
    with maybe_stage(stage_trace, ExecStage.ACQUIRE):
        span = float(smooth.max() - smooth.min())
        if not (span > 0.0 and math.isfinite(span)):
            return ScaleScan(smooth, span,
                             reason="trace is constant; no preamble")
        if span < NOISE_SIGMAS * sigma:
            return ScaleScan(smooth, span,
                             reason="swing cannot clear the noise floor")
        prominence = PROMINENCE_FRACTION * span
        peaks = _prominent_peaks(smooth, prominence, None).tolist()
        if len(peaks) < 2 and not want_first:
            return ScaleScan(smooth, span,
                             reason="fewer than two prominent peaks")
        valleys = _prominent_peaks(-smooth, prominence, None).tolist()
        first = (min(peaks[:1] + valleys[:1], default=None)
                 if want_first else None)
        triple = _first_triple(peaks, valleys, smooth)
        if triple is None:
            return ScaleScan(
                smooth, span, first_index=first,
                reason=(f"no peak-valley-peak pattern among "
                        f"{len(peaks) + len(valleys)} extrema"))
        a, b, c = triple
        av, bv, cv = float(smooth[a]), float(smooth[b]), float(smooth[c])
        ta, tb, tc = t0 + a / fs, t0 + b / fs, t0 + c / fs
        # The preamble's HIGH-LOW swing is the dominant feature of a tag
        # pass and must tower over the sample-to-sample noise (smoothed
        # noise wiggles do not); its two half-periods are equal
        # (constant symbol width and, during the preamble, speed).
        tau_r = ((av - bv) + (cv - bv)) / 2.0
        d1, d2 = tb - ta, tc - tb
        if (tau_r < swing_fraction * span or tau_r < NOISE_SIGMAS * sigma
                or d1 <= 0.0 or d2 <= 0.0
                or not abs(d1 - d2) <= 0.6 * min(d1, d2)):
            return ScaleScan(
                smooth, span, first_index=first,
                reason=("candidate preamble rejected: swing, noise "
                        "floor or spacing implausible"))
        # Extremum times stay NumPy scalars, as scipy's indices made them.
        points = (Extremum(a, np.float64(ta), av, "peak"),
                  Extremum(b, np.float64(tb), bv, "valley"),
                  Extremum(c, np.float64(tc), cv, "peak"))
        return ScaleScan(smooth, span, points, first)


@dataclass(frozen=True)
class DecoderConfig:
    """Tuning knobs of the adaptive decoder.

    Attributes:
        threshold_rule: ``"midpoint"`` (robust) or ``"paper"`` (literal
            tau_r comparison) — see the module docstring.
        max_symbols: safety cap on emitted symbols in auto-length mode.
        window_shrink_fraction: fraction trimmed from *each side* of a
            decision window before taking its maximum.  FoV blur makes
            symbol transitions gradual; a misaligned full-width window
            catches the neighbouring HIGH's shoulder and misreads a LOW.
            0 reproduces the paper's literal full-window max.
        clock_refinement: refine (tau_t, phase) against the known HLHL
            preamble after the A/B/C estimate.  Peak timestamps on
            blurred, noisy tops jitter by a few milliseconds; the error
            accumulates across data windows.  The refinement stays
            within the paper's constraint — it uses only the fixed
            preamble, no calibration — and falls back to the raw
            estimate when no candidate reproduces HLHL.
        clock_search_span: relative tau_t search range (+-).
        min_preamble_swing_fraction: acquisition sanity bound — the
            candidate preamble's swing (tau_r) must be at least this
            fraction of the trace's full range, or the triple is
            rejected as noise.  Kept well below 1 because FoV blur
            attenuates the preamble's single-symbol peaks relative to
            double-HIGH runs in the data field.
    """

    threshold_rule: str = "midpoint"
    max_symbols: int = 256
    window_shrink_fraction: float = 0.22
    clock_refinement: bool = True
    clock_search_span: float = 0.15
    min_preamble_swing_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.threshold_rule not in ("midpoint", "paper"):
            raise ValueError(
                f"threshold_rule must be 'midpoint' or 'paper', "
                f"got {self.threshold_rule!r}")
        if self.max_symbols < 1:
            raise ValueError("max_symbols must be >= 1")
        if not 0.0 <= self.window_shrink_fraction < 0.5:
            raise ValueError("window shrink fraction must be in [0, 0.5)")
        if not 0.0 < self.clock_search_span < 0.5:
            raise ValueError("clock search span must be in (0, 0.5)")
        if not 0.0 < self.min_preamble_swing_fraction < 1.0:
            raise ValueError("preamble swing fraction must be in (0, 1)")


@dataclass(frozen=True)
class SymbolWindow:
    """One tau_t-long decision window.

    Attributes:
        t_start_s: window start time.
        t_end_s: window end time.
        max_value: maximum RSS inside the window.
        symbol: the decision.
    """

    t_start_s: float
    t_end_s: float
    max_value: float
    symbol: Symbol


@dataclass
class DecodeResult:
    """Everything the decoder extracted from one packet.

    Attributes:
        symbols: decoded data-field symbols (after the preamble).
        bits: Manchester-decoded payload, or None when the symbol
            stream is not a valid Manchester sequence.
        tau_r: magnitude threshold (swing units, per the paper).
        tau_t: symbol period estimate (s).
        threshold_level: absolute RSS level used for HIGH/LOW decisions.
        anchor_points: the (A, B, C) preamble extrema.
        windows: the data-field decision windows.
        preamble_verified: whether re-decoding the preamble region with
            the derived thresholds reproduces HLHL.
    """

    symbols: list[Symbol]
    bits: list[int] | None
    tau_r: float
    tau_t: float
    threshold_level: float
    anchor_points: tuple[Extremum, Extremum, Extremum]
    windows: list[SymbolWindow] = field(default_factory=list)
    preamble_verified: bool = False

    @property
    def success(self) -> bool:
        """True when a valid Manchester payload was recovered."""
        return self.bits is not None and len(self.bits) > 0

    def symbol_string(self) -> str:
        """Data symbols in the paper's 'HLHL' notation."""
        return "".join(s.value for s in self.symbols)

    def bit_string(self) -> str:
        """Payload bits as '0'/'1' characters ('' when decoding failed)."""
        if self.bits is None:
            return ""
        return "".join(str(b) for b in self.bits)


def window_tables(smooths: np.ndarray, tau_t: float, config: DecoderConfig,
                  fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Sparse max/min tables over ``(R, T)`` smoothed rows.

    Every window query of the decode — clock candidates, decision
    windows, the preamble check — spans at most one symbol window at
    the widest refinement candidate of the longest acquired ``tau_t``.
    Levels beyond that are never touched, so the tables stop there (an
    underestimate would fault in ``range_query``, never answer wrongly).
    """
    wide = ((1.0 + config.clock_search_span)
            * (1.0 + 2.0 * abs(config.window_shrink_fraction)))
    lmax = int(np.ceil(tau_t * wide * fs)) + 4
    return (build_table(smooths, np.maximum, max_len=lmax),
            build_table(smooths, np.minimum, max_len=lmax))


def window_maxima(tmax: np.ndarray, log: np.ndarray, times: np.ndarray,
                  starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maxima inside ``(R, K)`` consecutive ``[start, end)`` windows.

    Each row's windows are consumed in order until the first one
    holding no sample (it fell off the trace).  Returns the ``(R, K)``
    maxima, meaningless from that window on, and the per-row count of
    windows before it.  A decode asks for a few symbol windows per
    row, where binary search costs less than the grid search's passes.
    """
    i0 = np.searchsorted(times, starts, side="left")
    i1 = np.searchsorted(times, ends, side="left")
    valid = (i1 > i0) & (i0 < len(times))
    rows = np.arange(len(valid))[:, None]
    return (masked_query(tmax, log, np.maximum, rows, i0, i1, valid),
            np.cumprod(valid, axis=1).sum(axis=1))


def refine_clock_rows(config: DecoderConfig, times: np.ndarray,
                      t0: float, fs: float, tmax: np.ndarray,
                      tmin: np.ndarray, log: np.ndarray,
                      base_anchor: np.ndarray, tau_t: np.ndarray,
                      tau_r: np.ndarray, level: np.ndarray,
                      n_probe: int) -> tuple[np.ndarray, np.ndarray]:
    """Search (tau_t, phase) that best reproduces the HLHL preamble.

    The one clock search: the serial decoder runs it on one row, the
    tensor backend on every row of a group.  Candidates (13 scales x 15
    phases around the A/B/C estimate) are scored on two terms using
    only per-packet information:

    * the worst signed margin of the four *preamble* windows against
      their known HLHL pattern (must be positive);
    * the *flatness* of the data windows — the payload is unknown, but
      under the correct clock each (shrunk) window sits inside one
      symbol where the signal is locally flat, while a drifting clock
      centres symbol transitions inside windows, inflating their
      internal peak-to-peak excursion.

    Window extrema come from the sparse tables ``tmax``/``tmin``
    (:func:`window_tables`) and the roughness term is computed only
    for candidates that survive the preamble-margin test (rejected
    candidates score ``-inf`` either way).  Results are bit-identical
    to the literal scale x delta x window loop kept as the test oracle.

    Returns:
        Per-row ``(tau_t, anchor)`` where ``anchor`` is the start time
        of preamble symbol 1; data windows begin at ``anchor + 4
        tau_t``.  Rows without a surviving candidate keep their input.
    """
    rows, n = len(tau_t), len(times)
    span = config.clock_search_span

    scales = np.linspace(1.0 - span, 1.0 + span, 13)
    rel_deltas = np.linspace(-0.35, 0.35, 15)
    cand_tau = tau_t[:, None] * scales[None, :]                # (R, 13)
    shrink = config.window_shrink_fraction * cand_tau
    anchors = (base_anchor[:, None, None]
               + rel_deltas[None, None, :] * cand_tau[:, :, None])

    tau_c = cand_tau[:, :, None, None]
    shrink_c = shrink[:, :, None, None]
    anchor_c = anchors[:, :, :, None]

    # Preamble windows k = 0..3, expected H, L, H, L: the candidate
    # survives only when every window exists and every margin against
    # `level` is positive.
    ks = np.arange(4.0)
    i0, i1 = grid_searchsorted(times, t0, fs, np.stack((
        anchor_c + ks * tau_c + shrink_c,
        anchor_c + (ks + 1.0) * tau_c - shrink_c)))
    valid = (i1 > i0) & (i0 < n)
    rows4 = np.broadcast_to(
        np.arange(rows)[:, None, None, None], valid.shape)
    w_max = masked_query(tmax, log, np.maximum, rows4, i0, i1, valid)
    level_c = level[:, None, None, None]
    margins = np.where(_EXPECTED_HIGH, w_max - level_c, level_c - w_max)
    min_margin = margins.min(axis=-1)
    ok = valid.all(axis=-1) & (min_margin > 0.0)

    out_tau = tau_t.copy()
    out_anchor = base_anchor.copy()
    okr, oks, okd = np.nonzero(ok)
    if len(okr) == 0:
        return out_tau, out_anchor

    # Data-window roughness, survivors only: mean internal peak-to-peak
    # excursion of the probe windows before the first one falling off
    # the trace.
    dtau = cand_tau[okr, oks]
    dshrink = shrink[okr, oks]
    data_start = anchors[okr, oks, okd] + 4.0 * dtau
    kd = np.arange(float(max(n_probe, 0)))
    j0, j1 = grid_searchsorted(times, t0, fs, np.stack(
        (data_start[:, None] + kd * dtau[:, None] + dshrink[:, None],
         data_start[:, None] + (kd + 1.0) * dtau[:, None]
         - dshrink[:, None])))
    d_valid = (j1 > j0) & (j0 < n)
    rows_d = np.broadcast_to(okr[:, None], d_valid.shape)
    seg_max = masked_query(tmax, log, np.maximum, rows_d, j0, j1, d_valid)
    seg_min = masked_query(tmin, log, np.minimum, rows_d, j0, j1, d_valid)
    ranges = np.where(d_valid, seg_max - seg_min, 0.0)
    counts = np.cumprod(d_valid, axis=-1).sum(axis=-1)
    roughness = np.zeros(len(okr))
    # Group candidates by probe count so each group's mean reduces over
    # a contiguous prefix — the summation np.mean performs on the
    # oracle's per-candidate list, keeping scores bit-identical.
    for count in np.unique(counts):
        if count < 1:
            continue
        sel = counts == count
        roughness[sel] = np.mean(ranges[:, :int(count)], axis=-1)[sel]

    # All terms normalised by tau_r so the deviation penalty has a
    # consistent meaning across signal amplitudes.
    score = (min_margin[okr, oks, okd] / tau_r[okr]
             - 0.5 * roughness / tau_r[okr]
             - 0.9 * np.abs(scales - 1.0)[oks]
             - 0.25 * np.abs(rel_deltas)[okd])

    # Row-major first-max tie-breaking over the (13, 15) candidate grid.
    full = np.full((rows, len(scales) * len(rel_deltas)), -np.inf)
    full[okr, oks * len(rel_deltas) + okd] = score
    flat_idx = np.argmax(full, axis=1)
    s_idx, d_idx = np.divmod(flat_idx, len(rel_deltas))
    has = np.zeros(rows, dtype=bool)
    has[okr] = True
    r = np.flatnonzero(has)
    out_tau[r] = cand_tau[r, s_idx[r]]
    out_anchor[r] = anchors[r, s_idx[r], d_idx[r]]
    return out_tau, out_anchor


#: The symbol a window reads, indexed by whether its max clears the level.
_SYMBOL = (Symbol.LOW, Symbol.HIGH)


class DecodedRows:
    """What :func:`decode_rows` recovered from each row of a stack.

    ``errors[r]`` is the exception :meth:`AdaptiveThresholdDecoder.decode`
    raises for row ``r``, else None; ``bits[r]`` is its Manchester
    payload (None when the symbols are not Manchester).  ``live`` maps
    each acquired row to its index into the per-row arrays.
    """

    __slots__ = ("errors", "bits", "points", "symbols", "kept", "live",
                 "tau_r", "tau_t", "level", "starts", "maxima", "verified")

    def __init__(self, n_rows: int) -> None:
        self.errors: list[Exception | None] = [None] * n_rows
        self.bits: list[list[int] | None] = [None] * n_rows
        self.points: list[tuple[Extremum, Extremum, Extremum] | None] = (
            [None] * n_rows)
        self.symbols: list[list[Symbol] | None] = [None] * n_rows
        self.kept = [0] * n_rows        # data windows read, ground trimmed
        self.live: dict[int, int] = {}
        self.tau_r = self.tau_t = self.level = np.empty(0)
        self.starts = self.maxima = np.empty((0, 0))
        self.verified: list[bool] = []

    def bit_string(self, r: int) -> str:
        """Row ``r``'s payload as '0'/'1' characters ('' when none)."""
        bits = self.bits[r]
        return "" if bits is None else "".join(str(b) for b in bits)

    def result(self, r: int) -> DecodeResult:
        """Row ``r`` as a :class:`DecodeResult`; raises the row's error."""
        if self.errors[r] is not None:
            raise self.errors[r]
        j, kept, symbols = self.live[r], self.kept[r], self.symbols[r]
        tau_t, level = float(self.tau_t[j]), float(self.level[j])
        starts = self.starts[j, :kept]
        windows = [SymbolWindow(*w) for w in zip(
            starts.tolist(), (starts + tau_t).tolist(),
            self.maxima[j, :kept].tolist(), symbols)]
        if len(symbols) > kept:
            # The LOW half of a trailing '0' bit, trimmed with the ground.
            end = windows[-1].t_end_s
            windows.append(SymbolWindow(end, end + tau_t, level, Symbol.LOW))
        return DecodeResult(
            symbols=symbols,
            bits=self.bits[r],
            tau_r=float(self.tau_r[j]),
            tau_t=tau_t,
            threshold_level=level,
            anchor_points=self.points[r],
            windows=windows,
            preamble_verified=self.verified[j],
        )


def decode_rows(raw: np.ndarray, fs: float, t0: float,
                n_data_symbols: int | None = None,
                config: DecoderConfig | None = None,
                stage_trace: StageTrace | None = None) -> DecodedRows:
    """Section 4.1's decode of ``(R, T)`` rows sampled on one time grid.

    The one decode every driver runs: the serial decoder on one row,
    the tensor backend on every row of an optics group.  Each row
    acquires by :func:`scan_scale` at each of :func:`smoothing_scales`,
    finest first, until one accepts an A/B/C triple (scipy's C peak
    routines beat any vectorised reformulation at this trace length).
    The acquired rows then share sparse max/min tables
    (:func:`window_tables`) through which the clock search
    (:func:`refine_clock_rows`), the decision windows and the HLHL
    preamble check read every row's windows at once.  Profiled stages
    time the whole stack once.

    Args:
        raw: ``(R, T)`` samples (raw counts or normalised — the
            thresholds adapt either way).
        fs: sample rate.
        t0: timestamp of column 0.
        n_data_symbols: expected number of data symbols (2N for an
            N-bit payload).  None switches every row to auto length:
            windows are consumed until the trace ends, then trailing
            LOW windows (the empty ground after the tag) are trimmed
            and an odd count is padded with a LOW.
        config: decoder tuning.
        stage_trace: optional per-stage timing sink.

    Raises:
        ValueError: ``n_data_symbols < 1`` once a row has acquired.
    """
    decoder = AdaptiveThresholdDecoder(config)
    cfg = decoder.config
    out = DecodedRows(len(raw))
    n = raw.shape[1]
    if n == 0:
        # Streaming probes degenerate windows (empty suffixes, sub-symbol
        # fragments); acquisition must answer "no preamble", not crash.
        out.errors = [PreambleNotFoundError("empty trace; no preamble")
                      for _ in out.errors]
        return out
    sigma = noise_sigma(raw)
    scans: list = [None] * len(raw)
    pending = range(len(raw))
    for window in smoothing_scales(n):
        for r in pending:
            scans[r] = scan_scale(raw[r], window, float(sigma[r]), fs, t0,
                                  cfg.min_preamble_swing_fraction,
                                  stage_trace=stage_trace)
        pending = [r for r in pending if scans[r].points is None]

    with maybe_stage(stage_trace, ExecStage.ACQUIRE):
        params = []
        for r, scan in enumerate(scans):
            if scan.points is None:
                out.errors[r] = PreambleNotFoundError(scan.reason)
                continue
            tau_r, tau_t = decoder.thresholds(scan.points)
            a, b, _ = out.points[r] = scan.points
            out.live[r] = len(params)
            params.append((tau_r, tau_t,
                           decoder._threshold_level(tau_r, b.value),
                           a.time_s - 0.5 * tau_t))
        if not params:
            return out
        tau_r, tau_t, level, anchor = map(np.array, zip(*params))
        times = t0 + np.arange(n) / fs
        log = log_table(n)
        tmax, tmin = window_tables(
            np.array([scans[r].smooth for r in out.live]),
            float(tau_t.max()), cfg, fs)

    if cfg.clock_refinement:
        with maybe_stage(stage_trace, ExecStage.REFINE_CLOCK):
            tau_t, anchor = refine_clock_rows(
                cfg, times, t0, fs, tmax, tmin, log, anchor, tau_t, tau_r,
                level, min(n_data_symbols if n_data_symbols else 8, 12))

    with maybe_stage(stage_trace, ExecStage.DECIDE):
        # The preamble occupies symbols 1-4 from the anchor; data follows.
        data_start = anchor + 4.0 * tau_t
        if n_data_symbols is None:
            n_windows = np.minimum(cfg.max_symbols, np.floor(
                (times[-1] - data_start) / tau_t)).tolist()
        elif n_data_symbols < 1:
            raise ValueError("n_data_symbols must be >= 1")
        else:
            n_windows = [n_data_symbols] * len(params)
        tau = tau_t[:, None]
        shrink = cfg.window_shrink_fraction * tau
        ks = np.arange(float(max(1, max(n_windows))))
        starts = data_start[:, None] + ks * tau
        maxima, n_good = window_maxima(tmax, log, times, starts + shrink,
                                       starts + tau - shrink)
        # Re-decode the preamble region with the derived thresholds; it
        # must read HLHL, every window inside the trace.
        ks = np.arange(4.0)
        pre_max, pre_good = window_maxima(
            tmax, log, times, anchor[:, None] + ks * tau + shrink,
            anchor[:, None] + (ks + 1.0) * tau - shrink)
        hlhl = _EXPECTED_HIGH.tolist()
        verified = [count == 4 and read == hlhl for count, read in zip(
            pre_good.tolist(), (pre_max > level[:, None]).tolist())]
        high = (maxima > level[:, None]).tolist()
        n_good = n_good.tolist()
        for r, j in out.live.items():
            if n_windows[j] < 1:
                out.errors[r] = DecodeError(
                    "no decision windows fit between the preamble and "
                    "the end of the trace")
                continue
            good = min(n_good[j], int(n_windows[j]))
            if good == 0:
                out.errors[r] = DecodeError(
                    "all decision windows fell outside the trace")
                continue
            symbols = [_SYMBOL[h] for h in high[j][:good]]
            if n_data_symbols is None:
                # Trim the trailing ground (LOW) and keep an even count:
                # a last HIGH is the first half of a '0' bit whose LOW
                # half went with the ground.
                while symbols and symbols[-1] is Symbol.LOW:
                    symbols.pop()
                good = len(symbols)
                if good % 2 == 1:
                    symbols.append(Symbol.LOW)
            out.kept[r], out.symbols[r] = good, symbols
            try:
                out.bits[r] = manchester_decode(symbols)
            except ManchesterError:
                pass
    out.tau_r, out.tau_t, out.level, out.verified = (tau_r, tau_t, level,
                                                     verified)
    out.starts, out.maxima = starts, maxima
    return out


class AdaptiveThresholdDecoder:
    """Implements the paper's calibration-free RSS decoder."""

    def __init__(self, config: DecoderConfig | None = None) -> None:
        self.config = config or DecoderConfig()

    # ------------------------------------------------------------------
    def scan_preamble(self, trace: SignalTrace,
                      stage_trace: StageTrace | None = None,
                      ) -> list[ScaleScan]:
        """Multi-scale preamble acquisition, without raising.

        Runs :func:`scan_scale` at each of :func:`smoothing_scales`,
        finest first, until one accepts a triple.  The finest scan
        always reports its earliest prominent extremum, which the
        stream detector uses to advance its window.

        Returns:
            Every scan tried, in order; the last one holds the accepted
            triple, if any.  Empty for an empty trace.
        """
        raw = np.asarray(trace.samples, dtype=float)
        if len(raw) == 0:
            return []
        sigma = float(noise_sigma(raw))
        scans: list[ScaleScan] = []
        for window in smoothing_scales(len(raw)):
            scan = scan_scale(raw, window, sigma, trace.sample_rate_hz,
                              trace.start_time_s,
                              self.config.min_preamble_swing_fraction,
                              stage_trace=stage_trace,
                              want_first=not scans)
            scans.append(scan)
            if scan.points is not None:
                break
        return scans

    def acquire_preamble(self, trace: SignalTrace,
                         ) -> tuple[Extremum, Extremum, Extremum]:
        """Find the A/B/C anchor points of the preamble.

        Raises:
            PreambleNotFoundError: when no scale yields a plausible
                peak-valley-peak triple.
        """
        scans = self.scan_preamble(trace)
        if not scans:
            raise PreambleNotFoundError("empty trace; no preamble")
        if scans[-1].points is None:
            raise PreambleNotFoundError(scans[-1].reason)
        return scans[-1].points

    @staticmethod
    def thresholds(points: tuple[Extremum, Extremum, Extremum],
                   ) -> tuple[float, float]:
        """Compute (tau_r, tau_t) from the anchor points — Section 4.1."""
        a, b, c = points
        tau_r = ((a.value - b.value) + (c.value - b.value)) / 2.0
        tau_t = ((b.time_s - a.time_s) + (c.time_s - b.time_s)) / 2.0
        if tau_r <= 0.0:
            raise PreambleNotFoundError(
                f"non-positive magnitude threshold tau_r={tau_r:.3g}; "
                "anchor points are not a real peak-valley-peak triple")
        if tau_t <= 0.0:
            raise PreambleNotFoundError(
                f"non-positive period tau_t={tau_t:.3g}")
        return tau_r, tau_t

    def _threshold_level(self, tau_r: float, valley_value: float) -> float:
        if self.config.threshold_rule == "paper":
            return tau_r
        return valley_value + tau_r / 2.0

    # ------------------------------------------------------------------
    def decode(self, trace: SignalTrace,
               n_data_symbols: int | None = None,
               stage_trace: StageTrace | None = None) -> DecodeResult:
        """Decode one packet from an RSS trace.

        A batch of one: :func:`decode_rows` on the trace's single row.

        Args:
            trace: the captured RSS stream (raw counts or normalised —
                the thresholds adapt either way).
            n_data_symbols: expected number of data symbols (2N for an
                N-bit payload).  None switches to auto-length mode:
                windows are consumed until the trace ends, then trailing
                LOW windows (the empty ground after the tag) are
                trimmed and an odd count is padded with a LOW.
            stage_trace: optional per-stage instrumentation sink; when
                given, smoothing/acquisition/clock-refinement/decision
                wall time is attributed to the corresponding
                :class:`~repro.exec.ExecStage`.  Never changes the
                decode result.

        Raises:
            PreambleNotFoundError: when acquisition fails.
            DecodeError: when no decision windows fit in the trace.
        """
        return decode_rows(trace.samples[None, :], trace.sample_rate_hz,
                           trace.start_time_s, n_data_symbols, self.config,
                           stage_trace).result(0)
