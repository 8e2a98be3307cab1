"""Cross-scenario batched execution: N captures as one (N x T) tensor.

:func:`execute_batch` is the tensor-backend counterpart of the serial
:func:`repro.engine.execute_scenario` loop.  It groups resolved specs by
their *optical key* — the resolved spec minus the noise seed — so the
expensive seed-independent physics (footprint kernel, pass geometry,
aperture illuminance, detector band limiting and response, the noise
sigma profile) is computed **once per group**, and only the per-seed
noise draw onward runs per scenario, batched as fused ``(N, T)`` array
passes in a single process with no pickling.

Decoding is batched too.  Acquisition runs the serial decoder's own
per-scale step (:func:`repro.core.decoder.scan_scale`) on every pending
row; the clock-refinement search and the decision windows run the
serial decoder's own row kernels (:mod:`repro.core.decoder`, which the
serial decoder calls with one row) across the rows of a group at once,
over shared sparse max/min tables (:mod:`repro.tensor.rmq`).

Equivalence contract: with ``dtype="float64"`` (the default) every
:class:`~repro.engine.records.RunRecord` is **byte-identical**
(``canonical_json``) to the serial executor's record for the same
resolved spec.  This holds structurally:

* shared stages are seed-independent and computed with the very same
  functions the serial path calls;
* per-row stages replicate the serial expressions element for element
  (IEEE arithmetic on broadcast rows equals the per-row expressions);
* specs the fast path does not cover (networked receivers, streamed
  replay, the two-phase car decoder) are delegated to
  ``execute_scenario`` unchanged, as is any group whose fast path
  raises — correctness never depends on the fast path succeeding.

``dtype="float32"`` runs the per-row physics in single precision (half
the memory traffic on the batched arrays).  Codes may differ from the
float64 path by one ADC step on a tiny fraction of samples, so verdicts
agree within a documented tolerance rather than byte-for-byte; the path
stays fully deterministic (same seeds, same records on every run).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..channel.trace import SignalTrace
from ..core.decoder import (
    AdaptiveThresholdDecoder,
    DecoderConfig,
    ScaleScan,
    noise_sigma,
    refine_clock_rows,
    scan_scale,
    smoothing_scales,
    window_maxima,
    window_tables,
)
from ..core.errors import PreambleNotFoundError
from ..engine.executor import build_simulator, execute_scenario
from ..engine.records import (
    RecordStage,
    RunRecord,
    make_record,
    outcome_stage,
)
from ..engine.spec import ScenarioSpec, SpecIdentity
from ..exec.graph import ExecStage, StageTrace, maybe_stage, new_trace
from ..obs.export import publish_stage_trace
from ..obs.registry import active_registry
from ..hardware.amplifier import first_order_lowpass
from ..tags.encoding import ManchesterError, Symbol, manchester_decode
from ..tags.packet import Packet
from .rmq import log_table

__all__ = ["DTYPES", "execute_batch", "optical_key", "fast_path_eligible",
           "clear_plan_cache"]

#: Supported execution dtypes for the batched physics.
DTYPES = ("float64", "float32")

#: Bounded cache of per-group shared physics (see :class:`_GroupPlan`).
_PLAN_CACHE_MAX = 32
_PLAN_CACHE: "OrderedDict[str, _GroupPlan]" = OrderedDict()
_PLAN_LOCK = threading.Lock()


def optical_key(spec: ScenarioSpec) -> str:
    """Grouping key: the resolved spec minus the noise seed.

    Delegates to :meth:`ScenarioSpec.optical_key` — the one derivation
    of grouping identity, shared with the engine's executor (see the
    regression test pinning both call sites together).
    """
    return spec.optical_key()


def fast_path_eligible(spec: ScenarioSpec) -> bool:
    """Whether the fused tensor path covers this spec.

    Networked arrays, streamed replay, fault-injected scenarios and the
    two-phase car decoder keep their specialised serial paths (they are
    delegated, per spec, to ``execute_scenario`` — records stay
    identical by construction).
    """
    return (spec.n_receivers == 1 and spec.stream_chunk == 0
            and spec.decoder == "adaptive" and spec.fault_plan is None)


def clear_plan_cache() -> None:
    """Drop all cached group plans (tests and memory-sensitive callers)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()


# ----------------------------------------------------------------------
# Shared per-group physics
# ----------------------------------------------------------------------

@dataclass
class _GroupPlan:
    """Everything about a group that does not depend on the seed."""

    sim: object                # ChannelSimulator (caches kernel/profiles)
    t_start: float
    times: np.ndarray          # shared sample-time grid
    v0: np.ndarray             # detector response before noise (float64)
    sigma: np.ndarray          # detector noise sigma at v0 (float64)
    noise_floor: float

    @property
    def n_samples(self) -> int:
        return len(self.times)


def _build_plan(spec: ScenarioSpec) -> _GroupPlan:
    """Run the seed-independent half of ``sim.capture_pass`` once.

    Mirrors ``ChannelSimulator.capture_pass`` + the pre-noise stages of
    ``ReceiverFrontEnd.capture`` exactly (same functions, same order),
    stopping right before the per-seed noise draw.
    """
    sim = build_simulator(spec)
    t_start, duration = sim.pass_window()
    t = sim.time_grid(duration, t_start)
    lux = sim.aperture_illuminance(t)
    if lux.ndim != 1:
        raise ValueError("expected a 1-D waveform")
    if np.any(lux < 0.0):
        raise ValueError("illuminance cannot be negative")
    detector = sim.frontend.detector
    fs = sim.config.sample_rate_hz
    smoothed = first_order_lowpass(lux, detector.bandwidth_hz, fs)
    v0 = detector.respond(smoothed)
    sigma = detector.noise_sigma(v0)
    return _GroupPlan(sim=sim, t_start=t_start, times=t, v0=v0,
                      sigma=sigma,
                      noise_floor=sim.scene.nominal_noise_floor_lux())


def _plan_for(key: str, spec: ScenarioSpec) -> _GroupPlan:
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            return plan
    plan = _build_plan(spec)
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return plan


# ----------------------------------------------------------------------
# Batched capture (the per-seed half of the front end)
# ----------------------------------------------------------------------

def _capture_rows(plan: _GroupPlan, specs: list[ScenarioSpec],
                  dtype: str) -> np.ndarray:
    """Noise + amplifier + ADC for every row as one (R, T) pass.

    float64 replicates ``ReceiverFrontEnd.capture`` bit for bit: the
    per-row expression ``v0 + normal(seed) * sigma`` (then clip,
    amplify, quantise) is evaluated on broadcast rows, which performs
    the identical IEEE operations per element.
    """
    sim = plan.sim
    fs = sim.config.sample_rate_hz
    n = plan.n_samples
    amp = sim.frontend.amplifier
    adc = sim.frontend.adc
    include_noise = sim.config.include_noise

    if dtype == "float64":
        if include_noise:
            noise = np.empty((len(specs), n))
            for i, spec in enumerate(specs):
                rng = np.random.default_rng(spec.seed)
                noise[i] = rng.normal(0.0, 1.0, size=n)
            v = plan.v0[None, :] + noise * plan.sigma[None, :]
        else:
            # The serial path adds zeros * sigma — exactly + 0.0.
            v = plan.v0[None, :] + np.zeros((len(specs), n))
        v = np.clip(v, 0.0, 1.0)
        if amp.bandwidth_hz >= fs / 2.0:
            # The band limit is transparent at this rate (the lowpass
            # returns a copy), so amplify reduces elementwise.
            v = np.clip(v * amp.gain + amp.input_offset,
                        amp.rail_low, amp.rail_high)
        else:
            v = np.stack([amp.amplify(row, fs) for row in v])
        return adc.convert(v)

    # float32 fast path: single-precision per-row physics.
    f32 = np.float32
    v0 = plan.v0.astype(f32)
    sigma = plan.sigma.astype(f32)
    if include_noise:
        noise = np.empty((len(specs), n), dtype=f32)
        for i, spec in enumerate(specs):
            rng = np.random.default_rng(spec.seed)
            noise[i] = rng.standard_normal(n, dtype=f32)
        v = v0[None, :] + noise * sigma[None, :]
    else:
        v = np.broadcast_to(v0, (len(specs), n)).copy()
    v = np.clip(v, f32(0.0), f32(1.0))
    if amp.bandwidth_hz >= fs / 2.0:
        v = np.clip(v * f32(amp.gain) + f32(amp.input_offset),
                    f32(amp.rail_low), f32(amp.rail_high))
    else:
        v = np.stack([amp.amplify(row, fs) for row in v]).astype(f32)
    codes = np.round(np.clip(v, f32(0.0), f32(adc.v_ref_fullscale))
                     / f32(adc.lsb))
    return codes.astype(np.int32)


# ----------------------------------------------------------------------
# Batched decode
# ----------------------------------------------------------------------

class _RowDecode:
    """Mutable per-row decode state while the batch progresses."""

    __slots__ = ("stage", "bits", "smooth", "tau_r", "tau_t", "level",
                 "anchor")

    def __init__(self) -> None:
        self.stage: str | None = None   # terminal stage, once known
        self.bits = ""
        self.smooth: np.ndarray | None = None
        self.tau_r = 0.0
        self.tau_t = 0.0
        self.level = 0.0
        self.anchor = 0.0


def _acquire_rows(decoder: AdaptiveThresholdDecoder,
                  raw_stack: np.ndarray, fs: float, t0: float,
                  stage_trace: StageTrace | None = None,
                  ) -> dict[int, ScaleScan]:
    """``AdaptiveThresholdDecoder._acquire`` for the whole row stack.

    scipy's C peak routines beat any vectorised reformulation at this
    trace length, so each pending row runs the serial path's own
    :func:`~repro.core.decoder.scan_scale` per scale, finest first;
    only the noise-sigma profile is computed across rows at once.

    Returns ``{row_index: accepted scan}`` for rows that acquired.
    """
    sigma = noise_sigma(raw_stack)
    swing = decoder.config.min_preamble_swing_fraction
    acquired: dict[int, ScaleScan] = {}
    pending = range(len(raw_stack))
    for window in smoothing_scales(raw_stack.shape[1]):
        still: list[int] = []
        for ridx in pending:
            scan = scan_scale(raw_stack[ridx], window, float(sigma[ridx]),
                              fs, t0, swing, stage_trace=stage_trace)
            if scan.points is None:
                still.append(ridx)
            else:
                acquired[ridx] = scan
        pending = still
    return acquired


def _decode_rows(traces: list[SignalTrace], n_data_symbols: int,
                 config: DecoderConfig | None = None,
                 stage_trace: StageTrace | None = None) -> list[_RowDecode]:
    """Batched adaptive decode of same-grid traces.

    Acquisition runs row by row (:func:`_acquire_rows`); clock
    refinement and the decision windows run the serial decoder's row
    kernels (:func:`~repro.core.decoder.refine_clock_rows`,
    :func:`~repro.core.decoder.window_maxima`) over the whole row
    stack, answering every "max/min inside this window" question
    through shared sparse tables (:mod:`repro.tensor.rmq`).
    When profiled, group-level time lands in the same
    ``normalize``/``acquire``/``refine_clock``/``decide`` stages the
    serial decoder reports per scenario.
    """
    decoder = AdaptiveThresholdDecoder(config)
    cfg = decoder.config
    rows = [_RowDecode() for _ in traces]
    trace0 = traces[0]
    fs = trace0.sample_rate_hz
    t0 = trace0.start_time_s
    times = trace0.times()
    n = len(times)
    if n == 0:
        for row in rows:
            row.stage = RecordStage.PREAMBLE_NOT_FOUND.value
        return rows

    raw_stack = np.stack(
        [np.asarray(t.samples, dtype=float) for t in traces])
    acquired = _acquire_rows(decoder, raw_stack, fs, t0,
                             stage_trace=stage_trace)

    with maybe_stage(stage_trace, ExecStage.ACQUIRE):
        live: list[_RowDecode] = []
        for ridx, row in enumerate(rows):
            scan = acquired.get(ridx)
            if scan is None:
                row.stage = RecordStage.PREAMBLE_NOT_FOUND.value
                continue
            points, smooth = scan.points, scan.smooth
            try:
                tau_r, tau_t = decoder.thresholds(points)
            except PreambleNotFoundError:
                row.stage = RecordStage.PREAMBLE_NOT_FOUND.value
                continue
            row.smooth = smooth
            row.tau_r = tau_r
            row.tau_t = tau_t
            row.level = decoder._threshold_level(tau_r, points[1].value)
            row.anchor = points[0].time_s - 0.5 * tau_t
            live.append(row)
        if not live:
            return rows

        smooths = np.ascontiguousarray(
            np.stack([row.smooth for row in live]))
        tau_t = np.array([row.tau_t for row in live])
        tau_r = np.array([row.tau_r for row in live])
        level = np.array([row.level for row in live])
        base_anchor = np.array([row.anchor for row in live])

        log = log_table(n)
        tmax, tmin = window_tables(smooths, float(tau_t.max()), cfg, fs)

    with maybe_stage(stage_trace, ExecStage.REFINE_CLOCK):
        if cfg.clock_refinement:
            n_probe = min(n_data_symbols if n_data_symbols else 8, 12)
            tau_t, anchor = refine_clock_rows(
                cfg, times, t0, fs, tmax, tmin, log, base_anchor,
                tau_t, tau_r, level, n_probe)
        else:
            anchor = base_anchor
        for row, tau, anc in zip(live, tau_t, anchor):
            row.tau_t = float(tau)
            row.anchor = float(anc)

    with maybe_stage(stage_trace, ExecStage.DECIDE):
        # Decision windows, batched: same grid for every row.
        data_start = anchor + 4.0 * tau_t
        shrink = cfg.window_shrink_fraction * tau_t
        ks = np.arange(float(n_data_symbols))
        w_starts = data_start[:, None] + ks[None, :] * tau_t[:, None]
        w_ends = w_starts + tau_t[:, None]
        maxima, n_good = window_maxima(tmax, log, times,
                                       w_starts + shrink[:, None],
                                       w_ends - shrink[:, None])

        for r, row in enumerate(live):
            good = int(n_good[r])
            if good == 0:
                row.stage = RecordStage.DECODE_FAILED.value
                continue
            symbols = [Symbol.HIGH if float(maxima[r, k]) > row.level
                       else Symbol.LOW for k in range(good)]
            try:
                bits = manchester_decode(symbols)
            except ManchesterError:
                bits = None
            row.bits = ("" if bits is None
                        else "".join(str(b) for b in bits))
            row.stage = "ok"
    return rows


# ----------------------------------------------------------------------
# Group execution and the public entry point
# ----------------------------------------------------------------------

def _run_group(key: str, specs: list[ScenarioSpec],
               idents: list[SpecIdentity],
               dtype: str) -> list[RunRecord]:
    started = time.perf_counter()
    spec0 = specs[0]
    profile = new_trace()

    with maybe_stage(profile, ExecStage.BUILD):
        plan = _plan_for(key, spec0)
        sim = plan.sim
        fs = sim.config.sample_rate_hz
        packet = Packet.from_bitstring(spec0.bits,
                                       symbol_width_m=spec0.symbol_width_m)
    sent = packet.bit_string()
    n_data_symbols = 2 * len(packet.data_bits)

    with maybe_stage(profile, ExecStage.SIMULATE):
        codes = _capture_rows(plan, specs, dtype)
        meta = sim._meta(kind="rss")
        traces = [SignalTrace(codes[i].astype(float), fs, plan.t_start,
                              meta=dict(meta))
                  for i in range(len(specs))]
    decodes = _decode_rows(
        traces, n_data_symbols,
        DecoderConfig(threshold_rule=spec0.threshold_rule),
        stage_trace=profile)

    elapsed = (time.perf_counter() - started) / max(1, len(specs))
    if profile is not None:
        # The group ran its fused stages once for the whole row stack;
        # each record carries an equal per-scenario share so stage
        # totals aggregate the same way serial traces do.
        profile.count("batch_rows", len(specs))
        registry = active_registry()
        if registry is not None:
            # Telemetry sees the fused pass once, at its true wall
            # time, before the per-record scaling below.
            publish_stage_trace(registry, profile, "tensor")
        profile = profile.scaled(1.0 / max(1, len(specs)))
    records = []
    for spec, ident, row in zip(specs, idents, decodes):
        decoded = row.bits if row.stage == "ok" else ""
        stage = (outcome_stage(decoded, sent) if row.stage == "ok"
                 else row.stage)
        records.append(make_record(
            spec_hash=ident.content_hash,
            spec=ident.payload,
            seed=spec.seed,
            sent_bits=sent,
            decoded_bits=decoded,
            stage=stage,
            n_samples=plan.n_samples,
            sample_rate_hz=fs,
            noise_floor_lux=plan.noise_floor,
            elapsed_s=elapsed,
            stage_trace=profile,
        ))
    return records


def execute_batch(specs, dtype: str = "float64") -> list[RunRecord]:
    """Execute a batch of scenarios through the fused tensor path.

    Args:
        specs: iterable of :class:`ScenarioSpec` (resolved or not).
        dtype: ``"float64"`` (bit-identical to the serial executor) or
            ``"float32"`` (single-precision fast path; deterministic,
            verdicts within one ADC step of the float64 path).

    Returns:
        One :class:`RunRecord` per spec, in submission order.

    Raises:
        ValueError: on an unknown dtype.
    """
    if dtype not in DTYPES:
        raise ValueError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    resolved = [spec.resolve() for spec in specs]
    records: list[RunRecord | None] = [None] * len(resolved)

    groups: "OrderedDict[str, list[int]]" = OrderedDict()
    idents: list[SpecIdentity | None] = [None] * len(resolved)
    for i, spec in enumerate(resolved):
        if fast_path_eligible(spec):
            ident = spec.identity()
            idents[i] = ident
            groups.setdefault(spec.optical_key(ident), []).append(i)
        else:
            records[i] = execute_scenario(spec)

    for key, indices in groups.items():
        group = [resolved[i] for i in indices]
        try:
            group_records = _run_group(
                key, group, [idents[i] for i in indices], dtype)
        except Exception:
            # Correctness never rides on the fast path: any failure —
            # degenerate geometry, a scene that raises mid-physics —
            # re-runs the group through the serial executor, which
            # produces the exact records (including error records).
            group_records = [execute_scenario(spec) for spec in group]
        for i, record in zip(indices, group_records):
            records[i] = record
    return records
