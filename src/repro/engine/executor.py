"""Spec -> simulation: the per-scenario driver of the shared pipeline.

:func:`execute_scenario` is the single choke point through which every
engine-driven simulation passes, and :func:`build_scene` is the one
scene builder: the figure experiments, the capacity probes and the
waterfalls describe their scenes as specs and capture them here.

One scenario runs the canonical ``build → simulate → inject_faults →
… → decide → fuse`` pipeline (:class:`repro.exec.ExecStage`) as plain
straight-line code: a single receiver as one row of a
:class:`CapturePlan` (:meth:`CapturePlan.capture`, its faults and
replay, then a decode stack), and a receiver array by its own
function.  Every decode ends in one
:func:`~repro.core.decoder.decode_rows` call per stack of rows that
share a sample rate and a config: :func:`execute_scenarios` stacks a
pool task's single receivers, :func:`decode_captures` an optics
group's rows for :func:`repro.tensor.execute_batch`, and a receiver
array its nodes.  With telemetry on (``REPRO_TELEMETRY`` /
``--telemetry``, or ``--profile``) every record carries a
:class:`repro.exec.StageTrace` of per-stage wall time, with its share
of its stack's stages.  The drivers publish nothing themselves:
:class:`repro.engine.BatchRunner` folds the fresh records' traces into
the registry, in the parent process.

:func:`execute_scenario` and :func:`execute_scenarios` are
module-level callables of one picklable argument on purpose: they are
what :class:`repro.engine.BatchRunner`'s tasks run in worker
processes.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
import numpy as np

from ..channel.distortion import CLEAR, Atmosphere
from ..faults.inject import (
    FaultLog,
    apply_signal_faults,
    fault_rng,
    intermittent_window,
    node_fault_roll,
    perturb_chunks,
)
from ..channel.mobility import (
    ConstantSpeed,
    MotionProfile,
    SpeedJitter,
    speed_doubling_profile,
)
from ..channel.scene import MovingObject, PassiveScene
from ..channel.simulator import ChannelSimulator, SimulatorConfig
from ..channel.trace import SignalTrace
from ..core.decoder import (
    AdaptiveThresholdDecoder,
    DecodedRows,
    DecodeResult,
    DecoderConfig,
    decode_rows,
)
from ..core.errors import PreambleNotFoundError
from ..exec.graph import ExecStage, StageTrace, maybe_stage, new_trace
from ..hardware.frontend import FovCap, ReceiverFrontEnd
from ..hardware.led_receiver import LedReceiver
from ..hardware.photodiode import PdGain, Photodiode
from ..optics.geometry import Vec3
from ..optics.materials import material_by_name
from ..optics.sources import FluorescentCeiling, LedLamp, Sun
from ..tags.packet import Packet
from ..tags.surface import TagSurface
from ..vehicles.profiles import bmw_3_series, volvo_v40
from ..vehicles.rooftag import TaggedCar, TwoPhaseDecoder
from .records import RecordStage, RunRecord, make_record, outcome_stage
from .spec import ScenarioSpec, SpecIdentity, derive_seed

__all__ = ["CapturePlan", "build_scene", "build_decoder", "build_frontend",
           "build_simulator", "build_network", "capture_plan",
           "capture_trace", "decode_captures",
           "error_record", "execute_scenario", "execute_scenarios",
           "inject_faults", "node_positions", "node_seed"]


_CAR_FACTORIES = {"volvo_v40": volvo_v40, "bmw_3_series": bmw_3_series}


def _build_source(spec: ScenarioSpec):
    if spec.source == "led_lamp":
        return LedLamp(
            position=Vec3(spec.lamp_offset_m, 0.0, spec.receiver_height_m),
            luminous_intensity=spec.lamp_intensity_cd)
    if spec.source == "sun":
        return Sun(ground_lux=spec.ground_lux)
    return FluorescentCeiling(ground_lux=spec.ground_lux,
                              height=spec.fluorescent_height_m)


def _build_motion(spec: ScenarioSpec, packet: Packet, start: float,
                  packet_offset_m: float = 0.0) -> MotionProfile:
    if spec.motion == "speed_doubling":
        # The Fig. 8 semantics: the speed doubles when the *packet*
        # midpoint passes the receiver.  On a car the packet sits
        # ``packet_offset_m`` behind the object's leading edge, which
        # is what the motion profile tracks — shift the halfway mark
        # accordingly (0 for bare tags).
        return speed_doubling_profile(packet.length_m, spec.speed_mps,
                                      start,
                                      halfway_offset_m=packet_offset_m)
    base = ConstantSpeed(spec.speed_mps, start)
    if spec.motion == "speed_jitter":
        return SpeedJitter(base, relative_deviation=spec.motion_param,
                           seed=spec.seed if spec.seed is not None else 0)
    return base


def _build_object(spec: ScenarioSpec, packet: Packet) -> MovingObject:
    start = spec.start_position_m
    if start is None:
        start = spec.auto_start_position_m()
    if spec.car is not None:
        car = _CAR_FACTORIES[spec.car]()
        tagged = TaggedCar(car=car, packet=packet)
        surface = tagged.surface()
        tag_offset = car.segment_span("roof")[0] + tagged.roof_offset_m
        motion = _build_motion(spec, packet, start, tag_offset)
        return MovingObject(surface, motion, car.model)
    tag = TagSurface.from_packet(packet)
    if spec.dirt > 0.0:
        tag = tag.degraded(spec.dirt)
    return MovingObject(tag, _build_motion(spec, packet, start), "tag")


def build_scene(spec: ScenarioSpec) -> PassiveScene:
    """Assemble the :class:`PassiveScene` a spec describes."""
    packet = Packet.from_bitstring(spec.bits,
                                   symbol_width_m=spec.symbol_width_m)
    atmosphere = (CLEAR if spec.visibility_m is None
                  else Atmosphere.from_visibility(spec.visibility_m))
    return PassiveScene(
        source=_build_source(spec),
        receiver_height_m=spec.receiver_height_m,
        objects=[_build_object(spec, packet)],
        ground=material_by_name(spec.ground),
        atmosphere=atmosphere,
    )


def build_frontend(spec: ScenarioSpec,
                   seed: int | None = None) -> ReceiverFrontEnd:
    """Assemble the receiver chain a spec describes.

    Args:
        spec: the scenario.
        seed: noise-seed override (networked runs give every node its
            own derived seed); defaults to the spec's seed.
    """
    if spec.detector == "pd":
        detector = Photodiode.opt101(gain=PdGain[spec.pd_gain])
    else:
        detector = LedReceiver.red_5mm()
    cap = FovCap.paper_cap() if spec.cap else None
    return ReceiverFrontEnd(detector=detector, cap=cap,
                            seed=spec.seed if seed is None else seed)


def build_simulator(spec: ScenarioSpec) -> ChannelSimulator:
    """Scene + front end + config, ready to capture."""
    spec = spec.resolve()
    return ChannelSimulator(
        build_scene(spec), build_frontend(spec),
        SimulatorConfig(sample_rate_hz=spec.sample_rate_hz,
                        include_noise=spec.include_noise,
                        seed=spec.seed))


def capture_trace(spec: ScenarioSpec):
    """Capture one scenario's pass as a :class:`SignalTrace`.

    A module-level callable of one picklable argument, like
    :func:`execute_scenario`, so capture-only consumers (the streaming
    session replay) can fan it out over a process pool.
    """
    return build_simulator(spec).capture_pass()


def build_decoder(spec: ScenarioSpec):
    """The decoder a spec describes (adaptive, or the two-phase car
    decoder wrapping a configured adaptive one)."""
    adaptive = AdaptiveThresholdDecoder(
        DecoderConfig(threshold_rule=spec.threshold_rule))
    if spec.decoder == "two_phase":
        return TwoPhaseDecoder(decoder=adaptive)
    return adaptive


# ----------------------------------------------------------------------
# Capture plans and the rows step (single receivers)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CapturePlan:
    """The seed-independent half of a pass capture, which specs that
    differ only in their seed share: the built simulator, the start of
    its pass window, the front end's ``respond`` output over it and the
    scene's nominal noise floor (which every record carries)."""

    sim: ChannelSimulator
    t_start: float
    v0: np.ndarray
    sigma: np.ndarray
    noise_floor_lux: float

    def capture(self, specs: list[ScenarioSpec],
                profile: StageTrace | None) -> np.ndarray:
        """A row of RSS codes per spec: its seeded noise row through
        ``digitize``, timed as ``simulate``."""
        with maybe_stage(profile, ExecStage.SIMULATE):
            return self.sim.digitize(self.v0, self.sigma,
                                     [spec.seed for spec in specs])


def capture_plan(spec: ScenarioSpec,
                 profile: StageTrace | None = None) -> CapturePlan:
    """Build a spec's :class:`CapturePlan`: ``build`` times the
    simulator, ``simulate`` the pass window, the response and the
    noise floor."""
    with maybe_stage(profile, ExecStage.BUILD):
        sim = build_simulator(spec)
    with maybe_stage(profile, ExecStage.SIMULATE):
        t_start, duration = sim.pass_window()
        v0, sigma = sim.respond(duration, t_start)
        noise_floor = sim.noise_floor_lux
    return CapturePlan(sim=sim, t_start=t_start, v0=v0, sigma=sigma,
                       noise_floor_lux=noise_floor)


def _stall(spec: ScenarioSpec) -> None:
    """The chaos harness's deterministic stuck worker: a wall-clock
    stall the runner's per-scenario timeout is expected to catch."""
    plan = spec.fault_plan
    if plan is not None and plan.exec_sleep_s > 0.0:
        time.sleep(plan.exec_sleep_s)


def _decode_stage(error: Exception | None, decoded: str, sent: str) -> str:
    """A decode's record stage: the payload verdict, or the error's."""
    if error is None:
        return outcome_stage(decoded, sent)
    return (RecordStage.PREAMBLE_NOT_FOUND
            if isinstance(error, PreambleNotFoundError)
            else RecordStage.DECODE_FAILED).value


def _verdict(rows: DecodedRows, r: int, sent: str) -> dict:
    """Row ``r`` of a decode stack as record fields."""
    decoded = rows.bit_string(r)
    return dict(decoded_bits=decoded,
                stage=_decode_stage(rows.errors[r], decoded, sent))


@dataclass
class _StackRow:
    """One row of a decode stack: the trace it reads, its decoder
    config and data-symbol count, the profile that takes its share of
    the stack's stages, and, once :func:`_decode_stacks` ran, its stack
    and row there."""

    window: SignalTrace
    config: DecoderConfig
    n_data_symbols: int
    profile: StageTrace | None
    rows: DecodedRows | None = None
    row: int = 0

    def result(self) -> DecodeResult | None:
        """The decode, or None when it raised (as a node reports it)."""
        if self.rows.errors[self.row] is not None:
            return None
        return self.rows.result(self.row)


def _stack_row(decoder, trace: SignalTrace, n_data_symbols: int,
               profile: StageTrace | None) -> _StackRow:
    """The stack row a decoder reads from a capture (its
    ``stack_input``: a two-phase car decoder's phase 1 raises
    :class:`PreambleNotFoundError` without a long preamble)."""
    window, config = decoder.stack_input(trace, profile)
    return _StackRow(window, config, n_data_symbols, profile)


#: Stages a stack row shares only when it acquired a preamble.
_ACQUIRED_STAGES = (ExecStage.REFINE_CLOCK.value, ExecStage.DECIDE.value)


def _decode_stacks(stack_rows: list[_StackRow]) -> None:
    """Decode every row in one :func:`~repro.core.decoder.decode_rows`
    call per (sample rate, config), rows of any start and length.

    Each row's profile takes its share of its stack's stages:
    ``normalize`` and ``acquire`` split over the rows that scanned (the
    non-empty ones), ``refine_clock`` and ``decide`` over the rows that
    acquired.  A record so keeps the stage keys of its one-row decode,
    and the stack's time adds up over its rows.
    """
    stacks: dict[tuple, list[_StackRow]] = {}
    for row in stack_rows:
        stacks.setdefault((row.window.sample_rate_hz, row.config),
                          []).append(row)
    for (fs, config), stack in stacks.items():
        scratch = (StageTrace() if any(row.profile is not None
                                       for row in stack) else None)
        rows = decode_rows([row.window.samples for row in stack], fs,
                           [row.window.start_time_s for row in stack],
                           [row.n_data_symbols for row in stack], config,
                           stage_trace=scratch)
        for r, row in enumerate(stack):
            row.rows, row.row = rows, r
        if scratch is None:
            continue
        scanned = [row for row in stack if len(row.window.samples)]
        acquired = [stack[r] for r in rows.live]
        for stage, seconds in scratch.timings_s.items():
            takers = acquired if stage in _ACQUIRED_STAGES else scanned
            for row in takers:
                if row.profile is not None:
                    row.profile.add(stage, seconds / len(takers))


@dataclass
class _Single:
    """One single receiver between its capture and its record: the
    record fields found so far and, until the stack decodes it, its
    stack row."""

    spec: ScenarioSpec
    ident: SpecIdentity
    sent: str
    fields: dict
    stack_row: _StackRow | None = None

    def record(self, elapsed_s: float,
               profile: StageTrace | None) -> RunRecord:
        fields = self.fields
        if self.stack_row is not None:
            fields = dict(fields, **_verdict(self.stack_row.rows,
                                             self.stack_row.row, self.sent))
        return make_record(spec_hash=self.ident.content_hash,
                           spec=self.ident.payload, seed=self.spec.seed,
                           sent_bits=self.sent, elapsed_s=elapsed_s,
                           stage_trace=profile, **fields)


def _single(plan: CapturePlan, codes: np.ndarray, spec: ScenarioSpec,
            ident: SpecIdentity, profile: StageTrace | None) -> _Single:
    """One captured row up to its stack decode.

    Its faults (:func:`inject_faults`) run first.  A streamed spec then
    replays its row through the streaming runtime, which finishes it;
    any other row waits for the stack, a two-phase car decoder's after
    phase 1 (a car without a long preamble is finished there).
    """
    packet = Packet.from_bitstring(spec.bits,
                                   symbol_width_m=spec.symbol_width_m)
    sent = packet.bit_string()
    n_data_symbols = 2 * len(packet.data_bits)
    trace = plan.sim.rss_trace(codes, plan.t_start)
    trace, chunks, fault_log = inject_faults(spec, trace, spec.stream_chunk,
                                             profile)
    single = _Single(spec, ident, sent, dict(
        n_samples=len(trace.samples), sample_rate_hz=trace.sample_rate_hz,
        noise_floor_lux=plan.noise_floor_lux,
        fault_events=fault_log.counts()))
    if spec.stream_chunk > 0:
        # Online replay through the streaming runtime (imported lazily,
        # like ``repro.net``, to keep engine import light).  The flush
        # verdict is byte-identical to the offline decode, so streaming
        # adds the latency telemetry, nothing else.  The runtime times
        # its own normalize/acquire/decide interior per pushed chunk.
        from ..stream.replay import replay_trace

        replay = replay_trace(trace, spec.stream_chunk,
                              n_data_symbols=n_data_symbols,
                              decoder=build_decoder(spec), chunks=chunks,
                              stage_trace=profile)
        # A returned decode call is staged by payload comparison,
        # exactly as the offline decode labels it.
        result = replay.decoder.result
        decoded = "" if result is None else result.bit_string()
        single.fields.update(
            decoded_bits=decoded,
            stage=(replay.verdict.stage if result is None
                   else outcome_stage(decoded, sent)),
            stream_chunks=replay.n_chunks,
            onset_latency_s=replay.latency("onset"),
            first_bit_latency_s=replay.latency("first_bit"),
            # Gated on decode success inside the decoder: a failed
            # decode's placeholder event time must not skew latency
            # percentiles.
            verdict_latency_s=replay.decoder.verdict_latency_s)
        return single
    try:
        single.stack_row = _stack_row(build_decoder(spec), trace,
                                      n_data_symbols, profile)
    except PreambleNotFoundError as exc:
        single.fields["stage"] = _decode_stage(exc, "", sent)
    return single


def decode_captures(plan: CapturePlan, codes: np.ndarray,
                    specs: list[ScenarioSpec], idents: list[SpecIdentity],
                    started: float, profile: StageTrace | None,
                    ) -> list[RunRecord]:
    """The decode half of an optics group's rows step: one record per
    captured row.

    Each spec serves its ``exec_sleep_s`` stall here, after its
    capture, so a group that raises and reruns through
    :func:`execute_scenario` stalls nobody twice.  A plain adaptive
    group (no signal faults, no streaming) decodes its ``(R, T)`` codes
    as they are, in one :func:`~repro.core.decoder.decode_rows` call;
    any other row takes its faults and replay first (see
    :func:`_single`), and the rows left then decode as one stack.  Rows
    share ``profile``: each record carries ``1/N`` of its timings, so
    stage totals add up as serial traces do, and all of its counters.
    """
    for spec in specs:
        _stall(spec)
    spec0, fs = specs[0], plan.sim.config.sample_rate_hz
    faults = spec0.fault_plan
    if (spec0.decoder == "adaptive" and spec0.stream_chunk == 0
            and (faults is None or not faults.signals)):
        packet = Packet.from_bitstring(spec0.bits,
                                       symbol_width_m=spec0.symbol_width_m)
        sent = packet.bit_string()
        fields = dict(n_samples=codes.shape[1], sample_rate_hz=fs,
                      noise_floor_lux=plan.noise_floor_lux)
        rows = decode_rows(codes, fs, plan.t_start, 2 * len(packet.data_bits),
                           DecoderConfig(threshold_rule=spec0.threshold_rule),
                           stage_trace=profile)
        singles = [_Single(spec, ident, sent,
                           dict(fields, **_verdict(rows, r, sent)))
                   for r, (spec, ident) in enumerate(zip(specs, idents))]
    else:
        singles = [_single(plan, row, spec, ident, profile)
                   for spec, ident, row in zip(specs, idents, codes)]
        _decode_stacks([single.stack_row for single in singles
                        if single.stack_row is not None])
    elapsed = (time.perf_counter() - started) / len(specs)
    if profile is not None and len(specs) > 1:
        profile = profile.scaled(1.0 / len(specs))
    return [single.record(elapsed, profile) for single in singles]


# ----------------------------------------------------------------------
# Networked receivers (Section 6)
# ----------------------------------------------------------------------

def node_positions(spec: ScenarioSpec) -> list[float]:
    """Ground positions of the deployed receiver nodes.

    Node 0 sits at the single-receiver position (x = 0); the rest are
    spaced downstream along the motion axis, so the object passes them
    in id order.
    """
    return [i * spec.receiver_spacing_m for i in range(spec.n_receivers)]


def node_seed(spec_seed: int, index: int) -> int:
    """Deterministic, well-separated noise seed for one receiver node.

    Hash-derived so neighbouring nodes never share noise streams and
    the mapping is stable across platforms and worker processes.
    """
    return derive_seed(f"node:{spec_seed}:{index}")


def _connect_topology(network, node_ids: list[str],
                      topology: str) -> None:
    if topology == "full":
        for i in range(len(node_ids)):
            for j in range(i + 1, len(node_ids)):
                network.connect(node_ids[i], node_ids[j])
    elif topology == "chain":
        for a, b in zip(node_ids, node_ids[1:]):
            network.connect(a, b)
    else:  # partitioned: two disjoint full meshes
        half = (len(node_ids) + 1) // 2
        for part in (node_ids[:half], node_ids[half:]):
            for i in range(len(part)):
                for j in range(i + 1, len(part)):
                    network.connect(part[i], part[j])


def build_network(spec: ScenarioSpec):
    """The :class:`repro.net.ReceiverNetwork` a spec's array describes.

    Nodes ``rx0..rxN-1`` at :func:`node_positions`, each with its own
    derived-noise-seed front end and a fresh decoder, wired per the
    spec's ``topology``.  Detections are not captured here — the
    executor records them per pass.

    ``repro.net`` (and its networkx dependency) is imported lazily to
    keep ``import repro.engine`` light and to let minimal environments
    (numpy only, networkx missing despite being declared) still run
    every single-receiver workload.
    """
    from ..net.node import ReceiverNode
    from ..net.tracker import ReceiverNetwork

    spec = spec.resolve()
    network = ReceiverNetwork()
    node_ids: list[str] = []
    for i, position in enumerate(node_positions(spec)):
        node = ReceiverNode(
            node_id=f"rx{i}",
            position_m=position,
            frontend=build_frontend(spec, seed=node_seed(spec.seed, i)),
            decoder=build_decoder(spec),
        )
        network.add_node(node)
        node_ids.append(node.node_id)
    _connect_topology(network, node_ids, spec.topology)
    return network


def _select_fused(fused_list):
    """The group representing the pass, from per-group fused verdicts.

    Most *decoded* reports first (then support, then size): a large
    all-undecoded group — e.g. failed nodes whose onset estimates
    drifted out of grouping tolerance — must not shadow a group
    holding an actual decode.
    """
    if not fused_list:
        return None
    return max(fused_list,
               key=lambda o: (o.n_decoded, o.support, o.n_reports))


def _select_track(tracks):
    """The pass's kinematic estimate: widest fit, then best residual."""
    if not tracks:
        return None
    return max(tracks, key=lambda t: (t.n_nodes, -t.residual_rms_s))


# ----------------------------------------------------------------------
# The per-scenario drivers
# ----------------------------------------------------------------------

def _execute_networked(spec: ScenarioSpec, ident: SpecIdentity,
                       started: float,
                       profile: StageTrace | None) -> RunRecord:
    """One pass over a receiver array: build, capture per node, decode
    the nodes as one stack, fuse.

    Every node captures its *own* trace of the same moving object
    (same scene, receiver shifted to the node's position, independent
    noise) and its faults, in node order; the surviving nodes' traces
    (of their own starts and lengths) then decode in one stack, and
    each node shares its detection over the connectivity graph.  The record's headline verdict is the
    network's fused one, computed from the most upstream node's
    viewpoint (``rx0``) — with a ``partitioned`` topology that is
    deliberately only rx0's island.
    """
    # The first networked spec of a process imports the network layer
    # (and networkx) here, before the build clock starts: that one-time
    # import is not scene building.
    from ..net.node import detection_from_decode

    packet = Packet.from_bitstring(spec.bits,
                                   symbol_width_m=spec.symbol_width_m)
    sent = packet.bit_string()
    n_data_symbols = 2 * len(packet.data_bits)
    plan = spec.fault_plan
    with maybe_stage(profile, ExecStage.BUILD):
        scene = build_scene(spec)
        network = build_network(spec)
    fault_log = FaultLog()
    node_rows: list[dict | None] = []
    # (node_rows slot, node, trace, stack row or None) per captured node
    captured = []
    first_trace = None
    noise_floor = 0.0
    for i, node in enumerate(network.nodes):
        # Per-node fault streams: the node roll (dropout/intermittent)
        # and the node's signal corruption draw from independent,
        # node-indexed generators, so enabling one knob never shifts
        # another node's — or another layer's — draws.
        fate = "ok"
        if plan is not None and plan.nodes:
            node_rng = fault_rng(f"node:{i}", spec.seed, plan)
            fate = node_fault_roll(plan, node_rng)
        if fate == "dropped":
            # A silent node: no capture, no detection, no report — the
            # fusion layer simply sees fewer viewpoints.
            fault_log.nodes_dropped += 1
            node_rows.append({
                "node_id": node.node_id,
                "position_m": float(node.position_m),
                "bits": "",
                "success": False,
                "confidence": 0.0,
                "timestamp_s": 0.0,
                "timestamp_source": "none",
                "stage": RecordStage.NODE_DROPPED.value,
            })
            continue
        if profile is not None:
            profile.count("nodes_observed")
        with maybe_stage(profile, ExecStage.SIMULATE):
            node_scene = dataclasses.replace(scene,
                                             receiver_x_m=node.position_m)
            sim = ChannelSimulator(
                node_scene, node.frontend,
                SimulatorConfig(sample_rate_hz=spec.sample_rate_hz,
                                include_noise=spec.include_noise,
                                seed=node.frontend.seed))
            trace = sim.capture_pass()
        with maybe_stage(profile, ExecStage.INJECT_FAULTS):
            if plan is not None and plan.signals:
                trace, sig_log = apply_signal_faults(
                    trace, plan, fault_rng(f"signal:{i}", spec.seed, plan))
                fault_log.merge(sig_log)
            if fate == "intermittent":
                fault_log.nodes_intermittent += 1
                trace = intermittent_window(trace, plan, node_rng)
        if first_trace is None:
            first_trace = trace
            noise_floor = sim.noise_floor_lux
        try:
            stack_row = _stack_row(node.decoder, trace, n_data_symbols,
                                   profile)
        except PreambleNotFoundError:
            stack_row = None
        captured.append((len(node_rows), node, trace, stack_row))
        node_rows.append(None)
    # Every captured node decodes in one stack, which times its
    # normalize/acquire/refine_clock/decide; detections are recorded
    # in node order.
    _decode_stacks([row for *_, row in captured if row is not None])
    for slot, node, trace, stack_row in captured:
        detection = detection_from_decode(
            node.node_id, node.position_m, trace,
            None if stack_row is None else stack_row.result())
        network.record(detection)
        node_rows[slot] = {
            "node_id": node.node_id,
            "position_m": float(node.position_m),
            "bits": detection.bits,
            "success": detection.bits == sent,
            "confidence": float(detection.confidence),
            "timestamp_s": float(detection.timestamp_s),
            "timestamp_source": detection.timestamp_source,
            "stage": outcome_stage(detection.bits, sent,
                                   empty=RecordStage.NO_DECODE),
        }
    with maybe_stage(profile, ExecStage.FUSE):
        query = network.nodes[0].node_id
        fused = _select_fused(network.fuse_at(query, spec.speed_mps))
        estimate = _select_track(network.track_at(query, spec.speed_mps))
        decoded = fused.bits if fused is not None else ""
        stage = outcome_stage(decoded, sent,
                              empty=RecordStage.DECODE_FAILED)
        speed_est = (float(estimate.speed_mps)
                     if estimate is not None else None)
        speed_error = (abs(speed_est - spec.speed_mps) / spec.speed_mps
                       if speed_est is not None else None)
    # Every node can be dropped by an aggressive fault plan: the pass
    # was simply never captured anywhere.
    n_samples = len(first_trace.samples) if first_trace is not None else 0
    sample_rate = (first_trace.sample_rate_hz if first_trace is not None
                   else spec.sample_rate_hz)
    return make_record(
        spec_hash=ident.content_hash,
        spec=ident.payload,
        seed=spec.seed,
        sent_bits=sent,
        decoded_bits=decoded,
        stage=stage,
        n_samples=n_samples,
        sample_rate_hz=sample_rate,
        noise_floor_lux=noise_floor,
        fault_events=fault_log.counts(),
        nodes=node_rows,
        best_node_success=any(row["success"] for row in node_rows),
        speed_est_mps=speed_est,
        speed_error=speed_error,
        elapsed_s=time.perf_counter() - started,
        stage_trace=profile,
    )


def inject_faults(spec: ScenarioSpec, trace, chunk_size: int,
                  profile: StageTrace | None = None):
    """Apply a single-receiver spec's fault plan to its captured pass.

    Signal faults corrupt the trace; with ``chunk_size > 0``, stream
    faults then corrupt its chunk transport.  The one fault path of a
    streamed spec, offline (:func:`decode_captures`) and live
    (:func:`repro.engine.run_stream`), so both see the same feed.

    Returns ``(trace, chunks, log)``: the (possibly corrupted) trace,
    the perturbed chunk list when stream faults ran (else None) and
    the :class:`~repro.faults.FaultLog`.  No plan: the trace comes
    back untouched.
    """
    log = FaultLog()
    chunks = None
    plan = spec.fault_plan
    if plan is not None and plan.signals:
        with maybe_stage(profile, ExecStage.INJECT_FAULTS):
            trace, sig_log = apply_signal_faults(
                trace, plan, fault_rng("signal", spec.seed, plan))
            log.merge(sig_log)
    if chunk_size > 0 and plan is not None and plan.streams:
        from ..stream.replay import iter_chunks

        # Corrupt the chunk transport last: the verdict then describes
        # the corrupted stream, by design.
        with maybe_stage(profile, ExecStage.INJECT_FAULTS):
            chunks, chunk_log = perturb_chunks(
                list(iter_chunks(trace.samples, chunk_size)),
                plan, fault_rng("stream", spec.seed, plan))
            log.merge(chunk_log)
    return trace, chunks, log


def execute_scenario(spec: ScenarioSpec) -> RunRecord:
    """Run one scenario end to end and record the outcome.

    A task of one (:func:`execute_scenarios`): a single receiver runs
    as one row of an uncached :class:`CapturePlan`, a receiver array
    runs :func:`_execute_networked`.  Deterministic: the resolved spec
    carries its concrete seed, so the same spec yields the same record
    no matter where or when it runs.  Telemetry attaches a per-stage
    :class:`StageTrace` without changing the record's canonical bytes.
    """
    return execute_scenarios([spec])[0]


def execute_scenarios(specs: list[ScenarioSpec]) -> list[RunRecord]:
    """Run scenarios as one task: their records, in order, each
    byte-identical to :func:`execute_scenario`'s.

    Every single receiver gets its own uncached :class:`CapturePlan`
    and capture, contained per spec (a scene that cannot be built or
    captured yields its ``simulation_failed`` record), then its stall,
    faults and, when streamed, its replay (:func:`_single`).  The rows
    left, plain or faulted adaptive rows and two-phase roof windows,
    then decode together, one stack per (sample rate, config).  A
    receiver array runs :func:`_execute_networked`, which stacks its
    own nodes.  Each record keeps its own ``build``, ``simulate`` and
    ``inject_faults`` timings and its share of the stack's.  Nothing
    enters the tensor driver's plan cache.
    """
    records: list[RunRecord | None] = []
    singles: list[tuple[int, _Single, float, StageTrace | None]] = []
    for spec in specs:
        spec = spec.resolve()
        ident = spec.identity()
        started = time.perf_counter()
        profile = new_trace()
        try:
            if spec.n_receivers > 1:
                _stall(spec)
                records.append(
                    _execute_networked(spec, ident, started, profile))
                continue
            plan = capture_plan(spec, profile)
            codes = plan.capture([spec], profile)
        except Exception as exc:
            # Contain per-scenario failures (a tag that does not fit the
            # car roof, a degenerate geometry): one bad grid point must
            # not abort a thousand-scenario batch.
            records.append(error_record(
                spec, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - started,
                RecordStage.SIMULATION_FAILED, profile))
            continue
        # Faults and decode run *outside* the containment boundary:
        # their failures are verdicts (or bugs), not per-grid-point
        # simulation hazards.
        _stall(spec)
        single = _single(plan, codes[0], spec, ident, profile)
        singles.append((len(records), single,
                        time.perf_counter() - started, profile))
        records.append(None)
    stack_rows = [single.stack_row for _, single, _, _ in singles
                  if single.stack_row is not None]
    started = time.perf_counter()
    _decode_stacks(stack_rows)
    share = (time.perf_counter() - started) / max(1, len(stack_rows))
    for slot, single, elapsed, profile in singles:
        if single.stack_row is not None:
            elapsed += share
        records[slot] = single.record(elapsed, profile)
    return records  # type: ignore[return-value]


def error_record(spec: ScenarioSpec, message: str, elapsed_s: float = 0.0,
                 stage: RecordStage = RecordStage.EXECUTOR_ERROR,
                 stage_trace: StageTrace | None = None) -> RunRecord:
    """A record for a scenario that produced no decode outcome.

    :func:`execute_scenario` stamps ``simulation_failed`` ones for a
    scene that cannot be built or captured.  The batch runner stamps
    ``executor_error`` ones when it has to give up on a scenario — a
    per-scenario timeout fired, or a worker crash outlived every
    retry — so the batch stays complete (one record per spec) without
    pretending the pipeline produced an outcome.  ``executor_error``
    records are never written to the result cache.
    """
    spec = spec.resolve()
    ident = spec.identity()
    packet = Packet.from_bitstring(spec.bits,
                                   symbol_width_m=spec.symbol_width_m)
    return make_record(
        spec_hash=ident.content_hash,
        spec=ident.payload,
        seed=spec.seed,
        sent_bits=packet.bit_string(),
        stage=stage,
        sample_rate_hz=spec.sample_rate_hz,
        error=message,
        elapsed_s=elapsed_s,
        stage_trace=stage_trace,
    )
