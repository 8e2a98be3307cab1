"""One reproduction function per paper figure/table.

Every experiment returns an :class:`ExperimentResult` holding the
measured series, the paper's claim, and a shape-level pass verdict.
Benchmarks call these functions and print the paper-vs-measured rows;
the golden baselines in ``tests/baselines/`` pin their measured output.

Every scene is a :class:`~repro.engine.ScenarioSpec`.  Its parameters
follow the paper exactly where stated (heights, symbol widths, speeds,
noise floors, sampling rate); unstated constants (lamp intensity, sun
elevation) are the spec defaults and those of the source models in
:mod:`repro.optics.sources`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..channel.mobility import ConstantSpeed
from ..channel.scene import MovingObject
from ..channel.simulator import ChannelSimulator
from ..channel.trace import SignalTrace
from ..core.capacity import IndoorSetup
from ..core.classifier import DtwClassifier
from ..core.collision import CollisionAnalyzer
from ..core.decoder import AdaptiveThresholdDecoder
from ..core.errors import DecodeError, PreambleNotFoundError
from ..core.receiver_select import DualReceiverController
from ..engine import BatchRunner, ScenarioSpec, expand_grid, success_rate_by
from ..engine.executor import build_scene, build_simulator, capture_trace
from ..hardware.led_receiver import LedReceiver
from ..hardware.photodiode import PdGain, Photodiode, normalized_sensitivity
from ..tags.packet import Packet
from ..tags.surface import TagSurface
from ..vehicles.profiles import bmw_3_series, volvo_v40
from ..vehicles.signature import extract_signature, match_car
from .metrics import fit_exponential, fit_linear
from .sweeps import sweep_frontier, sweep_throughput

__all__ = [
    "ExperimentResult",
    "experiment_fig5",
    "experiment_fig6a",
    "experiment_fig6b",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_fig10",
    "experiment_fig11",
    "experiment_fig13",
    "experiment_fig14",
    "experiment_fig15",
    "experiment_fig16",
    "experiment_fig17",
]

#: Outdoor car speed used throughout Section 5 (18 km/h).
CAR_SPEED_MPS = 5.0

#: Outdoor symbol width (Section 5).
CAR_SYMBOL_WIDTH_M = 0.1

#: Outdoor ADC sampling rate (Section 5).
OUTDOOR_SAMPLE_RATE_HZ = 2_000.0


@dataclass
class ExperimentResult:
    """Outcome of reproducing one figure or table.

    Attributes:
        experiment_id: e.g. ``"fig6a"``.
        title: short description.
        paper_claim: what the paper reports (shape-level).
        measured: the reproduction's key numbers.
        passed: whether the shape-level claim holds.
        series: raw data series for inspection/plotting.
        notes: calibration caveats and substitutions.
    """

    experiment_id: str
    title: str
    paper_claim: str
    measured: dict[str, Any]
    passed: bool
    series: dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def report(self) -> str:
        """Multi-line paper-vs-measured report."""
        lines = [
            f"[{self.experiment_id}] {self.title}",
            f"  paper:    {self.paper_claim}",
            "  measured:",
        ]
        for key, value in self.measured.items():
            lines.append(f"    {key}: {value}")
        lines.append(f"  verdict:  {'PASS' if self.passed else 'FAIL'}")
        if self.notes:
            lines.append(f"  notes:    {self.notes}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared scene specs
# ----------------------------------------------------------------------

def dark_room_spec(bits: str, seed: int, **fields: Any) -> ScenarioSpec:
    """Engine spec for one dark-room pass (Sections 4.1-4.3 setup).

    3 cm symbols under the LED lamp at h = 0.2 m, 8 cm/s, sampled at
    500 S/s by the capped OPT101 (G1); ``fields`` override any of it.
    """
    return ScenarioSpec(bits=bits, symbol_width_m=0.03,
                        receiver_height_m=0.2, speed_mps=0.08,
                        sample_rate_hz=500.0, seed=seed).replace(**fields)


def _capture_with_objects(spec: ScenarioSpec,
                          objects: list[MovingObject]) -> SignalTrace:
    """Capture ``spec``'s pass with the scene's objects swapped out.

    For scenes no spec field expresses (Fig. 10's two tags sharing the
    FoV, Figs. 13-14's untagged car): source, receiver, sampling and
    noise all come from the spec.
    """
    sim = build_simulator(spec)
    scene = dataclasses.replace(sim.scene, objects=objects)
    return ChannelSimulator(scene, sim.frontend, sim.config).capture_pass()


def _decode_ok(trace: SignalTrace, bits: str,
               decoder: AdaptiveThresholdDecoder | None = None) -> bool:
    decoder = decoder or AdaptiveThresholdDecoder()
    try:
        result = decoder.decode(trace, n_data_symbols=2 * len(bits))
    except (PreambleNotFoundError, DecodeError):
        return False
    return result.bit_string() == bits


def outdoor_tag_spec(bits: str, noise_floor_lux: float,
                     height_m: float) -> ScenarioSpec:
    """Engine spec for a bare tag passing outdoors under the RX-LED.

    A sun-lit tarmac scene, an 18 km/h pass from -1.5 m, sampled at
    2 kS/s and decoded by the adaptive decoder.
    """
    return ScenarioSpec(
        bits=bits,
        symbol_width_m=CAR_SYMBOL_WIDTH_M,
        receiver_height_m=height_m,
        speed_mps=CAR_SPEED_MPS,
        source="sun",
        ground_lux=noise_floor_lux,
        detector="led",
        cap=False,
        ground="tarmac",
        start_position_m=-1.5,
        sample_rate_hz=OUTDOOR_SAMPLE_RATE_HZ,
    )


def outdoor_car_spec(bits: str, noise_floor_lux: float, height_m: float,
                     car: str = "volvo_v40") -> ScenarioSpec:
    """Engine spec for a tagged car decoded with the two-phase decoder
    (:class:`~repro.vehicles.rooftag.TwoPhaseDecoder`)."""
    return outdoor_tag_spec(bits, noise_floor_lux, height_m).replace(
        car=car, decoder="two_phase")


# ----------------------------------------------------------------------
# Section 4.1 — Figs. 5, 6(a), 6(b)
# ----------------------------------------------------------------------

def experiment_fig5(seed: int = 7) -> ExperimentResult:
    """Fig. 5: clean decode of codes '00' and '10' in the ideal scenario."""
    results: dict[str, Any] = {}
    traces: dict[str, SignalTrace] = {}
    ok_all = True
    for bits in ("00", "10"):
        trace = capture_trace(dark_room_spec(bits, seed))
        ok = _decode_ok(trace, bits)
        results[f"code_{bits}_decoded"] = ok
        traces[bits] = trace.normalized()
        ok_all = ok_all and ok
    return ExperimentResult(
        experiment_id="fig5",
        title="Ideal-scenario decoding (LED lamp, dark room, 3 cm symbols, "
              "h = 20 cm, 8 cm/s)",
        paper_claim="Both packets ('00' -> HLHL, '10' -> LHHL) are cleanly "
                    "decodable with the adaptive thresholds",
        measured=results,
        passed=ok_all,
        series={"normalized_traces": traces},
    )


def experiment_fig6a(quick: bool = True) -> ExperimentResult:
    """Fig. 6(a): max decodable height grows ~linearly with symbol width."""
    setup = IndoorSetup(seeds=(11, 23) if quick else (11, 23, 47))
    widths = (np.array([0.04, 0.06, 0.08, 0.10]) if quick
              else np.array([0.035, 0.05, 0.065, 0.08, 0.095, 0.11]))
    frontier = sweep_frontier(setup, widths,
                              tolerance_m=0.03 if quick else 0.015)
    if len(frontier) < 3:
        return ExperimentResult(
            experiment_id="fig6a",
            title="Maximal height vs symbol width",
            paper_claim="Linear decodable-region boundary",
            measured={"frontier_points": frontier},
            passed=False,
            notes="too few decodable widths to fit a line")
    ws = np.array([w for w, _ in frontier])
    hs = np.array([h for _, h in frontier])
    fit = fit_linear(ws, hs)
    passed = fit.slope > 0.0 and fit.r_squared >= 0.85
    return ExperimentResult(
        experiment_id="fig6a",
        title="Maximal decodable height vs symbol width (8 cm/s)",
        paper_claim="A decodable region bounded by a linear relationship "
                    "between maximal height and symbol width "
                    "(1.5-7.5 cm -> ~0.2-0.5 m)",
        measured={
            "frontier": [(round(w, 3), round(h, 3)) for w, h in frontier],
            "linear_slope_m_per_m": round(fit.slope, 2),
            "r_squared": round(fit.r_squared, 3),
        },
        passed=passed,
        series={"widths_m": ws.tolist(), "max_heights_m": hs.tolist()},
        notes="absolute frontier sits at slightly wider symbols than the "
              "paper's (capped-PD acceptance is wider than their optics); "
              "the linear shape is the reproduced claim",
    )


def experiment_fig6b(quick: bool = True) -> ExperimentResult:
    """Fig. 6(b): throughput decays steeply (~exponentially) with height."""
    setup = IndoorSetup(seeds=(11, 23) if quick else (11, 23, 47))
    heights = (np.array([0.2, 0.3, 0.4, 0.5]) if quick
               else np.array([0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]))
    curve = sweep_throughput(setup, heights,
                             tolerance_m=0.004 if quick else 0.002)
    if len(curve) < 3:
        return ExperimentResult(
            experiment_id="fig6b",
            title="Throughput vs height",
            paper_claim="Exponential decay",
            measured={"curve_points": curve},
            passed=False,
            notes="too few decodable heights")
    hs = np.array([h for h, _ in curve])
    ts = np.array([t for _, t in curve])
    exp_fit = fit_exponential(hs, ts)
    decay_ratio = float(ts[0] / ts[-1]) if ts[-1] > 0 else float("inf")
    monotone = bool(np.all(np.diff(ts) <= 1e-9))
    passed = monotone and exp_fit.rate < 0.0 and decay_ratio >= 1.8
    return ExperimentResult(
        experiment_id="fig6b",
        title="Throughput (symbols/s) vs receiver height (8 cm/s)",
        paper_claim="Channel capacity decreases ~exponentially with height "
                    "(~9 -> ~1 symbols/s over 0.2 -> 0.5 m)",
        measured={
            "curve": [(round(h, 3), round(t, 2)) for h, t in curve],
            "exp_rate_per_m": round(exp_fit.rate, 2),
            "exp_fit_r_squared": round(exp_fit.r_squared, 3),
            "decay_ratio_first_to_last": round(decay_ratio, 2),
        },
        passed=passed,
        series={"heights_m": hs.tolist(), "throughput_sps": ts.tolist()},
        notes="decay factor is smaller than the paper's ~9x because the "
              "simulated receiver is blur-limited over most of the range; "
              "monotone steep decay is the reproduced claim",
    )


# ----------------------------------------------------------------------
# Section 4.1 — Fig. 7 (other light sources)
# ----------------------------------------------------------------------

def experiment_fig7(seed: int = 5) -> ExperimentResult:
    """Fig. 7: decoding still works under AC-driven ceiling lights."""
    spec = dark_room_spec("00", seed, source="fluorescent",
                          ground_lux=300.0, pd_gain="G2",
                          start_position_m=-0.3, sample_rate_hz=2000.0)
    trace = capture_trace(spec)
    decoded = _decode_ok(trace, "00")

    # Reference: the dark-room equivalent for ripple/noise-floor compare.
    clean_trace = capture_trace(dark_room_spec("00", seed,
                                               sample_rate_hz=2000.0))

    def ac_ripple_share(t: SignalTrace) -> float:
        """Spectral energy near 100 Hz relative to the symbol band."""
        from ..dsp.spectrum import power_spectrum

        spec = power_spectrum(t.samples, t.sample_rate_hz,
                              detrend_window_s=None)
        ac = spec.band(90.0, 110.0)
        symbol = spec.band(0.5, 10.0)
        denom = float(np.sum(symbol.power**2))
        if denom == 0.0:
            return 0.0
        return float(np.sum(ac.power**2)) / denom

    def modulation_index(t: SignalTrace) -> float:
        """H/L swing relative to the mean level (gap vs noise floor)."""
        mean = t.mean()
        return t.swing() / mean if mean > 0.0 else float("inf")

    ripple_fluor = ac_ripple_share(trace)
    ripple_dark = ac_ripple_share(clean_trace)
    noise_floor = build_scene(spec).nominal_noise_floor_lux()
    mod_fluor = modulation_index(trace)
    mod_dark = modulation_index(clean_trace)
    passed = (decoded
              and ripple_fluor > 10.0 * max(ripple_dark, 1e-12)
              and noise_floor > 100.0
              and mod_fluor < mod_dark)
    return ExperimentResult(
        experiment_id="fig7",
        title="Decoding under ceiling fluorescent light (2.3 m luminaire, "
              "h = 20 cm receiver)",
        paper_claim="Still decodable; higher noise floor, smaller H/L gap, "
                    "'thicker lines' from the AC power supply",
        measured={
            "decoded": decoded,
            "noise_floor_lux": round(noise_floor, 1),
            "ac_100hz_ripple_share": round(ripple_fluor, 5),
            "dark_room_ripple_share": round(ripple_dark, 7),
            "modulation_index": round(mod_fluor, 3),
            "dark_room_modulation_index": round(mod_dark, 3),
        },
        passed=passed,
        series={"normalized_trace": trace.normalized()},
    )


# ----------------------------------------------------------------------
# Section 4.2 — Fig. 8 (variable speed + DTW)
# ----------------------------------------------------------------------

def experiment_fig8(seed: int = 9) -> ExperimentResult:
    """Fig. 8: speed doubling breaks decoding; DTW classifies correctly."""
    clean00 = capture_trace(dark_room_spec("00", 6))
    clean10 = capture_trace(dark_room_spec("10", 6))
    distorted = capture_trace(dark_room_spec(
        "10", seed, motion="speed_doubling", start_position_m=-0.3))

    decoder = AdaptiveThresholdDecoder()
    threshold_bits = ""
    threshold_symbols = ""
    try:
        res = decoder.decode(distorted, n_data_symbols=4)
        threshold_bits = res.bit_string()
        threshold_symbols = res.symbol_string()
    except (PreambleNotFoundError, DecodeError):
        pass
    threshold_fails = threshold_bits != "10"

    classifier = DtwClassifier()
    classifier.add_template("00", clean00)
    classifier.add_template("10", clean10)
    outcome = classifier.classify(distorted)
    d_wrong = outcome.distances["00"]
    d_correct = outcome.distances["10"]
    self_distance = classifier.distance_to(
        [t for t in classifier.templates if t.label == "10"][0], clean10)

    passed = (threshold_fails and outcome.label == "10"
              and d_correct < d_wrong)
    return ExperimentResult(
        experiment_id="fig8",
        title="Variable speed distortion (speed doubles mid-packet) + DTW",
        paper_claim="Threshold decoder outputs a wrong sequence "
                    "('HLHL.HL' instead of 'HLHL.LHHL'); DTW distances "
                    "326 (wrong '00') vs 172 (correct '10'), self 131 — "
                    "the distorted packet classifies as '10'",
        measured={
            "threshold_decode_symbols": threshold_symbols or "(acquisition failed)",
            "threshold_decode_wrong": threshold_fails,
            "dtw_distance_to_00": round(d_wrong, 1),
            "dtw_distance_to_10": round(d_correct, 1),
            "self_distance_10": round(self_distance, 1),
            "classified_as": outcome.label,
        },
        passed=passed,
        series={"distorted_trace": distorted.normalized()},
        notes="absolute DTW distances depend on sampling/normalisation; "
              "the reproduced claim is the ordering "
              "d(correct) < d(wrong) and the correct classification",
    )


# ----------------------------------------------------------------------
# Section 4.3 — Fig. 10 (collisions)
# ----------------------------------------------------------------------

def _collision_capture(share_low: float, share_high: float,
                       seed: int = 11) -> SignalTrace:
    """Two packets at 16 cm/s splitting the dark-room receiver's FoV."""
    low = TagSurface.from_packet(
        Packet.from_bitstring("00", symbol_width_m=0.08), label="low-freq")
    high = TagSurface.from_packet(
        Packet.from_bitstring("000000", symbol_width_m=0.04),
        label="high-freq")
    return _capture_with_objects(dark_room_spec("00", seed), [
        MovingObject(low, ConstantSpeed(0.16, -0.3), "low",
                     fov_share=share_low),
        MovingObject(high, ConstantSpeed(0.16, -0.3), "high",
                     fov_share=share_high)])


def experiment_fig10(seed: int = 11) -> ExperimentResult:
    """Fig. 10: packet collisions in time and frequency domain."""
    analyzer = CollisionAnalyzer(min_separation_hz=0.7,
                                 min_relative_height=0.3)
    decoder = AdaptiveThresholdDecoder()
    measured: dict[str, Any] = {}
    series: dict[str, Any] = {}

    # Case 1: low-frequency packet dominates.
    trace1 = _collision_capture(0.85, 0.15, seed)
    case1_ok = _decode_ok(trace1, "00", decoder)
    freqs1 = analyzer.spectrum_peaks(trace1)
    measured["case1_decodes_dominant"] = case1_ok
    measured["case1_peak_frequencies_hz"] = [round(f, 2) for f in freqs1]

    # Case 2: high-frequency packet dominates.
    trace2 = _collision_capture(0.15, 0.85, seed)
    case2_ok = _decode_ok(trace2, "000000", decoder)
    freqs2 = analyzer.spectrum_peaks(trace2)
    measured["case2_decodes_dominant"] = case2_ok
    measured["case2_peak_frequencies_hz"] = [round(f, 2) for f in freqs2]

    # Case 3: equal shares — undecodable, two spectral components.
    trace3 = _collision_capture(0.5, 0.5, seed)
    case3_low = _decode_ok(trace3, "00", decoder)
    case3_high = _decode_ok(trace3, "000000", decoder)
    freqs3 = analyzer.spectrum_peaks(trace3)
    measured["case3_decodes_either"] = case3_low or case3_high
    measured["case3_peak_frequencies_hz"] = [round(f, 2) for f in freqs3]

    series["traces"] = {"case1": trace1.normalized(),
                        "case2": trace2.normalized(),
                        "case3": trace3.normalized()}

    f_low_expected = 0.16 / (2 * 0.08)   # 1.0 Hz
    f_high_expected = 0.16 / (2 * 0.04)  # 2.0 Hz
    case1_freq_ok = (len(freqs1) >= 1
                     and abs(freqs1[0] - f_low_expected) < 0.3)
    case2_freq_ok = (len(freqs2) >= 1
                     and abs(freqs2[0] - f_high_expected) < 0.3)
    case3_freq_ok = (len(freqs3) >= 2
                     and any(abs(f - f_low_expected) < 0.3 for f in freqs3)
                     and any(abs(f - f_high_expected) < 0.3 for f in freqs3))
    passed = (case1_ok and case2_ok
              and not (case3_low or case3_high)
              and case1_freq_ok and case2_freq_ok and case3_freq_ok)
    return ExperimentResult(
        experiment_id="fig10",
        title="Two overlapping packets sharing the FoV",
        paper_claim="Cases 1-2 (one packet dominates): time-domain "
                    "decodable, single dominant FFT peak.  Case 3 (equal "
                    "share): undecodable, but the FFT reveals two distinct "
                    "components",
        measured=measured,
        passed=passed,
        series=series,
    )


# ----------------------------------------------------------------------
# Section 4.4 — Fig. 11 (receiver table)
# ----------------------------------------------------------------------

def experiment_fig11() -> ExperimentResult:
    """Fig. 11: saturation and sensitivity of the four receiver configs."""
    paper_table = {
        "PD-G1": (450.0, 1.0),
        "PD-G2": (1200.0, 0.45),
        "PD-G3": (5000.0, 0.089),
        "RX-LED": (35000.0, 0.013),
    }
    detectors = {
        "PD-G1": Photodiode.opt101(gain=PdGain.G1),
        "PD-G2": Photodiode.opt101(gain=PdGain.G2),
        "PD-G3": Photodiode.opt101(gain=PdGain.G3),
        "RX-LED": LedReceiver.red_5mm(),
    }
    measured: dict[str, Any] = {}
    passed = True
    for name, det in detectors.items():
        paper_sat, paper_sens = paper_table[name]
        # Measure the saturation onset from the static transfer curve.
        lux = np.linspace(0.0, 1.3 * paper_sat, 4001)
        response = det.respond(lux)
        railed = lux[response >= 1.0 - 1e-9]
        measured_sat = float(railed[0]) if len(railed) else float("inf")
        # Measure the small-signal sensitivity from the slope.
        measured_sens = normalized_sensitivity(det)
        sat_err = abs(measured_sat - paper_sat) / paper_sat
        sens_err = abs(measured_sens - paper_sens) / paper_sens
        measured[name] = {
            "saturation_lux": round(measured_sat, 1),
            "paper_saturation_lux": paper_sat,
            "relative_sensitivity": round(measured_sens, 4),
            "paper_relative_sensitivity": paper_sens,
        }
        # Sensitivity tolerance is generous: the paper's own column is
        # only approximately inverse to saturation (0.45 vs 0.375).
        passed = passed and sat_err < 0.02 and sens_err < 0.25
    # Behavioural check: the Section 4.4 selection policy.
    controller = DualReceiverController()
    selection = controller.selection_table([100.0, 450.0, 2000.0, 10_000.0])
    measured["selection_policy"] = selection
    policy_ok = (selection[0][1] == "PD-G1"
                 and selection[-1][1] == "RX-LED")
    passed = passed and policy_ok
    return ExperimentResult(
        experiment_id="fig11",
        title="Supported noise floor and sensitivity of PD (G1-G3) and "
              "RX-LED",
        paper_claim="Saturation 450 / 1200 / 5000 / 35000 lux; sensitivity "
                    "1 / 0.45 / 0.089 / 0.013 (normalised to PD-G1); a "
                    "dual receiver selects the component matching the "
                    "ambient conditions",
        measured=measured,
        passed=passed,
        notes="sensitivity follows 450/saturation by construction; the "
              "paper's measured 0.45 vs model 0.375 for G2 is within the "
              "tolerance band",
    )


# ----------------------------------------------------------------------
# Section 5.1 — Figs. 13-14 (car signatures)
# ----------------------------------------------------------------------

def _signature_experiment(car, fig_id: str, expected_pattern: str,
                          seed: int = 3) -> ExperimentResult:
    spec = outdoor_tag_spec("00", 5000.0, 0.75).replace(seed=seed)
    trace = _capture_with_objects(
        spec, [MovingObject(car, ConstantSpeed(CAR_SPEED_MPS, -1.5),
                            car.model)])
    signature = extract_signature(trace)
    matched = match_car(signature, [volvo_v40(), bmw_3_series()])
    passed = (signature.pattern == expected_pattern
              and matched is not None and matched.model == car.model)
    return ExperimentResult(
        experiment_id=fig_id,
        title=f"Optical signature of the {car.model} (bare car, RX-LED, "
              "18 km/h)",
        paper_claim="Metal panels (hood/roof/trunk) produce peaks, "
                    "windshields produce valleys; the waveform identifies "
                    "the car design",
        measured={
            "pattern": signature.pattern,
            "expected_pattern": expected_pattern,
            "matched_model": matched.model if matched else None,
            "n_peaks": signature.n_peaks(),
            "n_valleys": signature.n_valleys(),
        },
        passed=passed,
        series={"normalized_trace": trace.normalized()},
    )


def experiment_fig13(seed: int = 3) -> ExperimentResult:
    """Fig. 13: Volvo V40 signature — hood A, windshield B, roof C,
    rear window D (the short tailgate lip adds Fig. 13's small rise at
    the very tail)."""
    return _signature_experiment(volvo_v40(), "fig13", "PVPVP", seed=seed)


def experiment_fig14(seed: int = 3) -> ExperimentResult:
    """Fig. 14: BMW 3 signature — adds the trunk peak E."""
    return _signature_experiment(bmw_3_series(), "fig14", "PVPVP", seed=seed)


# ----------------------------------------------------------------------
# Section 5.2 — Figs. 15-16 (mild illumination)
# ----------------------------------------------------------------------

def experiment_fig15(seeds=(2, 3, 4, 5, 6),
                     runner: BatchRunner | None = None) -> ExperimentResult:
    """Fig. 15: RX-LED at h = 25 cm works at 450 lux, fails at 100 lux."""
    runner = runner or BatchRunner()
    specs = expand_grid(outdoor_tag_spec("00", 450.0, 0.25),
                        {"ground_lux": [450.0, 100.0],
                         "seed": list(seeds)})
    rates = success_rate_by(runner.run(specs).records, "ground_lux")
    rate_450, rate_100 = rates[450.0], rates[100.0]
    passed = rate_450 >= 0.6 and rate_100 <= 0.2
    return ExperimentResult(
        experiment_id="fig15",
        title="RX-LED under mild illumination (car tag, 18 km/h, "
              "h = 25 cm, code HLHL.HLHL)",
        paper_claim="Decodable at a 450 lux noise floor; not decodable at "
                    "100 lux (too little ambient light to modulate)",
        measured={
            "decode_rate_at_450lux": rate_450,
            "decode_rate_at_100lux": rate_100,
        },
        passed=passed,
    )


def experiment_fig16(seeds=(2, 3, 4, 5, 6),
                     runner: BatchRunner | None = None) -> ExperimentResult:
    """Fig. 16: PD(G2) at 100 lux fails bare, works with the FoV cap."""
    runner = runner or BatchRunner()
    template = outdoor_car_spec("00", 100.0, 0.25).replace(
        detector="pd", pd_gain="G2")
    specs = expand_grid(template, {"cap": [False, True],
                                   "seed": list(seeds)})
    rates = success_rate_by(runner.run(specs).records, "cap")
    rate_nocap, rate_cap = rates[False], rates[True]
    passed = rate_nocap <= 0.2 and rate_cap >= 0.6
    return ExperimentResult(
        experiment_id="fig16",
        title="PD (G2) at a 100 lux noise floor, with and without the "
              "1.2x1.2x2.8 cm FoV cap (tagged car, h = 25 cm)",
        paper_claim="Without the cap the car's metal roof interferes and "
                    "the code is not decodable; narrowing the FoV with the "
                    "cap filters the interference and decoding succeeds "
                    "despite the RSS drop",
        measured={
            "decode_rate_without_cap": rate_nocap,
            "decode_rate_with_cap": rate_cap,
        },
        passed=passed,
    )


# ----------------------------------------------------------------------
# Section 5.3 — Fig. 17 (well illuminated)
# ----------------------------------------------------------------------

def experiment_fig17(seeds=(2, 3, 4, 5, 6),
                     runner: BatchRunner | None = None) -> ExperimentResult:
    """Fig. 17: RX-LED outdoors — three decodable configurations."""
    runner = runner or BatchRunner()
    configs = {
        "a_6200lux_h75cm_code00": (6200.0, 0.75, "00"),
        "b_3700lux_h100cm_code00": (3700.0, 1.00, "00"),
        "c_5500lux_h100cm_code10": (5500.0, 1.00, "10"),
    }
    # One flat batch across all configurations and seeds: the engine
    # runs (and caches) the 15 passes together instead of 15 serial
    # simulator builds.
    specs = [outdoor_car_spec(bits, lux, height).replace(seed=seed)
             for (lux, height, bits) in configs.values()
             for seed in seeds]
    records = runner.run(specs).records
    measured: dict[str, Any] = {}
    rates: dict[str, float] = {}
    for k, label in enumerate(configs):
        batch = records[k * len(seeds):(k + 1) * len(seeds)]
        rates[label] = sum(r.success for r in batch) / len(seeds)
        measured[f"decode_rate_{label}"] = rates[label]
    symbol_rate = CAR_SPEED_MPS / CAR_SYMBOL_WIDTH_M
    measured["throughput_sps"] = symbol_rate
    passed = (all(r >= 0.6 for r in rates.values())
              and abs(symbol_rate - 50.0) < 1e-9)
    return ExperimentResult(
        experiment_id="fig17",
        title="RX-LED outdoors, car at 18 km/h (well-illuminated)",
        paper_claim="All three configurations decodable (6200 lux / 75 cm; "
                    "3700 lux / 100 cm; 5500 lux / 100 cm with code "
                    "HLHL.LHHL); achieved throughput ~50 symbols/s",
        measured=measured,
        passed=passed,
    )
