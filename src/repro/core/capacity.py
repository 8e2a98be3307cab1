"""Channel capacity analysis (Section 4.1 and Fig. 6).

The paper's designer-facing questions:

* "What symbol width should the designer use on objects to be able to
  decode information?"  -> :func:`max_decodable_height` /
  :func:`min_decodable_width` map the decodable region of Fig. 6(a).
* "And given this symbol width, what channel capacity can the designer
  expect?" -> :func:`throughput_symbols_per_second` reproduces the
  Fig. 6(b) curve (throughput = speed / narrowest decodable width).

Probes run the full simulation stack — scene, optics, receiver, decoder
— on the paper's indoor setup: LED lamp and receiver at equal heights,
12 cm apart, dark room, objects at 8 cm/s, with decodability decided by
majority vote over noise seeds.  :func:`probe_spec` is the one
description of a probe: each probe runs its seeds as one
:class:`~repro.engine.BatchRunner` batch.

Also here: the "maximal supported speed of an object" analysis promised
in Section 6 — bounded by the detector's response time and the
receiver's sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import BatchRunner, ScenarioSpec
from ..hardware.photodiode import PdGain

__all__ = ["IndoorSetup", "probe_spec", "probe_decodable",
           "min_decodable_width", "max_decodable_height",
           "throughput_symbols_per_second", "max_supported_speed_mps"]


@dataclass(frozen=True)
class IndoorSetup:
    """The controlled dark-room configuration of Sections 4.1-4.3.

    Attributes:
        lamp_intensity_cd: the LED lamp's on-axis intensity.
        lamp_offset_m: horizontal lamp-receiver distance (12 cm in the
            paper's Fig. 5 setup).
        speed_mps: object speed (8 cm/s in the Fig. 6 experiments).
        data_bits: payload used by the decodability probes.
        pd_gain: photodiode gain (G1: dark room, maximum sensitivity).
        seeds: noise seeds for the majority vote.
        threshold_rule: decoder thresholding variant.
    """

    lamp_intensity_cd: float = 2.0
    lamp_offset_m: float = 0.12
    speed_mps: float = 0.08
    data_bits: str = "10"
    pd_gain: PdGain = PdGain.G1
    seeds: tuple[int, ...] = (11, 23, 47)
    threshold_rule: str = "midpoint"

    def sample_rate_hz(self, symbol_width_m: float,
                       speed_mps: float | None = None) -> float:
        """A rate giving ~40 samples per symbol, clamped to [200, 2000].

        Kept apart from the spec's auto rate: ``40 / (w / v)`` and
        ``40 * v / w`` differ in the last bit for many widths, which
        would move the Fig. 6 bisections.
        """
        speed = speed_mps if speed_mps is not None else self.speed_mps
        symbol_duration = symbol_width_m / speed
        return float(np.clip(40.0 / symbol_duration, 200.0, 2000.0))


def probe_spec(setup: IndoorSetup, height_m: float, symbol_width_m: float,
               seed: int, speed_mps: float | None = None) -> ScenarioSpec:
    """The engine spec of one dark-room decodability probe.

    The capped OPT101 under the LED lamp, which rides at the receiver's
    height; the tag starts upstream (the spec's auto start) so the
    capture window sees quiet ground first.

    Raises:
        ValueError: for a non-positive height or symbol width.
    """
    speed = speed_mps if speed_mps is not None else setup.speed_mps
    spec = ScenarioSpec(
        bits=setup.data_bits,
        symbol_width_m=symbol_width_m,
        receiver_height_m=height_m,
        speed_mps=speed,
        source="led_lamp",
        lamp_intensity_cd=setup.lamp_intensity_cd,
        lamp_offset_m=setup.lamp_offset_m,
        detector="pd",
        pd_gain=setup.pd_gain.name,
        cap=True,
        threshold_rule=setup.threshold_rule,
        seed=seed,
    )
    # The spec validates the geometry first: a zero width is a
    # ValueError, not a division by zero in the rate.
    return spec.replace(
        sample_rate_hz=setup.sample_rate_hz(symbol_width_m, speed))


def probe_decodable(setup: IndoorSetup, height_m: float,
                    symbol_width_m: float,
                    speed_mps: float | None = None) -> bool:
    """Whether a (height, width) point decodes correctly.

    Majority vote across the setup's noise seeds: a point counts as
    decodable when more than half of the simulated passes recover the
    exact payload.  The seeds differ only in noise, so the tensor
    backend computes the probe's optics once for all of them.
    """
    specs = [probe_spec(setup, height_m, symbol_width_m, seed, speed_mps)
             for seed in setup.seeds]
    records = BatchRunner(backend="tensor").run(specs).records
    return sum(r.success for r in records) * 2 > len(setup.seeds)


def min_decodable_width(setup: IndoorSetup, height_m: float,
                        width_lo_m: float = 0.005,
                        width_hi_m: float = 0.12,
                        tolerance_m: float = 0.002) -> float | None:
    """Narrowest decodable symbol width at a height (bisection).

    Returns None when even the widest probe fails (the height is beyond
    the channel's reach — the flat ceiling of Fig. 6(a)).
    """
    if not probe_decodable(setup, height_m, width_hi_m):
        return None
    if probe_decodable(setup, height_m, width_lo_m):
        return width_lo_m
    lo, hi = width_lo_m, width_hi_m
    while hi - lo > tolerance_m:
        mid = (lo + hi) / 2.0
        if probe_decodable(setup, height_m, mid):
            hi = mid
        else:
            lo = mid
    return hi


def max_decodable_height(setup: IndoorSetup, symbol_width_m: float,
                         height_lo_m: float = 0.18,
                         height_hi_m: float = 1.0,
                         tolerance_m: float = 0.01) -> float | None:
    """Greatest decodable receiver height for a symbol width (bisection).

    Returns None when even the lowest probe height fails.
    """
    if not probe_decodable(setup, height_lo_m, symbol_width_m):
        return None
    if probe_decodable(setup, height_hi_m, symbol_width_m):
        return height_hi_m
    lo, hi = height_lo_m, height_hi_m
    while hi - lo > tolerance_m:
        mid = (lo + hi) / 2.0
        if probe_decodable(setup, mid, symbol_width_m):
            lo = mid
        else:
            hi = mid
    return lo


def throughput_symbols_per_second(setup: IndoorSetup, height_m: float,
                                  **width_search_kwargs) -> float | None:
    """Channel throughput at a height (Fig. 6(b)).

    "Using a constant speed of 8 cm/s, we have identified the narrowest
    symbol width that makes the packet decodable" — throughput is then
    ``speed / width`` in symbols per second.
    """
    width = min_decodable_width(setup, height_m, **width_search_kwargs)
    if width is None:
        return None
    return setup.speed_mps / width


def max_supported_speed_mps(symbol_width_m: float,
                            detector_bandwidth_hz: float,
                            sample_rate_hz: float,
                            samples_per_symbol: int = 6,
                            bandwidth_margin: float = 3.0) -> float:
    """Maximal object speed the receiver chain can follow (Section 6).

    "This is mainly determined by the PD's response time to light
    changes and the receiver's sampling rate."  Two ceilings apply:

    * sampling: the ADC must place ``samples_per_symbol`` samples on
      each symbol -> ``v <= w * fs / samples_per_symbol``;
    * response time: the detector's first-order response must settle
      within a symbol -> symbol rate at most ``bandwidth / margin``
      -> ``v <= w * bandwidth / margin``.

    Args:
        symbol_width_m: physical symbol width on the object.
        detector_bandwidth_hz: detector -3 dB bandwidth.
        sample_rate_hz: ADC sampling rate.
        samples_per_symbol: minimum samples the decoder needs per
            symbol window.
        bandwidth_margin: settle factor (3 time-constants ~ 95 %).
    """
    if symbol_width_m <= 0.0:
        raise ValueError("symbol width must be positive")
    if detector_bandwidth_hz <= 0.0 or sample_rate_hz <= 0.0:
        raise ValueError("bandwidth and sample rate must be positive")
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    if bandwidth_margin <= 0.0:
        raise ValueError("bandwidth margin must be positive")
    v_sampling = symbol_width_m * sample_rate_hz / samples_per_symbol
    v_response = symbol_width_m * detector_bandwidth_hz / bandwidth_margin
    return min(v_sampling, v_response)
