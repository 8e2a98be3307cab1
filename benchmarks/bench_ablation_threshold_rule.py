"""Ablation — the paper's literal tau_r rule vs the midpoint reading.

The paper compares a window max against tau_r directly (see the
threshold-rule note in repro.core.decoder).  tau_r is a peak-to-valley *difference*, so the comparison
only works when LOW-symbol valleys descend close to the waveform floor.
That holds for sharply resolved signals (little FoV blur — the regime
of the paper's Fig. 5 plots), but under realistic footprint blur the
inter-peak valleys only descend part-way and the literal comparison
collapses, while the midpoint reading (threshold at
``valley + tau_r/2``) is blur- and pedestal-invariant.  That is why
"midpoint" is the library default.
"""

import numpy as np

from repro.analysis.experiments import dark_room_spec
from repro.channel.trace import SignalTrace
from repro.core.decoder import AdaptiveThresholdDecoder, DecoderConfig
from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.engine.executor import capture_trace


def _sharp_trace(symbols, seed=0, fs=200.0):
    """A low-blur waveform: valleys reach the floor (paper's regime)."""
    rng = np.random.default_rng(seed)
    per = int(0.4 * fs)
    levels = [100.0 if s == "H" else 12.0 for s in symbols]
    steps = np.concatenate([np.full(per, lv) for lv in levels])
    x = np.concatenate([np.full(per, 8.0), steps, np.full(per, 8.0)])
    kernel = np.hanning(9)
    kernel /= kernel.sum()
    x = np.convolve(x, kernel, mode="same")
    x = x + rng.normal(0.0, 1.0, len(x))
    return SignalTrace(np.clip(x, 0, 1023), fs)


def _decode_rate(rule, items):
    decoder = AdaptiveThresholdDecoder(DecoderConfig(threshold_rule=rule))
    wins = 0
    for trace, bits in items:
        try:
            result = decoder.decode(trace, n_data_symbols=2 * len(bits))
        except (PreambleNotFoundError, DecodeError):
            continue
        wins += result.bit_string() == bits
    return wins / len(items)


def test_ablation_threshold_rules(benchmark):
    sharp = [(_sharp_trace("HLHL" + data, seed=s), bits)
             for data, bits in (("HLHL", "00"), ("LHHL", "10"))
             for s in (1, 2, 3)]
    blurred = [(capture_trace(dark_room_spec(bits, s)), bits)
               for bits in ("00", "10") for s in (3, 4, 5)]

    def run():
        return {
            "sharp_paper": _decode_rate("paper", sharp),
            "sharp_midpoint": _decode_rate("midpoint", sharp),
            "blurred_paper": _decode_rate("paper", blurred),
            "blurred_midpoint": _decode_rate("midpoint", blurred),
        }

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[ablation/threshold-rule] decode rates: {rates}")
    # Sharp, floor-anchored waveforms: both readings work.
    assert rates["sharp_paper"] >= 0.8
    assert rates["sharp_midpoint"] >= 0.8
    # Realistic FoV blur: only the midpoint reading survives.
    assert rates["blurred_midpoint"] >= 0.8
    assert rates["blurred_paper"] <= rates["blurred_midpoint"] - 0.5
