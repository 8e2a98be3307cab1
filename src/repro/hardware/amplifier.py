"""Amplifier stage (LM358N on the OpenVLC board).

The detector's normalised output is buffered and amplified before the
ADC.  The LM358N is a slow, single-supply op-amp: its gain-bandwidth
product and slew rate bound how fast an edge can move through the chain,
and its output clips near the supply rails.  For the passive channel's
sub-100 Hz signals the amplifier is essentially transparent; it matters
at the margins of the "maximal supported speed" analysis (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

__all__ = ["Amplifier", "first_order_lowpass"]


def first_order_lowpass(samples: np.ndarray, cutoff_hz: float,
                        sample_rate_hz: float) -> np.ndarray:
    """Apply a first-order (RC) low-pass filter to a sampled signal.

    Used for both the detector's photoresponse and the amplifier's
    bandwidth limit.  A single-pole IIR preserves causality (edges lag,
    they don't pre-ring), matching analogue behaviour.

    Args:
        samples: input signal; a stack filters each row along the last
            axis, starting from that row's own first sample.
        cutoff_hz: -3 dB frequency, > 0.
        sample_rate_hz: sampling frequency, > 0.

    Returns:
        Filtered signal, same shape as the input.
    """
    x = np.asarray(samples, dtype=float)
    if _transparent(cutoff_hz, sample_rate_hz) or x.size == 0:
        return x.copy()
    b, a, zi = _rc_design(cutoff_hz / (sample_rate_hz / 2.0))
    y, _ = sp_signal.lfilter(b, a, x, axis=-1, zi=zi * x[..., :1])
    return y


def _transparent(cutoff_hz: float, sample_rate_hz: float) -> bool:
    """Validate a band limit; True when its pole sits at or above
    Nyquist, where the filter passes the samples through unchanged."""
    if cutoff_hz <= 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff_hz}")
    if sample_rate_hz <= 0.0:
        raise ValueError(f"sample rate must be positive, got {sample_rate_hz}")
    return cutoff_hz >= sample_rate_hz / 2.0


@lru_cache(maxsize=16)
def _rc_design(wn: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear-transform single pole at normalised cutoff ``wn``.

    Returns ``(b, a, zi)``, with ``zi`` the unit-step initial state,
    as read-only arrays shared by every caller.  Detector and
    amplifier bandwidths are constants, so captures redesign the same
    few filters; designing each once is exact.
    """
    b, a = sp_signal.butter(1, wn)
    zi = sp_signal.lfilter_zi(b, a)
    for arr in (b, a, zi):
        arr.flags.writeable = False
    return b, a, zi


@dataclass
class Amplifier:
    """A rail-limited voltage amplifier.

    Attributes:
        gain: voltage gain applied to the detector's normalised output.
        bandwidth_hz: closed-loop -3 dB bandwidth.
        rail_low: lower output clip (normalised volts).
        rail_high: upper output clip (normalised volts).
        input_offset: additive offset (op-amp V_os referred to output).
    """

    gain: float = 1.0
    bandwidth_hz: float = 10_000.0
    rail_low: float = 0.0
    rail_high: float = 1.0
    input_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.gain <= 0.0:
            raise ValueError(f"gain must be positive, got {self.gain}")
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.rail_high <= self.rail_low:
            raise ValueError("rail_high must exceed rail_low")

    @classmethod
    def lm358(cls, gain: float = 1.0) -> "Amplifier":
        """The board's LM358N buffer (GBW ~1 MHz; effective BW = GBW/gain)."""
        return cls(gain=gain, bandwidth_hz=1.0e6 / max(gain, 1.0),
                   rail_low=0.0, rail_high=1.0, input_offset=0.0)

    def amplify(self, samples: np.ndarray, sample_rate_hz: float) -> np.ndarray:
        """Amplify, band-limit and rail-clip a signal (time on the last
        axis, so an ``(R, T)`` stack amplifies row by row)."""
        y = np.asarray(samples, dtype=float) * self.gain + self.input_offset
        if not _transparent(self.bandwidth_hz, sample_rate_hz):
            y = first_order_lowpass(y, self.bandwidth_hz, sample_rate_hz)
        return np.clip(y, self.rail_low, self.rail_high)
