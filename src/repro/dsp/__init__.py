"""Signal-processing substrate: filters, peaks, spectra, DTW."""

from .dtw import DtwResult, dtw, dtw_distance
from .filters import (
    detrend,
    lowpass,
    median_filter,
    moving_average,
    notch_ac_ripple,
)
from .normalize import min_max_normalize, resample_to_length, z_normalize
from .peaks import Extremum, find_peaks_and_valleys
from .spectrum import (
    PowerSpectrum,
    dominant_frequencies,
    power_spectrum,
    symbol_fundamental_hz,
)

__all__ = [
    "DtwResult", "dtw", "dtw_distance",
    "detrend", "lowpass", "median_filter", "moving_average",
    "notch_ac_ripple",
    "min_max_normalize", "resample_to_length", "z_normalize",
    "Extremum", "find_peaks_and_valleys",
    "PowerSpectrum", "dominant_frequencies", "power_spectrum",
    "symbol_fundamental_hz",
]
