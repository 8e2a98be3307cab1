"""Ablation — Sakoe-Chiba band width in the DTW classifier.

The classifier constrains warping to a band.  Too narrow a band cannot
absorb the paper's 2x mid-packet speed change; no band at all is slower
and allows degenerate warpings.  This bench measures classification
accuracy and runtime across band settings, and counts the DP cells one
alignment fills at the classifier's length.
"""

import time

from repro.analysis.experiments import dark_room_spec
from repro.core.classifier import DtwClassifier
from repro.dsp.dtw import _band_limits
from repro.engine.executor import capture_trace


def _dataset():
    clean00 = capture_trace(dark_room_spec("00", 6))
    clean10 = capture_trace(dark_room_spec("10", 6))
    distorted = [capture_trace(dark_room_spec(
        "10", seed, motion="speed_doubling", start_position_m=-0.3))
        for seed in (7, 8, 9, 10)]
    return clean00, clean10, distorted


def _accuracy(band, data):
    clean00, clean10, distorted = data
    clf = DtwClassifier(band_fraction=band)
    clf.add_template("00", clean00)
    clf.add_template("10", clean10)
    wins = sum(clf.classify(q).label == "10" for q in distorted)
    return wins / len(distorted)


def _dp_cells(band_fraction, n):
    """DP cells one n x n alignment fills, the band sized as ``dtw``
    sizes it."""
    band = (None if band_fraction is None
            else max(1, int(round(band_fraction * n))))
    j_lo, j_hi = _band_limits(n, n, band)
    return int((j_hi - j_lo + 1).sum())


def test_ablation_dtw_band(benchmark):
    data = _dataset()

    def run():
        out = {}
        for band in (0.05, 0.25, None):
            t0 = time.perf_counter()
            acc = _accuracy(band, data)
            out[str(band)] = (acc, time.perf_counter() - t0)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[ablation/dtw-band] band -> (accuracy, seconds): {results}")
    # The recommended band absorbs the 2x speed change.
    assert results["0.25"][0] >= 0.75
    # Unconstrained DTW is at least as accurate but not cheaper.  The
    # cost is stated as DP cells: the wavefront kernel pays per
    # diagonal, so at 200 points the band saves only 5-10% of the
    # time, less than one timed pass's noise.
    assert results["None"][0] >= results["0.25"][0] - 1e-9
    n = DtwClassifier().resample_points
    cells = {band: _dp_cells(band, n) for band in (0.25, None)}
    print(f"[ablation/dtw-band] DP cells at {n} points: {cells}")
    assert cells[None] > cells[0.25]
