#!/usr/bin/env python3
"""Capture the golden figure baselines.

Re-runs all twelve paper-figure experiments and rewrites
``tests/baselines/fig*.json`` from their measured outputs.  Run this
ONLY when a change is *supposed* to move the reproduced numbers (a
physics fix, a calibration change) — the whole point of the goldens is
that ``tests/test_golden_figures.py`` fails loudly on silent drift.

Usage::

    PYTHONPATH=src python tests/baselines/capture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.experiments import (
    experiment_fig5,
    experiment_fig6a,
    experiment_fig6b,
    experiment_fig7,
    experiment_fig8,
    experiment_fig10,
    experiment_fig11,
    experiment_fig13,
    experiment_fig14,
    experiment_fig15,
    experiment_fig16,
    experiment_fig17,
)

BASELINE_DIR = Path(__file__).resolve().parent

#: The paper figures pinned by goldens, name -> experiment.
GOLDEN_EXPERIMENTS = {
    "fig05": experiment_fig5,
    "fig06a": experiment_fig6a,
    "fig06b": experiment_fig6b,
    "fig07": experiment_fig7,
    "fig08": experiment_fig8,
    "fig10": experiment_fig10,
    "fig11": experiment_fig11,
    "fig13": experiment_fig13,
    "fig14": experiment_fig14,
    "fig15": experiment_fig15,
    "fig16": experiment_fig16,
    "fig17": experiment_fig17,
}


def capture(out_dir: Path = BASELINE_DIR) -> list[Path]:
    """Run every golden experiment and write its baseline JSON."""
    written = []
    for name, experiment in GOLDEN_EXPERIMENTS.items():
        result = experiment()
        if not result.passed:
            raise RuntimeError(
                f"{name} FAILED its shape-level claim; refusing to pin a "
                f"failing baseline:\n{result.report()}")
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "passed": result.passed,
            "measured": result.measured,
        }
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        written.append(path)
        print(f"wrote {path}")
    return written


if __name__ == "__main__":
    sys.exit(0 if capture() else 1)
