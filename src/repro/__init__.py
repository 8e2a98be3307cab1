"""repro — reproduction of "Passive Communication with Ambient Light".

Wang, Zuniga, Giustiniano — CoNEXT 2016 (DOI 10.1145/2999572.2999584).

The package simulates a passive visible-light communication channel:
unmodulated ambient light (LED lamp, fluorescent ceiling, the sun)
reflects off coded surfaces carried by moving objects, and tiny
photodiode/LED receivers decode the disturbed light.

Quickstart::

    from repro import PassiveLink, Sun, LedReceiver, ReceiverFrontEnd

    link = PassiveLink(
        source=Sun(ground_lux=6200.0),
        frontend=ReceiverFrontEnd(detector=LedReceiver.red_5mm()),
        receiver_height_m=0.75,
    )
    report = link.transmit("10", speed_mps=5.0)
    assert report.success

Subpackages:

* ``repro.optics``    — photometry, materials, sources, reflection
* ``repro.hardware``  — OPT101 photodiode, RX-LED, amplifier, ADC
* ``repro.tags``      — Manchester coding, packet format, tag surfaces
* ``repro.channel``   — scenes, mobility, distortions, the simulator
* ``repro.dsp``       — filters, peaks, spectra, DTW
* ``repro.core``      — decoder, classifier, collision analysis, links
* ``repro.vehicles``  — car optical signatures (Section 5)
* ``repro.net``       — networked receivers (Section 6 future work)
* ``repro.analysis``  — metrics, sweeps, per-figure experiments
* ``repro.engine``    — batched, parallel scenario execution with a
  content-hash result cache (one SQLite database,
  :class:`SqliteResultCache`) and the ``repro-engine`` CLI
* ``repro.scenarios`` — composable traffic-scenario families (convoys,
  intersections, weather and light regimes) feeding the engine
* ``repro.perf``      — ``repro-engine bench``: runs the repository
  benchmark (``perfbench/``, ``BENCHMARK.json``) of a source checkout,
  writes ``BENCH_perf.json`` and gates it against the committed
  baseline with the benchmark's bounds
* ``repro.stream``    — the online streaming-decode runtime: chunked
  ingestion, incremental acquisition, latency-stamped decode events
  and the concurrent multi-receiver session layer
  (``repro-engine stream``)

Scenario grids run through the engine::

    from repro.engine import BatchRunner, ScenarioSpec, expand_grid

    template = ScenarioSpec(source="sun", detector="led", cap=False,
                            ground="tarmac", bits="00",
                            symbol_width_m=0.1, speed_mps=5.0,
                            receiver_height_m=0.25)
    specs = expand_grid(template, {"ground_lux": [100.0, 450.0, 6200.0],
                                   "seed": [2, 3, 4, 5, 6]})
    result = BatchRunner.local().run(specs)

Or draw whole scenario families from the zoo::

    from repro import expand_family

    specs = expand_family("convoy*fog", count=500, seed=1)
"""

from .channel import (
    ChannelSimulator,
    ConstantSpeed,
    MovingObject,
    PassiveScene,
    SignalTrace,
    SimulatorConfig,
)
from .core import (
    AdaptiveThresholdDecoder,
    CollisionAnalyzer,
    DtwClassifier,
    DualReceiverController,
    PassiveLink,
    ReceiverPipeline,
)
from .engine import (
    BatchRunner,
    RunRecord,
    ScenarioSpec,
    SqliteResultCache,
    expand_grid,
)
from .hardware import (
    EvaluationBoard,
    FovCap,
    LedReceiver,
    PdGain,
    Photodiode,
    ReceiverFrontEnd,
)
from .scenarios import ScenarioFamily, compose, expand_family, family_names
from .optics import (
    ALUMINUM_TAPE,
    BLACK_NAPKIN,
    FieldOfView,
    FluorescentCeiling,
    LedLamp,
    Material,
    Sun,
)
from .tags import Packet, TagSurface

__version__ = "1.6.0"

__all__ = [
    "__version__",
    # channel
    "ChannelSimulator", "ConstantSpeed", "MovingObject", "PassiveScene",
    "SignalTrace", "SimulatorConfig",
    # core
    "AdaptiveThresholdDecoder", "CollisionAnalyzer", "DtwClassifier",
    "DualReceiverController", "PassiveLink", "ReceiverPipeline",
    # engine
    "BatchRunner", "RunRecord", "ScenarioSpec", "SqliteResultCache",
    "expand_grid",
    # scenarios
    "ScenarioFamily", "compose", "expand_family", "family_names",
    # hardware
    "EvaluationBoard", "FovCap", "LedReceiver", "PdGain", "Photodiode",
    "ReceiverFrontEnd",
    # optics
    "ALUMINUM_TAPE", "BLACK_NAPKIN", "FieldOfView", "FluorescentCeiling",
    "LedLamp", "Material", "Sun",
    # tags
    "Packet", "TagSurface",
]
