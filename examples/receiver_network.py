#!/usr/bin/env python3
"""Networked receivers end to end: nodes, fusion, tracking, the sweep.

Three acts:

1. **Hand-built network** — three `ReceiverNode`s along a sunny road,
   each capturing its *own* trace of the same pass; the network fuses
   the payload reports and estimates the object's speed.
2. **Corridor sweep** — the `corridor` scenario family (2-5 fused
   receivers per pass at the RX-LED saturation cliff) through the
   engine with caching; fusion columns come with the summary.
3. **The Section 6 improvement curve** — `sweep_fusion_gain` replays
   the same noise-stressed passes at 1..5 receivers and tabulates the
   fused decode rate against the single-receiver baseline.

Run:  python examples/receiver_network.py [--workers N] [--cache-dir DIR]

The same sweep from the shell::

    repro-engine sweep --scenario corridor --count 60 \\
        --workers 8 --cache-dir .engine-cache
"""

import argparse
import dataclasses

from repro.analysis.sweeps import sweep_fusion_gain
from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.engine import (
    BatchRunner,
    ScenarioSpec,
    available_cpus,
    build_network,
    build_scene,
    summarize,
)
from repro.scenarios import expand_family

CORRIDOR_PASS = ScenarioSpec(
    source="sun", detector="led", cap=False, ground="tarmac",
    bits="10", symbol_width_m=0.1, speed_mps=5.0,
    receiver_height_m=0.25, start_position_m=-1.5,
    sample_rate_hz=2000.0, ground_lux=450.0, seed=7,
    n_receivers=3, receiver_spacing_m=1.0,
)


def act_one() -> None:
    print("=== 1. One pass, three receivers, by hand ===")
    spec = CORRIDOR_PASS.resolve()
    scene = build_scene(spec)
    network = build_network(spec)
    for node in network.nodes:
        node_scene = dataclasses.replace(scene,
                                         receiver_x_m=node.position_m)
        sim = ChannelSimulator(
            node_scene, node.frontend,
            SimulatorConfig(sample_rate_hz=spec.sample_rate_hz,
                            include_noise=spec.include_noise,
                            seed=node.frontend.seed))
        detection = node.observe(sim.capture_pass(), n_data_symbols=4)
        network.record(detection)
        print(f"  {node.node_id} @ {node.position_m:.1f} m: "
              f"bits={detection.bits!r} conf={detection.confidence:.2f} "
              f"t={detection.timestamp_s:.3f}s "
              f"({detection.timestamp_source})")
    for fused in network.fuse_at("rx0", spec.speed_mps):
        print(f"  fused: {fused.bits!r} agreement={fused.agreement:.2f} "
              f"({fused.n_decoded}/{fused.n_reports} decoded)")
    for track in network.track_at("rx0", spec.speed_mps):
        print(f"  track: {track.speed_mps:.2f} m/s over "
              f"{track.n_nodes} nodes "
              f"(true {spec.speed_mps:.2f} m/s)")


def act_two(workers: int, cache_dir: str) -> None:
    print("\n=== 2. Corridor sweep through the engine ===")
    specs = expand_family("corridor", count=60, seed=0)
    runner = BatchRunner(workers=workers, cache=cache_dir)
    result = runner.run(specs)
    print(result.stats.summary())
    print(summarize(result.records))


def act_three(workers: int, cache_dir: str) -> None:
    print("\n=== 3. The Section 6 improvement curve ===")
    runner = BatchRunner(workers=workers, cache=cache_dir)
    sweep = sweep_fusion_gain(n_receivers=(1, 2, 3, 4, 5), count=60,
                              seed=0, runner=runner)
    print(sweep.render())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int,
                        default=available_cpus())
    parser.add_argument("--cache-dir", default=".engine-cache")
    args = parser.parse_args()
    act_one()
    act_two(args.workers, args.cache_dir)
    act_three(args.workers, args.cache_dir)


if __name__ == "__main__":
    main()
