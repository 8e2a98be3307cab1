#!/usr/bin/env python3
"""A 500-scenario outdoor grid through the execution engine.

Sweeps the Fig. 15/17 outdoor link — sun, bare tag at 18 km/h, RX-LED —
over 5 noise floors x 4 receiver heights x 5 symbol widths x 5 noise
seeds = 500 scenarios, executed as one batch across every core, with
results cached on disk so a re-run answers in milliseconds.

Run:  python examples/engine_sweep.py [--workers N] [--cache-dir DIR]

The same sweep from the shell::

    repro-engine sweep \\
        --set source=sun --set detector=led --set cap=false \\
        --set ground=tarmac --set bits=00 --set speed_mps=5.0 \\
        --set start_position_m=-1.5 --set sample_rate_hz=2000 \\
        --axis ground_lux=100,450,1000,3700,6200 \\
        --axis receiver_height_m=0.25,0.5,0.75,1.0 \\
        --axis symbol_width_m=0.06,0.08,0.1,0.12,0.14 \\
        --axis seed=2,3,4,5,6 \\
        --workers 8 --cache-dir .engine-cache --group-by ground_lux
"""

import argparse

from repro.engine import (
    BatchRunner,
    ScenarioSpec,
    available_cpus,
    expand_grid,
    group_table,
    summarize,
)

AXES = {
    "ground_lux": [100.0, 450.0, 1000.0, 3700.0, 6200.0],
    "receiver_height_m": [0.25, 0.5, 0.75, 1.0],
    "symbol_width_m": [0.06, 0.08, 0.1, 0.12, 0.14],
    "seed": [2, 3, 4, 5, 6],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int,
                        default=available_cpus())
    parser.add_argument("--cache-dir", default=".engine-cache")
    args = parser.parse_args()

    template = ScenarioSpec(
        source="sun", detector="led", cap=False, ground="tarmac",
        bits="00", speed_mps=5.0, start_position_m=-1.5,
        sample_rate_hz=2000.0)
    specs = expand_grid(template, AXES)
    print(f"expanded {len(specs)} scenarios; "
          f"running on {args.workers} workers "
          f"(cache: {args.cache_dir})")

    runner = BatchRunner(workers=args.workers, cache=args.cache_dir)
    result = runner.run(specs)
    print(f"done in {result.stats.elapsed_s:.1f}s "
          f"({result.stats.cache_hits} cached, "
          f"{result.stats.executed} simulated)")
    print()
    print(summarize(result.records))
    print()
    print(group_table(result.records, "ground_lux"))
    print()
    print(group_table(result.records, "receiver_height_m"))
    print()
    print(group_table(result.records, "symbol_width_m"))


if __name__ == "__main__":
    main()
