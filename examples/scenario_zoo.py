#!/usr/bin/env python3
"""Three composed scenario families through the engine cache.

Draws 60 scenarios from each of three compositions —

* ``convoy*fog``                 — convoys pushing through fog banks,
* ``highway*night``              — fast passes under night-time ambient,
* ``fleet_mix*variable_speed``   — a mixed fleet with mid-packet speed
  changes and speed jitter (the Fig. 8 distortion regime at scale)

— and runs all 180 as one parallel batch with the on-disk result cache,
so a second invocation answers from cache in milliseconds.

Run:  python examples/scenario_zoo.py [--workers N] [--cache-dir DIR]

The same sweeps from the shell::

    repro-engine scenarios
    repro-engine sweep --scenario convoy,fog --count 60 \\
        --workers 8 --cache-dir .engine-cache --group-by car
"""

import argparse

from repro.engine import (
    BatchRunner,
    available_cpus,
    group_table,
    summarize,
)
from repro.scenarios import expand_family

COMPOSITIONS = ("convoy*fog", "highway*night", "fleet_mix*variable_speed")
COUNT = 60


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int,
                        default=available_cpus())
    parser.add_argument("--cache-dir", default=".engine-cache")
    args = parser.parse_args()

    batches = {expr: expand_family(expr, count=COUNT, seed=0)
               for expr in COMPOSITIONS}
    specs = [spec for family in batches.values() for spec in family]
    print(f"expanded {len(specs)} scenarios from "
          f"{len(COMPOSITIONS)} compositions; "
          f"running on {args.workers} workers (cache: {args.cache_dir})")

    runner = BatchRunner(workers=args.workers, cache=args.cache_dir)
    result = runner.run(specs)
    print(f"done in {result.stats.elapsed_s:.1f}s "
          f"({result.stats.cache_hits} cached, "
          f"{result.stats.executed} simulated)")

    offset = 0
    for expr, family_specs in batches.items():
        records = result.records[offset:offset + len(family_specs)]
        offset += len(family_specs)
        print()
        print(f"=== {expr} ===")
        print(summarize(records))
        print(group_table(records, "motion" if "variable_speed" in expr
                          else "car"))


if __name__ == "__main__":
    main()
