"""repro.engine — batched, parallel scenario-execution runtime.

The engine turns the reproduction from a bag of figure scripts into a
service-shaped system:

* :class:`ScenarioSpec` — one channel scenario as declarative data,
  with :func:`expand_grid` fanning a template out over parameter axes;
* :class:`BatchRunner` — executes scenario batches serially or across a
  process pool, with deterministic per-scenario seeds (``workers=N`` is
  byte-identical to ``workers=1``);
* :class:`SqliteResultCache` — the content-hash result store (one
  WAL-mode SQLite database per cache directory), so repeated sweeps
  are near-free;
* :mod:`repro.exec` — the named, instrumented pipeline all three
  execution paths (serial, tensor batch, streaming replay) run;
* :mod:`repro.engine.report` — decode-rate aggregation over records;
* the ``repro-engine`` CLI (:mod:`repro.engine.cli`) — run / sweep /
  report from the shell.

Quickstart::

    from repro.engine import BatchRunner, ScenarioSpec, expand_grid

    template = ScenarioSpec(source="sun", detector="led", cap=False,
                            ground="tarmac", bits="00",
                            symbol_width_m=0.1, speed_mps=5.0,
                            receiver_height_m=0.25)
    specs = expand_grid(template, {"ground_lux": [100.0, 450.0, 6200.0],
                                   "seed": [2, 3, 4, 5, 6]})
    result = BatchRunner(workers=4).run(specs)
    print(result.success_rate())
"""

from .cache import CacheStats, SqliteResultCache
from .executor import (
    build_frontend,
    build_network,
    build_scene,
    build_simulator,
    execute_scenario,
    node_positions,
    node_seed,
)
from .records import RecordStage, RunRecord, make_record, outcome_stage
from .report import (
    fusion_stats,
    fusion_table,
    group_table,
    latency_stats,
    latency_table,
    mean_ber,
    stage_counts,
    stage_stats,
    stage_table,
    success_rate,
    success_rate_by,
    summarize,
)
from .runner import (BatchResult, BatchRunner, RunStats, available_cpus,
                     run_grid)
from .spec import GridSpec, ScenarioSpec, SpecIdentity, expand_grid, grid_size
from .streaming import SessionOutcome, StreamRunResult, run_stream

__all__ = [
    "BatchResult", "BatchRunner", "CacheStats", "GridSpec",
    "RecordStage", "RunRecord", "RunStats", "ScenarioSpec",
    "SessionOutcome", "SpecIdentity", "SqliteResultCache",
    "StreamRunResult", "available_cpus", "run_stream",
    "build_frontend", "build_network", "build_scene", "build_simulator",
    "execute_scenario", "expand_grid", "fusion_stats", "fusion_table",
    "grid_size", "group_table", "latency_stats", "latency_table",
    "make_record", "mean_ber", "node_positions", "node_seed",
    "outcome_stage", "run_grid", "stage_counts", "stage_stats",
    "stage_table", "success_rate", "success_rate_by", "summarize",
]
