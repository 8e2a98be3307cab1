"""The networked-receiver engine workload (Section 6 as an engine run).

Covers the receiver-array spec block, the executor's multi-node path
(per-node traces, fusion, tracking), record round-tripping through the
cache, the networked scenario families, the fusion-gain sweep, and the
determinism contract extended to multi-receiver batches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.analysis.sweeps import sweep_fusion_gain
from repro.engine import (
    BatchRunner,
    RunRecord,
    ScenarioSpec,
    SqliteResultCache,
    build_network,
    execute_scenario,
    fusion_stats,
    fusion_table,
    node_positions,
    node_seed,
    summarize,
)
from repro.scenarios import expand_family


def road_spec(**overrides) -> ScenarioSpec:
    """A cheap, cleanly-decodable outdoor pass (sun over tarmac)."""
    base = dict(source="sun", detector="led", cap=False, ground="tarmac",
                bits="00", symbol_width_m=0.1, speed_mps=5.0,
                receiver_height_m=0.25, start_position_m=-1.5,
                sample_rate_hz=2000.0, ground_lux=450.0, seed=2)
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecReceiverBlock:
    def test_defaults_are_single_receiver(self):
        spec = ScenarioSpec()
        assert spec.n_receivers == 1
        assert spec.topology == "full"

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_receivers=0)
        with pytest.raises(ValueError):
            ScenarioSpec(n_receivers=2.0)       # must be an int
        with pytest.raises(ValueError):
            ScenarioSpec(receiver_spacing_m=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(topology="ring")

    def test_new_fields_change_content_hash(self):
        """Cache correctness: every receiver-array field must perturb
        the content hash, or stale single-receiver records would be
        returned for networked sweeps."""
        base = road_spec()
        assert (base.content_hash()
                != base.replace(n_receivers=3).content_hash())
        assert (base.replace(n_receivers=3).content_hash()
                != base.replace(n_receivers=4).content_hash())
        assert (base.replace(n_receivers=3).content_hash()
                != base.replace(n_receivers=3,
                                receiver_spacing_m=1.0).content_hash())
        assert (base.replace(n_receivers=3).content_hash()
                != base.replace(n_receivers=3,
                                topology="chain").content_hash())

    def test_round_trip_through_dict(self):
        spec = road_spec(n_receivers=4, receiver_spacing_m=1.25,
                         topology="partitioned")
        again = ScenarioSpec.from_dict(json.loads(
            json.dumps(spec.to_dict())))
        assert again == spec

    def test_cli_coercion(self):
        from repro.engine.cli import _parse_sets

        updates = _parse_sets(["n_receivers=3", "topology=chain",
                               "receiver_spacing_m=1.5"])
        spec = ScenarioSpec().replace(**updates)
        assert spec.n_receivers == 3
        assert spec.topology == "chain"
        assert spec.receiver_spacing_m == 1.5


class TestNetworkBuilding:
    def test_node_positions_spacing(self):
        spec = road_spec(n_receivers=4, receiver_spacing_m=0.5)
        assert node_positions(spec) == [0.0, 0.5, 1.0, 1.5]

    def test_node_seeds_distinct_and_deterministic(self):
        seeds = [node_seed(42, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [node_seed(42, i) for i in range(16)]
        assert seeds != [node_seed(43, i) for i in range(16)]

    def test_full_topology(self):
        net = build_network(road_spec(n_receivers=4))
        assert net.graph.number_of_edges() == 6
        assert nx.is_connected(net.graph)

    def test_chain_topology(self):
        net = build_network(road_spec(n_receivers=4, topology="chain"))
        assert net.graph.number_of_edges() == 3
        assert nx.is_connected(net.graph)

    def test_partitioned_topology_two_islands(self):
        net = build_network(road_spec(n_receivers=5,
                                      topology="partitioned"))
        components = list(nx.connected_components(net.graph))
        assert sorted(len(c) for c in components) == [2, 3]
        assert {"rx0", "rx1", "rx2"} in components

    def test_nodes_get_distinct_noise_seeds(self):
        net = build_network(road_spec(n_receivers=3))
        seeds = {node.frontend.seed for node in net.nodes}
        assert len(seeds) == 3


#: Run in a fresh interpreter: an import hook delays the network
#: layer's tracker module by 0.5 s, then the first networked record of
#: the process prints its ``build`` stage time.
_SLOW_NET_IMPORT = """
import importlib.machinery, sys, time

class SlowTracker:
    @staticmethod
    def find_spec(name, path, target=None):
        if name != "repro.net.tracker":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        exec_module = spec.loader.exec_module
        def slow(module):
            time.sleep(0.5)
            exec_module(module)
        spec.loader.exec_module = slow
        return spec

sys.meta_path.insert(0, SlowTracker)
import repro.engine
from repro.engine import ScenarioSpec, execute_scenario
from repro.exec import profiled
assert "networkx" not in sys.modules, "import repro.engine loaded networkx"
spec = ScenarioSpec(source="sun", detector="led", cap=False,
                    ground="tarmac", bits="00", symbol_width_m=0.1,
                    speed_mps=5.0, receiver_height_m=0.25,
                    start_position_m=-1.5, sample_rate_hz=2000.0,
                    ground_lux=450.0, seed=2, n_receivers=2)
with profiled():
    record = execute_scenario(spec)
assert "networkx" in sys.modules
print(record.stage_trace.timings_s["build"])
"""


class TestNetImportOutsideBuild:
    def test_first_networked_build_excludes_the_net_import(self):
        """The first networked spec of a process imports ``repro.net``
        (and networkx) before its ``build`` stage opens, so a slow
        import does not read as scene building; ``import repro.engine``
        still leaves networkx unloaded."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("REPRO_TELEMETRY", None)
        out = subprocess.run([sys.executable, "-c", _SLOW_NET_IMPORT],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        assert float(out.stdout.split()[-1]) < 0.25


class TestNetworkedExecution:
    def test_clean_corridor_record(self):
        record = execute_scenario(road_spec(n_receivers=3,
                                            receiver_spacing_m=1.0))
        assert record.networked
        assert len(record.nodes) == 3
        assert [n["node_id"] for n in record.nodes] == ["rx0", "rx1", "rx2"]
        assert [n["position_m"] for n in record.nodes] == [0.0, 1.0, 2.0]
        assert record.fused_bits == record.sent_bits
        assert record.fused_success and record.success
        assert record.stage == "decoded"
        assert record.decoded_bits == record.fused_bits

    def test_timestamps_increase_along_the_track(self):
        record = execute_scenario(road_spec(n_receivers=3,
                                            receiver_spacing_m=1.0))
        times = [n["timestamp_s"] for n in record.nodes]
        assert times == sorted(times)
        # 1 m apart at ~5 m/s: roughly 0.2 s between nodes.
        for gap in (times[1] - times[0], times[2] - times[1]):
            assert gap == pytest.approx(0.2, abs=0.1)

    def test_speed_estimate_close_to_nominal(self):
        record = execute_scenario(road_spec(n_receivers=3,
                                            receiver_spacing_m=1.0))
        assert record.speed_est_mps == pytest.approx(5.0, rel=0.05)
        assert record.speed_error is not None
        assert record.speed_error < 0.05

    def test_fused_verdict_cannot_beat_any_node_ceiling(self):
        """Fusion picks among node reports, so fused success implies
        some node decoded exactly; the gain field is the difference."""
        record = execute_scenario(road_spec(n_receivers=3))
        if record.fused_success:
            assert record.best_node_success
        assert record.fusion_gain == (float(record.fused_success)
                                      - float(record.best_node_success))

    def test_single_receiver_records_mirror_fused_fields(self):
        record = execute_scenario(road_spec())
        assert not record.networked
        assert record.nodes == []
        assert record.fused_bits == record.decoded_bits
        assert record.fused_success == record.success
        assert record.best_node_success == record.success
        assert record.fusion_gain == 0.0

    def test_simulation_failure_contained(self):
        # A packet that cannot fit any car roof: scene build fails, but
        # the networked record is still produced (not an exception).
        record = execute_scenario(road_spec(
            n_receivers=2, car="volvo_v40", decoder="two_phase",
            bits="01100110", symbol_width_m=0.4))
        assert record.stage == "simulation_failed"
        assert not record.success

    def test_record_round_trip(self):
        record = execute_scenario(road_spec(n_receivers=2))
        again = RunRecord.from_dict(json.loads(
            json.dumps(record.to_dict())))
        assert again == record
        assert again.canonical_json() == record.canonical_json()

    def test_undecoded_group_cannot_shadow_a_decode(self):
        """Regression: the record's verdict must come from the group
        holding actual decodes, not from a larger all-undecoded group
        (failed nodes whose onset estimates drifted out of grouping
        tolerance form their own group)."""
        from repro.engine.executor import _select_fused, _select_track
        from repro.net.fusion import fuse_detections
        from repro.net.node import Detection
        from repro.net.tracker import estimate_track

        def det(node, pos, t, bits, conf):
            return Detection(node_id=node, position_m=pos, timestamp_s=t,
                             bits=bits, confidence=conf)

        decoded_group = fuse_detections([det("rx0", 0.0, 10.0, "10", 0.8)])
        drifted_group = fuse_detections([det("rx1", 1.0, 30.0, "", 0.0),
                                         det("rx2", 2.0, 30.2, "", 0.0),
                                         det("rx3", 3.0, 30.4, "", 0.0)])
        pick = _select_fused([drifted_group, decoded_group])
        assert pick.bits == "10"
        assert _select_fused([]) is None

        wide = estimate_track([det("a", 0.0, 10.0, "10", 0.8),
                               det("b", 5.0, 11.0, "10", 0.8),
                               det("c", 10.0, 12.0, "", 0.0)])
        narrow = estimate_track([det("d", 0.0, 50.0, "", 0.0),
                                 det("e", 5.0, 51.0, "", 0.0)])
        assert _select_track([narrow, wide]) is wide
        assert _select_track([]) is None

    def test_pre_fusion_record_load_mirrors_verdict(self):
        """Regression: a v1.3 record (no fusion fields in its JSON)
        must not read back as a fused failure."""
        record = execute_scenario(road_spec())
        old = {k: v for k, v in record.to_dict().items()
               if k not in ("nodes", "fused_bits", "fused_success",
                            "best_node_success", "fusion_gain",
                            "speed_est_mps", "speed_error")}
        loaded = RunRecord.from_dict(old)
        assert loaded.success
        assert loaded.fused_bits == loaded.decoded_bits
        assert loaded.fused_success and loaded.best_node_success


class TestNetworkedFamilies:
    @pytest.mark.parametrize("family", ["corridor", "sparse_mesh",
                                        "partitioned_net"])
    def test_families_expand_networked(self, family):
        specs = expand_family(family, count=12, seed=5)
        assert len(specs) == 12
        assert all(s.n_receivers >= 2 for s in specs)

    def test_partitioned_family_topology(self):
        specs = expand_family("partitioned_net", count=6, seed=1)
        assert all(s.topology == "partitioned" for s in specs)

    def test_composes_with_regime_layers(self):
        specs = expand_family("corridor*fog", count=9, seed=2)
        assert all(s.n_receivers >= 2 for s in specs)
        assert all(s.visibility_m is not None for s in specs)


class TestFusionReporting:
    def test_fusion_stats_and_summary(self):
        records = BatchRunner().run(
            [road_spec(n_receivers=2), road_spec(n_receivers=3)]).records
        stats = fusion_stats(records)
        assert 0.0 <= stats["fused_rate"] <= 1.0
        assert stats["fused_rate"] <= stats["best_node_rate"]
        text = summarize(records)
        assert "networked passes: 2" in text
        assert "fusion gain" in text

    def test_fusion_table_grouped_by_receiver_count(self):
        records = BatchRunner().run(
            [road_spec(n_receivers=2), road_spec(n_receivers=3)]).records
        table = fusion_table(records, "n_receivers")
        assert "fusion by n_receivers" in table
        assert "2 |" in table and "3 |" in table

    def test_pre_receiver_array_records_group_under_field_default(self):
        """Reports over mixed-vintage result files must not crash: a
        record written before the spec had ``n_receivers`` groups under
        the field default (1) instead of raising KeyError."""
        new = execute_scenario(road_spec(n_receivers=2))
        old_spec = {k: v for k, v in road_spec().resolve().to_dict().items()
                    if k not in ("n_receivers", "receiver_spacing_m",
                                 "topology")}
        old = RunRecord.from_dict(dict(
            execute_scenario(road_spec()).to_dict(), spec=old_spec))
        table = fusion_table([new, old], "n_receivers")
        assert "1 |" in table and "2 |" in table
        with pytest.raises(KeyError):
            fusion_table([new, old], "never_a_field")

    def test_missing_speed_estimate_is_not_a_perfect_one(self):
        """Groups with no tracked speed must say so ('-'/'n/a'), not
        print a flattering 0.000."""
        record = execute_scenario(road_spec())      # n_receivers=1
        stats = fusion_stats([record])
        assert stats["mean_speed_error"] is None
        assert fusion_table([record], "n_receivers").splitlines()[1] \
            .endswith("-")
        # A severed two-node deployment: rx0's island is a single node,
        # so the networked record has no track either.
        severed = execute_scenario(road_spec(n_receivers=2,
                                             topology="partitioned"))
        assert severed.speed_error is None
        assert "speed err n/a" in summarize([severed])


class TestFusionGainSweep:
    def test_noise_stressed_corridor_improvement(self):
        """The Section 6 acceptance claim: on a noise-stressed corridor,
        the fused decode rate with networked receivers is at least the
        single-receiver rate, and never below the per-pass best-node
        rate it can reach."""
        sweep = sweep_fusion_gain(n_receivers=(1, 4), count=12, seed=0,
                                  runner=BatchRunner(workers=2))
        assert sweep.n_receivers == [1, 4]
        single, fused = sweep.fused_rates
        assert fused >= single
        assert fused >= sweep.best_node_rates[0]
        assert len(sweep.records[4]) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_fusion_gain(n_receivers=())
        with pytest.raises(ValueError):
            sweep_fusion_gain(n_receivers=(0, 2))


class TestNetworkedDeterminism:
    """The engine contract extended to multi-receiver batches."""

    def _specs(self):
        return [road_spec(n_receivers=n, receiver_spacing_m=s,
                          topology=t, seed=seed)
                for n, s, t, seed in [(2, 0.8, "full", 3),
                                      (3, 1.0, "chain", 4),
                                      (4, 0.9, "partitioned", 5),
                                      (2, 1.4, "full", 6)]]

    def test_workers_byte_identical(self, tmp_path):
        specs = self._specs()
        serial = BatchRunner(workers=1).run(specs).records
        with BatchRunner(workers=4) as runner:
            parallel = runner.run(specs).records
        assert [r.canonical_json() for r in serial] == \
            [r.canonical_json() for r in parallel]

    def test_cache_cold_vs_warm_byte_identical(self, tmp_path):
        specs = self._specs()
        cache = SqliteResultCache(tmp_path)
        runner = BatchRunner(cache=cache)
        cold = runner.run(specs)
        warm = runner.run(specs)
        assert cold.stats.executed == len(specs)
        assert warm.stats.cache_hits == len(specs)
        assert [r.canonical_json() for r in cold.records] == \
            [r.canonical_json() for r in warm.records]
