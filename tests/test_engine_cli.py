"""Tests for the repro-engine CLI (run / sweep / report)."""

import json

from repro.engine.cli import main

FAST_SETS = ["--set", "source=sun", "--set", "detector=led",
             "--set", "cap=false", "--set", "ground=tarmac",
             "--set", "bits=00", "--set", "symbol_width_m=0.1",
             "--set", "speed_mps=5.0", "--set", "receiver_height_m=0.25",
             "--set", "start_position_m=-1.5",
             "--set", "sample_rate_hz=2000", "--set", "seed=3"]


class TestRun:
    def test_run_prints_record(self, capsys):
        code = main(["run", *FAST_SETS, "--set", "ground_lux=450"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["success"] is True
        assert record["stage"] == "decoded"
        assert record["spec"]["ground_lux"] == 450.0

    def test_run_failure_exit_code(self, capsys):
        assert main(["run", *FAST_SETS, "--set", "ground_lux=100"]) == 1
        assert main(["run", *FAST_SETS, "--set", "ground_lux=100",
                     "--allow-failure"]) == 0

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "source": "sun", "detector": "led", "cap": False,
            "ground": "tarmac", "bits": "00", "symbol_width_m": 0.1,
            "speed_mps": 5.0, "receiver_height_m": 0.25,
            "start_position_m": -1.5, "sample_rate_hz": 2000.0,
            "ground_lux": 450.0, "seed": 3}))
        assert main(["run", "--spec", str(spec_file)]) == 0

    def test_bad_field_is_an_error(self, capsys):
        assert main(["run", "--set", "wavelength=650"]) == 2
        assert "repro-engine" in capsys.readouterr().err


class TestSweep:
    def test_sweep_axes_out_and_cache(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        cache_dir = tmp_path / "cache"
        argv = ["sweep", *FAST_SETS,
                "--axis", "ground_lux=450,100",
                "--axis", "seed=2,3",
                "--cache-dir", str(cache_dir),
                "--out", str(out),
                "--group-by", "ground_lux"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "ran 4 scenarios" in text
        assert "decode rate by ground_lux" in text
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 4

        # Second pass answers entirely from the cache.
        assert main(argv) == 0
        assert "4 cached [100%], 0 simulated" in capsys.readouterr().out

    def test_sweep_linspace_axis(self, capsys):
        assert main(["sweep", *FAST_SETS, "--set", "ground_lux=450",
                     "--axis", "seed=1:3:3"]) == 0
        assert "ran 3 scenarios" in capsys.readouterr().out

    def test_sweep_grid_file(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({
            "template": {"source": "sun", "detector": "led", "cap": False,
                         "ground": "tarmac", "bits": "00",
                         "symbol_width_m": 0.1, "speed_mps": 5.0,
                         "receiver_height_m": 0.25,
                         "start_position_m": -1.5,
                         "sample_rate_hz": 2000.0},
            "axes": {"ground_lux": [450.0, 100.0], "seed": [2, 3]}}))
        assert main(["sweep", "--grid", str(grid_file)]) == 0
        assert "ran 4 scenarios" in capsys.readouterr().out


class TestReport:
    def test_report_reads_results(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        main(["sweep", *FAST_SETS, "--axis", "ground_lux=450,100",
              "--axis", "seed=2,3", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out), "--group-by", "ground_lux"]) == 0
        text = capsys.readouterr().out
        assert "scenarios: 4" in text
        assert "decode rate by ground_lux" in text

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/runs.jsonl"]) == 2


class TestUnknownSpecField:
    """--set with a typo'd field must name the field and list valid
    ones, not die inside float()."""

    def test_unknown_field_names_itself(self, capsys):
        assert main(["run", "--set", "grund_lux=450"]) == 2
        err = capsys.readouterr().err
        assert "unknown spec field 'grund_lux'" in err
        assert "ground_lux" in err          # the valid list is shown

    def test_unknown_axis_field_rejected_too(self, capsys):
        assert main(["sweep", *FAST_SETS,
                     "--axis", "grund_lux=450,100"]) == 2
        assert "unknown spec field" in capsys.readouterr().err

    def test_known_fields_still_coerce(self, capsys):
        assert main(["run", *FAST_SETS, "--set", "ground_lux=450"]) == 0


class TestSweepTensorBackend:
    def test_tensor_sweep_matches_process_sweep(self, tmp_path, capsys):
        base = ["sweep", *FAST_SETS, "--set", "ground_lux=450",
                "--axis", "seed=2,3,4"]
        out_p = tmp_path / "process.jsonl"
        out_t = tmp_path / "tensor.jsonl"
        assert main([*base, "--out", str(out_p)]) == 0
        assert main([*base, "--backend", "tensor",
                     "--out", str(out_t)]) == 0

        def load(path):
            records = [json.loads(line)
                       for line in path.read_text().splitlines()]
            for record in records:
                record.pop("elapsed_s")   # wall clock, not a result
            return records

        assert load(out_p) == load(out_t)


class TestFaultPlanField:
    def test_set_fault_plan_inline_json(self, capsys):
        code = main(["run", *FAST_SETS, "--set", "ground_lux=450",
                     "--set", 'fault_plan={"burst_rate_hz": 20.0}'])
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["fault_plan"]["burst_rate_hz"] == 20.0
        assert record["fault_events"]["noise_bursts"] > 0
        assert code in (0, 1)  # faults may or may not break the decode

    def test_fault_plan_none_accepted(self, capsys):
        assert main(["run", *FAST_SETS, "--set", "ground_lux=450",
                     "--set", "fault_plan=none"]) == 0

    def test_malformed_fault_plan_json_is_usage_error(self, capsys):
        assert main(["run", *FAST_SETS,
                     "--set", "fault_plan={not json"]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_non_object_fault_plan_rejected(self, capsys):
        assert main(["run", *FAST_SETS,
                     "--set", "fault_plan=[1,2]"]) == 2


class TestExecutorErrorExitCodes:
    STUCK = 'fault_plan={"exec_sleep_s": 30.0}'

    def test_run_timeout_exits_3(self, capsys):
        assert main(["run", *FAST_SETS, "--set", "ground_lux=450",
                     "--set", self.STUCK, "--timeout", "1.5"]) == 3
        record = json.loads(capsys.readouterr().out)
        assert record["stage"] == "executor_error"

    def test_allow_failure_does_not_forgive_executor_errors(self, capsys):
        assert main(["run", *FAST_SETS, "--set", "ground_lux=450",
                     "--set", self.STUCK, "--timeout", "1.5",
                     "--allow-failure"]) == 3

    def test_sweep_simulation_failure_exits_3(self, capsys):
        assert main(["sweep", *FAST_SETS,
                     "--set", "symbol_width_m=1e9",
                     "--axis", "seed=1,2"]) == 3
        assert "outside the physics" in capsys.readouterr().err

    def test_sweep_max_failures_aborts_with_exit_3(self, capsys):
        assert main(["sweep", *FAST_SETS,
                     "--set", "symbol_width_m=1e9",
                     "--axis", "seed=1,2,3,4",
                     "--max-failures", "2"]) == 3
        err = capsys.readouterr().err
        assert "aborted" in err

    def test_clean_sweep_still_exits_0(self, capsys):
        assert main(["sweep", *FAST_SETS, "--set", "ground_lux=450",
                     "--axis", "seed=2,3",
                     "--max-failures", "1", "--timeout", "30"]) == 0


class TestChaosCommand:
    def test_chaos_prints_frontier(self, capsys):
        code = main(["chaos", *FAST_SETS, "--set", "ground_lux=450",
                     "--plan", '{"burst_rate_hz": 10.0}',
                     "--intensity", "0,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos frontier" in out
        assert "degradation" in out

    def test_chaos_writes_records(self, tmp_path, capsys):
        out = tmp_path / "chaos.jsonl"
        assert main(["chaos", *FAST_SETS, "--set", "ground_lux=450",
                     "--plan", '{"saturate_fraction": 0.5}',
                     "--intensity", "0,1", "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 2  # one pinned seed, two rungs
        assert "fault_plan" not in lines[0]["spec"]
        assert lines[1]["spec"]["fault_plan"]["saturate_fraction"] == 0.5

    def test_chaos_empty_plan_is_usage_error(self, capsys):
        assert main(["chaos", *FAST_SETS,
                     "--plan", "{}", "--intensity", "0,1"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_chaos_bad_intensity_is_usage_error(self, capsys):
        assert main(["chaos", *FAST_SETS,
                     "--plan", '{"chunk_drop": 0.1}',
                     "--intensity", ",,"]) == 2

    def test_chaos_fans_seeds_without_explicit_seed(self, capsys):
        pairs = list(zip(FAST_SETS[::2], FAST_SETS[1::2]))
        sets = [arg for flag, value in pairs if value != "seed=3"
                for arg in (flag, value)]
        code = main(["chaos", *sets, "--set", "ground_lux=450",
                     "--count", "3",
                     "--plan", '{"burst_rate_hz": 5.0}',
                     "--intensity", "1"])
        assert code == 0
        assert "3 scenario(s)" in capsys.readouterr().out


class TestSweepProfile:
    def test_profile_prints_stage_table(self, capsys):
        assert main(["sweep", *FAST_SETS, "--set", "ground_lux=450",
                     "--axis", "seed=2,3", "--profile"]) == 0
        text = capsys.readouterr().out
        assert "stage timings over 2 profiled record(s)" in text
        assert "simulate" in text and "decide" in text

    def test_tensor_profile_counts_fused_rows_once(self, capsys):
        # Two optics groups of two rows, each on its own pool task: every
        # row carries its group's counters, which the table counts once.
        assert main(["sweep", *FAST_SETS, "--axis", "ground_lux=450,100",
                     "--axis", "seed=2,3", "--backend", "tensor",
                     "--workers", "2", "--profile"]) == 0
        assert "batch_rows=4" in capsys.readouterr().out

    def test_warm_rerun_reports_no_stale_stage_timings(self, tmp_path,
                                                       capsys):
        # Cache hits did no work: a warm rerun has no stage table and
        # writes no stage_timing events, whatever the cold run traced.
        argv = ["sweep", *FAST_SETS, "--set", "ground_lux=450",
                "--axis", "seed=2,3", "--cache-dir", str(tmp_path / "c"),
                "--profile"]
        assert main(argv) == 0
        assert "stage timings over 2 profiled" in capsys.readouterr().out
        telemetry = tmp_path / "telemetry"
        assert main([*argv, "--telemetry", str(telemetry)]) == 0
        text = capsys.readouterr().out
        assert "2 cached [100%], 0 simulated" in text
        assert "stage timings over" not in text
        assert "no stage traces in these records" in text
        kinds = {json.loads(line)["kind"] for line in
                 (telemetry / "events.jsonl").read_text().splitlines()}
        assert "cache_hit" in kinds and "stage_timing" not in kinds

    def test_profile_state_restored_after_sweep(self, capsys):
        from repro.obs import telemetry_enabled

        before = telemetry_enabled()
        assert main(["sweep", *FAST_SETS, "--set", "ground_lux=450",
                     "--axis", "seed=2", "--profile"]) == 0
        assert telemetry_enabled() == before

    def test_unprofiled_sweep_prints_no_table(self, capsys):
        assert main(["sweep", *FAST_SETS, "--set", "ground_lux=450",
                     "--axis", "seed=2,3"]) == 0
        assert "stage timings" not in capsys.readouterr().out


class TestCacheBackendFlag:
    def test_sqlite_backend_caches_sweeps(self, tmp_path, capsys):
        # SQLite is the one store: --cache-dir alone selects it.
        cache_dir = tmp_path / "cache"
        argv = ["sweep", *FAST_SETS, "--set", "ground_lux=450",
                "--axis", "seed=2,3", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        # The cache directory holds one SQLite database (plus its WAL).
        assert {p.name for p in cache_dir.iterdir()} <= {
            "records.sqlite", "records.sqlite-wal", "records.sqlite-shm"}
        assert (cache_dir / "records.sqlite").exists()
        capsys.readouterr()
        assert main(argv) == 0
        assert "2 cached [100%], 0 simulated" in capsys.readouterr().out
