"""Tests for the pluggable cache backends (disk vs SQLite).

The contract under test: both backends store byte-identical record
payloads under the same content-hash keys, treat corruption as a miss,
never touch foreign files, and stay safe under concurrent writers.
The batch calls (``get_many``/``put_many``) account exactly like the
per-key calls they replace.
"""

import json
import sqlite3
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import (
    BatchRunner,
    ResultCache,
    RunRecord,
    ScenarioSpec,
    SqliteResultCache,
    open_cache,
)
from repro.engine.cache import (
    BACKEND_ENV,
    CACHE_BACKENDS,
    SQLITE_MAX_VARIABLES,
)
from repro.engine.executor import error_record, execute_scenario
from repro.obs import telemetry_session


def make_record(spec_hash="ab" + "0" * 62, seed=7, success=True):
    return RunRecord(
        spec_hash=spec_hash,
        spec={"bits": "00", "seed": seed},
        seed=seed,
        sent_bits="00",
        decoded_bits="00" if success else "",
        success=success,
        stage="decoded" if success else "preamble_not_found",
        ber=0.0 if success else 1.0,
        n_samples=500,
        trace_duration_s=0.25,
        sample_rate_hz=2000.0,
        noise_floor_lux=450.0,
        elapsed_s=0.01,
    )


def _concurrent_writer(root, offset, n):
    """Worker-process body: write ``n`` records into a shared cache."""
    cache = SqliteResultCache(root)
    for k in range(offset, offset + n):
        cache.put(make_record(spec_hash=f"{k:064x}", seed=k))
    cache.close()
    return n


class TestOpenCache:
    def test_defaults_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(open_cache(tmp_path), ResultCache)

    def test_selects_by_name(self, tmp_path):
        assert isinstance(open_cache(tmp_path, "disk"), ResultCache)
        cache = open_cache(tmp_path, "sqlite")
        assert isinstance(cache, SqliteResultCache)
        cache.close()

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        cache = open_cache(tmp_path)
        assert isinstance(cache, SqliteResultCache)
        cache.close()
        # An explicit name always wins over the environment.
        assert isinstance(open_cache(tmp_path, "disk"), ResultCache)

    def test_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="cache backend"):
            open_cache(tmp_path, "redis")

    def test_backend_names_are_pinned(self):
        assert CACHE_BACKENDS == ("disk", "sqlite")


class TestSqliteRoundtrip:
    def test_put_get_contains_len(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash) == record
        assert record.spec_hash in cache
        assert len(cache) == 1
        assert cache.stats.writes == 1
        assert cache.stats.hits == 1
        cache.close()

    def test_miss_counts(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        assert cache.get("cd" + "1" * 62) is None
        assert cache.stats.misses == 1
        cache.close()

    def test_overwrite_is_idempotent(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        cache.put(make_record())
        cache.put(make_record())
        assert len(cache) == 1
        cache.close()

    def test_clear(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        cache.put(make_record(spec_hash="ab" + "0" * 62))
        cache.put(make_record(spec_hash="cd" + "1" * 62))
        assert cache.clear() == 2
        assert len(cache) == 0
        cache.close()

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        key = "ee" + "2" * 62
        with sqlite3.connect(cache.path) as conn:
            conn.execute(
                "INSERT INTO records (key, payload) VALUES (?, ?)",
                (key, "{not json"))
        assert cache.get(key) is None
        assert key not in cache
        assert cache.stats.misses == 1
        cache.close()

    def test_close_is_idempotent(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        cache.close()
        cache.close()


class TestBackendParity:
    def test_stored_payloads_are_byte_identical(self, tmp_path):
        record = make_record()
        disk = ResultCache(tmp_path / "disk")
        disk.put(record)
        sql = SqliteResultCache(tmp_path / "sqlite")
        sql.put(record)
        disk_bytes = (tmp_path / "disk" / record.spec_hash[:2]
                      / f"{record.spec_hash}.json").read_text()
        assert sql.get_payload(record.spec_hash) == disk_bytes
        assert disk.get(record.spec_hash) == sql.get(record.spec_hash)
        sql.close()

    @pytest.mark.parametrize("n_receivers", [1, 3])
    def test_cold_and_warm_sweeps_agree_across_backends(self, tmp_path,
                                                        n_receivers):
        specs = [ScenarioSpec(seed=s, n_receivers=n_receivers)
                 for s in (2, 3)]
        passes = {}
        for backend in CACHE_BACKENDS:
            with BatchRunner(cache=tmp_path / backend,
                             cache_backend=backend) as runner:
                cold = runner.run(specs)
                warm = runner.run(specs)
            assert cold.stats.cache_hits == 0
            assert warm.stats.cache_hits == len(specs)
            passes[backend] = ([r.canonical_json() for r in cold.records],
                               [r.canonical_json() for r in warm.records])
        for backend, (cold_json, warm_json) in passes.items():
            assert cold_json == warm_json, backend
        assert passes["disk"] == passes["sqlite"]


class TestConcurrentSqliteWriters:
    def test_two_processes_share_one_database(self, tmp_path):
        # Overlapping key ranges: upserts must be idempotent, and the
        # WAL database must survive two writer processes.
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_concurrent_writer, tmp_path, 0, 12),
                       pool.submit(_concurrent_writer, tmp_path, 6, 12)]
            assert [f.result(timeout=60) for f in futures] == [12, 12]
        cache = SqliteResultCache(tmp_path)
        assert len(cache) == 18
        for k in range(18):
            record = cache.get(f"{k:064x}")
            assert record is not None
            assert record.seed == k
        cache.close()


class TestDiskForeignFiles:
    def _stray_files(self, root):
        """Plant non-entry files a cache root might plausibly contain."""
        (root / "notes.json").write_text("{}")
        shard = root / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        (shard / "README.md").write_text("hands off")
        (shard / "short.json").write_text("{}")             # not 64 hex
        (shard / ("ff" + "0" * 62 + ".json")).write_text("{}")  # wrong shard
        (shard / ("AB" + "0" * 62 + ".json")).write_text("{}")  # not hex
        return [root / "notes.json", shard / "README.md",
                shard / "short.json", shard / ("ff" + "0" * 62 + ".json"),
                shard / ("AB" + "0" * 62 + ".json")]

    def test_len_ignores_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_record())
        strays = self._stray_files(tmp_path)
        assert len(cache) == 1
        assert all(p.exists() for p in strays)

    def test_clear_leaves_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_record(spec_hash="ab" + "0" * 62))
        cache.put(make_record(spec_hash="cd" + "1" * 62))
        strays = self._stray_files(tmp_path)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert all(p.exists() for p in strays)


class TestRunnerCacheSelection:
    def test_path_plus_backend_opens_named_backend(self, tmp_path,
                                                   monkeypatch):
        with BatchRunner(cache=tmp_path, cache_backend="sqlite") as runner:
            assert isinstance(runner.cache, SqliteResultCache)
        runner.cache.close()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with BatchRunner(cache=str(tmp_path)) as runner:
            assert isinstance(runner.cache, ResultCache)

    def test_instance_plus_backend_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="cache_backend"):
            BatchRunner(cache=cache, cache_backend="sqlite")

    def test_instance_passthrough(self, tmp_path):
        cache = ResultCache(tmp_path)
        with BatchRunner(cache=cache) as runner:
            assert runner.cache is cache


def _key(k):
    return f"{k:064x}"


def _records(ks):
    return [make_record(spec_hash=_key(k), seed=k) for k in ks]


def _corrupt(cache, key, text):
    """Overwrite the stored entry for ``key`` with raw ``text``."""
    if isinstance(cache, SqliteResultCache):
        conn = sqlite3.connect(cache.path)
        with conn:
            conn.execute("INSERT OR REPLACE INTO records (key, payload) "
                         "VALUES (?, ?)", (key, text))
        conn.close()
    else:
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _stored(cache, key):
    """The raw stored payload for ``key`` (None when absent)."""
    if isinstance(cache, SqliteResultCache):
        return cache.get_payload(key)
    path = cache._path(key)
    return path.read_text() if path.exists() else None


@pytest.fixture(params=CACHE_BACKENDS)
def backend(request):
    return request.param


def _close(cache):
    if isinstance(cache, SqliteResultCache):
        cache.close()


class TestBatchContract:
    """``get_many``/``put_many`` on both backends."""

    def test_get_many_returns_exactly_the_hits(self, tmp_path, backend):
        cache = open_cache(tmp_path, backend)
        stored = _records(range(5))
        cache.put_many(stored)
        found = cache.get_many([_key(0), _key(7), _key(3), _key(4),
                                _key(9)])
        assert found == {_key(0): stored[0], _key(3): stored[3],
                         _key(4): stored[4]}
        assert (cache.stats.hits, cache.stats.misses) == (3, 2)
        assert cache.stats.writes == 5
        assert cache.get_many([]) == {}
        assert (cache.stats.hits, cache.stats.misses) == (3, 2)
        _close(cache)

    def test_corrupt_payload_in_a_batch_is_a_miss(self, tmp_path, backend):
        cache = open_cache(tmp_path, backend)
        stored = _records(range(3))
        cache.put_many(stored)
        _corrupt(cache, _key(1), "{not json")
        found = cache.get_many([_key(0), _key(1), _key(2)])
        assert found == {_key(0): stored[0], _key(2): stored[2]}
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        _close(cache)

    def test_batch_over_the_variable_limit_is_chunked(self, tmp_path,
                                                      backend):
        n = 1200
        assert SQLITE_MAX_VARIABLES < n
        cache = open_cache(tmp_path, backend)
        stored = _records(range(0, n, 2))  # hits in both chunks
        cache.put_many(stored)
        statements = []
        if isinstance(cache, SqliteResultCache):
            if sys.version_info >= (3, 11):
                # An unchunked IN list would now fail outright.
                cache._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER,
                                     SQLITE_MAX_VARIABLES)
            cache._conn.set_trace_callback(statements.append)
        found = cache.get_many([_key(k) for k in range(n)])
        assert found == {r.spec_hash: r for r in stored}
        assert (cache.stats.hits, cache.stats.misses) == (n // 2, n // 2)
        if isinstance(cache, SqliteResultCache):
            selects = [s for s in statements if s.startswith("SELECT")]
            assert len(selects) == -(-n // SQLITE_MAX_VARIABLES)
        _close(cache)

    def test_put_many_is_idempotent(self, tmp_path, backend):
        cache = open_cache(tmp_path, backend)
        stored = _records(range(6))
        cache.put_many(stored)
        first = [_stored(cache, r.spec_hash) for r in stored]
        cache.put_many(stored)
        assert len(cache) == 6
        assert [_stored(cache, r.spec_hash) for r in stored] == first
        assert cache.stats.writes == 12
        assert cache.get_many([r.spec_hash for r in stored]) == {
            r.spec_hash: r for r in stored}
        _close(cache)

    def test_sqlite_put_many_commits_once(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        statements = []
        cache._conn.set_trace_callback(statements.append)
        cache.put_many(_records(range(40)))
        assert statements.count("COMMIT") == 1
        cache.put_many([])
        assert statements.count("COMMIT") == 1
        cache._conn.set_trace_callback(None)
        assert len(cache) == 40
        cache.close()

    def test_stats_and_telemetry_match_per_key_calls(self, tmp_path,
                                                     backend):
        stored = _records(range(4))
        # Hits and misses interleaved, one key repeated.
        keys = [_key(2), _key(8), _key(0), _key(2), _key(9), _key(3)]
        outcomes = {}
        for mode in ("per_key", "batch"):
            with telemetry_session() as (registry, events):
                cache = open_cache(tmp_path / mode, backend)
                if mode == "per_key":
                    for record in stored:
                        cache.put(record)
                    found = {k: r for k in keys
                             if (r := cache.get(k)) is not None}
                else:
                    cache.put_many(stored)
                    found = cache.get_many(keys)
                outcomes[mode] = (
                    found, cache.stats, registry.snapshot(),
                    [(e.kind, e.fields) for e in events.events],
                    [_stored(cache, r.spec_hash) for r in stored])
                _close(cache)
        assert outcomes["batch"] == outcomes["per_key"]
        found, stats, snapshot, events, _ = outcomes["batch"]
        assert (stats.hits, stats.misses, stats.writes) == (4, 2, 4)
        assert [kind for kind, _ in events] == [
            "cache_hit", "cache_miss", "cache_hit", "cache_hit",
            "cache_miss", "cache_hit"]
        assert [fields["key"] for _, fields in events] == keys

    def test_runner_never_caches_executor_errors(self, tmp_path, backend,
                                                 monkeypatch):
        specs = [ScenarioSpec(
            source="sun", detector="led", cap=False, ground="tarmac",
            bits="00", symbol_width_m=0.1, speed_mps=5.0,
            receiver_height_m=0.25, start_position_m=-1.5,
            sample_rate_hz=2000.0, ground_lux=450.0, seed=s)
            for s in (2, 3)]

        def fake_execute(self, pending):
            return [error_record(spec, "worker died") if spec.seed == 2
                    else execute_scenario(spec) for spec in pending]

        monkeypatch.setattr(BatchRunner, "_execute", fake_execute)
        cache = open_cache(tmp_path, backend)
        runner = BatchRunner(cache=cache)
        first = runner.run(specs)
        assert [r.stage for r in first.records][0] == "executor_error"
        assert cache.stats.writes == 1
        assert specs[0].content_hash() not in cache
        assert specs[1].content_hash() in cache
        second = runner.run(specs)
        assert second.stats.cache_hits == 1
        assert second.records[0].stage == "executor_error"
        assert cache.stats.writes == 1
        _close(cache)
