"""Tests for the SQLite result store's batch calls, concurrency and
runner wiring.

The contract under test: the store treats corruption as a miss, stays
safe under concurrent writers, and its batch calls
(``get_many``/``put_many``) account exactly like the per-key calls
they replace.
"""

import sqlite3
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import BatchRunner, ScenarioSpec, SqliteResultCache
from repro.engine.cache import SQLITE_MAX_VARIABLES
from repro.engine.executor import error_record, execute_scenario
from repro.obs import telemetry_session

from tests.test_engine_cache import make_record, store_raw


def _concurrent_writer(root, offset, n):
    """Worker-process body: write ``n`` records into a shared cache."""
    cache = SqliteResultCache(root)
    for k in range(offset, offset + n):
        cache.put(make_record(spec_hash=f"{k:064x}", seed=k))
    cache.close()
    return n


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


class TestRunnerCacheSelection:
    def test_path_opens_sqlite_store(self, tmp_path):
        for root in (tmp_path, str(tmp_path)):
            with BatchRunner(cache=root) as runner:
                assert isinstance(runner.cache, SqliteResultCache)
                assert runner.cache.path == tmp_path / "records.sqlite"
            runner.cache.close()

    def test_instance_passthrough(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        with BatchRunner(cache=cache) as runner:
            assert runner.cache is cache
        cache.close()


def _key(k):
    return f"{k:064x}"


def _records(ks):
    return [make_record(spec_hash=_key(k), seed=k) for k in ks]


@pytest.fixture
def cache(tmp_path):
    store = SqliteResultCache(tmp_path)
    yield store
    store.close()


class TestBatchContract:
    """``get_many``/``put_many``."""

    def test_get_many_returns_exactly_the_hits(self, cache):
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

    def test_corrupt_payload_in_a_batch_is_a_miss(self, cache):
        stored = _records(range(3))
        cache.put_many(stored)
        store_raw(cache, _key(1), "{not json")
        found = cache.get_many([_key(0), _key(1), _key(2)])
        assert found == {_key(0): stored[0], _key(2): stored[2]}
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    def test_batch_over_the_variable_limit_is_chunked(self, cache):
        n = 1200
        assert SQLITE_MAX_VARIABLES < n
        stored = _records(range(0, n, 2))  # hits in both chunks
        cache.put_many(stored)
        statements = []
        if sys.version_info >= (3, 11):
            # An unchunked IN list would now fail outright.
            cache._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER,
                                 SQLITE_MAX_VARIABLES)
        cache._conn.set_trace_callback(statements.append)
        found = cache.get_many([_key(k) for k in range(n)])
        assert found == {r.spec_hash: r for r in stored}
        assert (cache.stats.hits, cache.stats.misses) == (n // 2, n // 2)
        selects = [s for s in statements if s.startswith("SELECT")]
        assert len(selects) == -(-n // SQLITE_MAX_VARIABLES)

    def test_put_many_is_idempotent(self, cache):
        stored = _records(range(6))
        cache.put_many(stored)
        first = [cache.get_payload(r.spec_hash) for r in stored]
        cache.put_many(stored)
        assert len(cache) == 6
        assert [cache.get_payload(r.spec_hash) for r in stored] == first
        assert cache.stats.writes == 12
        assert cache.get_many([r.spec_hash for r in stored]) == {
            r.spec_hash: r for r in stored}

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

    def test_stats_and_telemetry_match_per_key_calls(self, tmp_path):
        stored = _records(range(4))
        # Hits and misses interleaved, one key repeated.
        keys = [_key(2), _key(8), _key(0), _key(2), _key(9), _key(3)]
        outcomes = {}
        for mode in ("per_key", "batch"):
            with telemetry_session() as (registry, events):
                cache = SqliteResultCache(tmp_path / mode)
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
                    [cache.get_payload(r.spec_hash) for r in stored])
                cache.close()
        assert outcomes["batch"] == outcomes["per_key"]
        found, stats, snapshot, events, _ = outcomes["batch"]
        assert (stats.hits, stats.misses, stats.writes) == (4, 2, 4)
        assert [kind for kind, _ in events] == [
            "cache_hit", "cache_miss", "cache_hit", "cache_hit",
            "cache_miss", "cache_hit"]
        assert [fields["key"] for _, fields in events] == keys

    def test_runner_never_caches_executor_errors(self, cache, monkeypatch):
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
