"""Tests for repro.engine.cache — the content-hash SQLite result store."""

import json
import sqlite3

import pytest

from repro.engine import RunRecord, SqliteResultCache
from repro.faults.retry import RetryPolicy


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


@pytest.fixture
def cache(tmp_path):
    store = SqliteResultCache(tmp_path)
    yield store
    store.close()


def store_raw(cache, key, text):
    """Store raw ``text`` as the payload for ``key``, bypassing ``put``."""
    conn = sqlite3.connect(cache.path)
    with conn:
        conn.execute("INSERT OR REPLACE INTO records (key, payload) "
                     "VALUES (?, ?)", (key, text))
    conn.close()


class TestRoundtrip:
    def test_put_get(self, cache):
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash) == record
        assert record.spec_hash in cache
        assert len(cache) == 1
        assert cache.path == cache.root / "records.sqlite"

    def test_miss(self, cache):
        assert cache.get("cd" + "1" * 62) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_stats_track_hits_and_writes(self, cache):
        record = make_record()
        cache.put(record)
        cache.get(record.spec_hash)
        cache.get("ff" + "2" * 62)
        assert cache.stats.writes == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_timing_survives_roundtrip(self, cache):
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash).elapsed_s == record.elapsed_s


class TestRobustness:
    def test_corrupt_file_is_a_miss(self, cache):
        record = make_record()
        cache.put(record)
        store_raw(cache, record.spec_hash, "{not json")
        assert cache.get(record.spec_hash) is None

    def test_wrong_schema_is_a_miss(self, cache):
        record = make_record()
        cache.put(record)
        store_raw(cache, record.spec_hash, json.dumps({"bogus": 1}))
        assert cache.get(record.spec_hash) is None

    def test_clear(self, cache):
        cache.put(make_record(spec_hash="ab" + "0" * 62))
        cache.put(make_record(spec_hash="cd" + "1" * 62))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_overwrite_updates(self, cache):
        cache.put(make_record(success=True))
        cache.put(make_record(success=False))
        assert cache.get(make_record().spec_hash).success is False


class TestCorruptEntries:
    """Regression: membership must mirror readability — a torn payload
    that ``get()`` treats as a miss must not satisfy ``in``."""

    def test_torn_file_not_contained(self, cache):
        record = make_record()
        store_raw(cache, record.spec_hash, '{"spec_hash": "ab')  # torn
        assert record.spec_hash not in cache
        assert cache.get(record.spec_hash) is None

    def test_wrong_schema_not_contained(self, cache):
        record = make_record()
        store_raw(cache, record.spec_hash, '{"unknown_field": 1}')
        assert record.spec_hash not in cache
        assert cache.get(record.spec_hash) is None

    def test_membership_consistent_with_get_after_put(self, cache):
        record = make_record()
        assert record.spec_hash not in cache
        cache.put(record)
        assert record.spec_hash in cache
        assert cache.get(record.spec_hash) == record

    def test_overwriting_corrupt_entry_repairs_membership(self, cache):
        record = make_record()
        store_raw(cache, record.spec_hash, "not json at all")
        assert record.spec_hash not in cache
        cache.put(record)
        assert record.spec_hash in cache
        assert cache.get(record.spec_hash) == record


class TestInvalidation:
    def test_spec_change_misses(self, cache):
        """A changed spec gets a new hash, so stale results never leak."""
        from repro.engine import ScenarioSpec

        spec = ScenarioSpec(seed=1)
        record = make_record(spec_hash=spec.content_hash())
        cache.put(record)
        assert cache.get(spec.content_hash()) == record
        nudged = spec.replace(receiver_height_m=0.21)
        assert cache.get(nudged.content_hash()) is None


class TestOldShardedDirectory:
    def test_sharded_json_entries_are_ignored(self, tmp_path):
        # A directory an older sharded-JSON cache filled: its files are
        # never read, so lookups miss and the database fills up.
        record = make_record()
        shard = tmp_path / record.spec_hash[:2]
        shard.mkdir()
        legacy = shard / f"{record.spec_hash}.json"
        legacy.write_text(json.dumps(record.to_dict()))
        cache = SqliteResultCache(tmp_path)
        assert cache.get(record.spec_hash) is None
        assert len(cache) == 0
        cache.put(record)
        assert cache.get(record.spec_hash) == record
        assert legacy.exists()
        cache.close()


class TestWriteRetry:
    """Transient SQLite errors on put() are absorbed by the retry policy."""

    def _flaky_cache(self, tmp_path, monkeypatch, fail_times):
        cache = SqliteResultCache(tmp_path, retry_policy=RetryPolicy(
            max_attempts=3, base_delay_s=0.0))
        upsert = cache._upsert
        state = {"left": fail_times}

        def flaky_upsert(rows):
            if state["left"] > 0:
                state["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return upsert(rows)

        monkeypatch.setattr(cache, "_upsert", flaky_upsert)
        return cache

    def test_transient_error_retried_to_success(self, tmp_path,
                                                monkeypatch):
        cache = self._flaky_cache(tmp_path, monkeypatch, fail_times=2)
        record = make_record()
        cache.put(record)
        assert cache.get(record.spec_hash) == record
        assert cache.stats.writes == 1
        assert cache.stats.write_retries == 2
        cache.close()

    def test_persistent_error_propagates_as_operational_error(
            self, tmp_path, monkeypatch):
        cache = self._flaky_cache(tmp_path, monkeypatch, fail_times=99)
        opened = cache.retry_policy.attempts_made  # the schema setup
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            cache.put(make_record())
        assert cache.stats.writes == 0
        assert cache.stats.write_retries == 2
        assert cache.retry_policy.attempts_made - opened == 3
        assert len(cache) == 0
        cache.close()

    def test_default_policy_is_bounded(self, cache):
        assert cache.retry_policy.max_attempts == 3
        assert cache.retry_policy.base_delay_s == pytest.approx(0.01)
