"""Content-addressed result cache: one SQLite database per directory.

:class:`SqliteResultCache` keeps every record in one database,
``<root>/records.sqlite``, keyed by resolved-spec content hash.  The
database runs in WAL mode, so readers never block the writer, and
record payloads are deterministic per key (the engine's determinism
contract), so last-writer-wins upserts from concurrent sweeps sharing
the cache are idempotent.  Nothing else under the directory is read:
the files of an older sharded-JSON cache are ignored, their lookups
miss and the run fills the database.

The batch runner makes one cache round trip each way per batch: one
:meth:`~SqliteResultCache.get_many` before dispatch (one ``IN (...)``
query per chunk of keys) and one :meth:`~SqliteResultCache.put_many`
after (one write transaction).  Per-key ``get`` and ``put`` are
batches of one.

Any spec change — a different seed, a nudged height, a new decoder —
changes the content hash and therefore misses the cache; stale entries
are never returned, only orphaned (and reclaimable via ``clear``).

Records are stored without their stage trace, and a trace found in an
older payload is dropped on read: a hit did no work, so it carries no
stage timings.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..faults.retry import RetryExhausted, RetryPolicy
from ..obs.events import active_events
from ..obs.registry import active_registry
from .records import RunRecord

__all__ = ["CacheStats", "SQLITE_MAX_VARIABLES", "SqliteResultCache"]

#: Keys per ``IN (...)`` lookup: the bound-variable limit of SQLite
#: builds before 3.32, so every build accepts a full chunk.
SQLITE_MAX_VARIABLES = 999


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance's lifetime.

    Attributes:
        hits: lookups that returned a record.
        misses: lookups that found nothing (or an unparsable payload).
        writes: records persisted.
        write_retries: transient write errors that a retry absorbed.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_retries: int = 0


def _parse(payload: str) -> RunRecord | None:
    """A stored payload as a record without a stage trace, or None when
    it does not parse."""
    try:
        record = RunRecord.from_dict(json.loads(payload))
    except (ValueError, TypeError):
        return None
    record.stage_trace = None
    return record


def _payload(record: RunRecord) -> str:
    """A record's stored JSON: its timed dict without the stage trace."""
    data = record.to_dict()
    data.pop("stage_trace", None)
    return json.dumps(data)


class SqliteResultCache:
    """SQLite-backed spec-hash -> :class:`RunRecord` store.

    One ``records.sqlite`` database under ``root``, in WAL mode so
    readers never block the writer and concurrent sweeps sharing the
    cache serialize on short row upserts instead of whole-file locks.
    Corrupt or torn payloads read as misses: the scenario re-executes
    and its record overwrites them.

    Args:
        root: cache directory (created if missing); the database file
            lives inside it.
        retry_policy: bounded-retry policy for the first-open schema
            setup and for transient write failures
            (``sqlite3.OperationalError`` — e.g. a lock still held past
            the busy timeout — and, on writes, ``OSError``).  Default:
            three attempts, 10 ms base backoff.
    """

    #: Database filename under the cache root.
    FILENAME = "records.sqlite"

    def __init__(self, root: str | Path,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=0.01)
        self.path = self.root / self.FILENAME
        self._conn = sqlite3.connect(self.path, timeout=5.0)
        # Two processes opening a fresh cache race on the WAL switch:
        # changing the journal mode takes an exclusive lock and can
        # report "database is locked" immediately rather than honouring
        # the busy timeout, so first-open initialization retries under
        # the same bounded policy as writes.
        try:
            self.retry_policy.call(self._init_schema,
                                   retry_on=(sqlite3.OperationalError,))
        except RetryExhausted as exc:
            raise exc.last from exc

    def _init_schema(self) -> None:
        """One attempt at the first-open pragmas and table DDL."""
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS records ("
            "key TEXT PRIMARY KEY, payload TEXT NOT NULL)")
        self._conn.commit()

    def get_many(self, keys: Sequence[str]) -> dict[str, RunRecord]:
        """The cached records among ``keys`` (hits only), by key: one
        ``SELECT ... WHERE key IN (...)`` per :data:`SQLITE_MAX_VARIABLES`
        distinct keys.

        An unparsable payload counts as a miss, and a chunk whose query
        fails is a run of misses.  Stats and telemetry count every key,
        duplicates included, and ``cache_hit``/``cache_miss`` events
        follow the order of ``keys``.
        """
        unique = list(dict.fromkeys(keys))
        payloads: dict[str, str] = {}
        for start in range(0, len(unique), SQLITE_MAX_VARIABLES):
            chunk = unique[start:start + SQLITE_MAX_VARIABLES]
            marks = ",".join("?" * len(chunk))
            try:
                payloads.update(self._conn.execute(
                    "SELECT key, payload FROM records "
                    f"WHERE key IN ({marks})", chunk))
            except sqlite3.Error:
                pass
        found = {}
        for key in unique:
            record = _parse(payloads[key]) if key in payloads else None
            if record is not None:
                found[key] = record
        hits = sum(key in found for key in keys)
        self.stats.hits += hits
        self.stats.misses += len(keys) - hits
        registry = active_registry()
        if registry is not None:
            for result, count in (("hit", hits), ("miss", len(keys) - hits)):
                if count:
                    registry.counter("cache_lookups_total",
                                     {"result": result}).inc(count)
        log = active_events()
        if log is not None:
            for key in keys:
                log.emit("cache_hit" if key in found else "cache_miss",
                         key=key)
        return found

    def get(self, key: str) -> RunRecord | None:
        """The cached record for a spec hash, or None."""
        return self.get_many((key,)).get(key)

    def _upsert(self, rows: list[tuple[str, str]]) -> None:
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO records (key, payload) "
                "VALUES (?, ?)", rows)

    def put_many(self, records: Sequence[RunRecord]) -> None:
        """Persist records in one transaction (one ``executemany``
        upsert).

        Transient failures (a writer lock outlasting the busy
        timeout) retry the whole transaction under
        :attr:`retry_policy`; absorbed retries are counted either way.
        A persistent error propagates as the last attempt's original
        exception once the budget is spent, with nothing written.
        """
        rows = [(record.spec_hash, _payload(record)) for record in records]
        if not rows:
            return
        policy = self.retry_policy
        before = policy.retries
        try:
            policy.call(lambda: self._upsert(rows),
                        retry_on=(sqlite3.OperationalError, OSError))
        except RetryExhausted as exc:
            raise exc.last from exc
        finally:
            self.stats.write_retries += policy.retries - before
        self.stats.writes += len(rows)
        registry = active_registry()
        if registry is not None:
            registry.counter("cache_writes_total").inc(len(rows))
            if policy.retries > before:
                registry.counter("cache_write_retries_total").inc(
                    policy.retries - before)

    def put(self, record: RunRecord) -> None:
        """Persist a record under its spec hash."""
        self.put_many((record,))

    def __contains__(self, key: str) -> bool:
        """Membership mirrors :meth:`get`: an unparsable stored payload
        is not "in" the cache."""
        try:
            payload = self.get_payload(key)
        except sqlite3.Error:
            return False
        return payload is not None and _parse(payload) is not None

    def get_payload(self, key: str) -> str | None:
        """The raw stored JSON for a key (tests and diagnostics)."""
        row = self._conn.execute(
            "SELECT payload FROM records WHERE key = ?", (key,)).fetchone()
        return row[0] if row is not None else None

    def __len__(self) -> int:
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM records").fetchone()[0])

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        with self._conn:
            cursor = self._conn.execute("DELETE FROM records")
        return cursor.rowcount

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass

    def __del__(self) -> None:  # pragma: no cover - GC timing
        self.close()
