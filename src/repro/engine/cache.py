"""Content-addressed result cache, behind a pluggable backend.

:class:`CacheBackend` is the protocol the batch runner talks to; two
implementations ship:

* :class:`ResultCache` — one JSON file per resolved-spec hash, sharded
  by the first two hex digits (``<root>/ab/<hash>.json``) so
  directories stay small even for hundred-thousand-scenario sweeps.
  Writes are atomic (temp file + rename), which makes the cache safe
  to share between the parallel workers of several concurrent sweeps:
  a reader either sees a complete record or a miss, never a torn file.
* :class:`SqliteResultCache` — a single SQLite database in WAL mode
  (``<root>/records.sqlite``): one inode instead of one per record,
  and safe under concurrent writers because record payloads are
  deterministic per key, so last-writer-wins upserts are idempotent.

Both keep the same content-hash keys and byte-identical record
payloads — a sweep's records do not depend on which backend cached
them.  :func:`open_cache` selects a backend by name (CLI
``--cache-backend``, or the ``REPRO_CACHE_BACKEND`` environment
variable for CI legs).

The batch runner makes one cache round trip each way per batch: one
:meth:`~CacheBackend.get_many` before dispatch and one
:meth:`~CacheBackend.put_many` after (on SQLite, one ``IN (...)``
query per chunk of keys and one write transaction).  Per-key ``get``
and ``put`` are batches of one.

Any spec change — a different seed, a nudged height, a new decoder —
changes the content hash and therefore misses the cache; stale entries
are never returned, only orphaned (and reclaimable via ``clear``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Iterator, Mapping, Protocol, Sequence,
                    runtime_checkable)

from ..faults.retry import RetryExhausted, RetryPolicy
from ..obs.events import active_events
from ..obs.registry import MetricsRegistry, active_registry
from .records import RunRecord

__all__ = ["BACKEND_ENV", "CACHE_BACKENDS", "CacheBackend", "CacheStats",
           "ResultCache", "SQLITE_MAX_VARIABLES", "SqliteResultCache",
           "open_cache"]

#: Recognised backend names, in default-preference order.
CACHE_BACKENDS = ("disk", "sqlite")

#: Environment override consulted when no backend is named explicitly
#: (CI legs run whole suites against one backend through this).
BACKEND_ENV = "REPRO_CACHE_BACKEND"

#: Keys per ``IN (...)`` lookup on SQLite: the bound-variable limit of
#: builds before 3.32, so every build accepts a full chunk.
SQLITE_MAX_VARIABLES = 999

_HEX = set("0123456789abcdef")


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance's lifetime.

    Attributes:
        hits: lookups that returned a record.
        misses: lookups that found nothing (or an unreadable file).
        writes: records persisted.
        write_retries: transient IO errors that a retry absorbed.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_retries: int = 0

    def to_metrics(self, registry: MetricsRegistry,
                   backend: str = "unknown") -> None:
        """Fold lifetime totals into ``registry`` (common stats shape).

        One-shot: callers fold a stats object at most once per
        lifetime, or the totals double-count.  Live runs instead use
        the incremental per-lookup instrumentation below.
        """
        lookups = registry.counter
        lookups("cache_lookups_total",
                {"backend": backend, "result": "hit"}).inc(self.hits)
        lookups("cache_lookups_total",
                {"backend": backend, "result": "miss"}).inc(self.misses)
        lookups("cache_writes_total", {"backend": backend}).inc(self.writes)
        lookups("cache_write_retries_total",
                {"backend": backend}).inc(self.write_retries)


def _parse(payload: str) -> RunRecord | None:
    """A stored payload as a record, or None when it does not parse."""
    try:
        return RunRecord.from_dict(json.loads(payload))
    except (ValueError, TypeError):
        return None


def _observe_lookups(cache: ResultCache | SqliteResultCache,
                     keys: Sequence[str],
                     found: Mapping[str, RunRecord]) -> None:
    """Account one batch of lookups: stats, and per-key telemetry in
    key order (counters and events are no-ops when off)."""
    hits = sum(key in found for key in keys)
    cache.stats.hits += hits
    cache.stats.misses += len(keys) - hits
    backend = cache.backend_name
    registry = active_registry()
    if registry is not None:
        for result, count in (("hit", hits), ("miss", len(keys) - hits)):
            if count:
                registry.counter("cache_lookups_total",
                                 {"backend": backend,
                                  "result": result}).inc(count)
    log = active_events()
    if log is not None:
        for key in keys:
            log.emit("cache_hit" if key in found else "cache_miss",
                     backend=backend, key=key)


def _write_retried(cache: ResultCache | SqliteResultCache,
                   write: Callable[[], None],
                   retry_on: tuple[type[BaseException], ...],
                   n_records: int) -> None:
    """Run one write of ``n_records`` under the cache's retry policy.

    Absorbed retries are counted either way; the records count as
    written only on success.  Once the budget is spent the last
    attempt's original exception propagates, so callers see the same
    exception type as an unretried write.
    """
    policy = cache.retry_policy
    before = policy.retries
    try:
        policy.call(write, retry_on=retry_on)
    except RetryExhausted as exc:
        raise exc.last from exc
    finally:
        cache.stats.write_retries += policy.retries - before
    cache.stats.writes += n_records
    registry = active_registry()
    if registry is not None:
        labels = {"backend": cache.backend_name}
        registry.counter("cache_writes_total", labels).inc(n_records)
        if policy.retries > before:
            registry.counter("cache_write_retries_total",
                             labels).inc(policy.retries - before)


@runtime_checkable
class CacheBackend(Protocol):
    """What the batch runner requires of a result cache.

    Keyed by resolved-spec content hash; values are complete
    :class:`RunRecord` payloads.  Implementations must treat corrupt
    or torn entries as misses (the scenario re-executes and
    overwrites), and must expose a :class:`CacheStats` instance as
    ``stats``.
    """

    stats: CacheStats
    #: Telemetry label (``cache_lookups_total{backend}`` and events).
    backend_name: str

    def get_many(self, keys: Sequence[str]) -> dict[str, RunRecord]:
        """The cached records among ``keys`` (hits only), by key.

        Stats and telemetry count every key, duplicates included, and
        ``cache_hit``/``cache_miss`` events follow the order of
        ``keys``.
        """
        ...

    def put_many(self, records: Sequence[RunRecord]) -> None:
        """Persist records under their spec hashes."""
        ...

    def get(self, key: str) -> RunRecord | None:
        """The cached record for a spec hash, or None."""
        ...

    def put(self, record: RunRecord) -> None:
        """Persist a record under its spec hash."""
        ...

    def __contains__(self, key: str) -> bool:
        ...

    def __len__(self) -> int:
        ...

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        ...


class ResultCache:
    """Disk-backed spec-hash -> :class:`RunRecord` store.

    Args:
        root: cache directory (created if missing).
        retry_policy: bounded-retry policy for transient ``OSError``
            on writes (a shared cache on network storage hiccups;
            a busy tmpfs briefly runs out of inodes).  Default: three
            attempts, 10 ms base backoff.  Non-transient errors keep
            failing and propagate after the budget.
    """

    #: Telemetry label for this backend.
    backend_name = "disk"

    def __init__(self, root: str | Path,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=0.01)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        """Paths that are actually record entries.

        A record lives at ``<root>/<hh>/<64-hex-hash>.json`` with the
        shard matching the hash prefix; anything else in the tree — a
        stray notes file, a foreign ``.json``, a leftover editor
        buffer — is not ours and is never counted or deleted.
        """
        for path in self.root.glob("??/*.json"):
            stem = path.stem
            if (len(stem) == 64 and stem.startswith(path.parent.name)
                    and set(stem) <= _HEX):
                yield path

    def _read(self, key: str) -> RunRecord | None:
        """Parse the record under ``key``, or None when unreadable."""
        try:
            payload = self._path(key).read_text()
        except OSError:
            return None
        return _parse(payload)

    def get_many(self, keys: Sequence[str]) -> dict[str, RunRecord]:
        """The cached records among ``keys``: one file read per key.

        Corrupt or half-written files count as misses rather than
        errors — the scenario simply re-executes and overwrites them.
        """
        found = {}
        for key in dict.fromkeys(keys):
            record = self._read(key)
            if record is not None:
                found[key] = record
        _observe_lookups(self, keys, found)
        return found

    def get(self, key: str) -> RunRecord | None:
        """The cached record for a spec hash, or None."""
        return self.get_many((key,)).get(key)

    def _write_atomic(self, path: Path, payload: str) -> None:
        """One atomic write attempt: temp file in-dir, then rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put_many(self, records: Sequence[RunRecord]) -> None:
        """Persist each record atomically under its spec hash.

        Transient ``OSError`` (network-storage hiccup, inode pressure)
        is retried per file under :attr:`retry_policy`; a persistent
        error propagates as the original ``OSError`` once the budget is
        spent, with the records before it written.
        """
        for record in records:
            path = self._path(record.spec_hash)
            payload = json.dumps(record.to_dict())
            _write_retried(self, lambda: self._write_atomic(path, payload),
                           (OSError,), 1)

    def put(self, record: RunRecord) -> None:
        """Persist a record atomically under its spec hash."""
        self.put_many((record,))

    def __contains__(self, key: str) -> bool:
        """Membership mirrors :meth:`get`: a corrupt or torn file that
        ``get`` would treat as a miss is not "in" the cache either."""
        return self._read(key) is not None

    def __len__(self) -> int:
        """Entry *files* on disk — a cheap count that, unlike the
        parsing ``in``/``get``, may include unreadable entries but
        never foreign files (see :meth:`_entries`)."""
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed.

        Only record entries are touched — foreign files that happen to
        live under the cache root are left alone.
        """
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class SqliteResultCache:
    """SQLite-backed spec-hash -> :class:`RunRecord` store.

    One ``records.sqlite`` database under ``root``, in WAL mode so
    readers never block the writer and concurrent sweeps sharing the
    cache serialize on short row upserts instead of whole-file locks.
    Record payloads are deterministic per key (the engine's
    determinism contract), so ``INSERT OR REPLACE`` under concurrent
    writers is idempotent — last writer wins with identical bytes.

    Args:
        root: cache directory (created if missing); the database file
            lives inside it, so ``--cache-dir`` means the same thing
            for both backends.
        retry_policy: bounded-retry policy for transient write
            failures (``sqlite3.OperationalError`` — e.g. a lock
            still held past the busy timeout — and ``OSError``).
            Default: three attempts, 10 ms base backoff.
    """

    #: Database filename under the cache root.
    FILENAME = "records.sqlite"

    #: Telemetry label for this backend.
    backend_name = "sqlite"

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
        """The cached records among ``keys``: one ``SELECT ... WHERE
        key IN (...)`` per :data:`SQLITE_MAX_VARIABLES` distinct keys.

        An unparsable payload counts as a miss, mirroring the disk
        backend's treatment of corrupt files; a chunk whose query fails
        is a run of misses.
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
        _observe_lookups(self, keys, found)
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
        :attr:`retry_policy`; a persistent error propagates as the
        original exception once the budget is spent, with nothing
        written.
        """
        rows = [(record.spec_hash, json.dumps(record.to_dict()))
                for record in records]
        if rows:
            _write_retried(self, lambda: self._upsert(rows),
                           (sqlite3.OperationalError, OSError), len(rows))

    def put(self, record: RunRecord) -> None:
        """Persist a record under its spec hash."""
        self.put_many((record,))

    def __contains__(self, key: str) -> bool:
        """Membership mirrors :meth:`get` (and the disk backend): an
        unparsable stored payload is not "in" the cache."""
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


def open_cache(root: str | Path, backend: str | None = None,
               retry_policy: RetryPolicy | None = None) -> CacheBackend:
    """Open a result cache at ``root`` with the named backend.

    Args:
        root: cache directory.
        backend: ``"disk"`` or ``"sqlite"``; None consults the
            ``REPRO_CACHE_BACKEND`` environment variable and falls
            back to ``"disk"``.
        retry_policy: forwarded to the backend.

    Raises:
        ValueError: on an unrecognised backend name.
    """
    name = backend if backend is not None else (
        os.environ.get(BACKEND_ENV, "").strip().lower() or "disk")
    if name not in CACHE_BACKENDS:
        raise ValueError(f"cache backend must be one of {CACHE_BACKENDS}, "
                         f"got {name!r}")
    if name == "sqlite":
        return SqliteResultCache(root, retry_policy=retry_policy)
    return ResultCache(root, retry_policy=retry_policy)
