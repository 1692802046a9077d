"""Set-up, the closed-loop client and the output checks of the benchmark.

The timed regions call only wormdb's public API: `DfsCluster`,
`EngineConfig`, `Database.create`/`open` and the `Session` transaction
and record calls. One client runs one transaction at a time (a closed
loop with no think time); every result is checked against a model of
what the table should hold, outside the timed region.
"""

from __future__ import annotations

import gc
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

from wormdb import Database, DfsCluster, EngineConfig, StorageError
from wormdb import UserVisitsRecord

from inputs import PROBE_KEY, Op, Row

TOTAL_PAGES = 8192  # as in the CLI's default config
LOAD_ROWS_PER_TXN = 10_000
DB_NAME = "db"


def open_cluster(root: str | None) -> DfsCluster:
    config = EngineConfig()
    return DfsCluster(config.dfs_config(), config.num_nodes, root)


def load(rows: list[Row], root: str | None
         ) -> tuple[float, DfsCluster, Database]:
    """Create a store and load `rows` in 10K-row write transactions.

    Returns the seconds this took, the cluster and the database. A
    persistent store (`root` given) starts from an empty directory.
    """
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)
    gc.collect()
    start = time.perf_counter()
    config = EngineConfig()
    cluster = open_cluster(root)
    db = Database.create(cluster, DB_NAME, TOTAL_PAGES, config.page_size,
                         config.post_commit_threshold, config.deferred)
    session = db.session("loader")
    for first in range(0, len(rows), LOAD_ROWS_PER_TXN):
        session.begin("write")
        for row in rows[first:first + LOAD_ROWS_PER_TXN]:
            session.insert_record(row.record)
        session.commit()
    return time.perf_counter() - start, cluster, db


def reopen(root: str) -> Database:
    """A fresh cluster over `root`, opened with restart recovery."""
    config = EngineConfig()
    return Database.open(open_cluster(root), DB_NAME, config.page_size,
                         config.post_commit_threshold, config.deferred,
                         recover=True)


def stored_bytes(cluster: DfsCluster) -> int:
    """Bytes held on DataNodes, every replica counted (no node is down)."""
    return cluster.config.replication_factor * sum(
        cluster.file_entry(name).size_bytes for name in cluster.list_files())


class Model:
    """What the table should hold, in heap order, with updated codes."""

    def __init__(self, rows: list[Row]):
        self.rows = list(rows)
        self.by_key: dict[str, list[Row]] = defaultdict(list)
        for row in rows:
            self.by_key[row.record.source_ip].append(row)
        self.codes: dict[str, str] = {}
        self.live_bytes = sum(row.size for row in rows)
        self._table: list[UserVisitsRecord] | None = None

    def _record(self, row: Row) -> UserVisitsRecord:
        code = self.codes.get(row.record.source_ip)
        if code is None:
            return row.record
        return replace(row.record, country_code=code)

    def table(self) -> list[UserVisitsRecord]:
        if self._table is None:
            self._table = [self._record(row) for row in self.rows]
        return self._table

    def expected(self, key: str) -> list[UserVisitsRecord]:
        return [self._record(row) for row in self.by_key.get(key, ())]

    def key_bytes(self, key: str) -> int:
        return sum(row.size for row in self.by_key.get(key, ()))

    def insert(self, rows: tuple[Row, ...]) -> None:
        for row in rows:
            self.rows.append(row)
            self.by_key[row.record.source_ip].append(row)
            self.live_bytes += row.size
        self._table = None

    def update(self, key: str, code: str) -> None:
        # codes are three letters, like the loaded ones, so packed sizes
        # do not change
        self.codes[key] = code
        self._table = None


@dataclass
class Phase:
    """What one run of the client did and measured."""
    # begin -> commit times by transaction type: "read" holds the full
    # scans and the indexed selects, "probe" the unindexed selects
    latency_s: dict[str, list[float]] = field(
        default_factory=lambda: {"read": [], "probe": [], "write": []})
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0         # time spent inside transactions
    read_dfs_bytes: int = 0     # DFS bytes read by read transactions
    returned_bytes: int = 0     # packed bytes of records they returned
    write_dfs_bytes: int = 0    # DFS bytes written by write transactions
    written_bytes: int = 0      # packed bytes of records inserted/updated
    rows_written: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def committed(self) -> int:
        return self.attempted - self.failed


class Client:
    """One closed-loop client with one session."""

    def __init__(self, cluster: DfsCluster, db: Database, model: Model):
        self.cluster = cluster
        self.db = db
        self.session = db.session("client")
        self.model = model

    def run(self, ops: list[Op], tracer=None) -> Phase:
        """Run `ops` in order, one transaction each."""
        phase = Phase()
        counters = self.cluster.counters
        for number, op in enumerate(ops):
            if tracer is not None:
                tracer.txn_id = number
            read0, written0 = counters.bytes_read, counters.bytes_written
            t0 = time.perf_counter()
            try:
                result = self._execute(op)
            except StorageError as exc:
                phase.busy_s += time.perf_counter() - t0
                if self.session.mode is not None:
                    self.session.abort()
                phase.attempted += 1
                phase.failed += 1
                phase.errors.append(f"{op.kind}: {exc!r}")
                continue
            elapsed = time.perf_counter() - t0
            phase.busy_s += elapsed
            phase.attempted += 1
            if op.kind in ("scan", "probe", "select"):
                kind = "probe" if op.kind == "probe" else "read"
                phase.latency_s[kind].append(elapsed)
                phase.read_dfs_bytes += counters.bytes_read - read0
            else:
                phase.latency_s["write"].append(elapsed)
                phase.write_dfs_bytes += counters.bytes_written - written0
            error = self._check(op, result, phase)
            if error:
                phase.failed += 1
                phase.errors.append(f"{op.kind}: {error}")
        return phase

    def _execute(self, op: Op):
        session = self.session
        if op.kind == "insert":
            session.begin("write")
            for row in op.rows:
                session.insert_record(row.record)
            session.commit()
            return len(op.rows)
        if op.kind == "update":
            session.begin("write")
            changed = session.update_by_key(op.key, op.code, use_index=True)
            session.commit()
            return changed
        session.begin("read")
        if op.kind == "select":
            result = session.select_by_key(op.key, use_index=True)
        elif op.kind == "probe":
            result = session.select_by_key(PROBE_KEY, use_index=False)
        else:
            result = session.scan(len(self.model.rows) + 1)
        session.commit()
        return result

    def _check(self, op: Op, result, phase: Phase) -> str | None:
        """Account the op's record bytes; return a mismatch, if any."""
        model = self.model
        if op.kind == "scan":
            phase.returned_bytes += model.live_bytes
            if len(result) != len(model.rows):
                return f"scan returned {len(result)} rows, " \
                       f"table has {len(model.rows)}"
            if result != model.table():
                return "scan returned other rows than were stored"
        elif op.kind == "probe":
            phase.returned_bytes += model.key_bytes(PROBE_KEY)
            if result != model.expected(PROBE_KEY):
                return f"unindexed select of the probe key returned " \
                       f"{len(result)} rows, not the stored ones"
        elif op.kind == "select":
            phase.returned_bytes += model.key_bytes(op.key)
            if result != model.expected(op.key):
                return f"select {op.key} returned {len(result)} rows, " \
                       f"not the stored ones"
        elif op.kind == "update":
            rows = len(model.by_key.get(op.key, ()))
            model.update(op.key, op.code)
            phase.written_bytes += model.key_bytes(op.key)
            phase.rows_written += rows
            if result != rows:
                return f"update {op.key} changed {result} rows, not {rows}"
        else:
            model.insert(op.rows)
            phase.written_bytes += sum(row.size for row in op.rows)
            phase.rows_written += len(op.rows)
        return None


@dataclass
class Checks:
    """Output checks run after the measured phase."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _read(db: Database, fn):
    session = db.session("checker")
    session.begin("read")
    try:
        return fn(session)
    finally:
        session.commit()


def final_checks(db: Database, model: Model, root: str | None) -> Checks:
    """Whole-table, probe-key and updated-key checks; a persistent store
    is also reopened with a fresh cluster and recovery, and re-counted."""
    checks = Checks()
    try:
        table = _read(db, lambda s: s.scan(len(model.rows) + 1))
        checks.expect(len(table) == len(model.rows),
                      f"table holds {len(table)} rows, "
                      f"expected {len(model.rows)}")
        checks.expect(table == model.table(),
                      "table holds other rows than were stored")
        indexed = _read(db, lambda s: s.select_by_key(PROBE_KEY, True))
        scanned = _read(db, lambda s: s.select_by_key(PROBE_KEY, False))
        expected = model.expected(PROBE_KEY)
        checks.expect(indexed == scanned == expected,
                      f"probe key: indexed select {len(indexed)} rows, "
                      f"unindexed {len(scanned)}, expected {len(expected)}")
        for key, code in model.codes.items():
            rows = _read(db, lambda s: s.select_by_key(key, True))
            checks.expect(
                rows == model.expected(key)
                and all(r.country_code == code for r in rows),
                f"updated key {key} does not read back code {code}")
        if root is not None:
            again = _read(reopen(root),
                          lambda s: s.scan(len(model.rows) + 1))
            checks.expect(len(again) == len(model.rows),
                          f"reopened store holds {len(again)} rows, "
                          f"expected {len(model.rows)}")
            checks.expect(again == model.table(),
                          "reopened store holds other rows than were stored")
    except StorageError as exc:
        checks.expect(False, f"check raised {exc!r}")
    return checks
