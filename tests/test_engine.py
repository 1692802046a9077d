import itertools
import random
import threading
from dataclasses import replace
from datetime import date

import pytest

from wormdb.dfs import DfsCluster, DfsConfig
from wormdb.engine import (
    HEAP_START,
    MAX_INDEX_SEGMENTS,
    Catalog,
    Database,
    IndexSegment,
)
from wormdb.errors import (
    AllReplicasDead,
    DatabaseFull,
    LockError,
    NotFound,
    OutOfRange,
    StorageError,
    UpgradeConflict,
    ValueTooLong,
)
from wormdb.faults import SPDU_DFS_FAULT_POINTS, CrashPoint, FaultInjector
from wormdb.locks import LockService
from wormdb.metafile import MetaDfsManager, constituent_name
from wormdb.records import UserVisitsRecord

PAGE = 512
BLOCK = 8192
TOTAL = 512


def make_db(total=TOTAL, threshold=64, deferred=True, faults=None,
            root=None, nodes=4, replication=2, page=PAGE, block=BLOCK):
    cluster = DfsCluster(DfsConfig(block, replication, 0), nodes, root)
    return Database.create(cluster, "db", total, page, threshold, deferred,
                           LockService(), faults or FaultInjector())


def rec(i, key=None, day=None):
    return UserVisitsRecord(
        source_ip=key or f"10.1.{(i >> 8) & 255}.{i & 255}",
        dest_url=f"http://site{i}.test/page",
        visit_date=date.fromordinal((day or 730000) + i),
        ad_revenue=float(i),
        user_agent="agent",
        country_code="KOR",
        language_code="ko",
        search_word=f"w{i}",
        duration=i,
    )


def test_fresh_database_scans_empty():
    db = make_db()
    s = db.session()
    s.begin("read")
    assert s.scan(100) == []
    s.commit()


def test_insert_scan_limit_one():
    db = make_db()
    s = db.session()
    s.begin("write")
    s.insert_record(rec(1))
    assert s.scan(1) == [rec(1)]
    s.commit()


def test_scan_limits():
    db = make_db()
    s = db.session()
    s.begin("write")
    for i in range(10):
        s.insert_record(rec(i))
    s.commit()
    s.begin("read")
    assert s.scan(0) == []
    assert len(s.scan(4)) == 4
    assert len(s.scan(10 ** 6)) == 10
    s.commit()


def test_commit_then_reopen_clean():
    db = make_db()
    s = db.session()
    s.begin("write")
    for i in range(20):
        s.insert_record(rec(i))
    s.commit()
    reopened = Database.open(db.manager.cluster, "db", PAGE)
    s2 = reopened.session()
    s2.begin("read")
    assert len(s2.scan(100)) == 20
    s2.commit()


def test_abort_rolls_back_table():
    db = make_db()
    s = db.session()
    s.begin("write")
    s.insert_record(rec(0))
    s.commit()
    s.begin("write")
    s.insert_record(rec(1))
    s.abort()
    s.begin("read")
    assert len(s.scan(100)) == 1
    s.commit()


def test_crash_before_commit_loses_inserts():
    faults = FaultInjector()
    db = make_db(faults=faults)
    s = db.session()
    s.begin("write")
    s.insert_record(rec(0))
    s.commit()
    s2 = db.session()
    s2.begin("write")
    for i in range(1, 30):
        s2.insert_record(rec(i))
    faults.arm("dfs.commit.before_marker")
    with pytest.raises(CrashPoint):
        s2.commit()
    reopened = Database.open(db.manager.cluster, "db", PAGE)
    s3 = reopened.session()
    s3.begin("read")
    assert len(s3.scan(100)) == 1
    s3.commit()


def test_crash_after_marker_keeps_inserts():
    faults = FaultInjector()
    db = make_db(faults=faults)
    s = db.session()
    s.begin("write")
    for i in range(30):
        s.insert_record(rec(i))
    faults.arm("dfs.commit.after_marker")
    with pytest.raises(CrashPoint):
        s.commit()
    reopened = Database.open(db.manager.cluster, "db", PAGE)
    s2 = reopened.session()
    s2.begin("read")
    assert len(s2.scan(100)) == 30
    s2.commit()


def test_two_session_visibility_after_commit():
    db = make_db()
    p1 = db.session("P1")
    p1.begin("write")
    p1.insert_record(rec(5))
    p1.insert_record(rec(3))
    p1.commit()
    p2 = db.session("P2")
    p2.begin("read")
    assert len(p2.index_snapshot()) >= 1  # log entries visible to P2
    assert len(p2.scan(10)) == 2
    p2.commit()


def test_select_by_key_index_and_scan_agree():
    db = make_db()
    s = db.session()
    s.begin("write")
    for i in range(200):
        s.insert_record(rec(i))
    for i in range(7):
        s.insert_record(rec(1000 + i, key="7.7.7.7"))
    s.commit()
    s.begin("read")
    with_index = s.select_by_key("7.7.7.7", use_index=True)
    without = s.select_by_key("7.7.7.7", use_index=False)
    assert len(with_index) == 7
    assert sorted(map(str, with_index)) == sorted(map(str, without))
    assert s.select_by_key("9.9.9.9", True) == []
    assert s.select_by_key("9.9.9.9", False) == []
    s.commit()


def test_select_sees_own_uncommitted_inserts_via_index():
    db = make_db()
    s = db.session()
    s.begin("write")
    s.insert_record(rec(1, key="5.5.5.5"))
    assert len(s.select_by_key("5.5.5.5", use_index=True)) == 1
    s.commit()


def test_update_by_key_commit_and_abort():
    db = make_db()
    s = db.session()
    s.begin("write")
    for i in range(50):
        s.insert_record(rec(i))
    for i in range(5):
        s.insert_record(rec(500 + i, key="8.8.8.8"))
    s.commit()

    s.begin("write")
    assert s.update_by_key("8.8.8.8", "ABC", use_index=True) == 5
    s.commit()
    s.begin("read")
    assert all(r.country_code == "ABC"
               for r in s.select_by_key("8.8.8.8", True))
    s.commit()

    s.begin("write")
    assert s.update_by_key("8.8.8.8", "XYZ", use_index=False) == 5
    s.abort()
    s.begin("read")
    assert all(r.country_code == "ABC"
               for r in s.select_by_key("8.8.8.8", True))
    s.commit()

    s.begin("write")
    assert s.update_by_key("no.such.key", "ABC", True) == 0
    with pytest.raises(ValueTooLong):
        s.update_by_key("8.8.8.8", "TOOLONG", True)
    s.commit()


def insert_commits(session, rng, sizes):
    """One write transaction of random-keyed rows per size."""
    for size in sizes:
        commit_rows(session, [rng.randrange(10 ** 6) for _ in range(size)])


def check_catalog(cat):
    assert len(cat.segments) <= MAX_INDEX_SEGMENTS
    assert sum(seg.entries for seg in cat.segments) == cat.record_count
    index_space = [(seg.start, seg.pages) for seg in cat.segments]
    index_space += cat.free_extents
    assert HEAP_START + cat.heap_used <= cat.index_floor
    assert all(start >= cat.index_floor for start, _ in index_space)
    end = 0
    for start, pages in sorted([(0, HEAP_START), (HEAP_START, cat.heap_used)]
                               + index_space):
        assert start >= end, "catalog extents overlap"
        end = start + pages
    assert end <= cat.total_pages


def log_uniform_sizes(seed, count, largest):
    rng = random.Random(seed)
    return [int(largest ** rng.random()) for _ in range(count)]


@pytest.mark.parametrize("sizes,total", [
    ([40] * 6, TOTAL),  # enough commits to force a segment merge
    (log_uniform_sizes(7, 30, 2000), 4096),
], ids=["equal", "seeded"])
def test_index_table_coherence_after_commits(sizes, total):
    db = make_db(total=total)
    s = db.session()
    rng, pick = random.Random(0), random.Random(1)
    keys = []
    for size in sizes:
        s.begin("write")
        for _ in range(size):
            record = rec(rng.randrange(10 ** 6))
            s.insert_record(record)
            keys.append(record.source_ip)
        s.commit()
        s.begin("read")
        check_catalog(s.catalog)
        for key in pick.sample(keys, 2):
            assert s.select_by_key(key, True) == s.select_by_key(key, False)
        s.commit()
    s.begin("read")
    scanned = {(r.source_ip, rid) for rid, r in s._scan_entries()}
    from_index = set()
    for record in {r.source_ip for _, r in s._scan_entries()}:
        for rid in s._index_lookup(record):
            from_index.add((record, rid))
    assert scanned == from_index
    s.commit()


def test_equal_load_commits_write_no_more_index_pages():
    # Equal commits stay separate segments until the cap forces a fold.
    # Merging every segment whenever a fifth would be made writes 940.
    db = make_db(total=4096)
    s = db.session()
    insert_commits(s, random.Random(0), [300] * 10)
    assert s.page_writes <= 940


def test_small_commits_leave_the_oldest_segment_alone():
    db = make_db(total=4096)
    s = db.session()
    rng = random.Random(0)
    insert_commits(s, rng, [300] * 10)
    s.begin("read")
    oldest = s.catalog.segments[0]
    s.commit()
    for _ in range(200):
        before = s.page_writes
        insert_commits(s, rng, [10])
        # a rewrite of the whole index writes over 250 pages here
        assert s.page_writes - before <= 80
        s.begin("read")
        assert s.catalog.segments[0] == oldest
        s.commit()


def test_small_commits_fill_no_less_of_the_store():
    # A half-full store, then 10-row commits until the heap or an index
    # extent finds no room. Merging every segment whenever a fifth would
    # be made fits 440 more rows.
    db = make_db(total=2048)
    s = db.session()
    rng = random.Random(0)
    insert_commits(s, rng, [500] * 10)
    inserted = 0
    while True:
        try:
            insert_commits(s, rng, [10])
        except DatabaseFull:
            if s.mode is not None:
                s.abort()
            break
        inserted += 10
    assert inserted >= 440
    s.begin("read")
    check_catalog(s.catalog)
    assert s.catalog.record_count == 5000 + inserted
    s.commit()


def test_release_returns_a_free_extent_at_the_floor_to_the_heap():
    cat = Catalog(total_pages=100, heap_used=20, index_floor=50,
                  segments=[IndexSegment(70, 10, 150)],
                  free_extents=[(55, 5), (90, 10)])
    cat.release([IndexSegment(50, 5, 80), IndexSegment(60, 10, 160)])
    assert cat.index_floor == 70
    assert cat.free_extents == [(90, 10)]
    cat.release([IndexSegment(80, 10, 200)])
    assert cat.index_floor == 70
    assert cat.free_extents == [(80, 20)]


def test_lock_required_for_operations():
    db = make_db()
    s = db.session()
    with pytest.raises(LockError):
        s.scan(1)
    s.begin("read")
    with pytest.raises(LockError):
        s.insert_record(rec(0))
    s.commit()
    with pytest.raises(LockError):
        s.commit()


def test_commit_releases_lock():
    db = make_db()
    s = db.session()
    s.begin("write")
    s.insert_record(rec(0))
    s.commit()
    assert db.locks.snapshot(db.data_name) == []


def test_read_sessions_share_write_blocks():
    db = make_db()
    a = db.session("a")
    b = db.session("b")
    a.begin("read")
    b.begin("read")  # both granted
    a.commit()
    b.commit()


def test_database_full_surfaces():
    db = make_db(total=8)  # page 0 catalog + 7 usable
    s = db.session()
    s.begin("write")
    with pytest.raises(DatabaseFull):
        for i in range(10 ** 4):
            s.insert_record(rec(i))
    s.abort()


def test_open_missing_database():
    cluster = DfsCluster(DfsConfig(BLOCK, 2, 0), 4)
    with pytest.raises(NotFound):
        Database.open(cluster, "nope", PAGE)


def test_threshold_commit_compacts_log():
    db = make_db(threshold=2)
    s = db.session()
    for batch in range(3):
        s.begin("write")
        for i in range(60):
            s.insert_record(rec(batch * 60 + i))
        s.commit()
    assert db.log.block_count == 1  # compacted at the last commit
    assert db.manager.remakes_of(db.data_name) > 0
    s.begin("read")
    assert len(s.scan(10 ** 6)) == 180
    s.commit()


def _remakes_per_commit(db) -> list[int]:
    """remakes_total after each commit of a fixed script; every commit
    leaves a one-block log (copied back and compacted immediately)."""
    s = db.session()
    remakes = []
    for count in (10, 200, 1):
        s.begin("write")
        for i in range(count):
            s.insert_record(rec(len(remakes) * 1000 + i, key=f"9.9.9.{i % 3}"))
        s.commit()
        assert db.log.block_count == 1
        assert db.manager.remakes_of(db.data_name) > 0
        remakes.append(db.manager.remakes_total)
    s.begin("write")
    assert s.update_by_key("9.9.9.1", "DEU", use_index=True) == 70
    s.commit()
    assert db.log.block_count == 1
    remakes.append(db.manager.remakes_total)
    s.begin("read")
    assert len(s.scan(10 ** 6)) == 211
    s.commit()
    return remakes


NON_DEFERRED_MODES = {"deferred_false": {"deferred": False},
                      "threshold_0": {"threshold": 0}}


@pytest.mark.parametrize("mode", NON_DEFERRED_MODES)
def test_non_deferred_mode_runs_post_commit_every_commit(mode):
    """deferred=False and post_commit_threshold=0 are the same store: the
    commit marker is a log block, so threshold 0 batches every commit."""
    remakes = _remakes_per_commit(make_db(**NON_DEFERRED_MODES[mode]))
    other = next(kwargs for name, kwargs in NON_DEFERRED_MODES.items()
                 if name != mode)
    assert remakes == _remakes_per_commit(make_db(**other))


def test_maintenance_trigger_compacts_log():
    db = make_db(threshold=10 ** 6)
    s = db.session()
    for batch in range(2):
        s.begin("write")
        for i in range(20):
            s.insert_record(rec(batch * 20 + i))
        s.commit()
    assert db.log.block_count > 1
    remade = db.run_maintenance()
    assert remade > 0
    assert db.log.block_count == 1
    assert db.locks.snapshot(db.data_name) == []  # lock released
    s.begin("read")
    assert len(s.scan(100)) == 40
    s.commit()


def test_failed_maintenance_batch_raises_its_own_error(monkeypatch):
    """A batch that fails while creating the replacement of the log master
    block leaves the old master in place; the caller must see that
    failure, not a later one, and the lock must be free."""

    class RemakeFailed(RuntimeError):
        pass

    db = make_db(threshold=10 ** 6)
    s = db.session()
    s.begin("write")
    for i in range(20):
        s.insert_record(rec(i))
    s.commit()
    master = constituent_name(db.log_name, 0)
    old_master = db.manager.read_block(db.log, 0)
    create_file = DfsCluster.create_file
    failed = []

    def fail_once(cluster, name, content):
        if name.startswith(master) and not failed:
            failed.append(name)
            raise RemakeFailed(name)
        return create_file(cluster, name, content)

    monkeypatch.setattr(DfsCluster, "create_file", fail_once)
    with pytest.raises(RemakeFailed):
        db.run_maintenance()
    assert failed == [f"{master}.new"]
    assert db.manager.read_block(db.log, 0) == old_master
    assert db.needs_recovery() is None
    assert db.locks.snapshot(db.data_name) == []


def test_serializability_matches_grant_order_replay():
    """Interleaved writers are equivalent to the serial order of their
    write-lock grants: replay in grant order on a fresh database."""
    locks = LockService(record_history=True)
    cluster = DfsCluster(DfsConfig(BLOCK, 2, 0), 4)
    db = Database.create(cluster, "db", TOTAL, PAGE, 64, True, locks)
    rng = random.Random(1)
    ops_by_owner = {
        f"w{i}": [(rng.randrange(10 ** 6), rng.randrange(3) == 0)
                  for _ in range(15)]
        for i in range(4)
    }

    def worker(owner):
        session = db.session(owner)
        for value, do_abort in ops_by_owner[owner]:
            session.begin("write")
            session.insert_record(rec(value))
            if do_abort:
                session.abort()
            else:
                session.commit()

    threads = [threading.Thread(target=worker, args=(o,))
               for o in ops_by_owner]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()

    # grant order of write locks, with each owner's ops consumed in order
    replay_db = make_db()
    queues = {o: iter(ops) for o, ops in ops_by_owner.items()}
    replayer = replay_db.session()
    for event, _, _, lock_type, owner in locks.history:
        if event == "grant" and lock_type == "write" and owner in queues:
            value, do_abort = next(queues[owner])
            replayer.begin("write")
            replayer.insert_record(rec(value))
            if do_abort:
                replayer.abort()
            else:
                replayer.commit()

    check = db.session("check")
    check.begin("read")
    actual = [str(r) for r in check.scan(10 ** 6)]
    check.commit()
    ref = replay_db.session("ref")
    ref.begin("read")
    expected = [str(r) for r in ref.scan(10 ** 6)]
    ref.commit()
    assert actual == expected


def test_upgrade_conflict_propagates_to_session():
    db = make_db()
    a = db.session("a")
    b = db.session("b")
    a.begin("read")
    b.begin("read")
    results = {}

    def upgrade_a():
        try:
            # a second session object for the same owner upgrades
            s = db.session("a")
            s.begin("write")
            results["a"] = "granted"
            s.commit()
        except UpgradeConflict:
            results["a"] = "conflict"

    t = threading.Thread(target=upgrade_a)
    t.start()
    import time
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        snap = db.locks.snapshot(db.data_name)
        if any(n.lock_type == "write" and n.owner == "a" for n in snap) \
                or "a" in results:
            break
        time.sleep(0.001)
    s_b = db.session("b")
    try:
        s_b.begin("write")
        results["b"] = "granted"
        s_b.commit()
    except UpgradeConflict:
        results["b"] = "conflict"
    a.commit()
    b.commit()
    t.join(timeout=10)
    assert sorted(results.values()) == ["conflict", "granted"]


def test_scan_page_read_counter_exact():
    db = make_db()
    s = db.session()
    s.begin("write")
    for i in range(60):
        s.insert_record(rec(i))
    s.commit()
    s.begin("read")
    heap_pages = s.catalog.heap_used
    base = s.page_reads
    s.scan(10 ** 6)
    assert s.page_reads - base == heap_pages  # full scan touches every page
    s.commit()
    s.begin("read")
    base = s.page_reads
    s.scan(1)
    assert s.page_reads - base == 1
    s.commit()


def test_indexed_select_page_read_bound():
    import math
    db = make_db()
    s = db.session()
    s.begin("write")
    for i in range(600):
        s.insert_record(rec(i))
    for i in range(6):
        s.insert_record(rec(9000 + i, key="3.3.3.3"))
    s.commit()

    s.begin("read")
    base = s.page_reads
    matches = s.select_by_key("3.3.3.3", use_index=True)
    probe_cost = s.page_reads - base
    s.commit()
    assert len(matches) == 6
    s.begin("read")
    rids = s._index_lookup("3.3.3.3")
    match_pages = len({pid for pid, _ in rids})
    entries = sum(seg.entries for seg in s.catalog.segments)
    bisect_bound = sum(
        math.ceil(math.log2(max(seg.entries, 2))) + 2
        for seg in s.catalog.segments)
    s.commit()
    assert entries == 606
    # probe pages plus one fetch per matching record page (the second
    # begin re-read the catalog, hence the +1 slack on the left run)
    assert probe_cost <= bisect_bound + match_pages

    s.begin("read")
    base = s.page_reads
    s.select_by_key("3.3.3.3", use_index=False)
    scan_cost = s.page_reads - base
    s.commit()
    assert probe_cost < scan_cost


def test_repeat_read_transaction_reads_no_footer_page():
    """With no writer in between, a session's next read transaction reads
    nothing from the DFS: the log footers it saw last time are not read
    again, and the catalog and record pages it asks for come from the
    database's page cache, though the session still counts them as page
    reads. The reader is another process: a database opened over the
    same cluster, whose page cache holds none of the writer's appends."""
    db = make_db()
    writer = db.session()
    for txn in range(4):
        writer.begin("write")
        for i in range(40):
            writer.insert_record(rec(100 * txn + i, key=f"9.9.9.{txn}"))
        writer.commit()
    assert db.log.block_count > 4  # deferred: the log holds the inserts
    cluster = db.manager.cluster
    s = Database.open(cluster, "db", PAGE, recover=False).session()
    cold_pages = None
    for txn in range(3):
        before = cluster.counters.snapshot()
        pages_before = s.page_reads
        s.begin("read")
        assert len(s.select_by_key("9.9.9.1", use_index=True)) == 40
        s.commit()
        pages = s.page_reads - pages_before
        read_calls = cluster.counters.read_calls - before.read_calls
        nbytes = cluster.counters.bytes_read - before.bytes_read
        if txn == 0:
            # the cold begin reads every footer page once
            assert read_calls == pages + db.log.block_count - 1
            cold_pages = pages
        else:
            assert pages == cold_pages
            assert read_calls == 0
            assert nbytes == 0


def read_all(session):
    session.begin("read")
    try:
        return session.scan(10 ** 6)
    finally:
        session.commit()


def test_warm_reader_sees_peer_batch_remake():
    """A reader whose pages sit in the database's page cache gets the new
    bytes after a peer session's batch post-commit remakes the block."""
    db = make_db(threshold=10 ** 6)
    writer, reader = db.session("W"), db.session("R")
    writer.begin("write")
    for i in range(30):
        writer.insert_record(rec(i, key=f"8.8.8.{i % 3}"))
    writer.commit()
    db.run_maintenance()
    assert [r.country_code for r in read_all(reader)] == ["KOR"] * 30
    remakes = db.manager.remakes_of(db.data_name)
    writer.begin("write")
    assert writer.update_by_key("8.8.8.1", "USA", use_index=True) == 10
    writer.commit()
    assert db.run_maintenance() > 0  # a batch in the maintenance session
    assert db.manager.remakes_of(db.data_name) > remakes
    assert db.log.block_count == 1  # every read now comes from data blocks
    rows = read_all(reader)
    assert [r.country_code for r in rows] == \
        ["USA" if i % 3 == 1 else "KOR" for i in range(30)]
    assert rows == read_all(Database.open(
        db.manager.cluster, "db", PAGE, recover=False).session())


def test_dead_replicas_of_cached_pages_surface_in_a_session():
    db = make_db(threshold=10 ** 6)
    s = db.session()
    s.begin("write")
    for i in range(40):
        s.insert_record(rec(i))
    s.commit()
    db.run_maintenance()
    rows = read_all(s)
    cluster = db.manager.cluster
    holders = cluster.file_entry(
        constituent_name(db.data_name, 0)).holders
    for node_id in holders:
        cluster.set_node_alive(node_id, False)
    with pytest.raises(AllReplicasDead):
        s.begin("read")  # the catalog, page 0, is cached but unreachable
    assert s.mode is None  # the failed begin released its lock
    for node_id in holders:
        cluster.set_node_alive(node_id, True)
    before = cluster.counters.snapshot()
    assert read_all(s) == rows
    assert cluster.counters.read_calls == before.read_calls


@pytest.mark.parametrize("mode", ["read", "write"])
def test_failed_begin_releases_the_lock(mode):
    db = make_db()
    cluster = db.manager.cluster
    holders = cluster.file_entry(
        constituent_name(db.data_name, 0)).holders
    for node_id in holders:
        cluster.set_node_alive(node_id, False)
    s = db.session()
    with pytest.raises(AllReplicasDead):
        s.begin(mode)
    assert db.locks.snapshot(db.data_name) == []
    assert s.mode is None and s.lockid is None
    for node_id in holders:
        cluster.set_node_alive(node_id, True)
    writer = db.session()
    writer.begin("write")
    writer.insert_record(rec(0))
    writer.commit()
    s.begin(mode)
    assert len(s.scan(10)) == 1
    s.commit()


def test_two_databases_over_one_cluster_see_each_others_commits():
    """Each Database has its own meta-file manager and so its own page
    cache; a commit or a batch through one is read correctly by the
    other."""
    db1 = make_db(threshold=2)
    db2 = Database.open(db1.manager.cluster, "db", PAGE, 2, True,
                        db1.locks, FaultInjector(), recover=False)
    assert db2.manager is not db1.manager
    s1, s2 = db1.session("one"), db2.session("two")
    expected = []
    for round_ in range(6):
        writer, reader = (s1, s2) if round_ % 2 == 0 else (s2, s1)
        writer.begin("write")
        for i in range(15):
            r = rec(100 * round_ + i, key=f"6.6.6.{i % 4}")
            writer.insert_record(r)
            expected.append(r)
        writer.update_by_key("6.6.6.2", f"C{round_}", use_index=True)
        writer.commit()
        expected = [replace(r, country_code=f"C{round_}")
                    if r.source_ip == "6.6.6.2" else r for r in expected]
        assert read_all(reader) == expected
        assert read_all(writer) == expected
    assert db1.manager.remakes_total + db2.manager.remakes_total > 0


def test_cache_holds_no_truncated_log_block_or_dead_id():
    db = make_db(threshold=10 ** 6)
    writer, reader = db.session("W"), db.session("R")
    for txn in range(4):
        writer.begin("write")
        for i in range(25):
            writer.insert_record(rec(25 * txn + i))
        writer.commit()
        read_all(reader)
    cluster = db.manager.cluster
    log_blocks = db.log.block_count
    cached_log = [name for name in db.manager.cached_ids()
                  if name.startswith(db.log_name + "/")
                  and name != constituent_name(db.log_name, 0)]
    assert cached_log  # the reader read record pages from the log
    db.run_maintenance()
    assert db.log.block_count == 1 < log_blocks
    cached = db.manager.cached_ids()
    for ordinal in range(1, log_blocks):
        assert constituent_name(db.log_name, ordinal) not in cached
    for name, file_id in cached.items():
        assert cluster.file_entry(name).file_id == file_id
    assert len(read_all(reader)) == 100


def test_cached_reads_equal_fresh_manager_reads_over_a_schedule():
    """Two sessions run a seeded schedule of writes, aborts, updates and
    maintenance. After each step every page of the data and log files
    reads the same through the database's warm manager as through a fresh
    one, and a session scan equals one through a fresh database."""
    rng = random.Random(20)
    db = make_db(threshold=4)
    cluster = db.manager.cluster
    sessions = [db.session("A"), db.session("B")]
    pages_per_block = db.manager.pages_per_block
    n = 0
    for step in range(50):
        session = rng.choice(sessions)
        if rng.random() < 0.15:
            db.run_maintenance()
        else:
            session.begin("write")
            for _ in range(rng.randrange(1, 12)):
                session.insert_record(rec(n, key=f"7.7.7.{n % 5}"))
                n += 1
            if rng.random() < 0.4:
                session.update_by_key(f"7.7.7.{rng.randrange(5)}",
                                      rng.choice(["USA", "DEU", "FRA"]),
                                      use_index=rng.random() < 0.5)
            if rng.random() < 0.25:
                session.abort()
            else:
                session.commit()
        fresh = MetaDfsManager(cluster, db.manager.page_size)
        for file in (db.data, db.log):
            entries = db.manager.constituent_entries(file)
            for block_id, entry in enumerate(entries):
                # a data block with no constituent reads as a whole block
                # of zeros; a short log block holds only its own pages
                held = pages_per_block if entry is None else \
                    entry.size_bytes // db.manager.page_size
                first = block_id * pages_per_block
                for pageid in range(first, first + held):
                    assert db.manager.read_page(file, pageid) == \
                        fresh.read_page(file, pageid), (step, file, pageid)
                if held < pages_per_block:
                    for manager in (db.manager, fresh):
                        with pytest.raises(OutOfRange):
                            manager.read_page(file, first + held)
        rows = read_all(rng.choice(sessions))
        assert rows == read_all(Database.open(
            cluster, "db", PAGE, recover=False).session()), step


def test_persistent_crash_survives_process_restart(tmp_path):
    """Same crash/recover cycle, but state reloaded from disk into fresh
    cluster and database objects (models a process restart)."""
    root = str(tmp_path / "root")
    faults = FaultInjector()
    db = make_db(faults=faults, root=root)
    s = db.session()
    s.begin("write")
    for i in range(20):
        s.insert_record(rec(i))
    s.commit()
    s.begin("write")
    for i in range(20, 40):
        s.insert_record(rec(i))
    faults.arm("dfs.batch.before_flag_clear")
    db.post_commit_threshold = 0  # force the batch at this commit
    s.store.post_commit_threshold = 0
    with pytest.raises(CrashPoint):
        s.commit()

    fresh_cluster = DfsCluster(DfsConfig(BLOCK, 2, 0), 4, root)
    reopened = Database.open(fresh_cluster, "db", PAGE)
    s2 = reopened.session()
    s2.begin("read")
    assert len(s2.scan(100)) == 40  # marker was durable -> redo path
    s2.commit()


def test_catalog_round_trip_through_recovery():
    db = make_db()
    s = db.session()
    s.begin("write")
    for i in range(120):
        s.insert_record(rec(i))
    s.commit()
    s.begin("read")
    catalog = s.catalog
    s.commit()
    # reopen and compare parsed catalog from a fresh session
    reopened = Database.open(db.manager.cluster, "db", PAGE)
    s2 = reopened.session()
    s2.begin("read")
    assert s2.catalog == catalog
    s2.commit()


def commit_rows(session, rows):
    session.begin("write")
    for i in rows:
        session.insert_record(rec(i))
    session.commit()


class LogCreateFailed(RuntimeError):
    pass


def fail_log_creates(monkeypatch, fails):
    """Make `DfsCluster.create_file` raise for the n-th log constituent
    created from now on when `fails(n)`; returns the names refused."""
    create_file = DfsCluster.create_file
    seen, refused = [], []

    def create(cluster, name, content):
        if name.startswith("db/log/"):
            seen.append(name)
            if fails(len(seen)):
                refused.append(name)
                raise LogCreateFailed(name)
        return create_file(cluster, name, content)

    monkeypatch.setattr(DfsCluster, "create_file", create)
    return refused


def test_commit_failed_at_its_marker_hands_no_page_to_the_next(monkeypatch):
    """The failed commit's pages sit in the store's buffer; the same
    session's next commit must write only its own."""
    db = make_db(page=4096, block=64 * 1024)
    s = db.session()
    commit_rows(s, range(10))
    refused = fail_log_creates(monkeypatch, lambda n: True)
    s.begin("write")
    for i in range(10, 40):
        s.insert_record(rec(i))
    with pytest.raises(LogCreateFailed):
        s.commit()
    assert refused == [constituent_name(db.log_name, 2)]  # the marker
    monkeypatch.undo()
    commit_rows(s, [40])
    assert read_all(db.session()) == [rec(i) for i in (*range(10), 40)]


@pytest.mark.parametrize("committer", ["fresh", "same"])
def test_commit_failed_after_auto_flushes_stays_invisible(monkeypatch,
                                                          committer):
    """Two auto-flushed blocks of a failed commit stay in the log; no
    reader may index them and the next writer must drop them."""
    db = make_db(page=1024, block=8192)
    s = db.session()
    commit_rows(s, range(10))
    refused = fail_log_creates(monkeypatch, lambda n: n == 3)
    s.begin("write")
    for i in range(10, 200):
        s.insert_record(rec(i))
    with pytest.raises(LogCreateFailed):
        s.commit()
    assert refused == [constituent_name(db.log_name, 4)]
    monkeypatch.undo()
    assert db.locks.snapshot(db.data_name) == []
    assert read_all(db.session()) == [rec(i) for i in range(10)]
    commit_rows(db.session() if committer == "fresh" else s, [200])
    assert read_all(db.session()) == [rec(i) for i in (*range(10), 200)]


def test_failed_abort_releases_the_lock(monkeypatch):
    class DeleteFailed(RuntimeError):
        pass

    db = make_db()
    s = db.session()
    commit_rows(s, range(10))
    s.begin("write")
    for pageid in range(1, 1 + 2 * (BLOCK // PAGE - 1)):
        s.store.write_page(pageid, bytes(PAGE))  # two uncommitted blocks
    assert db.log.block_count == 4

    def refuse(cluster, name):
        raise DeleteFailed(name)

    monkeypatch.setattr(DfsCluster, "delete_file", refuse)
    with pytest.raises(DeleteFailed):
        s.abort()
    assert db.locks.snapshot(db.data_name) == []
    assert s.mode is None
    monkeypatch.undo()
    commit_rows(db.session(), [10])
    assert read_all(db.session()) == [rec(i) for i in range(11)]


def _sweep_workload():
    """(run(db, session), table before -> table after) for each operation
    of the failure sweep's script."""
    keyed = [rec(i, key=f"9.9.9.{i % 4}") for i in range(3, 43)]

    def insert(rows, abort=False):
        def run(db, s):
            s.begin("write")
            for row in rows:
                s.insert_record(row)
            s.abort() if abort else s.commit()
        return run, lambda table: table if abort else table + rows

    def update(db, s):
        s.begin("write")
        s.update_by_key("9.9.9.1", "USA", use_index=True)
        s.commit()

    return [
        insert([rec(i) for i in range(3)]),
        insert(keyed),
        (update, lambda table: [replace(r, country_code="USA")
                                if r.source_ip == "9.9.9.1" else r
                                for r in table]),
        insert([rec(i) for i in range(43, 73)], abort=True),
        insert([rec(i) for i in range(73, 193)]),
        insert([rec(i) for i in range(193, 203)]),
        (lambda db, s: db.run_maintenance(), lambda table: table),
        insert([rec(i) for i in range(203, 208)]),
    ]


class MutationRefused(StorageError):
    pass


def _meta_mutations(mp, refuse=None):
    """Record the create_file, delete_file, rename_file and
    meta_set_block_count calls that `MetaDfsManager.append_block`,
    `overwrite_block` and `truncate_from` make from now on; the
    `refuse`-th raises MutationRefused before it runs."""
    calls = []
    depth = [0]
    for method in ("append_block", "overwrite_block", "truncate_from"):
        def inside(*args, original=getattr(MetaDfsManager, method)):
            depth[0] += 1
            try:
                return original(*args)
            finally:
                depth[0] -= 1
        mp.setattr(MetaDfsManager, method, inside)
    for method in ("create_file", "delete_file", "rename_file",
                   "meta_set_block_count"):
        def counted(cluster, name, *args, method=method,
                    original=getattr(DfsCluster, method), **kwargs):
            if depth[0]:
                calls.append((method, name))
                if len(calls) == refuse:
                    raise MutationRefused(f"{method} {name}")
            return original(cluster, name, *args, **kwargs)
        mp.setattr(DfsCluster, method, counted)
    return calls


def _run_sweep_workload(point=None, skip=0, refuse=None):
    """Run the script in one Database and session with `point`'s
    (skip+1)-th traversal armed, treating its CrashPoint as an ordinary
    error, or with the `refuse`-th meta-file mutation refused; then open
    the database again with recovery. Returns, per operation, the
    traversals made before it and the points it reached, and the
    meta-file mutations made."""
    faults = FaultInjector()
    db = make_db(page=1024, block=8192, threshold=4, faults=faults)
    s = db.session()
    if point is not None:
        faults.arm(point, skip=skip)
    table, reached = [], []
    with pytest.MonkeyPatch.context() as mp:
        calls = _meta_mutations(mp, refuse)
        for step, (run, apply) in enumerate(_sweep_workload()):
            before = faults.hits.copy()
            after = apply(table)
            try:
                run(db, s)
                allowed = [after]
            except (CrashPoint, MutationRefused) as exc:
                assert isinstance(exc, MutationRefused) or exc.name == point
                allowed = [table, after]
            reached.append((before, set(faults.hits - before)))
            where = (point, skip, refuse, step)
            assert db.locks.snapshot(db.data_name) == [], where
            assert s.mode is None, where
            table = read_all(db.session())
            assert table in allowed, where
    where = (point, skip, refuse)
    reader = db.session()
    reader.begin("read")
    for key in {r.source_ip for r in table}:
        assert reader.select_by_key(key, use_index=True) == \
            [r for r in table if r.source_ip == key], (*where, key)
    reader.commit()
    reopened = Database.open(db.manager.cluster, "db", 1024, 4,
                             recover=True)
    assert read_all(reopened.session()) == table, where
    commit_rows(reopened.session(), [208])
    assert read_all(reopened.session()) == table + [rec(208)], where
    return reached, calls


def _failures(runs):
    """First line of each failed run's assertion or error, by its
    arguments to `_run_sweep_workload`."""
    failures = {}
    for args in runs:
        try:
            _run_sweep_workload(*args)
        except (AssertionError, StorageError) as exc:
            failures[args] = f"{type(exc).__name__}: " + \
                str(exc).splitlines()[0]
    return failures


def test_in_process_failure_at_every_reached_point():
    """Each fault point the script reaches raises once, at its first
    traversal in each operation, as an ordinary error: the same Database
    and session go on, each transaction's pages become visible all
    together or never, and at the end the database opens again with
    recovery, reads the same table and takes one more commit."""
    reached, _ = _run_sweep_workload()
    families = ("dfs.write.", "dfs.flush.", "dfs.commit.", "dfs.batch.")
    assert {p for p in SPDU_DFS_FAULT_POINTS if p.startswith(families)} \
        <= set().union(*(points for _, points in reached))
    runs = sorted({(p, before[p]) for before, points in reached
                   for p in points})
    assert _failures(runs) == {}


def test_in_process_failure_at_every_meta_file_mutation():
    """Each DFS create, delete, rename and block-count change that an
    append, a remake or a truncate makes fails in turn, once the database
    exists, as an ordinary StorageError raised before the call; the same
    checks hold as for the fault points."""
    _, calls = _run_sweep_workload()
    assert {method for method, _ in calls} == \
        {"create_file", "delete_file", "rename_file", "meta_set_block_count"}
    runs = [(None, 0, n) for n in range(1, len(calls) + 1)]
    assert _failures(runs) == {}


class ProcessDied(BaseException):
    """The death of the process. It is no Exception: the engine's
    handlers only pass it on, and every NameNode mutation after it raises
    too, so the store on disk stays as the death left it."""


NAMENODE_MUTATIONS = ("create_file", "delete_file", "rename_file",
                      "meta_register", "meta_set_block_count",
                      "meta_unregister")


def _run_until_death(root, death=None, in_save=False):
    """Create a database on a persistent root and run the failure sweep's
    script on it; the process dies at the `death`-th NameNode mutation
    made after the create: before it runs, or with `in_save` inside its
    table save, after the DataNode work that comes first (a create's
    puts). Every mutation after the death raises ProcessDied before it
    runs, and the death ends the script. Returns the mutations called and
    the tables the database may hold on disk: before and after the
    operation that died, or the final one."""
    db = make_db(page=1024, block=8192, threshold=4, root=root)
    s = db.session()
    table, calls = [], []

    def dies_at(point_in_save):
        return death is not None and (len(calls) > death or (
            len(calls) == death and in_save == point_in_save))

    with pytest.MonkeyPatch.context() as mp:
        for method in NAMENODE_MUTATIONS:
            def mutation(cluster, name, *args, method=method,
                         original=getattr(DfsCluster, method), **kwargs):
                calls.append((method, name))
                if dies_at(False):
                    raise ProcessDied(f"{method} {name}")
                return original(cluster, name, *args, **kwargs)
            mp.setattr(DfsCluster, method, mutation)

        def save_tables(cluster, original=DfsCluster._save_tables):
            if dies_at(True):
                raise ProcessDied(f"table save of {calls[-1]}")
            original(cluster)
        mp.setattr(DfsCluster, "_save_tables", save_tables)
        for run, apply in _sweep_workload():
            after = apply(table)
            try:
                run(db, s)
            except ProcessDied:
                return calls, [table, after]
            table = after
    return calls, [table]


def test_process_death_at_every_namenode_mutation(tmp_path):
    """The process dies at each NameNode mutation of the script in turn,
    a block remake's included: before it runs, or inside its table save.
    A fresh DfsCluster over the root then opens the database with
    recovery: it must hold the table from before or after the operation
    that died, and take one more commit. This is the method of ALICE
    (Pillai et al., OSDI 2014)."""
    calls, _ = _run_until_death(str(tmp_path / "whole"))
    assert {"create_file", "delete_file", "rename_file",
            "meta_set_block_count"} <= {method for method, _ in calls}
    failures = {}
    for death, in_save in itertools.product(range(1, len(calls) + 1),
                                            (False, True)):
        root = str(tmp_path / f"death{death}{'s' * in_save}")
        _, allowed = _run_until_death(root, death, in_save)
        cluster = DfsCluster(DfsConfig(8192, 2, 0), 4, root)
        try:
            db = Database.open(cluster, "db", 1024, 4, recover=True)
            table = read_all(db.session())
            assert table in allowed, "not the table before or after"
            commit_rows(db.session(), [208])
            assert read_all(db.session()) == table + [rec(208)], \
                "the next commit"
        except (AssertionError, StorageError) as exc:
            failures[death, in_save, calls[death - 1]] = \
                f"{type(exc).__name__}: " + str(exc).splitlines()[0]
    assert failures == {}
