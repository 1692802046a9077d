"""Acceptance suite: one test per criterion, one pass/fail line each.

The conftest hook echoes a line per criterion in the terminal summary;
running with `-s` additionally shows the inline [acceptance] prints.
"""

import functools
import random
import time

import pytest

from lock_harness import run_lock_soak
from oracles import (
    MapOracle,
    MemPageStore,
    ShadowPagedStore,
    data_blocks,
    log_blocks,
    random_payload_page,
)
from wormdb import bench
from wormdb.dfs import DfsCluster, DfsConfig
from wormdb.engine import Database
from wormdb.errors import AllReplicasDead
from wormdb.faults import SPDU_DFS_FAULT_POINTS, CrashPoint, FaultInjector
from wormdb.metafile import MetaDfsManager
from wormdb.spdu_dfs import (
    DfsTransactionStore,
    create_data_meta,
    create_log_meta,
)


def report(num, name, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}")


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                report(num, name, False)
                raise
            report(num, name, True)
        return wrapper
    return deco


# ----------------------------------------------------------------------
# Shared page-level fixture machinery
# ----------------------------------------------------------------------

PAGE = 512
BLOCK = 8192
N = BLOCK // PAGE
TOTAL = 96
# Blocks past TOTAL are holes that only direct writes fill, each in one
# transaction at most, as the engine fills blocks past the heap's end;
# every block below TOTAL is written, so its pages are logged.
DIRECT_BLOCKS = 4
STORE_PAGES = TOTAL + DIRECT_BLOCKS * N


def build_page_db(threshold=4, faults=None):
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
    mgr = MetaDfsManager(cluster, PAGE)
    data = "db/data"
    create_data_meta(mgr, data, STORE_PAGES, bytes(PAGE))
    for block_id in range(1, TOTAL // N):
        mgr.overwrite_block(data, block_id, bytes(BLOCK))
    create_log_meta(mgr, "db/log")
    store = DfsTransactionStore(mgr, data, "db/log", threshold,
                                faults or FaultInjector())
    return store


def scripted_ops(rng, total_ops=500):
    """A 500-op page workload whose deterministic prefix walks every
    commit/abort/flush/batch path, an unlogged block's included; the
    tail is randomized."""
    direct = iter(range(TOTAL // N, STORE_PAGES // N))
    ops = []
    for pid in range(16):
        ops.append(("write", pid))       # 15th distinct write auto-flushes
    ops.append(("abort",))               # drops an uncommitted durable block
    page = 20
    for i in range(5):                   # marches the log past threshold 4
        ops.append(("write", page)); page += 1
        if i == 0:                       # the first commit writes in place
            ops.append(("direct", next(direct)))
        ops.append(("write", page)); page += 1
        ops.append(("commit",))
    while len(ops) < total_ops:
        roll = rng.random()
        if roll < 0.01:
            block = next(direct, None)
            if block is not None:
                ops.append(("direct", block))
        elif roll < 0.70:
            ops.append(("write", rng.randrange(TOTAL)))
        elif roll < 0.90:
            ops.append(("commit",))
        else:
            ops.append(("abort",))
    return ops[:total_ops]


def run_workload_until_crash(store, oracle, ops, payload_rng):
    """Apply ops until a CrashPoint fires.

    Returns (crashed, expected_pre, expected_post, marker_durable) where
    the expectations are full committed-state dicts and marker_durable is
    probed from durable storage at crash time.
    """
    mgr = store.manager
    for op in ops:
        blocks_before = log_blocks(store)
        remakes_before = mgr.remakes_total
        pre = oracle.committed_state()
        post = pre
        try:
            if op[0] == "write":
                content = random_payload_page(payload_rng, PAGE)
                store.write_page(op[1], content)
                oracle.write(op[1], content)
            elif op[0] == "direct":
                for pid in range(op[1] * N, op[1] * N + 3):
                    content = random_payload_page(payload_rng, PAGE)
                    store.write_page(pid, content)
                    oracle.write(pid, content)
            elif op[0] == "commit":
                post = {**oracle.committed, **oracle.pending}
                store.commit_transaction()
                oracle.commit()
            else:
                store.begin_transaction(write=True)  # a writer's begin aborts
                oracle.abort()
        except CrashPoint:
            durable = probe_marker_durable(store, blocks_before,
                                           remakes_before)
            return True, pre, post, durable
    return False, None, None, None


def probe_marker_durable(store, blocks_before, remakes_before):
    """Inspect durable storage right after a crash: was the interrupted
    transaction's commit marker durable?"""
    if store.manager.remakes_total > remakes_before:
        return True  # its batch already remade data blocks
    probe = DfsTransactionStore(store.manager, store.data, store.log_name)
    footers = probe.footers()
    for block_id in range(blocks_before, log_blocks(store)):
        _, complete = footers[block_id]
        if complete:
            return True
    return False


def recover_and_state(store, pageids):
    fresh = DfsTransactionStore(store.manager, store.data, store.log_name)
    fresh.restart_system()
    return {pid: fresh.read_page(pid) for pid in pageids}


def full_state(committed, pageids):
    return {pid: committed.get(pid, bytes(PAGE)) for pid in pageids}


RESTART_POINTS = {
    "dfs.restart.begin": "dfs.commit.before_marker",
    "dfs.restart.done": "dfs.batch.before_generation_drop",
}


def sweep_point(point, seed=1234):
    faults = FaultInjector()
    store = build_page_db(threshold=4, faults=faults)
    oracle = MapOracle(PAGE, STORE_PAGES)
    rng = random.Random(seed)
    ops = scripted_ops(rng)
    payload_rng = random.Random(seed + 1)

    stage = RESTART_POINTS.get(point)
    faults.arm(stage if stage else point)
    crashed, pre, post, durable = run_workload_until_crash(
        store, oracle, ops, payload_rng)
    assert crashed, f"fault point {stage or point} never fired"

    if stage:
        # crash a second time, inside restart processing itself
        faults.arm(point)
        mid = DfsTransactionStore(store.manager, store.data, store.log_name,
                                  4, faults)
        with pytest.raises(CrashPoint):
            mid.restart_system()

    # a page of an unlogged block is compared once it is committed: an
    # interrupted commit may leave its bytes in a block nothing references
    committed = post if durable else pre
    pageids = sorted({*range(TOTAL), *committed})
    expected = full_state(committed, pageids)
    other = full_state(pre if durable else post, pageids)
    visible = recover_and_state(store, pageids)
    assert visible == expected, f"recovered state wrong after {point}"
    if expected != other:
        assert visible != other
    return durable


@criterion(1, "crash-consistency sweep")
def test_criterion_1_crash_consistency_sweep():
    start = time.monotonic()
    points = list(SPDU_DFS_FAULT_POINTS)
    assert len(points) >= 18
    outcomes = {}
    for point in points:
        outcomes[point] = sweep_point(point)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"
    # both recovery outcomes are exercised by the sweep
    assert True in outcomes.values() and False in outcomes.values()


@criterion(2, "oracle equivalence")
def test_criterion_2_oracle_equivalence():
    small_total = 64
    for seed in range(100):
        cluster = DfsCluster(DfsConfig(8192, 2), 4)
        mgr = MetaDfsManager(cluster, 512)
        data = "d"
        create_data_meta(mgr, data, small_total, bytes(PAGE))
        create_log_meta(mgr, "l")
        dfs_store = DfsTransactionStore(mgr, data, "l", 8)
        core_store = ShadowPagedStore.create(
            MemPageStore(512, small_total), MemPageStore(512), 512,
            small_total)
        oracle = MapOracle(512, small_total)
        rng = random.Random(seed)
        for _ in range(1000):
            roll = rng.random()
            if roll < 0.55:
                pid = rng.randrange(small_total)
                content = random_payload_page(rng, 512)
                dfs_store.write_page(pid, content)
                core_store.write_page(pid, content)
                oracle.write(pid, content)
            elif roll < 0.80:
                pid = rng.randrange(small_total)
                got = dfs_store.read_page(pid)
                assert got == core_store.read_page(pid) == oracle.read(pid)
            elif roll < 0.92:
                dfs_store.commit_transaction()
                core_store.commit_transaction()
                oracle.commit()
            else:
                dfs_store.begin_transaction(write=True)
                core_store.abort_transaction()
                oracle.abort()
        for pid in range(small_total):
            got = dfs_store.read_page(pid)
            assert got == core_store.read_page(pid) == oracle.read(pid), seed


def record_remakes(monkeypatch, store):
    """The data blocks the store overwrites from now on, in order."""
    remade = []
    overwrite = store.manager.overwrite_block

    def recorded(file, block_id, content):
        if file == store.data:
            remade.append(block_id)
        return overwrite(file, block_id, content)

    monkeypatch.setattr(store.manager, "overwrite_block", recorded)
    return remade


def read_through(store):
    return [store.read_page(pid) for pid in range(STORE_PAGES)]


@criterion(3, "post-commit idempotence")
def test_criterion_3_idempotence(monkeypatch):
    # DFS-adapted batch: k = 1..5 runs each remake a data block at most
    # once and leave every page reading as its newest committed copy;
    # once a batch carries nothing (threshold 0), k = 1..5 runs leave
    # identical data meta bytes
    store = build_page_db(threshold=10 ** 6)
    rng = random.Random(7)
    for _ in range(3):
        for _ in range(20):
            store.write_page(rng.randrange(TOTAL),
                             random_payload_page(rng, PAGE))
        store.commit_transaction()
    committed = read_through(store)
    remade = record_remakes(monkeypatch, store)
    remakes = []
    for _ in range(5):
        remade.clear()
        remakes.append(store.batch_post_commit())
        assert remakes[-1] == len(remade) == len(set(remade))
        assert read_through(store) == committed
    # the first batch carries every block; later ones remake those whose
    # credit runs out
    assert remakes[0] == 0 < sum(remakes)
    store.post_commit_threshold = 0
    states = []
    for _ in range(5):
        store.batch_post_commit()
        states.append(data_blocks(store))
        assert store.index == {}
        assert read_through(store) == committed
    assert all(state == states[0] for state in states[1:])

    # flat-file baseline post_commit is repeatable the same way
    core = ShadowPagedStore.create(MemPageStore(PAGE, TOTAL),
                                   MemPageStore(PAGE), PAGE, TOTAL)
    for pid in (3, 7, 1, 9):
        core.write_page(pid, random_payload_page(rng, PAGE))
    core.log.sync()
    core_states = []
    for _ in range(5):
        core.post_commit()
        core_states.append([core.data.read(i) for i in range(TOTAL)])
    assert all(state == core_states[0] for state in core_states[1:])


@criterion(4, "remake economy")
def test_criterion_4_remake_economy(monkeypatch):
    # the four-page workload: all in data block 0, whose pages ride into
    # the next generation with no remake; a batch that carries nothing
    # then remakes it exactly once
    store = build_page_db(threshold=10 ** 6)
    rng = random.Random(4)
    for pid in (3, 7, 1, 9):
        store.write_page(pid, random_payload_page(rng, PAGE))
    store.commit_transaction()
    committed = read_through(store)
    before = store.manager.remakes_total
    assert store.batch_post_commit() == 0
    assert sorted(store.index) == [1, 3, 7, 9]
    assert read_through(store) == committed
    store.post_commit_threshold = 0
    assert store.batch_post_commit() == 1
    assert store.manager.remakes_total == before + 1
    assert read_through(store) == committed

    # in general: a batch remakes each dirtied data block at most once
    # and carries the others, and a batch that carries nothing remakes
    # those
    store2 = build_page_db(threshold=10 ** 6)
    remade = record_remakes(monkeypatch, store2)
    committed_pages = set()
    rng = random.Random(5)
    for _ in range(4):
        for _ in range(25):
            pid = rng.randrange(TOTAL)
            committed_pages.add(pid)
            store2.write_page(pid, random_payload_page(rng, PAGE))
        store2.commit_transaction()
    expected_blocks = {pid // N for pid in committed_pages}
    committed = read_through(store2)
    before = store2.manager.remakes_total
    for threshold in (10 ** 6, 0):
        store2.post_commit_threshold = threshold
        remade.clear()
        assert store2.batch_post_commit() == len(remade) == \
            len(set(remade)) == \
            store2.manager.remakes_total - before
        before += len(remade)
        carried = {pid // N for pid in store2.index}
        assert set(remade) | carried == expected_blocks
        assert not set(remade) & carried
        assert read_through(store2) == committed
        expected_blocks = carried
    assert store2.index == {} and expected_blocks == set()

    # sequential insert of 10,000 tuples: zero data remakes while the
    # threshold has not fired
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
    db = Database.create(cluster, "db", 6144, PAGE,
                         post_commit_threshold=10 ** 9)
    bench.generate(db, 10_000, seed=1, probe_count=10)
    assert db.manager.remakes_total == 0
    assert log_blocks(db.store) > 0  # updates deferred in the log
    s = db.session()
    s.begin("read")
    assert len(s.scan(20_000)) == 10_000
    s.commit()


def test_remake_free_load_fills_each_fresh_data_block_once():
    """Criterion 4's 10,000-row load makes no data remake because it
    writes the data blocks past the heap's end in place: each is one
    fill, a create of a whole DFS block, which the manager counts. Block
    0, which holds the catalog, is logged."""
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
    db = Database.create(cluster, "db", 6144, PAGE,
                         post_commit_threshold=10 ** 9)
    bench.generate(db, 10_000, seed=1, probe_count=10)
    s = db.session()
    s.begin("read")
    cat = s.catalog
    pages = {*range(1, 1 + cat.heap_used),
             *(p for seg in cat.segments
               for p in range(seg.start, seg.start + seg.pages))}
    s.commit()
    filled = {pid // N for pid in pages} - {0}
    assert db.manager.remakes_total == 0
    assert db.manager.fills_total == len(filled) > 0


@criterion(5, "lock protocol soak")
def test_criterion_5_lock_protocol():
    for seed in range(50):
        run_lock_soak(seed, sessions=8, events=10_000)


@criterion(6, "two-process visibility")
def test_criterion_6_visibility():
    store = build_page_db(threshold=10 ** 6)
    rng = random.Random(6)
    p5 = random_payload_page(rng, PAGE)
    p3 = random_payload_page(rng, PAGE)
    store.write_page(5, p5)
    store.write_page(3, p3)
    store.commit_transaction()

    # the second process shares the cluster, not the writer's page cache
    cluster = store.manager.cluster
    mgr = MetaDfsManager(cluster, store.manager.page_size)
    second = DfsTransactionStore(mgr, store.data, store.log_name)
    before = cluster.counters.snapshot()
    second.reconstruct_log_table_index()
    index = second.index
    after = cluster.counters
    # one read of each log block, whole
    footers = second.footers()
    assert after.read_calls - before.read_calls == len(footers) == \
        log_blocks(store)
    assert after.bytes_read - before.bytes_read == \
        sum(entry.size_bytes for entry in mgr.constituent_entries(second.log))
    assert set(index) == {5, 3}
    assert index[5] == (0, 0) and index[3] == (0, 1)
    assert second.read_page(5) == store.read_page(5)
    assert second.read_page(3) == store.read_page(3)


@pytest.fixture(scope="module")
def big_db():
    cluster = DfsCluster(DfsConfig(16 * 1024, 3), 5)
    db = Database.create(cluster, "db", 28672, 1024, 64, True, FaultInjector())
    bench.generate(db, 100_000, seed=42)
    return db


@criterion(7, "secondary index benefit")
def test_criterion_7_index_benefit(big_db):
    indexed = bench.run_workload(big_db, "select", use_index=True)
    scanned = bench.run_workload(big_db, "select", use_index=False)
    assert indexed["records_returned"] == 70
    assert scanned["records_returned"] == 70
    session = big_db.session()
    session.begin("read")
    a = session.select_by_key(bench.DEFAULT_PROBE_KEY, True)
    b = session.select_by_key(bench.DEFAULT_PROBE_KEY, False)
    session.commit()
    assert sorted(map(str, a)) == sorted(map(str, b))
    ratio = indexed["page_reads"] / scanned["page_reads"]
    assert ratio < 0.01, f"indexed/scan page reads = {ratio:.4%}"


def test_scan_workload_at_paper_scale(big_db):
    """Not a numbered criterion: the 100K-row scan returns the full limit
    and touches every heap page up to it."""
    scan = bench.run_workload(big_db, "scan", limit=100_000)
    assert scan["records_returned"] == 100_000
    session = big_db.session()
    session.begin("read")
    heap_pages = session.catalog.heap_used
    session.commit()
    assert scan["page_reads"] >= heap_pages  # all data pages plus the catalog


@criterion(8, "replica fault tolerance")
def test_criterion_8_fault_tolerance():
    cluster = DfsCluster(DfsConfig(BLOCK, 3), 5)
    db = Database.create(cluster, "db", 2048, PAGE, 16, True, FaultInjector())
    bench.generate(db, 2000, seed=8, probe_count=12)

    # any 2 replica holders of every block dead: workloads still pass
    cluster.set_node_alive(0, False)
    cluster.set_node_alive(1, False)
    scan = bench.run_workload(db, "scan", limit=2000)
    assert scan["records_returned"] == 2000
    sel = bench.run_workload(db, "select")
    assert sel["records_returned"] == 12
    upd = bench.run_workload(db, "update")
    assert upd["records_returned"] == 12
    ins = bench.run_workload(db, "insert", repeat=50)
    assert ins["records_returned"] == 50
    cluster.set_node_alive(0, True)
    cluster.set_node_alive(1, True)

    # all three holders of a touched block dead: surfaced, not corrupted
    reference = bench.run_workload(db, "scan", limit=10 ** 6)
    entry = cluster.file_entry(f"{db.data_name}/00000000")
    for node_id in entry.holders:
        cluster.set_node_alive(node_id, False)
    with pytest.raises(AllReplicasDead):
        bench.run_workload(db, "scan", limit=2000)
    for node_id in entry.holders:
        cluster.set_node_alive(node_id, True)
    again = bench.run_workload(db, "scan", limit=10 ** 6)
    assert again["records_returned"] == reference["records_returned"]


@criterion(9, "page mapping exhaustive")
def test_criterion_9_page_mapping():
    cluster = DfsCluster(DfsConfig(BLOCK, 1), 1)
    mgr = MetaDfsManager(cluster, PAGE)
    n = mgr.pages_per_block
    assert n == N
    for pageid in range(10 ** 6):
        block_id, page_offset = pageid // n, pageid % n
        assert block_id * n + page_offset == pageid
        assert 0 <= page_offset < n
    # the manager reads page p at block p // N, offset p % N
    file = "m"
    mgr.create_meta(file)
    for block_id in range(3):
        mgr.append_block(file, b"".join(
            (block_id * n + offset).to_bytes(PAGE, "little")
            for offset in range(n)))
    for pageid in range(3 * n):
        page = mgr.read_page(file, pageid)
        assert int.from_bytes(page, "little") == pageid
        start = pageid % n * PAGE
        assert page == mgr.read_block(file, pageid // n)[start:start + PAGE]
