import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MapOracle, page_header, random_payload_page
from wormdb.dfs import DfsCluster, DfsConfig
from wormdb.errors import OutOfRange, RecoveryError
from wormdb.faults import CrashPoint, FaultInjector
from wormdb.metafile import MetaDfsManager
from wormdb.pagefmt import PAGE_HEADER_SIZE
from wormdb.spdu_dfs import (
    DfsTransactionStore,
    create_data_meta,
    create_log_meta,
    pack_footer,
    unpack_footer,
)

PAGE = 512
BLOCK = 8192
N = BLOCK // PAGE  # 16
TOTAL = 96  # six data blocks


def make_store(threshold=64, faults=None, total=TOTAL):
    cluster = DfsCluster(DfsConfig(BLOCK, 2, 0), 4)
    mgr = MetaDfsManager(cluster, PAGE)
    data = create_data_meta(mgr, "db/data", total)
    log = create_log_meta(mgr, "db/log")
    store = DfsTransactionStore(mgr, data, log, total, threshold,
                                faults or FaultInjector())
    return store


def page_with(rng):
    return random_payload_page(rng, PAGE)


def payload(page):
    return page[PAGE_HEADER_SIZE:]


def test_footer_pack_round_trip():
    footer = pack_footer([5, 3, 900], True, PAGE)
    assert len(footer) == PAGE
    pageids, complete = unpack_footer(footer)
    assert pageids == [5, 3, 900]
    assert complete is True


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2 ** 63 - 1), max_size=15),
       st.booleans())
def test_footer_round_trip_property(pageids, complete):
    footer = pack_footer(pageids, complete, PAGE)
    assert unpack_footer(footer) == (pageids, complete)


def test_footer_checksum_detected():
    footer = bytearray(pack_footer([1, 2], False, PAGE))
    footer[20] ^= 0xFF
    with pytest.raises(RecoveryError):
        unpack_footer(bytes(footer))


def test_buffer_write_and_read_paths():
    store = make_store()
    rng = random.Random(0)
    content = page_with(rng)
    store.write_page(5, content)
    # page only in buffer
    assert payload(store.read_page(5)) == payload(content)
    assert store.log.block_count == 1  # nothing flushed yet
    # untouched page comes from the data meta file
    assert store.read_page(9) == bytes(PAGE)
    with pytest.raises(OutOfRange):
        store.read_page(TOTAL)


def test_write_same_page_twice_single_slot():
    store = make_store()
    rng = random.Random(1)
    store.write_page(3, page_with(rng))
    store.write_page(5, page_with(rng))
    newer = page_with(rng)
    store.write_page(5, newer)
    assert payload(store.read_page(5)) == payload(newer)
    block_id = store.flush_buffer(mark_commit=False)
    assert store.read_footer(block_id) == ([3, 5], False)
    assert store.index[5] == (block_id, 1)
    assert payload(store.read_page(5)) == payload(newer)


def test_auto_flush_on_capacity():
    store = make_store()
    rng = random.Random(2)
    for pid in range(N - 2):
        store.write_page(pid, page_with(rng))
    assert store.log.block_count == 1
    store.write_page(N - 2, page_with(rng))  # the (N-1)-th distinct page
    assert store.log.block_count == 2  # flushed automatically
    store.write_page(50, page_with(rng))  # starts a new buffer
    pageids, complete = store.read_footer(1)
    assert pageids == list(range(N - 1))
    assert complete is False
    assert 50 not in store.index
    assert store.flush_buffer(mark_commit=False) == 2
    assert store.read_footer(2) == ([50], False)
    assert store.index[50] == (2, 0)


def test_flush_footer_lists_pages_in_arrival_order():
    store = make_store()
    rng = random.Random(3)
    for pid in (5, 3, 9):
        store.write_page(pid, page_with(rng))
    block_id = store.flush_buffer(mark_commit=False)
    assert block_id == 1
    pageids, complete = store.read_footer(1)
    assert pageids == [5, 3, 9]
    assert complete is False
    assert store.index == {5: (1, 0), 3: (1, 1), 9: (1, 2)}


def test_commit_with_empty_buffer_appends_marker():
    store = make_store()
    store.commit_transaction()
    assert store.log.block_count == 2
    pageids, complete = store.read_footer(1)
    assert pageids == []
    assert complete is True


def test_flushed_then_rewritten_page_resolved_to_newest():
    store = make_store()
    rng = random.Random(4)
    old = page_with(rng)
    store.write_page(5, old)
    store.flush_buffer(mark_commit=False)
    newer = page_with(rng)
    store.write_page(5, newer)
    assert payload(store.read_page(5)) == payload(newer)
    store.flush_buffer(mark_commit=True)
    # two log copies exist; the index points into the newer block
    assert store.index[5][0] == 2
    assert payload(store.read_page(5)) == payload(newer)


def test_commit_defers_post_commit():
    store = make_store(threshold=64)
    rng = random.Random(5)
    for pid in (5, 3):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    store.write_page(7, page_with(rng))
    store.commit_transaction()
    # two commits without reaching the threshold: zero data remakes
    assert store.manager.remakes_of("db/data") == 0
    assert store.log.block_count == 3
    pageids, complete = store.read_footer(1)
    assert (pageids, complete) == ([5, 3], True)


def test_commit_past_threshold_compacts_log():
    store = make_store(threshold=2)
    rng = random.Random(6)
    for commit in range(3):
        store.write_page(commit, page_with(rng))
        store.commit_transaction()
    # third commit pushed the log past T=2 -> batch ran, master block only
    assert store.log.block_count == 1
    assert store.manager.remakes_of("db/data") == 1  # pages 0..2 in block 0


def test_batch_remake_count_equals_distinct_data_blocks():
    store = make_store()
    rng = random.Random(7)
    # the classic four-page workload: all land in data block 0 with N=16
    contents = {}
    for pid in (3, 7, 1, 9):
        contents[pid] = page_with(rng)
        store.write_page(pid, contents[pid])
    store.commit_transaction()
    before = store.manager.remakes_of("db/data")
    remade = store.batch_post_commit()
    assert remade == 1
    assert store.manager.remakes_of("db/data") == before + 1
    for pid, content in contents.items():
        assert payload(store.read_page(pid)) == payload(content)
        assert page_header(store.read_page(pid))[0] == pid
    # spread pages across three data blocks -> three remakes
    for pid in (2, 17, 40):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    assert store.batch_post_commit() == 3


def test_batch_applies_last_update_only():
    store = make_store()
    rng = random.Random(8)
    store.write_page(5, page_with(rng))
    store.flush_buffer(mark_commit=False)
    final = page_with(rng)
    store.write_page(5, final)
    store.commit_transaction()
    store.batch_post_commit()
    assert payload(store.read_page(5)) == payload(final)
    assert payload(store.manager.read_page(store.data, 5)) == payload(final)


def test_batch_idempotent():
    store = make_store()
    rng = random.Random(9)
    for pid in (1, 20, 33, 1):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    store.batch_post_commit()
    state = [store.manager.read_block(store.data, b)
             for b in range(store.data.block_count)]
    for _ in range(4):
        store.batch_post_commit()
        assert [store.manager.read_block(store.data, b)
                for b in range(store.data.block_count)] == state


def test_abort_truncates_to_last_committed_block():
    store = make_store()
    rng = random.Random(10)
    # committed blocks [1, 2(marker TRUE)]
    for pid in range(N - 1):
        store.write_page(pid, page_with(rng))  # auto-flush -> block 1
    store.commit_transaction()                 # marker -> block 2
    assert store.log.block_count == 3
    # uncommitted blocks [3, 4]
    for pid in range(N - 1):
        store.write_page(32 + pid, page_with(rng))  # block 3
    store.write_page(60, page_with(rng))
    store.flush_buffer(mark_commit=False)           # block 4
    assert store.log.block_count == 5
    store.abort_transaction()
    assert store.log.block_count == 3
    assert 60 not in store.index
    assert store.read_page(60) == bytes(PAGE)
    assert 0 in store.index  # committed updates survive the abort


def test_abort_with_only_buffered_writes():
    store = make_store()
    rng = random.Random(11)
    store.write_page(5, page_with(rng))
    store.abort_transaction()
    assert store.log.block_count == 1
    assert store.read_page(5) == bytes(PAGE)


def test_abort_then_reads_match_pre_transaction_oracle():
    store = make_store()
    oracle = MapOracle(PAGE, TOTAL)
    rng = random.Random(12)
    for _ in range(40):
        pid = rng.randrange(TOTAL)
        content = page_with(rng)
        store.write_page(pid, content)
        oracle.write(pid, content)
    store.commit_transaction()
    oracle.commit()
    for _ in range(40):
        pid = rng.randrange(TOTAL)
        store.write_page(pid, page_with(rng))
    store.abort_transaction()
    oracle.abort()
    for pid in range(TOTAL):
        assert store.read_page(pid) == oracle.read(pid)


def test_reconstruction_reads_only_footer_pages():
    store = make_store()
    rng = random.Random(13)
    for pid in (5, 3):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    cluster = store.manager.cluster

    fresh = _peer(store)
    before = cluster.counters.snapshot()
    index = fresh.reconstruct_log_table_index()
    after = cluster.counters
    data_blocks = store.log.block_count - 1
    assert after.read_calls - before.read_calls == data_blocks
    assert after.bytes_read - before.bytes_read == data_blocks * PAGE
    assert set(index) == {5, 3}
    assert payload(fresh.read_page(5)) == payload(store.read_page(5))


def test_reconstruction_last_wins_across_blocks():
    store = make_store()
    rng = random.Random(14)
    store.write_page(5, page_with(rng))
    store.flush_buffer(mark_commit=False)   # block 1
    store.write_page(8, page_with(rng))
    store.flush_buffer(mark_commit=False)   # block 2
    newer = page_with(rng)
    store.write_page(5, newer)
    store.flush_buffer(mark_commit=True)    # block 3
    fresh = DfsTransactionStore(store.manager, store.data, store.log, TOTAL)
    index = fresh.reconstruct_log_table_index()
    assert index[5][0] == 3
    assert payload(fresh.read_page(5)) == payload(newer)


def _peer(store, threshold=64):
    """Another process's store over the same meta files: its own manager
    over the same cluster, so none of the pages the writer appended are
    in its page cache."""
    mgr = MetaDfsManager(store.manager.cluster, store.manager.page_size)
    return DfsTransactionStore(
        mgr, mgr.open_meta(store.data.name, sparse=True),
        mgr.open_meta(store.log.name), TOTAL, threshold)


def _commit_blocks(store, rng, blocks):
    """Commit `blocks` new log blocks: full auto-flushed ones, then the
    commit-marked one."""
    for _ in range(blocks - 1):
        for pid in rng.sample(range(TOTAL), N - 1):
            store.write_page(pid, page_with(rng))
    store.write_page(rng.randrange(TOTAL), page_with(rng))
    store.commit_transaction()


def _reads_during(store, action):
    cluster = store.manager.cluster
    before = cluster.counters.snapshot()
    result = action()
    return (cluster.counters.read_calls - before.read_calls,
            cluster.counters.bytes_read - before.bytes_read, result)


def test_warm_reconstruction_reads_nothing_when_log_unchanged():
    store = make_store()
    rng = random.Random(20)
    _commit_blocks(store, rng, 3)
    # its own blocks were recorded at flush time
    assert _reads_during(store, store.reconstruct_log_table_index)[:2] == \
        (0, 0)
    reader = _peer(store)
    calls, nbytes, cold = _reads_during(
        reader, reader.reconstruct_log_table_index)
    assert (calls, nbytes) == (3, 3 * PAGE)
    calls, nbytes, warm = _reads_during(
        reader, reader.reconstruct_log_table_index)
    assert (calls, nbytes) == (0, 0)
    assert warm == cold


def test_warm_reconstruction_reads_only_new_footers():
    store = make_store()
    rng = random.Random(21)
    _commit_blocks(store, rng, 2)
    reader = _peer(store)
    reader.reconstruct_log_table_index()
    for k in (1, 3):
        _commit_blocks(store, rng, k)
        calls, nbytes, index = _reads_during(
            reader, reader.reconstruct_log_table_index)
        assert (calls, nbytes) == (k, k * PAGE)
        assert index == _peer(store).reconstruct_log_table_index()


def test_warm_index_after_peer_batch_refills_same_block_ids():
    """Stale-cache case: the batch truncates the log and new files reuse
    the block ids the reader has cached."""
    store = make_store()
    rng = random.Random(22)
    _commit_blocks(store, rng, 3)
    reader = _peer(store)
    reader.reconstruct_log_table_index()
    old_footers = reader.footers()
    store.batch_post_commit()
    assert store.log.block_count == 1
    _commit_blocks(store, rng, 4)
    calls, _, index = _reads_during(
        reader, reader.reconstruct_log_table_index)
    assert calls == 4
    assert reader.footers() != old_footers
    assert index == _peer(store).reconstruct_log_table_index()
    for pid in range(TOTAL):
        assert reader.read_page(pid) == store.read_page(pid)


def test_warm_index_after_peer_abort():
    store = make_store()
    rng = random.Random(23)
    _commit_blocks(store, rng, 1)
    for pid in rng.sample(range(TOTAL), 2 * (N - 1)):
        store.write_page(pid, page_with(rng))  # two uncommitted blocks
    readers = [_peer(store), _peer(store)]
    for reader in readers:
        reader.reconstruct_log_table_index()
    assert store.log.block_count == 4
    store.abort_transaction()
    assert readers[0].reconstruct_log_table_index() == \
        _peer(store).reconstruct_log_table_index()
    # readers[1] does not look until blocks 2 and 3 are new files
    _commit_blocks(store, rng, 3)
    for reader in readers:
        assert reader.reconstruct_log_table_index() == \
            _peer(store).reconstruct_log_table_index()
        for pid in range(TOTAL):
            assert reader.read_page(pid) == store.read_page(pid)


def test_warm_indexes_match_fresh_under_random_two_store_schedules():
    """Two writing stores take turns; after every step one store, picked
    at random, is checked, so a store may miss a truncate and refill of
    the block ids it has cached."""
    for seed in range(5):
        rng = random.Random(seed)
        first = make_store(threshold=4)
        stores = [first, _peer(first, threshold=4)]
        writer = None
        for step in range(300):
            if writer is None:
                writer = rng.choice(stores)
            roll = rng.random()
            if roll < 0.75:
                writer.write_page(rng.randrange(TOTAL), page_with(rng))
            elif roll < 0.87:
                writer.commit_transaction()
                writer = None
            elif roll < 0.95:
                writer.abort_transaction()
                writer = None
            else:
                writer.commit_transaction()
                writer.batch_post_commit()
                writer = None
            fresh = _peer(first)
            store = rng.choice(stores)
            assert store.reconstruct_log_table_index() == \
                fresh.reconstruct_log_table_index(), (seed, step)
            assert store.footers() == fresh.footers(), (seed, step)


def test_restart_redo_completes_interrupted_batch():
    faults = FaultInjector()
    store = make_store(faults=faults)
    oracle = MapOracle(PAGE, TOTAL)
    rng = random.Random(15)
    for pid in (3, 20, 45, 70):
        content = page_with(rng)
        store.write_page(pid, content)
        oracle.write(pid, content)
    store.commit_transaction()
    oracle.commit()
    faults.arm("dfs.batch.after_block_remake", skip=1)
    with pytest.raises(CrashPoint):
        store.batch_post_commit()
    fresh = DfsTransactionStore(store.manager, store.data, store.log, TOTAL)
    assert fresh.restart_system() == "redo"
    for pid in range(TOTAL):
        assert fresh.read_page(pid) == oracle.read(pid)
    assert fresh.log.block_count == 1


class LogMutationRefused(RuntimeError):
    pass


@pytest.mark.parametrize("method, nth", [("delete_file", 2),
                                         ("meta_set_block_count", 1)])
def test_failed_log_truncate_keeps_the_newest_committed_copy(
        monkeypatch, method, nth):
    """Page 5 committed twice; the batch has remade its data block and
    cleared the flag when the log truncate fails at the nth delete of a
    log data block or change of the log's count. A restarted store must
    read the newest copy, and later commits must go on."""
    store = make_store()
    rng = random.Random(8)
    copies = [page_with(rng) for _ in range(4)]
    for content in copies[:2]:
        store.write_page(5, content)
        store.commit_transaction()
    original = getattr(DfsCluster, method)
    seen = []

    def refuse(cluster, name, *args):
        if name.startswith("db/log") and name != "db/log/00000000":
            seen.append(name)
            if len(seen) == nth:
                raise LogMutationRefused(name)
        return original(cluster, name, *args)

    monkeypatch.setattr(DfsCluster, method, refuse)
    with pytest.raises(LogMutationRefused):
        store.batch_post_commit()
    monkeypatch.undo()
    restarted = DfsTransactionStore(store.manager, store.data, store.log,
                                    TOTAL)
    restarted.restart_system()
    assert payload(restarted.read_page(5)) == payload(copies[1])
    for content in copies[2:]:
        restarted.begin_transaction(write=True)
        restarted.write_page(5, content)
        restarted.commit_transaction()
    reader = DfsTransactionStore(store.manager, store.data, store.log, TOTAL)
    reader.begin_transaction(write=False)
    assert payload(reader.read_page(5)) == payload(copies[3])


def test_crash_storm_during_recovery_converges():
    """Crash the batch, then keep crashing recovery itself at random
    points; the final clean restart must still land on the committed
    state."""
    batch_points = [p for p in
                    ("dfs.batch.before_flag_set", "dfs.batch.after_flag_set",
                     "dfs.batch.before_block_remake",
                     "dfs.batch.after_block_remake",
                     "dfs.batch.before_flag_clear",
                     "dfs.batch.before_log_truncate", "dfs.restart.begin")]
    for seed in range(5):
        faults = FaultInjector()
        store = make_store(threshold=2, faults=faults)
        oracle = MapOracle(PAGE, TOTAL)
        rng = random.Random(seed)
        for _ in range(3):
            for _ in range(12):
                pid = rng.randrange(TOTAL)
                content = page_with(rng)
                store.write_page(pid, content)
                oracle.write(pid, content)
            post = {**oracle.committed, **oracle.pending}
            try:
                store.commit_transaction()
                oracle.commit()
            except CrashPoint:
                oracle.commit()
                break
            if store.log_data_blocks() > 2:
                faults.arm(rng.choice(batch_points), skip=rng.randrange(2))
        else:
            # no batch crashed during the commits; force one directly
            post = oracle.committed_state()
            faults.arm("dfs.batch.after_flag_set")
            with pytest.raises(CrashPoint):
                store.batch_post_commit()

        for _ in range(10):
            faults.reset()
            if rng.random() < 0.7:
                faults.arm(rng.choice(batch_points), skip=rng.randrange(3))
            attempt = DfsTransactionStore(store.manager, store.data,
                                          store.log, TOTAL, 2, faults)
            try:
                attempt.restart_system()
                break
            except CrashPoint:
                continue
        faults.reset()
        final = DfsTransactionStore(store.manager, store.data, store.log,
                                    TOTAL)
        final.restart_system()
        for pid in range(TOTAL):
            expected = post.get(pid, bytes(PAGE))
            assert final.read_page(pid) == expected, (seed, pid)


def test_restart_rollback_drops_uncommitted_tail():
    store = make_store()
    rng = random.Random(16)
    committed = page_with(rng)
    store.write_page(3, committed)
    store.commit_transaction()
    store.write_page(7, page_with(rng))
    store.flush_buffer(mark_commit=False)  # uncommitted durable block
    fresh = DfsTransactionStore(store.manager, store.data, store.log, TOTAL)
    assert fresh.restart_system() == "rollback"
    assert fresh.read_page(7) == bytes(PAGE)
    assert payload(fresh.read_page(3)) == payload(committed)


@pytest.mark.parametrize("view", ["writer", "peer"])
@pytest.mark.parametrize("tail", [0, 1, 2])
def test_rollback_state_is_exactly_a_writers_truncate(tail, view):
    """recovery_state() says "rollback" exactly when a writer's begin
    truncates the log, seen through the writer's manager (whose page
    cache holds every footer, so the state reads nothing from the DFS)
    and through a peer's."""
    store = make_store()
    rng = random.Random(40 + tail)
    _commit_blocks(store, rng, 2)
    for _ in range(tail):
        store.write_page(rng.randrange(TOTAL), page_with(rng))
        store.flush_buffer(mark_commit=False)
    if view == "writer":
        probe = DfsTransactionStore(store.manager, store.data, store.log,
                                    TOTAL)
        reads, _, state = _reads_during(probe, probe.recovery_state)
        assert reads == 0
    else:
        probe = _peer(store)
        state = probe.recovery_state()
    before = probe.log.block_count
    probe.begin_transaction(write=True)
    truncated = probe.log.block_count < before
    assert (state == "rollback") == truncated == (tail > 0)
    assert probe.log.block_count == 3
    assert probe.recovery_state() is None


def test_clean_restart_preserves_state():
    store = make_store()
    rng = random.Random(17)
    content = page_with(rng)
    store.write_page(3, content)
    store.commit_transaction()
    fresh = DfsTransactionStore(store.manager, store.data, store.log, TOTAL)
    assert fresh.restart_system() == "rollback"
    assert payload(fresh.read_page(3)) == payload(content)


def test_two_process_visibility():
    """One session commits pages 5 and 3; the next session's reconstruction
    picks them up from footers alone."""
    store = make_store()
    rng = random.Random(18)
    p5, p3 = page_with(rng), page_with(rng)
    store.write_page(5, p5)
    store.write_page(3, p3)
    store.commit_transaction()

    second = DfsTransactionStore(store.manager, store.data, store.log, TOTAL)
    index = second.reconstruct_log_table_index()
    assert set(index) == {5, 3}
    assert payload(second.read_page(5)) == payload(p5)
    assert payload(second.read_page(3)) == payload(p3)


def test_footer_fidelity_matches_page_headers():
    store = make_store()
    rng = random.Random(19)
    for pid in (4, 44, 4, 80):
        store.write_page(pid, page_with(rng))
    store.flush_buffer(mark_commit=True)
    for block_id in range(1, store.log.block_count):
        pageids, _ = store.read_footer(block_id)
        block = store.manager.read_block(store.log, block_id)
        for slot, pid in enumerate(pageids):
            page = block[slot * PAGE:(slot + 1) * PAGE]
            assert page_header(page)[0] == pid


def test_committed_prefix_under_random_schedules():
    """Every page version at or before the newest commit-complete block
    belongs to a committed transaction."""
    for seed in range(5):
        store = make_store(threshold=10 ** 6)
        rng = random.Random(seed)
        committed_pages: set[int] = set()
        txn_pages: set[int] = set()
        for _ in range(300):
            roll = rng.random()
            if roll < 0.6:
                pid = rng.randrange(TOTAL)
                store.write_page(pid, page_with(rng))
                txn_pages.add(pid)
            elif roll < 0.85:
                store.commit_transaction()
                committed_pages |= txn_pages
                txn_pages.clear()
            else:
                store.abort_transaction()
                txn_pages.clear()
            footers = store.footers()
            last_true = max(
                (b for b, (_, complete) in footers.items() if complete),
                default=0)
            for block_id in range(1, last_true + 1):
                for pid in footers[block_id][0]:
                    assert pid in committed_pages, (seed, block_id, pid)


def test_randomized_equivalence_with_map_oracle():
    for seed in range(10):
        rng = random.Random(seed)
        store = make_store(threshold=3)
        oracle = MapOracle(PAGE, TOTAL)
        for _ in range(300):
            op = rng.random()
            if op < 0.6:
                pid = rng.randrange(TOTAL)
                content = page_with(rng)
                store.write_page(pid, content)
                oracle.write(pid, content)
            elif op < 0.8:
                pid = rng.randrange(TOTAL)
                assert store.read_page(pid) == oracle.read(pid), seed
            elif op < 0.9:
                store.commit_transaction()
                oracle.commit()
            else:
                store.abort_transaction()
                oracle.abort()
        for pid in range(TOTAL):
            assert store.read_page(pid) == oracle.read(pid), seed


def _constituent_sizes(store, file):
    return [entry.size_bytes
            for entry in store.manager.constituent_entries(file)
            if entry is not None]


def test_a_commit_of_k_pages_appends_k_plus_one_pages():
    """A log block is its pages and the footer, with no padding, and
    every replica holds exactly that."""
    store = make_store()
    rng = random.Random(30)
    for k in (0, 1, 4, N - 2):
        for pid in rng.sample(range(TOTAL), k):
            store.write_page(pid, page_with(rng))
        store.commit_transaction()
        block_id = store.log.block_count - 1
        name = store.manager.constituent_entry(store.log, block_id).name
        assert _constituent_sizes(store, store.log)[block_id] == \
            (k + 1) * PAGE
        replicas = store.manager.cluster.replicas(name)
        assert len(replicas) == 2
        assert all(r == replicas[0] for r in replicas)
        assert len(replicas[0]) == (k + 1) * PAGE
        pageids, complete = unpack_footer(replicas[0][-PAGE:])
        assert (len(pageids), complete) == (k, True)
    # a full buffer flushes a block of every page but one, plus the footer
    for pid in range(N - 1):
        store.write_page(pid, page_with(rng))
    assert _constituent_sizes(store, store.log)[-1] == BLOCK


def test_master_block_is_one_page_and_data_blocks_stay_whole():
    store = make_store(threshold=1)
    assert _constituent_sizes(store, store.log) == [PAGE]
    rng = random.Random(31)
    for commit in range(2):
        for pid in (commit, N + commit, 3 * N + commit):
            store.write_page(pid, page_with(rng))
        store.commit_transaction()
    # the second commit ran a batch: the flag was set and cleared
    assert store.manager.remakes_of("db/log") == 2
    assert _constituent_sizes(store, store.log) == [PAGE]
    assert store.read_commit_flag() is False
    assert _constituent_sizes(store, store.data) == [BLOCK] * 3
    assert store.manager.cluster.replicas(
        store.manager.constituent_entry(store.log, 0).name) == \
        [store.manager.read_block(store.log, 0)] * 2


@pytest.mark.parametrize("torn", ["footer missing", "footer misplaced",
                                  "half a page"])
def test_a_torn_short_block_is_never_committed(torn):
    """A log constituent short of what its footer lists, created directly
    through the cluster, fails read_footer with RecoveryError, and a
    begin never indexes its pages as committed."""
    store = make_store()
    rng = random.Random(32)
    store.write_page(1, page_with(rng))
    store.commit_transaction()
    pageids = [10, 11, 12]
    pages = [page_with(rng) for _ in pageids]
    footer = pack_footer(pageids, True, PAGE)
    content = {
        "footer missing": b"".join(pages),  # the footer page never landed
        "footer misplaced": b"".join(pages[:-1]) + footer,
        "half a page": footer[:PAGE // 2],
    }[torn]
    cluster = store.manager.cluster
    cluster.create_file("db/log/00000002", content)
    cluster.meta_set_block_count("db/log", 3)
    with pytest.raises(RecoveryError):
        store.read_footer(2)
    fresh = _peer(store)
    for action in (fresh.reconstruct_log_table_index,
                   lambda: fresh.begin_transaction(write=False),
                   fresh.recovery_state):
        with pytest.raises(RecoveryError):
            action()
    assert not set(pageids) & set(fresh.index)
    assert store.read_footer(1) == ([1], True)
