import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MapOracle,
    data_blocks,
    deflated,
    log_bases,
    log_blocks,
    log_bodies,
    log_windows,
    names_a_dictionary,
    page_header,
    random_payload_page,
    stored_block,
)
from wormdb import spdu_dfs
from wormdb.dfs import DataNode, DfsCluster, DfsConfig, constituent_name
from wormdb.engine import Database
from wormdb.errors import (
    AllReplicasDead,
    LogMoved,
    OutOfRange,
    RecoveryError,
)
from wormdb.faults import SPDU_DFS_FAULT_POINTS, CrashPoint, FaultInjector
from wormdb.metafile import MetaDfsManager
from wormdb.pagefmt import PAGE_HEADER_SIZE, stamp_page
from wormdb.spdu_dfs import (
    FOOTER_FIXED_SIZE,
    DfsTransactionStore,
    check_log_geometry,
    create_data_meta,
    create_log_meta,
    pack_footer,
    unpack_body,
    unpack_footer,
)

PAGE = 512
BLOCK = 8192
N = BLOCK // PAGE  # 16
TOTAL = 96  # six data blocks
GEN1 = spdu_dfs.generation_name("db/log", 1)  # a new log's generation


def make_store(threshold=64, faults=None, total=TOTAL, holes=False,
               root=None):
    """A store over a fresh log and a data meta file of `total` zero
    pages, on a cluster persisted under `root` if one is given. Every
    data block has a constituent, as if a committed transaction had
    written it, so the store logs every page; with `holes` only block 0
    has one, and a transaction writes each other block in place until
    it is written."""
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4, root)
    mgr = MetaDfsManager(cluster, PAGE)
    data = "db/data"
    if holes:
        create_data_meta(mgr, data, total, bytes(PAGE))
    else:
        mgr.create_meta(data)
        for _ in range(-(-total // N)):
            mgr.append_block(data, bytes(BLOCK))
    create_log_meta(mgr, "db/log")
    store = DfsTransactionStore(mgr, data, "db/log", threshold,
                                faults or FaultInjector())
    return store


def page_with(rng):
    return random_payload_page(rng, PAGE)


def _drain(store):
    """Run a batch that carries no page, as a batch at threshold 0
    does, so that it copies every committed log page home; returns its
    remakes."""
    threshold, store.post_commit_threshold = store.post_commit_threshold, 0
    try:
        return store.batch_post_commit()
    finally:
        store.post_commit_threshold = threshold


def payload(page):
    return page[PAGE_HEADER_SIZE:]


def test_footer_pack_round_trip():
    footer = pack_footer([5, 3, 900], True)
    assert len(footer) == FOOTER_FIXED_SIZE + 3 * 8 == 37
    pageids, complete = unpack_footer(footer)
    assert pageids == [5, 3, 900]
    assert complete is True


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2 ** 63 - 1), max_size=15),
       st.booleans())
def test_footer_round_trip_property(pageids, complete):
    footer = pack_footer(pageids, complete)
    assert unpack_footer(footer) == (pageids, complete)


def test_footer_checksum_detected():
    footer = bytearray(pack_footer([1, 2], False))
    footer[20] ^= 0xFF
    with pytest.raises(RecoveryError):
        unpack_footer(bytes(footer))
    with pytest.raises(RecoveryError, match="hold no log block footer"):
        unpack_footer(bytes(footer[-(FOOTER_FIXED_SIZE - 1):]))


def test_buffer_write_and_read_paths():
    store = make_store()
    rng = random.Random(0)
    content = page_with(rng)
    store.write_page(5, content)
    # page only in buffer
    assert payload(store.read_page(5)) == payload(content)
    assert log_blocks(store) == 0  # nothing flushed yet
    # untouched page comes from the data meta file
    assert store.read_page(9) == bytes(PAGE)
    with pytest.raises(OutOfRange):
        store.read_page(TOTAL)


@pytest.mark.parametrize("holes", [False, True])
@pytest.mark.parametrize("pageid", [-1, TOTAL])
def test_the_data_files_blocks_bound_the_page_ids(pageid, holes):
    """The data file's registered blocks are the store's only page-id
    bound: a read or write below page 0 or at the first page past its
    last block is OutOfRange. A file of TOTAL - 3 pages has the blocks
    of TOTAL pages, so its last page is TOTAL - 1."""
    store = make_store(total=TOTAL - 3, holes=holes)
    rng = random.Random(44)
    with pytest.raises(OutOfRange):
        store.read_page(pageid)
    with pytest.raises(OutOfRange):
        store.write_page(pageid, page_with(rng))
    page = page_with(rng)
    store.write_page(TOTAL - 1, page)
    assert store.read_page(TOTAL - 1) == stamp_page(TOTAL - 1, page)


def test_write_same_page_twice_single_slot():
    store = make_store()
    rng = random.Random(1)
    store.write_page(3, page_with(rng))
    store.write_page(5, page_with(rng))
    newer = page_with(rng)
    store.write_page(5, newer)
    assert payload(store.read_page(5)) == payload(newer)
    block_id = store.flush_buffer(mark_commit=False)
    assert _footer(store, block_id) == ([3, 5], False)
    assert store.index[5] == (block_id, 1)
    assert payload(store.read_page(5)) == payload(newer)


def test_auto_flush_on_capacity():
    store = make_store()
    rng = random.Random(2)
    for pid in range(N - 2):
        store.write_page(pid, page_with(rng))
    assert log_blocks(store) == 0
    store.write_page(N - 2, page_with(rng))  # the (N-1)-th distinct page
    assert log_blocks(store) == 1  # flushed automatically
    store.write_page(50, page_with(rng))  # starts a new buffer
    pageids, complete = _footer(store, 0)
    assert pageids == list(range(N - 1))
    assert complete is False
    assert 50 not in store.index
    assert store.flush_buffer(mark_commit=False) == 1
    assert _footer(store, 1) == ([50], False)
    assert store.index[50] == (1, 0)


def test_flush_footer_lists_pages_in_arrival_order():
    store = make_store()
    rng = random.Random(3)
    for pid in (5, 3, 9):
        store.write_page(pid, page_with(rng))
    block_id = store.flush_buffer(mark_commit=False)
    assert block_id == 0
    pageids, complete = _footer(store, 0)
    assert pageids == [5, 3, 9]
    assert complete is False
    assert store.index == {5: (0, 0), 3: (0, 1), 9: (0, 2)}


def test_commit_with_empty_buffer_appends_marker():
    store = make_store()
    store.commit_transaction()
    assert log_blocks(store) == 1
    pageids, complete = _footer(store, 0)
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
    assert store.index[5][0] == 1
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
    assert store.manager.remakes_total == 0
    assert log_blocks(store) == 2
    pageids, complete = _footer(store, 0)
    assert (pageids, complete) == ([5, 3], True)


def test_commit_past_threshold_compacts_log():
    """The batch waits for T blocks' worth of log bytes, footers
    included, not for T log blocks: at T=2 a one-page commit appends
    PAGE + 21 = 533 bytes, so thirty commits fill 15,990 of the
    2 * BLOCK = 16,384 bytes in thirty blocks and the thirty-first runs
    the batch."""
    one_page_block = PAGE + FOOTER_FIXED_SIZE + 8
    assert 30 * one_page_block <= 2 * BLOCK < 31 * one_page_block
    store = make_store(threshold=2)
    rng = random.Random(6)
    for commit in range(30):
        store.write_page(commit % N, page_with(rng))
        store.commit_transaction()
        assert log_blocks(store) == commit + 1
    store.write_page(0, page_with(rng))
    store.commit_transaction()
    # the log passed T=2 blocks' worth -> batch ran; pages 0..15 fill
    # block 0, which it remakes, so no page is carried
    assert log_blocks(store) == 0
    assert store.manager.remakes_total == 1


def test_batch_waits_for_more_than_threshold_blocks_of_pages():
    """At T=1 the batch runs once the log's blocks hold more than BLOCK
    bytes, footers included: a commit of N - 3 pages (6,773 bytes) and
    109 empty commits (13 bytes each) make 8,190 bytes, and the next
    empty commit, at 8,203, runs it."""
    first = (N - 3) * (PAGE + 8) + FOOTER_FIXED_SIZE
    assert first + 109 * FOOTER_FIXED_SIZE == 8190 <= BLOCK < 8203
    store = make_store(threshold=1)
    rng = random.Random(25)
    for pid in range(N - 3):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    for _ in range(109):
        store.commit_transaction()
    assert (log_blocks(store), store.manager.remakes_total) \
        == (110, 0)
    store.commit_transaction()
    # block 0's N - 3 pages take more than half the trigger, so none
    # rides into the next generation and the block is remade
    assert (log_blocks(store), store.manager.remakes_total) \
        == (0, 1)


def test_batch_remake_count_equals_distinct_data_blocks(monkeypatch):
    """A batch remakes each dirtied data block at most once and carries
    the pages of the others into the next generation; after each batch
    every page reads as its newest committed copy. Small blocks ride
    while their credit lasts, and a batch that carries nothing remakes
    every dirtied block once."""
    store = make_store()
    rng = random.Random(7)
    remade = []
    overwrite = store.manager.overwrite_block

    def recorded(file, block_id, content):
        if file == store.data:
            remade.append(block_id)
        return overwrite(file, block_id, content)

    monkeypatch.setattr(store.manager, "overwrite_block", recorded)
    contents = {}
    # the classic four-page workload: all land in data block 0 with N=16,
    # which rides; then pages in three data blocks, which all ride
    for pageids, carried in (((3, 7, 1, 9), {0}), ((2, 17, 40), {0, 1, 2})):
        for pid in pageids:
            contents[pid] = page_with(rng)
            store.write_page(pid, contents[pid])
        store.commit_transaction()
        assert store.batch_post_commit() == 0
        assert remade == [] and store.manager.remakes_total == 0
        assert {pid // N for pid in store.index} == carried
        for pid, content in contents.items():
            assert payload(store.read_page(pid)) == payload(content)
            assert page_header(store.read_page(pid))[0] == pid
    assert _drain(store) == 3
    assert remade == [0, 1, 2] and store.manager.remakes_total == 3
    assert store.index == {}
    for pid, content in contents.items():
        assert payload(store.read_page(pid)) == payload(content)
        assert payload(store.manager.read_page(store.data, pid)) == \
            payload(content)


def test_a_lone_hot_page_rides_until_its_credit_runs_out():
    """A page whose data block has no other logged page rides each batch
    into the next generation while the copies of its block carried so
    far, plus its one page, stay below the block's N pages: N - 1 batches
    carry it, the N-th remakes the block and drops its credit, and the
    next batch carries it again. The log is the one carried block, or
    empty after the remake, and the page reads as its newest copy."""
    store = make_store()
    rng = random.Random(50)
    remakes = []
    for batch in range(N + 1):
        content = page_with(rng)
        store.write_page(5, content)
        store.commit_transaction()
        remakes.append(store.batch_post_commit())
        assert store.generation == batch + 2
        assert log_blocks(store) == 1 - remakes[-1]
        assert payload(store.read_page(5)) == payload(content)
    assert remakes == [0] * (N - 1) + [1, 0]
    assert store.manager.remakes_total == 1


def test_the_carried_pages_never_exceed_half_the_trigger(monkeypatch):
    """Over a skewed random schedule at threshold 2, after every batch
    the live generation holds only commit-marked blocks of carried pages,
    whose raw bytes (PAGE + 8 a page, FOOTER_FIXED_SIZE a block) stay
    within half the trigger's 2 * BLOCK; batches both carry and remake,
    and every page reads as the oracle's committed copy."""
    store = make_store(threshold=2)
    oracle = MapOracle(PAGE, TOTAL)
    rng = random.Random(51)
    batch = store.batch_post_commit
    outcomes = []

    def checked():
        remade = batch()
        footers = store.footers()
        pages = sum(len(pageids) for pageids, _ in footers.values())
        assert all(complete for _, complete in footers.values())
        assert pages * (PAGE + 8) + len(footers) * FOOTER_FIXED_SIZE <= \
            2 * BLOCK // 2
        outcomes.append((pages, remade))
        return remade

    monkeypatch.setattr(store, "batch_post_commit", checked)
    for _ in range(400):
        for _ in range(rng.randrange(1, 6)):
            # half the writes go to four hot pages in four data blocks
            pid = rng.choice((3, 20, 41, 70)) if rng.random() < 0.5 \
                else rng.randrange(TOTAL)
            content = page_with(rng)
            store.write_page(pid, content)
            oracle.write(pid, content)
        store.commit_transaction()
        oracle.commit()
    assert len(outcomes) > 10
    assert any(pages for pages, _ in outcomes)
    assert any(remade for _, remade in outcomes)
    for pid in range(TOTAL):
        assert store.read_page(pid) == oracle.read(pid)


def test_batch_applies_last_update_only():
    store = make_store()
    rng = random.Random(8)
    store.write_page(5, page_with(rng))
    store.flush_buffer(mark_commit=False)
    final = page_with(rng)
    store.write_page(5, final)
    store.commit_transaction()
    _drain(store)
    assert payload(store.read_page(5)) == payload(final)
    assert payload(store.manager.read_page(store.data, 5)) == payload(final)


def test_batch_idempotent():
    store = make_store()
    rng = random.Random(9)
    for pid in (1, 20, 33, 1):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    store.batch_post_commit()
    state = data_blocks(store)
    for _ in range(4):
        store.batch_post_commit()
        assert data_blocks(store) == state


def test_abort_truncates_to_last_committed_block():
    """A writer's begin aborts the open transaction: it drops the buffer
    and truncates the log to its committed prefix."""
    store = make_store()
    rng = random.Random(10)
    # committed blocks [0, 1(marker TRUE)]
    for pid in range(N - 1):
        store.write_page(pid, page_with(rng))  # auto-flush -> block 0
    store.commit_transaction()                 # marker -> block 1
    assert log_blocks(store) == 2
    # uncommitted blocks [2, 3]
    for pid in range(N - 1):
        store.write_page(32 + pid, page_with(rng))  # block 2
    store.write_page(60, page_with(rng))
    store.flush_buffer(mark_commit=False)           # block 3
    assert log_blocks(store) == 4
    store.begin_transaction(write=True)
    assert log_blocks(store) == 2
    assert 60 not in store.index
    assert store.read_page(60) == bytes(PAGE)
    assert 0 in store.index  # committed updates survive the abort


def test_abort_with_only_buffered_writes():
    store = make_store()
    rng = random.Random(11)
    store.write_page(5, page_with(rng))
    store.begin_transaction(write=True)
    assert log_blocks(store) == 0
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
    store.begin_transaction(write=True)
    oracle.abort()
    for pid in range(TOTAL):
        assert store.read_page(pid) == oracle.read(pid)


def test_reconstruction_reads_only_footer_pages():
    """A fresh store reads each log block's footer, one read of the
    block's last bytes, as many as the largest footer takes, and no
    page."""
    store = make_store()
    rng = random.Random(13)
    for pid in (5, 3):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    cluster = store.manager.cluster

    fresh = _peer(store)
    before = cluster.counters.snapshot()
    fresh.reconstruct_log_table_index()
    after = cluster.counters
    data_blocks = log_blocks(store)
    assert after.read_calls - before.read_calls == data_blocks == 1
    assert after.bytes_read - before.bytes_read == \
        _footer_bytes(fresh, 0) == FOOTER_FIXED_SIZE + 8 * (N - 1)
    assert set(fresh.index) == {5, 3}
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
    fresh = DfsTransactionStore(store.manager, store.data, store.log_name)
    assert _index(fresh)[5][0] == 2
    assert payload(fresh.read_page(5)) == payload(newer)


def _peer(store, threshold=64):
    """Another process's store over the same meta files: its own manager
    over the same cluster, so none of the pages the writer appended are
    in its page cache."""
    mgr = MetaDfsManager(store.manager.cluster, store.manager.page_size)
    return DfsTransactionStore(mgr, store.data, store.log_name, threshold)


def _index(store):
    """The store's log table index, brought to the log's committed
    prefix."""
    store.reconstruct_log_table_index()
    return store.index


def _footer(store, block_id):
    """(pageids, commit_complete) of log block `block_id`, read from its
    footer by a peer, whose manager has cached none of the log."""
    return _peer(store).footers()[block_id]


def _footer_bytes(store, first):
    """The bytes a rebuild reads for the footers of log blocks `first`
    on: the last FOOTER_FIXED_SIZE + 8(N - 1) bytes of each block, which
    hold any footer, or all of a shorter block."""
    return sum(min(size, FOOTER_FIXED_SIZE + 8 * (N - 1))
               for size in _constituent_sizes(store, store.log)[first:])


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
        reader, lambda: dict(_index(reader)))
    # three blocks, each longer than the largest footer
    assert (calls, nbytes) == (3, _footer_bytes(reader, 0)) == \
        (3, 3 * (FOOTER_FIXED_SIZE + 8 * (N - 1)))
    calls, nbytes, warm = _reads_during(reader, lambda: _index(reader))
    assert (calls, nbytes) == (0, 0)
    assert warm == cold


def test_warm_reconstruction_reads_only_new_footers():
    store = make_store()
    rng = random.Random(21)
    _commit_blocks(store, rng, 2)
    reader = _peer(store)
    reader.reconstruct_log_table_index()
    for k in (1, 3):
        first = log_blocks(store)
        _commit_blocks(store, rng, k)
        calls, nbytes, index = _reads_during(reader, lambda: _index(reader))
        assert (calls, nbytes) == (k, _footer_bytes(reader, first)) == \
            (k, k * (FOOTER_FIXED_SIZE + 8 * (N - 1)))
        assert index == _index(_peer(store))


def test_warm_index_after_peer_batch_refills_same_block_ids():
    """Stale-cache case: the batch moves the log to a new generation and
    new files take the block ids the reader has cached in the old one."""
    store = make_store()
    rng = random.Random(22)
    _commit_blocks(store, rng, 3)
    reader = _peer(store)
    reader.reconstruct_log_table_index()
    old_footers = reader.footers()
    _drain(store)
    assert log_blocks(store) == 0
    _commit_blocks(store, rng, 4)
    calls, _, index = _reads_during(reader, lambda: _index(reader))
    assert calls == 4  # the footers of generation 2, now the lowest
    assert reader.footers() != old_footers
    assert index == _index(_peer(store))
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
    assert log_blocks(store) == 3
    store.begin_transaction(write=True)
    assert _index(readers[0]) == _index(_peer(store))
    # readers[1] does not look until blocks 1 and 2 are new files
    _commit_blocks(store, rng, 3)
    for reader in readers:
        assert _index(reader) == _index(_peer(store))
        for pid in range(TOTAL):
            assert reader.read_page(pid) == store.read_page(pid)


def _folds_during(action):
    """The pageids `action` folds into a log table index, in order."""
    folded = []
    fold = spdu_dfs._fold

    def counted(index, footers):
        footers = list(footers)
        folded.extend(pid for _, pageids in footers for pid in pageids)
        fold(index, footers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spdu_dfs, "_fold", counted)
        action()
    return folded


def _pageids_of_blocks(store, first):
    footers = store.footers()
    return [pid for block_id in range(first, log_blocks(store))
            for pid in footers[block_id][0]]


def test_a_begin_rebuilds_the_index_only_after_another_change():
    """A writer that begins before it appends, as the engine's does, keeps
    its index matched through its own appends, so its begins fold
    nothing. A reader's begin after the writer's commits folds the whole
    committed prefix but reads from the DFS only the new footers; after
    another store's batch and refill the reader rebuilds, and a writer
    whose failed commit left an auto-flushed block folds the committed
    prefix exactly once."""
    faults = FaultInjector()
    store = make_store(faults=faults)
    rng = random.Random(24)
    store.begin_transaction(write=True)
    _commit_blocks(store, rng, 3)
    reader = _peer(store)
    assert _folds_during(reader.reconstruct_log_table_index) == \
        _pageids_of_blocks(store, 0)
    for k in (1, 2, 4):
        first = log_blocks(store)
        assert _folds_during(
            lambda: store.begin_transaction(write=True)) == []
        _commit_blocks(store, rng, k)
        assert _folds_during(
            lambda: store.begin_transaction(write=True)) == []
        calls, nbytes, folded = _reads_during(reader, lambda: _folds_during(
            lambda: reader.begin_transaction(write=False)))
        assert folded == _pageids_of_blocks(store, 0)
        assert (calls, nbytes) == (k, _footer_bytes(reader, first))
        assert reader.index == _index(_peer(store))
    stale = reader.index
    store.batch_post_commit()
    store.begin_transaction(write=True)
    _commit_blocks(store, rng, 2)
    assert _folds_during(
        lambda: reader.begin_transaction(write=False)) == \
        _pageids_of_blocks(store, 0)
    assert reader.index is not stale
    assert reader.index == _index(_peer(store))

    store.begin_transaction(write=True)
    for pid in rng.sample(range(TOTAL), N - 1):
        store.write_page(pid, page_with(rng))  # auto-flushed, uncommitted
    faults.arm("dfs.commit.before_marker")
    with pytest.raises(CrashPoint):
        store.commit_transaction()
    committed = _pageids_of_blocks(store, 0)[:-(N - 1)]
    assert _folds_during(
        lambda: store.begin_transaction(write=True)) == committed
    assert store.index == _index(_peer(store))


def test_a_begin_looks_up_the_log_only_after_another_change():
    """A begin looks up the log's constituents only when the log's
    NameNode version moved past what the store last matched: its own
    appends do not move it, another store's commit does. A store that
    appends with no begin looks them up once, at its first append, for
    the window that precedes it."""
    store = make_store()
    rng = random.Random(26)
    lookups = []
    entries = store.manager.constituent_entries

    def counted(file):
        lookups.append(file)
        return entries(file)

    store.manager.constituent_entries = counted
    _commit_blocks(store, rng, 2)
    assert lookups == [GEN1]
    store.begin_transaction(write=True)
    assert lookups == [GEN1] * 2
    for k in (1, 3):
        _commit_blocks(store, rng, k)
        store.begin_transaction(write=True)
        assert lookups == [GEN1] * 2
    peer = _peer(store)
    peer.begin_transaction(write=True)
    _commit_blocks(peer, rng, 1)
    store.begin_transaction(write=False)
    assert lookups == [GEN1] * 3
    assert store.index == _index(peer)
    store.begin_transaction(write=False)
    assert lookups == [GEN1] * 3


def test_a_begin_lists_the_generations_only_after_a_drop(monkeypatch):
    """A reader's begin over an unchanged log asks the NameNode's
    registry one thing, the live generation's version. Another store's
    commit moves that version, so the next begin also checks that the
    generation is still registered; only after another store's batch
    dropped it does a begin list the generations, once, and open the
    lowest."""
    store = make_store()
    rng = random.Random(28)
    _commit_blocks(store, rng, 2)
    reader = _peer(store)
    reader.begin_transaction(write=False)
    cluster = store.manager.cluster
    calls = []
    for method in ("meta_version", "meta_exists", "meta_names"):
        def counted(*args, method=method, original=getattr(cluster, method)):
            calls.append(method)
            return original(*args)
        monkeypatch.setattr(cluster, method, counted)
    reader.begin_transaction(write=False)
    assert calls == ["meta_version"]
    _commit_blocks(store, rng, 1)
    calls.clear()
    reader.begin_transaction(write=False)
    assert calls == ["meta_version", "meta_exists"]
    store.batch_post_commit()
    calls.clear()
    reader.begin_transaction(write=False)
    assert calls == ["meta_version", "meta_exists", "meta_names",
                     "meta_version"]
    assert reader.generation == store.generation == 2
    assert reader.index == _index(_peer(store))


def test_a_rebuild_looks_up_each_log_block_once(monkeypatch):
    """A rebuild over k log blocks takes every block's entry from one
    meta_block_entries call and reads each footer with the entry it
    holds: no meta_block_entry call, cold or warm."""
    store = make_store()
    rng = random.Random(27)
    _commit_blocks(store, rng, 3)
    cluster = store.manager.cluster
    calls = []
    for method in ("meta_block_entries", "meta_block_entry"):
        def counted(*args, method=method, original=getattr(cluster, method)):
            calls.append(method)
            return original(*args)
        monkeypatch.setattr(cluster, method, counted)
    reader = _peer(store)
    for k in (3, 5):
        calls.clear()
        reader.reconstruct_log_table_index()
        assert log_blocks(store) == k
        assert calls == ["meta_block_entries"]
        _commit_blocks(store, rng, 2)


def test_warm_indexes_match_fresh_under_random_two_store_schedules():
    """Two writing stores take turns; after every step one store, picked
    at random, is checked, so a store may miss a generation switch, or a
    truncate and refill of the block ids it has cached. Between
    transactions it reads each logged page as a fresh store does, which
    replays each block's window from the log, across batches too."""
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
                writer.begin_transaction(write=True)
                writer = None
            else:
                writer.commit_transaction()
                writer.batch_post_commit()
                writer = None
            fresh = _peer(first)
            store = rng.choice(stores)
            assert _index(store) == _index(fresh), (seed, step)
            assert store.footers() == fresh.footers(), (seed, step)
            if writer is None:  # no store holds an open write
                assert [store.read_page(pid) for pid in fresh.index] == \
                    [fresh.read_page(pid) for pid in fresh.index], \
                    (seed, step)


def test_log_generations_are_the_all_digit_names_lowest_first():
    """A log's generations are the registered meta files named
    `generation_name(log, g)` for an all-digit g, lowest first: a name
    that goes on past the digits, has other characters or other digits
    after the log's prefix, or was a generation's name under an older
    prefix, is none."""
    mgr = MetaDfsManager(DfsCluster(DfsConfig(BLOCK, 2), 4), PAGE)
    for name in ("db/log/g12", "db/log/g3", "db/log/g3/data", "db/log/gx",
                 "db/log/g\u00b2", "db/log/g", "db/log/gen1", "db/log",
                 "db/logs/g1"):
        mgr.create_meta(name)
    assert spdu_dfs.log_generations(mgr, "db/log") == [3, 12]
    assert spdu_dfs.generation_name("db/log", 3) == "db/log/g3"
    assert spdu_dfs.log_generations(mgr, "other/log") == []


GEN2 = spdu_dfs.generation_name("db/log", 2)


@pytest.mark.parametrize("drop_fails", [False, True],
                         ids=["dropped", "left"])
def test_a_write_with_no_begin_after_a_peers_batch_lands_in_the_live_generation(
        drop_fails):
    """Store A last read generation 1 when B's batch drops it, which
    makes generation 2 live, or fails before the drop, which leaves 1
    live and 2 for restart to drop. A then commits with no begin: the
    commit lands in the live generation, never in the other, and a
    restarted store, which drops the other, reads it."""
    rng = random.Random(21)
    a = make_store()
    b = _peer(a)
    cluster = a.manager.cluster
    copies = {pid: page_with(rng) for pid in (5, 20, 40)}
    a.write_page(5, copies[5])
    a.commit_transaction()
    b.begin_transaction(write=True)
    b.write_page(20, copies[20])
    b.commit_transaction()
    if drop_fails:
        b.faults = FaultInjector()
        b.faults.arm("dfs.batch.before_generation_drop")
        with pytest.raises(CrashPoint):
            b.batch_post_commit()
    else:
        b.batch_post_commit()
    live = GEN1 if drop_fails else GEN2
    live_blocks = cluster.meta_block_count(live)
    gen2_blocks = cluster.meta_block_count(GEN2)
    a.write_page(40, copies[40])
    a.commit_transaction()
    assert a.generation == (1 if drop_fails else 2)
    assert cluster.meta_block_count(live) == live_blocks + 1
    if drop_fails:
        assert cluster.meta_block_count(GEN2) == gen2_blocks
    else:
        assert not cluster.meta_exists(GEN1)
    restarted = _peer(a)
    restarted.restart_system()
    assert restarted.generation == a.generation
    assert not cluster.meta_exists(GEN2 if drop_fails else GEN1)
    for pid, content in copies.items():
        assert payload(restarted.read_page(pid)) == payload(content)


def test_a_transaction_that_appended_to_a_replaced_generation_raises():
    """A's open transaction has appended a full buffer to generation 1
    when B's batch names generation 2 and drops 1, with that buffer: A's
    commit raises LogMoved and appends to neither generation, and A
    commits again after a begin."""
    rng = random.Random(22)
    a = make_store()
    b = _peer(a)
    cluster = a.manager.cluster
    committed = page_with(rng)
    a.write_page(5, committed)
    a.commit_transaction()
    for pid in range(16, 16 + N - 1):  # the buffer fills and is appended
        a.write_page(pid, page_with(rng))
    assert cluster.meta_block_count(GEN1) == 2
    b.batch_post_commit()
    gen2_blocks = cluster.meta_block_count(GEN2)
    a.write_page(40, page_with(rng))
    with pytest.raises(LogMoved):
        a.commit_transaction()
    assert not cluster.meta_exists(GEN1)
    assert cluster.meta_block_count(GEN2) == gen2_blocks
    a.begin_transaction(write=True)
    later = page_with(rng)
    a.write_page(40, later)
    a.commit_transaction()
    reader = _peer(a)
    reader.begin_transaction(write=False)
    assert payload(reader.read_page(5)) == payload(committed)
    assert payload(reader.read_page(40)) == payload(later)
    assert reader.read_page(16) == bytes(PAGE)


def test_restart_abandons_an_interrupted_batch():
    """A batch that crashed after its second remake, before it dropped
    generation 1, is abandoned: restart answers "clean", drops generation 2
    and leaves generation 1 live, where every page reads as its newest
    committed copy; the next batch copies them home."""
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
        _drain(store)
    fresh = DfsTransactionStore(store.manager, store.data, store.log_name,
                                0)
    assert fresh.restart_system() == "clean"
    assert fresh.generation == 1 and log_blocks(fresh) == 1
    assert not store.manager.cluster.meta_exists(GEN2)
    for pid in range(TOTAL):
        assert fresh.read_page(pid) == oracle.read(pid)
    assert _drain(fresh) == 4
    assert fresh.generation == 2 and log_blocks(fresh) == 0
    for pid in range(TOTAL):
        assert fresh.manager.read_page(fresh.data, pid) == oracle.read(pid)


@pytest.mark.parametrize("death", ["in process", "of the process"])
def test_a_delta_whose_home_an_abandoned_batch_remade_reads_home(
        tmp_path, death):
    """A page logged one byte off its home, as a delta, whose home a
    batch then remade before it stopped short of its commit: the
    live generation still holds the delta, whose base is no longer
    home's file_id, and home holds the page. A restarted store, in the
    same process or, after a death of the process, over a fresh cluster
    on the persistent root, reads the page from home, and its next batch
    copies it home again."""
    root = None if death == "in process" else str(tmp_path / "root")
    faults = FaultInjector()
    store = make_store(faults=faults, root=root)
    rng = random.Random(38)
    store.write_page(2 * N + 1, page_with(rng))
    store.commit_transaction()
    _drain(store)
    page = bytearray(store.read_page(2 * N + 1))
    page[PAGE_HEADER_SIZE] ^= 1
    store.write_page(2 * N + 1, bytes(page))
    store.commit_transaction()
    changed = store.read_page(2 * N + 1)
    home = store.manager.constituent_entry(store.data, 2).file_id
    assert log_bases(store, 0) == [home]
    faults.arm("dfs.batch.before_generation_drop")
    with pytest.raises(CrashPoint):
        _drain(store)
    assert store.manager.constituent_entry(store.data, 2).file_id != home
    if root is None:
        fresh = _peer(store)
    else:
        mgr = MetaDfsManager(DfsCluster(DfsConfig(BLOCK, 2), 4, root), PAGE)
        fresh = DfsTransactionStore(mgr, "db/data", "db/log")
    assert fresh.restart_system() == "clean"
    assert fresh.generation == 2 and log_bases(fresh, 0) == [home]
    assert fresh.read_page(2 * N + 1) == changed
    assert _drain(fresh) == 1
    assert fresh.manager.read_page(fresh.data, 2 * N + 1) == changed


def test_an_all_zero_fill_keeps_one_page_and_its_block_is_logged_next():
    """A fill of an all-zero block stores one page, so the block has a
    constituent: the next transaction that writes it logs its pages,
    which read back, and a batch copies them home."""
    store = make_store(holes=True)
    store.manager.overwrite_block(store.data, 2, bytes(BLOCK))
    assert store.manager.fills_total == 1
    assert _constituent_sizes(store, store.data) == [PAGE, PAGE]
    page = page_with(random.Random(42))
    store.write_page(2 * N + 3, page)
    store.commit_transaction()
    assert store.manager.fills_total == 1 and 2 * N + 3 in _index(store)
    assert log_bases(store, 0) == [0]
    stamped = store.read_page(2 * N + 3)
    assert stamped[PAGE_HEADER_SIZE:] == page[PAGE_HEADER_SIZE:]
    assert _drain(store) == 1
    assert _block_lengths(store, store.data) == [PAGE, 4 * PAGE]
    assert _constituent_sizes(store, store.data)[1] < 4 * PAGE  # a stream
    assert store.manager.read_page(store.data, 2 * N + 3) == stamped


@pytest.mark.parametrize("death", ["in process", "of the process"])
def test_a_page_past_its_homes_end_is_logged_whole(tmp_path, death):
    """A page whose home page lies past the end of its data block's
    constituent reads its home as zeros, so it is logged whole, base 0,
    beside a page of that block logged as a delta. Both read back
    through the writer and, in the same process or after a death of the
    process, through a restarted store, whose batch copies them home:
    the block then ends at the page that lay past its end."""
    root = None if death == "in process" else str(tmp_path / "root")
    store = make_store(holes=True, root=root)
    rng = random.Random(41)
    store.write_page(2 * N + 1, page_with(rng))
    store.commit_transaction()  # the fill writes pages 0 and 1 of block 2
    assert _constituent_sizes(store, store.data) == [PAGE, 2 * PAGE]
    near = bytearray(store.read_page(2 * N + 1))
    near[PAGE_HEADER_SIZE] ^= 1
    store.write_page(2 * N + 7, page_with(rng))
    store.write_page(2 * N + 1, bytes(near))
    store.commit_transaction()
    home = store.manager.constituent_entry(store.data, 2).file_id
    # log block 0 is the first commit's marker, with no page
    assert log_bases(store, 1) == [0, home]
    newest = {pid: store.read_page(pid) for pid in range(2 * N, 3 * N)}
    if root is None:
        fresh = _peer(store)
    else:
        mgr = MetaDfsManager(DfsCluster(DfsConfig(BLOCK, 2), 4, root), PAGE)
        fresh = DfsTransactionStore(mgr, "db/data", "db/log")
    assert fresh.restart_system() == "clean"
    assert {pid: fresh.read_page(pid) for pid in newest} == newest
    assert _drain(fresh) == 1
    assert _block_lengths(fresh, fresh.data) == [PAGE, 8 * PAGE]
    assert _constituent_sizes(fresh, fresh.data)[1] < 8 * PAGE  # a stream
    assert {pid: fresh.manager.read_page(fresh.data, pid)
            for pid in newest} == newest


# what changes a meta file or registers or drops one
META_FILE_CALLS = ("append_block", "overwrite_block", "truncate_from",
                   "create_meta", "create_sparse_meta", "delete_meta")


@pytest.mark.parametrize("point", [p for p in SPDU_DFS_FAULT_POINTS
                                   if p.startswith("dfs.batch.")])
def test_restart_writes_no_page(monkeypatch, point):
    """A threshold-4 store crashes at `point` in the first batch its
    commits run, with one uncommitted block appended after. A fresh
    store's restart then makes no append, remake, fill or register and
    writes no DFS byte: it only drops generations and truncates the
    tail. Later commits and a threshold-0 batch leave every page of the
    data file as the oracle's committed state."""
    faults = FaultInjector()
    store = make_store(threshold=4, faults=faults)
    oracle = MapOracle(PAGE, TOTAL)
    rng = random.Random(50)

    def write_pages(target):
        for _ in range(12):
            pid, content = rng.randrange(TOTAL), page_with(rng)
            target.write_page(pid, content)
            oracle.write(pid, content)

    faults.arm(point)
    with pytest.raises(CrashPoint):
        for _ in range(20):
            write_pages(store)
            try:
                store.commit_transaction()
            finally:
                oracle.commit()  # the batch runs after the marker
    store.begin_transaction(write=True)
    store.write_page(0, page_with(rng))
    store.flush_buffer(mark_commit=False)

    cluster = store.manager.cluster
    fresh = DfsTransactionStore(store.manager, store.data, store.log_name,
                                0)
    calls = []
    for method in META_FILE_CALLS:
        def recorded(*args, method=method,
                     original=getattr(MetaDfsManager, method)):
            calls.append(method)
            return original(*args)
        monkeypatch.setattr(MetaDfsManager, method, recorded)
    bytes_before = cluster.counters.bytes_written
    assert fresh.restart_system() == "rollback"
    monkeypatch.undo()
    assert cluster.counters.bytes_written == bytes_before
    assert "truncate_from" in calls
    assert set(calls) <= {"delete_meta", "truncate_from"}
    assert not cluster.meta_exists(spdu_dfs.generation_name(
        "db/log", fresh.generation + 1))

    write_pages(fresh)
    fresh.commit_transaction()
    oracle.commit()
    _drain(fresh)
    for pid in range(TOTAL):
        assert fresh.manager.read_page(fresh.data, pid) == oracle.read(pid)


class LogMutationRefused(RuntimeError):
    pass


@pytest.mark.parametrize("owner, method, nth", [
    (DataNode, "drop", 2), (DfsCluster, "meta_unregister", 1)],
    ids=["drop-2", "meta_unregister-1"])
def test_failed_generation_drop_keeps_the_newest_committed_copy(
        monkeypatch, owner, method, nth):
    """Page 5 committed twice; the batch has carried its newest copy into
    generation 2 when the drop of generation 1, its commit point, fails:
    before its unregister, which leaves generation 1 live, or after it,
    at the nth drop of a replica of one of its log blocks, which leaves
    generation 2 live. A restarted store must open the live generation,
    drop the other, read the newest copy, and go on committing."""
    store = make_store()
    rng = random.Random(8)
    copies = [page_with(rng) for _ in range(4)]
    for content in copies[:2]:
        store.write_page(5, content)
        store.commit_transaction()
    cluster = store.manager.cluster
    log_data_blocks = {cluster.file_entry(name).file_id
                       for name in cluster.list_files(GEN1 + "/")}
    original = getattr(owner, method)
    seen = []

    def refuse(self, target, *args):
        # an unregister names the generation, a drop a block by its id
        if target == GEN1 or target in log_data_blocks:
            seen.append(target)
            if len(seen) == nth:
                raise LogMutationRefused(target)
        return original(self, target, *args)

    monkeypatch.setattr(owner, method, refuse)
    with pytest.raises(LogMutationRefused):
        store.batch_post_commit()
    monkeypatch.undo()
    assert store.manager.remakes_total == 0
    committed = owner is DataNode  # the unregister was saved
    restarted = DfsTransactionStore(store.manager, store.data,
                                    store.log_name)
    assert restarted.generation == (2 if committed else 1)
    restarted.restart_system()
    assert not cluster.meta_exists(GEN1 if committed else GEN2)
    assert payload(restarted.read_page(5)) == payload(copies[1])
    for content in copies[2:]:
        restarted.begin_transaction(write=True)
        restarted.write_page(5, content)
        restarted.commit_transaction()
    reader = DfsTransactionStore(store.manager, store.data,
                                 store.log_name)
    reader.begin_transaction(write=False)
    assert payload(reader.read_page(5)) == payload(copies[3])


def test_crash_storm_during_recovery_converges():
    """Crash the batch, then keep crashing recovery itself at random
    points; the final clean restart must still land on the committed
    state."""
    batch_points = [p for p in
                    ("dfs.batch.begin",
                     "dfs.batch.before_carry_append",
                     "dfs.batch.after_carry_append",
                     "dfs.batch.before_block_remake",
                     "dfs.batch.after_block_remake",
                     "dfs.batch.before_generation_drop",
                     "dfs.restart.begin")]
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
            if log_blocks(store) > 2:
                faults.arm(rng.choice(batch_points), skip=rng.randrange(2))
        else:
            # no batch crashed during the commits; force one directly
            post = oracle.committed_state()
            faults.arm("dfs.batch.before_generation_drop")
            with pytest.raises(CrashPoint):
                store.batch_post_commit()

        for _ in range(10):
            faults = FaultInjector()
            if rng.random() < 0.7:
                faults.arm(rng.choice(batch_points), skip=rng.randrange(3))
            attempt = DfsTransactionStore(store.manager, store.data,
                                          store.log_name, 2, faults)
            try:
                attempt.restart_system()
                break
            except CrashPoint:
                continue
        final = DfsTransactionStore(store.manager, store.data, store.log_name)
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
    fresh = DfsTransactionStore(store.manager, store.data,
                                store.log_name)
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
        probe = DfsTransactionStore(store.manager, store.data, store.log_name)
        reads, _, state = _reads_during(probe, probe.recovery_state)
        assert reads == 0
    else:
        probe = _peer(store)
        state = probe.recovery_state()
    before = log_blocks(probe)
    probe.begin_transaction(write=True)
    truncated = log_blocks(probe) < before
    assert (state == "rollback") == truncated == (tail > 0)
    assert log_blocks(probe) == 2
    assert probe.recovery_state() is None


def test_clean_restart_preserves_state():
    store = make_store()
    rng = random.Random(17)
    content = page_with(rng)
    store.write_page(3, content)
    store.commit_transaction()
    fresh = DfsTransactionStore(store.manager, store.data,
                                store.log_name)
    assert fresh.restart_system() == "clean"
    assert payload(fresh.read_page(3)) == payload(content)


@pytest.mark.parametrize("via", ["store", "database"])
@pytest.mark.parametrize("log", ["clean", "tail", "interrupted batch"])
def test_restart_takes_the_path_recovery_state_reports(log, via):
    """restart_system() and Database.recover return what recovery_state()
    said before them, or "clean" when that was None, and leave nothing
    to recover. A batch that crashed before it dropped generation 1
    leaves nothing to recover: restart leaves generation 1 live."""
    faults = FaultInjector()
    store = make_store(faults=faults)
    rng = random.Random(41)
    store.write_page(3, page_with(rng))
    store.commit_transaction()
    if log == "tail":
        store.write_page(7, page_with(rng))
        store.flush_buffer(mark_commit=False)
    elif log == "interrupted batch":
        faults.arm("dfs.batch.after_block_remake")
        with pytest.raises(CrashPoint):
            _drain(store)
    state = _peer(store).recovery_state()
    assert state == ("rollback" if log == "tail" else None)
    if via == "store":
        path = _peer(store).restart_system()
    else:
        path = Database(store.manager, "db").recover()
    assert path == (state or "clean")
    assert _peer(store).recovery_state() is None
    assert _peer(store).generation == 1


def test_two_process_visibility():
    """One session commits pages 5 and 3; the next session's reconstruction
    picks them up from footers alone."""
    store = make_store()
    rng = random.Random(18)
    p5, p3 = page_with(rng), page_with(rng)
    store.write_page(5, p5)
    store.write_page(3, p3)
    store.commit_transaction()

    second = DfsTransactionStore(store.manager, store.data,
                                 store.log_name)
    assert set(_index(second)) == {5, 3}
    assert payload(second.read_page(5)) == payload(p5)
    assert payload(second.read_page(3)) == payload(p3)


def test_footer_fidelity_matches_page_headers():
    store = make_store()
    rng = random.Random(19)
    for pid in (4, 44, 4, 80):
        store.write_page(pid, page_with(rng))
    store.flush_buffer(mark_commit=True)
    footers = _peer(store).footers()
    for block_id, (body, _) in enumerate(log_bodies(store)):
        pageids, _ = footers[block_id]
        for slot, pid in enumerate(pageids):
            page = body[slot * PAGE:(slot + 1) * PAGE]
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
                store.begin_transaction(write=True)
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
                store.begin_transaction(write=True)
                oracle.abort()
        for pid in range(TOTAL):
            assert store.read_page(pid) == oracle.read(pid), seed


def _constituent_sizes(store, file):
    return [entry.size_bytes
            for entry in store.manager.constituent_entries(file)
            if entry is not None]


def _block_lengths(store, file):
    """The length of each block of `file` that has a constituent, as its
    pages read back: a remade block's, which it may store as a shorter
    stream, included."""
    return [len(store.manager.read_block(file, block_id))
            for block_id, entry in enumerate(
                store.manager.constituent_entries(file))
            if entry is not None]


def _logged_body(store, pageids, pages):
    """What a log block's body holds for `pages`, listed as `pageids`,
    worked out byte by byte: each page XORed with its home page if that
    leaves at most half its nonzero bytes, else whole, then each page's
    base, 8 bytes: its home's file_id, or 0 for a whole page."""
    logged, bases = [], []
    for pid, page in zip(pageids, pages):
        home = store.manager.read_page(store.data, pid)
        delta = bytes(a ^ b for a, b in zip(page, home))
        if 2 * sum(map(bool, delta)) <= sum(map(bool, page)):
            logged.append(delta)
            bases.append(
                store.manager.constituent_entry(store.data, pid // N).file_id)
        else:
            logged.append(page)
            bases.append(0)
    return b"".join(logged) + struct.pack(f"<{len(bases)}Q", *bases)


def test_a_commit_of_k_pages_appends_its_pages_and_footer_bytes():
    """A log block is its body, each page whole or XORed with its home
    and then the base of each, compressed as one zlib stream at level 1
    with the window of the generation's earlier bodies as its
    dictionary, and the footer, with no padding, and every replica holds
    exactly that: its body is the k stamped pages so encoded, its footer
    reads back, and a fresh store decodes the pages."""
    store = make_store()
    rng = random.Random(30)
    # every page home, so that a page one byte off its home is a delta
    for pid in range(TOTAL):
        store.write_page(pid, page_with(rng))
    store.commit_transaction()
    _drain(store)
    bases = set()

    def near_home(pid):
        page = bytearray(store.manager.read_page(store.data, pid))
        page[PAGE_HEADER_SIZE + rng.randrange(PAGE - PAGE_HEADER_SIZE)] ^= 1
        return bytes(page)

    def write(pageids):
        """Write each other page one byte off its home, the rest random;
        returns the stamped pages."""
        contents = [near_home(pid) if i % 2 else page_with(rng)
                    for i, pid in enumerate(pageids)]
        for pid, content in zip(pageids, contents):
            store.write_page(pid, content)
        return [stamp_page(pid, content)
                for pid, content in zip(pageids, contents)]

    def check_last_block(pageids, pages, commit_complete):
        block_id = log_blocks(store) - 1
        name = store.manager.constituent_entry(store.log, block_id).name
        body = _logged_body(store, pageids, pages)
        window = log_windows(store)[block_id]
        size = len(deflated(body, window)) + 13 + 8 * len(pageids)
        assert _constituent_sizes(store, store.log)[block_id] == size
        replicas = store.manager.cluster.replicas(name)
        assert len(replicas) == 2
        assert all(r == replicas[0] for r in replicas)
        assert len(replicas[0]) == size
        assert unpack_body(replicas[0], PAGE, window) == body
        assert unpack_footer(replicas[0]) == (pageids, commit_complete)
        bases.update(log_bases(store, block_id))
        return size

    def check_decoded(pageids, pages):
        peer = _peer(store)
        peer.begin_transaction(write=False)
        assert [peer.read_page(pid) for pid in pageids] == pages

    for k in (0, 1, 4, N - 2):
        pageids = rng.sample(range(TOTAL), k)
        pages = write(pageids)
        store.commit_transaction()
        check_last_block(pageids, pages, True)
        check_decoded(pageids, pages)
    # a full buffer flushes a block of every page but one, plus the
    # footer; random payloads barely compress, and the block fits
    pages = write(list(range(N - 1)))
    assert check_last_block(list(range(N - 1)), pages, False) <= BLOCK
    store.commit_transaction()
    check_decoded(list(range(N - 1)), pages)
    assert 0 in bases and len(bases) > 1


def test_the_smallest_geometry_fits_an_incompressible_page():
    """At two pages a block, the smallest count the store accepts, a page
    size of 46 bytes is the smallest whose one incompressible page fits
    a block with its base and footer, and the 4-byte DICTID of a stream
    with a dictionary; a random page commits there and a fresh store
    reads it back."""
    check_log_geometry(46, 2)
    for page_size, pages_per_block in ((45, 2), (46, 1)):
        with pytest.raises(ValueError):
            check_log_geometry(page_size, pages_per_block)
    cluster = DfsCluster(DfsConfig(92, 2), 4)
    mgr = MetaDfsManager(cluster, 46)
    data = "db/data"
    mgr.create_meta(data)
    for _ in range(2):
        mgr.append_block(data, bytes(92))
    create_log_meta(mgr, "db/log")
    store = DfsTransactionStore(mgr, data, "db/log")
    rng = random.Random(37)
    pages = {pid: rng.randbytes(46) for pid in (1, 2)}
    for pid, content in pages.items():
        store.write_page(pid, content)  # the second auto-flushes the first
    store.commit_transaction()
    # two one-page blocks whose bodies came out longer than their pages,
    # the second with the first's body as its dictionary, and the
    # commit-marked empty block
    *logged, marker = [
        entry.size_bytes for entry in mgr.constituent_entries(store.log)]
    assert (len(logged), marker) == (2, 12 + 13)
    assert all(46 + 13 + 8 < size <= 92 for size in logged)
    assert [bool(window) for window in log_windows(store)] == \
        [False, True, True]
    fresh_mgr = MetaDfsManager(cluster, 46)
    fresh = DfsTransactionStore(fresh_mgr, "db/data", "db/log")
    fresh.begin_transaction(write=False)
    for pid, content in pages.items():
        got = fresh.read_page(pid)
        assert got == store.read_page(pid)
        assert got[PAGE_HEADER_SIZE:] == content[PAGE_HEADER_SIZE:]


def test_a_full_buffer_with_a_full_window_fits_the_edge_geometry():
    """At 16 pages a block, 271 bytes is the smallest page size whose
    full buffer of incompressible pages fits a block with its bases, its
    footer and the 4-byte DICTID of a stream with a dictionary; 270 fit
    before log blocks took one. There, full buffers of random pages fill
    the generation's window, 32 KB; the next full buffer, compressed with
    it, fits its block, decodes only with that window, and a fresh store
    reads every page back."""
    page, n = 271, 16
    check_log_geometry(page, n)
    with pytest.raises(ValueError, match="bases"):
        check_log_geometry(page - 1, n)
    cluster = DfsCluster(DfsConfig(page * n, 2), 4)
    mgr = MetaDfsManager(cluster, page)
    mgr.create_meta("db/data")
    mgr.append_block("db/data", bytes(page * n))
    create_log_meta(mgr, "db/log")
    store = DfsTransactionStore(mgr, "db/data", "db/log")
    store.begin_transaction(write=True)
    rng = random.Random(41)
    full = -(-32 * 1024 // ((n - 1) * (page + 8)))  # buffers to a window
    for _ in range(full + 1):
        pages = {pid: rng.randbytes(page) for pid in range(1, n)}
        for pid, content in pages.items():
            store.write_page(pid, content)  # the last auto-flushes
    store.commit_transaction()
    windows = log_windows(store)
    assert [len(window) for window in windows[full - 1:full + 1]] == \
        [(full - 1) * (n - 1) * (page + 8), 32 * 1024]
    block = stored_block(mgr, store.log, full)
    assert names_a_dictionary(block) and len(block) <= page * n
    assert len(unpack_body(block, page, windows[full])) == \
        (n - 1) * (page + 8)
    for window in (b"", windows[full - 1], windows[full][1:] + b"\0"):
        with pytest.raises(RecoveryError, match="does not decode"):
            unpack_body(block, page, window)
    fresh = DfsTransactionStore(MetaDfsManager(cluster, page), "db/data",
                                "db/log")
    fresh.begin_transaction(write=False)
    for pid, content in pages.items():
        assert fresh.read_page(pid)[PAGE_HEADER_SIZE:] == \
            content[PAGE_HEADER_SIZE:]


@pytest.mark.parametrize("page_size, pages_per_block", [
    (512, 32), (64, 4), (128, 8), (256, 16), (1024, 64)])
def test_a_geometry_whose_full_buffer_fits_only_without_bases_is_refused(
        page_size, pages_per_block):
    """A full buffer of incompressible pages, every page of a block but
    one, fits a block of these geometries with its footer, but not with
    the 8-byte base of each page as well: the store refuses them."""
    pages = pages_per_block - 1
    rng = random.Random(40)
    body = rng.randbytes(pages * page_size)
    footer = pack_footer(list(range(pages)), False)
    assert len(zlib.compress(body, 1)) + len(footer) <= \
        pages_per_block * page_size < \
        len(zlib.compress(body + rng.randbytes(8 * pages), 1)) + len(footer)
    with pytest.raises(ValueError, match="bases"):
        check_log_geometry(page_size, pages_per_block)


def test_data_blocks_end_at_their_last_page():
    """A data block's constituent ends at the last page written to it,
    the pages past it reading as zeros."""
    store = make_store(threshold=1, holes=True)
    assert _constituent_sizes(store, store.data) == [PAGE]
    rng = random.Random(31)
    for commit in range(6):
        for pid in (commit, N + commit, 3 * N + commit):
            store.write_page(pid, page_with(rng))
        store.commit_transaction()
    # the first commit logged one page (the other two blocks were holes),
    # 533 bytes, each later one three, 1,573 bytes, so the sixth took the
    # log to 8,398 bytes, past T=1 block's worth of 8,192, and ran a
    # batch, whose drop of generation 1 made generation 2 live
    assert _peer(store).generation == 2
    # the batch remade blocks 0 and 3, whose pages 0 to 5 the commits
    # wrote, and carried block 1's pages 1 to 5, so block 1 still ends at
    # the page the first commit wrote in place
    assert sorted(store.index) == list(range(N + 1, N + 6))
    assert _constituent_sizes(store, store.data) == [6 * PAGE, PAGE, 6 * PAGE]
    for pid in (6, N - 1, N + 6, 3 * N + 6, 4 * N - 1):
        assert store.read_page(pid) == bytes(PAGE)
    assert store.manager.remakes_total == 2
    assert store.manager.cluster.replicas(
        store.manager.constituent_entry(store.data, 3).name) == \
        [store.manager.read_block(store.data, 3)] * 2


# the block's footer does not read
TORN_FOOTERS = [
    "footer missing", "footer misplaced", "half a page",
    "last byte missing", "stray byte", "bad checksum",
    "shorter than a fixed footer",
    *(f"{j} whole pages" for j in range(1, N + 1))]
# the block's footer reads, but its body does not decode to its pages
TORN_BODIES = [
    "count disagrees", "truncated body", "flipped body byte",
    "body decodes short"]


def _torn_block(torn, pages, pageids):
    """Log block content of the named kind of damage, for `pages` listed
    as `pageids`."""
    body = zlib.compress(b"".join(pages), 1)
    footer = pack_footer(pageids, True)
    block = body + footer
    if torn.endswith("whole pages"):
        size = int(torn.split()[0]) * PAGE
        return block.ljust(size, b"\0")[:size]
    checksum_flipped = bytearray(block)
    checksum_flipped[len(body) + 5] ^= 0xFF
    body_flipped = bytearray(body)
    body_flipped[len(body) // 2] ^= 0xFF
    return {
        "footer missing": body,  # the footer never landed
        "footer misplaced": footer + body,
        "half a page": footer.ljust(PAGE, b"\0")[:PAGE // 2],
        "last byte missing": block[:-1],
        "stray byte": block + b"\0",
        "bad checksum": bytes(checksum_flipped),
        "shorter than a fixed footer": footer[-(FOOTER_FIXED_SIZE - 1):],
        # a body of all three pages, whose footer lists two
        "count disagrees": body + pack_footer(pageids[:2], True),
        "truncated body": body[:-1] + footer,
        "flipped body byte": bytes(body_flipped) + footer,
        "body decodes short":
            zlib.compress(b"".join(pages[:2]), 1) + footer,
    }[torn]


@pytest.mark.parametrize("torn", TORN_FOOTERS + TORN_BODIES)
def test_a_torn_short_block_is_never_committed(torn):
    """A log constituent created directly through the cluster that is not
    one zlib stream of the pages its footer lists followed by that
    footer is never served. A torn footer fails a fresh store's
    footers() with RecoveryError, and a begin never indexes its pages as
    committed. A footer that reads over a torn body is indexed, since a
    rebuild reads only footers, but every read of a page it lists and a
    batch raise RecoveryError, and the batch stops before it drops
    generation 1, which stays live. Either way the block before it still
    reads."""
    store = make_store()
    rng = random.Random(32)
    first = page_with(rng)
    store.write_page(1, first)
    store.commit_transaction()
    pageids = [10, 11, 12]
    pages = [page_with(rng) for _ in pageids]
    cluster = store.manager.cluster
    cluster.create_file(f"{GEN1}/00000001",
                        _torn_block(torn, pages, pageids), meta=GEN1)
    fresh = _peer(store)
    if torn in TORN_FOOTERS:
        with pytest.raises(RecoveryError):
            _peer(store).footers()
        for action in (fresh.reconstruct_log_table_index,
                       lambda: fresh.begin_transaction(write=False),
                       fresh.recovery_state):
            with pytest.raises(RecoveryError):
                action()
        assert not set(pageids) & set(fresh.index)
    else:
        listed, _ = fresh.footers()[1]
        fresh.begin_transaction(write=False)
        assert set(listed) <= set(fresh.index)
        for pid in listed:
            with pytest.raises(RecoveryError):
                fresh.read_page(pid)
        with pytest.raises(RecoveryError):
            fresh.batch_post_commit()
        assert _peer(store).generation == 1
    # block 0 is its page and its footer
    assert unpack_footer(stored_block(store.manager, store.log, 0)) == \
        ([1], True)
    assert payload(store.read_page(1)) == payload(first)


def test_a_flipped_body_byte_is_a_recovery_error_not_wrong_bytes():
    """One flipped byte in the body of a committed log block, which no
    page checksum would catch, makes a read of its page and a batch raise
    RecoveryError, not zlib.error; the batch stops before it drops
    generation 1, which stays live, and block 0's page still reads."""
    store = make_store()
    rng = random.Random(36)
    first = page_with(rng)
    store.write_page(1, first)
    store.commit_transaction()
    page = stamp_page(10, page_with(rng))
    body = bytearray(zlib.compress(page, 1))
    body[len(body) // 2] ^= 0x01
    store.manager.cluster.create_file(
        f"{GEN1}/00000001", bytes(body) + pack_footer([10], True),
        meta=GEN1)
    fresh = _peer(store)
    fresh.begin_transaction(write=False)
    assert fresh.index[10] == (1, 0)
    with pytest.raises(RecoveryError, match="does not decode"):
        fresh.read_page(10)
    with pytest.raises(RecoveryError, match="does not decode"):
        fresh.batch_post_commit()
    reader = _peer(store)
    reader.begin_transaction(write=False)
    assert reader.generation == 1
    assert payload(reader.read_page(1)) == payload(first)
    assert store.manager.remakes_total == 0


def _replace_log_block(store, block_id, content):
    """Replace the constituent of block `block_id` of generation 1 with
    `content` on every replica, under a new file_id, so that no page
    cache serves the old bytes."""
    cluster = store.manager.cluster
    name = constituent_name(GEN1, block_id)
    cluster.delete_file(name)
    cluster.create_file(name, content)


def test_bytes_between_a_body_and_its_footer_are_a_torn_block():
    """A committed log block whose body, a whole zlib stream, is followed
    by other bytes before its footer is torn, though its stream and its
    footer each pass their own checks: every byte before the footer is
    the stream's. A fresh store's read of its page and a restart raise
    RecoveryError."""
    store = make_store()
    rng = random.Random(45)
    store.write_page(10, page_with(rng))
    store.commit_transaction()
    block = stored_block(store.manager, GEN1, 0)
    end = len(block) - FOOTER_FIXED_SIZE - 8
    torn = block[:end] + b"JUNKJUNK" + block[end:]
    assert unpack_footer(torn) == unpack_footer(block)
    with pytest.raises(RecoveryError, match="does not decode"):
        unpack_body(torn, PAGE)
    _replace_log_block(store, 0, torn)
    fresh = _peer(store)
    fresh.begin_transaction(write=False)
    assert fresh.index == {10: (0, 0)}
    with pytest.raises(RecoveryError, match="does not decode"):
        fresh.read_page(10)
    with pytest.raises(RecoveryError, match="does not decode"):
        _peer(store).restart_system()


@pytest.mark.parametrize("damage", ["flipped body byte", "another body"])
def test_a_damaged_earlier_block_fails_every_block_after_it(damage):
    """Block 0 of a generation of three committed blocks is damaged on
    every replica: one byte of its body flipped, which its own zlib check
    catches, or its body replaced by another stream of as many pages and
    bases, which decodes. Either way each block after it, whose window
    it begins, fails: a fresh store's read of any page those blocks hold
    and a restart raise RecoveryError, so no read returns pages decoded
    with a wrong window."""
    store = make_store()
    rng = random.Random(38)
    store.begin_transaction(write=True)
    _commit_blocks(store, rng, 3)
    block = stored_block(store.manager, GEN1, 0)
    pageids, complete = unpack_footer(block)
    if damage == "flipped body byte":
        damaged = bytearray(block)
        damaged[(len(block) - 13 - 8 * len(pageids)) // 2] ^= 0xFF
        with pytest.raises(RecoveryError, match="does not decode"):
            unpack_body(bytes(damaged), PAGE)
    else:
        other = rng.randbytes(len(pageids) * PAGE) + bytes(8 * len(pageids))
        damaged = zlib.compress(other, 1) + pack_footer(pageids, complete)
        assert unpack_body(damaged, PAGE) == other
    _replace_log_block(store, 0, bytes(damaged))
    fresh = _peer(store)
    fresh.begin_transaction(write=False)
    later = [pid for pid, (block_id, _) in fresh.index.items() if block_id]
    assert later
    for pid in later:
        with pytest.raises(RecoveryError, match="does not decode"):
            fresh.read_page(pid)
    with pytest.raises(RecoveryError, match="does not decode"):
        _peer(store).restart_system()


def test_a_truncated_tail_leaves_the_window_of_the_next_commit():
    """A failed commit's auto-flushed block, which the writer's window
    took in, is truncated at the writer's next begin. The next commit's
    blocks take the window of the committed prefix alone: they decode in
    a fresh store, and after a restart."""
    faults = FaultInjector()
    store = make_store(faults=faults)
    rng = random.Random(39)
    store.begin_transaction(write=True)
    _commit_blocks(store, rng, 2)
    for pid in rng.sample(range(TOTAL), N - 1):
        store.write_page(pid, page_with(rng))  # auto-flushed, uncommitted
    faults.arm("dfs.commit.before_marker")
    with pytest.raises(CrashPoint):
        store.commit_transaction()
    assert log_blocks(store) == 3
    store.begin_transaction(write=True)
    assert log_blocks(store) == 2
    pages = {pid: page_with(rng) for pid in rng.sample(range(TOTAL), N + 3)}
    for pid, content in pages.items():
        store.write_page(pid, content)
    store.commit_transaction()
    assert log_blocks(store) == 4
    restarted = _peer(store)
    assert restarted.restart_system() == "clean"
    for reader in (_peer(store), restarted):
        reader.begin_transaction(write=False)
        for pid, content in pages.items():
            assert payload(reader.read_page(pid)) == payload(content)


def test_a_batch_over_a_torn_log_leaves_generation_1_live():
    """A batch reads every footer before it registers the next
    generation, so a fresh store's batch over a log whose committed
    block 1 is torn raises RecoveryError with generation 1 still live
    and no generation 2: recovery_state() then refuses the
    log, and block 0's page still reads through the writer."""
    store = make_store()
    rng = random.Random(34)
    first = page_with(rng)
    store.write_page(1, first)
    store.commit_transaction()
    block = zlib.compress(page_with(rng), 1) + pack_footer([10], True)
    store.manager.cluster.create_file(
        f"{GEN1}/00000001", block[:-1], meta=GEN1)
    fresh = _peer(store)
    with pytest.raises(RecoveryError):
        fresh.batch_post_commit()
    assert _peer(store).generation == 1
    assert not store.manager.cluster.meta_exists(GEN2)
    with pytest.raises(RecoveryError):
        fresh.recovery_state()
    assert payload(store.read_page(1)) == payload(first)


def test_a_threshold_batch_looks_up_and_reads_no_footer(monkeypatch):
    """The commit that runs a threshold batch leaves the index matched,
    so the batch neither looks up the log's constituents nor reads a
    footer, and the store kept the pages of each block it appended, so
    the batch decodes no body."""
    store = make_store(threshold=1)
    rng = random.Random(35)
    store.begin_transaction(write=True)
    calls = []

    def counted(method):
        original = getattr(store.manager, method)

        def call(*args):
            calls.append(method)
            return original(*args)
        return call

    for method in ("constituent_entries", "read_bytes"):
        monkeypatch.setattr(store.manager, method, counted(method))
    while not store.manager.remakes_total:
        store.write_page(rng.randrange(TOTAL), page_with(rng))
        store.commit_transaction()
    assert log_blocks(store) == 1  # the pages the batch carried
    assert calls == []


def test_a_log_block_with_no_constituent_is_a_recovery_error():
    """The meta-file layer reads a block with no constituent as zeros, but
    the log has no holes: once a counted log block's constituent is gone,
    a writer's begin, recovery_state and restart fail with RecoveryError
    and truncate nothing, also in a store that had already read the
    block's footer, and so does a warm reader's begin."""
    store = make_store()
    rng = random.Random(33)
    for _ in range(2):
        store.write_page(rng.randrange(TOTAL), page_with(rng))
        store.commit_transaction()
    warm = _peer(store)
    warm.begin_transaction(write=False)
    store.manager.cluster.delete_file(f"{GEN1}/00000000")
    assert store.manager.read_block(store.log, 0) == bytes(BLOCK)
    hole = "log block 0 has no constituent"
    with pytest.raises(RecoveryError, match=hole):
        store.footers()
    for writer in (store, warm, _peer(store)):
        with pytest.raises(RecoveryError, match=hole):
            writer.begin_transaction(write=True)
        with pytest.raises(RecoveryError, match=hole):
            writer.recovery_state()
    with pytest.raises(RecoveryError, match=hole):
        warm.begin_transaction(write=False)
    with pytest.raises(RecoveryError, match=hole):
        Database(store.manager, "db").recover()
    assert log_blocks(store) == 2
    # block 1 is its page and its footer
    assert unpack_footer(stored_block(store.manager, store.log, 1))[1] is True


def test_an_unlogged_block_is_written_in_place_before_the_marker():
    """A hole with no log copy: its pages are written in place and read
    back from the data block after a restart; the block's other pages
    are zeros, the log gets only the marker, and the first write of the
    block is a fill, not a remake. A stamped page depends only on its
    pageid and payload, so each reads as the same bytes as the same page
    written to a store that logs it: as its log copy, carried into the
    next generation, and remade home."""
    rng = random.Random(3)
    store, all_logged = make_store(holes=True), make_store()
    logged = page_with(rng)
    unlogged = [(3 * N, page_with(rng)), (3 * N + 5, page_with(rng))]
    for each in (store, all_logged):
        each.write_page(7, logged)
        for pageid, page in unlogged:
            each.write_page(pageid, page)
    assert payload(store.read_page(3 * N + 5)) == payload(unlogged[1][1])
    for each in (store, all_logged):
        each.commit_transaction()
    assert log_blocks(store) == 1
    assert _footer(store, 0) == ([7], True)
    assert (store.manager.fills_total,
            store.manager.remakes_total) == (1, 0)
    fresh = DfsTransactionStore(store.manager, store.data,
                                store.log_name)
    fresh.restart_system()
    stamped = {pageid: stamp_page(pageid, page) for pageid, page in unlogged}
    assert {pageid: fresh.read_page(pageid) for pageid in stamped} == \
        {pageid: store.manager.read_page(store.data, pageid)
         for pageid in stamped} == stamped
    assert fresh.read_page(3 * N + 1) == bytes(PAGE)
    assert _footer(all_logged, 0) == ([7, 3 * N, 3 * N + 5], True)
    assert {pageid: all_logged.read_page(pageid) for pageid in stamped} == \
        stamped
    assert all_logged.batch_post_commit() == 0
    assert set(all_logged.index) == {7, *stamped}  # carried into g2
    peer = _peer(all_logged)
    peer.begin_transaction(write=False)
    assert {pageid: peer.read_page(pageid) for pageid in stamped} == stamped
    assert _drain(all_logged) == 2
    assert {pageid: all_logged.manager.read_page(all_logged.data, pageid)
            for pageid in stamped} == stamped


def test_a_block_a_failed_commit_left_is_logged_then_remade():
    """The block a failed commit created in place has a constituent that
    no committed state references, so the next transaction logs it, and
    the batch that copies the page home is a remake."""
    faults = FaultInjector()
    store = make_store(faults=faults, holes=True)
    rng = random.Random(4)
    store.write_page(2 * N, page_with(rng))
    faults.arm("dfs.commit.after_direct_block")
    with pytest.raises(CrashPoint):
        store.commit_transaction()
    store.begin_transaction(write=True)
    page = page_with(rng)
    store.write_page(2 * N + 1, page)
    store.commit_transaction()
    assert _footer(store, 0) == ([2 * N + 1], True)
    assert (store.manager.fills_total,
            store.manager.remakes_total) == (1, 0)
    assert _drain(store) == 1
    assert (store.manager.fills_total,
            store.manager.remakes_total) == (1, 1)
    assert payload(store.read_page(2 * N + 1)) == payload(page)


def test_a_hole_with_a_log_copy_is_logged():
    """A hole whose page the committed log holds (as a log written when
    every page was logged may) is logged with every page the transaction
    writes to it: in place, a later batch would copy the stale log copy
    over it. The batch then creates the block, which is a fill."""
    rng = random.Random(5)
    store = make_store(holes=True)
    stale = stamp_page(4 * N + 2, page_with(rng))
    store.manager.append_block(
        store.log, zlib.compress(stale + bytes(8), 1) +
        pack_footer([4 * N + 2], True))
    store.begin_transaction(write=True)
    assert store.index == {4 * N + 2: (0, 0)}
    fresh = page_with(rng)
    store.write_page(4 * N, page_with(rng))  # in the log table index
    store.write_page(4 * N + 2, fresh)  # and now in the buffer
    store.commit_transaction()
    assert _footer(store, 1) == ([4 * N, 4 * N + 2], True)
    assert store.manager.fills_total == 0
    _drain(store)
    assert store.manager.fills_total == 1
    assert payload(store.read_page(4 * N + 2)) == payload(fresh)
    store.write_page(4 * N + 3, page_with(rng))  # it has a constituent now
    store.commit_transaction()
    assert _footer(store, 0) == ([4 * N + 3], True)


def test_a_block_whose_replicas_are_all_dead_is_logged():
    """The hole test ignores replica health: a commit that dirties a
    written block whose replicas are all dead logs its page and
    succeeds, though `constituent_entry` refuses the block. The page is
    logged whole, though it is one byte off its home: the home cannot
    be read."""
    rng = random.Random(6)
    store = make_store(holes=True)
    store.write_page(2 * N, page_with(rng))
    store.write_page(2 * N + 1, page_with(rng))
    store.commit_transaction()
    page = bytearray(store.read_page(2 * N + 1))
    page[PAGE_HEADER_SIZE] ^= 1
    cluster = store.manager.cluster
    for node_id in cluster.file_entry(
            constituent_name(store.data, 2)).holders:
        cluster.set_node_alive(node_id, False)
    with pytest.raises(AllReplicasDead):
        store.manager.constituent_entry(store.data, 2)
    store.write_page(2 * N + 1, bytes(page))
    store.commit_transaction()
    # read by the writer: a peer would first read the footers, whose
    # replicas may have died with the data block's
    assert store.footers()[1] == ([2 * N + 1], True)
    assert log_bases(store, 1) == [0]
    assert store.manager.fills_total == 1
    assert payload(store.read_page(2 * N + 1)) == payload(page)


def test_a_delta_reads_only_while_its_home_is_readable():
    """A page logged as a delta needs its home: a fresh store's read of
    it raises AllReplicasDead while every replica of its home is dead,
    though the log block reads, and returns the page
    once the home's nodes are revived. The writer keeps the pages it
    appended and serves them all along. A fresh store's restart checks
    the log block's body without decoding it, so it reads no home and
    finds the log clean, and it keeps no decoded page."""
    store = make_store()
    rng = random.Random(39)
    blocks = range(1, TOTAL // N)
    for block in blocks:
        store.write_page(block * N, page_with(rng))
    store.commit_transaction()
    _drain(store)
    for block in blocks:
        page = bytearray(store.read_page(block * N))
        page[PAGE_HEADER_SIZE] ^= 1
        store.write_page(block * N, bytes(page))
    store.commit_transaction()
    assert all(log_bases(store, 0))
    logged = {block: store.read_page(block * N) for block in blocks}
    cluster = store.manager.cluster

    def holders(file, block_id):
        return set(cluster.file_entry(
            constituent_name(file, block_id)).holders)

    readable = (holders(store.log, 0),)
    block = next(block for block in blocks
                 if not any(h <= holders(store.data, block)
                            for h in readable))
    dead = holders(store.data, block)
    for node_id in dead:
        cluster.set_node_alive(node_id, False)
    peer = _peer(store)
    peer.begin_transaction(write=False)
    with pytest.raises(AllReplicasDead):
        peer.read_page(block * N)
    restarted = _peer(store)
    assert restarted.restart_system() == "clean"
    with pytest.raises(AllReplicasDead):
        restarted.read_page(block * N)
    assert store.read_page(block * N) == logged[block]
    for node_id in dead:
        cluster.set_node_alive(node_id, True)
    assert {b: peer.read_page(b * N) for b in blocks} == logged
