import os
import random
import sys
import threading
import zlib

import pytest
from oracles import cached_ids, stored_block

from wormdb import metafile
from wormdb.dfs import DfsCluster, DfsConfig
from wormdb.errors import (
    AllReplicasDead,
    AlreadyExists,
    NotFound,
    OutOfRange,
    RecoveryError,
    StorageError,
    WrongBlockSize,
)
from wormdb.metafile import MetaDfsManager, constituent_name
from wormdb.spdu_dfs import (
    DfsTransactionStore,
    create_data_meta,
    create_log_meta,
)

BLOCK = 16 * 1024
PAGE = 1024
N = BLOCK // PAGE


@pytest.fixture
def mgr():
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
    return MetaDfsManager(cluster, PAGE)


def block_of(tag: int) -> bytes:
    return bytes([tag % 256]) * BLOCK


def test_create_meta_empty(mgr):
    f = "db/data"
    mgr.create_meta(f)
    assert mgr.cluster.meta_block_count(f) == 0
    with pytest.raises(AlreadyExists):
        mgr.create_meta("db/data")
    with pytest.raises(OutOfRange):
        mgr.read_block(f, 0)


def test_append_naming_matches_ordinal_scheme(mgr):
    f = "path/data"
    mgr.create_meta(f)
    for i in range(4):
        block_id, file_id = mgr.append_block(f, block_of(i))
        name = constituent_name("path/data", i)
        assert block_id == i
        assert cached_ids(mgr)[name] == file_id == \
            mgr.cluster.file_entry(name).file_id
    names = mgr.cluster.list_files("path/data/")
    assert names == [f"path/data/{i:08d}" for i in range(4)]
    assert constituent_name("path/data", 3) == "path/data/00000003"


def test_append_wrong_size(mgr):
    """An append takes 1 to BLOCK bytes; an overwrite whole pages only."""
    f = "m"
    mgr.create_meta(f)
    for content in (b"", bytes(BLOCK + 1), bytes(BLOCK + PAGE)):
        with pytest.raises(WrongBlockSize):
            mgr.append_block(f, content)
    assert mgr.cluster.meta_block_count(f) == 0
    mgr.append_block(f, block_of(1))
    for content in (b"short", b"", bytes(PAGE + 1), bytes(BLOCK + PAGE)):
        with pytest.raises(WrongBlockSize):
            mgr.overwrite_block(f, 0, content)
    assert mgr.read_block(f, 0) == block_of(1)


def test_a_log_block_is_read_whole_as_stored_not_as_a_page(
        mgr, monkeypatch):
    """A log block of one page is its compressed page and its footer,
    shorter here than one page. `read_bytes`, given the block's entry,
    returns the whole block as stored, from the cache of the manager
    that appended it, or with one DFS read of it, which another manager
    then serves from its cache, and it makes no NameNode call. A page read
    takes a constituent that is not whole pages for a stream of pages,
    which a log block is not: it fails with RecoveryError naming the
    constituent, cached or not."""
    data = "db/data"
    create_data_meta(mgr, data, 4 * N, bytes(PAGE))
    create_log_meta(mgr, "db/log")
    store = DfsTransactionStore(mgr, data, "db/log")
    store.write_page(3, bytes([7]) * PAGE)  # block 0 is written: logged
    store.commit_transaction()
    size = mgr.constituent_entry(store.log, 0).size_bytes
    assert 13 + 8 < size < PAGE
    block = stored_block(mgr, store.log, 0)
    assert len(block) == size
    peer = peer_of(mgr)
    for manager, reads in ((mgr, (0, 0)), (peer, (1, size))):
        file = store.log
        entry = manager.constituent_entry(file, 0)
        with monkeypatch.context() as patch:
            patch.setattr(manager.cluster, "meta_block_entry", None)
            for calls in (reads, (0, 0)):
                assert dfs_reads(manager, lambda: manager.read_bytes(entry)) \
                    == (*calls, block)
        with pytest.raises(RecoveryError, match=entry.name):
            manager.read_page(file, 0)
    # a hole has no entry to read bytes from; it reads as a zero block
    assert mgr.constituent_entry(data, 2) is None
    assert mgr.read_block(data, 2) == bytes(BLOCK)


def test_a_block_read_whole_is_cached_in_place_of_its_pages(mgr):
    """A block of whole pages that another manager wrote is read by page
    as asked for, then whole by `read_block` with one DFS read, and
    cached in place of the page read before it: a second `read_block`
    and a page read of it make no DFS read."""
    f = "m"
    mgr.create_meta(f)
    block = bytes(range(256)) * (BLOCK // 256)
    mgr.append_block(f, block)
    peer = peer_of(mgr)
    page = block[PAGE:2 * PAGE]
    assert dfs_reads(peer, lambda: peer.read_page(f, 1)) == (1, PAGE, page)
    assert dfs_reads(peer, lambda: peer.read_block(f, 0)) == \
        (1, BLOCK, block)
    assert dfs_reads(peer, lambda: peer.read_block(f, 0)) == (0, 0, block)
    for pageid in (1, N - 1):
        assert dfs_reads(peer, lambda: peer.read_page(f, pageid)) == \
            (0, 0, block[pageid * PAGE:(pageid + 1) * PAGE])


def test_a_block_is_whole_pages_up_to_one_dfs_block(mgr):
    f = "m"
    mgr.create_meta(f)
    for pages in (1, 3, N):
        mgr.append_block(f, bytes([pages]) * (pages * PAGE))
    assert [mgr.cluster.file_entry(constituent_name("m", b)).size_bytes
            for b in range(3)] == [PAGE, 3 * PAGE, BLOCK]
    mgr.overwrite_block(f, 2, bytes([9]) * (2 * PAGE))
    assert mgr.read_block(f, 2) == bytes([9]) * (2 * PAGE)


def test_every_constituent_is_one_dfs_block(mgr):
    f = "m"
    mgr.create_meta(f)
    for i in range(3):
        mgr.append_block(f, block_of(i))
    for i in range(3):
        entry = mgr.cluster.file_entry(constituent_name("m", i))
        assert entry.size_bytes == BLOCK
        assert len(entry.holders) == 2


def test_overwrite_block_locality_and_remake_count(mgr):
    f = "m"
    mgr.create_meta(f)
    for i in range(4):
        mgr.append_block(f, block_of(i))
    before = [mgr.read_block(f, i) for i in range(4)]
    assert mgr.remakes_total == 0
    mgr.overwrite_block(f, 2, block_of(99))
    assert mgr.remakes_total == 1
    assert mgr.remakes_total == 1
    assert mgr.read_block(f, 2) == block_of(99)
    for i in (0, 1, 3):
        assert mgr.read_block(f, i) == before[i]
    with pytest.raises(OutOfRange):
        mgr.overwrite_block(f, 9, block_of(0))


def test_read_block_out_of_range(mgr):
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    with pytest.raises(OutOfRange):
        mgr.read_block(f, 1)


def test_read_page_tags(mgr):
    f = "m"
    mgr.create_meta(f)
    content = b"".join(bytes([k]) * PAGE for k in range(N))
    mgr.append_block(f, content)
    for k in range(N):
        assert mgr.read_page(f, k) == bytes([k]) * PAGE
    with pytest.raises(OutOfRange):
        mgr.read_page(f, N)
    mgr.overwrite_block(f, 0, block_of(7))
    assert mgr.read_page(f, 3) == bytes([7]) * PAGE


def test_truncate_from(mgr):
    f = "m"
    mgr.create_meta(f)
    for i in range(4):
        mgr.append_block(f, block_of(i))
    mgr.truncate_from(f, 2)
    assert mgr.cluster.meta_block_count(f) == 2
    assert mgr.cluster.list_files("m/") == [
        constituent_name("m", 0), constituent_name("m", 1)]
    mgr.truncate_from(f, 2)  # no-op at block_count
    assert mgr.cluster.meta_block_count(f) == 2
    mgr.truncate_from(f, 0)
    assert mgr.cluster.meta_block_count(f) == 0
    with pytest.raises(OutOfRange):
        mgr.truncate_from(f, 5)


def record_calls(mgr, monkeypatch, methods):
    """The calls `mgr` makes to the named DfsCluster methods from now on,
    in order, as (method, *args)."""
    calls = []
    for method in methods:
        original = getattr(mgr.cluster, method)

        def recorded(*args, method=method, original=original, **kwargs):
            calls.append((method, *args, *kwargs.values()))
            return original(*args, **kwargs)

        monkeypatch.setattr(mgr.cluster, method, recorded)
    return calls


MUTATIONS = ("create_file", "delete_file", "rename_file",
             "meta_register", "meta_set_block_count", "meta_unregister")


@pytest.fixture
def disk_mgr(tmp_path):
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4, str(tmp_path / "dfs"))
    return MetaDfsManager(cluster, PAGE)


def table_and_cache(mgr, meta):
    """Every DFS entry, the block count of `meta` (None if it is gone),
    and the cached ids: all a failed call must leave as they were."""
    cluster = mgr.cluster
    count = cluster.meta_block_count(meta) if cluster.meta_exists(meta) \
        else None
    return ({name: cluster.file_entry(name) for name in cluster.list_files()},
            count, cached_ids(mgr))


def failed_save(mgr, monkeypatch, call):
    """Run `call` with the replace of the NameNode table failing; it must
    raise OSError and change neither the table, in memory or on disk, nor
    the cache."""
    before = table_and_cache(mgr, "m")
    replace = os.replace

    def no_space(src, dst):
        if dst.endswith("namenode.tbl"):
            raise OSError(28, "No space left on device")
        replace(src, dst)

    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="No space"):
            call()
    assert table_and_cache(mgr, "m") == before
    reopened = MetaDfsManager(
        DfsCluster(mgr.cluster.config, 4, mgr.cluster.root), PAGE)
    assert table_and_cache(reopened, "m")[:2] == before[:2]


def test_a_truncate_is_one_mutation_and_a_failed_one_changes_nothing(
        disk_mgr, monkeypatch):
    mgr = disk_mgr
    f = "m"
    mgr.create_meta(f)
    for i in range(4):
        mgr.append_block(f, block_of(i))
    calls = record_calls(mgr, monkeypatch, MUTATIONS)
    failed_save(mgr, monkeypatch, lambda: mgr.truncate_from(f, 1))
    assert mgr.read_block(f, 3) == block_of(3)
    calls.clear()
    mgr.truncate_from(f, 1)
    assert calls == [("meta_set_block_count", "m", 1)]
    assert mgr.cluster.list_files("m/") == [constituent_name("m", 0)]
    assert list(cached_ids(mgr)) == [constituent_name("m", 0)]
    calls.clear()
    mgr.truncate_from(f, 1)
    assert calls == []


def test_a_failed_append_changes_neither_table_nor_cache(disk_mgr,
                                                         monkeypatch):
    """An append is one create that counts its block: when its table save
    fails, the block is neither listed nor counted nor cached, and the
    next append takes its ordinal."""
    mgr = disk_mgr
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    calls = record_calls(mgr, monkeypatch, MUTATIONS)
    failed_save(mgr, monkeypatch, lambda: mgr.append_block(f, block_of(2)))
    assert calls == [("create_file", constituent_name("m", 1), block_of(2),
                      "m")]
    assert mgr.append_block(f, block_of(3)) == \
        (1, mgr.cluster.file_entry(constituent_name("m", 1)).file_id)
    assert mgr.cluster.meta_block_count(f) == 2
    assert mgr.read_block(f, 1) == block_of(3)
    assert mgr.read_page(f, N) == block_of(3)[:PAGE]


def test_delete_meta(mgr):
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    mgr.delete_meta(f)
    assert mgr.cluster.list_files("m/") == []
    assert not mgr.exists("m")
    with pytest.raises(NotFound):
        mgr.delete_meta(f)
    mgr.create_meta(f)
    assert mgr.cluster.meta_block_count(f) == 0


def test_append_after_overwrite_keeps_order(mgr):
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(0))
    mgr.overwrite_block(f, 0, block_of(5))
    assert mgr.append_block(f, block_of(1)) == \
        (1, mgr.cluster.file_entry(constituent_name("m", 1)).file_id)
    assert mgr.read_block(f, 0) == block_of(5)
    assert mgr.read_block(f, 1) == block_of(1)


def dfs_reads(mgr, fn):
    """(read_range calls, bytes read) while fn runs, and its result."""
    before = mgr.cluster.counters.snapshot()
    result = fn()
    after = mgr.cluster.counters
    return (after.read_calls - before.read_calls,
            after.bytes_read - before.bytes_read, result)


def peer_of(mgr):
    """Another process's manager over the same cluster: its page cache
    holds none of the pages `mgr` appended."""
    return MetaDfsManager(mgr.cluster, mgr.page_size)


def test_repeat_page_read_is_served_from_cache(mgr):
    f = "m"
    mgr.create_meta(f)
    content = b"".join(bytes([k]) * PAGE for k in range(N))
    mgr.append_block(f, content)
    reader = peer_of(mgr)
    assert dfs_reads(reader, lambda: reader.read_page(f, 3)) == \
        (1, PAGE, bytes([3]) * PAGE)
    assert dfs_reads(reader, lambda: reader.read_page(f, 3)) == \
        (0, 0, bytes([3]) * PAGE)
    # another page of the same block is its own DFS read
    assert dfs_reads(reader, lambda: reader.read_page(f, 4))[:2] == (1, PAGE)
    assert cached_ids(reader) == {
        constituent_name("m", 0):
            mgr.cluster.file_entry(constituent_name("m", 0)).file_id}


def test_remake_truncate_and_delete_drop_cached_pages(mgr):
    f = "m"
    mgr.create_meta(f)
    for i in range(3):
        mgr.append_block(f, block_of(i))
    for i in range(3):
        mgr.read_page(f, i * N)
    assert len(cached_ids(mgr)) == 3
    # a remade block replaces its cached entry, under the remake's new id
    old_id = cached_ids(mgr)[constituent_name("m", 1)]
    mgr.overwrite_block(f, 1, block_of(9))
    new_id = mgr.cluster.file_entry(constituent_name("m", 1)).file_id
    assert new_id != old_id
    assert cached_ids(mgr)[constituent_name("m", 1)] == new_id
    assert dfs_reads(mgr, lambda: mgr.read_page(f, N)) == \
        (0, 0, bytes([9]) * PAGE)
    mgr.truncate_from(f, 2)
    assert constituent_name("m", 2) not in cached_ids(mgr)
    with pytest.raises(OutOfRange):
        mgr.read_page(f, 2 * N)
    # an appended block under a truncated block's name is served from
    # its own pages, cached by the append under its new id
    mgr.append_block(f, block_of(5))
    file_id = mgr.cluster.file_entry(constituent_name("m", 2)).file_id
    assert cached_ids(mgr)[constituent_name("m", 2)] == file_id
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 2 * N)) == \
        (0, 0, bytes([5]) * PAGE)
    mgr.delete_meta(f)
    assert cached_ids(mgr) == {}


def test_a_failed_remake_leaves_the_old_block_served(mgr, monkeypatch):
    """A remake whose rename fails leaves the block whole, and its cached
    entry, which still holds the current content: this manager serves it
    with no DFS read, and a peer reads the same content from the DFS."""
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    mgr.overwrite_block(f, 0, block_of(2))

    def refuse(old, new, overwrite=False):
        raise StorageError(f"rename of {old} refused")

    monkeypatch.setattr(mgr.cluster, "rename_file", refuse)
    with pytest.raises(StorageError, match="refused"):
        mgr.overwrite_block(f, 0, block_of(3))
    monkeypatch.undo()
    name = constituent_name("m", 0)
    assert cached_ids(mgr)[name] == mgr.cluster.file_entry(name).file_id
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 0)) == \
        (0, 0, block_of(2))
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 1)) == \
        (0, 0, bytes([2]) * PAGE)
    peer = peer_of(mgr)
    stored = mgr.constituent_entry(f, 0).size_bytes
    assert stored < BLOCK
    assert dfs_reads(peer, lambda: peer.read_block(f, 0)) == \
        (1, stored, block_of(2))
    assert peer.read_page(f, 1) == bytes([2]) * PAGE


def test_a_written_block_is_cached_as_the_object_the_datanodes_keep(mgr):
    """In memory mode a block this manager appended or created in a hole
    is cached as the very object its DataNodes store, so the cache holds
    no copy of its own. A remade block is cached as its pages, beside the
    stream its DataNodes store."""
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    mgr.append_block(f, block_of(2))
    mgr.overwrite_block(f, 1, block_of(3))
    d = "d"
    mgr.create_sparse_meta(d, 2, block_of(4))
    mgr.overwrite_block(d, 1, block_of(5))
    for file, block_id in ((f, 0), (d, 0), (d, 1)):
        name = constituent_name(file, block_id)
        *reads, block = dfs_reads(mgr, lambda: mgr.read_block(file, block_id))
        assert reads == [0, 0]
        replicas = mgr.cluster.replicas(name)
        assert len(replicas) == 2
        assert all(replica is block for replica in replicas)
    *reads, block = dfs_reads(mgr, lambda: mgr.read_block(f, 1))
    assert reads == [0, 0] and block == block_of(3)
    assert mgr.cluster.replicas(constituent_name(f, 1)) == \
        [zlib.compress(block_of(3), 1)] * 2


def test_a_written_buffer_is_cached_as_bytes(mgr):
    """A block handed to an append or a remake as a bytearray is cached as
    bytes: what the caller does to its buffer afterwards changes nothing
    that is read."""
    f = "m"
    mgr.create_meta(f)
    buffer = bytearray(block_of(1))
    mgr.append_block(f, buffer)
    buffer[:] = block_of(2)
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 0)) == \
        (0, 0, block_of(1))
    mgr.overwrite_block(f, 0, buffer)
    buffer[:PAGE] = bytes([7]) * PAGE
    block = mgr.read_block(f, 0)
    assert type(block) is bytes and block == block_of(2)
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 0)) == \
        (0, 0, bytes([2]) * PAGE)
    assert [zlib.decompress(replica) for replica in mgr.cluster.replicas(
        constituent_name("m", 0))] == [block_of(2)] * 2


def test_peer_manager_remake_is_seen_through_the_file_id(mgr):
    """A remake by another manager over the same cluster evicts nothing
    here, but changes the block's file_id, so the stale page is not
    served."""
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    assert mgr.read_page(f, 0) == bytes([1]) * PAGE
    peer = MetaDfsManager(mgr.cluster, mgr.page_size)
    peer.overwrite_block("m", 0, block_of(2))
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 0)) == \
        (1, mgr.constituent_entry(f, 0).size_bytes, bytes([2]) * PAGE)
    peer.truncate_from("m", 0)
    peer.append_block("m", block_of(3))
    assert mgr.read_page(f, 0) == bytes([3]) * PAGE


def test_dead_replicas_of_a_cached_block_are_reported(mgr):
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(4))
    page = mgr.read_page(f, 2)
    holders = mgr.cluster.file_entry(constituent_name("m", 0)).holders
    mgr.cluster.set_node_alive(holders[0], False)
    # one live holder is enough, and the page still comes from the cache
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 2)) == (0, 0, page)
    for node_id in holders:
        mgr.cluster.set_node_alive(node_id, False)
    with pytest.raises(AllReplicasDead):
        mgr.read_page(f, 2)
    with pytest.raises(AllReplicasDead):
        mgr.read_page(f, 3)  # never read, only cached by the append
    with pytest.raises(AllReplicasDead):
        mgr.read_block(f, 0)  # every page cached by the append
    for node_id in holders:
        mgr.cluster.set_node_alive(node_id, True)
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 2)) == (0, 0, page)
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 0)) == \
        (0, 0, block_of(4))


def test_an_appended_block_is_read_from_the_cache(mgr):
    f = "m"
    mgr.create_meta(f)
    content = b"".join(bytes([k]) * PAGE for k in range(N))
    mgr.append_block(f, content)
    file_id = mgr.cluster.file_entry(constituent_name("m", 0)).file_id
    assert cached_ids(mgr) == {constituent_name("m", 0): file_id}
    for offset in (0, 3, N - 1):
        assert dfs_reads(mgr, lambda: mgr.read_page(f, offset)) == \
            (0, 0, bytes([offset]) * PAGE)
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 0)) == (0, 0, content)
    # once another manager remakes the block, its stream is read from
    # the DFS, whole, once, and its pages then served from the cache
    peer = peer_of(mgr)
    peer.overwrite_block("m", 0, block_of(7))
    stored = mgr.constituent_entry(f, 0).size_bytes
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 0)) == \
        (1, stored, block_of(7))
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 0)) == \
        (0, 0, block_of(7))
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 3)) == \
        (0, 0, bytes([7]) * PAGE)


def test_a_short_block_is_read_from_the_cache_and_ends_at_its_size(mgr):
    """An appended short block of whole pages is served whole by
    read_block with no DFS read, and a page past its end reads as zeros
    with no DFS read, cached or not. An appended block that is not whole
    pages is read by read_bytes alone: a page read takes it for a stream
    of pages and fails with RecoveryError."""
    f = "m"
    mgr.create_meta(f)
    content = b"".join(bytes([k + 1]) * PAGE for k in range(3))
    mgr.append_block(f, content)
    mgr.append_block(f, block_of(5))
    mgr.append_block(f, content[:PAGE + PAGE // 2])
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 0)) == (0, 0, content)
    assert dfs_reads(mgr, lambda: mgr.read_page(f, 2)) == \
        (0, 0, bytes([3]) * PAGE)
    peer = peer_of(mgr)
    assert dfs_reads(peer, lambda: peer.read_block(f, 0)) == \
        (1, 3 * PAGE, content)
    for manager, file in ((mgr, f), (peer, f)):
        for pageid in (3, N - 1):
            assert dfs_reads(manager, lambda: manager.read_page(
                file, pageid)) == (0, 0, bytes(PAGE))
        for pageid in (2 * N + 1, 2 * N + 2):
            with pytest.raises(RecoveryError):
                manager.read_page(file, pageid)
        assert stored_block(manager, file, 2) == content[:PAGE + PAGE // 2]
        assert manager.read_page(file, N) == bytes([5]) * PAGE


def test_a_peer_reappend_is_not_served_from_a_stale_seed(mgr):
    """Another manager truncates the block this one appended and appends
    new content under the same block id: this manager's cached pages of
    the old block are never served."""
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    mgr.append_block(f, block_of(2))
    peer = peer_of(mgr)
    peer.truncate_from(f, 1)
    peer.append_block(f, block_of(3))
    assert mgr.read_block(f, 1) == block_of(3)
    assert mgr.read_page(f, N + 1) == block_of(3)[:PAGE]
    peer.truncate_from(f, 0)
    peer.append_block(f, block_of(4))
    assert mgr.read_page(f, 2) == block_of(4)[:PAGE]
    assert mgr.read_block(f, 0) == block_of(4)


def test_a_failed_append_leaves_no_servable_seed(disk_mgr, monkeypatch):
    """An append whose table save fails caches nothing, so a block that
    another manager appends there later is read from the DFS."""
    mgr = disk_mgr
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    failed_save(mgr, monkeypatch, lambda: mgr.append_block(f, block_of(2)))
    assert constituent_name("m", 1) not in cached_ids(mgr)
    with pytest.raises(OutOfRange):
        mgr.read_page(f, N)
    with pytest.raises(OutOfRange):
        mgr.read_block(f, 1)
    peer_of(mgr).append_block("m", block_of(3))
    assert dfs_reads(mgr, lambda: mgr.read_block(f, 1)) == \
        (1, BLOCK, block_of(3))
    assert mgr.read_page(f, N + 2) == block_of(3)[:PAGE]


def test_a_batch_leaves_no_log_block_past_the_master_cached():
    """A batch uncaches the blocks of the generation it drops, so the
    cache holds no log block but the new generation's."""
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
    mgr = MetaDfsManager(cluster, PAGE)
    data = "db/data"
    create_data_meta(mgr, data, 4 * N, bytes(PAGE))
    create_log_meta(mgr, "db/log")
    store = DfsTransactionStore(mgr, data, "db/log")
    for pageid in (1, N + 1, 3 * N):
        store.write_page(pageid, bytes([pageid % 256]) * PAGE)
        store.commit_transaction()
    assert mgr.cluster.meta_block_count(store.log) == 3
    log_blocks = {constituent_name(store.log, b) for b in range(3)}
    assert log_blocks <= set(cached_ids(mgr))
    # a log block with every replica dead fails the batch, though cached
    dead = constituent_name(store.log, 0)
    holders = cluster.file_entry(dead).holders
    for node_id in holders:
        cluster.set_node_alive(node_id, False)
    with pytest.raises(AllReplicasDead, match=dead):
        store.batch_post_commit()
    for node_id in holders:
        cluster.set_node_alive(node_id, True)
    # the batch reads the log blocks, and data block 0 that the create
    # cached, from the cache: nothing from the DFS
    assert dfs_reads(mgr, store.batch_post_commit)[:2] == (0, 0)
    assert not log_blocks & set(cached_ids(mgr))
    # only the new generation, which holds the pages the batch carried
    assert {name for name in cached_ids(mgr)
            if name.startswith("db/log/")} <= {
        constituent_name(store.log, b)
        for b in range(mgr.cluster.meta_block_count(store.log))}


def test_concurrent_reads_and_remakes_leave_no_stale_page(mgr):
    """Readers on several threads, of the remaking manager and of a peer,
    race a thread that remakes two blocks, each remake stored as a stream
    or, for random bytes, as pages. Every page a reader gets is that page
    of one of the versions, never a stream's bytes taken for pages, and a
    page read into the cache just as its block is remade is never served
    once the remakes stop."""
    def version(v):
        return random.Random(v).randbytes(BLOCK) if v % 3 == 0 \
            else block_of(v)

    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(0))
    mgr.append_block(f, block_of(0))
    pageids = [0, 3, N, N + 5]
    pages = {pageid: {version(v)[pageid % N * PAGE:][:PAGE]
                      for v in range(301)} for pageid in pageids}
    peer = peer_of(mgr)
    done = threading.Event()
    errors = []

    def reader(manager):
        while not done.is_set():
            for pageid in pageids:
                try:
                    page = manager.read_page(f, pageid)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)  # a remake leaves no gap to see
                    continue
                if page not in pages[pageid]:
                    errors.append(AssertionError(f"page {pageid} torn"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader, args=(manager,))
                   for manager in (mgr, mgr, peer, peer)]
        for t in readers:
            t.start()
        for v in range(1, 301):
            mgr.overwrite_block(f, v % 2, version(v))
        done.set()
        for t in readers:
            t.join(timeout=30)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    for pageid in pageids:
        expected = version(300 if pageid < N else 299)
        for manager in (mgr, peer):
            assert manager.read_page(f, pageid) == \
                expected[pageid % N * PAGE:][:PAGE]


def test_concurrent_reads_and_reappends_leave_no_stale_page(mgr):
    """Readers on several threads race a thread that truncates a block
    and appends it again, as the log's batch and next commit do. A read
    may find the block gone for a moment, but every page it returns is
    whole, and once the appends stop only the last one is served."""
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(0))
    mgr.append_block(f, block_of(0))
    done = threading.Event()
    errors = []

    def reader():
        while not done.is_set():
            try:
                page = mgr.read_page(f, N + 3)
                block = mgr.read_block(f, 1)
            except (OutOfRange, NotFound):
                continue  # between a truncate and its append
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                continue
            if len(set(page)) != 1 or len(set(block)) != 1:
                errors.append(AssertionError("torn page or block"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        for version in range(1, 301):
            mgr.truncate_from(f, 1)
            mgr.append_block(f, block_of(version))
        done.set()
        for t in readers:
            t.join(timeout=30)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    assert mgr.read_page(f, N + 3) == bytes([300 % 256]) * PAGE
    assert mgr.read_block(f, 1) == block_of(300)


def test_overwrite_replaces_the_constituent_in_one_rename(mgr, monkeypatch):
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    name = constituent_name("m", 0)
    calls = record_calls(mgr, monkeypatch, MUTATIONS)
    mgr.overwrite_block(f, 0, block_of(2))
    assert calls == [
        ("create_file", f"{name}.new", zlib.compress(block_of(2), 1)),
        ("rename_file", f"{name}.new", name, True)]
    assert mgr.cluster.list_files("m/") == [name]
    assert mgr.read_block(f, 0) == block_of(2)
    assert mgr.remakes_total == 1


def test_a_stale_replacement_is_deleted_by_the_next_remake(mgr, monkeypatch):
    """A remake that failed after creating its replacement file leaves the
    block whole and the file behind; the next remake deletes it."""
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(1))
    name = constituent_name("m", 0)

    def refuse(old, new, overwrite=False):
        raise StorageError(f"rename of {old} refused")

    monkeypatch.setattr(mgr.cluster, "rename_file", refuse)
    with pytest.raises(StorageError, match="refused"):
        mgr.overwrite_block(f, 0, block_of(2))
    monkeypatch.undo()
    assert mgr.read_block(f, 0) == block_of(1)
    assert mgr.cluster.list_files("m/") == [name, f"{name}.new"]
    calls = record_calls(mgr, monkeypatch, MUTATIONS)
    mgr.overwrite_block(f, 0, block_of(3))
    assert [call[:2] for call in calls] == [
        ("create_file", f"{name}.new"), ("delete_file", f"{name}.new"),
        ("create_file", f"{name}.new"), ("rename_file", f"{name}.new")]
    assert mgr.cluster.list_files("m/") == [name]
    assert mgr.read_block(f, 0) == block_of(3)


def test_a_never_written_sparse_block_reads_as_zeros(mgr, monkeypatch):
    f = "d"
    mgr.create_sparse_meta(f, 4, block_of(1))
    assert mgr.cluster.meta_block_count(f) == 4
    assert mgr.cluster.list_files("d/") == [constituent_name("d", 0)]
    before = mgr.cluster.counters.snapshot()
    assert mgr.read_page(f, 2 * N + 3) == bytes(PAGE)
    assert mgr.read_block(f, 3) == bytes(BLOCK)
    assert mgr.cluster.counters.bytes_read == before.bytes_read
    assert mgr.cluster.counters.read_calls == before.read_calls
    with pytest.raises(OutOfRange):
        mgr.read_page(f, 4 * N)
    # the first write of a block is a plain create, a fill, not a remake
    calls = record_calls(mgr, monkeypatch, MUTATIONS)
    mgr.overwrite_block(f, 2, block_of(5))
    assert calls == [("create_file", constituent_name("d", 2), block_of(5))]
    assert (mgr.fills_total, mgr.remakes_total) == (1, 0)
    assert mgr.read_page(f, 2 * N + 3) == bytes([5]) * PAGE
    assert mgr.cluster.meta_block_count("d") == 4


def test_an_overwritten_block_ends_at_its_last_nonzero_page(disk_mgr):
    """A sparse create and an overwrite keep their block up to its last
    nonzero page, keeping one page of an all-zero block: a create stores
    those pages, a remake one zlib stream of them, shorter. Each block
    reads back whole, page by page, through the writing manager, a fresh
    manager and a manager over a fresh DfsCluster of the same root, with
    no DFS read for a page past its block's last."""
    mgr = disk_mgr

    def pages(*tags):
        return b"".join(bytes([tag]) * PAGE for tag in tags)

    f = "d"

    mgr.create_sparse_meta(f, 5, pages(1, 0, 2).ljust(BLOCK, b"\0"))
    assert mgr.read_block(f, 0) == pages(1, 0, 2)
    mgr.overwrite_block(f, 2, pages(0, 0, 0, 0, 3, 0))  # a fill
    mgr.overwrite_block(f, 3, block_of(4))  # a fill of the whole block
    mgr.overwrite_block(f, 4, bytes(BLOCK))  # an all-zero fill
    mgr.overwrite_block(f, 0, pages(5, 0, 0, 0, 0, 6, 0, 0))  # a remake
    assert (mgr.fills_total, mgr.remakes_total) == (3, 1)
    stored = {0: pages(5, 0, 0, 0, 0, 6), 1: None, 2: pages(0, 0, 0, 0, 3),
              3: block_of(4), 4: bytes(PAGE)}
    remade, *created = mgr.constituent_entries(f)
    assert [None if entry is None else entry.size_bytes
            for entry in created] == \
        [None if block is None else len(block)
         for block in list(stored.values())[1:]]
    assert remade.size_bytes < len(stored[0])
    reopened = MetaDfsManager(
        DfsCluster(DfsConfig(BLOCK, 2), 4, mgr.cluster.root), PAGE)
    for reader in (mgr, peer_of(mgr), reopened):
        file = "d"
        for block_id, block in stored.items():
            whole = (block or b"").ljust(BLOCK, b"\0")
            for offset in range(N):
                pageid = block_id * N + offset
                page = whole[offset * PAGE:(offset + 1) * PAGE]
                if block is None or offset * PAGE >= len(block):
                    assert dfs_reads(reader, lambda: reader.read_page(
                        file, pageid)) == (0, 0, page)
                else:
                    assert reader.read_page(file, pageid) == page
            if block is not None:
                assert reader.read_block(file, block_id) == block


def compressible(pages: int) -> bytes:
    """`pages` pages of repeated text, each page its own."""
    return b"".join((b"page %d " % k * PAGE)[:PAGE] for k in range(pages))


def test_a_remake_stores_its_pages_as_one_shorter_stream(disk_mgr):
    """A remake stores its block as one zlib stream at level 1, shorter
    than its pages and not whole pages. Its pages read back equal through
    the writer, a peer manager and a manager over a restarted cluster;
    `read_bytes` reads the stream itself, never unpacked, also where the
    block's pages are cached."""
    mgr = disk_mgr
    f = "d"
    mgr.create_sparse_meta(f, 2, block_of(1))
    block = compressible(N - 2)
    mgr.overwrite_block(f, 0, block)
    assert mgr.remakes_total == 1
    entry = mgr.constituent_entry(f, 0)
    stream = zlib.compress(block, 1)
    assert mgr.cluster.replicas(entry.name) == [stream] * 2
    assert entry.size_bytes == len(stream) < len(block)
    assert entry.size_bytes % PAGE
    pages = [block[k * PAGE:(k + 1) * PAGE] for k in range(N - 2)] + \
        [bytes(PAGE)] * 2
    reopened = MetaDfsManager(
        DfsCluster(DfsConfig(BLOCK, 2), 4, mgr.cluster.root), PAGE)
    for reader in (mgr, peer_of(mgr), reopened):
        assert [reader.read_page(f, k) for k in range(N)] == pages
        assert reader.read_block(f, 0) == block
        assert stored_block(reader, f, 0) == stream


def test_a_fill_and_an_incompressible_remake_store_their_pages(
        mgr, monkeypatch):
    """A create, a sparse one or a fill, stores its pages however well
    they compress. A remake stores its pages where their stream would not
    be shorter, as for random bytes, or would be whole pages, which a
    reader would take for pages."""
    f = "d"
    block = compressible(N)
    mgr.create_sparse_meta(f, 3, block)
    mgr.overwrite_block(f, 1, block)
    noise = random.Random(7).randbytes(BLOCK)
    mgr.overwrite_block(f, 2, block_of(1))
    mgr.overwrite_block(f, 2, noise)
    assert (mgr.fills_total, mgr.remakes_total) == (2, 1)
    monkeypatch.setattr(metafile, "deflate", lambda data: bytes(PAGE))
    mgr.overwrite_block(f, 0, block_of(3))
    monkeypatch.undo()
    peer = peer_of(mgr)
    for block_id, pages in ((0, block_of(3)), (1, block), (2, noise)):
        name = constituent_name(f, block_id)
        assert mgr.cluster.replicas(name) == [pages] * 2
        assert mgr.constituent_entry(f, block_id).size_bytes == BLOCK
        assert dfs_reads(peer, lambda: peer.read_page(f, block_id * N + 1)) \
            == (1, PAGE, pages[PAGE:2 * PAGE])


def test_a_cold_page_read_of_a_stream_reads_it_whole_once(mgr):
    """A manager that did not write a stored stream reads it with one DFS
    read of the whole constituent at its first page read, then serves
    every page of the block, and the block, from its cache."""
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(0))
    block = compressible(N)
    mgr.overwrite_block(f, 0, block)
    entry = mgr.constituent_entry(f, 0)
    peer = peer_of(mgr)
    assert dfs_reads(peer, lambda: peer.read_page_of(entry, 3)) == \
        (1, entry.size_bytes, block[3 * PAGE:4 * PAGE])
    for k in range(N):
        assert dfs_reads(peer, lambda: peer.read_page(f, k)) == \
            (0, 0, block[k * PAGE:(k + 1) * PAGE])
    assert dfs_reads(peer, lambda: peer.read_block(f, 0)) == (0, 0, block)
    assert cached_ids(peer) == {entry.name: entry.file_id}


def damaged(stream: bytes, how: str) -> bytes:
    """`stream`, a remake's stored stream of `compressible(N // 2)`,
    damaged as `how` says, or another stream in its place."""
    if how == "flipped byte":
        flipped = bytearray(stream)
        flipped[len(stream) // 2] ^= 0xFF
        return bytes(flipped)
    return {"truncated": stream[:-1],
            "trailing byte": stream + b"\0",
            "no stream": b"\1" * (len(stream) | 1),
            "half a page": zlib.compress(compressible(N // 2) + b"x", 1),
            "no page": zlib.compress(b"", 1),
            "past the block": zlib.compress(bytes(BLOCK + PAGE), 1)}[how]


@pytest.mark.parametrize("on_disk", [False, True],
                         ids=["in memory", "on disk"])
@pytest.mark.parametrize("how", [
    "flipped byte", "truncated", "trailing byte", "no stream",
    "half a page", "no page", "past the block"])
def test_a_damaged_stream_is_a_recovery_error_naming_its_constituent(
        tmp_path, on_disk, how):
    """A stored stream that fails zlib's check, does not end where its
    constituent does, runs past it or does not decode to 1 to N whole
    pages fails every page read, of this manager, a peer and, on disk, a
    manager over a restarted cluster, with RecoveryError naming the
    constituent, never a zlib error or wrong bytes. A flipped byte is
    written over every replica in place; any other damage is a
    constituent that stores it. `read_bytes` still reads the stored
    bytes."""
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4,
                         str(tmp_path / "dfs") if on_disk else None)
    mgr = MetaDfsManager(cluster, PAGE)
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(0))
    mgr.overwrite_block(f, 0, compressible(N // 2))
    entry = mgr.constituent_entry(f, 0)
    stored = damaged(cluster.replicas(entry.name)[0], how)
    assert len(stored) % PAGE
    if how == "flipped byte":
        for holder in entry.holders:
            cluster._nodes[holder].put(entry.file_id, 0, stored)
        readers = [peer_of(mgr)]
    else:
        cluster.create_file(entry.name + ".new", stored)
        cluster.rename_file(entry.name + ".new", entry.name, overwrite=True)
        readers = [mgr, peer_of(mgr)]
    if on_disk:
        readers.append(MetaDfsManager(
            DfsCluster(DfsConfig(BLOCK, 2), 4, cluster.root), PAGE))
    for reader in readers:
        entry = reader.constituent_entry(f, 0)
        for read in (lambda: reader.read_page(f, 1),
                     lambda: reader.read_page_of(entry, N - 1),
                     lambda: reader.read_block(f, 0)):
            with pytest.raises(RecoveryError, match=entry.name):
                read()
        assert reader.read_bytes(entry) == stored


def test_a_failed_delete_changes_neither_table_nor_cache(disk_mgr,
                                                         monkeypatch):
    """A delete is one NameNode mutation: when its table save fails, the
    file keeps every constituent, the `.new` a failed remake left and its
    cached blocks. The delete that follows removes them all, so a sparse
    file created under the name reads zeros, not the old blocks."""
    mgr = disk_mgr
    f = "m"
    mgr.create_meta(f)
    for tag in range(3):
        mgr.append_block(f, block_of(tag + 1))
    mgr.cluster.create_file(constituent_name("m", 1) + ".new", block_of(7))
    calls = record_calls(mgr, monkeypatch, MUTATIONS)
    failed_save(mgr, monkeypatch, lambda: mgr.delete_meta(f))
    assert mgr.read_block(f, 2) == block_of(3)
    calls.clear()
    mgr.delete_meta(f)
    assert calls == [("meta_unregister", "m")]
    assert mgr.cluster.list_files("m/") == []
    assert cached_ids(mgr) == {}
    sparse = "m"
    mgr.create_sparse_meta(sparse, 3, block_of(9))
    assert mgr.read_block(sparse, 1) == bytes(BLOCK)


@pytest.mark.parametrize("appends, dropped", [(1, 1), (5, 3)])
def test_each_length_change_is_one_table_save(disk_mgr, monkeypatch,
                                              appends, dropped):
    """A create, each append, a truncate that drops several blocks and a
    delete each save the NameNode table once."""
    mgr = disk_mgr
    saves = []
    save = DfsCluster._save_tables
    monkeypatch.setattr(DfsCluster, "_save_tables",
                        lambda cluster: saves.append(1) or save(cluster))
    f = "m"
    mgr.create_meta(f)
    for tag in range(appends):
        mgr.append_block(f, block_of(tag))
    mgr.truncate_from(f, appends - dropped)
    mgr.delete_meta(f)
    assert len(saves) == appends + 3


def test_meta_block_entry_checks(mgr):
    f = "m"
    mgr.create_meta(f)
    mgr.append_block(f, block_of(0))
    name = constituent_name("m", 0)
    assert mgr.cluster.meta_block_entry("m", 0) == \
        mgr.cluster.file_entry(name)
    for ordinal in (1, -1):
        with pytest.raises(OutOfRange):
            mgr.cluster.meta_block_entry("m", ordinal)
    with pytest.raises(NotFound):
        mgr.cluster.meta_block_entry("absent", 0)


def test_manager_rejects_remainder():
    with pytest.raises(ValueError):
        MetaDfsManager(DfsCluster(DfsConfig(BLOCK, 2), 4), 1000)
