"""The paper's counters for a small seeded store, pinned.

`page_reads`, `page_writes` and `dfs_remakes` are logical counts that
caching below the session must not change; the pinned values were
measured before the meta-file page cache existed. `network_bytes` is
physical and may only fall (the cache serves repeated page reads without
the DFS), so it is bounded by the values of that same commit.

The insert's `dfs_remakes` (16 -> 0) and `network_bytes` bound
(672,768 -> 188,416) were re-pinned when a commit began to write the
data blocks past the heap's end in place instead of logging them: such
a block's first write is a create, which is no remake, and its pages
cross the network once, not twice.

The updates' `page_writes` (10 -> 9 each), the update without index's
`dfs_remakes` (12 -> 11) and the logged pages of the write workloads
(27 -> 25) were re-pinned when a commit began to log the catalog page
only if it changed: an update of records in place leaves it as it was,
so its data block is no longer remade for it.

The update without index's `dfs_remakes` (11 -> 5) and, in the write
workloads, the log blocks created (3 -> 4), the page copies logged
(25 -> 32: the commits' 25 and 7 that batches carried) and the data
remakes (9 -> 3) were re-pinned when a batch began to carry the logged
pages of a data block into the next log generation while the page
copies it has carried stay below a block's pages, instead of remaking
every dirtied block. What still holds is pinned beside them: each batch
remakes a data block at most once, and every page reads as its newest
committed copy (the workloads' records and a drained data file).

The update without index's `dfs_remakes` (5 -> 4) and the master block
writes of the write workloads (2 -> 1) were re-pinned by arithmetic
when a batch stopped setting a commit_flag in the master block before
it began: its one batch now writes the master block once, at the
switch that names the next log generation, so each pin lost one remake
of the log's master meta file.

The data bytes of the write workloads (one whole block per remake or
fill -> the bytes each write was handed up to their last nonzero page)
were re-pinned when a data block's constituent began to end at its last
nonzero page; the counts stayed as they were.

The indexed workloads' `page_reads` (25 -> 19 with the index, 29 -> 15
after the insert), the insert's counts (2, 166, 0 -> 35, 188, 2 + 1), its
`network_bytes` bound (188,416 -> 231,454, its value at that commit) and,
in the write workloads, the page writes (184 -> 206), log blocks (4 -> 6),
master switches (1 -> 2), data remakes (3 -> 5), pages logged (25 + 7 ->
35 + 14) and fills (11 -> 12) were re-pinned when an index entry came to
hold the crc32 of its key, 10 bytes, not the key padded to 16 bytes in a
24-byte entry: a 512-byte page holds 49 entries, not 20, so a lookup
reads fewer pages, and the load's three 500-row segments, 11 pages each,
now share a tier with the insert's 300-row segment, which folds them all:
it reads their 33 pages, writes a 37-page segment, and logs 17 pages,
enough for a batch at threshold 1.

The update without index's `dfs_remakes` (3 + 1 -> 3) and the insert's
(2 + 1 -> 2) were re-pinned when the log's master block went: a batch
now commits by dropping the live log generation, one NameNode mutation
that remakes no block, so each pin lost its batch's master switch.

The insert's counts (35, 188, 2 -> 32, 187, 0) and, in the write
workloads, the page writes (206 -> 205), log blocks (6 -> 4), batches
(2 -> 1), data remakes (5 -> 3), pages logged (35 + 14 -> 22 + 7) and
fills (12 -> 13) were re-pinned when a slot became its record's 2-byte
offset alone and the page header 8 bytes, not 16: a 512-byte page holds
50 index entries, not 49, so the load's three 500-row segments are 10
pages each, and the insert reads their 30 pages and writes a 36-page
segment. Its commit leaves the log under threshold 1's block of bytes,
so no batch follows it, and one more block is filled in place.

The indexed workloads' `page_reads` (19 -> 16 with the index, 15 -> 14
after the insert) were re-pinned when a lookup began to start each
segment's search at the key's interpolated page and gallop from there
over the pages' first entries, instead of bisecting the segment entry
by entry. The load's segments keep their tiers, so no other count moved.
"""

from collections import Counter

from wormdb import bench, spdu_dfs
from wormdb.dfs import DfsCluster, DfsConfig
from wormdb.engine import Database
from wormdb.faults import FaultInjector
from wormdb.metafile import MetaDfsManager
from wormdb.spdu_dfs import (
    FOOTER_FIXED_SIZE,
    DfsTransactionStore,
    pack_footer,
    unpack_footer,
    unpack_log,
)

from oracles import deflated, log_blocks, packed, stored_block

KEY = "1.2.3.4"
PAGE = 512
BLOCK = 8192
REPLICATION = 2
TOTAL_PAGES = 2048

# name, run_workload arguments, (page_reads, page_writes, dfs_remakes,
# records_returned), network_bytes before the page cache
WORKLOADS = [
    ("scan", dict(kind="scan", limit=10 ** 6), (751, 0, 0, 1500), 384512),
    ("select with index", dict(kind="select", key=KEY, use_index=True),
     (16, 0, 0, 9), 12800),
    ("select without index", dict(kind="select", key=KEY, use_index=False),
     (751, 0, 0, 9), 384512),
    ("update with index", dict(kind="update", key=KEY, use_index=True,
                               new_country_code="XYZ"),
     (16, 9, 0, 9), 29184),
    ("update without index", dict(kind="update", key=KEY, use_index=False,
                                  new_country_code="QRS"),
     # its batch's 3 data remakes
     (751, 9, 3, 9), 688128),
    ("insert", dict(kind="insert", repeat=300, seed=5, key=KEY),
     # its batch remakes no data block
     (32, 187, 0, 300), 231454),
    ("scan after insert", dict(kind="scan", limit=10 ** 6),
     (901, 0, 0, 1800), 461312),
    ("select after insert", dict(kind="select", key=KEY, use_index=True),
     (14, 0, 0, 9), 14848),
]


def make_loaded_db() -> Database:
    cluster = DfsCluster(DfsConfig(BLOCK, REPLICATION), 4)
    # threshold 1: most write transactions end in a batch post-commit
    db = Database.create(cluster, "db", TOTAL_PAGES, PAGE, 1, True,
                         FaultInjector())
    bench.generate(db, 1500, seed=4, probe_key=KEY, probe_count=9,
                   commit_every=500)
    return db


def test_paper_counters_are_pinned(monkeypatch):
    db = make_loaded_db()
    batches = []  # the data blocks each batch overwrote, in order
    inside = []
    batch_post_commit = DfsTransactionStore.batch_post_commit
    overwrite_block = MetaDfsManager.overwrite_block

    def batch(store):
        batches.append([])
        inside.append(True)
        try:
            return batch_post_commit(store)
        finally:
            inside.pop()

    def overwrite(manager, file, block_id, content):
        if inside and file == db.data_name:
            batches[-1].append(block_id)
        return overwrite_block(manager, file, block_id, content)

    monkeypatch.setattr(DfsTransactionStore, "batch_post_commit", batch)
    monkeypatch.setattr(MetaDfsManager, "overwrite_block", overwrite)
    for name, spec, counts, network_bytes in WORKLOADS:
        report = bench.run_workload(db, **spec)
        assert (report["page_reads"], report["page_writes"],
                report["dfs_remakes"], report["records_returned"]) == \
            counts, name
        assert report["network_bytes"] <= network_bytes, name
    assert batches and all(len(set(remade)) == len(remade)
                           for remade in batches)
    # every page reads as its newest committed copy, which a batch that
    # carries nothing copies home
    pages = range(TOTAL_PAGES)
    newest = [db.store.read_page(pageid) for pageid in pages]
    db.store.post_commit_threshold = 0
    db.run_maintenance()
    assert [db.manager.read_page(db.data_name, pageid)
            for pageid in pages] == newest


def test_log_and_data_write_pages_not_blocks(monkeypatch):
    """The bytes each meta file writes while the write workloads run: a
    log block is its logged pages compressed at zlib level 1, with the
    window of its generation's earlier bodies as the dictionary, plus a
    footer of 13 bytes and 8 a page, fewer bytes than the raw pages and
    footers, and a data block, per fill, the bytes its write was handed
    up to their last nonzero page, and per remake those pages as one zlib
    stream at level 1 where that is shorter, fewer bytes than the pages.
    No other file is written: a batch commits by dropping a log
    generation, which writes no byte. Zero padding of log or data blocks
    fails this."""
    db = make_loaded_db()
    cluster, manager = db.manager.cluster, db.manager
    written, created, encoded = Counter(), Counter(), Counter()
    # the blocks of each generation, from those the load left
    generations = {db.store.log: [
        stored_block(manager, db.store.log, block_id)
        for block_id in range(log_blocks(db.store))]}
    create_file = DfsCluster.create_file

    def tally(self, name, content, meta=None):
        entry = create_file(self, name, content, meta)
        kind = name.split("/")[1]
        written[kind] += REPLICATION * len(content)
        created[kind] += 1
        if kind == "log":
            pageids, _ = unpack_footer(content)
            blocks = generations.setdefault(meta, [])
            blocks.append(content)
            *earlier, (body, _) = unpack_log(blocks, PAGE)
            window = earlier[-1][1] if earlier else b""
            encoded["pages"] += len(pageids)
            encoded["bytes"] += len(deflated(body, window)) + \
                FOOTER_FIXED_SIZE + 8 * len(pageids)
        return entry

    monkeypatch.setattr(DfsCluster, "create_file", tally)
    overwrite_block = MetaDfsManager.overwrite_block
    data_writes = []

    def handed(self, file, block_id, content):
        if file == db.data_name:
            data_writes.append((bytes(content),
                                self.has_constituent(file, block_id)))
        return overwrite_block(self, file, block_id, content)

    monkeypatch.setattr(MetaDfsManager, "overwrite_block", handed)
    logged = [0]

    def footer(pageids, commit_complete):
        logged[0] += len(pageids)
        return pack_footer(pageids, commit_complete)

    monkeypatch.setattr(spdu_dfs, "pack_footer", footer)
    bytes_before = cluster.counters.bytes_written
    generation_before = db.store.generation
    remakes_before = manager.remakes_total
    fills_before = manager.fills_total
    page_writes = 0
    for _, spec, _, _ in WORKLOADS:
        if spec["kind"] in ("update", "insert"):
            page_writes += bench.run_workload(db, **spec)["page_writes"]
    batches = db.store.generation - generation_before
    remakes = manager.remakes_total - remakes_before
    fills = manager.fills_total - fills_before
    assert (page_writes, created["log"], batches, remakes) == \
        (205, 4, 1, 3)
    # 22 pages the commits logged and 7 copies the batch carried; the
    # other 183 pages fill blocks past the heap's end in place
    assert (logged[0], fills) == (22 + 7, 13)
    assert sum(written.values()) == \
        cluster.counters.bytes_written - bytes_before
    assert encoded["pages"] == logged[0]
    assert written["log"] == REPLICATION * encoded["bytes"] < REPLICATION * (
        PAGE * logged[0] + FOOTER_FIXED_SIZE * created["log"] + 8 * logged[0])
    assert set(written) == {"log", "data"}
    assert len(data_writes) == remakes + fills
    pages = [content[:PAGE * max(
        (k + 1 for k in range(len(content) // PAGE)
         if any(content[k * PAGE:(k + 1) * PAGE])), default=1)]
        for content, _ in data_writes]
    stored = [packed(block, PAGE) if remade else block
              for block, (_, remade) in zip(pages, data_writes)]
    assert sum(remade for _, remade in data_writes) == remakes
    assert written["data"] == REPLICATION * sum(map(len, stored)) < \
        REPLICATION * sum(map(len, pages)) < \
        REPLICATION * BLOCK * (remakes + fills)
