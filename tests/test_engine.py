import hashlib
import itertools
import math
import random
import sys
import threading
import time
import zlib
from collections import Counter, defaultdict
from dataclasses import replace
from datetime import date
from fractions import Fraction

import pytest

from lock_harness import RecordingLockService
from oracles import (
    cached_ids,
    data_blocks,
    log_bases,
    log_blocks,
    meta_file_strays,
    names_a_dictionary,
    reference_index_pages,
    reference_insert,
    stored_block,
)
from wormdb import bench, engine, spdu_dfs
from wormdb.dfs import DfsCluster, DfsConfig
from wormdb.engine import (
    ENTRY_SIZE,
    FANOUT,
    HEAP_START,
    MAX_FREE_EXTENTS,
    Catalog,
    Database,
    EngineConfig,
    IndexSegment,
    catalog_room,
    pack_catalog,
    parse_catalog,
)
from wormdb.errors import (
    AllReplicasDead,
    DatabaseFull,
    LockError,
    NotFound,
    RecordTooLarge,
    RecoveryError,
    StorageError,
    UpgradeConflict,
    ValueTooLong,
)
from wormdb.faults import SPDU_DFS_FAULT_POINTS, CrashPoint, FaultInjector
from wormdb.locks import LockService
from wormdb.metafile import MetaDfsManager, constituent_name
from wormdb.pagefmt import PAGE_HEADER_SIZE
from wormdb.pages import SlottedPage, empty_free_space
from wormdb.records import UserVisitsRecord, pack_record, unpack_record
from wormdb.spdu_dfs import DfsTransactionStore

PAGE = 512
BLOCK = 8192
TOTAL = 512


def make_db(total=TOTAL, threshold=64, deferred=True, faults=None,
            root=None, nodes=4, replication=2, page=PAGE, block=BLOCK):
    cluster = DfsCluster(DfsConfig(block, replication), nodes, root)
    return Database.create(cluster, "db", total, page, threshold, deferred,
                           LockService(), faults or FaultInjector())


GEN1 = spdu_dfs.generation_name("db/log", 1)  # a new log's generation


def drain(db):
    """`run_maintenance` with a batch that carries no page, as at
    threshold 0, so that every committed log page goes home; returns its
    remakes."""
    threshold = db.store.post_commit_threshold
    db.store.post_commit_threshold = 0
    try:
        return db.run_maintenance()
    finally:
        db.store.post_commit_threshold = threshold


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
    assert len(db.store.index) >= 1  # log entries visible to P2
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


@pytest.mark.parametrize("end", ["abort", "commit"])
def test_reads_inside_a_write_transaction_see_the_open_tail(end):
    """From a committed, partly filled tail page, one write transaction
    inserts rows across page boundaries, and after each insert reads them
    back, each kind of read coming first in turn: a scan, indexed and
    unindexed selects, and updates of rows it inserted, shorter, so that
    the tail page is compacted under the open tail. An abort leaves the
    committed table as it was; a commit leaves every heap page as
    inserting its records one at a time builds it."""
    db = make_db()
    s = db.session()
    committed = [rec(i) for i in range(2)]
    s.begin("write")
    for row in committed:
        s.insert_record(row)
    s.commit()
    rows = list(committed)

    def select(use_index):
        assert s.select_by_key(rows[-1].source_ip, use_index) == [rows[-1]]

    def update(use_index):
        for j, code in ((-1, "AB"), (-3, "XY")):
            assert s.update_by_key(rows[j].source_ip, code, use_index) == 1
            rows[j] = replace(rows[j], country_code=code)

    reads = [lambda: select(True), lambda: select(False),
             lambda: update(True), lambda: update(False),
             lambda: None]
    pages = []
    s.begin("write")
    for i in range(2, 22):
        rows.append(rec(i))
        pages.append(s.insert_record(rows[-1])[0])
        reads[i % len(reads)]()
        assert s.scan(10 ** 6) == rows
    assert pages[0] == HEAP_START and len(set(pages)) >= 3
    assert pages == sorted(pages)
    getattr(s, end)()
    expected = committed if end == "abort" else rows
    assert read_all(s) == expected
    s.begin("read")
    for row in expected:
        assert s.select_by_key(row.source_ip, use_index=True) == [row]
    for pageid in range(HEAP_START, HEAP_START + s.catalog.heap_used):
        page = s._get_page(pageid)
        built = bytearray(len(page))
        for record in SlottedPage(page).records():
            assert reference_insert(built, record) is not None
        assert page[PAGE_HEADER_SIZE:] == built[PAGE_HEADER_SIZE:]
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
    with pytest.raises(ValueTooLong,
                       match="^country_code longer than 3 bytes: 'TOOLONG'$"):
        s.update_by_key("8.8.8.8", "TOOLONG", True)
    s.commit()


def test_a_key_no_record_can_hold_has_one_answer_on_both_paths():
    db = make_db()
    s = db.session()
    key = "1" * 17  # one byte past the source_ip limit
    s.begin("write")
    for i in range(30):
        s.insert_record(rec(i))
    s.insert_record(rec(30, key=key[:16]))  # the key's 16-byte prefix
    assert s.select_by_key(key, True) == s.select_by_key(key, False) == []
    s.commit()
    s.begin("write")
    assert s.update_by_key(key, "ABC", True) == \
        s.update_by_key(key, "ABC", False) == 0
    s.commit()


def test_a_key_with_trailing_nuls_has_one_answer_on_both_paths():
    """Keys that differ only in trailing NULs, which an index of
    NUL-padded keys would give the same entries, select and update the
    same rows on the index path as on the scan, whether the rows are
    committed or the transaction's own."""
    db = make_db()
    s = db.session()
    keys = ["1.2.3.4", "1.2.3.4\0", "1.2.3.4\0\0"]
    s.begin("write")
    for i in range(30):
        s.insert_record(rec(i))
    s.insert_record(rec(30, key=keys[0]))
    s.insert_record(rec(31, key=keys[0]))
    s.insert_record(rec(32, key=keys[1]))
    for key, rows in zip(keys, (2, 1, 0)):
        assert s.select_by_key(key, True) == s.select_by_key(key, False)
        assert len(s.select_by_key(key, True)) == rows
    s.commit()
    for key, rows, code in zip(keys, (2, 1, 0), ("ABC", "DEF", "GHI")):
        s.begin("write")
        assert s.update_by_key(key, code, True) == rows
        s.abort()
        s.begin("write")
        assert s.update_by_key(key, code, False) == rows
        s.commit()
        s.begin("read")
        found = s.select_by_key(key, True)
        assert found == s.select_by_key(key, False)
        assert len(found) == rows
        assert all(r.source_ip == key and r.country_code == code
                   for r in found)
        s.commit()
    s.begin("read")
    assert [r.country_code for r in s.scan(100)
            if r.source_ip.startswith(keys[0])] == ["ABC", "ABC", "DEF"]
    s.commit()


def test_keys_that_share_a_hash_have_one_answer_on_both_paths(tmp_path):
    """Two keys with one crc32 share index entries: selects and updates
    by either key find the same rows on the index path as on the scan,
    with the rows the transaction's own, in one segment, after a larger
    commit's run folds that segment, and after a fresh cluster reopens
    the persistent root."""
    keys = ("6.210.89.7", "10.4.1.1")
    assert len({zlib.crc32(key.encode()) for key in keys}) == 1
    rows = dict(zip(keys, (3, 2)))

    def select(s):
        for key in keys:
            found = s.select_by_key(key, True)
            assert found == s.select_by_key(key, False)
            assert [r.source_ip for r in found] == [key] * rows[key]
        return {key: s.select_by_key(key, True) for key in keys}

    db = make_db(root=str(tmp_path))
    commit_rows(db.session(), range(30))
    s = db.session()
    s.begin("write")
    for i in range(5):
        s.insert_record(rec(100 + i, key=keys[i % 2]))
    select(s)
    s.commit()

    def check(db, segments, stage):
        s = db.session()
        s.begin("read")
        assert [seg.entries for seg in s.catalog.segments] == segments
        s.commit()
        for n, (key, use_index) in enumerate(
                itertools.product(keys, (True, False))):
            code = f"{stage}{n}"
            s.begin("write")
            assert s.update_by_key(key, code, use_index) == rows[key]
            s.commit()
            s.begin("read")
            for other, found in select(s).items():
                assert all((r.country_code == code) == (other == key)
                           for r in found)
            s.commit()

    check(db, [30, 5], "A")
    commit_rows(db.session(), range(200, 400))
    check(db, [235], "B")
    reopened = Database.open(DfsCluster(DfsConfig(BLOCK, 2), 4,
                                        str(tmp_path)),
                             "db", PAGE, recover=True)
    check(reopened, [235], "C")


def insert_commits(session, rng, sizes):
    """One write transaction of random-keyed rows per size."""
    for size in sizes:
        commit_rows(session, [rng.randrange(10 ** 6) for _ in range(size)])


def entries_per_page(page_size):
    return (page_size - PAGE_HEADER_SIZE) // ENTRY_SIZE


def tier(entries, page_size):
    """floor(log_FANOUT(entries / entries_per_page)), negative below a
    page."""
    per_page = entries_per_page(page_size)
    return max(t for t in range(-64, 64)
               if Fraction(FANOUT) ** t * per_page <= entries)


def check_catalog(cat, page_size):
    # the size-tiered rule: tiers do not increase from oldest to newest,
    # and each tier holds at most FANOUT - 1 segments
    tiers = [tier(seg.entries, page_size) for seg in cat.segments]
    assert tiers == sorted(tiers, reverse=True)
    assert all(tiers.count(t) < FANOUT for t in tiers)
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


def crc32_hash(key):
    return zlib.crc32(key.encode())


@pytest.mark.parametrize("key_hash", [
    crc32_hash,
    lambda key: 0x9E3779B9,
    lambda key: 0x80000000 + crc32_hash(key) % 4096,
], ids=["crc32", "constant", "band"])
def test_index_lookups_equal_a_filter_of_every_entry(monkeypatch, key_hash):
    """A lookup in a 40-page segment and in a 1-page one finds the rows of
    every entry of its key's hash: for a key whose 51 entries straddle
    pages, keys below a segment's first entry and above its last, and
    absent keys. The search starts at the key's interpolated page, so a
    hash that is constant or squeezed into a narrow band puts every key's
    start at one page; the answers stay the same, and a segment's pages
    read beyond those holding its key's entries stay within
    2 * log2(pages) + 2."""
    monkeypatch.setattr(engine, "_key_hash", key_hash)
    db = make_db(total=4096)
    s = db.session()
    dup = "7.7.7.7"
    s.begin("write")
    for i in range(2000):
        s.insert_record(rec(i, key=dup if i % 40 == 3 else None))
    s.commit()
    s.begin("write")
    for i in range(2000, 2010):
        s.insert_record(rec(i, key=dup if i == 2005 else None))
    s.commit()
    s.begin("read")
    segments = s.catalog.segments
    assert [seg.pages for seg in segments] == [40, 1]
    entries = {seg.start: list(s._segment_entries(seg)) for seg in segments}
    s.commit()
    # per segment, the rows and the pages of each hash's entries
    per_page = entries_per_page(PAGE)
    rows, holding = defaultdict(set), defaultdict(set)
    for seg in segments:
        for i, (h, pageid, slot) in enumerate(entries[seg.start]):
            rows[h].add((pageid, slot))
            holding[seg.start, h].add(i // per_page)
    assert len(holding[segments[0].start, key_hash(dup)]) > 1
    keys = [dup] + [rec(i).source_ip for i in range(0, 2010, 23)]
    # a key below each segment's first entry and one above its last,
    # unless every key shares one hash
    candidates = (f"8.8.{i >> 8}.{i & 255}" for i in range(1 << 16))
    outside = []
    for seg in segments:
        first, last = entries[seg.start][0][0], entries[seg.start][-1][0]
        for beyond in (lambda h: h < first, lambda h: h > last):
            outside += itertools.islice((key for key in candidates
                                         if beyond(key_hash(key))), 1)
    assert len(outside) == (0 if key_hash("a") == key_hash("b") else 4)
    keys += outside + [f"9.9.{i}.9" for i in range(10)]
    read = []
    get_page = s._get_page

    def counted(pageid):
        read.append(pageid)
        return get_page(pageid)

    s._get_page = counted
    for key in keys:
        s.begin("read")
        read.clear()
        assert s._index_lookup(key) == sorted(rows[key_hash(key)]), key
        for seg in segments:
            pages = {pageid - seg.start for pageid in read
                     if seg.start <= pageid < seg.start + seg.pages}
            assert len(pages - holding[seg.start, key_hash(key)]) <= \
                2 * math.log2(seg.pages) + 2, (key, seg)
        s.commit()


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
        check_catalog(s.catalog, PAGE)
        for key in pick.sample(keys, 2):
            assert s.select_by_key(key, True) == s.select_by_key(key, False)
        s.commit()
    s.begin("read")
    scanned = {(unpack_record(raw).source_ip, rid)
               for rid, raw in s._scan_entries()}
    from_index = set()
    for key in {key for key, _ in scanned}:
        for rid in s._index_lookup(key):
            from_index.add((key, rid))
    assert scanned == from_index
    s.commit()


def test_equal_load_commits_write_no_more_index_pages():
    # Equal commits stay apart until FANOUT of one tier merge. Merging
    # every segment whenever a fifth would be made writes 940.
    db = make_db(total=4096)
    s = db.session()
    insert_commits(s, random.Random(0), [300] * 10)
    assert s.page_writes <= 940


def test_small_commits_leave_the_oldest_segment_alone():
    # The load leaves segments of tiers 3, 2, 2 and 1. The small commits
    # build a third tier-2 segment, and the next tier-2 run folds in all
    # three, making a second tier-3 segment; the oldest is not of a lower
    # tier, so it stays. Folding at a 4-segment cap wrote 10,700 pages
    # here when 24-byte entries gave those tiers to a 1400 + 9 * 300 load.
    db = make_db(total=4096)
    s = db.session()
    rng = random.Random(0)
    insert_commits(s, rng, [3430] + [735] * 9)
    s.begin("read")
    oldest = s.catalog.segments[0]
    s.commit()
    start = s.page_writes
    for _ in range(200):
        before = s.page_writes
        insert_commits(s, rng, [10])
        s.begin("read")
        # no commit writes as many pages as a rewrite of the whole index
        assert s.page_writes - before < \
            sum(seg.pages for seg in s.catalog.segments)
        assert s.catalog.segments[0] == oldest
        s.commit()
    assert s.page_writes - start <= 1400


def test_index_pages_per_small_commit_stay_flat():
    """After a load of 10 commits, the index pages each 10-row commit
    writes do not grow with the index: the second half of 1,000 commits
    writes at most 1.5 times the first (812 and 751 pages), and all of
    them no more than the 1,891 that tiers counted in whole pages wrote.
    Folding at a 4-segment cap wrote six times as many pages in the last
    quarter of 400 commits as in the first."""
    db = make_db(total=8192)
    s = db.session()
    rng = random.Random(0)
    insert_commits(s, rng, [300] * 10)
    halves = [0] * 2
    s.begin("read")
    before = s.catalog.segments
    s.commit()
    for i in range(1000):
        insert_commits(s, rng, [10])
        s.begin("read")
        after = s.catalog.segments
        s.commit()
        # every segment not in the catalog before is a fresh extent
        halves[i // 500] += sum(seg.pages for seg in after
                                if seg not in before)
        before = after
    assert halves[1] <= 1.5 * halves[0]
    assert sum(halves) <= 1891


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
    check_catalog(s.catalog, PAGE)
    assert s.catalog.record_count == 5000 + inserted
    s.commit()


def worst_case_catalog(total_pages, page_size):
    """The catalog of the most bytes a store of `total_pages` can need:
    of each count of one-page free extents up to the cap, the one beside
    the most index segments the tiered rule allows in the pages left,
    which is FANOUT - 1 segments a tier, from the tier of one entry up,
    each of the fewest entries, and so pages, its tier holds. Where the
    extents lie does not change the bytes."""
    per_page = entries_per_page(page_size)

    def catalog(free):
        left = total_pages - HEAP_START - free
        segments, t = [], tier(1, page_size)
        while True:
            entries = max(1, math.ceil(Fraction(FANOUT) ** t * per_page))
            pages = -(-entries // per_page)
            if pages > left:
                break
            for _ in range(FANOUT - 1):
                if pages > left:
                    break
                left -= pages
                segments.insert(0, IndexSegment(HEAP_START + free + left,
                                                pages, entries))
            t += 1
        return Catalog(total_pages, index_floor=HEAP_START,
                       record_count=sum(seg.entries for seg in segments),
                       segments=segments,
                       free_extents=[(HEAP_START + i, 1)
                                     for i in range(free)])
    return max((catalog(free) for free in range(MAX_FREE_EXTENTS + 1)),
               key=lambda c: 2 * len(c.segments) + len(c.free_extents))


@pytest.mark.parametrize("page_size, total_pages",
                         [(PAGE, TOTAL), (2 * PAGE, TOTAL), (4096, 8192)])
def test_the_worst_case_catalog_fits_its_page(page_size, total_pages):
    """The tiered rule alone keeps the worst case in its page from 1 KB
    up. At PAGE bytes its sub-page tiers allow 21 segments where the page
    holds 13 beside the free extents, so there the fold to `catalog_room`
    bounds the catalog (`test_commits_fold_further_to_fit_the_catalog_page`):
    the oldest `catalog_room` segments, beside the most free extents,
    still fit."""
    cat = worst_case_catalog(total_pages, page_size)
    check_catalog(cat, page_size)
    assert len(cat.free_extents) == MAX_FREE_EXTENTS
    room = catalog_room(page_size)
    assert (len(cat.segments) > room) == (page_size == PAGE)
    del cat.segments[room:]
    cat.record_count = sum(seg.entries for seg in cat.segments)
    check_catalog(cat, page_size)
    assert parse_catalog(pack_catalog(cat, page_size)) == cat


@pytest.mark.parametrize("page_size", [PAGE, 4096])
def test_the_catalog_page_holds_its_room_and_no_more(page_size):
    room = catalog_room(page_size)
    cat = Catalog(1 << 20, index_floor=HEAP_START,
                  segments=[IndexSegment(HEAP_START + MAX_FREE_EXTENTS + i,
                                         1, 1) for i in range(room)],
                  free_extents=[(HEAP_START + i, 1)
                                for i in range(MAX_FREE_EXTENTS)])
    assert parse_catalog(pack_catalog(cat, page_size)) == cat
    cat.segments.append(IndexSegment(HEAP_START + MAX_FREE_EXTENTS + room,
                                     1, 1))
    with pytest.raises(DatabaseFull,
                       match=f"overflows a {page_size}-byte page"):
        pack_catalog(cat, page_size)


def test_commits_fold_further_to_fit_the_catalog_page():
    """A 368-byte catalog page holds 4 index segments beside 32 free
    extents, fewer than the tiered rule alone would keep here, so a
    commit's run also absorbs the newest segment while the catalog would
    not hold one more."""
    page = 368
    assert catalog_room(page) == 4
    db = make_db(total=2048, page=page, block=16 * page)
    s = db.session()
    rng = random.Random(0)
    for size in log_uniform_sizes(7, 30, 300):
        insert_commits(s, rng, [size])
        s.begin("read")
        check_catalog(s.catalog, page)
        assert len(s.catalog.segments) <= 4
        s.commit()
    s.begin("read")
    for rid, raw in s._scan_entries():
        assert rid in s._index_lookup(unpack_record(raw).source_ip)
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


def test_release_past_the_cap_keeps_the_largest_free_extents_in_order():
    """Past MAX_FREE_EXTENTS free extents the catalog keeps the largest,
    listed by start page, and leaks the smallest."""
    sizes = list(range(1, MAX_FREE_EXTENTS + 9))
    random.Random(5).shuffle(sizes)
    freed = [IndexSegment(1000 + 100 * i, size, 1)
             for i, size in enumerate(sizes)]
    cat = Catalog(total_pages=10_000, index_floor=500)
    cat.release(freed)
    assert cat.index_floor == 500
    assert cat.free_extents == [(seg.start, seg.pages) for seg in freed
                                if seg.pages > 8]


def test_a_catalog_page_with_a_wrong_magic_is_a_recovery_error():
    page = bytearray(pack_catalog(Catalog(total_pages=100), PAGE))
    page[PAGE_HEADER_SIZE] ^= 0xFF
    with pytest.raises(RecoveryError, match="bad magic"):
        parse_catalog(bytes(page))


def test_a_create_whose_log_cannot_hold_a_page_writes_nothing():
    """A page as large as a block leaves the log no room for a page and
    its footer: `create` refuses it before it registers or writes
    anything, so a retry with a page the log can hold succeeds."""
    cluster = DfsCluster(DfsConfig(65536, 3), 4)
    with pytest.raises(ValueError, match="two pages per block"):
        Database.create(cluster, "db", 64, 65536)
    assert cluster.meta_names("") == []
    assert cluster.list_files() == []
    Database.create(cluster, "db", 64, 4096)


@pytest.mark.parametrize("count", [0, 1, 408, 409, 816])
def test_index_segments_hold_the_bytes_one_entry_at_a_time_packs(count):
    """A 4 KB page holds 408 index entries. A segment of each count
    around that is written as the entries packed one at a time in their
    pages, and read back whole and in order."""
    db = make_db(total=16, page=4096)
    s = db.session()
    s.begin("write")
    rng = random.Random(count)
    entries = sorted((rng.getrandbits(32), rng.getrandbits(32),
                      rng.getrandbits(16)) for _ in range(count))
    seg = s._write_segment(iter(entries), count)
    assert (seg.entries, seg.pages) == (count, max(1, -(-count // 408)))
    assert [s._get_page(pageid) for pageid in
            range(seg.start, seg.start + seg.pages)] == \
        reference_index_pages(entries, 4096)
    assert list(s._segment_entries(seg)) == entries
    s.abort()


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


def test_a_refused_record_leaves_no_fresh_page_dirty():
    """A record too large for an empty page is refused before a fresh
    heap page is made: a caller that catches RecordTooLarge and commits
    writes only the page its small insert filled, and the heap stays one
    page long."""
    db = make_db(total=64, page=256, block=2048)
    s = db.session()
    s.begin("write")
    s.insert_record(rec(1))
    big = replace(rec(2, key="10.100.200.255"), dest_url="x" * 100,
                  user_agent="y" * 64, language_code="l" * 6,
                  search_word="")
    big = replace(big, search_word="z" * (244 - len(pack_record(big))))
    assert len(pack_record(big)) == 244 == empty_free_space(256)
    with pytest.raises(RecordTooLarge):
        s.insert_record(big)
    assert sorted(s._dirty) == [1] and s.catalog.heap_used == 1
    s.commit()
    assert read_all(db.session()) == [rec(1)]
    s.begin("read")
    assert s.catalog.heap_used == 1
    s.commit()


def fill_ten_rows_a_commit(total_pages):
    """Commit ten seeded rows at a time to a new store of `total_pages`
    4 KB pages until it is full. Return the session, the cluster, the
    rows made, the DatabaseFull's message, and the pages of the index
    segments committed before the failing transaction that it read."""
    config = EngineConfig(total_pages=total_pages)
    cluster = DfsCluster(config.dfs_config(), config.num_nodes)
    db = Database.create(cluster, "db", config.total_pages, config.page_size,
                         config.post_commit_threshold, config.deferred)
    s = db.session()
    get_page, read = s._get_page, set()
    s._get_page = lambda pageid: read.add(pageid) or get_page(pageid)
    rng = random.Random(1)
    rows = []
    with pytest.raises(DatabaseFull) as full:
        while True:
            s.begin("write")
            index = {pageid for seg in s.catalog.segments
                     for pageid in range(seg.start, seg.start + seg.pages)}
            read.clear()
            for _ in range(10):
                n = len(rows)
                rows.append(bench.make_record(
                    rng, 730000, f"1.2.{n >> 8 & 255}.{n & 255}"))
                s.insert_record(rows[-1])
            s.commit()
    return s, cluster, rows, str(full.value), read & index


def test_a_256_page_store_filled_ten_rows_a_commit_is_pinned():
    """Commits of ten seeded rows fill a 256-page store until the heap's
    next page collides with the index. The counts were measured when
    each record went onto its page and each index entry into its segment
    one at a time. The DFS bytes were re-pinned (8,523,351 -> 8,498,754)
    when the log's master block went: the create's master page and the
    one batch's, 12,288 bytes each with three replicas, came off, and
    the log blocks take 21 bytes fewer, since the bases they hold are
    file ids, which the master's remakes no longer draw from the
    cluster's one counter. All four were re-pinned when index tiers went
    below a page (4810 rows, 1813 writes, 1587 reads, 8,498,754 bytes):
    a ten-row segment no longer folds into a segment of up to three
    pages, so the store once ended when a merged segment's extent
    collided with the heap, in the commit of rows 4801 to 4810, and now
    ends at the insert of row 4811, with the same 4810 rows committed.
    `test_a_272_page_store_ends_at_a_merged_segments_extent` ends at
    the extent. The DFS bytes were re-pinned (6,713,301 -> 5,035,335)
    when a log block's body began to take the window of its generation's
    earlier bodies as its zlib dictionary: each commit logs the heap's
    tail page and the catalog again, and their previous copies sit in
    that window. They were re-pinned (5,035,335 -> 5,029,629) when a
    page's header stopped holding its write ordinal, whose difference
    from its home's the XOR deltas of updated pages held, and again
    (5,029,629 -> 4,135,014) when a remake began to store its block's
    pages as one zlib stream where that is shorter. All four were
    re-pinned (4811 rows, 1665 writes, 1440 reads, 4,135,014 bytes) when
    a slot became its record's 2-byte offset alone and the page header 8
    bytes, not 16: a heap page holds more rows, so 4870 rows are
    committed and the store ends at the insert of row 4872, the second
    of the commit after them."""
    s, cluster, rows, full, index_read = fill_ten_rows_a_commit(256)
    assert full == "heap page 234 collides with index space"
    assert not index_read
    s.abort()
    assert (len(rows), s.page_writes, s.page_reads,
            cluster.counters.bytes_written) == (4872, 1684, 1455, 4_103_343)
    assert read_all(s) == rows[:4870]


def test_a_272_page_store_ends_at_a_merged_segments_extent():
    """Ten-row commits fill a 272-page store until a commit's run of
    twelve segments, 2,550 entries, and its own ten merge into a
    7-page segment whose extent collides with the heap. The failing
    commit reads no page of a folded segment: the merge reads them only
    after the extent is allocated. The DFS bytes were re-pinned
    (6,964,689 -> 5,197,857) as the 256-page store's were, when a log
    block's body began to take its generation's window as its
    dictionary, again (5,197,857 -> 5,192,535) when a page's header
    stopped holding its write ordinal, again (5,192,535 -> 4,297,956)
    when a remake began to store its pages as one shorter zlib stream,
    and again (4,297,956 -> 4,235,454), with its page writes (1769 ->
    1767), when a slot became a 2-byte offset and the page header 8
    bytes."""
    s, cluster, rows, full, index_read = fill_ten_rows_a_commit(272)
    assert full == "index extent of 7 pages collides with heap"
    assert not index_read
    assert (len(rows), s.page_writes, s.page_reads,
            cluster.counters.bytes_written) == (5120, 1767, 1524, 4_235_454)
    assert read_all(s) == rows[:-10]


def test_open_missing_database():
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
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
    # the last commit ran a batch: it remade blocks and carried the other
    # logged pages into generation 2, in one block
    assert (db.store.generation, log_blocks(db.store)) == (2, 1)
    assert db.manager.remakes_total > 0
    s.begin("read")
    assert len(s.scan(10 ** 6)) == 180
    s.commit()


def _remakes_per_commit(db) -> list[int]:
    """remakes_total after each commit of a fixed script; every commit
    leaves an empty log (copied back and compacted immediately)."""
    s = db.session()
    remakes = []
    for count in (10, 200, 1):
        s.begin("write")
        for i in range(count):
            s.insert_record(rec(len(remakes) * 1000 + i, key=f"9.9.9.{i % 3}"))
        s.commit()
        assert log_blocks(db.store) == 0
        assert db.manager.remakes_total > 0
        remakes.append(db.manager.remakes_total)
    s.begin("write")
    assert s.update_by_key("9.9.9.1", "DEU", use_index=True) == 70
    s.commit()
    assert log_blocks(db.store) == 0
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
    assert log_blocks(db.store) == 2
    # the logged pages, of data block 0 and of one index block, ride into
    # generation 2 in one block; a batch that carries nothing then
    # remakes both blocks
    assert db.run_maintenance() == 0
    assert (db.store.generation, log_blocks(db.store)) == (2, 1)
    assert db.locks.snapshot(db.data_name) == []  # lock released
    assert drain(db) == 2
    assert log_blocks(db.store) == 0
    assert db.locks.snapshot(db.data_name) == []
    s.begin("read")
    assert len(s.scan(100)) == 40
    s.commit()


def test_failed_maintenance_batch_raises_its_own_error(monkeypatch):
    """A batch that fails at its commit point, the drop of generation 1,
    leaves generation 1 live beside the generation 2 it made; the caller
    must see that failure, not a later one, and the lock must be free."""

    class DropFailed(RuntimeError):
        pass

    db = make_db(threshold=10 ** 6)
    s = db.session()
    s.begin("write")
    for i in range(20):
        s.insert_record(rec(i))
    s.commit()
    meta_unregister = DfsCluster.meta_unregister
    failed = []

    def fail_once(cluster, name):
        if name == GEN1 and not failed:
            failed.append(name)
            raise DropFailed(name)
        return meta_unregister(cluster, name)

    monkeypatch.setattr(DfsCluster, "meta_unregister", fail_once)
    with pytest.raises(DropFailed):
        db.run_maintenance()
    assert failed == [GEN1]
    assert spdu_dfs.log_generations(db.manager, db.log_name) == [1, 2]
    assert db.store.log_state() == {"generation": 1, "uncommitted_blocks": 0}
    assert db.locks.snapshot(db.data_name) == []


def test_serializability_matches_grant_order_replay():
    """Interleaved writers are equivalent to the serial order of their
    write-lock grants: replay in grant order on a fresh database."""
    locks = RecordingLockService()
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
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


def load_multi_block_table(db, rows=200, key="4.4.4.4", every=25):
    """A table whose heap spans several data blocks, with the key `key`
    on every `every`-th row; returns the heap's page count."""
    s = db.session()
    s.begin("write")
    for i in range(rows):
        s.insert_record(rec(i, key=key if i % every == 0 else None))
    heap_pages = s.catalog.heap_used
    s.commit()
    assert heap_pages > 2 * db.manager.pages_per_block
    return heap_pages


def test_a_read_scan_holds_no_heap_page():
    db = make_db()
    load_multi_block_table(db)
    s = db.session()
    s.begin("read")
    assert len(s.scan(10 ** 6)) == 200
    assert len(s.select_by_key("4.4.4.4", use_index=False)) == 8
    # only the catalog page, which begin read, stays in the session
    assert set(s._cache) == {0}
    s.commit()


def test_an_unindexed_select_copies_only_the_matching_records(
        monkeypatch):
    """The key's prefix is tested in the page buffer, so a select by a
    key 70 of 1,000 rows carry copies 70 records out of their pages, not
    every record of the heap: the pages the session reads are counted
    as they are sliced."""
    db = make_db(total=1024)
    bench.generate(db, 1000, seed=2, probe_key="7.7.7.7", probe_count=70)
    copied = [0]

    class Counted(bytes):
        def __getitem__(self, index):
            copied[0] += isinstance(index, slice)
            return super().__getitem__(index)

    read_page = db.store.read_page
    monkeypatch.setattr(db.store, "read_page",
                        lambda pageid: Counted(read_page(pageid)))
    s = db.session()
    s.begin("read")
    assert len(s.select_by_key("7.7.7.7", use_index=False)) == 70
    s.commit()
    assert copied[0] == 70


def test_pages_a_write_transaction_reads_again_count_once():
    """An unindexed update reads every heap page during its scan and each
    matching page again to change it; a second scan reads the unchanged
    pages once more. Each still counts as one page read."""
    db = make_db()
    heap_pages = load_multi_block_table(db)
    s = db.session()
    base = s.page_reads
    s.begin("write")
    assert s.update_by_key("4.4.4.4", "USA", use_index=False) == 8
    assert len(s.scan(10 ** 6)) == 200
    assert [r.country_code for r in
            s.select_by_key("4.4.4.4", use_index=False)] == ["USA"] * 8
    assert s.page_reads - base == 1 + heap_pages
    s.commit()
    s.begin("read")
    assert len(s.select_by_key("4.4.4.4", use_index=False)) == 8
    s.commit()
    assert s.page_reads - base == 2 * (1 + heap_pages)


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
    same cluster, whose page cache holds none of the writer's appends.
    Its cold begin reads every log block once, whole, for its footer,
    and, to decode the block that holds the catalog, the home of each of
    its pages logged as a XOR with its home; the log pages it then
    reads, and the bodies before their blocks that give their windows,
    come from those reads."""
    db = make_db()
    writer = db.session()
    for txn in range(4):
        writer.begin("write")
        for i in range(40):
            writer.insert_record(rec(100 * txn + i, key=f"9.9.9.{txn}"))
        writer.commit()
    assert log_blocks(db.store) > 3  # deferred: the log holds them
    cluster = db.manager.cluster
    s = Database.open(cluster, "db", PAGE, recover=False).session()
    cold_pages = None
    for txn in range(3):
        before = cluster.counters.snapshot()
        pages_before = s.page_reads
        s.begin("read")
        begin_reads = cluster.counters.read_calls - before.read_calls
        assert len(s.select_by_key("9.9.9.1", use_index=True)) == 40
        s.commit()
        pages = s.page_reads - pages_before
        read_calls = cluster.counters.read_calls - before.read_calls
        nbytes = cluster.counters.bytes_read - before.bytes_read
        if txn == 0:
            # the cold begin reads every log block once, whole, and the
            # homes its catalog's block, one commit's, XORed pages with;
            # its window comes from the bodies before it, and every page
            # the select reads lies in those blocks
            catalog_block = db.store.index[0][0]
            homes = sum(map(bool, log_bases(db.store, catalog_block)))
            assert homes == 1
            assert begin_reads == log_blocks(db.store) + homes
            assert read_calls == begin_reads
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
    remakes = db.manager.remakes_total
    writer.begin("write")
    assert writer.update_by_key("8.8.8.1", "USA", use_index=True) == 10
    writer.commit()
    assert drain(db) > 0  # a batch in the maintenance session
    assert db.manager.remakes_total > remakes
    assert log_blocks(db.store) == 0  # every read from data blocks
    rows = read_all(reader)
    assert [r.country_code for r in rows] == \
        ["USA" if i % 3 == 1 else "KOR" for i in range(30)]
    assert rows == read_all(Database.open(
        db.manager.cluster, "db", PAGE, recover=False).session())


def test_blocks_a_batch_remade_are_read_from_the_cache():
    """The data blocks a batch post-commit remade are cached as written:
    a full scan, and a second batch that dirties the same blocks, read
    nothing from the DFS. A database opened afresh over the cluster has
    its own, empty cache, so it reads those blocks from the DFS, each
    stored as a stream, read whole once, and it sees what the batches
    wrote."""
    db = make_db(threshold=2)
    s = db.session()
    for txn in range(4):
        s.begin("write")
        for i in range(40 * txn, 40 * (txn + 1)):
            s.insert_record(rec(i, key=f"7.7.7.{i % 4}"))
        s.commit()
    drain(db)
    remakes = db.manager.remakes_total
    assert remakes > 0 and log_blocks(db.store) == 0
    cluster = db.manager.cluster
    before = cluster.counters.snapshot()
    assert [r.duration for r in read_all(s)] == list(range(160))
    s.begin("write")
    assert s.update_by_key("7.7.7.1", "USA", use_index=True) == 40
    s.commit()
    drain(db)
    assert db.manager.remakes_total > remakes
    assert log_blocks(db.store) == 0
    assert cluster.counters.read_calls == before.read_calls
    expected = ["USA" if i % 4 == 1 else "KOR" for i in range(160)]
    assert [r.country_code for r in read_all(s)] == expected
    assert cluster.counters.read_calls == before.read_calls
    fresh = Database.open(cluster, "db", PAGE)
    assert fresh.manager is not db.manager
    assert set(cached_ids(fresh.manager)) <= {
        constituent_name(db.data_name, 0), constituent_name(db.log_name, 0)}
    reader = fresh.session()
    before = cluster.counters.snapshot()
    opened = set(cached_ids(fresh.manager))
    assert [r.country_code for r in read_all(reader)] == expected
    # one DFS read per data block the scan reads past block 0, whose
    # stream the open read whole for the catalog page
    scanned = {name for name in cached_ids(fresh.manager)
               if name.startswith(f"{db.data_name}/")} - opened
    assert cluster.counters.read_calls - before.read_calls == \
        len(scanned) == 1
    assert all(fresh.manager.cluster.file_entry(name).size_bytes % PAGE
               for name in scanned | opened)
    current = {entry.name: entry.file_id for entry in
               fresh.manager.constituent_entries(fresh.data_name) if entry}
    cached = {name: file_id
              for name, file_id in cached_ids(fresh.manager).items()
              if name.startswith(f"{db.data_name}/")}
    assert cached and cached.items() <= current.items()


def test_dead_replicas_of_cached_pages_surface_in_a_session():
    db = make_db(threshold=10 ** 6)
    s = db.session()
    s.begin("write")
    for i in range(40):
        s.insert_record(rec(i))
    s.commit()
    drain(db)  # the catalog goes home to data block 0
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
    log = db.store.log
    cached_log = [name for name in cached_ids(db.manager)
                  if name.startswith(log + "/")]
    assert cached_log  # the reader read record pages from the log
    db.run_maintenance()
    assert db.store.log != log and not cluster.meta_exists(log)
    cached = cached_ids(db.manager)
    assert not any(name.startswith(log + "/") for name in cached)
    for name, file_id in cached.items():
        assert cluster.file_entry(name).file_id == file_id
    assert len(read_all(reader)) == 100


def test_a_root_whose_log_blocks_take_no_dictionary_opens_and_goes_on(
        tmp_path, monkeypatch):
    """A root written before a log block's body took its generation's
    window as its zlib dictionary holds blocks compressed alone. It opens
    and recovers clean, answers indexed and unindexed reads, and takes
    commits, whose blocks, appended after the old ones, take their
    window from the old bodies: another process reads them, with a
    restart and without. A batch then drains the log."""
    root = str(tmp_path / "root")
    log_block = spdu_dfs._log_block
    monkeypatch.setattr(
        spdu_dfs, "_log_block",
        lambda pageids, body, window, complete:
        log_block(pageids, body, b"", complete))
    session = make_db(root=root).session()
    for start in range(0, 60, 10):
        commit_rows(session, range(start, start + 10))
    monkeypatch.undo()

    def reopen():
        return Database.open(DfsCluster(DfsConfig(BLOCK, 2), 4, root), "db",
                             PAGE, recover=False)

    db = reopen()
    old = log_blocks(db.store)
    assert old > 3 and not any(
        names_a_dictionary(stored_block(db.manager, GEN1, block_id))
        for block_id in range(old))
    assert db.recover() == "clean"
    s = db.session()
    s.begin("read")
    for use_index in (True, False):
        assert s.select_by_key(rec(35).source_ip, use_index) == [rec(35)]
    s.commit()
    for start in (60, 70):
        commit_rows(s, range(start, start + 10))
    new = log_blocks(db.store) - old
    assert new >= 2 and [
        names_a_dictionary(stored_block(db.manager, GEN1, block_id))
        for block_id in range(old + new)] == [False] * old + [True] * new
    rows = [rec(i) for i in range(80)]
    assert read_all(reopen().session()) == rows
    restarted = reopen()
    assert restarted.recover() == "clean"
    assert read_all(restarted.session()) == rows
    db.run_maintenance()
    assert db.store.generation == 2
    assert read_all(s) == rows == read_all(reopen().session())


def test_restart_caches_each_log_block_once():
    """Restart reads each committed log block's footer, then the whole
    block to check its body; the whole read is cached as the block, in
    place of the footer's range, so after it the cache holds each log
    constituent's bytes once."""
    db = make_db()
    for start in range(0, 600, 36):
        commit_rows(db.session(), range(start, min(start + 36, 600)))
    reopened = Database.open(db.manager.cluster, "db", PAGE, recover=True)
    manager = reopened.manager
    entries = manager.constituent_entries(reopened.store.log)
    assert len(entries) == 17
    for block_id, entry in enumerate(entries):
        file_id, cached = manager._cache[entry.name]
        assert file_id == entry.file_id
        assert len(cached) == entry.size_bytes, entry.name
        assert manager.read_bytes(entry) is cached


def test_cached_reads_equal_fresh_manager_reads_over_a_schedule():
    """Two sessions run a seeded schedule of writes, aborts, updates and
    maintenance. After each step every page of the data file reads the
    same through the database's warm manager as through a fresh one: the
    pages its block holds, stored whole or as a stream, alike, and a page
    past the block's last (a data block ends at its last nonzero page) as
    zeros. Every log block reads the same through both as the store
    reads it, its bytes from `read_bytes`. A session scan equals one
    through a fresh database."""
    rng = random.Random(20)
    db = make_db(threshold=4)
    cluster = db.manager.cluster
    sessions = [db.session("A"), db.session("B")]
    pages_per_block = db.manager.pages_per_block
    page = db.manager.page_size
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
        file = db.data_name
        for block_id, entry in enumerate(
                db.manager.constituent_entries(file)):
            # a data block with no constituent reads as a whole block of
            # zeros
            block = db.manager.read_block(file, block_id)
            if entry is not None:
                assert block[-page:] != bytes(page), (step, block_id)
            for offset in range(pages_per_block):
                pageid = block_id * pages_per_block + offset
                expected = block[offset * page:(offset + 1) * page] or \
                    bytes(page)
                for manager in (db.manager, fresh):
                    assert manager.read_page(file, pageid) == expected, \
                        (step, pageid)
            assert fresh.read_block(file, block_id) == block
        for entry in db.manager.constituent_entries(db.store.log):
            assert db.manager.read_bytes(entry) == \
                fresh.read_bytes(entry), (step, entry.name)
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
    faults.arm("dfs.batch.before_generation_drop")
    db.store.post_commit_threshold = 0  # force the batch at this commit
    with pytest.raises(CrashPoint):
        s.commit()

    fresh_cluster = DfsCluster(DfsConfig(BLOCK, 2), 4, root)
    reopened = Database.open(fresh_cluster, "db", PAGE)
    s2 = reopened.session()
    s2.begin("read")
    # the marker was durable; the batch was abandoned with generation 1
    # live, and it holds the newest copy of every logged page
    assert len(s2.scan(100)) == 40
    assert reopened.store.generation == 1
    s2.commit()


BATCH_POINTS = [point for point in SPDU_DFS_FAULT_POINTS
                if point.startswith("dfs.batch.")]


@pytest.mark.parametrize("death", ["in process", "of the process"])
@pytest.mark.parametrize("point", BATCH_POINTS)
def test_a_batch_dying_at_any_point_leaves_its_generation_or_the_next(
        tmp_path, point, death):
    """A batch that both carries pages into generation g+1 and remakes a
    data block dies at `point`: the registered generations are then g,
    or g and g+1, or g+1 once g's drop, the commit point, is done.
    Restart, in the same process or over a fresh cluster on the
    persistent root after the process died, leaves only the lowest, and
    the committed rows read back as the row model holds them, and take
    one more commit."""
    root = None if death == "in process" else str(tmp_path / "root")
    faults = FaultInjector()
    db = make_db(threshold=10 ** 6, faults=faults, root=root)
    commit_rows(db.session(), range(120))
    drain(db)
    s = db.session()
    s.begin("write")
    for i in range(120):
        assert s.update_by_key(rec(i).source_ip, "USA", use_index=True) == 1
    s.commit()
    commit_rows(db.session(), range(120, 123))
    rows = [replace(rec(i), country_code="USA") for i in range(120)] + \
        [rec(i) for i in range(120, 123)]
    assert read_all(db.session()) == rows
    g = db.store.generation
    # every page of data block 0 is logged, so the batch remakes it, and
    # it carries the pages of the others
    logged = Counter(pageid // db.manager.pages_per_block
                     for pageid in db.store.index)
    assert logged[0] == db.manager.pages_per_block and len(logged) > 1
    faults.arm(point)
    with pytest.raises(CrashPoint):
        db.run_maintenance()
    assert spdu_dfs.log_generations(db.manager, db.log_name) == {
        "dfs.batch.begin": [g],
        "dfs.batch.after_generation_drop": [g + 1]}.get(point, [g, g + 1])
    if root is None:
        reopened = db
        reopened.recover()
    else:
        cluster = DfsCluster(DfsConfig(BLOCK, 2), 4, root)
        reopened = Database.open(cluster, "db", PAGE, recover=True)
    live = g + (point == "dfs.batch.after_generation_drop")
    assert spdu_dfs.log_generations(reopened.manager, "db/log") == [live]
    assert reopened.store.generation == live
    assert read_all(reopened.session()) == rows
    commit_rows(reopened.session(), [123])
    assert read_all(reopened.session()) == rows + [rec(123)]


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


class CreateFailed(RuntimeError):
    pass


def fail_creates(monkeypatch, fails, meta=GEN1):
    """Make `DfsCluster.create_file` raise for the n-th constituent of
    meta file `meta` created from now on when `fails(n)`; returns the
    names refused."""
    create_file = DfsCluster.create_file
    seen, refused = [], []

    def create(cluster, name, content, **kwargs):
        if name.startswith(meta + "/"):
            seen.append(name)
            if fails(len(seen)):
                refused.append(name)
                raise CreateFailed(name)
        return create_file(cluster, name, content, **kwargs)

    monkeypatch.setattr(DfsCluster, "create_file", create)
    return refused


def test_commit_failed_at_its_marker_hands_no_page_to_the_next(monkeypatch):
    """The failed commit's pages sit in the store's buffer; the same
    session's next commit must write only its own."""
    db = make_db(page=4096, block=64 * 1024)
    s = db.session()
    commit_rows(s, range(10))
    refused = fail_creates(monkeypatch, lambda n: True)
    s.begin("write")
    for i in range(10, 40):
        s.insert_record(rec(i))
    with pytest.raises(CreateFailed):
        s.commit()
    assert refused == [constituent_name(GEN1, 1)]  # the marker
    monkeypatch.undo()
    commit_rows(s, [40])
    assert read_all(db.session()) == [rec(i) for i in (*range(10), 40)]


@pytest.mark.parametrize("case", ["fresh", "same", "direct"])
def test_commit_failed_after_auto_flushes_stays_invisible(monkeypatch, case):
    """Two auto-flushed blocks of a failed commit stay in the log, and
    with [direct] an in-place block past the heap's end too; no reader
    may index them and the next writer must drop them. The update
    rewrites every committed heap page, which is logged; the inserts
    fill blocks no committed state references, which are not."""
    db = make_db(page=1024, block=8192)
    s = db.session()
    keyed = [rec(i, key="9.9.9.9") for i in range(200)]
    s.begin("write")
    for row in keyed:
        s.insert_record(row)
    s.commit()
    if case == "direct":
        refused = fail_creates(monkeypatch, lambda n: n == 1,
                               meta="db/data")
    else:
        refused = fail_creates(monkeypatch, lambda n: n == 3)
    s.begin("write")
    s.update_by_key("9.9.9.9", "USA", use_index=True)
    for i in range(200, 300):
        s.insert_record(rec(i))
    with pytest.raises(CreateFailed):
        s.commit()
    assert refused == [constituent_name(db.data_name, 3)
                       if case == "direct" else
                       constituent_name(GEN1, 4)]
    monkeypatch.undo()
    assert db.locks.snapshot(db.data_name) == []
    assert read_all(db.session()) == keyed
    commit_rows(db.session() if case == "fresh" else s, [300])
    assert read_all(db.session()) == keyed + [rec(300)]


def dfs_calls(monkeypatch):
    """Record the name of every public DfsCluster method called from now
    on."""
    calls = []
    for name, method in list(vars(DfsCluster).items()):
        if callable(method) and not name.startswith("_"):
            def recorded(cluster, *args, name=name, method=method,
                         **kwargs):
                calls.append(name)
                return method(cluster, *args, **kwargs)
            monkeypatch.setattr(DfsCluster, name, recorded)
    return calls


def test_a_write_abort_makes_no_dfs_call(monkeypatch):
    """Nothing of a write transaction reaches the store before commit,
    and the writer's begin already dropped any uncommitted log tail, so
    its abort only releases the lock. A block put in the log by hand
    before the abort stays there until the next writer's begin."""
    db = make_db()
    s = db.session()
    commit_rows(s, range(10))
    s.begin("write")
    for i in range(10, 200):
        s.insert_record(rec(i))
    s.update_by_key(rec(3).source_ip, "USA", use_index=True)
    for pageid in range(1, BLOCK // PAGE):
        db.store.write_page(pageid, bytes(PAGE))  # one uncommitted block
    assert log_blocks(db.store) == 2
    calls = dfs_calls(monkeypatch)
    s.abort()
    assert calls == []
    monkeypatch.undo()
    assert db.locks.snapshot(db.data_name) == []
    assert s.mode is None
    assert log_blocks(db.store) == 2
    commit_rows(s, [10])
    assert log_blocks(db.store) == 2  # the tail dropped, a marker added
    assert read_all(db.session()) == [rec(i) for i in range(11)]


def store_calls(monkeypatch):
    """Count, from now on, each rebuild of the log table index (a
    `DfsTransactionStore.footers` call) and each body decode (an
    `unpack_body` call)."""
    counts = Counter()
    for owner, name in ((DfsTransactionStore, "footers"),
                        (spdu_dfs, "unpack_body")):
        def counted(*args, name=name, method=getattr(owner, name)):
            counts[name] += 1
            return method(*args)
        monkeypatch.setattr(owner, name, counted)
    return counts


def test_sessions_that_take_turns_writing_share_one_index(monkeypatch):
    """A database's sessions share one log table index and its decoded
    bodies: after the first begin, a commit keeps the index matched for
    the other session's begin, which reads no footer, and every log page
    is served from the pages the writer appended."""
    db = make_db(threshold=10 ** 6)
    sessions = [db.session("A"), db.session("B")]
    commit_rows(sessions[0], [0])
    counts = store_calls(monkeypatch)
    for i in range(1, 40):
        commit_rows(sessions[i % 2], [i])
    assert read_all(sessions[0]) == [rec(i) for i in range(40)]
    assert log_blocks(db.store) >= 40  # every commit is in the log
    assert counts == {}


def test_a_batch_leaves_the_index_matched_to_the_emptied_log(monkeypatch):
    """A batch leaves the index matched to the new, empty generation
    (threshold 0 carries nothing), so a begin after a commit that ran the
    batch reads no footer."""
    db = make_db(deferred=False)
    sessions = [db.session("A"), db.session("B")]
    commit_rows(sessions[0], [0])
    counts = store_calls(monkeypatch)
    for i in range(1, 6):
        commit_rows(sessions[i % 2], [i])
    assert log_blocks(db.store) == 0  # every commit ran the batch
    assert read_all(sessions[0]) == [rec(i) for i in range(6)]
    assert counts == {}


def test_readers_that_begin_at_once_rebuild_the_index_once(monkeypatch):
    """A flushed block no commit marked makes the next begin rebuild the
    index. Eight readers that begin at once rebuild it once, under the
    store's lock, and each reads only the committed rows."""
    db = make_db()
    commit_rows(db.session(), range(30))
    s = db.session()
    s.begin("write")
    try:
        for pageid in range(1, db.manager.pages_per_block):
            db.store.write_page(pageid, bytes(PAGE))
    finally:
        s.abort()
    assert log_blocks(db.store) == 2  # the flushed block stays
    footers = DfsTransactionStore.footers

    def slow(store):
        time.sleep(0.05)  # so that unserialised rebuilds would overlap
        return footers(store)

    monkeypatch.setattr(DfsTransactionStore, "footers", slow)
    counts = store_calls(monkeypatch)
    start = threading.Barrier(8, timeout=30)
    tables = [None] * 8

    def read(i):
        reader = db.session(f"R{i}")
        start.wait()
        tables[i] = read_all(reader)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert tables == [[rec(i) for i in range(30)]] * 8
    assert counts["footers"] == 1


def test_a_warm_read_begin_makes_one_version_call(monkeypatch):
    """A read session's begin over a log no one changed since the last
    begin makes one `meta_version` call, of the live generation, and
    neither checks nor lists the generations."""
    db = make_db()
    commit_rows(db.session(), range(20))
    s = db.session()
    s.begin("read")
    s.commit()
    calls = Counter()
    for method in ("meta_version", "meta_exists", "meta_names"):
        def counted(cluster, *args, method=method,
                    original=getattr(DfsCluster, method)):
            calls[method] += 1
            return original(cluster, *args)
        monkeypatch.setattr(DfsCluster, method, counted)
    s.begin("read")
    assert calls == Counter(meta_version=1)
    s.commit()


def test_a_readers_begin_leaves_the_writers_buffer():
    """The store's write state is the open writer's: a reader's begin,
    which the upgrade exemption can grant beside its owner's write, does
    not empty the buffer."""
    db = make_db()
    commit_rows(db.session(), range(5))
    s = db.session("A")
    s.begin("write")
    page = bytes(range(256)) * (PAGE // 256)
    db.store.write_page(1, page)
    written = db.store.read_page(1)
    assert written[PAGE_HEADER_SIZE:] == page[PAGE_HEADER_SIZE:]
    db.store.begin_transaction(write=False)
    assert db.store.read_page(1) == written
    s.abort()


def test_a_commit_that_fails_before_its_marker_leaves_no_page(monkeypatch):
    """A commit that fails before its marker leaves nothing for a later
    transaction to read: a new reader reads the committed bytes of every
    page that commit had buffered."""
    faults = FaultInjector()
    db = make_db(faults=faults)
    commit_rows(db.session(), range(40))
    reader = db.session("R")
    reader.begin("read")
    block0 = {pageid: reader._read_page(pageid)
              for pageid in range(db.manager.pages_per_block)}
    reader.commit()
    buffered = []
    write_page = DfsTransactionStore.write_page

    def recorded(store, pageid, page):
        buffered.append(pageid)
        return write_page(store, pageid, page)

    monkeypatch.setattr(DfsTransactionStore, "write_page", recorded)
    s = db.session("W")
    s.begin("write")
    for i in range(40):
        s.update_by_key(rec(i).source_ip, "USA", use_index=False)
    faults.arm("dfs.commit.before_marker")
    with pytest.raises(CrashPoint):
        s.commit()
    # the updated heap pages, all in block 0, which the log holds
    assert len(buffered) > 1 and set(buffered) <= block0.keys()
    reader = db.session("R2")
    reader.begin("read")
    assert {pageid: reader._read_page(pageid) for pageid in buffered} == \
        {pageid: block0[pageid] for pageid in buffered}
    reader.commit()
    assert read_all(reader) == [rec(i) for i in range(40)]


# The failure sweeps' post_commit_threshold: 16 pages of 1 KB, which the
# 10-row insert's commit passes, so that it runs the batch while the log
# holds the indexed update's deltas.
SWEEP_THRESHOLD = 2


def _logged_kinds(store):
    """How the live log generation holds its pages: "raw" if it holds a
    page whole, "delta" if it holds one XORed with its home."""
    return {"delta" if base else "raw"
            for block_id in range(log_blocks(store))
            for base in log_bases(store, block_id)}


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

    def leave_a_tail(db, s):
        # the log block a commit that failed after its auto-flush leaves,
        # put there by hand past committed blocks; the next writer's
        # begin drops it
        s.begin("write")
        try:
            for pageid in range(1, db.manager.pages_per_block):
                db.store.write_page(pageid, bytes(db.manager.page_size))
        finally:
            s.abort()

    # the drain copies the keyed rows home, so that the indexed update
    # logs its heap pages as deltas; an index segment, over zeros or,
    # after the maintenance, over an extent an older segment freed, is
    # logged whole
    return [
        insert([rec(i) for i in range(3)]),
        insert(keyed),
        (leave_a_tail, lambda table: table),
        insert([rec(i) for i in range(43, 73)], abort=True),
        (lambda db, s: drain(db), lambda table: table),
        (update, lambda table: [replace(r, country_code="USA")
                                if r.source_ip == "9.9.9.1" else r
                                for r in table]),
        insert([rec(i) for i in range(73, 193)]),
        insert([rec(i) for i in range(193, 223)]),
        (lambda db, s: db.run_maintenance(), lambda table: table),
        insert([rec(i) for i in range(223, 228)]),
        # enough log bytes since the last batch to run the threshold batch
        insert([rec(i) for i in range(228, 288)]),
    ]


class MutationRefused(StorageError):
    pass


def _recorded(method, name, args):
    """A DFS call as the sweeps record it: the method, the name and, for
    a block-count change, the new count."""
    count = args[0] if method == "meta_set_block_count" else None
    return method, name, count


def _drops_a_tail(calls):
    """Whether a log generation's count was lowered to more than 0: a
    writer's begin dropped a failed commit's tail past committed blocks
    (a batch lowers no count: it drops the whole generation)."""
    return any(method == "meta_set_block_count" and
               name.startswith("db/log/") and count > 0
               for method, name, count in calls)


def _meta_mutations(mp, refuse=None):
    """Record the NameNode mutations that `MetaDfsManager.append_block`,
    `overwrite_block`, `truncate_from`, `create_meta` and `delete_meta`
    make from now on; the `refuse`-th raises MutationRefused before it
    runs."""
    calls = []
    depth = [0]
    for method in ("append_block", "overwrite_block", "truncate_from",
                   "create_meta", "delete_meta"):
        def inside(*args, original=getattr(MetaDfsManager, method),
                   **kwargs):
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        mp.setattr(MetaDfsManager, method, inside)
    for method in ("create_file", "delete_file", "rename_file",
                   "meta_set_block_count", "meta_register",
                   "meta_unregister"):
        def counted(cluster, name, *args, method=method,
                    original=getattr(DfsCluster, method), **kwargs):
            if depth[0]:
                calls.append(_recorded(method, name, args))
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
    traversals made before it and the points it reached, the meta-file
    mutations made, and, per operation, how the live log generation
    held its pages after it (see `_logged_kinds`)."""
    faults = FaultInjector()
    db = make_db(page=1024, block=8192, threshold=SWEEP_THRESHOLD,
                 faults=faults)
    s = db.session()
    if point is not None:
        faults.arm(point, skip=skip)
    table, reached, logged = [], [], []
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
            assert meta_file_strays(db.manager.cluster) == [], where
            table = read_all(db.session())
            assert table in allowed, where
            logged.append(_logged_kinds(db.store))
    where = (point, skip, refuse)
    reader = db.session()
    reader.begin("read")
    for key in {r.source_ip for r in table}:
        assert reader.select_by_key(key, use_index=True) == \
            [r for r in table if r.source_ip == key], (*where, key)
    reader.commit()
    reopened = Database.open(db.manager.cluster, "db", 1024, SWEEP_THRESHOLD,
                             recover=True)
    assert read_all(reopened.session()) == table, where
    commit_rows(reopened.session(), [288])
    assert read_all(reopened.session()) == table + [rec(288)], where
    return reached, calls, logged


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
    recovery, reads the same table and takes one more commit. The log
    holds deltas and whole pages together when the batch runs."""
    reached, _, logged = _run_sweep_workload()
    assert {"raw", "delta"} in logged
    families = ("dfs.write.", "dfs.flush.", "dfs.commit.", "dfs.batch.")
    assert {p for p in SPDU_DFS_FAULT_POINTS if p.startswith(families)} \
        <= set().union(*(points for _, points in reached))
    runs = sorted({(p, before[p]) for before, points in reached
                   for p in points})
    assert _failures(runs) == {}


def test_in_process_failure_at_every_meta_file_mutation():
    """Each DFS create, rename and block-count change that an append (a
    create that counts its block), a remake or a truncate makes, and each
    register and unregister of a log generation, fails in turn, once the
    database exists, as an ordinary StorageError raised before the call;
    the same checks hold as for the fault points. The calls include a
    writer's begin dropping a failed commit's tail."""
    _, calls, _ = _run_sweep_workload()
    assert {method for method, *_ in calls} == \
        {"create_file", "rename_file", "meta_set_block_count",
         "meta_register", "meta_unregister"}
    assert _drops_a_tail(calls)
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
    runs, and the death ends the script. Returns the mutations called,
    the tables the database may hold on disk: before and after the
    operation that died, or the final one, and, per operation that did
    not die, how the live log generation held its pages after it (see
    `_logged_kinds`)."""
    db = make_db(page=1024, block=8192, threshold=SWEEP_THRESHOLD,
                 root=root)
    s = db.session()
    table, calls, logged = [], [], []

    def dies_at(point_in_save):
        return death is not None and (len(calls) > death or (
            len(calls) == death and in_save == point_in_save))

    with pytest.MonkeyPatch.context() as mp:
        for method in NAMENODE_MUTATIONS:
            def mutation(cluster, name, *args, method=method,
                         original=getattr(DfsCluster, method), **kwargs):
                calls.append(_recorded(method, name, args))
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
                return calls, [table, after], logged
            table = after
            logged.append(_logged_kinds(db.store))
    return calls, [table], logged


def test_process_death_at_every_namenode_mutation(tmp_path):
    """The process dies at each NameNode mutation of the script in turn,
    a block remake's included: before it runs, or inside its table save.
    A fresh DfsCluster over the root then opens the database with
    recovery: it must hold no DFS file outside its meta file before
    recovery, hold the table from before or after the operation that
    died, and take one more commit. This is the method of ALICE (Pillai
    et al., OSDI 2014). The log holds deltas and whole pages together
    when the batch runs."""
    calls, _, logged = _run_until_death(str(tmp_path / "whole"))
    assert {"raw", "delta"} in logged
    assert {"create_file", "rename_file", "meta_set_block_count"} <= \
        {method for method, *_ in calls}
    # a batch that carries: it registers the next log generation, appends
    # the carried pages to it first, and unregisters the old generation
    registers = [i for i, (method, name, _) in enumerate(calls)
                 if method == "meta_register"
                 and name.startswith("db/log/g")]
    assert any(calls[i + 1][:2] == ("create_file",
                                    constituent_name(calls[i][1], 0))
               for i in registers)
    assert any(method == "meta_unregister" and name.startswith("db/log/g")
               for method, name, _ in calls)
    # and before a writer's begin drops a failed commit's tail
    assert _drops_a_tail(calls)
    # a commit's in-place write of a block past the heap's end is a plain
    # create of a data constituent, and the process dies before it too
    assert any(method == "create_file" and name.startswith("db/data/")
               and not name.endswith(".new") for method, name, _ in calls)
    failures = {}
    for death, in_save in itertools.product(range(1, len(calls) + 1),
                                            (False, True)):
        root = str(tmp_path / f"death{death}{'s' * in_save}")
        _, allowed, _ = _run_until_death(root, death, in_save)
        cluster = DfsCluster(DfsConfig(8192, 2), 4, root)
        try:
            assert meta_file_strays(cluster) == [], "a file outside its meta"
            db = Database.open(cluster, "db", 1024, SWEEP_THRESHOLD,
                               recover=True)
            table = read_all(db.session())
            assert table in allowed, "not the table before or after"
            commit_rows(db.session(), [288])
            assert read_all(db.session()) == table + [rec(288)], \
                "the next commit"
        except (AssertionError, StorageError) as exc:
            failures[death, in_save, calls[death - 1]] = \
                f"{type(exc).__name__}: " + str(exc).splitlines()[0]
    assert failures == {}


def test_a_persistent_root_whose_pages_rode_two_batches_reopens(tmp_path):
    """Two maintenance batches carry the logged pages, so the committed
    table's newest copies of them live only in the log's third
    generation; a fresh cluster over the root opens the database with
    recovery to that table."""
    root = str(tmp_path / "root")
    db = make_db(threshold=10 ** 6, root=root)
    commit_rows(db.session(), range(30))
    s = db.session()
    s.begin("write")
    assert s.update_by_key(rec(7).source_ip, "USA", use_index=True) == 1
    s.commit()
    logged = set(db.store.index)
    assert db.run_maintenance() == db.run_maintenance() == 0
    assert db.store.generation == 3 and set(db.store.index) == logged
    table = read_all(db.session())
    assert table[7].country_code == "USA"
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4, root)
    assert meta_file_strays(cluster) == []
    reopened = Database.open(cluster, "db", PAGE, recover=True)
    assert reopened.store.generation == 3
    assert read_all(reopened.session()) == table


def test_discard_after_a_create_killed_past_its_first_generation(
        monkeypatch):
    """A create that dies right after it registers the log's first
    generation leaves that generation and the data file. Discard deletes
    both, and a create under the same name then works; no DFS file lies
    outside its meta file afterwards."""
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
    register = DfsCluster.meta_register

    def dies_after_gen1(self, name, block_count):
        register(self, name, block_count)
        if name == GEN1:
            raise ProcessDied(f"after registering {name}")

    monkeypatch.setattr(DfsCluster, "meta_register", dies_after_gen1)
    with pytest.raises(ProcessDied):
        Database.create(cluster, "db", TOTAL, PAGE)
    monkeypatch.undo()
    assert [cluster.meta_exists(name) for name in ("db/data", GEN1, "db/log")] \
        == [True, True, False]
    Database.discard(cluster, "db", PAGE)
    assert not any(cluster.meta_exists(name)
                   for name in ("db/data", GEN1, "db/log"))
    assert meta_file_strays(cluster) == [] and cluster.list_files() == []
    db = Database.create(cluster, "db", TOTAL, PAGE)
    commit_rows(db.session(), range(5))
    assert read_all(db.session()) == [rec(i) for i in range(5)]
    assert meta_file_strays(cluster) == []


def test_discard_deletes_every_log_generation():
    """Discard of a database whose batch died after it registered the
    next generation deletes the data file, the live generation and that
    one: the cluster holds no meta file and no DFS file afterwards."""
    faults = FaultInjector()
    db = make_db(threshold=10 ** 6, faults=faults)
    commit_rows(db.session(), range(20))
    db.run_maintenance()
    commit_rows(db.session(), range(20, 25))
    faults.arm("dfs.batch.before_carry_append")
    with pytest.raises(CrashPoint):
        db.run_maintenance()
    cluster = db.manager.cluster
    names = ["db/data", *(spdu_dfs.generation_name("db/log", g)
                          for g in (2, 3))]
    assert cluster.meta_names("") == names
    Database.discard(cluster, "db", PAGE)
    assert cluster.meta_names("") == []
    assert cluster.list_files() == []


def test_a_database_named_under_a_logs_prefix_is_no_generation():
    """Database `db/log/g7` keeps its meta files under `db/log/g7/`, a
    name that starts as the generations of database `db` do. None of its
    names ends in digits alone after that prefix, so `db` never reads
    one as a generation: `db`'s batch, restart and discard leave the
    other database's meta files and rows as they were."""
    cluster = DfsCluster(DfsConfig(BLOCK, 2), 4)
    db = Database.create(cluster, "db", TOTAL, PAGE, 10 ** 6)
    other = Database.create(cluster, "db/log/g7", TOTAL, PAGE, 10 ** 6)
    commit_rows(db.session(), range(10))
    commit_rows(other.session(), range(10, 15))
    theirs = cluster.meta_names("db/log/g7/")
    assert theirs == ["db/log/g7/data", "db/log/g7/log/g1"]
    db.run_maintenance()
    assert Database.open(cluster, "db", PAGE).store.generation == 2
    assert spdu_dfs.log_generations(db.manager, "db/log") == [2]
    assert read_all(db.session()) == [rec(i) for i in range(10)]
    Database.discard(cluster, "db", PAGE)
    assert cluster.meta_names("") == theirs
    reopened = Database.open(cluster, "db/log/g7", PAGE)
    assert reopened.store.generation == 1
    assert read_all(reopened.session()) == [rec(i) for i in range(10, 15)]


def test_threshold_0_dfs_bytes_are_pinned_from_before_log_generations():
    """At threshold 0 a batch carries nothing, so a seeded load, an
    update and inserts, each commit running a batch, make the batches,
    remakes and fills they made when a batch ended in a truncate of one
    log: a generation's register and unregister write no block. The
    byte pins were measured when a create wrote the log's master block
    and each batch wrote it twice, to set a commit_flag before it began
    and at its switch to the next generation: one master page, and two
    per batch, each batch's two remakes of the log's master meta file,
    which the pins take off; the log blocks then took 4 bytes more,
    since the bases they hold are file ids, which the master's writes no
    longer draw from the cluster's one counter. They were also
    measured when the log held every page whole: the pages
    logged as their XOR with home take 4,550 bytes off, when a data
    block was stored whole: ending each at its last written page takes
    69,632 bytes off, and when an index entry held its whole key padded
    to 16 bytes: an entry of the key's crc32 takes 77,160 bytes, one
    remake and four fills off, and when each log block was compressed
    alone: a generation's blocks after its first take the window of the
    bodies before them as their dictionary, which puts 178 bytes on,
    since each generation holds one commit's blocks of fresh pages, which
    share little with the window but take its 4-byte DICTID, and when
    a page's header held its write ordinal: a header of its pageid, 4
    zero bytes and its payload's crc32 takes 360 bytes off, since an
    updated page's XOR with its home no longer holds the difference of
    two ordinals, and when a remake stored its pages whole: storing them
    as one zlib stream where that is shorter takes 219,248 bytes off,
    and when a slot held its record's length beside its offset and a
    page header was 16 bytes: 2-byte slots and an 8-byte header take
    20,904 bytes and one remake off."""
    faults = FaultInjector()
    db = make_db(total=1024, threshold=0, faults=faults)
    bench.generate(db, 1500, seed=4, probe_key="1.2.3.4", probe_count=9,
                   commit_every=250)
    for spec in (dict(kind="update", key="1.2.3.4", use_index=False,
                      new_country_code="QRS"),
                 dict(kind="insert", repeat=300, seed=5, key="1.2.3.4")):
        bench.run_workload(db, bench.WorkloadSpec(**spec))
    db.run_maintenance()
    assert log_blocks(db.store) == 0
    # the load's 1500 / 250 commits, the update's, the inserts' and the
    # maintenance batch
    batches = faults.hits["dfs.batch.begin"]
    assert batches == 1500 // 250 + 3
    replication = db.manager.cluster.config.replication_factor
    assert (db.manager.cluster.counters.bytes_written,
            db.manager.remakes_total, db.manager.fills_total) == \
        (1_622_578 - 4_550 - 69_632 - 77_160
         - (1 + 2 * batches) * PAGE * replication + 4 + 178 - 360
         - 219_248 - 20_904,
         47 - 2 * batches - 1, 59)


def test_begin_with_a_bad_mode_queues_nothing():
    db = make_db()
    s = db.session()
    with pytest.raises(ValueError):
        s.begin("bogus")
    assert s.mode is None
    assert db.locks.snapshot(db.data_name) == []


def test_unlogged_blocks_hold_the_bytes_the_log_would_have_written(
        monkeypatch):
    """A stamped page depends only on its pageid and payload, so a page
    written in place and the same page logged, carried and remade are
    the same bytes. The same seeded load of several commits and a
    maintenance batch runs on two databases: one writes each block no
    committed transaction has written in place, the other logs every
    page. Every page reads the same through both stores, some of them
    from the log, where the batch carried them. A batch that carries
    nothing then copies those home, and the two data files read the
    same page by page. The sha256 of the first's blocks in order, each
    padded with the zeros past its constituent's end to a whole block,
    and the sha256 of the heap's pages are pinned; both were re-pinned
    when a slot became its record's 2-byte offset alone and the page
    header 8 bytes."""
    db, logged = (make_db(total=1024, threshold=16) for _ in range(2))
    monkeypatch.setattr(logged.store, "_unwritten", lambda block_id: False)
    newest = []
    for each in (db, logged):
        bench.generate(each, 1500, seed=4, probe_key="1.2.3.4",
                       probe_count=9, commit_every=250)
        each.run_maintenance()
        assert each.store.index  # the maintenance batch carried pages
        newest.append([each.store.read_page(pageid)
                       for pageid in range(1024)])
    assert db.manager.fills_total > 0
    assert newest[0] == newest[1]
    for each in (db, logged):
        drain(each)
        assert [each.manager.read_page(each.data_name, pageid)
                for pageid in range(1024)] == newest[0]
    heap = hashlib.sha256()
    for pageid in range(HEAP_START, HEAP_START + parse_catalog(
            newest[0][0]).heap_used):
        heap.update(newest[0][pageid])
    assert heap.hexdigest() == \
        "4ded29e7fa4a388bc217e2e78487627faf66e34b3746f6cd085ef78d67985ac8"
    digest = hashlib.sha256()
    for block in data_blocks(db.store):
        digest.update(block.ljust(db.manager.block_size, b"\0"))
    assert digest.hexdigest() == \
        "d2f7b09ea54ecccd0f0690aab187f969bdbd0dc3e5ef61ac235476185477d649"


@pytest.mark.parametrize("reuse, total, sizes, page", [
    ("index", 40, (1, 1, 150, 1), 38),
    ("heap", 44, (191, 1, 1, 1, 1, 13, 5), 36),
])
def test_a_freed_index_extent_with_a_log_copy_is_logged_when_reused(
        reuse, total, sizes, page):
    """The stale-copy hazard, with two pages a block and no batch until
    the end. Commits of `sizes` rows each lead to this: the index segment
    at `page` is logged, because its block holds another live segment,
    and stays in the log; the next commit folds it and frees its block;
    the last commit writes the page again, as a new index segment or,
    once the extent has gone back to the heap, as a heap page. No
    committed catalog references its block then, but the page has a log
    copy and the block a constituent, so the store logs it: written in
    place, it would lose to the stale copy at the batch, and a row would
    drop out of the index or the heap."""
    db = make_db(total=total, threshold=10 ** 6, block=1024)
    s = db.session()
    rows, catalogs = [], []
    for size in sizes:
        s.begin("write")
        for i in range(len(rows), len(rows) + size):
            rows.append(rec(i))
            s.insert_record(rows[-1])
        s.commit()
        s.begin("read")
        catalogs.append(s.catalog)
        s.commit()
    logged, freed, reused = catalogs[-3:]
    assert page in [seg.start for seg in logged.segments]
    assert page not in [seg.start for seg in freed.segments]
    if reuse == "index":
        assert page in [seg.start for seg in reused.segments]
    else:
        assert HEAP_START + freed.heap_used <= page < \
            HEAP_START + reused.heap_used
    db.run_maintenance()
    assert read_all(db.session()) == rows
    s.begin("read")
    for row in rows:
        assert s.select_by_key(row.source_ip, use_index=True) == [row]
    s.commit()
