"""Record store tying the layers together.

One table (UserVisits-shaped records) in a heap of slotted pages, plus a
secondary index on source_ip kept as sorted immutable page segments. An
index entry is 10 bytes, the crc32 of the key, then the row's pageid and
slot, so a 4 KB page holds 408 after its 8-byte header; keys that share
a hash share entries, and a lookup rechecks the key of each row it
fetches. A write commit writes
its new entries as one segment, merged with the newest segments by a
size-tiered rule (fan-out `FANOUT`) whose tiers count fractional pages,
so each entry is rewritten a logarithmic number of times and a small
commit writes about one index page, merging only with segments of its own
size. A lookup starts each segment's search at the page where the key's
hash, a crc32 and so near uniform, puts it, so it reads about one page a
segment (`Session._lower_bound`). Page 0 of the data meta file is the
catalog (heap extent, index segment list, free extents), so every piece
of engine state is crash consistent through the same recovery path. The
catalog's `total_pages` bounds the heap and the index extents
(`_open_tail`, `_alloc_extent`); below the engine the data file's block
count, which `create` sizes from it, is the store's own bound, so the
engine never addresses a page the store would refuse.

Sessions acquire the database lock from the cluster's one lock queue
(`DfsCluster.locks`, shared by every `Database` over the cluster), bring
the database's one log table index to the log's committed prefix
(rebuilding it from the footers only after a failed commit or another
process's change to the log), and then run tuple operations; all page
mutations flow through the database's one transaction store.
"""

from __future__ import annotations

import heapq
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count, islice, starmap

from .dfs import DfsCluster, DfsConfig
from .errors import (
    DatabaseFull,
    LockError,
    NotFound,
    RecordTooLarge,
    RecoveryError,
)
from .faults import NULL_INJECTOR, FaultInjector
from .locks import WRITE
from .metafile import MetaDfsManager
from .pagefmt import PAGE_HEADER_SIZE
from .pages import SLOT_SIZE, SlottedPage, empty_free_space
from .records import (
    UserVisitsRecord,
    check_field,
    pack_record,
    source_ip_prefix,
    unpack_record,
)
from .spdu_dfs import (
    DEFAULT_POST_COMMIT_THRESHOLD,
    DfsTransactionStore,
    check_log_geometry,
    create_data_meta,
    create_log_meta,
    discard_metas,
)

HEAP_START = 1  # page 0 is the catalog
# Default session owners are numbered once per process, not per
# Database: the instances over a cluster share its lock queue, where a
# granted read lets a later write of the same owner through.
_SESSION_IDS = count(1)
# An index segment of e entries, n to a page, is in tier
# floor(log_FANOUT(e / n)) (`_tier`): above a page that is floor(log_FANOUT)
# of its pages, near enough, and below a page it is negative, so a ten-row
# commit's segment does not share a tier with one of a thousand entries and
# is not rewritten into it. A commit's merged run absorbs the newest
# segments of a lower tier, and the newest FANOUT - 1 when they all share
# its tier, and the newest while the catalog page would not hold one more
# segment (`catalog_room`). So in an index this rule built, tiers do not
# increase from oldest to newest and each tier holds at most FANOUT - 1
# segments; any segment list stays a valid index.
FANOUT = 4
MAX_FREE_EXTENTS = 32  # the catalog leaks the smallest free extents past this

_CATALOG = struct.Struct("<IHIIIQHH")
# magic, version, total_pages, heap_used, index_floor, record_count,
# segment count, free extent count
_CATALOG_MAGIC = 0x31424457
# 2 lay after a 16-byte page header, among pages whose slots held record
# lengths; 1 held each index entry's whole key
_CATALOG_VERSION = 3
_SEGMENT = struct.Struct("<IIQ")   # start page, page count, entry count
_EXTENT = struct.Struct("<II")     # start page, page count
_ENTRY = struct.Struct("<IIH")  # key hash (`_key_hash`), pageid, slot
ENTRY_SIZE = _ENTRY.size
_HASH = struct.Struct("<I")  # the key hash an entry starts with


@dataclass
class IndexSegment:
    start: int
    pages: int
    entries: int


@dataclass
class Catalog:
    total_pages: int
    heap_used: int = 0
    index_floor: int = 0
    record_count: int = 0
    segments: list[IndexSegment] = field(default_factory=list)
    free_extents: list[tuple[int, int]] = field(default_factory=list)

    def release(self, segments: list[IndexSegment]) -> None:
        """Free the extents of segments no longer in the index.

        Keeps the catalog page bounded: adjacent free extents merge, one
        that starts at the index floor goes back to the heap, and past a
        cap the smallest are leaked rather than tracked.
        """
        freed = [(seg.start, seg.pages) for seg in segments]
        merged: list[tuple[int, int]] = []
        for start, pages in sorted(self.free_extents + freed):
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + pages)
            else:
                merged.append((start, pages))
        if merged and merged[0][0] == self.index_floor:
            self.index_floor += merged.pop(0)[1]
        if len(merged) > MAX_FREE_EXTENTS:
            merged = sorted(merged, key=lambda e: e[1],
                            reverse=True)[:MAX_FREE_EXTENTS]
            merged.sort()
        self.free_extents = merged


def catalog_room(page_size: int) -> int:
    """The most index segments a catalog page holds beside the most free
    extents it can list."""
    return (page_size - PAGE_HEADER_SIZE - _CATALOG.size
            - MAX_FREE_EXTENTS * _EXTENT.size) // _SEGMENT.size


def pack_catalog(catalog: Catalog, page_size: int) -> bytes:
    """The catalog page; DatabaseFull if its index segments and free
    extents do not fit in one page, which the engine's merge rule
    prevents unless the page holds no segment beside the free extents."""
    size = (PAGE_HEADER_SIZE + _CATALOG.size
            + len(catalog.segments) * _SEGMENT.size
            + len(catalog.free_extents) * _EXTENT.size)
    if size > page_size:
        raise DatabaseFull(
            f"catalog of {len(catalog.segments)} index segments and "
            f"{len(catalog.free_extents)} free extents overflows a "
            f"{page_size}-byte page")
    page = bytearray(page_size)
    pos = PAGE_HEADER_SIZE
    _CATALOG.pack_into(page, pos, _CATALOG_MAGIC, _CATALOG_VERSION,
                       catalog.total_pages, catalog.heap_used,
                       catalog.index_floor, catalog.record_count,
                       len(catalog.segments), len(catalog.free_extents))
    pos += _CATALOG.size
    for seg in catalog.segments:
        _SEGMENT.pack_into(page, pos, seg.start, seg.pages, seg.entries)
        pos += _SEGMENT.size
    for start, pages in catalog.free_extents:
        _EXTENT.pack_into(page, pos, start, pages)
        pos += _EXTENT.size
    return bytes(page)


def parse_catalog(page: bytes) -> Catalog:
    pos = PAGE_HEADER_SIZE
    (magic, version, total_pages, heap_used, index_floor, record_count,
     seg_count, free_count) = _CATALOG.unpack_from(page, pos)
    if magic != _CATALOG_MAGIC:
        raise RecoveryError("catalog page has bad magic")
    if version != _CATALOG_VERSION:
        raise RecoveryError(f"catalog version {version} not supported")
    pos += _CATALOG.size
    catalog = Catalog(total_pages, heap_used, index_floor, record_count)
    for _ in range(seg_count):
        catalog.segments.append(IndexSegment(*_SEGMENT.unpack_from(page, pos)))
        pos += _SEGMENT.size
    for _ in range(free_count):
        catalog.free_extents.append(_EXTENT.unpack_from(page, pos))
        pos += _EXTENT.size
    return catalog


def _tier(entries: int, per_page: int) -> int:
    """floor(log_FANOUT(entries / per_page)) for an index segment of
    `entries` entries (at least one), `per_page` to a page: negative
    below a page, so a segment merges only with those of its own size."""
    tier = 0
    while entries >= per_page * FANOUT:
        per_page *= FANOUT
        tier += 1
    while entries < per_page:
        entries *= FANOUT
        tier -= 1
    return tier


def _key_hash(key: str) -> int:
    """`key` as an index entry holds it: the crc32 of its UTF-8 bytes.
    Keys that share a hash share entries, so a lookup rechecks each row
    it fetches."""
    return zlib.crc32(key.encode("utf-8"))


@dataclass
class EngineConfig:
    page_size: int = 4096
    block_size: int = 64 * 1024
    replication: int = 3
    num_nodes: int = 4
    total_pages: int = 8192
    post_commit_threshold: int = DEFAULT_POST_COMMIT_THRESHOLD
    deferred: bool = True

    def dfs_config(self) -> DfsConfig:
        return DfsConfig(self.block_size, self.replication)


class Database:
    """Shared per-database state; make one Session per thread of control."""

    def __init__(self, manager: MetaDfsManager, name: str,
                 post_commit_threshold: int = DEFAULT_POST_COMMIT_THRESHOLD,
                 deferred: bool = True, faults: FaultInjector = NULL_INJECTOR):
        self.manager = manager
        self.name = name
        self.data_name, self.log_name = self.meta_names(name)
        # the cluster's one lock queue, which every Database over it shares
        self.locks = manager.cluster.locks
        # the sessions, recovery and maintenance share one store, so one
        # log table index; without deferral every commit runs the batch
        self.store = DfsTransactionStore(
            manager, self.data_name, self.log_name,
            post_commit_threshold if deferred else 0, faults)

    # ------------------------------------------------------------------

    @staticmethod
    def meta_names(name: str) -> tuple[str, str]:
        """The data meta file of database `name` and the name of its log,
        whose generations are meta files under it; the lowest registered
        one is live (see `wormdb.spdu_dfs`)."""
        return f"{name}/data", f"{name}/log"

    @classmethod
    def discard(cls, cluster: DfsCluster, name: str, page_size: int) -> None:
        """Delete whichever meta files of database `name` exist, every
        log generation included: what a `create` that failed or was
        killed left behind. The caller must know that no create of
        `name` finished."""
        discard_metas(MetaDfsManager(cluster, page_size),
                      *cls.meta_names(name))

    @classmethod
    def create(cls, cluster: DfsCluster, name: str, total_pages: int,
               page_size: int,
               post_commit_threshold: int = DEFAULT_POST_COMMIT_THRESHOLD,
               deferred: bool = True,
               faults: FaultInjector = NULL_INJECTOR) -> "Database":
        """Create database `name` and open it. A page size or block size
        the store cannot log (`check_log_geometry`) raises ValueError
        before any DFS or NameNode call."""
        manager = MetaDfsManager(cluster, page_size)
        check_log_geometry(page_size, manager.pages_per_block)
        catalog = Catalog(total_pages=total_pages, heap_used=0,
                          index_floor=total_pages, record_count=0)
        data_name, log_name = cls.meta_names(name)
        create_data_meta(manager, data_name, total_pages,
                         pack_catalog(catalog, page_size))
        create_log_meta(manager, log_name)
        return cls(manager, name, post_commit_threshold, deferred, faults)

    @classmethod
    def open(cls, cluster: DfsCluster, name: str, page_size: int,
             post_commit_threshold: int = DEFAULT_POST_COMMIT_THRESHOLD,
             deferred: bool = True,
             faults: FaultInjector = NULL_INJECTOR,
             recover: bool = True) -> "Database":
        manager = MetaDfsManager(cluster, page_size)
        data_name, _ = cls.meta_names(name)
        if not manager.exists(data_name):
            raise NotFound(f"no database: {name}")
        # parsed only so that a catalog of another version fails here
        parse_catalog(manager.read_page(data_name, 0))
        db = cls(manager, name, post_commit_threshold, deferred, faults)
        if recover:
            db.recover()
        return db

    def recover(self) -> str:
        """Run restart processing; returns "rollback" or "clean". Restart
        drops every log generation but the lowest, the live one, and
        truncates its uncommitted tail: it writes no page.

        It runs under the database's write lock, taken for owner
        "recovery" straight from the cluster's lock queue, not through a
        session, whose write `begin` would truncate the tail first and
        so make every restart "clean". So no commit or batch of any
        `Database` over the cluster is in flight while restart drops
        generations and truncates; a batch's g+1 is never taken for an
        abandoned one. A thread that holds a lock on this database and
        opens a second instance with recovery therefore waits for
        itself, for good.
        """
        lockid = self.locks.request_lock(self.data_name, WRITE, "recovery")
        try:
            return self.store.restart_system()
        finally:
            self.locks.release_lock(self.data_name, lockid)

    def session(self, owner: str | None = None) -> "Session":
        return Session(self, owner or f"session-{next(_SESSION_IDS)}")

    def run_maintenance(self) -> int:
        """Deferred post-commit outside any commit (the periodic trigger).

        Takes the write lock, whose begin drops any uncommitted log tail,
        and returns the number of data-block remakes. Success or failure,
        it then aborts the session, which makes no DFS call, so no second
        error hides the first. A batch that fails before it drops the
        live generation, its commit point, is abandoned, and the next
        batch does its work.
        """
        session = self.session("maintenance")
        session.begin(WRITE)
        try:
            return self.store.batch_post_commit()
        finally:
            session.abort()


class Session:
    """One transaction stream: a private page cache over the database's
    transaction store, whose write state belongs to the open writer.

    A failed commit releases the lock and leaves its log blocks; every
    `begin` starts from the log's committed prefix, so no later
    transaction sees them, and a writer's `begin` deletes them. An abort
    only releases the lock.

    The page cache holds the immutable pages the DFS layers return (a
    page the database's meta-file cache read through, or a slice of a
    block it wrote); a page is copied into a `bytearray` only when the
    session mutates it (the heap's tail page on insert, a record's page
    on update). A heap scan keeps no page it reads: a page the cache does
    not hold is read from the store and dropped once the scan moves past
    it, so a full scan holds one heap page at a time.

    Inserts go to the heap's open tail: the packed records not yet on
    their page, with that page's id, their next slot and the page's free
    bytes after them, so `insert_record` returns its row id at once. The
    page takes the records in one `SlottedPage.extend` when the next
    record does not fit, before anything reads the page (a scan, a
    fetch, an update) and at commit; each of these closes the tail, and
    the next insert reopens it from the page as it then stands. The
    pages come out as inserts of one record at a time would build them.

    `page_reads` counts the distinct pages each transaction read from
    the store, summed over transactions: a page read again (by a second
    scan, or by an update after the scan that found its record) counts
    once.
    """

    def __init__(self, db: Database, owner: str):
        self.db = db
        self.owner = owner
        self.page_size = db.manager.page_size
        self._entries_per_page = \
            (self.page_size - PAGE_HEADER_SIZE) // ENTRY_SIZE
        self.mode: str | None = None
        self.lockid: int | None = None
        self.catalog: Catalog | None = None
        self._cache: dict[int, bytes | bytearray] = {}
        self._read: set[int] = set()  # pageids this transaction has read
        self._dirty: set[int] = set()
        self._pending_index: list[tuple[int, int, int]] = []
        # the open tail (see above); none while `_tail_page` is None
        self._tail: list[bytes] = []
        self._tail_page: int | None = None
        self._tail_slot = 0
        self._tail_free = 0
        self.page_reads = 0
        self.page_writes = 0

    # ------------------------------------------------------------------
    # Locking / transaction boundaries
    # ------------------------------------------------------------------

    def begin(self, mode: str) -> None:
        if self.mode is not None:
            raise LockError(f"session {self.owner} already holds a lock")
        self.lockid = self.db.locks.request_lock(
            self.db.data_name, mode, self.owner)
        self.mode = mode
        try:
            self.db.store.begin_transaction(mode == WRITE)
            self.catalog = parse_catalog(self._get_page(0))
        except BaseException:
            self._end()
            raise

    def commit(self) -> None:
        """Hand the store every dirty page in pageid order, then commit.

        The store decides where each data block goes: in place if no
        committed transaction has written it, else to the log (see
        `wormdb.spdu_dfs`). The catalog page goes only if it changed
        since `begin` (an update in place leaves it as it was), and its
        block is always logged. A failure before the commit marker
        leaves bytes only in blocks no committed catalog names, and a
        page this session makes is zeroed in memory, so those bytes are
        never read.
        """
        if self.mode is None:
            raise LockError("no transaction in progress")
        try:
            if self.mode == WRITE:
                self._close_tail()
                if self._pending_index:
                    self._flush_index_entries()
                catalog = pack_catalog(self.catalog, self.page_size)
                # page 0 as `begin` read it, from the session's cache
                if catalog[PAGE_HEADER_SIZE:] != \
                        self._get_page(0)[PAGE_HEADER_SIZE:]:
                    self._put_page(0, catalog)
                # the store stamps a copy of each page, so the session
                # drops its own as it hands it over
                for pageid in sorted(self._dirty):
                    self.db.store.write_page(pageid, self._cache.pop(pageid))
                self.page_writes += len(self._dirty)
                self.db.store.commit_transaction()
        finally:
            self._end()

    def abort(self) -> None:
        """End the transaction. Nothing of it has reached the DFS, since
        the store sees a write transaction's pages only at commit, and the
        writer's `begin` already dropped any uncommitted log tail, so this
        makes no DFS call."""
        if self.mode is None:
            raise LockError("no transaction in progress")
        self._end()

    def _end(self) -> None:
        # a writer's commit, failed or not, or abort leaves the store no
        # buffer for a later transaction to read
        if self.mode == WRITE:
            self.db.store.end_transaction()
        self.db.locks.release_lock(self.db.data_name, self.lockid)
        self.mode = None
        self.lockid = None
        self.catalog = None
        self._cache.clear()
        self._read.clear()
        self._dirty.clear()
        self._pending_index.clear()
        self._tail = []
        self._tail_page = None
        self._tail_free = 0

    def _require_lock(self, write: bool = False) -> None:
        if self.mode is None:
            raise LockError("operation requires a lock")
        if write and self.mode != WRITE:
            raise LockError("operation requires the write lock")

    # ------------------------------------------------------------------
    # Page cache
    # ------------------------------------------------------------------

    def _get_page(self, pageid: int) -> bytes | bytearray:
        if pageid == self._tail_page:
            self._close_tail()
        page = self._cache.get(pageid)
        if page is None:
            page = self._cache[pageid] = self._read_page(pageid)
        return page

    def _read_page(self, pageid: int) -> bytes:
        """A page from the store, not cached; counted once per
        transaction."""
        if pageid not in self._read:
            self._read.add(pageid)
            self.page_reads += 1
        return self.db.store.read_page(pageid)

    def _writable_page(self, pageid: int) -> bytearray:
        """The session's own mutable copy of a page."""
        page = self._get_page(pageid)
        if type(page) is not bytearray:
            page = self._cache[pageid] = bytearray(page)
        return page

    def _fresh_page(self, pageid: int) -> bytearray:
        page = bytearray(self.page_size)
        self._cache[pageid] = page
        self._dirty.add(pageid)
        return page

    def _put_page(self, pageid: int, content: bytes) -> None:
        self._cache[pageid] = content
        self._dirty.add(pageid)

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------

    def insert_record(self, record: UserVisitsRecord) -> tuple[int, int]:
        self._require_lock(write=True)
        raw = pack_record(record)
        need = len(raw) + SLOT_SIZE
        if need > self._tail_free:
            self._open_tail(need)
        self._tail.append(raw)
        self._tail_free -= need
        rid = (self._tail_page, self._tail_slot)
        self._tail_slot += 1
        self._pending_index.append((_key_hash(record.source_ip), *rid))
        self.catalog.record_count += 1
        return rid

    def _open_tail(self, need: int) -> None:
        """Close the open tail, and open one with `need` free bytes: the
        last heap page if it has them, else a fresh page after it."""
        self._close_tail()
        cat = self.catalog
        if cat.heap_used:
            pageid = HEAP_START + cat.heap_used - 1
            page = SlottedPage(self._writable_page(pageid))
            if need <= page.free_space():
                self._dirty.add(pageid)
                self._set_tail(pageid, page)
                return
        pageid = HEAP_START + cat.heap_used
        if pageid >= cat.index_floor or pageid >= cat.total_pages:
            raise DatabaseFull(
                f"heap page {pageid} collides with index space")
        # tested before the fresh page is made, so a refused record
        # leaves no fresh page dirty
        if need > empty_free_space(self.page_size):
            raise RecordTooLarge(
                f"{need - SLOT_SIZE}-byte record exceeds empty page "
                f"capacity")
        page = SlottedPage(self._fresh_page(pageid))
        cat.heap_used += 1
        self._set_tail(pageid, page)

    def _set_tail(self, pageid: int, page: SlottedPage) -> None:
        self._tail_page = pageid
        self._tail_slot = page.count
        self._tail_free = page.free_space()

    def _close_tail(self) -> None:
        """Put the open tail's records on their page, and close it."""
        if self._tail:
            SlottedPage(self._cache[self._tail_page]).extend(self._tail)
            self._tail = []
        self._tail_page = None
        self._tail_free = 0

    def scan(self, limit: int) -> list[UserVisitsRecord]:
        self._require_lock()
        return [unpack_record(raw) for _, raw in
                islice(self._scan_entries(), max(limit, 0))]

    def _scan_entries(self, prefix: bytes = b""):
        """Yield ((pageid, slot), packed record) in heap order for each
        record that begins with `prefix`, reading each page only when the
        consumer reaches it and caching none (see the class docstring).
        Only the matching records are copied out of their pages, each
        page's slots read in one unpack (`SlottedPage.spans`). Callers
        check the lock."""
        for pageid in range(HEAP_START, HEAP_START + self.catalog.heap_used):
            if pageid == self._tail_page:
                self._close_tail()
            buf = self._cache.get(pageid)
            if buf is None:
                buf = self._read_page(pageid)
            for slot, (start, end) in enumerate(SlottedPage(buf).spans()):
                if not prefix or buf.startswith(prefix, start, end):
                    yield (pageid, slot), bytes(buf[start:end])

    def select_by_key(self, source_ip: str, use_index: bool
                      ) -> list[UserVisitsRecord]:
        self._require_lock()
        if not use_index:
            return [unpack_record(raw) for _, raw in
                    self._scan_entries(source_ip_prefix(source_ip))]
        # an index entry holds the key's hash, so a lookup finds the rows
        # of every key that shares it: each row is rechecked
        records = map(self._fetch, self._index_lookup(source_ip))
        return [record for record in records if record.source_ip == source_ip]

    def update_by_key(self, source_ip: str, new_country_code: str,
                      use_index: bool) -> int:
        self._require_lock(write=True)
        check_field(new_country_code, "country_code")
        if use_index:
            rids = self._index_lookup(source_ip)
        else:
            rids = [rid for rid, _ in
                    self._scan_entries(source_ip_prefix(source_ip))]
        updated = 0
        for pageid, slot in rids:
            record = self._fetch((pageid, slot))
            if record.source_ip != source_ip:
                continue  # a key that shares the hash (see `select_by_key`)
            record.country_code = new_country_code
            SlottedPage(self._writable_page(pageid)).replace(
                slot, pack_record(record))
            self._dirty.add(pageid)
            updated += 1
        return updated

    def _fetch(self, rid: tuple[int, int]) -> UserVisitsRecord:
        pageid, slot = rid
        return unpack_record(SlottedPage(self._get_page(pageid)).record(slot))

    # ------------------------------------------------------------------
    # Secondary index
    # ------------------------------------------------------------------

    def _entry_at(self, seg: IndexSegment, i: int) -> tuple[int, int, int]:
        page = self._get_page(seg.start + i // self._entries_per_page)
        offset = PAGE_HEADER_SIZE + (i % self._entries_per_page) * ENTRY_SIZE
        return _ENTRY.unpack_from(page, offset)

    def _index_lookup(self, source_ip: str) -> list[tuple[int, int]]:
        key = _key_hash(source_ip)
        rids = []
        for seg in self.catalog.segments:
            i = self._lower_bound(seg, key)
            while i < seg.entries:
                entry_key, pageid, slot = self._entry_at(seg, i)
                if entry_key != key:
                    break
                rids.append((pageid, slot))
                i += 1
        for entry_key, pageid, slot in self._pending_index:
            if entry_key == key:
                rids.append((pageid, slot))
        return sorted(set(rids))

    def _lower_bound(self, seg: IndexSegment, key: int) -> int:
        """The index of `seg`'s first entry whose hash is not below `key`.

        The search starts at the key's interpolated page: hashes are
        crc32s, so about `entries * key / 2**32` entries lie below `key`.
        From there it gallops over the pages' first entries, in steps
        that double, to the last page whose first entry is below `key`,
        then bisects that page. So a near-uniform hash reads a page or two
        of a segment, and a skewed one O(log pages), never O(pages)."""
        per_page = self._entries_per_page

        def below(page: int) -> bool:
            return _HASH.unpack_from(self._get_page(seg.start + page),
                                     PAGE_HEADER_SIZE)[0] < key

        # lo is -1 or a page that starts below `key`; hi is seg.pages or
        # a page that does not
        page, step = (seg.entries * key >> 32) // per_page, 1
        if below(page):
            lo = page
            while lo + step < seg.pages and below(lo + step):
                lo, step = lo + step, 2 * step
            hi = min(lo + step, seg.pages)
        else:
            hi = page
            while hi - step >= 0 and not below(hi - step):
                hi, step = hi - step, 2 * step
            lo = max(hi - step, -1)
        lo += bisect_left(range(lo + 1, hi), True,
                          key=lambda page: not below(page))
        if lo < 0:
            return 0
        buf = self._get_page(seg.start + lo)
        return lo * per_page + bisect_left(
            range(min(per_page, seg.entries - lo * per_page)), key,
            key=lambda i: _HASH.unpack_from(
                buf, PAGE_HEADER_SIZE + i * ENTRY_SIZE)[0])

    def _flush_index_entries(self) -> None:
        """Write the commit's entries as one new segment, merged with the
        newest segments by the size-tiered rule (see `FANOUT`)."""
        cat = self.catalog
        new_entries = sorted(self._pending_index)
        total = len(new_entries)
        keep = len(cat.segments)
        room = catalog_room(self.page_size)
        per_page = self._entries_per_page
        while keep:
            tier = _tier(total, per_page)
            if keep >= room or \
                    _tier(cat.segments[keep - 1].entries, per_page) < tier:
                fold = 1
            elif keep >= FANOUT - 1 and all(
                    _tier(seg.entries, per_page) == tier
                    for seg in cat.segments[keep - FANOUT + 1:keep]):
                fold = FANOUT - 1
            else:
                break
            keep -= fold
            total += sum(seg.entries for seg in cat.segments[keep:keep + fold])
        folded = cat.segments[keep:]
        streams = [self._segment_entries(seg) for seg in folded]
        streams.append(iter(new_entries))
        # the new extent is allocated before the folded ones are freed,
        # and heapq.merge reads the folded segments while it is written,
        # none of them before the allocation, which may raise DatabaseFull
        merged = self._write_segment(heapq.merge(*streams), total)
        cat.segments = cat.segments[:keep] + [merged]
        cat.release(folded)
        self._pending_index = []

    def _segment_pages(self, entries: int) -> int:
        return max(1, -(-entries // self._entries_per_page))

    def _segment_entries(self, seg: IndexSegment):
        """Yield `seg`'s entries in order, each page decoded whole when
        the consumer reaches its first entry."""
        per_page = self._entries_per_page
        for first in range(0, seg.entries, per_page):
            page = self._get_page(seg.start + first // per_page)
            used = min(per_page, seg.entries - first) * ENTRY_SIZE
            yield from _ENTRY.iter_unpack(
                page[PAGE_HEADER_SIZE:PAGE_HEADER_SIZE + used])

    def _write_segment(self, entries, count: int) -> IndexSegment:
        """Write the `count` sorted `entries` of an iterator as a new
        segment, a page at a time; its extent is allocated before the
        first entry is drawn."""
        pages = self._segment_pages(count)
        start = self._alloc_extent(pages)
        written = 0
        for pageid in range(start, start + pages):
            body = b"".join(starmap(
                _ENTRY.pack, islice(entries, self._entries_per_page)))
            written += len(body)
            self._put_page(pageid, (bytes(PAGE_HEADER_SIZE) + body).ljust(
                self.page_size, b"\0"))
        assert written == count * ENTRY_SIZE
        return IndexSegment(start, pages, count)

    def _alloc_extent(self, pages: int) -> int:
        cat = self.catalog
        for i, (start, free_pages) in enumerate(cat.free_extents):
            if free_pages >= pages:
                if free_pages == pages:
                    del cat.free_extents[i]
                else:
                    cat.free_extents[i] = (start + pages, free_pages - pages)
                return start
        floor = cat.index_floor - pages
        if floor < HEAP_START + cat.heap_used:
            raise DatabaseFull(
                f"index extent of {pages} pages collides with heap")
        cat.index_floor = floor
        return floor
