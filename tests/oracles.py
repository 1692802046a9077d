"""Independent oracles the tests check the real stores against.

The map oracle models transactional page semantics with plain dicts and
stamps each page as the stores do, by its pageid and payload alone, so
reads can be compared byte for byte, headers included.

The flat-file oracle is the baseline recovery method the DFS-adapted store
(`wormdb.spdu_dfs`) adapts: shadow-page deferred update over flat page
stores. Updated pages go to a log file and are redirected through an
in-memory log table index (pageid -> log offset). Commit copies every
logged page back to its home slot in the data file; a commit_flag in the
log's master page makes that copy-back atomic and restartable. Its fault
points (`SPDU_CORE_FAULT_POINTS`) are armed only through
`CoreFaultInjector`, which its tests build. Single writer at a time;
readers may share the instance between write transactions.

`meta_file_strays` checks a DFS cluster against the meta-file layout:
every constituent sits inside a registered meta file's block count.
`cached_ids` names what a manager's page cache holds and under which
id. `stored_block` reads the bytes a constituent stores, as appended or as
packed, and `packed` works out what a remake stores. `data_blocks`
reads a store's data file block by block, `log_blocks` counts its live
log blocks and `log_bases` reads back how its log block holds each
page.

`reference_unpack_record` and `reference_pack_record` are a plain
field-by-field decoder and encoder of the UserVisits wire format, which
the tests check `wormdb.records` against. `reference_insert` adds one
record to a slotted page and `reference_index_pages` packs an index
segment one entry at a time: the builders the page-at-a-time
`SlottedPage.extend` and the engine's index writer are checked against.
"""

from __future__ import annotations

import os
import random
import struct
import zlib
from dataclasses import dataclass
from datetime import date

from wormdb.dfs import SUFFIX_WIDTH, DfsCluster
from wormdb.errors import OutOfRange, RecoveryError, ValueTooLong
from wormdb.faults import NULL_INJECTOR, FaultInjector
from wormdb.pagefmt import PAGE_HEADER_SIZE, payload_checksum, stamp_page
from wormdb.records import FIELD_LIMITS, UserVisitsRecord
from wormdb.spdu_dfs import unpack_log

# The recovery header `stamp_page` writes: the pageid and the payload's
# crc32.
_PAGE_HEADER = struct.Struct("<II")


def page_header(page: bytes | bytearray) -> tuple[int, int]:
    """(pageid, payload crc32) of a page's recovery header."""
    return _PAGE_HEADER.unpack_from(page, 0)


def verify_page(expected_pageid: int, page: bytes | bytearray) -> None:
    """Raise RecoveryError unless the header matches the payload."""
    pageid, crc = page_header(page)
    if pageid != expected_pageid:
        raise RecoveryError(
            f"page header pageid {pageid} != expected {expected_pageid}")
    actual = payload_checksum(page)
    if crc != actual:
        raise RecoveryError(
            f"page {expected_pageid} checksum mismatch: "
            f"header {crc:#x}, payload {actual:#x}")


def meta_file_strays(cluster: DfsCluster) -> list[str]:
    """The DFS files under a meta file's name but outside the meta file:
    at or past a registered meta file's block count, or under a name no
    meta file has. A file whose name holds a "/" is taken for block
    `<ordinal>` of meta file `<name>`, as a constituent `<name>/<ordinal>`
    and its `<name>/<ordinal>.new` are."""
    strays = []
    for file in cluster.list_files():
        meta, slash, rest = file.rpartition("/")
        if slash and not (cluster.meta_exists(meta) and int(
                rest[:SUFFIX_WIDTH]) < cluster.meta_block_count(meta)):
            strays.append(file)
    return strays


def log_blocks(store) -> int:
    """The block count the NameNode registers for `store`'s live log
    generation."""
    return store.manager.cluster.meta_block_count(store.log)


def data_blocks(store) -> list[bytes]:
    """Every block of `store`'s data file, read whole, block 0 first."""
    count = store.manager.cluster.meta_block_count(store.data)
    return [store.manager.read_block(store.data, block_id)
            for block_id in range(count)]


def cached_ids(manager) -> dict[str, int]:
    """Constituent name -> the file_id under which `manager` cached its
    block, pages or ranges: the id a write there returned, or the id
    they were read under."""
    return {name: file_id
            for name, (file_id, _) in list(manager._cache.items())}


def stored_block(manager, file: str, block_id: int) -> bytes:
    """The bytes block `block_id` of meta file `file` stores, as
    `read_bytes` reads them, never unpacked: a log block as appended, a
    remade data block as its remake packed it."""
    return manager.read_bytes(manager.constituent_entry(file, block_id))


def log_bodies(store, end: int | None = None) -> list[tuple[bytes, bytes]]:
    """(body, window) of each block of `store`'s live log generation
    before block `end`, all by default, oldest first, as `unpack_log`
    replays them: its body, the pages as logged and their bases, and
    the window that follows it. Read through the constituents' entries,
    so with no check of their replicas' health."""
    entries = store.manager.constituent_entries(store.log)[:end]
    return list(unpack_log(
        (store.manager.read_bytes(entry) for entry in entries),
        store.page_size))


def log_windows(store) -> list[bytes]:
    """The zlib dictionary of each block of `store`'s live log
    generation: the window that precedes it (`log_bodies`)."""
    return [b""] + [window for _, window in log_bodies(store)[:-1]]


def names_a_dictionary(block: bytes) -> bool:
    """Whether a log block's zlib stream takes a preset dictionary: the
    FDICT bit of its header (RFC 1950)."""
    return bool(block[1] & 0x20)


def deflated(body: bytes, window: bytes) -> bytes:
    """`body` as a log block stores it: one zlib stream at level 1 that
    takes `window` as its preset dictionary, none if it is empty."""
    codec = zlib.compressobj(1, zdict=window) if window else \
        zlib.compressobj(1)
    return codec.compress(body) + codec.flush()


def packed(pages: bytes, page_size: int) -> bytes:
    """What a remake stores for `pages`, whole pages up to the last
    nonzero one: one zlib stream of them at level 1 where that is
    shorter and not whole pages, else the pages."""
    stream = zlib.compress(pages, 1)
    return stream if len(stream) < len(pages) and len(stream) % page_size \
        else pages


def log_bases(store, block_id: int) -> list[int]:
    """The base of each page of block `block_id` of `store`'s live log
    generation, in its footer's order: 0 for a page logged whole, else
    the file_id of the home it was XORed with (`log_bodies`)."""
    body, _ = log_bodies(store, block_id + 1)[block_id]
    count = len(body) // (store.page_size + 8)
    return list(struct.unpack_from(
        f"<{count}Q", body, count * store.page_size))


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, size: int) -> bytes:
        chunk = self.raw[self.pos:self.pos + size]
        self.pos += size
        return chunk

    def string(self) -> str:
        (length,) = struct.unpack("<H", self.take(2))
        return self.take(length).decode("utf-8")


def reference_unpack_record(raw: bytes) -> UserVisitsRecord:
    """Decode a packed record one field at a time; every field is a fresh
    object."""
    r = _Reader(raw)
    source_ip = r.string()
    dest_url = r.string()
    visit_date = date.fromordinal(struct.unpack("<I", r.take(4))[0])
    (ad_revenue,) = struct.unpack("<d", r.take(8))
    user_agent = r.string()
    country_code = r.string()
    language_code = r.string()
    search_word = r.string()
    (duration,) = struct.unpack("<i", r.take(4))
    assert r.pos == len(raw), "trailing bytes after the record"
    return UserVisitsRecord(source_ip, dest_url, visit_date, ad_revenue,
                            user_agent, country_code, language_code,
                            search_word, duration)


def _reference_str(value: str, field: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > FIELD_LIMITS[field]:
        raise ValueTooLong(
            f"{field} longer than {FIELD_LIMITS[field]} bytes: {value!r}")
    return struct.pack("<H", len(raw)) + raw


def reference_pack_record(record: UserVisitsRecord) -> bytes:
    """Encode a record one field at a time, each string checked against
    its limit as it is encoded, so ValueTooLong names the first field
    that passes its limit."""
    return b"".join([
        _reference_str(record.source_ip, "source_ip"),
        _reference_str(record.dest_url, "dest_url"),
        struct.pack("<Id", record.visit_date.toordinal(), record.ad_revenue),
        _reference_str(record.user_agent, "user_agent"),
        _reference_str(record.country_code, "country_code"),
        _reference_str(record.language_code, "language_code"),
        _reference_str(record.search_word, "search_word"),
        struct.pack("<i", record.duration),
    ])


# A slotted page after the recovery header: slot count and data start,
# then a directory of slots, each its record's offset alone (a record ends
# where the one in the slot before starts); an all-zero page is empty.
_SLOTTED_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<H")


def reference_insert(buf: bytearray, record: bytes) -> int | None:
    """Add `record` to the slotted page in `buf`, below the records it
    holds, with its slot after theirs; its slot, or None if it does not
    fit, with `buf` unchanged."""
    count, data_start = _SLOTTED_HEADER.unpack_from(buf, PAGE_HEADER_SIZE)
    if count == 0 and data_start == 0:
        data_start = len(buf)
    slot_at = PAGE_HEADER_SIZE + _SLOTTED_HEADER.size + _SLOT.size * count
    if slot_at + _SLOT.size + len(record) > data_start:
        return None
    offset = data_start - len(record)
    buf[offset:data_start] = record
    _SLOT.pack_into(buf, slot_at, offset)
    _SLOTTED_HEADER.pack_into(buf, PAGE_HEADER_SIZE, count + 1, offset)
    return count


_INDEX_ENTRY = struct.Struct("<IIH")  # key hash, pageid, slot


def reference_index_pages(entries: list[tuple[int, int, int]],
                          page_size: int) -> list[bytes]:
    """The pages of an index segment of `entries`, each packed at its
    place after the recovery header of its page; a segment of no entries
    is one zero page."""
    per_page = (page_size - PAGE_HEADER_SIZE) // _INDEX_ENTRY.size
    pages = []
    for first in range(0, max(len(entries), 1), per_page):
        page = bytearray(page_size)
        for i, entry in enumerate(entries[first:first + per_page]):
            _INDEX_ENTRY.pack_into(
                page, PAGE_HEADER_SIZE + i * _INDEX_ENTRY.size, *entry)
        pages.append(bytes(page))
    return pages


class MapOracle:
    """Committed/pending page maps with store-identical stamping."""

    def __init__(self, page_size: int, total_pages: int):
        self.page_size = page_size
        self.total_pages = total_pages
        self.committed: dict[int, bytes] = {}
        self.pending: dict[int, bytes] = {}

    def write(self, pageid: int, data: bytes) -> None:
        assert 0 <= pageid < self.total_pages
        self.pending[pageid] = stamp_page(pageid, data)

    def read(self, pageid: int) -> bytes:
        if pageid in self.pending:
            return self.pending[pageid]
        if pageid in self.committed:
            return self.committed[pageid]
        return bytes(self.page_size)

    def commit(self) -> None:
        self.committed.update(self.pending)
        self.pending.clear()

    def abort(self) -> None:
        self.pending.clear()

    def committed_state(self) -> dict[int, bytes]:
        return dict(self.committed)

    def all_pages(self) -> list[bytes]:
        return [self.read(i) for i in range(self.total_pages)]


def random_payload_page(rng: random.Random, page_size: int) -> bytes:
    """A page image with a zeroed (store-owned) header area."""
    return bytes(PAGE_HEADER_SIZE) + rng.randbytes(page_size - PAGE_HEADER_SIZE)


# Points inside the flat-file recovery method.
SPDU_CORE_FAULT_POINTS = (
    "core.commit.after_log_sync",
    "core.commit.before_flag_set",
    "core.commit.after_flag_set",
    "core.post_commit.page_copied",
    "core.commit.before_flag_clear",
    "core.commit.after_flag_clear",
    "core.commit.before_log_init",
    "core.restart.begin",
    "core.restart.after_redo",
)


class CoreFaultInjector(FaultInjector):
    """A FaultInjector that arms the flat-file oracle's points instead of
    the DFS-backed store's."""

    def arm(self, name: str, *, skip: int = 0) -> None:
        if name not in SPDU_CORE_FAULT_POINTS:
            raise ValueError(f"unregistered fault point: {name}")
        self._armed[name] = (skip, "raise")


MASTER_MAGIC = 0x53504455
_MASTER = struct.Struct("<IBI")  # magic, commit_flag, log_page_count


def _pack_master(page_size: int, commit_flag: bool, log_page_count: int) -> bytes:
    page = bytearray(page_size)
    _MASTER.pack_into(page, 0, MASTER_MAGIC, int(commit_flag), log_page_count)
    return bytes(page)


def _unpack_master(page: bytes) -> tuple[bool, int]:
    magic, flag, count = _MASTER.unpack_from(page, 0)
    if magic != MASTER_MAGIC:
        raise RecoveryError("log master page has bad magic")
    return bool(flag), count


class MemPageStore:
    """Page store modelling durability: writes are volatile until sync().

    crash() drops everything not yet synced, which is how the crash sweeps
    distinguish "written" from "durable". Truncation is applied immediately
    (treated as a metadata operation).
    """

    def __init__(self, page_size: int, pages: int = 0):
        self.page_size = page_size
        self._durable: dict[int, bytes] = {}
        self._pending: dict[int, bytes] = {}
        self._durable_count = pages
        self._count = pages

    def count(self) -> int:
        return self._count

    def read(self, index: int) -> bytes:
        if not 0 <= index < self._count:
            raise OutOfRange(f"page {index} of {self._count}")
        data = self._pending.get(index)
        if data is None:
            data = self._durable.get(index)
        return data if data is not None else bytes(self.page_size)

    def write(self, index: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise ValueError("page must be exactly page_size bytes")
        if not 0 <= index <= self._count:
            raise OutOfRange(f"write at {index} of {self._count}")
        self._pending[index] = bytes(data)
        self._count = max(self._count, index + 1)

    def sync(self) -> None:
        self._durable.update(self._pending)
        self._pending.clear()
        self._durable_count = self._count

    def truncate(self, pages: int) -> None:
        for store in (self._durable, self._pending):
            for index in [i for i in store if i >= pages]:
                del store[index]
        self._count = pages
        self._durable_count = min(self._durable_count, pages)

    def crash(self) -> None:
        self._pending.clear()
        self._count = self._durable_count


class FilePageStore:
    """Page store over one OS file; sync() is fsync."""

    def __init__(self, path: str, page_size: int, pages: int = 0):
        self.page_size = page_size
        exists = os.path.exists(path)
        self._fh = open(path, "r+b" if exists else "w+b")
        if not exists and pages:
            self._fh.truncate(pages * page_size)

    def count(self) -> int:
        self._fh.seek(0, os.SEEK_END)
        return self._fh.tell() // self.page_size

    def read(self, index: int) -> bytes:
        if not 0 <= index < self.count():
            raise OutOfRange(f"page {index} of {self.count()}")
        self._fh.seek(index * self.page_size)
        data = self._fh.read(self.page_size)
        return data.ljust(self.page_size, b"\0")

    def write(self, index: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise ValueError("page must be exactly page_size bytes")
        if not 0 <= index <= self.count():
            raise OutOfRange(f"write at {index} of {self.count()}")
        self._fh.seek(index * self.page_size)
        self._fh.write(data)

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def truncate(self, pages: int) -> None:
        self._fh.truncate(pages * self.page_size)

    def close(self) -> None:
        self._fh.close()


@dataclass
class BufferFrame:
    pageid: int
    content: bytes
    dirty: bool = True
    valid: bool = True


class ShadowPagedStore:
    """The baseline method: data file + log file + log table index.

    Log layout: slot 0 is the master page (magic, commit_flag,
    log_page_count); log page with index offset k lives in slot k+1.
    """

    def __init__(self, data_store, log_store, page_size: int,
                 total_pages: int, faults: FaultInjector = NULL_INJECTOR):
        self.data = data_store
        self.log = log_store
        self.page_size = page_size
        self.total_pages = total_pages
        self.faults = faults
        self.index: dict[int, int] = {}
        self._frames: dict[int, BufferFrame] = {}

    @classmethod
    def create(cls, data_store, log_store, page_size: int, total_pages: int,
               faults: FaultInjector = NULL_INJECTOR) -> "ShadowPagedStore":
        store = cls(data_store, log_store, page_size, total_pages, faults)
        log_store.write(0, _pack_master(page_size, False, 0))
        log_store.sync()
        return store

    # ------------------------------------------------------------------

    def _check_pageid(self, pageid: int) -> None:
        if not 0 <= pageid < self.total_pages:
            raise OutOfRange(
                f"pageid {pageid} outside [0, {self.total_pages})")

    def write_page(self, pageid: int, page_data: bytes) -> None:
        self._check_pageid(pageid)
        if len(page_data) != self.page_size:
            raise ValueError("page must be exactly page_size bytes")
        stamped = stamp_page(pageid, page_data)
        offset = self.index.get(pageid)
        if offset is not None:
            self.log.write(offset + 1, stamped)
        else:
            offset = len(self.index)
            self.log.write(offset + 1, stamped)
            self.index[pageid] = offset
        self._frames[pageid] = BufferFrame(pageid, stamped)

    def read_page(self, pageid: int) -> bytes:
        self._check_pageid(pageid)
        frame = self._frames.get(pageid)
        if frame is not None and frame.valid:
            return frame.content
        offset = self.index.get(pageid)
        if offset is not None:
            return self.log.read(offset + 1)
        return self.data.read(pageid)

    # ------------------------------------------------------------------

    def commit_transaction(self) -> None:
        # Step 1: make every logged page durable.
        self.log.sync()
        self.faults.hit("core.commit.after_log_sync")
        # Step 2: the atomic commit point.
        self.faults.hit("core.commit.before_flag_set")
        self.log.write(0, _pack_master(self.page_size, True, len(self.index)))
        self.log.sync()
        self.faults.hit("core.commit.after_flag_set")
        # Step 3: copy back.
        self.post_commit()
        # Step 4: mark post-commit processing complete.
        self.faults.hit("core.commit.before_flag_clear")
        self.log.write(0, _pack_master(self.page_size, False, len(self.index)))
        self.log.sync()
        self.faults.hit("core.commit.after_flag_clear")
        # Step 5: initialize log and index.
        self.faults.hit("core.commit.before_log_init")
        self._init_log()

    def post_commit(self) -> None:
        """Copy every logged page to its data-file home. Idempotent."""
        for pageid in sorted(self.index):
            offset = self.index[pageid]
            self.data.write(pageid, self.log.read(offset + 1))
            self.faults.hit("core.post_commit.page_copied")
        self.data.sync()

    def abort_transaction(self) -> None:
        for frame in self._frames.values():
            frame.valid = False
        self._frames.clear()
        self._init_log()

    def restart_system(self) -> str:
        """Recover after a crash; returns "redo", "rollback" when the log
        holds a page past its master, or "clean"."""
        self.faults.hit("core.restart.begin")
        self._frames.clear()
        if self.log.count() == 0:
            # Virgin log (creation itself crashed before the master sync).
            self._init_log()
            return "rollback"
        flag, log_page_count = _unpack_master(self.log.read(0))
        if flag:
            self._rebuild_index(log_page_count)
            self.post_commit()
            self.faults.hit("core.restart.after_redo")
            self.log.write(0, _pack_master(self.page_size, False,
                                           log_page_count))
            self.log.sync()
            self._init_log()
            return "redo"
        path = "rollback" if self.log.count() > 1 else "clean"
        self._init_log()
        return path

    # ------------------------------------------------------------------

    def _rebuild_index(self, log_page_count: int) -> None:
        self.index.clear()
        for offset in range(log_page_count):
            page = self.log.read(offset + 1)
            pageid, _ = page_header(page)
            verify_page(pageid, page)
            self.index[pageid] = offset

    def _init_log(self) -> None:
        self.log.truncate(1)
        self.log.write(0, _pack_master(self.page_size, False, 0))
        self.log.sync()
        self.index.clear()
        self._frames.clear()

    # Observability for tests.
    def log_offsets(self) -> dict[int, int]:
        return dict(self.index)
