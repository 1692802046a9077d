"""Independent oracles the tests check the real stores against.

The map oracle models transactional page semantics with plain dicts and
applies the same deterministic header stamping as the stores, so reads can
be compared byte for byte, headers included.

The flat-file oracle is the baseline recovery method the DFS-adapted store
(`wormdb.spdu_dfs`) adapts: shadow-page deferred update over flat page
stores. Updated pages go to a log file and are redirected through an
in-memory log table index (pageid -> log offset). Commit copies every
logged page back to its home slot in the data file; a commit_flag in the
log's master page makes that copy-back atomic and restartable. Its fault
points (`SPDU_CORE_FAULT_POINTS`) are registered only with the injectors
its tests build. Single writer at a time; readers may share the instance
between write transactions.
"""

from __future__ import annotations

import os
import random
import struct
from dataclasses import dataclass

from wormdb.errors import OutOfRange, RecoveryError
from wormdb.faults import NULL_INJECTOR, FaultInjector
from wormdb.pagefmt import PAGE_HEADER_SIZE, payload_checksum, stamp_page

# The recovery header `stamp_page` writes: pageid, the ordinal of the
# write within its transaction, and the payload's crc32.
_PAGE_HEADER = struct.Struct("<IIQ")


def page_header(page: bytes | bytearray) -> tuple[int, int, int]:
    return _PAGE_HEADER.unpack_from(page, 0)


def verify_page(expected_pageid: int, page: bytes | bytearray) -> None:
    """Raise RecoveryError unless the header matches the payload."""
    pageid, _, crc = page_header(page)
    if pageid != expected_pageid:
        raise RecoveryError(
            f"page header pageid {pageid} != expected {expected_pageid}")
    actual = payload_checksum(page)
    if crc != actual:
        raise RecoveryError(
            f"page {expected_pageid} checksum mismatch: "
            f"header {crc:#x}, payload {actual:#x}")


class MapOracle:
    """Committed/pending page maps with store-identical stamping."""

    def __init__(self, page_size: int, total_pages: int):
        self.page_size = page_size
        self.total_pages = total_pages
        self.committed: dict[int, bytes] = {}
        self.pending: dict[int, bytes] = {}
        self._ordinal = 0

    def write(self, pageid: int, data: bytes) -> None:
        assert 0 <= pageid < self.total_pages
        self.pending[pageid] = stamp_page(pageid, self._ordinal, data)
        self._ordinal += 1

    def read(self, pageid: int) -> bytes:
        if pageid in self.pending:
            return self.pending[pageid]
        if pageid in self.committed:
            return self.committed[pageid]
        return bytes(self.page_size)

    def commit(self) -> None:
        self.committed.update(self.pending)
        self.pending.clear()
        self._ordinal = 0

    def abort(self) -> None:
        self.pending.clear()
        self._ordinal = 0

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
        self._ordinal = 0

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
        stamped = stamp_page(pageid, self._ordinal, page_data)
        self._ordinal += 1
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
        """Recover after a crash; returns "redo" or "rollback"."""
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
        self._init_log()
        return "rollback"

    # ------------------------------------------------------------------

    def _rebuild_index(self, log_page_count: int) -> None:
        self.index.clear()
        for offset in range(log_page_count):
            page = self.log.read(offset + 1)
            pageid, _, _ = page_header(page)
            verify_page(pageid, page)
            self.index[pageid] = offset

    def _init_log(self) -> None:
        self.log.truncate(1)
        self.log.write(0, _pack_master(self.page_size, False, 0))
        self.log.sync()
        self.index.clear()
        self._frames.clear()
        self._ordinal = 0

    # Observability for tests.
    def log_offsets(self) -> dict[int, int]:
        return dict(self.index)
