"""On-page format shared by the recovery layers.

Every page in the system is ``page_size`` bytes. The first 16 bytes are a
recovery header owned by the store: pageid, the ordinal of the write within
its transaction, and a checksum of the payload. Application structures
(slotted pages, catalog, index segments) live in the remaining bytes and
must never touch the header area.

The store stamps the header on every page it writes, and no package code
reads it back: restart rebuilds the log table index from the footers of
the log blocks. The flat-file oracle in `tests/oracles.py` rebuilds its
index from page headers, and the tests check pages with `verify_page`.
"""

from __future__ import annotations

import struct
import zlib

from .errors import RecoveryError

PAGE_HEADER_SIZE = 16
_HEADER = struct.Struct("<IIQ")  # pageid, txn write ordinal, payload crc32


def payload_checksum(page: bytes | bytearray | memoryview) -> int:
    return zlib.crc32(memoryview(page)[PAGE_HEADER_SIZE:])


def stamp_page(pageid: int, ordinal: int, page: bytes | bytearray) -> bytes:
    """Return `page` with its recovery header filled in."""
    out = bytearray(page)
    _HEADER.pack_into(out, 0, pageid, ordinal, payload_checksum(out))
    return bytes(out)


def page_header(page: bytes | bytearray) -> tuple[int, int, int]:
    return _HEADER.unpack_from(page, 0)


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
