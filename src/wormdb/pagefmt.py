"""On-page format shared by the recovery layers.

Every page in the system is ``page_size`` bytes. The first 16 bytes are a
recovery header owned by the store: pageid, the ordinal of the write within
its transaction, and a checksum of the payload. Application structures
(slotted pages, catalog, index segments) live in the remaining bytes and
must never touch the header area.

The store stamps the header on every page it writes, and no package code
reads it back: restart rebuilds the log table index from the footers of
the log blocks. Only the tests read headers: `tests/oracles.py` holds
`page_header` and `verify_page`, and its flat-file oracle rebuilds its
index from them.
"""

from __future__ import annotations

import struct
import zlib

PAGE_HEADER_SIZE = 16
_HEADER = struct.Struct("<IIQ")  # pageid, txn write ordinal, payload crc32


def payload_checksum(page: bytes | bytearray | memoryview) -> int:
    return zlib.crc32(memoryview(page)[PAGE_HEADER_SIZE:])


def stamp_page(pageid: int, ordinal: int, page: bytes | bytearray) -> bytes:
    """Return `page` with its recovery header filled in, made with one
    copy of its payload."""
    header = _HEADER.pack(pageid, ordinal, payload_checksum(page))
    return b"".join((header, memoryview(page)[PAGE_HEADER_SIZE:]))
