"""On-page format shared by the recovery layers.

Every page in the system is ``page_size`` bytes. The first 16 bytes are a
recovery header owned by the store: pageid, 4 zero bytes, and a checksum
of the payload. Application structures (slotted pages, catalog, index
segments) live in the remaining bytes and must never touch the header
area. A stamped page depends only on its pageid and payload.

The store stamps the header on every page it writes, and no package code
reads it back: restart rebuilds the log table index from the footers of
the log blocks. So bytes 4-7, which held a write ordinal in pages written
before they were zeroed, are never read, and such pages still read. Only
the tests read headers: `tests/oracles.py` holds `page_header` and
`verify_page`, and its flat-file oracle rebuilds its index from them.
"""

from __future__ import annotations

import struct
import zlib

PAGE_HEADER_SIZE = 16
_HEADER = struct.Struct("<I4xQ")  # pageid, 4 zero bytes, payload crc32


def payload_checksum(page: bytes | bytearray | memoryview) -> int:
    return zlib.crc32(memoryview(page)[PAGE_HEADER_SIZE:])


def stamp_page(pageid: int, page: bytes | bytearray) -> bytes:
    """Return `page` with its recovery header filled in, made with one
    copy of its payload."""
    header = _HEADER.pack(pageid, payload_checksum(page))
    return b"".join((header, memoryview(page)[PAGE_HEADER_SIZE:]))
