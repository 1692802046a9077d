"""On-page format and stream codec shared by the recovery layers.

Every page in the system is ``page_size`` bytes. The first 8 bytes are a
recovery header owned by the store: the pageid and a crc32 of the
payload. Application structures (slotted pages, catalog, index segments)
live in the remaining bytes and must never touch the header area. A
stamped page depends only on its pageid and payload.

The store stamps the header on every page it writes, and no package code
reads it back: restart rebuilds the log table index from the footers of
the log blocks. Only the tests read headers: `tests/oracles.py` holds
`page_header` and `verify_page`, and its flat-file oracle rebuilds its
index from them. A root written with the earlier 16-byte header is
refused at open: the catalog `wormdb.engine` reads 8 bytes in starts
with that header's checksum, not the catalog's magic.

The package's stored zlib streams (RFC 1950), a log block's body
(`wormdb.spdu_dfs`) and a remade data block (`wormdb.metafile`), have
one codec here: `deflate` writes a stream at `ZLIB_LEVEL`, with an
optional preset dictionary, and `inflate` reads one back only if it
passes zlib's own check, ends where its bytes end and holds at most a
given number of bytes. Each caller adds only its own length rules.
"""

from __future__ import annotations

import struct
import zlib

from .errors import RecoveryError

PAGE_HEADER_SIZE = 8
_HEADER = struct.Struct("<II")  # pageid, payload crc32


def payload_checksum(page: bytes | bytearray | memoryview) -> int:
    return zlib.crc32(memoryview(page)[PAGE_HEADER_SIZE:])


def stamp_page(pageid: int, page: bytes | bytearray) -> bytes:
    """Return `page` with its recovery header filled in, made with one
    copy of its payload."""
    header = _HEADER.pack(pageid, payload_checksum(page))
    return b"".join((header, memoryview(page)[PAGE_HEADER_SIZE:]))


ZLIB_LEVEL = 1  # zlib's fastest level: a log block's body, a remade block


def deflate(data: bytes, window: bytes = b"") -> bytes:
    """One zlib stream of `data` at `ZLIB_LEVEL` with `window` as its
    preset dictionary; an empty `window` names none, so the stream is
    the one `zlib.compress(data, ZLIB_LEVEL)` writes."""
    codec = zlib.compressobj(ZLIB_LEVEL, zdict=window)
    return codec.compress(data) + codec.flush()


def inflate(stream: bytes | memoryview, limit: int, what: str,
            window: bytes = b"") -> bytes:
    """The bytes zlib stream `stream` holds, decoded with `window` as its
    dictionary if it names one; RecoveryError naming `what` unless the
    stream passes zlib's own check, ends where `stream` ends and holds
    at most `limit` bytes, so a damaged stream never decodes to more."""
    codec = zlib.decompressobj(zdict=window)
    try:
        data = codec.decompress(stream, limit + 1)
    except zlib.error as exc:
        raise RecoveryError(f"{what} does not decode: {exc}") from None
    if len(data) > limit:
        raise RecoveryError(
            f"{what} does not decode: it holds more than {limit} bytes")
    if not codec.eof or codec.unused_data:
        raise RecoveryError(
            f"{what} does not decode: its stream does not end where its "
            f"bytes do")
    return data
