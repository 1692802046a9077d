"""Slotted heap pages.

A slotted page lives in the application area of a page (after the 8-byte
recovery header): a 4-byte page header (slot count, data start), a slot
directory growing upward, and record payloads packed downward from the
page end. An all-zero page reads as an empty page.

A slot is its record's 2-byte offset alone. Records lie contiguously
below the page end in slot order, so a record ends where the record of
the slot before it starts, and slot 0's at the page end. `extend` keeps
them so, and `replace` either writes a record of the same length over
the old one or rebuilds the page through `extend`. `spans` reads every
record's bounds from one unpack of the directory, which is how scans
walk a page.

`extend` adds a run of records with one copy of their payloads, one
pack of their slots and one header store, and builds the very bytes that
`try_insert` of each in turn would. The engine keeps the heap's open tail
as records not yet on their page, and extends the page with them when it
fills, before anything reads it, and at commit.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from itertools import accumulate
from operator import sub

from .errors import RecordTooLarge
from .pagefmt import PAGE_HEADER_SIZE

_PAGE_HDR = struct.Struct("<HH")  # slot count, data region start
_SLOT = struct.Struct("<H")       # record offset
_SLOT_PAIR = struct.Struct("<HH")  # the slot before a slot, then the slot
_HDR_AT = PAGE_HEADER_SIZE
_SLOTS_AT = PAGE_HEADER_SIZE + _PAGE_HDR.size
SLOT_SIZE = _SLOT.size  # the page bytes a record takes beyond its own


def empty_free_space(page_size: int) -> int:
    """The free bytes of an empty page of `page_size` bytes, as
    `SlottedPage.free_space` reads them."""
    return page_size - _SLOTS_AT


class SlottedPage:
    """View over one page buffer; mutations write through to the buffer."""

    def __init__(self, buf: bytearray):
        self.buf = buf
        count, data_start = _PAGE_HDR.unpack_from(buf, _HDR_AT)
        if count == 0 and data_start == 0:
            data_start = len(buf)  # fresh (all-zero) page
        self.count = count
        self.data_start = data_start

    def _store_header(self) -> None:
        _PAGE_HDR.pack_into(self.buf, _HDR_AT, self.count, self.data_start)

    def free_space(self) -> int:
        return self.data_start - (_SLOTS_AT + SLOT_SIZE * self.count)

    def try_insert(self, record: bytes) -> int | None:
        """Add a record; returns its slot, or None if it does not fit."""
        if len(record) + SLOT_SIZE > self.free_space():
            return None
        self.extend([record])
        return self.count - 1

    def extend(self, records: list[bytes]) -> None:
        """Add `records` in order, to the slots and bytes successive
        `try_insert` calls would give them; RecordTooLarge, with the page
        unchanged, if they do not all fit."""
        if not records:
            return
        lengths = [len(record) for record in records]
        data = b"".join(reversed(records))
        if len(data) + SLOT_SIZE * len(records) > self.free_space():
            raise RecordTooLarge(
                f"{len(records)} records of {len(data)} bytes do not fit "
                f"in the page's {self.free_space()} free bytes")
        offsets = accumulate(lengths, sub, initial=self.data_start)
        next(offsets)
        start = _SLOTS_AT + SLOT_SIZE * self.count
        directory = struct.pack(f"<{len(records)}H", *offsets)
        self.buf[start:start + len(directory)] = directory
        self.data_start -= len(data)
        self.buf[self.data_start:self.data_start + len(data)] = data
        self.count += len(records)
        self._store_header()

    def _span(self, slot: int) -> tuple[int, int]:
        """(start, end) of the record in `slot`."""
        if not 0 <= slot < self.count:
            raise IndexError(f"slot {slot} of {self.count}")
        at = _SLOTS_AT + SLOT_SIZE * slot
        if slot:
            end, start = _SLOT_PAIR.unpack_from(self.buf, at - SLOT_SIZE)
            return start, end
        return _SLOT.unpack_from(self.buf, at)[0], len(self.buf)

    def spans(self) -> Iterator[tuple[int, int]]:
        """(start, end) of each record, in slot order, from one unpack of
        the slot directory."""
        offsets = struct.unpack_from(f"<{self.count}H", self.buf, _SLOTS_AT)
        return zip(offsets, (len(self.buf),) + offsets)

    def record(self, slot: int) -> bytes:
        start, end = self._span(slot)
        return bytes(self.buf[start:end])

    def slots_with_prefix(self, prefix: bytes) -> list[int]:
        """The slots whose record begins with `prefix`, tested in the page
        buffer, so no record is copied."""
        buf = self.buf
        return [slot for slot, (start, end) in enumerate(self.spans())
                if buf.startswith(prefix, start, end)]

    def records(self) -> list[bytes]:
        return [self.record(slot) for slot in range(self.count)]

    def replace(self, slot: int, record: bytes) -> None:
        """Rewrite one record: over the old one if it has the same length,
        else by compacting the page. Raises RecordTooLarge if the new
        version does not fit even after compaction. A page built by
        inserts comes out as inserts of its new records would build it,
        either way."""
        start, end = self._span(slot)
        if len(record) == end - start:
            self.buf[start:end] = record
            return
        contents = self.records()
        contents[slot] = record
        total = sum(len(r) for r in contents)
        used = _SLOTS_AT + SLOT_SIZE * len(contents) + total
        if used > len(self.buf):
            raise RecordTooLarge(
                f"record of {len(record)} bytes does not fit in page")
        self.buf[_HDR_AT:] = bytes(len(self.buf) - _HDR_AT)
        self.count = 0
        self.data_start = len(self.buf)
        self.extend(contents)
