"""The UserVisits record type and its wire format.

Serialization is fixed-order and length-prefixed with little-endian
integers so that identical logical content is bit-identical across runs.
Records are slotted, and decoding shares the few distinct country codes,
language codes and visit dates between them, so that a scan's result
list stays small.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from datetime import date
from functools import lru_cache

from .errors import ValueTooLong

_U16 = struct.Struct("<H")
_DATE_REVENUE = struct.Struct("<Id")  # visit_date ordinal, ad_revenue
_I32 = struct.Struct("<i")

FIELD_LIMITS = {
    "source_ip": 16,
    "dest_url": 100,
    "user_agent": 64,
    "country_code": 3,
    "language_code": 6,
    "search_word": 32,
}


# Records decoded with an equal country code, language code or visit date
# share one object: a bounded LRU cache, which stays coherent across
# threads without a lock of ours.
SHARED_VALUES = 4096
_shared_text = lru_cache(maxsize=SHARED_VALUES)(bytes.decode)  # utf-8
_shared_date = lru_cache(maxsize=SHARED_VALUES)(date.fromordinal)


@dataclass(slots=True)
class UserVisitsRecord:
    source_ip: str
    dest_url: str
    visit_date: date
    ad_revenue: float
    user_agent: str
    country_code: str
    language_code: str
    search_word: str
    duration: int


def _pack_str(value: str, field: str | None = None) -> bytes:
    """`value`'s UTF-8 bytes after their u16 length; ValueTooLong if they
    pass the limit of record field `field`."""
    raw = value.encode("utf-8")
    if field is not None and len(raw) > FIELD_LIMITS[field]:
        raise ValueTooLong(
            f"{field} longer than {FIELD_LIMITS[field]} bytes: {value!r}")
    return _U16.pack(len(raw)) + raw


def check_field(value: str, field: str) -> None:
    """Raise ValueTooLong, as `pack_record` would, if `value` passes the
    limit of record field `field`."""
    _pack_str(value, field)


def pack_record(record: UserVisitsRecord) -> bytes:
    """The record's wire format; ValueTooLong names the first string field,
    in this order, that passes its limit in `FIELD_LIMITS`."""
    return b"".join([
        _pack_str(record.source_ip, "source_ip"),
        _pack_str(record.dest_url, "dest_url"),
        _DATE_REVENUE.pack(record.visit_date.toordinal(), record.ad_revenue),
        _pack_str(record.user_agent, "user_agent"),
        _pack_str(record.country_code, "country_code"),
        _pack_str(record.language_code, "language_code"),
        _pack_str(record.search_word, "search_word"),
        _I32.pack(record.duration),
    ])


def source_ip_prefix(source_ip: str) -> bytes:
    """The bytes that every packed record with this source_ip, its first
    field, begins with, and no other record does. It checks no limit, so
    a key too long for any record matches none."""
    return _pack_str(source_ip)


def unpack_record(raw: bytes) -> UserVisitsRecord:
    """Decode one record in a single pass; each string's u16 length sits
    just before it. Equal country codes, language codes and visit dates
    come back as one shared object (see `SHARED_VALUES`)."""
    end = 2 + (raw[0] | raw[1] << 8)
    source_ip = raw[2:end].decode()
    pos = end + 2
    end = pos + (raw[end] | raw[end + 1] << 8)
    dest_url = raw[pos:end].decode()
    ordinal, ad_revenue = _DATE_REVENUE.unpack_from(raw, end)
    end += _DATE_REVENUE.size
    pos = end + 2
    end = pos + (raw[end] | raw[end + 1] << 8)
    user_agent = raw[pos:end].decode()
    pos = end + 2
    end = pos + (raw[end] | raw[end + 1] << 8)
    country_code = _shared_text(raw[pos:end])
    pos = end + 2
    end = pos + (raw[end] | raw[end + 1] << 8)
    language_code = _shared_text(raw[pos:end])
    pos = end + 2
    end = pos + (raw[end] | raw[end + 1] << 8)
    search_word = raw[pos:end].decode()
    (duration,) = _I32.unpack_from(raw, end)
    return UserVisitsRecord(source_ip, dest_url, _shared_date(ordinal),
                            ad_revenue, user_agent, country_code,
                            language_code, search_word, duration)
