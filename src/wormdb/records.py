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


# Each limit bound once, for `pack_record`'s one test of all six fields.
_SOURCE_IP_MAX = FIELD_LIMITS["source_ip"]
_DEST_URL_MAX = FIELD_LIMITS["dest_url"]
_USER_AGENT_MAX = FIELD_LIMITS["user_agent"]
_COUNTRY_CODE_MAX = FIELD_LIMITS["country_code"]
_LANGUAGE_CODE_MAX = FIELD_LIMITS["language_code"]
_SEARCH_WORD_MAX = FIELD_LIMITS["search_word"]
# the u16 length prefix of every string length a record field may hold
_LENGTH_PREFIX = [_U16.pack(n)
                  for n in range(max(FIELD_LIMITS.values()) + 1)]


def check_field(value: str, field: str) -> None:
    """Raise ValueTooLong, as `pack_record` would, if `value`'s UTF-8
    bytes pass the limit of record field `field`."""
    if len(value.encode("utf-8")) > FIELD_LIMITS[field]:
        raise ValueTooLong(
            f"{field} longer than {FIELD_LIMITS[field]} bytes: {value!r}")


def pack_record(record: UserVisitsRecord) -> bytes:
    """The record's wire format; ValueTooLong names the first string field,
    in this order, that passes its limit in `FIELD_LIMITS`.

    Each string is encoded once and the six lengths are tested together;
    only a record that fails the test is checked field by field."""
    source_ip = record.source_ip.encode("utf-8")
    dest_url = record.dest_url.encode("utf-8")
    user_agent = record.user_agent.encode("utf-8")
    country_code = record.country_code.encode("utf-8")
    language_code = record.language_code.encode("utf-8")
    search_word = record.search_word.encode("utf-8")
    if (len(source_ip) > _SOURCE_IP_MAX or len(dest_url) > _DEST_URL_MAX
            or len(user_agent) > _USER_AGENT_MAX
            or len(country_code) > _COUNTRY_CODE_MAX
            or len(language_code) > _LANGUAGE_CODE_MAX
            or len(search_word) > _SEARCH_WORD_MAX):
        for field in FIELD_LIMITS:
            check_field(getattr(record, field), field)
    prefix = _LENGTH_PREFIX
    return b"".join((
        prefix[len(source_ip)], source_ip,
        prefix[len(dest_url)], dest_url,
        _DATE_REVENUE.pack(record.visit_date.toordinal(), record.ad_revenue),
        prefix[len(user_agent)], user_agent,
        prefix[len(country_code)], country_code,
        prefix[len(language_code)], language_code,
        prefix[len(search_word)], search_word,
        _I32.pack(record.duration),
    ))


def source_ip_prefix(source_ip: str) -> bytes:
    """The bytes that every packed record with this source_ip, its first
    field, begins with, and no other record does. It checks no limit, so
    a key too long for any record matches none."""
    raw = source_ip.encode("utf-8")
    return _U16.pack(len(raw)) + raw


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
