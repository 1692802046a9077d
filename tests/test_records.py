"""The record codec against the reference decoder and encoder in
`oracles`."""

import math
import struct
import sys
import threading
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_pack_record, reference_unpack_record
from wormdb import records
from wormdb.errors import ValueTooLong
from wormdb.records import (
    FIELD_LIMITS,
    UserVisitsRecord,
    pack_record,
    source_ip_prefix,
    unpack_record,
)


def clip(text: str, limit: int) -> str:
    """`text` cut to at most `limit` UTF-8 bytes, at a character."""
    while len(text.encode("utf-8")) > limit:
        text = text[:-1]
    return text


def field_text(name: str):
    return st.text(st.characters(codec="utf-8"),
                   max_size=FIELD_LIMITS[name]).map(
        lambda text: clip(text, FIELD_LIMITS[name]))


RECORDS = st.builds(
    UserVisitsRecord,
    source_ip=field_text("source_ip"),
    dest_url=field_text("dest_url"),
    visit_date=st.dates(),
    ad_revenue=st.floats(allow_nan=False),
    user_agent=field_text("user_agent"),
    country_code=field_text("country_code"),
    language_code=field_text("language_code"),
    search_word=field_text("search_word"),
    duration=st.integers(-2 ** 31, 2 ** 31 - 1),
)

EMPTY = UserVisitsRecord("", "", date.min, 0.0, "", "", "", "", 0)
# every text field at its byte limit in characters of 2, 3 and 4 bytes
AT_LIMITS = UserVisitsRecord(
    source_ip="é" * 8,
    dest_url="€" * 33 + "a",
    visit_date=date.max,
    ad_revenue=-0.0,
    user_agent="😀" * 16,
    country_code="€",
    language_code="😀é",
    search_word="😀" * 8,
    duration=-2 ** 31,
)


def sample(i=0, **changes):
    record = UserVisitsRecord(
        source_ip=f"10.0.0.{i}",
        dest_url=f"http://example.com/{i}",
        visit_date=date(2001, 3, 14),
        ad_revenue=1.5,
        user_agent="agent",
        country_code="KOR",
        language_code="ko",
        search_word=f"w{i}",
        duration=i,
    )
    return replace(record, **changes)


@settings(max_examples=300, deadline=None)
@given(RECORDS)
@example(EMPTY)
@example(AT_LIMITS)
@example(replace(EMPTY, ad_revenue=math.inf, duration=2 ** 31 - 1))
@example(replace(EMPTY, ad_revenue=-math.inf, duration=-1))
def test_round_trip_matches_the_reference_decoder(record):
    raw = pack_record(record)
    decoded = unpack_record(raw)
    assert decoded == record
    assert decoded == reference_unpack_record(raw)
    # bit for bit, so -0.0 keeps its sign
    assert pack_record(decoded) == raw


@settings(max_examples=300, deadline=None)
@given(RECORDS)
@example(EMPTY)
@example(AT_LIMITS)
def test_pack_record_matches_the_reference_encoder(record):
    assert pack_record(record) == reference_pack_record(record)


def too_long(value: str, field: str, extra: str) -> str:
    """`value` with `extra` repeated until it passes `field`'s limit."""
    while len(value.encode("utf-8")) <= FIELD_LIMITS[field]:
        value += extra
    return value


@settings(max_examples=200, deadline=None)
@given(RECORDS, st.sets(st.sampled_from(list(FIELD_LIMITS)), min_size=1),
       st.characters(codec="utf-8"))
@example(EMPTY, set(FIELD_LIMITS), "a")
@example(AT_LIMITS, {"search_word"}, "é")
def test_over_limit_fields_are_refused_as_the_reference_refuses_them(
        record, fields, extra):
    """With any set of fields past their limits, the encoder names the
    first of them in field order, as the field-by-field reference does,
    in the same words."""
    record = replace(record, **{field: too_long(getattr(record, field),
                                                field, extra)
                                for field in fields})
    with pytest.raises(ValueTooLong) as packed:
        pack_record(record)
    with pytest.raises(ValueTooLong) as reference:
        reference_pack_record(record)
    first = next(field for field in FIELD_LIMITS if field in fields)
    assert str(packed.value) == str(reference.value)
    assert str(packed.value).startswith(f"{first} longer than ")


def test_at_limits_uses_each_bound_exactly():
    for name, limit in FIELD_LIMITS.items():
        assert len(getattr(AT_LIMITS, name).encode("utf-8")) == limit
        with pytest.raises(ValueTooLong, match=f"^{name} longer than "
                           f"{limit} bytes"):
            pack_record(replace(AT_LIMITS,
                                **{name: getattr(AT_LIMITS, name) + "a"}))
    # with two fields too long, the first in pack order is reported
    names = list(FIELD_LIMITS)
    for first, second in zip(names, names[1:]):
        too_long = {name: getattr(AT_LIMITS, name) + "a"
                    for name in (first, second)}
        with pytest.raises(ValueTooLong, match=f"^{first} longer"):
            pack_record(replace(AT_LIMITS, **too_long))


def test_extreme_revenue_and_duration_survive():
    extremes = (-0.0, math.inf, -math.inf, 5e-324, -1.7976931348623157e308)
    for revenue in extremes:
        for duration in (-2 ** 31, -1, 0, 2 ** 31 - 1):
            record = sample(ad_revenue=revenue, duration=duration)
            decoded = unpack_record(pack_record(record))
            assert struct.pack("<d", decoded.ad_revenue) == \
                struct.pack("<d", revenue)
            assert decoded.duration == duration


def test_records_share_equal_values_but_stay_independent():
    a, b, c = (unpack_record(pack_record(sample(i))) for i in range(3))
    assert a.country_code is b.country_code
    assert a.language_code is b.language_code
    assert a.visit_date is b.visit_date
    a.country_code = "USA"
    a.language_code = "en"
    a.visit_date = date(2020, 1, 1)
    assert (b.country_code, b.language_code, b.visit_date) == \
        ("KOR", "ko", date(2001, 3, 14))
    assert c == sample(2)
    assert unpack_record(pack_record(sample(3))) == sample(3)


def test_shared_values_are_bounded():
    for day in range(records.SHARED_VALUES + 10):
        record = sample(visit_date=date.fromordinal(730_000 + day))
        assert unpack_record(pack_record(record)) == record
    assert records._shared_date.cache_info().currsize == records.SHARED_VALUES


def test_threads_decoding_through_a_churning_cache_get_equal_records():
    """Threads decode records with more distinct dates and codes than the
    shared-value caches hold, so each evicts entries others just added."""
    raws = [pack_record(sample(i, visit_date=date.fromordinal(700_000 + i),
                               country_code=str(i % 997)))
            for i in range(records.SHARED_VALUES + 500)]
    errors = []

    def decode(start):
        for raw in raws[start:] + raws[:start]:
            if unpack_record(raw) != reference_unpack_record(raw):
                errors.append(raw)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode, args=(i * 613,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for cache in (records._shared_text, records._shared_date):
        assert cache.cache_info().currsize <= records.SHARED_VALUES


def test_a_record_has_no_instance_dict():
    with pytest.raises(AttributeError):
        sample().undeclared = 1


@settings(max_examples=100, deadline=None)
@given(RECORDS, field_text("source_ip"))
def test_source_ip_prefix_matches_exactly_the_equal_keys(record, key):
    raw = pack_record(record)
    assert raw.startswith(source_ip_prefix(record.source_ip))
    assert raw.startswith(source_ip_prefix(key)) == (record.source_ip == key)
