import random
import struct
import zlib
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import page_header, reference_insert, verify_page
from wormdb.errors import RecordTooLarge, ValueTooLong
from wormdb.pagefmt import PAGE_HEADER_SIZE, stamp_page
from wormdb.pages import SlottedPage, empty_free_space
from wormdb.records import UserVisitsRecord, pack_record, unpack_record

PAGE = 1024


def sample_record(i=0):
    return UserVisitsRecord(
        source_ip=f"10.0.{i}.{i}",
        dest_url=f"http://example.com/{i}",
        visit_date=date(2001, 3, 14),
        ad_revenue=12.5 + i,
        user_agent="Mozilla/5.0 (test)",
        country_code="KOR",
        language_code="ko",
        search_word=f"word{i}",
        duration=100 + i,
    )


def test_record_round_trip():
    rec = sample_record(3)
    assert unpack_record(pack_record(rec)) == rec


def test_record_length_bounds():
    rec = sample_record()
    rec.country_code = "TOOLONG"
    with pytest.raises(ValueTooLong):
        pack_record(rec)
    rec = sample_record()
    rec.dest_url = "x" * 101
    with pytest.raises(ValueTooLong):
        pack_record(rec)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_record_round_trip_randomized(seed):
    rng = random.Random(seed)
    rec = UserVisitsRecord(
        source_ip=".".join(str(rng.randrange(256)) for _ in range(4)),
        dest_url="http://" + "a" * rng.randrange(0, 90),
        visit_date=date.fromordinal(rng.randrange(700000, 800000)),
        ad_revenue=rng.uniform(0, 1e6),
        user_agent="UA " + "u" * rng.randrange(0, 60),
        country_code="ABC"[:rng.randrange(1, 4)],
        language_code="lang"[:rng.randrange(1, 5)],
        search_word="s" * rng.randrange(0, 32),
        duration=rng.randrange(-2 ** 31, 2 ** 31),
    )
    assert unpack_record(pack_record(rec)) == rec


def test_slotted_page_insert_and_read():
    buf = bytearray(PAGE)
    page = SlottedPage(buf)
    recs = [pack_record(sample_record(i)) for i in range(5)]
    slots = [page.try_insert(r) for r in recs]
    assert slots == [0, 1, 2, 3, 4]
    # reload from the raw buffer
    reloaded = SlottedPage(buf)
    assert reloaded.records() == recs
    assert reloaded.record(2) == recs[2]


def test_slotted_page_fills_up():
    page = SlottedPage(bytearray(PAGE))
    rec = b"r" * 100
    count = 0
    while page.try_insert(rec) is not None:
        count += 1
    assert count == (PAGE - PAGE_HEADER_SIZE - 4) // (100 + 4)
    assert page.free_space() < 104


@pytest.mark.parametrize("page_size", [368, 512, 4096])
def test_empty_free_space_is_a_fresh_pages(page_size):
    assert empty_free_space(page_size) == \
        SlottedPage(bytearray(page_size)).free_space()


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_stamp_page_fills_in_the_header_and_leaves_the_payload(kind):
    """The stamped page is the 8-byte recovery header (pageid, then the
    payload's crc32) and the payload as it was, whatever the header area
    of the page handed in holds; that page is left as it was, and a
    bytearray can still be resized."""
    rng = random.Random(5)
    page = kind(rng.randbytes(PAGE))
    stamped = stamp_page(9, page)
    assert type(stamped) is bytes
    assert PAGE_HEADER_SIZE == 8
    assert stamped == struct.pack(
        "<II", 9, zlib.crc32(page[PAGE_HEADER_SIZE:])) + \
        bytes(page[PAGE_HEADER_SIZE:])
    verify_page(9, stamped)
    assert page_header(stamped) == (9, zlib.crc32(page[PAGE_HEADER_SIZE:]))
    if kind is bytearray:
        page.append(0)


def test_slotted_page_never_touches_recovery_header():
    buf = bytearray(PAGE)
    page = SlottedPage(buf)
    while page.try_insert(b"z" * 50) is not None:
        pass
    assert buf[:PAGE_HEADER_SIZE] == bytes(PAGE_HEADER_SIZE)


def test_replace_same_size_and_larger():
    buf = bytearray(PAGE)
    page = SlottedPage(buf)
    for i in range(4):
        page.try_insert(bytes([i]) * 64)
    page.replace(1, b"\xaa" * 64)
    assert page.record(1) == b"\xaa" * 64
    assert page.record(0) == bytes([0]) * 64
    page.replace(2, b"\xbb" * 80)  # grows, compaction handles it
    assert page.record(2) == b"\xbb" * 80
    assert page.count == 4


def test_replace_overflow_raises():
    page = SlottedPage(bytearray(PAGE))
    page.try_insert(b"a" * 900)
    with pytest.raises(RecordTooLarge):
        page.replace(0, b"b" * 1100)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=120), max_size=30))
def test_slotted_page_matches_list_model(items):
    page = SlottedPage(bytearray(PAGE))
    model = []
    for item in items:
        slot = page.try_insert(item)
        if slot is None:
            break
        model.append(item)
    assert page.records() == model


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=40), max_size=30),
       st.binary(min_size=0, max_size=4))
def test_slots_with_prefix_match_the_copied_records(items, prefix):
    """Tested in the buffer at each slot's offset, a prefix matches
    exactly the records whose copies begin with it; a prefix longer than
    a record never matches it, though the bytes after the record do."""
    page = SlottedPage(bytearray(PAGE))
    for item in items:
        if page.try_insert(item) is None:
            break
    assert page.slots_with_prefix(prefix) == [
        slot for slot in range(page.count)
        if page.record(slot).startswith(prefix)]


def _built_by_inserts(records):
    buf = bytearray(PAGE)
    for record in records:
        assert reference_insert(buf, record) is not None
    return buf


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=120), max_size=12),
       st.lists(st.binary(max_size=120), max_size=20))
def test_extend_builds_the_page_one_insert_at_a_time_would(held, added):
    """On a zero page and on one that already holds records, `extend`
    with the records that fit leaves the bytes that inserting them one at
    a time does, and so does `try_insert`; with one more that does not
    fit, it refuses them all and leaves the page as it was."""
    base = bytearray(PAGE)
    held = [record for record in held
            if reference_insert(base, record) is not None]
    reference = bytearray(base)
    fitting = []
    for record in added:
        if reference_insert(reference, record) is None:
            break
        fitting.append(record)
    page = SlottedPage(bytearray(base))
    page.extend(fitting)
    assert page.buf == reference
    assert (page.count, page.records()) == \
        (len(held) + len(fitting), held + fitting)
    assert SlottedPage(page.buf).free_space() == page.free_space()
    one_at_a_time = SlottedPage(bytearray(base))
    assert [one_at_a_time.try_insert(record) for record in fitting] == \
        list(range(len(held), len(held) + len(fitting)))
    assert one_at_a_time.buf == reference
    if len(fitting) < len(added):
        refused = SlottedPage(bytearray(base))
        with pytest.raises(RecordTooLarge):
            refused.extend(added[:len(fitting) + 1])
        assert (refused.buf, refused.count) == (base, len(held))


@pytest.mark.parametrize("length", [64, 40, 80],
                         ids=["same length", "shorter", "longer"])
def test_replace_gives_the_bytes_inserts_would(monkeypatch, length):
    """A replace of a record on a page built by inserts leaves the bytes
    that inserts of the new records build. A record of the same length is
    written over the old one, copying no other record; one of a new
    length compacts the page, which copies every record."""
    records = [bytes([i]) * 64 for i in range(4)]
    page = SlottedPage(_built_by_inserts(records))
    copies = []
    record = SlottedPage.record

    def counted(self, slot):
        copies.append(slot)
        return record(self, slot)

    monkeypatch.setattr(SlottedPage, "record", counted)
    page.replace(2, b"\xaa" * length)
    records[2] = b"\xaa" * length
    assert copies == ([] if length == 64 else [0, 1, 2, 3])
    assert page.buf == _built_by_inserts(records)
    assert SlottedPage(page.buf).records() == records


def test_replace_refuses_a_slot_past_the_end():
    page = SlottedPage(_built_by_inserts([b"a" * 8]))
    for slot in (1, -1):
        with pytest.raises(IndexError):
            page.replace(slot, b"b" * 8)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([512, 4096]), st.data())
def test_derived_lengths_hold_under_any_mix_of_extends_and_replaces(
        page_size, data):
    """A slot holds only its record's offset, so a record's length is
    read from its neighbour's offset. Under any mix of `extend` and
    `replace` (of the same, a shorter and a longer length), every slot
    reads back its record, `free_space` is the page less its headers,
    2 bytes a slot and the payloads, and each `extend` builds the bytes
    that `try_insert` of its records in turn builds. A call that does
    not fit raises RecordTooLarge and leaves the page as it was."""
    largest = page_size // 6
    record = st.binary(max_size=largest)
    page = SlottedPage(bytearray(page_size))
    model: list[bytes] = []
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        before = bytes(page.buf)
        if not model or data.draw(st.booleans(), label="extend"):
            records = data.draw(st.lists(record, max_size=8), label="run")
            inserted = SlottedPage(bytearray(before))
            slots = [inserted.try_insert(r) for r in records]
            if None in slots:
                with pytest.raises(RecordTooLarge):
                    page.extend(records)
                assert page.buf == before
            else:
                page.extend(records)
                assert page.buf == inserted.buf
                assert slots == list(range(len(model),
                                           len(model) + len(records)))
                model += records
        else:
            slot = data.draw(st.integers(0, len(model) - 1), label="slot")
            length = len(model[slot]) + data.draw(st.sampled_from(
                [0, -min(len(model[slot]), 7), 9]), label="change")
            new = data.draw(st.binary(min_size=length, max_size=length),
                            label="record")
            try:
                page.replace(slot, new)
            except RecordTooLarge:
                assert length > len(model[slot]) and page.buf == before
            else:
                model[slot] = new
        reloaded = SlottedPage(page.buf)
        assert [reloaded.record(slot) for slot in range(len(model))] == \
            [bytes(page.buf[start:end]) for start, end in page.spans()] == \
            model
        assert page.free_space() == reloaded.free_space() == page_size - \
            PAGE_HEADER_SIZE - 4 - 2 * len(model) - sum(map(len, model))
