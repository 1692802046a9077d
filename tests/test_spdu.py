import random

import pytest

from oracles import (
    SPDU_CORE_FAULT_POINTS,
    CoreFaultInjector,
    FilePageStore,
    MapOracle,
    MemPageStore,
    ShadowPagedStore,
    page_header,
    random_payload_page,
    verify_page,
)
from wormdb.errors import OutOfRange
from wormdb.faults import CrashPoint
from wormdb.pagefmt import PAGE_HEADER_SIZE

PAGE = 256
TOTAL = 32


def make_store(faults=None):
    data = MemPageStore(PAGE, pages=TOTAL)
    log = MemPageStore(PAGE)
    faults = faults or CoreFaultInjector()
    store = ShadowPagedStore.create(data, log, PAGE, TOTAL, faults)
    return store


def page_with(rng):
    return random_payload_page(rng, PAGE)


def test_fresh_writes_map_to_sequential_offsets():
    store = make_store()
    rng = random.Random(0)
    pages = {pid: page_with(rng) for pid in (3, 7, 1, 9)}
    for pid in (3, 7, 1, 9):
        store.write_page(pid, pages[pid])
    assert store.log_offsets() == {3: 0, 7: 1, 1: 2, 9: 3}


def test_rewrite_overwrites_log_page_in_place():
    store = make_store()
    rng = random.Random(1)
    store.write_page(3, page_with(rng))
    store.write_page(5, page_with(rng))
    newer = page_with(rng)
    store.write_page(3, newer)
    assert store.log_offsets() == {3: 0, 5: 1}
    assert store.read_page(3)[PAGE_HEADER_SIZE:] == newer[PAGE_HEADER_SIZE:]


def test_read_paths():
    store = make_store()
    rng = random.Random(2)
    # unmodified page comes from the data file (zeros)
    assert store.read_page(4) == bytes(PAGE)
    content = page_with(rng)
    store.write_page(7, content)
    assert store.read_page(7)[PAGE_HEADER_SIZE:] == content[PAGE_HEADER_SIZE:]
    with pytest.raises(OutOfRange):
        store.read_page(TOTAL)


def test_commit_copies_back_and_reinitializes():
    store = make_store()
    rng = random.Random(3)
    pages = {pid: page_with(rng) for pid in (3, 7, 1, 9)}
    for pid, content in pages.items():
        store.write_page(pid, content)
    store.commit_transaction()
    assert store.log_offsets() == {}
    assert store.log.count() == 1  # master page only
    for pid, content in pages.items():
        got = store.read_page(pid)
        assert got[PAGE_HEADER_SIZE:] == content[PAGE_HEADER_SIZE:]
        verify_page(pid, got)
    for pid in range(TOTAL):
        if pid not in pages:
            assert store.read_page(pid) == bytes(PAGE)


def test_commit_empty_is_noop_on_data():
    store = make_store()
    before = [store.data.read(i) for i in range(TOTAL)]
    store.commit_transaction()
    assert [store.data.read(i) for i in range(TOTAL)] == before


def test_post_commit_idempotent():
    store = make_store()
    rng = random.Random(4)
    for pid in (3, 7, 1, 9):
        store.write_page(pid, page_with(rng))
    store.log.sync()
    store.post_commit()
    first = [store.data.read(i) for i in range(TOTAL)]
    for _ in range(4):
        store.post_commit()
    assert [store.data.read(i) for i in range(TOTAL)] == first


def test_abort_restores_pre_transaction_reads():
    store = make_store()
    rng = random.Random(5)
    committed = page_with(rng)
    store.write_page(2, committed)
    store.commit_transaction()
    store.write_page(2, page_with(rng))
    store.write_page(6, page_with(rng))
    store.abort_transaction()
    assert store.read_page(2)[PAGE_HEADER_SIZE:] == \
        committed[PAGE_HEADER_SIZE:]
    assert store.read_page(6) == bytes(PAGE)
    # fresh log offsets start at 0 again
    store.write_page(8, page_with(rng))
    assert store.log_offsets() == {8: 0}


def test_abort_with_no_writes_is_noop():
    store = make_store()
    store.abort_transaction()
    assert store.log.count() == 1


def test_clean_restart_preserves_state():
    store = make_store()
    rng = random.Random(6)
    content = page_with(rng)
    store.write_page(1, content)
    store.commit_transaction()
    assert store.restart_system() == "clean"
    assert store.read_page(1)[PAGE_HEADER_SIZE:] == content[PAGE_HEADER_SIZE:]


def test_restart_over_an_uncommitted_page_rolls_back():
    store = make_store()
    rng = random.Random(6)
    committed, uncommitted = page_with(rng), page_with(rng)
    store.write_page(1, committed)
    store.commit_transaction()
    store.write_page(1, uncommitted)
    assert store.restart_system() == "rollback"
    assert store.log.count() == 1
    assert store.read_page(1)[PAGE_HEADER_SIZE:] == \
        committed[PAGE_HEADER_SIZE:]
    assert store.restart_system() == "clean"


def test_log_page_headers_support_rebuild():
    store = make_store()
    rng = random.Random(7)
    for pid in (9, 2, 5):
        store.write_page(pid, page_with(rng))
    for pid, offset in store.log_offsets().items():
        page = store.log.read(offset + 1)
        assert page_header(page)[0] == pid
        verify_page(pid, page)


def run_with_crash(seed: int, point: str, skip: int = 0):
    """Run a seeded two-transaction workload, crash at `point`, recover.

    Returns (store, oracle_pre, oracle_post) where the oracles are the
    committed map states before and after the interrupted commit.
    """
    faults = CoreFaultInjector()
    data = MemPageStore(PAGE, pages=TOTAL)
    log = MemPageStore(PAGE)
    store = ShadowPagedStore.create(data, log, PAGE, TOTAL, faults)
    oracle = MapOracle(PAGE, TOTAL)
    rng = random.Random(seed)

    # transaction 1 commits cleanly
    for _ in range(6):
        pid = rng.randrange(TOTAL)
        content = page_with(rng)
        store.write_page(pid, content)
        oracle.write(pid, content)
    store.commit_transaction()
    oracle.commit()
    pre = oracle.committed_state()

    # transaction 2 crashes somewhere inside commit
    for _ in range(6):
        pid = rng.randrange(TOTAL)
        content = page_with(rng)
        store.write_page(pid, content)
        oracle.write(pid, content)
    oracle.commit()
    post = oracle.committed_state()

    faults.arm(point, skip=skip)
    crashed = False
    try:
        store.commit_transaction()
    except CrashPoint:
        crashed = True
        data.crash()
        log.crash()
    assert crashed, f"fault point {point} never fired"
    recovered = ShadowPagedStore(data, log, PAGE, TOTAL)
    recovered.restart_system()
    return recovered, pre, post


def read_state(store):
    return {pid: store.read_page(pid) for pid in range(TOTAL)
            if store.read_page(pid) != bytes(PAGE)}


def expand(state, page_size=PAGE, total=TOTAL):
    return {pid: state.get(pid, bytes(page_size)) for pid in range(total)}


COMMIT_POINTS = [p for p in SPDU_CORE_FAULT_POINTS if p.startswith("core.commit")] + \
    ["core.post_commit.page_copied"]


@pytest.mark.parametrize("point", COMMIT_POINTS)
def test_crash_point_lands_on_pre_or_post_state(point):
    for seed in range(5):
        store, pre, post = run_with_crash(seed, point)
        visible = expand(read_state(store))
        # atomicity boundary: durability of the commit flag decides
        if point in ("core.commit.after_log_sync", "core.commit.before_flag_set"):
            assert visible == expand(pre), (point, seed)
        else:
            assert visible == expand(post), (point, seed)


def test_double_crash_during_restart_still_recovers():
    faults = CoreFaultInjector()
    data = MemPageStore(PAGE, pages=TOTAL)
    log = MemPageStore(PAGE)
    store = ShadowPagedStore.create(data, log, PAGE, TOTAL, faults)
    oracle = MapOracle(PAGE, TOTAL)
    rng = random.Random(11)
    for _ in range(8):
        pid = rng.randrange(TOTAL)
        content = page_with(rng)
        store.write_page(pid, content)
        oracle.write(pid, content)
    oracle.commit()
    faults.arm("core.commit.after_flag_set")
    with pytest.raises(CrashPoint):
        store.commit_transaction()
    data.crash()
    log.crash()

    # crash again in the middle of restart's redo
    second = ShadowPagedStore(data, log, PAGE, TOTAL, faults)
    faults.arm("core.post_commit.page_copied", skip=3)
    with pytest.raises(CrashPoint):
        second.restart_system()
    data.crash()
    log.crash()

    third = ShadowPagedStore(data, log, PAGE, TOTAL)
    assert third.restart_system() == "redo"
    for pid, content in oracle.committed_state().items():
        assert third.read_page(pid) == content


def test_oracle_equivalence_randomized():
    for seed in range(20):
        rng = random.Random(seed)
        store = make_store()
        oracle = MapOracle(PAGE, TOTAL)
        for _ in range(200):
            op = rng.random()
            if op < 0.6:
                pid = rng.randrange(TOTAL)
                content = page_with(rng)
                store.write_page(pid, content)
                oracle.write(pid, content)
            elif op < 0.8:
                pid = rng.randrange(TOTAL)
                assert store.read_page(pid) == oracle.read(pid), seed
            elif op < 0.9:
                store.commit_transaction()
                oracle.commit()
            else:
                store.abort_transaction()
                oracle.abort()
        for pid in range(TOTAL):
            assert store.read_page(pid) == oracle.read(pid), seed


def test_file_page_store_round_trip(tmp_path):
    path = str(tmp_path / "data.pg")
    store = FilePageStore(path, PAGE, pages=4)
    content = random.Random(8).randbytes(PAGE)
    store.write(2, content)
    store.sync()
    store.close()
    reopened = FilePageStore(path, PAGE)
    assert reopened.count() == 4
    assert reopened.read(2) == content
    assert reopened.read(1) == bytes(PAGE)
    reopened.truncate(2)
    assert reopened.count() == 2
    reopened.close()
