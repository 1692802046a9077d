import random
import sys
import threading
import time

import pytest

from wormdb.errors import NotGranted, ServiceShutdown, UnknownLock, UpgradeConflict
from wormdb.locks import GRANTED, READ, WAITING, WRITE, LockService

from lock_harness import RecordingLockService, check_history

DB = "db/data"


def request_async(service, lock_type, owner, results, key):
    def run():
        try:
            results[key] = service.request_lock(DB, lock_type, owner)
        except Exception as exc:  # noqa: BLE001
            results[key] = exc
    t = threading.Thread(target=run)
    t.start()
    return t


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


def test_read_granted_on_empty_queue():
    service = LockService()
    lockid = service.request_lock(DB, READ, "a")
    assert lockid == 1
    snap = service.snapshot(DB)
    assert len(snap) == 1 and snap[0].state == GRANTED


def test_read_waits_behind_earlier_write():
    service = LockService()
    w = service.request_lock(DB, WRITE, "a")
    results = {}
    t = request_async(service, READ, "b", results, "r")
    assert wait_for(lambda: any(n.state == WAITING for n in service.snapshot(DB)))
    assert "r" not in results
    service.release_lock(DB, w)
    t.join(timeout=5)
    assert results["r"] == 2
    service.release_lock(DB, results["r"])
    assert service.snapshot(DB) == []


def test_later_read_waits_behind_waiting_write():
    """Reads 1,2 granted; write 3 waits; read 4 queues behind write 3."""
    service = LockService()
    r1 = service.request_lock(DB, READ, "a")
    r2 = service.request_lock(DB, READ, "b")
    results = {}
    tw = request_async(service, WRITE, "c", results, "w")
    assert wait_for(lambda: len(service.snapshot(DB)) == 3)
    tr = request_async(service, READ, "d", results, "r4")
    assert wait_for(lambda: len(service.snapshot(DB)) == 4)
    # neither the write nor the late read is granted yet
    states = {n.lockid: n.state for n in service.snapshot(DB)}
    assert states[3] == WAITING and states[4] == WAITING
    service.release_lock(DB, r1)
    service.release_lock(DB, r2)
    tw.join(timeout=5)
    assert results["w"] == 3
    # read 4 still waits while the write holds
    time.sleep(0.01)
    assert "r4" not in results
    service.release_lock(DB, 3)
    tr.join(timeout=5)
    assert results["r4"] == 4
    service.release_lock(DB, 4)


def test_release_read_does_not_unblock_write_behind_other_read():
    service = LockService()
    r1 = service.request_lock(DB, READ, "a")
    r2 = service.request_lock(DB, READ, "b")
    results = {}
    t = request_async(service, WRITE, "c", results, "w")
    assert wait_for(lambda: len(service.snapshot(DB)) == 3)
    service.release_lock(DB, r2)
    time.sleep(0.01)
    assert "w" not in results
    service.release_lock(DB, r1)
    t.join(timeout=5)
    assert results["w"] == 3


def test_upgrade_same_owner_read_is_exempt():
    service = LockService()
    r = service.request_lock(DB, READ, "a")
    w = service.request_lock(DB, WRITE, "a")  # granted despite own read
    snap = service.snapshot(DB)
    assert [n.state for n in snap] == [GRANTED, GRANTED]
    service.release_lock(DB, w)
    service.release_lock(DB, r)


def test_colliding_upgraders_get_conflict():
    service = LockService()
    service.request_lock(DB, READ, "a")
    service.request_lock(DB, READ, "b")
    results = {}
    t = request_async(service, WRITE, "a", results, "wa")
    assert wait_for(
        lambda: any(n.lockid == 3 for n in service.snapshot(DB)))
    with pytest.raises(UpgradeConflict):
        service.request_lock(DB, WRITE, "b")
    # the older upgrader proceeds once the failed owner backs off its read
    service.release_lock(DB, 2)
    t.join(timeout=5)
    assert results["wa"] == 3


def test_read_behind_a_write_that_waits_on_its_owner_fails_at_once():
    """a holds read 1 and b's write 2 waits on it: a's read 3 would wait
    on write 2, so on a itself. Read 3 fails in its own call, and b's
    write, which closes no cycle, keeps waiting and is granted later."""
    service = RecordingLockService()
    r1 = service.request_lock(DB, READ, "a")
    results = {}
    t = request_async(service, WRITE, "b", results, "w")
    assert wait_for(lambda: len(service.snapshot(DB)) == 2)
    with pytest.raises(UpgradeConflict, match="read 3"):
        service.request_lock(DB, READ, "a")
    assert [(n.lockid, n.state) for n in service.snapshot(DB)] == \
        [(1, GRANTED), (2, WAITING)]
    assert ("conflict", DB, 3, READ, "a") in service.history
    assert "w" not in results
    service.release_lock(DB, r1)
    t.join(timeout=5)
    assert results["w"] == 2
    service.release_lock(DB, 2)
    check_history(service.history)


def test_release_errors():
    service = LockService()
    with pytest.raises(UnknownLock):
        service.release_lock(DB, 1)
    service.request_lock(DB, WRITE, "a")
    results = {}
    request_async(service, WRITE, "b", results, "w")
    assert wait_for(lambda: len(service.snapshot(DB)) == 2)
    with pytest.raises(NotGranted):
        service.release_lock(DB, 2)
    service.shutdown()


def test_snapshot_empty_db():
    service = LockService()
    assert service.snapshot("nothing") == []


def test_shutdown_wakes_waiters():
    service = LockService()
    service.request_lock(DB, WRITE, "a")
    results = {}
    t = request_async(service, WRITE, "b", results, "w")
    assert wait_for(lambda: len(service.snapshot(DB)) == 2)
    service.shutdown()
    t.join(timeout=5)
    assert isinstance(results["w"], ServiceShutdown)
    with pytest.raises(ServiceShutdown):
        service.request_lock(DB, READ, "c")


def test_randomized_soak_small():
    from lock_harness import run_lock_soak
    for seed in range(5):
        run_lock_soak(seed, sessions=8, events=640)


def test_snapshot_never_shows_two_granted_writes():
    service = LockService()
    violations = []
    stop = threading.Event()

    def sampler():
        while not stop.is_set():
            snap = service.snapshot(DB)
            writes = [n for n in snap if n.state == GRANTED
                      and n.lock_type == WRITE]
            if len(writes) > 1:
                violations.append(writes)

    def worker(worker_id):
        rng = random.Random(worker_id)
        for _ in range(100):
            kind = WRITE if rng.random() < 0.6 else READ
            lockid = service.request_lock(DB, kind, f"o{worker_id}")
            service.release_lock(DB, lockid)

    sampler_thread = threading.Thread(target=sampler)
    sampler_thread.start()
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    stop.set()
    sampler_thread.join(timeout=5)
    assert not violations


def test_a_granted_read_wakes_its_owners_write():
    """b holds a write; a asks for a read, then, from a second thread, for
    a write. When b releases, a's read is granted, and that grant lifts
    the only block on a's write (the upgrade exemption), so both are
    granted while the read is still held."""
    service = LockService()
    w = service.request_lock(DB, WRITE, "b")
    results = {}
    try:
        tr = request_async(service, READ, "a", results, "r")
        assert wait_for(lambda: len(service.snapshot(DB)) == 2)
        tw = request_async(service, WRITE, "a", results, "w")
        assert wait_for(lambda: len(service.snapshot(DB)) == 3)
        service.release_lock(DB, w)
        tr.join(timeout=5)
        tw.join(timeout=5)
        assert (results.get("r"), results.get("w")) == (2, 3)
        assert [(n.lockid, n.state) for n in service.snapshot(DB)] == \
            [(2, GRANTED), (3, GRANTED)]
    finally:
        service.shutdown()


def test_one_release_grants_every_read_behind_a_write():
    service = LockService()
    w = service.request_lock(DB, WRITE, "a")
    results = {}
    try:
        threads = [request_async(service, READ, owner, results, owner)
                   for owner in ("b", "c", "d")]
        assert wait_for(lambda: len(service.snapshot(DB)) == 4)
        service.release_lock(DB, w)
        for t in threads:
            t.join(timeout=5)
        assert sorted(results.values()) == [2, 3, 4]
        assert [n.state for n in service.snapshot(DB)] == [GRANTED] * 3
    finally:
        service.shutdown()


def test_a_release_on_another_database_wakes_a_waiter_but_grants_nothing():
    """Every database shares one condition, so a release anywhere wakes
    every waiter; a waiter whose blocking write still holds re-checks and
    goes back to waiting."""
    service = RecordingLockService()
    w = service.request_lock(DB, WRITE, "a")
    waits = []
    wait = service._cond.wait
    service._cond.wait = lambda *args: waits.append(1) or wait(*args)
    results = {}
    try:
        t = request_async(service, READ, "b", results, "r")
        assert wait_for(lambda: len(waits) == 1)
        other = service.request_lock("db/other", WRITE, "c")
        service.release_lock("db/other", other)
        assert wait_for(lambda: len(waits) == 2)
        assert "r" not in results
        assert [(n.lockid, n.state) for n in service.snapshot(DB)] == \
            [(1, GRANTED), (2, WAITING)]
        assert ("grant", DB, 2, READ, "b") not in service.history
        service.release_lock(DB, w)
        t.join(timeout=5)
        assert results["r"] == 2
        check_history(service.history)
    finally:
        service.shutdown()


def test_check_history_replays_each_database_on_its_own():
    """Lockids are per database: lockid 1 of "x" and lockid 1 of "y" are
    two requests, and a grant is checked against its own database."""
    history = [("request", "x", 1, READ, "a"), ("request", "y", 1, WRITE, "b"),
               ("grant", "x", 1, READ, "a"), ("grant", "y", 1, WRITE, "b")]
    check_history(history + [("release", "x", 1, READ, "a"),
                             ("release", "y", 1, WRITE, "b")])
    with pytest.raises(AssertionError, match="two granted writes"):
        check_history(history + [("request", "y", 2, WRITE, "c"),
                                 ("grant", "y", 2, WRITE, "c")])


def test_soak_under_a_short_switch_interval():
    """More threads than cores, switched often: every waiter is woken in
    time (the soak fails a worker stuck past its join timeout) and every
    grant is legal."""
    from lock_harness import run_lock_soak
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_lock_soak(19, sessions=8, events=2000, join_timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
