"""Shared soak driver and schedule validator for the lock service."""

from __future__ import annotations

import random
import threading

from wormdb.errors import UpgradeConflict
from wormdb.locks import GRANTED, READ, WAITING, WRITE, LockService


class RecordingLockService(LockService):
    """A LockService that records each request, conflict, grant and
    release, in order, as (event, db_name, lockid, lock_type, owner) in
    `history`, for `check_history` to replay."""

    def __init__(self):
        super().__init__()
        self.history: list[tuple[str, str, int, str, str]] = []

    def _record(self, event, node):
        self.history.append((event, node.db_name, node.lockid,
                             node.lock_type, node.owner))


def check_history(history):
    """Replay a recorded schedule and verify every grant was legal.

    Lockids are per database, so each database's requests are replayed
    on their own. Raises AssertionError on: two granted writes,
    read/write coexistence across owners, a grant that jumped the lockid
    order, or a conflict that failed any request but the newest of its
    database (only the request that blocks is ever failed).
    """
    live = {}  # db name -> {lockid -> [type, owner, state]}
    newest = {}  # db name -> lockid of its latest request
    for event, db_name, lockid, lock_type, owner in history:
        queue = live.setdefault(db_name, {})
        if event == "request":
            queue[lockid] = [lock_type, owner, WAITING]
            newest[db_name] = lockid
        elif event in ("release", "conflict"):
            if event == "conflict" and lockid != newest[db_name]:
                raise AssertionError(
                    f"conflict failed {lockid}, not the newest request "
                    f"{newest[db_name]}")
            del queue[lockid]
        else:  # grant
            node = queue[lockid]
            for other_id, (otype, oowner, ostate) in queue.items():
                if other_id == lockid:
                    continue
                if ostate == GRANTED:
                    if lock_type == WRITE and otype == WRITE:
                        raise AssertionError(
                            f"two granted writes: {lockid} vs {other_id}")
                    if lock_type != otype and oowner != owner:
                        raise AssertionError(
                            f"read/write coexistence: {lockid} vs {other_id}")
                if other_id < lockid:
                    if lock_type == WRITE and \
                            not (otype == READ and oowner == owner
                                 and ostate == GRANTED):
                        raise AssertionError(
                            f"write {lockid} granted before {other_id}")
                    if lock_type == READ and otype == WRITE:
                        raise AssertionError(
                            f"read {lockid} granted before write {other_id}")
            node[2] = GRANTED


def run_lock_soak(seed: int, sessions: int = 8, events: int = 10_000,
                  join_timeout: float = 120.0) -> RecordingLockService:
    """Randomized multi-threaded soak; validates the schedule afterwards.

    An "event" is one request or one release. Returns the service so
    callers can inspect the history further.
    """
    service = RecordingLockService()
    dbs = ["dbA", "dbB"]
    pairs_per_session = max(1, events // (2 * sessions))
    errors: list[str] = []

    def worker(worker_id: int):
        rng = random.Random(seed * 1009 + worker_id)
        owner = f"owner-{worker_id}"
        for _ in range(pairs_per_session):
            db = rng.choice(dbs)
            roll = rng.random()
            try:
                if roll < 0.15:
                    # upgrade attempt: request write while holding read
                    r = service.request_lock(db, READ, owner)
                    try:
                        w = service.request_lock(db, WRITE, owner)
                        service.release_lock(db, w)
                    except UpgradeConflict:
                        pass
                    service.release_lock(db, r)
                else:
                    kind = WRITE if roll < 0.55 else READ
                    lockid = service.request_lock(db, kind, owner)
                    service.release_lock(db, lockid)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))
                return

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(sessions)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=join_timeout)
        if t.is_alive():
            raise AssertionError("soak worker stuck: liveness violation")
    if errors:
        raise AssertionError(f"soak worker errors: {errors}")
    check_history(service.history)
    return service
