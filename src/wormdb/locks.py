"""Database-granularity read/write lock queue with lockid ordering.

Lock requests get monotonically increasing lockids per database and are
granted in lockid order: a read waits behind every earlier write (granted
or waiting, which prevents writer starvation); a write waits behind every
earlier lock except a read the same owner already holds (the upgrade
case). The queues of every database are guarded by one condition: a
blocked request waits on it and re-checks its blockers after each
wakeup, and every grant and every removal of a node (a release, a
conflict, a waiter leaving on shutdown) wakes all waiters. A wakeup is
only a cue to re-check: a waiter on another database, or one still
blocked, goes back to waiting.

Under these rules an owner can come to wait on itself: two owners that
each hold a read and ask for a write, or an owner that holds a read and
asks for a second one behind another owner's write that waits on the
first. The deadlock rule: a request that would make its owner wait on
itself, through the owners of waiting requests and their blockers,
fails at once with UpgradeConflict; nothing else ever fails a waiting
request. Checking when a request blocks is enough, because only a new
request adds wait-for edges: it has the highest lockid, so it blocks no
earlier request, and a grant or a release only removes edges. Any new
cycle therefore runs through the new request's owner.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from .errors import NotGranted, ServiceShutdown, UnknownLock, UpgradeConflict

READ = "read"
WRITE = "write"

WAITING = "waiting"
GRANTED = "granted"


@dataclass
class LockNode:
    db_name: str
    lockid: int
    lock_type: str
    owner: str
    state: str = WAITING


class LockService:
    """Thread-safe in-process lock manager, one queue per database name."""

    def __init__(self):
        self._cond = threading.Condition()
        self._queues: dict[str, list[LockNode]] = {}
        self._next_id: dict[str, int] = {}
        self._shutdown = False

    # ------------------------------------------------------------------

    def _record(self, event: str, node: LockNode) -> None:
        """Called under the condition at each request, conflict, grant and
        release: a hook for a schedule recorder, which does nothing
        here."""

    def _blockers(self, node: LockNode) -> list[LockNode]:
        queue = self._queues[node.db_name]
        blockers = []
        for other in queue:
            if other.lockid >= node.lockid:
                break
            if node.lock_type == READ:
                if other.lock_type == WRITE:
                    blockers.append(other)
            else:
                if other.lock_type == READ and other.owner == node.owner \
                        and other.state == GRANTED:
                    continue  # the upgrade exemption
                blockers.append(other)
        return blockers

    def _remove(self, node: LockNode) -> None:
        self._queues[node.db_name].remove(node)
        self._cond.notify_all()

    def _closes_cycle(self, node: LockNode) -> bool:
        """Whether node's owner now waits on itself: wait-for edges go
        from the owner of each waiting request to the other owners of
        its blockers."""
        edges: dict[str, set[str]] = {}
        for waiter in self._queues[node.db_name]:
            if waiter.state == WAITING:
                edges.setdefault(waiter.owner, set()).update(
                    b.owner for b in self._blockers(waiter)
                    if b.owner != waiter.owner)
        seen: set[str] = set()
        frontier = list(edges.get(node.owner, ()))
        while frontier:
            owner = frontier.pop()
            if owner == node.owner:
                return True
            if owner not in seen:
                seen.add(owner)
                frontier.extend(edges.get(owner, ()))
        return False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def request_lock(self, db_name: str, lock_type: str, owner: str) -> int:
        """Enqueue a request and block until granted.

        Raises ValueError for a lock type other than READ or WRITE before
        anything is queued, UpgradeConflict at once if waiting would make
        the owner wait on itself, ServiceShutdown on shutdown().
        """
        if lock_type not in (READ, WRITE):
            raise ValueError(f"bad lock type: {lock_type}")
        with self._cond:
            if self._shutdown:
                raise ServiceShutdown("lock service is shut down")
            lockid = self._next_id.get(db_name, 1)
            self._next_id[db_name] = lockid + 1
            node = LockNode(db_name, lockid, lock_type, owner)
            self._queues.setdefault(db_name, []).append(node)
            self._record("request", node)
            # Only a new request adds wait-for edges, so a cycle that
            # exists now runs through this request's owner, and no later
            # grant or release can close one.
            if self._blockers(node) and self._closes_cycle(node):
                self._record("conflict", node)
                self._remove(node)
                raise UpgradeConflict(
                    f"{lock_type} {lockid} on {db_name} would make "
                    f"{owner} wait on itself")
            while self._blockers(node):
                self._cond.wait()
                if self._shutdown:
                    self._remove(node)
                    raise ServiceShutdown("lock service is shut down")
            node.state = GRANTED
            self._record("grant", node)
            # a granted read may lift the upgrade exemption's block on a
            # later write of the same owner
            self._cond.notify_all()
            return lockid

    def release_lock(self, db_name: str, lockid: int) -> None:
        with self._cond:
            queue = self._queues.get(db_name, [])
            node = next((n for n in queue if n.lockid == lockid), None)
            if node is None:
                raise UnknownLock(f"no lock {lockid} on {db_name}")
            if node.state != GRANTED:
                raise NotGranted(f"lock {lockid} on {db_name} is not granted")
            self._record("release", node)
            self._remove(node)

    def snapshot(self, db_name: str) -> list[LockNode]:
        with self._cond:
            return [replace(n) for n in self._queues.get(db_name, [])]

    def shutdown(self) -> None:
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
