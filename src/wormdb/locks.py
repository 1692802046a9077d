"""Database-granularity read/write lock queue with lockid ordering.

Lock requests get monotonically increasing lockids per database and are
granted in lockid order: a read waits behind every earlier write (granted
or waiting, which prevents writer starvation); a write waits behind every
earlier lock except a read the same owner already holds (the upgrade
case). A blocked request watches the last earlier blocking node and
re-evaluates on each wakeup, re-watching the new last blocker if still
blocked.

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
from dataclasses import dataclass, field

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
    watched: int | None = None
    event: threading.Event = field(default_factory=threading.Event, repr=False)
    watchers: list["LockNode"] = field(default_factory=list, repr=False)

    def public_copy(self) -> "LockNode":
        return LockNode(self.db_name, self.lockid, self.lock_type,
                        self.owner, self.state, self.watched)


class LockService:
    """Thread-safe in-process lock manager, one queue per database name."""

    def __init__(self, record_history: bool = False):
        self._mu = threading.Lock()
        self._queues: dict[str, list[LockNode]] = {}
        self._next_id: dict[str, int] = {}
        self._shutdown = False
        self.history: list[tuple[str, str, int, str, str]] | None = \
            [] if record_history else None

    # ------------------------------------------------------------------

    def _record(self, event: str, node: LockNode) -> None:
        if self.history is not None:
            self.history.append((event, node.db_name, node.lockid,
                                 node.lock_type, node.owner))

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

    def _try_grant(self, node: LockNode) -> bool:
        if self._blockers(node):
            return False
        node.state = GRANTED
        node.watched = None
        self._record("grant", node)
        return True

    def _watch(self, node: LockNode, blockers: list[LockNode]) -> None:
        target = blockers[-1]  # the blocker requested last
        node.watched = target.lockid
        target.watchers.append(node)

    def _remove(self, node: LockNode) -> None:
        self._queues[node.db_name].remove(node)
        for watcher in node.watchers:
            watcher.event.set()
        node.watchers.clear()

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

        Raises UpgradeConflict at once if waiting would make the owner wait
        on itself, ServiceShutdown on shutdown().
        """
        if lock_type not in (READ, WRITE):
            raise ValueError(f"bad lock type: {lock_type}")
        with self._mu:
            if self._shutdown:
                raise ServiceShutdown("lock service is shut down")
            lockid = self._next_id.get(db_name, 1)
            self._next_id[db_name] = lockid + 1
            node = LockNode(db_name, lockid, lock_type, owner)
            self._queues.setdefault(db_name, []).append(node)
            self._record("request", node)
            if self._try_grant(node):
                return lockid
            # Only a new request adds wait-for edges, so a cycle that
            # exists now runs through this request's owner, and no later
            # grant or release can close one.
            if self._closes_cycle(node):
                self._record("conflict", node)
                self._remove(node)
                raise UpgradeConflict(
                    f"{lock_type} {lockid} on {db_name} would make "
                    f"{owner} wait on itself")
            self._watch(node, self._blockers(node))
        while True:
            node.event.wait()
            with self._mu:
                node.event.clear()
                if self._shutdown:
                    self._remove(node)
                    raise ServiceShutdown("lock service is shut down")
                if self._try_grant(node):
                    return lockid
                self._watch(node, self._blockers(node))

    def release_lock(self, db_name: str, lockid: int) -> None:
        with self._mu:
            queue = self._queues.get(db_name, [])
            node = next((n for n in queue if n.lockid == lockid), None)
            if node is None:
                raise UnknownLock(f"no lock {lockid} on {db_name}")
            if node.state != GRANTED:
                raise NotGranted(f"lock {lockid} on {db_name} is not granted")
            self._record("release", node)
            self._remove(node)

    def snapshot(self, db_name: str) -> list[LockNode]:
        with self._mu:
            return [n.public_copy()
                    for n in self._queues.get(db_name, [])]

    def shutdown(self) -> None:
        with self._mu:
            self._shutdown = True
            for queue in self._queues.values():
                for node in queue:
                    if node.state == WAITING:
                        node.event.set()
