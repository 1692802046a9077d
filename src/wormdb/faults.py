"""Named fault points for crash injection.

Every durability-relevant step in the recovery layers calls
``injector.hit(name)``. A test (or the CLI) arms a point with an action;
unarmed points are free. ``CrashPoint`` is raised for in-process crash
simulation; the CLI arms points with ``action="exit"`` which kills the
process with exit code 42.
"""

from __future__ import annotations

import os
from collections import Counter

CRASH_EXIT_CODE = 42

# Points on the write -> commit -> batch_post_commit -> restart paths of the
# DFS-backed store. The crash-consistency sweep enumerates this list.
SPDU_DFS_FAULT_POINTS = (
    "dfs.write.before_auto_flush",
    "dfs.flush.before_block_append",
    "dfs.flush.after_block_append",
    "dfs.commit.before_direct_block",
    "dfs.commit.after_direct_block",
    "dfs.commit.before_marker",
    "dfs.commit.after_marker",
    "dfs.commit.before_threshold_batch",
    "dfs.commit.after_batch",
    "dfs.batch.begin",
    "dfs.batch.before_carry_append",
    "dfs.batch.after_carry_append",
    "dfs.batch.before_block_remake",
    "dfs.batch.after_block_remake",
    "dfs.batch.before_generation_drop",
    "dfs.batch.after_generation_drop",
    "dfs.restart.begin",
    "dfs.restart.done",
)


class CrashPoint(RuntimeError):
    """Raised when an armed fault point fires (simulated crash)."""

    def __init__(self, name: str):
        super().__init__(f"crash injected at fault point '{name}'")
        self.name = name


class FaultInjector:
    """Registry of armed fault points plus a traversal counter.

    Only the points of ``SPDU_DFS_FAULT_POINTS`` can be armed. ``hits``
    records every traversal whether or not the point is armed, so sweeps
    can verify a point was actually reachable in a given workload.
    """

    def __init__(self):
        self._armed: dict[str, tuple[int, str]] = {}
        self.hits: Counter[str] = Counter()

    def arm(self, name: str, *, skip: int = 0, action: str = "raise") -> None:
        """Trigger `action` on the (skip+1)-th traversal of `name`."""
        if name not in SPDU_DFS_FAULT_POINTS:
            raise ValueError(f"unregistered fault point: {name}")
        if action not in ("raise", "exit"):
            raise ValueError(f"unknown fault action: {action}")
        self._armed[name] = (skip, action)

    def hit(self, name: str) -> None:
        self.hits[name] += 1
        armed = self._armed.get(name)
        if armed is None:
            return
        skip, action = armed
        if skip > 0:
            self._armed[name] = (skip - 1, action)
            return
        del self._armed[name]
        if action == "exit":
            os._exit(CRASH_EXIT_CODE)
        raise CrashPoint(name)


# Shared no-op injector for components constructed without one.
NULL_INJECTOR = FaultInjector()
