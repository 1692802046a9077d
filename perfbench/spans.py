"""Spans around the calls into each wormdb layer, for the traced run.

The tracer patches the public functions of each layer from outside the
package while it is installed and restores them when it is removed. Each
call becomes a span (name, start, end, parent span, transaction id) kept
in memory in flat arrays; `write` saves them when the run ends. A few
hooks also count work at the same boundaries (bytes moved, NameNode
mutations, remakes, index merges) without recording a span.

A span's self time is its duration minus the time of its direct child
spans. Calls are serial (one client thread), so children never overlap.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from wormdb import records
from wormdb.dfs import DataNode, DfsCluster
from wormdb.engine import Session
from wormdb.locks import LockService
from wormdb.metafile import MetaDfsManager
from wormdb.pages import SlottedPage
from wormdb.spdu_dfs import DfsTransactionStore

# layer -> (owner, public functions given a span)
SPANNED = {
    "records": (records, ("pack_record", "unpack_record")),
    "pages": (SlottedPage, ("record", "try_insert", "replace")),
    "engine": (Session, ("begin", "commit", "scan", "select_by_key",
                         "update_by_key", "insert_record")),
    "locks": (LockService, ("request_lock", "release_lock")),
    "spdu_dfs": (DfsTransactionStore, (
        "reconstruct_log_table_index", "read_page", "write_page",
        "flush_buffer", "commit_transaction", "batch_post_commit")),
    "metafile": (MetaDfsManager, ("read_page", "read_block", "append_block",
                                  "overwrite_block", "truncate_from")),
    "dfs": (DfsCluster, ("read_range", "create_file", "delete_file",
                         "meta_set_block_count")),
}
NAMENODE_MUTATIONS = ("create_file", "delete_file", "rename_file",
                      "meta_register", "meta_set_block_count",
                      "meta_unregister")
NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.txn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.txn_id = NO_PARENT  # set by the client before each transaction
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str | None = None, before=None, after=None):
        """`fn` inside a span called `name` (if given), with optional
        hooks: before(*args) -> state, after(args, result, state)."""
        name_id = None if name is None else self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(*args) if before else None
            if name_id is None:
                result = fn(*args, **kwargs)
            else:
                span = len(self.name)
                self.name.append(name_id)
                self.parent.append(stack[-1] if stack else NO_PARENT)
                self.txn.append(self.txn_id)
                self.end.append(0.0)
                stack.append(span)
                self.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[span] = clock()
                    stack.pop()
            if after:
                after(args, result, state)
            return result
        return traced

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module, attr: str, wrapped) -> None:
        # module-level functions are also bound by name in the modules
        # that import them
        original = getattr(module, attr)
        for name, sub in list(sys.modules.items()):
            if name.startswith("wormdb.") and \
                    getattr(sub, attr, None) is original:
                self._patch(sub, attr, wrapped)

    # ------------------------------------------------------------------
    # Hooks that count work at the same boundaries
    # ------------------------------------------------------------------

    def _count(self, key: str, amount=lambda args, result: 1):
        def after(args, result, state):
            self.counts[key] += amount(args, result)
        return after

    def _commit_before(self, session: Session):
        catalog = session.catalog
        if session.mode == "write" and catalog is not None:
            return catalog, len(catalog.segments)
        return None

    def _commit_after(self, args, result, state) -> None:
        # the commit flushes index entries into the catalog it was given;
        # a merge leaves fewer segments than there were before
        if state is not None and len(state[0].segments) < state[1]:
            self.counts["engine.index_merges"] += 1

    def _read_page_before(self, store: DfsTransactionStore, pageid: int):
        if pageid in store.index:
            self.counts["spdu_dfs.read_page.log_reads"] += 1

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------

    @contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def _install(self) -> None:
        hooks = {
            ("engine", "commit"): (self._commit_before, self._commit_after),
            ("spdu_dfs", "read_page"): (self._read_page_before, None),
            ("spdu_dfs", "batch_post_commit"): (None, self._count(
                "spdu_dfs.batch_post_commit.remakes",
                lambda args, result: result)),
        }
        for layer, (owner, functions) in SPANNED.items():
            for attr in functions:
                before, after = hooks.get((layer, attr), (None, None))
                if layer == "dfs" and attr in NAMENODE_MUTATIONS:
                    after = self._count("dfs.namenode_mutations")
                wrapped = self._wrap(getattr(owner, attr),
                                     f"{layer}.{attr}", before, after)
                if owner is records:
                    self._patch_function(owner, attr, wrapped)
                else:
                    self._patch(owner, attr, wrapped)
        for attr in NAMENODE_MUTATIONS:
            if attr not in SPANNED["dfs"][1]:
                self._patch(DfsCluster, attr, self._wrap(
                    getattr(DfsCluster, attr),
                    after=self._count("dfs.namenode_mutations")))
        self._patch(DfsCluster, "meta_block_count", self._wrap(
            DfsCluster.meta_block_count,
            after=self._count("dfs.meta_block_count.calls")))
        self._patch(DataNode, "get", self._wrap(
            DataNode.get, after=self._count_get))
        self._patch(DataNode, "put", self._wrap(
            DataNode.put, before=self._put_before))
        self._patch(os, "fsync", self._wrap(os.fsync, "dfs.fsync"))

    def _count_get(self, args, result, state) -> None:
        self.counts["dfs.datanode.get.calls"] += 1
        self.counts["dfs.datanode.get.bytes"] += len(result)

    def _put_before(self, node, name, ordinal, data) -> None:
        self.counts["dfs.datanode.put.bytes"] += len(data)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def summary(self) -> tuple[dict[str, dict[str, float]],
                               Counter[tuple[str, str]]]:
        """Per span name: calls, total seconds and self seconds; and the
        number of spans per (name, parent name) pair."""
        count = len(self.name)
        child_time = [0.0] * count
        for span in range(count):
            parent = self.parent[span]
            if parent != NO_PARENT:
                child_time[parent] += self.end[span] - self.start[span]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        parents: Counter[tuple[str, str]] = Counter()
        for span in range(count):
            entry = out[self.names[self.name[span]]]
            duration = self.end[span] - self.start[span]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[span]
            parent = self.parent[span]
            if parent != NO_PARENT:
                parents[(self.names[self.name[span]],
                         self.names[self.name[parent]])] += 1
        return out, parents

    def write(self, path: str) -> None:
        """Save every span as one tab-separated line; times are seconds
        since the tracer was made."""
        epoch = self._epoch
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\ttxn\n")
            for span in range(len(self.name)):
                fh.write(f"{span}\t{self.names[self.name[span]]}\t"
                         f"{self.start[span] - epoch:.9f}\t"
                         f"{self.end[span] - epoch:.9f}\t"
                         f"{self.parent[span]}\t{self.txn[span]}\n")


def layer_metrics(tracer: Tracer, rows_written: int, page_reads: int,
                  page_writes: int, bytes_read: int, bytes_written: int
                  ) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced phase, as name -> (value, unit).

    A ratio whose base is zero (no rows written, no DFS bytes read, no
    begin or commit) is reported as 0.
    """
    stats, parents = tracer.summary()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def calls(name: str) -> int:
        return stats.get(name, {}).get("calls", 0)

    for layer, (_, functions) in SPANNED.items():
        # lock calls have no child spans, so their time is all self time
        time_key = "s" if layer == "locks" else "self_s"
        for attr in functions:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.{time_key}"] = \
                (stats.get(name, {}).get("self_s", 0.0), "s")
    out["engine.page_reads"] = (page_reads, "count")
    out["engine.page_writes"] = (page_writes, "count")
    out["engine.index_merges"] = (counts["engine.index_merges"], "count")
    out["engine.page_writes_per_row"] = \
        (ratio(page_writes, rows_written), "ratio")
    footer_reads = parents[("metafile.read_page",
                            "spdu_dfs.reconstruct_log_table_index")]
    out["spdu_dfs.footer_reads_per_begin"] = \
        (ratio(footer_reads, calls("engine.begin")), "ratio")
    out["spdu_dfs.read_page.log_share"] = (ratio(
        counts["spdu_dfs.read_page.log_reads"],
        calls("spdu_dfs.read_page")), "ratio")
    remakes = counts["spdu_dfs.batch_post_commit.remakes"]
    out["spdu_dfs.batch_post_commit.remakes"] = (remakes, "count")
    out["spdu_dfs.remakes_per_commit"] = \
        (ratio(remakes, calls("spdu_dfs.commit_transaction")), "ratio")
    out["dfs.meta_block_count.calls"] = \
        (counts["dfs.meta_block_count.calls"], "count")
    out["dfs.bytes_read"] = (bytes_read, "B")
    out["dfs.bytes_written"] = (bytes_written, "B")
    out["dfs.namenode_mutations"] = (counts["dfs.namenode_mutations"], "count")
    out["dfs.fsync.calls"] = (calls("dfs.fsync"), "count")
    out["dfs.fsync.s"] = (stats.get("dfs.fsync", {}).get("s", 0.0), "s")
    out["dfs.datanode.get.calls"] = (counts["dfs.datanode.get.calls"], "count")
    out["dfs.datanode.get.bytes"] = (counts["dfs.datanode.get.bytes"], "B")
    out["dfs.datanode.put.bytes"] = (counts["dfs.datanode.put.bytes"], "B")
    out["dfs.datanode.get_bytes_per_read_byte"] = \
        (ratio(counts["dfs.datanode.get.bytes"], bytes_read), "ratio")
    out["trace.spans"] = (len(tracer.name), "count")
    return out
