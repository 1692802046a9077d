"""In-process write-once-read-many distributed file system.

One NameNode (the metadata table plus the meta-file registry) and a set of
DataNodes holding replicated blocks. A DFS file is at most one block: the
NameNode keeps one tuple of holders per file, and the file's size, not a
block list, says where it ends. Larger data is a meta file, an ordered
set of one-block files. Files are immutable once created; a name gets
new content only by a "file remake": the new content is created under a
temporary name and `rename_file(..., overwrite=True)` puts it in place
of the old file in one NameNode mutation, as HDFS's rename with
`Rename.OVERWRITE` does. The meta-file layer builds on this. Every file
gets a `file_id` that this cluster object never hands out again, and a
rename keeps the id of the file it moves, so a client that cached what a
file holds can tell a remade file from the one it replaced: as an HDFS
client asks the NameNode where a block lives before it reads, a client asks
`meta_block_entry` for a block's current entry (which also fails when no
live DataNode holds the block, and is None when the block has no file)
and serves its cached copy only if the entry's id is the one it cached
under. The entry's size also says where a short block ends.

A file's name lives only at the NameNode. A DataNode stores a block
under its file's `file_id`, the block id, as an HDFS DataNode keeps
`blk_<id>` files (Shvachko et al., MSST 2010), so a rename edits the
NameNode table and no DataNode. Which DataNodes hold a new file depends
on its name and the set of live DataNodes alone, never on a setting; it
decides where bytes go, not how many are written.

A meta file changes length in one NameNode mutation, as HDFS adds a
block to a file in one edit (`addBlock`) and deletes a directory in one.
An append is `create_file(..., meta=...)`: it creates block `count` and
counts it. `meta_set_block_count` only lowers the count, and takes out
with it every file under the meta file's name at or past the new count,
a constituent or the `.new` a remake left. `meta_unregister` takes out
the meta file and every file under its name. So no file lies past a
meta file's count.

All public operations are serialized by one lock, making each call atomic
with respect to the metadata table. In persistent mode every DataNode keeps
its blocks in a directory, and the NameNode's state is one table,
`namenode.tbl`: a row per DFS file (ids included) and a row per meta
file (its block count), each starting with its kind. One function,
`durable_replace`, writes every file the cluster keeps: it fsyncs the
new content before renaming it into place and the directory after the
rename, and it is the only caller of `os.fsync` and `os.replace` in the
package. A DataNode writes each block with it, and every mutation, a
meta file's append, truncate or delete included, rewrites the table
with it once. Each mutation writes blocks before the save that names
them and drops blocks only after the save that stops naming them, so a
process crash at any point leaves the table from before or after the
call, at worst beside blocks no entry names, and a saved table never
names a block whose bytes or whose rename are still only in the OS's
cache. Such an unnamed block
is never read: a reload hands out ids above the highest saved one, so a
create may reuse an unreferenced block's id, but it writes its own block
on each of its holders before the table names it.
A save that fails with an OSError reads the table on disk back into
memory: if the save failed before its rename, the call raises and
changes nothing but, at worst, such a block.
"""

from __future__ import annotations

import itertools
import os
import threading
import zlib
from dataclasses import dataclass, replace
from random import Random
from urllib.parse import quote, unquote

from .errors import (
    AllReplicasDead,
    AlreadyExists,
    InsufficientReplicaNodes,
    NotFound,
    OutOfRange,
    RecoveryError,
    UnknownNode,
    WrongBlockSize,
)

NAMENODE_TABLE = "namenode.tbl"
SUFFIX_WIDTH = 8  # lexicographic order == numeric order up to 10^8 blocks
# A DataNode keys what it stores by (block id, block ordinal); a DFS file
# has one block, so the cluster always passes this ordinal. It stays in
# DataNode's arguments only because the benchmark's tracer hooks
# `DataNode.put` by its positional signature.
BLOCK_ORDINAL = 0


def constituent_name(meta_name: str, ordinal: int) -> str:
    """The one-block DFS file holding block `ordinal` of a meta file."""
    return f"{meta_name}/{ordinal:0{SUFFIX_WIDTH}d}"


@dataclass
class DfsConfig:
    block_size_bytes: int = 64 * 1024
    replication_factor: int = 3

    def __post_init__(self):
        if self.block_size_bytes <= 0:
            raise ValueError("block_size_bytes must be positive")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")


@dataclass(frozen=True)
class DfsFileEntry:
    name: str
    size_bytes: int  # at most one block
    # The DataNodes holding the file's one block, len == replication factor.
    holders: tuple[int, ...]
    # The block id the holders store the block under. Never reused by this
    # cluster object, so a file remade under the same name gets a new id;
    # saved in the table, and a reload hands out ids above the highest
    # saved one.
    file_id: int


@dataclass
class DfsCounters:
    read_calls: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def snapshot(self) -> "DfsCounters":
        return DfsCounters(self.read_calls, self.bytes_read,
                           self.bytes_written)


def durable_replace(path: str, data: bytes) -> None:
    """Give file `path` the content `data` as one step a machine crash
    cannot split: write `<path>.tmp`, fsync it, rename it over `path`,
    then fsync the directory that holds the rename. Every durable write
    of the cluster, a DataNode's block and the NameNode's table alike,
    goes through here."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DataNode:
    """Block storage for one simulated node, in memory or in a directory,
    keyed by block id and ordinal."""

    def __init__(self, node_id: int, root: str | None = None):
        self.node_id = node_id
        self.alive = True
        self._root = root
        self._mem: dict[tuple[int, int], bytes] | None = None
        if root is None:
            self._mem = {}
        else:
            os.makedirs(root, exist_ok=True)

    def _path(self, block_id: int, ordinal: int) -> str:
        return os.path.join(self._root, f"{block_id}.blk{ordinal}")

    def put(self, block_id: int, ordinal: int, data: bytes) -> None:
        if self._mem is not None:
            self._mem[(block_id, ordinal)] = bytes(data)
            return
        # durable before the table save that follows can name the block
        durable_replace(self._path(block_id, ordinal), data)

    def get(self, block_id: int, ordinal: int) -> bytes:
        if self._mem is not None:
            return self._mem[(block_id, ordinal)]
        with open(self._path(block_id, ordinal), "rb") as fh:
            return fh.read()

    def drop(self, block_id: int, ordinal: int) -> None:
        if self._mem is not None:
            self._mem.pop((block_id, ordinal), None)
            return
        # no directory fsync: a remove a crash loses leaves a block that
        # no entry names
        try:
            os.remove(self._path(block_id, ordinal))
        except FileNotFoundError:
            pass


class DfsCluster:
    """NameNode plus DataNodes in one process.

    `root=None` keeps everything in memory; otherwise state is persisted
    under `root` (one subdirectory per node, plus the NameNode table) and
    reloaded by constructing a cluster over the same root.
    """

    def __init__(self, config: DfsConfig, num_nodes: int,
                 root: str | None = None):
        if num_nodes < 1:
            raise ValueError("need at least one DataNode")
        self.config = config
        self.root = root
        self._lock = threading.RLock()
        self.counters = DfsCounters()
        node_root = None
        self._nodes: dict[int, DataNode] = {}
        for node_id in range(num_nodes):
            if root is not None:
                node_root = os.path.join(root, f"node_{node_id}")
            self._nodes[node_id] = DataNode(node_id, node_root)
        # The file table and the meta DFS file registry (name -> block
        # count), both NameNode state, saved together in one table.
        self._files, self._meta_table = \
            ({}, {}) if root is None else self._read_table()
        # meta name -> NameNode mutations that touched it (see meta_version)
        self._meta_versions: dict[str, int] = {}
        self._file_ids = itertools.count(1 + max(
            (entry.file_id for entry in self._files.values()), default=0))

    # ------------------------------------------------------------------
    # Persistence of NameNode state
    # ------------------------------------------------------------------

    def _read_table(self) -> tuple[dict[str, DfsFileEntry], dict[str, int]]:
        """The file table and the meta-file registry that namenode.tbl
        holds, both empty if there is none. Each row starts with its
        kind: `file`, then the name, size, holders and file_id, or
        `meta`, then the name and block count."""
        files: dict[str, DfsFileEntry] = {}
        metas: dict[str, int] = {}
        table = os.path.join(self.root, NAMENODE_TABLE)
        if not os.path.exists(table):
            return files, metas
        with open(table, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                kind, *row = line.split("\t")
                try:
                    if kind == "file":
                        name, size, holders, file_id = row
                        files[unquote(name)] = DfsFileEntry(
                            unquote(name), int(size),
                            tuple(int(n) for n in holders.split(",")),
                            int(file_id))
                    elif kind == "meta":
                        name, count = row
                        metas[unquote(name)] = int(count)
                    else:
                        raise ValueError(kind)
                except ValueError:
                    raise RecoveryError(
                        f"{table}: not a file or meta row: {line!r}"
                    ) from None
        return files, metas

    def _save_tables(self):
        """Write the file table and the meta-file registry to namenode.tbl
        with `durable_replace`. If that raises OSError, the table on disk
        is read back into memory before the error goes on. Before the
        replace that is the table from before the call, so a call whose
        save failed changes nothing here (the file-id counter stays, so
        no id is handed out twice); after it, when the directory's fsync
        fails, it is the new table, so the call raises and keeps the
        change."""
        if self.root is None:
            return
        text = "".join([
            *(f"file\t{quote(entry.name, safe='')}\t{entry.size_bytes}\t"
              f"{','.join(map(str, entry.holders))}\t{entry.file_id}\n"
              for entry in self._files.values()),
            *(f"meta\t{quote(name, safe='')}\t{count}\n"
              for name, count in self._meta_table.items())])
        try:
            durable_replace(os.path.join(self.root, NAMENODE_TABLE),
                            text.encode("utf-8"))
        except OSError:
            self._files, self._meta_table = self._read_table()
            raise

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _alive_nodes(self) -> list[int]:
        return sorted(n.node_id for n in self._nodes.values() if n.alive)

    def _place(self, name: str) -> tuple[int, ...]:
        alive = self._alive_nodes()
        r = self.config.replication_factor
        if len(alive) < r:
            raise InsufficientReplicaNodes(
                f"{len(alive)} alive nodes < replication factor {r}")
        # A function of the name (and the live nodes) alone, stable across
        # processes: str hashing is salted per process, so a crc is used.
        rng = Random(zlib.crc32(name.encode()))
        return tuple(rng.sample(alive, r))

    # ------------------------------------------------------------------
    # The DFS client operations plus fault-injection control
    # ------------------------------------------------------------------

    def _entry(self, name: str) -> DfsFileEntry:
        entry = self._files.get(name)
        if entry is None:
            raise NotFound(f"no DFS file: {name}")
        return entry

    def create_file(self, name: str, content: bytes,
                    meta: str | None = None) -> DfsFileEntry:
        """Create a one-block file. With `meta`, the file is the next block
        of that meta file: `name` must be `constituent_name(meta, count)`,
        and the table save that adds it also counts it."""
        with self._lock:
            if name in self._files:
                raise AlreadyExists(f"DFS file exists: {name}")
            if len(content) > self.config.block_size_bytes:
                raise WrongBlockSize(
                    f"{name}: {len(content)} bytes exceed one block of "
                    f"{self.config.block_size_bytes}")
            if meta is not None:
                count = self._count(meta)
                if name != constituent_name(meta, count):
                    raise OutOfRange(
                        f"{name} is not block {count} of {meta}, its next")
            entry = DfsFileEntry(name, len(content), self._place(name),
                                 next(self._file_ids))
            for node_id in entry.holders:
                self._nodes[node_id].put(entry.file_id, BLOCK_ORDINAL,
                                         content)
                self.counters.bytes_written += len(content)
            self._files[name] = entry
            if meta is not None:
                self._meta_table[meta] = count + 1
            self._touch(name.rpartition("/")[0])
            self._save_tables()
            return entry

    def read_range(self, name: str, offset: int, length: int,
                   file_id: int | None = None) -> bytes:
        """Bytes [offset, offset + length) of file `name`; with `file_id`,
        NotFound unless the file is still the one with that id, so a
        client that looked the file up before it was remade never reads
        the new file's bytes for the old one's."""
        with self._lock:
            entry = self._entry(name)
            if file_id is not None and entry.file_id != file_id:
                raise NotFound(f"{name} is no longer file {file_id}")
            if offset < 0 or length < 0 or offset + length > entry.size_bytes:
                raise OutOfRange(
                    f"read [{offset}, {offset + length}) beyond "
                    f"size {entry.size_bytes} of {name}")
            self.counters.read_calls += 1
            if length == 0:
                return b""
            data = self._block_of(self._pick_alive_holder(entry), entry)
            self.counters.bytes_read += length
            return data[offset:offset + length]

    def _pick_alive_holder(self, entry: DfsFileEntry) -> DataNode:
        for node_id in entry.holders:
            node = self._nodes[node_id]
            if node.alive:
                return node
        raise AllReplicasDead(f"{entry.name}: all replicas dead")

    def _block_of(self, node: DataNode, entry: DfsFileEntry) -> bytes:
        """The block `node` stores for `entry`; RecoveryError if the node
        has no such block though the NameNode lists it as a holder."""
        try:
            return node.get(entry.file_id, BLOCK_ORDINAL)
        except (FileNotFoundError, KeyError):
            raise RecoveryError(
                f"{entry.name}: DataNode {node.node_id} holds no block for "
                f"it, though the NameNode lists it as a holder") from None

    def _drop_blocks(self, entries: list[DfsFileEntry]) -> None:
        """Drop the blocks of entries the saved table no longer names from
        their live holders; a dead holder keeps its block, unreferenced."""
        for entry in entries:
            for node_id in entry.holders:
                node = self._nodes[node_id]
                if node.alive:
                    node.drop(entry.file_id, BLOCK_ORDINAL)

    def delete_file(self, name: str) -> None:
        with self._lock:
            entry = self._entry(name)
            del self._files[name]
            self._touch(name.rpartition("/")[0])
            self._save_tables()
            self._drop_blocks([entry])

    def rename_file(self, old: str, new: str,
                    overwrite: bool = False) -> None:
        """Move file `old` to name `new` in one NameNode mutation; the
        entry keeps its file_id, so no DataNode is touched. With
        `overwrite`, a file already named `new` is replaced, and its
        block dropped once the table is saved; without it, that file
        raises AlreadyExists."""
        with self._lock:
            entry = self._entry(old)
            target = self._files.get(new)
            if target is not None and not overwrite:
                raise AlreadyExists(f"DFS file exists: {new}")
            del self._files[old]
            self._files[new] = replace(entry, name=new)
            self._touch(*{old.rpartition("/")[0], new.rpartition("/")[0]})
            self._save_tables()
            if target is not None and new != old:
                self._drop_blocks([target])

    def set_node_alive(self, node_id: int, alive: bool) -> None:
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise UnknownNode(f"no DataNode {node_id}")
            node.alive = alive

    # ------------------------------------------------------------------
    # Lookup / observability
    # ------------------------------------------------------------------

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def file_entry(self, name: str) -> DfsFileEntry:
        with self._lock:
            return self._entry(name)

    def list_files(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(n for n in self._files if n.startswith(prefix))

    def replicas(self, name: str) -> list[bytes]:
        """All stored replica contents of a file (for consistency checks)."""
        with self._lock:
            entry = self._entry(name)
            return [self._block_of(self._nodes[node_id], entry)
                    for node_id in entry.holders]

    # ------------------------------------------------------------------
    # Meta DFS file registry (maintained at the NameNode)
    # ------------------------------------------------------------------

    def _count(self, name: str) -> int:
        count = self._meta_table.get(name)
        if count is None:
            raise NotFound(f"no meta DFS file: {name}")
        return count

    def _unlink_from(self, name: str, ordinal: int) -> list[DfsFileEntry]:
        """Take every file under meta file `name` at or past block
        `ordinal` out of the table, a constituent and the `.new` a remake
        left alike, and return their entries, whose blocks the caller
        drops once the table is saved. A constituent's name sorts as its
        ordinal does, and its `.new` right after it."""
        first = constituent_name(name, ordinal)
        unlinked = [file for file in self._files
                    if file.rpartition("/")[0] == name and file >= first]
        return [self._files.pop(file) for file in unlinked]

    def meta_register(self, name: str, block_count: int) -> None:
        with self._lock:
            if name in self._meta_table:
                raise AlreadyExists(f"meta DFS file exists: {name}")
            self._meta_table[name] = block_count
            self._touch(name)
            self._save_tables()

    def meta_set_block_count(self, name: str, block_count: int) -> None:
        """Truncate meta file `name` to `block_count` blocks in one table
        save, which also removes every file under its name at or past
        that block; their blocks are dropped after it. Only an append
        (`create_file(..., meta=name)`) lengthens a meta file, so a count
        above the current one is OutOfRange."""
        with self._lock:
            count = self._count(name)
            if not 0 <= block_count <= count:
                raise OutOfRange(
                    f"block count {block_count} of {name} (has {count})")
            unlinked = self._unlink_from(name, block_count)
            self._meta_table[name] = block_count
            self._touch(name)
            self._save_tables()
            self._drop_blocks(unlinked)

    def meta_block_count(self, name: str) -> int:
        with self._lock:
            return self._count(name)

    def meta_block_entry(self, name: str,
                         ordinal: int) -> DfsFileEntry | None:
        """The entry (file_id and size) of block `ordinal`'s constituent
        of a meta file, read under one lock; None if the block has no
        constituent. Raises OutOfRange for a block past the end and
        AllReplicasDead when no live DataNode holds the block, so a client
        serving the block from its cache still learns of both."""
        with self._lock:
            count = self._count(name)
            if not 0 <= ordinal < count:
                raise OutOfRange(f"block {ordinal} of {name} (has {count})")
            entry = self._files.get(constituent_name(name, ordinal))
            if entry is not None:
                self._pick_alive_holder(entry)
            return entry

    def meta_block_entries(self, name: str) -> list[DfsFileEntry | None]:
        """The entry of each constituent of a meta file, block 0 first,
        None for a block with no constituent, read under one lock."""
        with self._lock:
            return [self._files.get(constituent_name(name, ordinal))
                    for ordinal in range(self._count(name))]

    def meta_version(self, name: str) -> int:
        """How many NameNode mutations have touched meta file `name`: its
        block count, or a file under its name. Equal versions at two
        reads mean no constituent was added, removed or replaced in
        between, and a caller's own mutation adds exactly one."""
        with self._lock:
            return self._meta_versions.get(name, 0)

    def _touch(self, *names: str) -> None:
        for name in names:
            self._meta_versions[name] = self._meta_versions.get(name, 0) + 1

    def meta_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._meta_table

    def meta_names(self, prefix: str = "") -> list[str]:
        """The registered meta files whose names start with `prefix`,
        sorted, read under one lock."""
        with self._lock:
            return sorted(n for n in self._meta_table if n.startswith(prefix))

    def meta_unregister(self, name: str) -> None:
        """Remove meta file `name` and every file under its name in one
        table save; their blocks are dropped after it."""
        with self._lock:
            self._count(name)
            unlinked = self._unlink_from(name, 0)
            del self._meta_table[name]
            self._touch(name)
            self._save_tables()
            self._drop_blocks(unlinked)
