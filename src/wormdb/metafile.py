"""Meta DFS files: overwritable, appendable, page-addressable storage.

A meta DFS file of ``k`` blocks is the ordered set of one-block DFS files
``<name>/00000000`` .. ``<name>/0000000k-1``. Overwriting a block is a file
remake: the new content is created as ``<constituent>.new`` and renamed
over the constituent, which replaces it in one NameNode mutation, so a
failure at any step leaves the block whole, old or new. A ``.new`` file
a failure left is garbage that the next remake of its block deletes.
Appending creates the next constituent and returns its block_id and
the file_id `create_file` gave it, the id its cache entry is tagged
with, so a writer learns it with no NameNode call. Page addressing is
the static split ``block_id = pageid // N``, ``page_offset = pageid % N``
for ``N`` pages per block.

A meta file is named, not held: every `MetaDfsManager` method takes the
meta file's name, and its block count lives only in the NameNode's
registry, as an HDFS client names a file by its path and leaves its
blocks to the NameNode (Shvachko et al., MSST 2010). A block or page
operation on a block below 0 or at or past the count is OutOfRange.

A block is at most one DFS block, and its constituent is only as long
as what was written, as an HDFS file ends in a partial block and a GFS
chunk replica grows only as needed. An overwritten block, and block 0
of a sparse create, is whole pages up to its last nonzero page, at
least one: a data block ends at the last page written to it. A create,
a sparse create's block 0 or the fill of a block with no constituent,
stores those pages. A remake stores them as one zlib stream, written
and read by the package's one codec (`wormdb.pagefmt.deflate` and
`inflate`), where that is shorter and not a whole number of pages,
else the pages too, as Bigtable compresses the SSTable blocks a
compaction writes (Chang et al., OSDI 2006): a remake is a batch's,
off the commit path, while compressing the fills that a load writes
would take as long again as the load. The constituent's length says
which it holds, whole pages or a stream, so no table or format keeps a
flag. An appended block may be any length: a log block holds just its
compressed body and its footer bytes, and is read by `read_bytes`
alone, which returns a constituent's bytes as stored and never
decompresses. The NameNode entry that gives a block's file_id also
gives its size, so a reader learns where a block ends, and how it is
stored, from the same call. A page past a block's last page reads as
zeros, with no DFS read if the constituent holds whole pages, as a
hole's pages do (below). The first page read of a stream reads the
whole constituent with one DFS read, unpacks it and caches its pages
(below); a stream that fails zlib's check, does not end where the
constituent does or does not decode to 1 to `pages_per_block` whole
pages fails every page read of it with RecoveryError naming the
constituent, as a page read of an appended block that is not whole
pages does. Given an entry the caller already holds, `read_page_of`
reads one page of it and `read_bytes` all of it, as stored.

A meta file may be registered with more blocks than it has
constituents (the engine's data file holds only block 0 and the blocks
written since): in every meta file a block with no constituent reads as
zeros without a DFS read, and its first overwrite is a plain create.
A layer that must not see such a hole checks for it itself: the store
refuses a log block with no constituent.

The block count, one NameNode number, changes together with the
constituents in one NameNode mutation (see `wormdb.dfs`): an append
creates the constituent at the count and counts it, a truncate lowers
the count and removes every constituent at or past it, and a delete
removes the meta file with every DFS file under its name. A failure
therefore leaves the meta file as it was before or after the call, and
no constituent past the count exists.

Mutating operations on one meta file require external mutual exclusion
(the engine's database write lock); concurrent readers are safe.

Blocks and pages are kept in a cache that all sessions of a manager
share, keyed by constituent name and tagged with the constituent's DFS
`file_id`. It is write-through: once an append has created its block, a
sparse create its block 0, or a remake has renamed its new block into
place (or created a missing one), the block is cached whole, as the one
`bytes` object handed to `create_file`, under the id that call returned
(a rename keeps it), or, for a remake stored as a stream, as its pages.
In memory mode the DataNodes keep that same object, so the cache holds
no second copy, but of a stream it holds the pages beside the stream
the DataNodes keep; `read_block` returns it, and the page and byte
reads slice their bytes out of it. A block this manager did not write
is read through as it is asked for: a page read of a constituent of
pages caches the page it read from the DFS, so a cold page read fetches
only the page asked for, once, and `read_block` and `read_bytes` read
the whole constituent with one DFS read and cache it as a write does, in
place of the pages read before, so no byte of it is held twice. A log
block is only ever read whole: its body is one zlib stream, which
decodes only whole, as Bigtable reads and caches a compressed SSTable
block whole (Chang et al., OSDI 2006). A stream is read whole at its
first page read, or `read_block`, and its pages cached in its place. A
cached block as long as its constituent is the constituent's bytes; one
of another length is a stream's pages, which the page reads and
`read_block` serve and a byte read passes by for the stream's own bytes,
read from the DFS and not cached. Every DFS read, of a page, a block
or a stream, is made by `_range`, the package's one fetch path. A
constituent is write-once and the NameNode never reuses an id, so a
cached block or page is served only while its block's current id (one
NameNode call per read, made before the cache is looked at) is the id
it was cached under; a remake by anyone, this manager or another over
the same cluster, and a truncate and append by another manager, change
the id. A remake that fails before its rename leaves the old entry,
which still holds the current content. The id call also reports a block
whose replicas are all dead, so replica loss surfaces on a cached block
too. There is no eviction by size: a remake replaces the constituent's
entry, and a truncate or delete through this manager drops it, so the
cache never holds more than the data blocks written or read and the live
log. The engine's log is its live generation, a meta file the batch
replaces and deletes once it holds more than `post_commit_threshold`
blocks' worth of raw bytes; the generation that replaces it holds at
most half that, so the live log is at most that many bytes plus what one
commit appends. The cache takes no lock: a reader racing a remake or
another reader can only cache a page or block under an id that has died,
which is never served, or replace an entry another reader, an append or
a remake made, which costs one more DFS read. Every DFS read names the
id its entry gave, so a reader that looked a block up just before a
remake, or a truncate and append, never takes the new constituent's
bytes for the old one's, which matters since a remake may store a stream
where there were pages: the read raises NotFound, on which `read_page`
and `read_block` look the block up again and read the new constituent.
"""

from __future__ import annotations

import threading

from .dfs import DfsCluster, DfsFileEntry, constituent_name
from .errors import (
    AlreadyExists,
    NotFound,
    OutOfRange,
    RecoveryError,
    WrongBlockSize,
)
from .pagefmt import deflate, inflate


def pages_per_block(page_size: int, block_size: int) -> int:
    """The pages of `page_size` bytes in a block of `block_size` bytes;
    raises ValueError unless the page size is positive and divides the
    block size."""
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    if block_size % page_size != 0:
        raise ValueError(
            f"block size {block_size} is not a multiple of "
            f"page size {page_size}")
    return block_size // page_size


class MetaDfsManager:
    """Presents meta DFS files on top of a DfsCluster.

    A block is at most one DFS block: `block_size` is the cluster's, read
    here once, and a page of `page_size` bytes must divide it. An
    appended constituent holds 1 to `block_size` bytes; an overwritten
    one is given 1 to `pages_per_block` whole pages and holds them up to
    the last nonzero one, as a remake's stream if that is shorter (see
    above).

    One manager is shared by all sessions of an engine; `remakes_total`
    is kept here for the cost accounting the deferred post-commit design
    is judged by, beside `fills_total`, the creates of blocks that had no
    constituent (see `overwrite_block`), and so is the page cache.
    """

    def __init__(self, cluster: DfsCluster, page_size: int):
        self.cluster = cluster
        self.page_size = page_size
        self.block_size = cluster.config.block_size_bytes
        self.pages_per_block = pages_per_block(page_size, self.block_size)
        self._counter_lock = threading.Lock()
        self.remakes_total = 0
        self.fills_total = 0
        # constituent name -> (its file_id, the whole block if this
        # manager wrote it or read it whole, its pages for a stream, else
        # {(start, end): bytes} of the pages read)
        self._cache: dict[
            str, tuple[int, bytes | dict[tuple[int, int], bytes]]] = {}
        self._zero_page = bytes(page_size)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create_meta(self, name: str) -> None:
        """Create meta file `name` with no block."""
        self.cluster.meta_register(name, 0)

    def create_sparse_meta(self, name: str, block_count: int,
                           first_block: bytes) -> None:
        """Create meta file `name` of `block_count` blocks whose only
        constituent is block 0, holding `first_block` up to its last
        nonzero page and cached (see above); the others read as zeros."""
        first_block = self._trimmed(first_block)
        self.cluster.meta_register(name, block_count)
        first = constituent_name(name, 0)
        file_id = self.cluster.create_file(first, first_block).file_id
        self._cache[first] = (file_id, first_block)

    def exists(self, name: str) -> bool:
        return self.cluster.meta_exists(name)

    def meta_names(self, prefix: str) -> list[str]:
        """The registered meta files whose names start with `prefix`,
        sorted (`DfsCluster.meta_names`)."""
        return self.cluster.meta_names(prefix)

    def delete_meta(self, file: str) -> None:
        """Unregister meta file `file` together with every DFS file under
        its name in one NameNode mutation (see above), then uncache its
        blocks; NotFound if it is not registered."""
        self.cluster.meta_unregister(file)
        for name in list(self._cache):
            if name.rpartition("/")[0] == file:
                self._cache.pop(name, None)

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------

    def _check_block(self, content: bytes, whole_pages: bool = True) -> None:
        if not 0 < len(content) <= self.block_size:
            raise WrongBlockSize(
                f"block must be 1 to {self.block_size} bytes, "
                f"got {len(content)} bytes")
        if whole_pages and len(content) % self.page_size:
            raise WrongBlockSize(
                f"block must be 1 to {self.pages_per_block} whole pages of "
                f"{self.page_size} bytes, got {len(content)} bytes")

    def _trimmed(self, content: bytes) -> bytes:
        """`content`, 1 to `pages_per_block` whole pages, up to its last
        nonzero page and at least one page: what an overwritten block
        stores (see above)."""
        content = bytes(content)
        self._check_block(content)
        size, end = self.page_size, len(content)
        while end > size and content.count(0, end - size, end) == size:
            end -= size
        return content if end == len(content) else content[:end]

    def _constituent(self, file: str, block_id: int) -> str:
        """Name of an existing block's constituent DFS file."""
        count = self.cluster.meta_block_count(file)
        if not 0 <= block_id < count:
            raise OutOfRange(
                f"block {block_id} of {file} (has {count})")
        return constituent_name(file, block_id)

    def append_block(self, file: str, content: bytes) -> tuple[int, int]:
        """Append `content`, 1 to `block_size` bytes, as the next block
        with one NameNode mutation and cache it (see above). Returns the
        block_id and the file_id of its constituent, so the caller needs
        no NameNode call to learn it."""
        content = bytes(content)
        self._check_block(content, whole_pages=False)
        count = self.cluster.meta_block_count(file)
        name = constituent_name(file, count)
        file_id = self.cluster.create_file(name, content,
                                           meta=file).file_id
        self._cache[name] = (file_id, content)
        return count, file_id

    def overwrite_block(self, file: str, block_id: int,
                        content: bytes) -> None:
        """DFS file remake of one constituent, counted as a remake, or a
        plain create of a missing one, counted in `fills_total`; then
        cache it (see above). The block is `content` up to its last
        nonzero page: a create stores those pages, a remake stores them
        as `_pack_block` packs them, one zlib stream if that is shorter."""
        content = self._trimmed(content)
        name = self._constituent(file, block_id)
        created = not self.cluster.exists(name)
        if created:
            file_id = self.cluster.create_file(name, content).file_id
        else:
            stored = self._pack_block(content)
            new = name + ".new"
            try:
                file_id = self.cluster.create_file(new, stored).file_id
            except AlreadyExists:  # left by a failed remake (see above)
                self.cluster.delete_file(new)
                file_id = self.cluster.create_file(new, stored).file_id
            self.cluster.rename_file(new, name, overwrite=True)
        self._cache[name] = (file_id, content)
        with self._counter_lock:
            if created:
                self.fills_total += 1
                return
            self.remakes_total += 1

    def _pack_block(self, block: bytes) -> bytes:
        """What a remake stores for `block`, whole pages: one zlib stream
        of them (`deflate`) if that is shorter and not a whole number of
        pages, else the pages themselves (see above)."""
        stream = deflate(block)
        if len(stream) < len(block) and len(stream) % self.page_size:
            return stream
        return block

    def _unpack_block(self, entry: DfsFileEntry, stream: bytes) -> bytes:
        """The pages constituent `entry` stores as `stream` (see
        `_pack_block`); RecoveryError naming the constituent unless
        `inflate` reads the stream, whole and at most a block, and it
        decodes to 1 to `pages_per_block` whole pages."""
        block = inflate(stream, self.block_size,
                        f"{entry.name}: stored block")
        if not block or len(block) % self.page_size:
            raise RecoveryError(
                f"{entry.name}: stored block decodes to {len(block)} "
                f"bytes, not 1 to {self.pages_per_block} pages of "
                f"{self.page_size} bytes")
        return block

    def _unpacked(self, entry: DfsFileEntry) -> bytes:
        """The pages of constituent `entry`, stored as a stream: cached
        under its current id, else its stream, read as `_range` reads it,
        so whole with at most one DFS read, unpacked and cached in its
        place (see above)."""
        cached = self._cached(entry.name, entry.file_id)
        if isinstance(cached, bytes) and len(cached) != entry.size_bytes:
            return cached
        block = self._unpack_block(
            entry, self._range(entry, 0, entry.size_bytes))
        self._cache[entry.name] = (entry.file_id, block)
        return block

    def has_constituent(self, file: str, block_id: int) -> bool:
        """Whether a block has a constituent, a hole has none; unlike
        `constituent_entry`, whatever the health of its replicas."""
        return self.cluster.exists(self._constituent(file, block_id))

    def constituent_entry(self, file: str,
                          block_id: int) -> DfsFileEntry | None:
        """The DFS entry of one block's constituent: its file_id, and its
        size, which says where a short block ends. None for a block with
        no constituent."""
        return self.cluster.meta_block_entry(file, block_id)

    def constituent_entries(self, file: str) -> list[DfsFileEntry | None]:
        """The DFS entry of each block's constituent, block 0 first.

        A block's file_id changes exactly when its constituent is remade
        or truncated and appended again, so an unchanged id means
        unchanged content. A block with no constituent is None.
        """
        return self.cluster.meta_block_entries(file)

    def version(self, file: str) -> int:
        """The NameNode's count of mutations that touched the meta file
        (`DfsCluster.meta_version`): unchanged, so are its constituents."""
        return self.cluster.meta_version(file)

    def read_block(self, file: str, block_id: int) -> bytes:
        """The whole block up to its constituent's last page: the cached
        object if this manager wrote or read the whole block under its
        current id, else read whole with one DFS read and cached, and
        unpacked first if the constituent is a stream (see above)."""
        return self._of_current(file, block_id, self._read_block_of)

    def _read_block_of(self, entry: DfsFileEntry | None) -> bytes:
        """The block whose constituent is `entry` (see `read_block`)."""
        if entry is None:
            return bytes(self.block_size)
        if entry.size_bytes % self.page_size:
            return self._unpacked(entry)
        return self._range(entry, 0, entry.size_bytes)

    def read_bytes(self, entry: DfsFileEntry) -> bytes:
        """The bytes of constituent `entry`, an entry the caller already
        holds, whole and as stored, never unpacked: how an appended block
        is read. Served as `_range` serves them, so with at most one DFS
        read, cached, and no NameNode call; NotFound if a DFS read finds
        the constituent replaced since `entry` (see above)."""
        return self._range(entry, 0, entry.size_bytes)

    def truncate_from(self, file: str, block_id: int) -> None:
        """Drop the blocks from `block_id` on with one NameNode mutation,
        none if there are none (see above); OutOfRange past the end."""
        count = self.cluster.meta_block_count(file)
        if block_id == count:
            return
        self.cluster.meta_set_block_count(file, block_id)
        for ordinal in range(block_id, count):
            self._cache.pop(constituent_name(file, ordinal), None)

    # ------------------------------------------------------------------
    # Page addressing
    # ------------------------------------------------------------------

    def read_page(self, file: str, pageid: int) -> bytes:
        """One page (see `read_page_of`)."""
        block_id, offset = divmod(pageid, self.pages_per_block)
        return self._of_current(
            file, block_id, lambda entry: self.read_page_of(entry, offset))

    def _of_current(self, file: str, block_id: int, read):
        """`read` of the entry of block `block_id`'s constituent, looked
        up again for as long as a DFS read finds the constituent replaced
        since (NotFound), so a read racing a remake or a truncate and
        append gets the old block or the new one, never the new one's
        bytes taken for the old one's, which may be a stream where the
        old one held pages."""
        entry = self.constituent_entry(file, block_id)
        while True:
            try:
                return read(entry)
            except NotFound:
                current = self.constituent_entry(file, block_id)
                if current == entry:
                    raise
                entry = current

    def read_page_of(self, entry: DfsFileEntry | None, offset: int) -> bytes:
        """Page `offset` of the block whose constituent is `entry`, an
        entry the caller already holds, so with no NameNode call: zeros
        for a block with no constituent (None) and for a page past the
        block's last; of a constituent of whole pages, served as `_range`
        serves it, else of the stream's pages (`_unpacked`). NotFound if
        a DFS read finds the constituent replaced since `entry`."""
        size = self.page_size
        start = offset * size
        if entry is None:
            return self._zero_page
        if entry.size_bytes % size:
            return self._unpacked(entry)[start:start + size] or \
                self._zero_page
        if start >= entry.size_bytes:
            return self._zero_page
        return self._range(entry, start, start + size)

    def _range(self, entry: DfsFileEntry, start: int, end: int) -> bytes:
        """Bytes [start, end) of constituent `entry`: a slice of the
        cached block if this manager wrote or read the whole block under
        its current id, the cached page if it was read from that
        constituent, else from the DFS, and then cached: as the block if
        the range is the whole constituent (see above)."""
        cached = self._cached(entry.name, entry.file_id)
        if isinstance(cached, bytes):
            if len(cached) == entry.size_bytes:
                return cached[start:end]
            # a stream's pages: its own bytes are read, not cached
            return self.cluster.read_range(entry.name, start, end - start,
                                           entry.file_id)
        if cached is None:
            cached = {}
            self._cache[entry.name] = (entry.file_id, cached)
        data = cached.get((start, end))
        if data is None:
            data = self.cluster.read_range(entry.name, start, end - start,
                                           entry.file_id)
            if end - start == entry.size_bytes:
                self._cache[entry.name] = (entry.file_id, data)
            else:
                cached[start, end] = data
        return data

    def _cached(self, name: str, file_id: int
                ) -> bytes | dict[tuple[int, int], bytes] | None:
        """What is cached for constituent `name`, the block or the pages
        read, if it was cached under `file_id`, its current id; else None
        (see above)."""
        entry = self._cache.get(name)
        if entry is None or entry[0] != file_id:
            return None
        return entry[1]
