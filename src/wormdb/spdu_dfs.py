"""Shadow-page deferred-update recovery adapted to meta DFS files.

Differences from the flat-file method it adapts (kept as a test oracle in
`tests/oracles.py`), all driven by the DFS block being much larger than a
page and files being write-once:

* Updated pages accumulate in a block update buffer of up to one DFS
  block less a page; the buffer is appended to the live log generation
  when full or at commit. Old log copies of a page are superseded (never
  overwritten in place) and last-wins resolution happens at post-commit
  time.
* Each appended log block is short: a body, its buffered pages in
  arrival order encoded as below and compressed as one zlib stream
  with its window as the preset dictionary (below), then its footer,
  raw, with no padding. The footer is the ordered list
  of pageids in the block, then a fixed part, FOOTER_FIXED_SIZE bytes
  that end the block: the page count, a commit_complete flag and a
  checksum. A block with commit_complete TRUE marks that it and every
  earlier block hold only committed data (write transactions are
  serial). A reader finds the
  footer from the block's end: the last FOOTER_FIXED_SIZE + 8(N - 1)
  bytes, or the whole block if it is shorter, hold any footer, so one
  read of them gives it. A fixed part that lists more pages than those
  bytes hold, a checksum mismatch and a counted log block with no
  constituent, which a meta file would read as zeros, fail alike.
  Data blocks stay page-addressable: the meta-file layer stores the
  blocks a batch remakes as zlib streams where that is shorter, and
  serves their pages as it serves any other
  (`wormdb.metafile`), so the store reads and XORs raw pages alike.
* A log block's body holds, in its footer's order, each page as
  logged, then the base of each page, 8 bytes a page: 0 for a page
  logged raw, else the file_id of its home, the constituent of its data
  block, which the page was XORed with, as LLAMA logs page deltas
  (Levandoski, Lomet & Sengupta, VLDB 2013). A page is XORed when that
  leaves at most half its nonzero bytes, as an update in place does; a
  page unlike its home, a fresh index segment over a freed extent, is
  raw. So is a page whose home is a hole or has every replica dead, so a
  commit does not fail for a dead home. Homes are read through the
  manager's cache, each home's entry once per log block encoded or
  decoded. A base that is home's current file_id decodes by XOR with
  home. Any other nonzero base names a home that a batch remade before
  it stopped short of its commit (a successful batch leaves no page of
  a block it remade in the log). That batch wrote home the
  newest committed copy of each page it found logged, and every copy
  logged since names the new id, so home holds the very copy the index
  names, and the reader reads home. A base is never handed out again
  while its delta is in the table: the log block that holds the delta
  was created after its base, so its id is larger, and a DfsCluster,
  one reopened over a root too, hands out ids above every id in its
  table. Reading a delta needs its home: AllReplicasDead while every
  replica of home is dead.
* A generation is one deflate context. A block's window is the last
  32 KB, deflate's whole window, of the bodies of the blocks before it
  in its generation, oldest first, each as `unpack_body` returns it,
  the pages as logged and their bases; block 0, the g+1 a batch starts
  included, has none (`unpack_log`). A body is compressed with its
  window as its zlib preset dictionary (RFC 1950), by the package's one
  codec (`wormdb.pagefmt.deflate` and `inflate`), so a commit that
  logs a page again, a heap's tail page or the catalog, refers back to
  its previous copy; an empty window, block 0's, names none. The zlib
  header says whether a stream takes a dictionary (FDICT) and names it
  (DICTID, its adler32), so the format has no field of its own: a block
  written before blocks took one decodes alone whatever its window, and
  a block given a wrong window fails zlib's check. The writer keeps the
  window that follows the last block it appended, valid while the
  generation's NameNode version is the one its append left, so a commit
  reads nothing for it. After a rebuild, a truncate, a peer's append or
  a restart the window is replayed: the blocks before it are read and
  decompressed in order, from block 0 or from the newest block the
  store's window follows. A replay XOR-decodes nothing, so it reads no
  home, and the store keeps only its last window, 32 KB.
* A log copy of a page is a slice of its block's decoded body, the
  pages themselves. Each store keeps bodies keyed by the constituent's
  file_id, which the NameNode never reuses, and drops them whenever its
  index is replaced, so they are at most the raw log: the pages of each
  block it appends, and the decoded body of any other block when a page
  of it is first read, which replays the block's window first. A body
  that fails zlib's check with its window or decodes to other than its
  listed pages and their bases is a torn block too, and so fails every
  block after it in its generation.
* The log is a sequence of generations, each a meta file of its own,
  `generation_name(log, g)`, whose blocks 0, 1, ... are log blocks. The
  NameNode's registry is the one record of which generations exist,
  and the lowest registered one is the live generation
  (`log_generations`); the log has no meta file of its own. A name
  under the log's prefix counts as a generation only if its suffix is
  all digits, so the meta files of a database named under it are never
  read as one. A root whose log was a master meta file, with
  generations named `gen1`, `gen2`, ..., has no generation, and opening
  its store fails with RecoveryError.
* Post-commit processing is batched: pages from committed log blocks are
  grouped by target data block. A batch registers generation g+1,
  appends to it the pages of the data blocks it carries (below), all
  commit-marked, and remakes every other dirtied data block exactly
  once. One `delete_meta` then drops g, one NameNode mutation, as
  deleting a directory is one edit in HDFS (Shvachko et al., MSST
  2010): that drop is the batch's one commit point, as an atomic root
  switch is in shadow paging (Lorie, TODS 1977) and a checkpoint-region
  write is for LFS cleaning (Rosenblum & Ousterhout, TOCS 1992), and
  the store adopts g+1 only once it returns. Until the drop g is the
  lowest generation and holds the newest copy of every page, and a
  remade block only pages' newest copies, so a batch that stops before
  it is abandoned, and the next batch, which the same log bytes
  trigger, drops the g+1 it left and does its work; after it g+1 is
  live and holds the newest copy of every page no remade block holds.
  Restart drops every generation but the lowest, the g+1 an abandoned
  batch left, and truncates the live generation's uncommitted tail: it
  writes no page. It then replays the committed blocks' windows from
  block 0, which checks that the body of each unpacks with its window
  (`unpack_body`), so it never finds clean a log whose pages cannot be
  read; it decodes no delta, so a home whose replicas are all dead does
  not fail it. A commit runs the batch once the live
  generation holds more than `post_commit_threshold` full blocks' worth
  of bytes, counted raw: page_size + 8 a logged page and
  FOOTER_FIXED_SIZE a block, however the block encodes.
* Which data blocks a batch carries is a rent-or-buy choice counted in
  raw pages (Karlin et al., "Competitive Snoopy Caching", Algorithmica
  1988), the cost-benefit cleaning of a log-structured file system
  (Rosenblum & Ousterhout, TOCS 1992). Carrying a block's n logged
  pages costs n pages; remaking it costs a whole block of
  `pages_per_block`. Both are counted raw, though a carried page is
  compressed with its log block and a remake stores its block as a
  zlib stream where that is shorter, so the choice prices neither as
  stored. The store keeps a credit per data block, the page
  copies of that block it has carried so far, in memory. A block rides
  into g+1 while credit + n < pages_per_block; otherwise it is remade
  and its credit dropped. Blocks with the fewest pages are carried
  first, and the carried pages stay within half the trigger's raw bytes,
  so each batch frees room for new commits, a batch at threshold 0
  carries nothing, and the live generation never holds more than the
  trigger plus what one commit appends. A restart forgets the credits,
  which can only delay a remake.
* The log table index maps pageid -> (block_id, slot), the page's
  place in its block's body in the live generation. Invariant: it
  covers the generation's committed prefix (up to the newest
  commit_complete block) plus the blocks the store's own open
  transaction has flushed.
  `begin_transaction`, which restart also runs, restores it from
  footers only. Writers are serialised by the database lock, so at a
  write begin any block past the committed prefix is garbage a failed
  commit left, and one truncate drops it.
  A begin reads the live generation's NameNode version
  (`MetaDfsManager.version`), which dropping the generation moves too.
  Only if it moved since the index last matched it and the generation
  is no longer registered does the store list the generations and open
  the lowest, which a peer's batch made live. It keeps the index while
  the version is the one the index last matched and the index has
  folded no block past the committed prefix, so a warm begin makes one
  version call. Otherwise it looks up every block's constituent, reads
  every footer and folds the committed prefix into a fresh index, which
  it keeps only once every footer has read, so a counted block with no
  constituent fails each begin, a warm one included. Each append
  follows the live generation too, so a store that writes with no
  begin appends to the live generation, never to one a batch dropped,
  and a transaction that appended to a generation another store's
  batch has since dropped fails with LogMoved. A batch's g+1 is never
  the lowest while g is registered, so no store follows into it before
  the batch commits. The footers are read through the manager's cache,
  which serves a block's bytes while its constituent's file_id is
  unchanged, so a rebuild reads from the DFS only the footers of blocks
  new to the manager. The store's own append, and a writer's truncate
  of the tail, keep the index matched when the version moved by that
  call alone and the index had folded every block before it, and a
  batch leaves the index of the carried pages matched to g+1, which no
  other store reads before the drop of g, so a database's store
  rebuilds only at its first begin, after a failed commit, or after
  another process changed the log.
* A data block that no committed transaction has written is written in
  place at commit, not logged: shadow paging protects only the pages the
  committed root can reach (Lorie, "Physical Integrity in a Large
  Segmented Database", TODS 1977). Such a block has no constituent (a
  hole in the sparse data meta file) and no page in the log table index,
  so no committed state reaches it, and the store checks both itself.
  The first page a transaction writes to a data block decides where the
  whole block goes, and the decision holds for the rest of the
  transaction: an in-place block starts empty, takes the transaction's
  stamped pages, zeros between them, and is created before the
  commit-marked block is appended, up to its last page (see
  `wormdb.metafile`). A stamped page depends only on its pageid and
  payload, so the block reads as the bytes a batch would have written.
  A stamped page is never all zeros (its header holds its payload's
  crc32, which is not 0 for a zero payload), so a data block's
  constituent ends at the last page a transaction wrote to it, and a
  page past that end, like a page of a hole, is logged whole against
  the zeros it reads as. A failure before
  the marker leaves bytes only in a block no committed state names; the
  block now has a constituent, so later transactions log it. The hole
  test does not look at replica health, so a block whose replicas are
  all dead is logged, raw, as any written block is.

The store holds its data file and its log by name, and the data file's
registered block count, which `create_data_meta` sets from the
engine's page count, is its only page-id bound: the meta-file layer
finds a page below 0 or past the last block OutOfRange, and a write
looks its block up before it stamps the page.

One instance per database, shared by its sessions as the manager's
cache is: the index, the decoded bodies and the window are the
database's. The write state (the buffer and the in-place blocks) is
the open writer's: a writer's begin, its commit and the end of its
session run `end_transaction`, and a reader's begin leaves it. Reads
and writes of a database exclude each other except where an owner
upgrades its own read, so an owner's read may see that owner's own open
write, and no other owner's read overlaps a write. Readers that begin at once rebuild
the index once, under one lock. The body memo and the window take no
lock: a race costs one more decode or replay, since the window is
replaced whole, with the block it follows.
"""

from __future__ import annotations

import struct
import threading
import zlib

from .dfs import DfsFileEntry
from .errors import AllReplicasDead, LogMoved, RecoveryError
from .faults import NULL_INJECTOR, FaultInjector
from .metafile import MetaDfsManager
from .pagefmt import deflate, inflate, stamp_page

_FOOTER_FIXED = struct.Struct("<IBQ")  # page_count, commit_complete, checksum
FOOTER_FIXED_SIZE = _FOOTER_FIXED.size  # 13 bytes
_WINDOW = 32 * 1024  # deflate's window, the most of a dictionary it reads
DEFAULT_POST_COMMIT_THRESHOLD = 64
_NO_WINDOW = (0, b"", None)  # a store's window before it follows a block
_FIRST_GENERATION = 1


def _footer_size(pages: int) -> int:
    return FOOTER_FIXED_SIZE + 8 * pages


def pack_footer(pageids: list[int], commit_complete: bool) -> bytes:
    """The footer of a log block: 8 bytes a page, then the
    FOOTER_FIXED_SIZE bytes that end the block."""
    body = struct.pack(f"<{len(pageids)}Q", *pageids)
    crc = zlib.crc32(
        struct.pack("<IB", len(pageids), int(commit_complete)) + body)
    return body + _FOOTER_FIXED.pack(len(pageids), int(commit_complete), crc)


def unpack_footer(tail: bytes) -> tuple[list[int], bool]:
    """(pageids, commit_complete) of the footer that ends `tail`;
    RecoveryError unless `tail` holds the pages it lists and its checksum
    matches."""
    if len(tail) < FOOTER_FIXED_SIZE:
        raise RecoveryError(f"{len(tail)} bytes hold no log block footer")
    count, complete, crc = _FOOTER_FIXED.unpack_from(
        tail, len(tail) - FOOTER_FIXED_SIZE)
    if _footer_size(count) > len(tail):
        raise RecoveryError(
            f"log block footer lists {count} pages in {len(tail)} bytes")
    body = tail[len(tail) - _footer_size(count):-FOOTER_FIXED_SIZE]
    actual = zlib.crc32(struct.pack("<IB", count, complete) + body)
    if actual != crc:
        raise RecoveryError(
            f"log block footer checksum mismatch: "
            f"stored {crc:#x}, computed {actual:#x}")
    return list(struct.unpack(f"<{count}Q", body)), bool(complete)


def unpack_body(block: bytes, page_size: int, window: bytes = b"") -> bytes:
    """The body of log block `block`, decompressed: its pages as logged,
    in its footer's order, then their bases (see above); RecoveryError
    unless the bytes before the footer are one zlib stream, ending
    where the footer starts, that passes zlib's own check (`inflate`,
    which decodes no more than the footer lists), in which a
    stream that names a dictionary must name `window`, the block's
    window (`unpack_log`), and decompress to exactly the pages and bases
    the footer lists. A stream that names none ignores `window`."""
    pageids, _ = unpack_footer(block)
    end = len(block) - _footer_size(len(pageids))
    size = len(pageids) * (page_size + 8)
    body = inflate(memoryview(block)[:end], size, "log block body", window)
    if len(body) != size:
        raise RecoveryError(
            f"log block body decodes to {len(body)} bytes, not the "
            f"{len(pageids)} pages of {page_size} bytes and their bases "
            f"its footer lists")
    return body


def _next_window(window: bytes, body: bytes) -> bytes:
    """The window that follows a log block whose body is `body` and
    whose window was `window`: the last _WINDOW bytes of the two."""
    return (window + body[-_WINDOW:])[-_WINDOW:]


def unpack_log(blocks, page_size: int, window: bytes = b""):
    """Yield (body, window) for each of `blocks`, consecutive log blocks
    of one generation given oldest first: its body, unpacked
    (`unpack_body`) with the window that precedes it, `window` for the
    first, which is b"" for block 0; and the window that follows it,
    the next block's zlib dictionary (see above)."""
    for block in blocks:
        body = unpack_body(block, page_size, window)
        window = _next_window(window, body)
        yield body, window


def _log_block(pageids: list[int], body: bytes, window: bytes,
               commit_complete: bool) -> bytes:
    """A log block: `body` compressed with `window` as its zlib
    dictionary (`deflate`), then the footer."""
    return deflate(body, window) + pack_footer(pageids, commit_complete)


def _xor(a: bytes, b: bytes) -> bytes:
    """`a` XOR `b`, two strings of one length."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
            ).to_bytes(len(a), "little")


def _generation_prefix(log_name: str) -> str:
    return f"{log_name}/g"


def generation_name(log_name: str, generation: int) -> str:
    """The meta file of generation `generation` of log `log_name`."""
    return f"{_generation_prefix(log_name)}{generation}"


def log_generations(manager: MetaDfsManager, log_name: str) -> list[int]:
    """The registered generations of log `log_name`, lowest, the live
    one, first: the meta files under its prefix whose suffix is all
    digits (see above)."""
    prefix = _generation_prefix(log_name)
    suffixes = [name[len(prefix):] for name in manager.meta_names(prefix)]
    return sorted(int(suffix) for suffix in suffixes
                  if suffix.isascii() and suffix.isdigit())


def create_log_meta(manager: MetaDfsManager, name: str) -> None:
    """Create log `name`: register its first generation, empty, which is
    then its live generation."""
    manager.create_meta(generation_name(name, _FIRST_GENERATION))


def create_data_meta(manager: MetaDfsManager, name: str, total_pages: int,
                     first_page: bytes) -> None:
    """Create a sparse data meta file of the blocks that hold
    `total_pages` pages: page 0 holds `first_page`, and only its block is
    written, as that one page; every other page reads as zeros until it
    is written. The file's block count is the store's page-id bound."""
    n = manager.pages_per_block
    manager.create_sparse_meta(name, (total_pages + n - 1) // n, first_page)


def _drop_generations(manager: MetaDfsManager, log_name: str,
                      generations: list[int]) -> None:
    for generation in generations:
        manager.delete_meta(generation_name(log_name, generation))


def discard_metas(manager: MetaDfsManager, data_name: str,
                  log_name: str) -> None:
    """Delete whichever meta files of a database exist: its data file and
    every registered generation of its log, each in one NameNode
    mutation, so that a discard that fails can run again."""
    if manager.exists(data_name):
        manager.delete_meta(data_name)
    _drop_generations(manager, log_name,
                      log_generations(manager, log_name))


def _compress_bound(size: int) -> int:
    """The most bytes zlib takes for `size` input bytes at any level
    with a dictionary: zlib's compressBound and the 4-byte DICTID that
    names the dictionary in the stream's header (zlib's deflateBound)."""
    return size + (size >> 12) + (size >> 14) + (size >> 25) + 13 + 4


def check_log_geometry(page_size: int, pages_per_block: int) -> None:
    """Raise ValueError unless a log block of this geometry holds at least
    one page, and a full buffer, every page of a block but one, fits in
    a block with its bases and footer even when its pages do not
    compress, with a dictionary or without."""
    if pages_per_block < 2:
        raise ValueError("need at least two pages per block")
    pages = pages_per_block - 1
    if _compress_bound(pages * (page_size + 8)) + _footer_size(pages) > \
            pages_per_block * page_size:
        raise ValueError(
            f"{pages} incompressible pages of {page_size} bytes, their "
            f"bases and their footer do not fit in a block of "
            f"{pages_per_block} pages")


def _fold(index: dict[int, tuple[int, int]], footers) -> None:
    """Map each pageid to its (block_id, slot) in `index`, over
    (block_id, pageids) pairs given oldest first, so the newest copy of a
    page wins."""
    for block_id, pageids in footers:
        for slot, pageid in enumerate(pageids):
            index[pageid] = (block_id, slot)


class DfsTransactionStore:
    """A database's page store with deferred post-commit over meta DFS
    files, shared by its sessions (see above)."""

    def __init__(self, manager: MetaDfsManager, data: str, log_name: str,
                 post_commit_threshold: int = DEFAULT_POST_COMMIT_THRESHOLD,
                 faults: FaultInjector = NULL_INJECTOR):
        check_log_geometry(manager.page_size, manager.pages_per_block)
        self.manager = manager
        self.data = data
        self.log_name = log_name
        self.page_size = manager.page_size
        self.pages_per_block = manager.pages_per_block
        self.post_commit_threshold = post_commit_threshold
        self.faults = faults
        self.index: dict[int, tuple[int, int]] = {}
        self._folded = 0  # the log blocks folded into the index
        self._blocks = 0  # the live generation's blocks, as last seen
        # raw bytes (see `_raw_bytes`) of the committed prefix and of the
        # blocks appended since
        self._log_bytes = 0
        self._committed = 0  # the blocks up to the newest commit_complete
        # the live generation's NameNode version when the index last
        # matched it
        self._seen_version = -1
        self._capacity = self.pages_per_block - 1
        # constituent file_id -> the decoded body of a log block
        self._bodies: dict[int, bytes] = {}
        # (file_id, window, at): the window that follows the log block
        # whose constituent is file_id (0 for none), and the live
        # generation's (name, version) while that block is its last
        self._window: tuple[int, bytes, tuple[str, int] | None] = \
            _NO_WINDOW
        # data block -> the page copies of it the batches have carried
        self._credits: dict[int, int] = {}
        self._rebuild_lock = threading.Lock()
        self._open_lowest()  # the live generation, as `self.log`
        self.end_transaction()

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------

    def write_page(self, pageid: int, page_data: bytes) -> None:
        """Stamp the page and hold it for commit. The first page the
        transaction writes to a data block decides where the whole block
        goes: in place if no committed transaction has written it (see
        above), else to the log. That lookup comes first, so a page
        outside the data file's blocks is OutOfRange before it is
        stamped."""
        if len(page_data) != self.page_size:
            raise ValueError("page must be exactly page_size bytes")
        block_id = pageid // self.pages_per_block
        in_place = self._in_place.get(block_id)
        if in_place is None and self._unwritten(block_id):
            in_place = self._in_place[block_id] = {}
        page = stamp_page(pageid, page_data)
        if in_place is not None:
            in_place[pageid] = page
            return
        # a rewritten page keeps its place in the insertion-ordered buffer
        self._pages[pageid] = page
        if len(self._pages) == self._capacity:
            self.faults.hit("dfs.write.before_auto_flush")
            self.flush_buffer(mark_commit=False)

    def _unwritten(self, block_id: int) -> bool:
        """Whether no committed transaction has written data block
        `block_id`: it has no constituent, whatever its replicas' health,
        and no page in the log table index or the buffer."""
        first = block_id * self.pages_per_block
        return not any(
            pageid in self.index or pageid in self._pages
            for pageid in range(first, first + self.pages_per_block)
        ) and not self.manager.has_constituent(self.data, block_id)

    def read_page(self, pageid: int) -> bytes:
        """The page as the open transaction sees it; OutOfRange outside
        the data file's blocks."""
        page = self._pages.get(pageid)
        if page is not None:
            return page
        in_place = self._in_place.get(pageid // self.pages_per_block)
        if in_place is not None:
            return in_place.get(pageid, bytes(self.page_size))
        if pageid in self.index:
            return self._log_copy(pageid)
        return self.manager.read_page(self.data, pageid)

    def _log_copy(self, pageid: int) -> bytes:
        """The log copy of a page the index holds: a slice of its block's
        decoded body."""
        block_id, slot = self.index[pageid]
        start = slot * self.page_size
        return self._body(block_id)[start:start + self.page_size]

    def _body(self, block_id: int) -> bytes:
        """The decoded body of log block `block_id`: the pages the store
        appended, or decoded once per constituent (see above)."""
        entry = self._log_entry(
            block_id, self.manager.constituent_entry(self.log, block_id))
        body = self._bodies.get(entry.file_id)
        if body is None:
            window = self._window_of(
                self.manager.constituent_entries(self.log), block_id) \
                if block_id else b""
            block = self.manager.read_bytes(entry, 0)
            encoded = unpack_body(block, self.page_size, window)
            self._window = (
                entry.file_id, _next_window(window, encoded), None)
            body = self._bodies[entry.file_id] = self._decoded(
                unpack_footer(block)[0], encoded)
        return body

    def _window_of(self, entries: list[DfsFileEntry | None],
                   block_id: int) -> bytes:
        """The window that precedes log block `block_id` of the live
        generation, whose constituents are `entries`: the store's own if
        it follows block `block_id - 1`, else replayed, decompressed
        only, from the block after the newest earlier block it follows,
        or from block 0 (see above); the store's window then follows
        block `block_id - 1`."""
        after, window, _ = self._window
        start = block_id
        while start and (entries[start - 1] is None or
                         entries[start - 1].file_id != after):
            start -= 1
        if start == block_id:
            return window if block_id else b""
        blocks = (self.manager.read_bytes(self._log_entry(k, entries[k]), 0)
                  for k in range(start, block_id))
        for _, window in unpack_log(blocks, self.page_size,
                                    window if start else b""):
            pass
        self._window = (entries[block_id - 1].file_id, window, None)
        return window

    def _decoded(self, pageids: list[int], body: bytes) -> bytes:
        """The pages of a log block's decompressed `body`, listed as
        `pageids`, each decoded by its base (see above)."""
        size = self.page_size
        bases = struct.unpack_from(
            f"<{len(pageids)}Q", body, len(pageids) * size)
        homes: dict[int, DfsFileEntry | None] = {}
        pages = []
        for slot, (pageid, base) in enumerate(zip(pageids, bases)):
            page = body[slot * size:(slot + 1) * size]
            if base:
                block_id, offset = divmod(pageid, self.pages_per_block)
                if block_id not in homes:
                    homes[block_id] = self.manager.constituent_entry(
                        self.data, block_id)
                home = homes[block_id]
                home_page = self.manager.read_page_of(home, offset)
                page = _xor(page, home_page) \
                    if home is not None and base == home.file_id \
                    else home_page
            pages.append(page)
        return b"".join(pages)

    def _encoded(self, pageids: list[int], pages: list[bytes]) -> bytes:
        """The body of a log block of `pages`, listed as `pageids`: each
        page raw or XORed with its home page, then the bases (see
        above)."""
        homes: dict[int, DfsFileEntry | None] = {}
        logged, bases = [], []
        for pageid, page in zip(pageids, pages):
            block_id, offset = divmod(pageid, self.pages_per_block)
            if block_id not in homes:
                try:
                    homes[block_id] = self.manager.constituent_entry(
                        self.data, block_id)
                except AllReplicasDead:
                    homes[block_id] = None
            home, base = homes[block_id], 0
            if home is not None:
                delta = _xor(page, self.manager.read_page_of(home, offset))
                if 2 * (len(delta) - delta.count(0)) <= \
                        len(page) - page.count(0):
                    page, base = delta, home.file_id
            logged.append(page)
            bases.append(base)
        return b"".join(logged) + struct.pack(f"<{len(bases)}Q", *bases)

    # ------------------------------------------------------------------
    # Log maintenance
    # ------------------------------------------------------------------

    def flush_buffer(self, mark_commit: bool) -> int:
        """Append the buffer as one short log block: its pages in arrival
        order, each whole or XORed with its home, compressed, then the
        footer, to the generation that is live now (see
        `_follow_for_append`). Returns the block_id."""
        version = self._follow_for_append()
        window = self._append_window(version)
        pageids, pages = list(self._pages), list(self._pages.values())
        self.faults.hit("dfs.flush.before_block_append")
        block_id, file_id, window = self._append(
            self.log, pageids, pages, window, mark_commit)
        self._changed_alone(block_id)
        self._bodies[file_id] = b"".join(pages)
        # an append is one NameNode mutation of the generation
        self._window = (file_id, window, (self.log, version + 1))
        self._log_bytes += self._raw_bytes(len(pageids), 1)
        if mark_commit:
            self._committed = block_id + 1
        _fold(self.index, ((block_id, pageids),))
        self._folded = self._blocks = block_id + 1
        self._flushed = True
        self.faults.hit("dfs.flush.after_block_append")
        self._pages = {}
        return block_id

    def _append(self, log: str, pageids: list[int], pages: list[bytes],
                window: bytes, commit_complete: bool
                ) -> tuple[int, int, bytes]:
        """Append a log block of `pages`, listed as `pageids`, to
        generation `log`, whose last block `window` follows: each page
        whole or XORed with its home, compressed with `window`, then the
        footer. Returns the block_id, the file_id of its constituent and
        the window that follows it."""
        encoded = self._encoded(pageids, pages)
        block_id = self.manager.append_block(
            log, _log_block(pageids, encoded, window, commit_complete))
        file_id = self.manager.constituent_entry(log, block_id).file_id
        return block_id, file_id, _next_window(window, encoded)

    def _append_window(self, version: int) -> bytes:
        """The window that precedes the next block appended to the live
        generation, whose version is `version`: with no NameNode call if
        the store's own append left the generation at that version, or
        the index matches the generation and it is empty; else replayed
        (`_window_of`)."""
        _, window, at = self._window
        if at == (self.log, version):
            return window
        if version == self._seen_version and not self._blocks:
            return b""
        entries = self.manager.constituent_entries(self.log)
        return self._window_of(entries, len(entries))

    def _follow_for_append(self) -> int:
        """Follow the live generation before an append, so that a store
        that writes with no begin after another store's batch appends to
        the generation that batch made live, never to the one it
        dropped; the store then rebuilds its index from that generation.
        LogMoved if the open transaction already appended to the old
        generation: those pages cannot follow it. Returns the live
        generation's version: one NameNode version call while the index
        matches the log."""
        generation = self.generation
        version = self._follow()
        if self.generation == generation:
            return version
        if self._flushed:
            raise LogMoved(
                f"log generation {generation} was replaced by "
                f"{self.generation} under an open transaction")
        self.reconstruct_log_table_index()
        return self._seen_version

    # ------------------------------------------------------------------
    # Transaction boundaries
    # ------------------------------------------------------------------

    def begin_transaction(self, write: bool) -> None:
        """Index the live generation's committed prefix. A writer also
        ends the transaction the store held and truncates the generation
        to the prefix, which makes no NameNode call when there is no
        tail; a reader leaves the write state (see above)."""
        with self._rebuild_lock:
            self.reconstruct_log_table_index()
        if write:
            self.end_transaction()
            # drop the blocks a failed commit left past the prefix
            if self._blocks > self._committed:
                self.manager.truncate_from(self.log, self._committed)
                self._changed_alone(self._committed)
                self._blocks = self._committed

    def end_transaction(self) -> None:
        """Drop the write state: the buffer and the in-place blocks.
        Makes no DFS call."""
        # pageid -> stamped page, in arrival order
        self._pages: dict[int, bytes] = {}
        # block_id -> {pageid: stamped page} of each block to write in
        # place at commit, over zeros
        self._in_place: dict[int, dict[int, bytes]] = {}
        self._flushed = False  # whether the transaction appended a block

    def commit_transaction(self) -> None:
        """Write the in-place blocks, then append the commit-marked
        block, at which the transaction is durable; post-commit is
        deferred until the live generation holds more than
        `post_commit_threshold` blocks' worth of bytes, as the store saw
        it at its begin and has appended since (at threshold 0 it runs
        at every commit, since the marker is a footer)."""
        for block_id in sorted(self._in_place):
            # a block's pages are dropped as it is written, so that no
            # block is held twice
            pages = self._in_place.pop(block_id).items()
            self.faults.hit("dfs.commit.before_direct_block")
            self.manager.overwrite_block(
                self.data, block_id, self._patched(b"", pages))
            self.faults.hit("dfs.commit.after_direct_block")
        self.faults.hit("dfs.commit.before_marker")
        self.flush_buffer(mark_commit=True)
        self.faults.hit("dfs.commit.after_marker")
        self.end_transaction()
        if self._log_bytes > self._trigger_bytes():
            self.faults.hit("dfs.commit.before_threshold_batch")
            self.batch_post_commit()
            self.faults.hit("dfs.commit.after_batch")

    def batch_post_commit(self) -> int:
        """Copy committed log pages home, one remake per data block the
        policy does not carry, and carry the others' pages into the next
        generation (see above).

        Returns the number of data blocks remade. The drop of g is the
        batch's one commit point, and the store adopts g+1 only once it
        returns. The index, brought to the committed prefix first, names
        the newest copy of each page in g, which a batch that stops
        before the drop leaves live: that batch is abandoned, and the
        next one does its work.
        """
        self.faults.hit("dfs.batch.begin")
        self.reconstruct_log_table_index()
        by_data_block: dict[int, list[int]] = {}
        for pageid in sorted(self.index):
            by_data_block.setdefault(
                pageid // self.pages_per_block, []).append(pageid)
        carried = self._carried(by_data_block)
        self._drop_newer_generations()
        successor = generation_name(self.log_name, self.generation + 1)
        self.manager.create_meta(successor)
        pageids = [pageid for data_block in sorted(carried)
                   for pageid in by_data_block[data_block]]
        index, bodies, window = self._carry(successor, pageids)

        remade = sorted(by_data_block.keys() - carried)
        for data_block in remade:
            content = self._patched(
                self.manager.read_block(self.data, data_block),
                ((pageid, self._log_copy(pageid))
                 for pageid in by_data_block[data_block]))
            self.faults.hit("dfs.batch.before_block_remake")
            self.manager.overwrite_block(self.data, data_block, content)
            self.faults.hit("dfs.batch.after_block_remake")

        self.faults.hit("dfs.batch.before_generation_drop")
        self.manager.delete_meta(self.log)
        self.faults.hit("dfs.batch.after_generation_drop")
        # no other store reads the successor before g's drop made it the
        # lowest, so its version is the one the carried pages' index
        # matches
        self.log = successor
        self.generation += 1
        self.index, self._bodies = index, bodies
        blocks = len(bodies)
        self._folded = self._blocks = self._committed = blocks
        self._log_bytes = self._raw_bytes(len(pageids), blocks)
        self._seen_version = self.manager.version(successor)
        self._window = (*window, (successor, self._seen_version))
        for data_block, logged in by_data_block.items():
            if data_block in carried:
                self._credits[data_block] = \
                    self._credits.get(data_block, 0) + len(logged)
            else:
                self._credits.pop(data_block, None)
        return len(remade)

    def _carry(self, successor: str, pageids: list[int]
               ) -> tuple[dict[int, tuple[int, int]], dict[int, bytes],
                          tuple[int, bytes]]:
        """Append the log copies of `pageids` to generation `successor` in
        commit-marked blocks of up to a buffer's pages; returns their
        index, their bodies by constituent file_id, and the file_id of
        the last with the window that follows it."""
        index: dict[int, tuple[int, int]] = {}
        bodies: dict[int, bytes] = {}
        file_id, window = 0, b""
        for first in range(0, len(pageids), self._capacity):
            chunk = pageids[first:first + self._capacity]
            copies = [self._log_copy(pageid) for pageid in chunk]
            self.faults.hit("dfs.batch.before_carry_append")
            block_id, file_id, window = self._append(
                successor, chunk, copies, window, True)
            bodies[file_id] = b"".join(copies)
            _fold(index, ((block_id, chunk),))
            self.faults.hit("dfs.batch.after_carry_append")
        return index, bodies, (file_id, window)

    def _carried(self, by_data_block: dict[int, list[int]]) -> set[int]:
        """The data blocks whose logged pages ride into the next
        generation: those whose credit plus logged pages stay below a
        block's pages, fewest pages first, while the carried pages take
        at most half the trigger's raw bytes (see above)."""
        budget = self._trigger_bytes() // 2
        carried: set[int] = set()
        pages = 0
        for data_block, logged in sorted(
                by_data_block.items(), key=lambda item: len(item[1])):
            if self._credits.get(data_block, 0) + len(logged) >= \
                    self.pages_per_block:
                continue
            total = pages + len(logged)
            if self._raw_bytes(total, -(-total // self._capacity)) > budget:
                break
            carried.add(data_block)
            pages = total
        return carried

    def _drop_newer_generations(self) -> None:
        """Drop every registered generation but the lowest, the live one:
        the g+1 a batch that stopped before its commit left (see
        above)."""
        _drop_generations(self.manager, self.log_name,
                          log_generations(self.manager, self.log_name)[1:])

    def restart_system(self) -> str:
        """Recover after a crash; returns the path `recovery_state()`
        chose: "rollback" or, when it found nothing to do, "clean". Drops
        every generation but the live one, the lowest, then truncates its
        uncommitted tail, as a writer's begin does; it writes no page.
        RecoveryError if a committed block's body does not unpack with
        its window (see `unpack_body`): each is replayed from block 0,
        decompressed, not decoded, so no home is read and of them only
        the window that follows the last is kept."""
        self.faults.hit("dfs.restart.begin")
        self._drop_newer_generations()
        path = self.recovery_state() or "clean"
        self.begin_transaction(write=True)
        self._window = _NO_WINDOW
        self._window_of(self.manager.constituent_entries(self.log),
                        self._committed)
        self.faults.hit("dfs.restart.done")
        return path

    def reconstruct_log_table_index(self) -> None:
        """Bring the index to the live generation's committed prefix:
        keep it while that generation's version is the one it last
        matched and it has folded no block past the committed prefix,
        else rebuild it from every footer (see the module docstring). A
        rebuild that fails leaves the store unmatched, so the next one
        tries again."""
        version = self._follow()
        if version == self._seen_version and \
                self._folded <= self._committed:
            return
        footers = self.footers()
        committed = max((block_id + 1 for block_id, (_, complete)
                         in footers.items() if complete), default=0)
        prefix = [(block_id, footers[block_id][0])
                  for block_id in range(committed)]
        index: dict[int, tuple[int, int]] = {}
        _fold(index, prefix)
        pages = sum(len(pageids) for _, pageids in prefix)
        self.index, self._bodies, self._blocks = index, {}, len(footers)
        self._folded = self._committed = committed
        self._log_bytes = self._raw_bytes(pages, committed)
        self._seen_version = version

    def _follow(self) -> int:
        """The live generation's NameNode version, after opening the
        lowest registered generation if the version moved since the index
        last matched it and the generation the store reads is no longer
        registered: a peer's batch dropped it (see above)."""
        version = self.manager.version(self.log)
        if version == self._seen_version or \
                self.manager.exists(self.log):
            return version
        self._open_lowest()
        return self.manager.version(self.log)

    def _open_lowest(self) -> None:
        """Open the lowest registered generation, the live one, as
        `self.log`, which leaves the index unmatched; RecoveryError if
        the log has none."""
        generations = log_generations(self.manager, self.log_name)
        if not generations:
            raise RecoveryError(f"log {self.log_name} has no generation")
        self.generation = generations[0]
        self.log = generation_name(self.log_name, self.generation)
        self._seen_version = -1

    def _trigger_bytes(self) -> int:
        """The raw bytes past which a commit runs the batch."""
        return self.post_commit_threshold * self.manager.block_size

    def _raw_bytes(self, pages: int, blocks: int) -> int:
        """What `blocks` log blocks of `pages` pages in all count toward
        the batch trigger: their pages and footers as if unencoded."""
        return pages * self.page_size + blocks * FOOTER_FIXED_SIZE + \
            8 * pages

    def _changed_alone(self, block_id: int) -> None:
        """After the store's own append at, or truncate from, log block
        `block_id`: the index still matches the log if the log's version
        moved by that call alone and the index had folded every block
        before `block_id`. The version is read, not assumed to have moved
        by one: a truncate that found no tail leaves it as it was."""
        if self._folded == block_id and \
                self.manager.version(self.log) == self._seen_version + 1:
            self._seen_version += 1

    # ------------------------------------------------------------------
    # Recovery state (reads only)
    # ------------------------------------------------------------------

    def _log_entry(self, block_id: int,
                   entry: DfsFileEntry | None) -> DfsFileEntry:
        """`entry`, the constituent of log block `block_id`; RecoveryError
        for a block with no constituent (a hole, which reads as zeros in a
        meta file but never in the log) or one too short for a footer."""
        if entry is None:
            raise RecoveryError(f"log block {block_id} has no constituent")
        if entry.size_bytes < FOOTER_FIXED_SIZE:
            raise RecoveryError(
                f"log block {block_id} is {entry.size_bytes} bytes, "
                f"too short for a footer")
        return entry

    def _footer_of(self, block_id: int, entry: DfsFileEntry | None
                   ) -> tuple[list[int], bool]:
        """(pageids, commit_complete) of log block `block_id`, whose
        constituent is `entry`, from one read of its last bytes, as many
        as the largest footer takes. RecoveryError for a hole, a block too
        short for a footer, or a footer that does not read whole with its
        checksum (a torn block)."""
        entry = self._log_entry(block_id, entry)
        start = max(0, entry.size_bytes - _footer_size(self._capacity))
        return unpack_footer(self.manager.read_bytes(entry, start))

    def footers(self) -> dict[int, tuple[list[int], bool]]:
        """The footer of every block of the live generation, oldest
        first, read through the manager's cache as a rebuild reads
        them."""
        entries = self.manager.constituent_entries(self.log)
        return {block_id: self._footer_of(block_id, entry)
                for block_id, entry in enumerate(entries)}

    def recovery_state(self) -> str | None:
        """"rollback" if the live generation has a block past its
        committed prefix (what a writer's begin truncates), else None;
        decided from `log_state()`."""
        return "rollback" if self.log_state()["uncommitted_blocks"] else None

    def log_state(self) -> dict[str, int]:
        """What `recovery_state()` decides from: the live generation and
        its blocks past its committed prefix."""
        self.reconstruct_log_table_index()
        return {"generation": self.generation,
                "uncommitted_blocks": self._blocks - self._committed}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _patched(self, block: bytes, pages) -> bytes:
        """Data block `block`, which may end before its last page (see
        `wormdb.metafile`), with each (pageid, page) of `pages` put in its
        place, padded with zeros up to the page if it ends before it."""
        content = bytearray(block)
        for pageid, page in pages:
            dst = (pageid % self.pages_per_block) * self.page_size
            if dst > len(content):
                content.extend(bytes(dst - len(content)))
            content[dst:dst + self.page_size] = page
        return bytes(content)
