"""Print where the DFS bytes of the benchmark's oltp run go.

    python tools/log_cost.py [--seed N] [--rows N] [--txns N]

It loads the benchmark's 100,000 seeded rows in 10,000-row commits and
then runs its oltp mix of 2,500 transactions, the run of
`python3 perfbench/run.py --workload oltp --seconds 25` at the same seed
(3 by default); `--rows` and `--txns` set a smaller load and phase for
a quick run. For the load and for the oltp phase it prints the DFS bytes
written, every replica counted:

- `log by kind`: what each catalog, heap and index page adds to its log
  block's compressed body, that is the stream's length with the page
  minus its length without it, then what the pages' bases add, the
  footers, and `framing`, the rest of each stream (its header and
  checksum);
- `log by path`: the log blocks of commit flushes and of batch carries;
- `data`: the blocks the batches remade, as stored, a zlib stream of
  their pages where that is shorter, and as those raw pages, and the
  blocks first written, in place or by a batch, which are stored raw
  (`fills`; the load's include the create's block 0);
- `write_amp`: the bytes of the load and the phase together over the
  record bytes loaded, inserted and updated, as the benchmark reports it.

A page is the catalog if it is page 0, else an index page if it lies at
or above the index floor of the catalog the store holds when the page is
logged, else a heap page. Seeds 3, 5, 7 and 11 give the figures ROADMAP
item 21 cites. Run it from the root of a checkout; wormdb is imported
from `src/` and the workload from `perfbench/`.
"""

from __future__ import annotations

import argparse
import sys
import zlib
from collections import Counter
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "perfbench")]

from client import Client, Model, load  # noqa: E402
from inputs import make_rows, oltp_ops  # noqa: E402
from wormdb import spdu_dfs  # noqa: E402
from wormdb.dfs import DfsCluster  # noqa: E402
from wormdb.engine import EngineConfig, parse_catalog  # noqa: E402
from wormdb.pagefmt import ZLIB_LEVEL, inflate  # noqa: E402
from wormdb.spdu_dfs import DfsTransactionStore  # noqa: E402

ROWS = 100_000
TXNS = 2_500  # 25 s of the benchmark's oltp at 100 transactions a second
KINDS = ("catalog", "heap", "index", "bases", "footers", "framing")


class Tally:
    """The bytes written since `phase` was last set, by where they went."""

    def __init__(self):
        self.phase = "load"
        self.bytes: dict[str, Counter] = {"load": Counter(),
                                          "phase": Counter()}
        self.store: DfsTransactionStore | None = None
        self.path = "flush"

    def add(self, key: str, size: int) -> None:
        self.bytes[self.phase][key] += size


def stream_costs(pieces: list[bytes], window: bytes) -> list[int]:
    """What each of `pieces` adds to one zlib stream of them all at the
    package codec's level with `window` as its dictionary (an empty one
    names none), then the stream's length with no piece: the framing.
    It compresses piece by piece, so it drives zlib itself; `logged`
    checks that the costs add up to the block the store wrote."""
    codec = zlib.compressobj(ZLIB_LEVEL, zdict=window)
    lengths = [len(codec.copy().flush())]
    out = 0
    for piece in pieces:
        out += len(codec.compress(piece))
        lengths.append(out + len(codec.copy().flush()))
    return [b - a for a, b in zip(lengths, lengths[1:])] + [lengths[0]]


def instrument(tally: Tally, replication: int) -> None:
    """Wrap the store's log-block codec, its flush and carry, and the
    cluster's file creates, so that each written byte lands in `tally`."""
    log_block = spdu_dfs._log_block

    def logged(pageids, body, window, commit_complete):
        block = log_block(pageids, body, window, commit_complete)
        size = tally.store.page_size
        floor = parse_catalog(tally.store.read_page(0)).index_floor
        pieces = [body[slot * size:(slot + 1) * size]
                  for slot in range(len(pageids))]
        *pages, bases, framing = stream_costs(
            pieces + [body[len(pageids) * size:]], window)
        footer = len(spdu_dfs.pack_footer(pageids, commit_complete))
        assert sum(pages) + bases + framing + footer == len(block)
        for pageid, cost in zip(pageids, pages):
            kind = "catalog" if pageid == 0 else \
                "index" if pageid >= floor else "heap"
            tally.add(kind, replication * cost)
        tally.add("bases", replication * bases)
        tally.add("footers", replication * footer)
        tally.add("framing", replication * framing)
        tally.add(tally.path, replication * len(block))
        return block

    def on_path(method, path):
        def wrapped(store, *args, **kwargs):
            tally.store, before, tally.path = store, tally.path, path
            try:
                return method(store, *args, **kwargs)
            finally:
                tally.path = before
        return wrapped

    create_file = DfsCluster.create_file
    config = EngineConfig()

    def created(cluster, name, content, meta=None):
        entry = create_file(cluster, name, content, meta)
        tally.add("all", replication * len(content))
        if name.startswith("db/data/"):
            kind = "remakes" if name.endswith(".new") else "fills"
            # a constituent that is not whole pages is a remake's stream
            raw = len(inflate(content, config.block_size, name)) \
                if len(content) % config.page_size else len(content)
            tally.add(kind, replication * len(content))
            tally.add(f"{kind} raw", replication * raw)
            tally.add(f"{kind} blocks", 1)
        return entry

    spdu_dfs._log_block = logged
    DfsTransactionStore.flush_buffer = on_path(
        DfsTransactionStore.flush_buffer, "flush")
    DfsTransactionStore._carry = on_path(DfsTransactionStore._carry, "carry")
    DfsCluster.create_file = created


def report(name: str, counts: Counter) -> None:
    print(f"{name}: {counts['all']:,} DFS bytes")
    print("  log by kind  " + "  ".join(
        f"{kind} {counts[kind]:,}" for kind in KINDS))
    print(f"  log by path  flush {counts['flush']:,}  "
          f"carry {counts['carry']:,}")
    print(f"  data         remakes {counts['remakes']:,} stored "
          f"{counts['remakes raw']:,} raw ({counts['remakes blocks']} "
          f"blocks)  fills {counts['fills']:,} "
          f"({counts['fills blocks']} blocks)")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rows", type=int, default=ROWS)
    parser.add_argument("--txns", type=int, default=TXNS)
    args = parser.parse_args(argv)

    table = make_rows(args.seed, args.rows)
    ops = oltp_ops(args.seed, table, args.txns)
    tally = Tally()
    instrument(tally, EngineConfig().replication)  # the benchmark's config
    _, cluster, db = load(table, None)
    model = Model(table)
    loaded = model.live_bytes
    tally.phase = "phase"
    phase = Client(cluster, db, model).run(ops)
    assert not phase.failed, phase.errors[:3]
    report(f"load of {args.rows:,} rows, seed {args.seed}",
           tally.bytes["load"])
    report(f"oltp phase of {args.txns:,} transactions", tally.bytes["phase"])
    written = tally.bytes["load"]["all"] + tally.bytes["phase"]["all"]
    print(f"write_amp {written / (loaded + phase.written_bytes):.6f}")


if __name__ == "__main__":
    main()
