"""Print what the secondary index costs while small commits follow a load.

    python tools/index_cost.py [--page-size BYTES] [--load COMMITS ROWS]
        [--window N]

A store of 8,192 pages of `--page-size` bytes (4 KB), 16 pages a block,
seeded with 0, takes a load of COMMITS commits of ROWS rows (10 of
10,000), then 1,000 commits of ten rows. After each window of `--window`
ten-row commits (100) it prints one line:

- `index_pages`: the raw index pages the window's commits wrote, that is
  the pages of each segment new in the catalog after a commit, as the
  engine hands them to the store, before it logs or compresses them;
- `pages_per_lookup`: the mean index pages read by an indexed select of
  a key already inserted, over 100 selects, each in a read transaction
  of its own;
- `segments`: the index segments, oldest first, as pages/tier, with the
  tier the engine's merge rule gives each.

The index pages depend only on the rows each commit adds, so
`--page-size 512 --load 10 300 --window 500` prints the two halves of
`tests/test_engine.py::test_index_pages_per_small_commit_stay_flat`.
Run it from the root of a checkout; wormdb is imported from `src/`.
"""

from __future__ import annotations

import argparse
import random
import sys
from datetime import date
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wormdb.bench import make_record  # noqa: E402
from wormdb.dfs import DfsCluster  # noqa: E402
from wormdb.engine import Database, EngineConfig, _tier  # noqa: E402

DAY = date(2000, 1, 1).toordinal()
SEED = 0
TOTAL_PAGES = 8192
COMMITS = 1000
LOOKUPS = 100


def segments(db: Database):
    session = db.session()
    session.begin("read")
    try:
        return session.catalog.segments
    finally:
        session.commit()


def tiers(db: Database) -> str:
    per_page = db.session()._entries_per_page
    return " ".join(f"{seg.pages}/{_tier(seg.entries, per_page)}"
                    for seg in segments(db))


def commit(db: Database, rng: random.Random, keys: list[str],
           rows: int) -> None:
    session = db.session()
    session.begin("write")
    for _ in range(rows):
        keys.append(".".join(str(rng.randrange(256)) for _ in range(4)))
        session.insert_record(make_record(rng, DAY, keys[-1]))
    session.commit()


def pages_per_lookup(db: Database, rng: random.Random,
                     keys: list[str]) -> float:
    """Mean index pages an indexed select reads, counted at the store."""
    index = [range(seg.start, seg.start + seg.pages)
             for seg in segments(db)]
    read: set[int] = set()
    read_page = db.store.read_page

    def counted(pageid: int) -> bytes:
        read.add(pageid)
        return read_page(pageid)

    db.store.read_page = counted
    total = 0
    try:
        for key in rng.sample(keys, LOOKUPS):
            read.clear()
            session = db.session()
            session.begin("read")
            assert session.select_by_key(key, use_index=True)
            session.commit()
            total += sum(pageid in extent for pageid in read
                         for extent in index)
    finally:
        del db.store.read_page
    return total / LOOKUPS


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--page-size", type=int, default=4096)
    parser.add_argument("--load", type=int, nargs=2, default=(10, 10_000),
                        metavar=("COMMITS", "ROWS"))
    parser.add_argument("--window", type=int, default=100)
    args = parser.parse_args(argv)

    # the default's 16 pages a block, at any page size
    config = EngineConfig(page_size=args.page_size,
                          block_size=16 * args.page_size,
                          total_pages=TOTAL_PAGES)
    db = Database.create(DfsCluster(config.dfs_config(), config.num_nodes),
                         "db", config.total_pages, config.page_size,
                         config.post_commit_threshold)
    rng, pick = random.Random(SEED), random.Random(SEED + 1)
    keys: list[str] = []
    for _ in range(args.load[0]):
        commit(db, rng, keys, args.load[1])
    print(f"after the load of {len(keys)} rows: segments {tiers(db)}")
    written = 0
    before = segments(db)
    for i in range(1, COMMITS + 1):
        commit(db, rng, keys, 10)
        after = segments(db)
        written += sum(seg.pages for seg in after if seg not in before)
        before = after
        if i % args.window == 0 or i == COMMITS:
            print(f"commits {i - (i - 1) % args.window:>5}-{i:<5} "
                  f"index_pages {written:>6} "
                  f"pages_per_lookup {pages_per_lookup(db, pick, keys):6.2f} "
                  f"segments {tiers(db)}")
            written = 0


if __name__ == "__main__":
    main()
