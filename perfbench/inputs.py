"""Seeded inputs for the wormdb benchmark.

Everything a run feeds to wormdb is made here, before any timer starts:
the rows to load, the transaction list, the Zipfian keys it touches, the
country codes it writes and the records it inserts. The loaded rows are
exactly those `wormdb.bench.generate` inserts for the same seed, probe
rows included. The same seed gives the same inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass

from wormdb import UserVisitsRecord
from wormdb.bench import DEFAULT_PROBE_KEY, generate, make_record
from wormdb.records import pack_record

PROBE_KEY = DEFAULT_PROBE_KEY
ZIPF_THETA = 0.99
INSERT_ROWS = 10
# The oltp mix: every block of 20 transactions holds these counts, in an
# order shuffled from MIX_SEED rather than from the run's seed. Index
# merges and batch post-commits then fall at the same points of every
# run, and the seed picks only the keys, codes and rows.
MIX = {"select": 10, "update": 5, "insert": 5}
MIX_SEED = "oltp-mix"

_CODE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class Row:
    """A record together with its packed size in bytes."""
    record: UserVisitsRecord
    size: int


@dataclass(frozen=True)
class Op:
    """One transaction of the client."""
    kind: str                  # scan | probe | select | update | insert
    key: str = ""              # select / update
    code: str = ""             # update: the new country code
    rows: tuple[Row, ...] = ()  # insert


def _row(record: UserVisitsRecord) -> Row:
    return Row(record, len(pack_record(record)))


class _Recorder:
    """Stands in for a Database and its session in `generate`, keeping
    the records it is given instead of storing them."""

    def __init__(self):
        self.records: list[UserVisitsRecord] = []
        self.mode = None

    def session(self, name: str) -> "_Recorder":
        return self

    def begin(self, mode: str) -> None:
        self.mode = mode

    def insert_record(self, record: UserVisitsRecord) -> None:
        self.records.append(record)

    def commit(self) -> None:
        self.mode = None


def make_rows(seed: int, count: int) -> list[Row]:
    """The table `wormdb.bench.generate` loads for `seed`: web visits
    sorted by visit date, with exactly 70 rows carrying PROBE_KEY."""
    recorder = _Recorder()
    generate(recorder, count, seed)
    return [_row(record) for record in recorder.records]


def scan_ops(count: int) -> list[Op]:
    """Full scans alternating with unindexed selects of the probe key,
    each in a read transaction of its own."""
    return [Op("probe" if i % 2 else "scan") for i in range(count)]


def oltp_ops(seed: int, rows: list[Row], count: int) -> list[Op]:
    """`count` short transactions in the MIX. Select and update keys are
    Zipfian (ZIPF_THETA) over the loaded rows' source_ips, the probe key
    excepted; inserts add INSERT_ROWS rows, each with a key of its own
    that no loaded row has (loaded keys have no 0 octet)."""
    rng = random.Random(f"{seed}/ops")
    keys = sorted(key for key in Counter(row.record.source_ip for row in rows)
                  if key != PROBE_KEY)
    rng.shuffle(keys)  # rank -> key
    cdf = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_THETA for rank in range(len(keys))))
    day = rows[-1].record.visit_date.toordinal() + 1
    block = [kind for kind, times in MIX.items() for _ in range(times)]
    mix_rng = random.Random(MIX_SEED)
    kinds = []
    while len(kinds) < count:
        mix_rng.shuffle(block)
        kinds += block
    ops = []
    inserted = 0
    for kind in kinds[:count]:
        if kind == "insert":
            batch = []
            for _ in range(INSERT_ROWS):
                ip = f"0.{inserted >> 16 & 255}.{inserted >> 8 & 255}." \
                     f"{inserted & 255}"
                inserted += 1
                batch.append(_row(make_record(rng, day, ip)))
            ops.append(Op("insert", rows=tuple(batch)))
            continue
        key = keys[min(bisect.bisect(cdf, rng.random() * cdf[-1]),
                       len(keys) - 1)]
        if kind == "select":
            ops.append(Op("select", key=key))
        else:
            code = "".join(rng.choice(_CODE_LETTERS) for _ in range(3))
            ops.append(Op("update", key=key, code=code))
    return ops
