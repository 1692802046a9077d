"""Seeded data generation, the four measured workloads, and soak runs.

Workloads mirror the classic web-visits benchmark shapes: a limited
sequential Scan, a batch Insert, a Select on the non-clustering source_ip
attribute (with and without the secondary index), and an Update of the
country code for the selected rows. Counters rather than wall-clock times
are the reproducible outputs.
"""

from __future__ import annotations

import random
import string
import threading
import time
from datetime import date

from .engine import Database
from .records import UserVisitsRecord

DEFAULT_PROBE_KEY = "160.110.44.44"
DEFAULT_PROBE_COUNT = 70

_LETTERS = string.ascii_lowercase
_COUNTRY = ["USA", "KOR", "DEU", "FRA", "JPN", "BRA", "IND", "GBR"]
_LANG = ["en", "ko", "de", "fr", "ja", "pt", "hi", "en-GB"]


# the kinds `run_workload` runs, and the CLI's `run --workload` choices
WORKLOADS = ("scan", "insert", "select", "update")


def _rand_ip(rng: random.Random, exclude: str) -> str:
    while True:
        ip = ".".join(str(rng.randrange(1, 255)) for _ in range(4))
        if ip != exclude:
            return ip


def _rand_text(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choices(_LETTERS, k=rng.randint(lo, hi)))


def make_record(rng: random.Random, visit_day: int,
                source_ip: str) -> UserVisitsRecord:
    return UserVisitsRecord(
        source_ip=source_ip,
        dest_url=f"http://www.{_rand_text(rng, 40, 72)}.com/{_rand_text(rng, 4, 10)}",
        visit_date=date.fromordinal(visit_day),
        ad_revenue=round(rng.uniform(0.01, 1000.0), 4),
        user_agent=f"Mozilla/5.0 ({_rand_text(rng, 25, 48)})",
        country_code=rng.choice(_COUNTRY),
        language_code=rng.choice(_LANG),
        search_word=_rand_text(rng, 6, 28),
        duration=rng.randrange(1, 10_000),
    )


def generate(db: Database, num_tuples: int, seed: int,
             probe_key: str = DEFAULT_PROBE_KEY,
             probe_count: int = DEFAULT_PROBE_COUNT,
             commit_every: int = 10_000) -> None:
    """Populate a fresh database, sorted by visit_date, with exactly
    `probe_count` rows carrying `probe_key` planted at seeded positions."""
    if probe_count > num_tuples:
        raise ValueError(
            f"cannot plant {probe_count} probe rows in {num_tuples} tuples")
    rng = random.Random(seed)
    probe_rows = set(rng.sample(range(num_tuples), probe_count)) \
        if num_tuples else set()
    session = db.session("generator")
    session.begin("write")
    day = date(2000, 1, 1).toordinal()
    try:
        for i in range(num_tuples):
            day += rng.random() < 0.01
            ip = probe_key if i in probe_rows else _rand_ip(rng, probe_key)
            session.insert_record(make_record(rng, day, ip))
            if (i + 1) % commit_every == 0 and i + 1 < num_tuples:
                session.commit()
                session.begin("write")
        session.commit()
    except BaseException:
        if session.mode is not None:
            session.abort()
        raise


def _insert_records(count: int, key: str,
                    seed: int) -> list[UserVisitsRecord]:
    """The insert workload's rows, made before its timer starts."""
    rng = random.Random(seed)
    day = date(2200, 1, 1).toordinal()
    records = []
    for _ in range(count):
        day += rng.random() < 0.01
        records.append(make_record(rng, day, _rand_ip(rng, key)))
    return records


def run_workload(db: Database, kind: str, *, limit: int = 100_000,
                 repeat: int = 10_000, key: str = DEFAULT_PROBE_KEY,
                 use_index: bool = True, new_country_code: str = "ABC",
                 seed: int = 0) -> dict:
    """Execute one workload of WORKLOADS in a fresh session, whose page
    cache starts cold, and return its counters: a scan reads up to
    `limit` rows, an insert adds `repeat` seeded rows, and a select or
    update finds the rows of `key`. The database's meta-file page cache
    is shared, so a page read before is not read from the DFS again and
    `network_bytes` falls. A workload that raises is aborted, so it
    leaves no lock behind."""
    if kind not in WORKLOADS:
        raise ValueError(f"unknown workload kind: {kind}")
    cluster = db.manager.cluster
    remakes0 = db.manager.remakes_total
    net0 = cluster.counters.bytes_read + cluster.counters.bytes_written
    session = db.session(f"bench-{kind}")
    records = _insert_records(repeat, key, seed) if kind == "insert" else []
    start = time.perf_counter()
    session.begin("read" if kind in ("scan", "select") else "write")
    try:
        if kind == "scan":
            returned = len(session.scan(limit))
        elif kind == "insert":
            for record in records:
                session.insert_record(record)
            returned = len(records)
        elif kind == "select":
            returned = len(session.select_by_key(key, use_index))
        else:  # update
            returned = session.update_by_key(key, new_country_code,
                                             use_index)
        session.commit()
    except BaseException:
        if session.mode is not None:
            session.abort()
        raise
    elapsed = time.perf_counter() - start
    net1 = cluster.counters.bytes_read + cluster.counters.bytes_written
    return {
        "workload": kind,
        "elapsed": round(elapsed, 6),
        "page_reads": session.page_reads,
        "page_writes": session.page_writes,
        "dfs_remakes": db.manager.remakes_total - remakes0,
        "network_bytes": net1 - net0,
        "records_returned": returned,
    }


def _row_count(db: Database, name: str) -> int:
    """The table's rows, counted by a read transaction of session
    `name`."""
    session = db.session(name)
    session.begin("read")
    count = len(session.scan(10 ** 9))
    session.commit()
    return count


def soak(db: Database, sessions: int, events: int, seed: int) -> dict:
    """Concurrent sessions doing small insert and scan transactions.

    Checks the visibility contract: a reader that acquires the lock after
    a commit sees at least everything committed before its grant, and the
    final table size equals the number of committed inserts. Returns the
    counts, `ok`, and `errors`, a message for each check that failed and
    each exception a worker caught; `ok` is whether there is none.
    """
    rng = random.Random(seed)
    counts_lock = threading.Lock()
    baseline = _row_count(db, "soak-baseline")
    committed = aborted = 0
    errors: list[str] = []
    per_thread = max(1, events // (2 * sessions))  # begin+end pairs

    def worker(worker_seed: int, name: str):
        nonlocal committed, aborted
        wrng = random.Random(worker_seed)
        session = db.session(name)
        day = date(2300, 1, 1).toordinal()
        for _ in range(per_thread):
            writes = wrng.random() < 0.5
            # a worker asks for a lock only while it holds none, so it
            # never waits on itself and its begin never conflicts
            session.begin("write" if writes else "read")
            try:
                if writes:
                    session.insert_record(
                        make_record(wrng, day, _rand_ip(wrng, "none")))
                    if wrng.random() < 0.25:
                        session.abort()
                        with counts_lock:
                            aborted += 1
                    else:
                        with counts_lock:
                            # The count is published before release; any
                            # later reader must see at least this many.
                            committed += 1
                        session.commit()
                else:
                    with counts_lock:
                        # one commit may be in flight
                        floor = max(0, committed - 1)
                    seen = len(session.scan(10 ** 9))
                    if seen < baseline + floor:
                        errors.append(f"{name}: read {seen} rows, fewer "
                                      f"than baseline {baseline} + {floor} "
                                      f"committed before this read")
                    session.commit()
            except Exception as exc:  # noqa: BLE001 - soak reports, not raises
                errors.append(f"{name}: {exc!r}")
                if session.mode is not None:
                    session.abort()

    threads = [
        threading.Thread(target=worker, args=(rng.randrange(2 ** 31), f"soak-{i}"))
        for i in range(sessions)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    final = _row_count(db, "soak-check")
    if final != baseline + committed:
        errors.append(f"final count {final} != baseline {baseline} "
                      f"+ committed {committed}")
    return {
        "events": per_thread * 2 * sessions,
        "baseline": baseline,
        "committed_inserts": committed,
        "aborted": aborted,
        "final_count": final,
        "ok": not errors,
        "errors": errors,
    }
