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
from dataclasses import dataclass, field
from datetime import date

from .engine import Database
from .records import UserVisitsRecord

DEFAULT_PROBE_KEY = "160.110.44.44"
DEFAULT_PROBE_COUNT = 70

_LETTERS = string.ascii_lowercase
_COUNTRY = ["USA", "KOR", "DEU", "FRA", "JPN", "BRA", "IND", "GBR"]
_LANG = ["en", "ko", "de", "fr", "ja", "pt", "hi", "en-GB"]


@dataclass
class WorkloadSpec:
    kind: str                       # scan | insert | select | update
    limit: int = 100_000            # scan
    repeat: int = 10_000            # insert
    key: str = DEFAULT_PROBE_KEY    # select / update
    use_index: bool = True
    new_country_code: str = "ABC"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("scan", "insert", "select", "update"):
            raise ValueError(f"unknown workload kind: {self.kind}")
        if self.limit < 0 or self.repeat <= 0:
            raise ValueError("counts must be positive")


@dataclass
class MetricsReport:
    workload: str
    elapsed: float
    page_reads: int
    page_writes: int
    dfs_remakes: int
    network_bytes: int
    records_returned: int

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "elapsed": round(self.elapsed, 6),
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "dfs_remakes": self.dfs_remakes,
            "network_bytes": self.network_bytes,
            "records_returned": self.records_returned,
        }


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


def _insert_records(spec: WorkloadSpec) -> list[UserVisitsRecord]:
    """The insert workload's rows, made before its timer starts."""
    rng = random.Random(spec.seed)
    day = date(2200, 1, 1).toordinal()
    records = []
    for _ in range(spec.repeat):
        day += rng.random() < 0.01
        records.append(make_record(rng, day, _rand_ip(rng, spec.key)))
    return records


def run_workload(db: Database, spec: WorkloadSpec) -> MetricsReport:
    """Execute one workload in a fresh session, whose page cache starts
    cold; the database's meta-file page cache is shared, so a page read
    before is not read from the DFS again and `network_bytes` falls. A
    workload that raises is aborted, so it leaves no lock behind."""
    cluster = db.manager.cluster
    remakes0 = db.manager.remakes_total
    net0 = cluster.counters.bytes_read + cluster.counters.bytes_written
    session = db.session(f"bench-{spec.kind}")
    records = _insert_records(spec) if spec.kind == "insert" else []
    start = time.perf_counter()
    returned = 0
    session.begin("read" if spec.kind in ("scan", "select") else "write")
    try:
        if spec.kind == "scan":
            returned = len(session.scan(spec.limit))
        elif spec.kind == "insert":
            for record in records:
                session.insert_record(record)
                returned += 1
        elif spec.kind == "select":
            returned = len(session.select_by_key(spec.key, spec.use_index))
        else:  # update
            returned = session.update_by_key(
                spec.key, spec.new_country_code, spec.use_index)
        session.commit()
    except BaseException:
        if session.mode is not None:
            session.abort()
        raise
    elapsed = time.perf_counter() - start
    net1 = cluster.counters.bytes_read + cluster.counters.bytes_written
    return MetricsReport(
        workload=spec.kind,
        elapsed=elapsed,
        page_reads=session.page_reads,
        page_writes=session.page_writes,
        dfs_remakes=db.manager.remakes_total - remakes0,
        network_bytes=net1 - net0,
        records_returned=returned,
    )


@dataclass
class SoakResult:
    events: int
    baseline: int
    committed_inserts: int
    aborted: int
    final_count: int
    monotonic_reads_ok: bool
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and self.monotonic_reads_ok


def soak(db: Database, sessions: int, events: int, seed: int) -> SoakResult:
    """Concurrent sessions doing small insert and scan transactions.

    Checks the visibility contract: a reader that acquires the lock after
    a commit sees at least everything committed before its grant, and the
    final table size equals the number of committed inserts.
    """
    rng = random.Random(seed)
    counts_lock = threading.Lock()
    baseline_session = db.session("soak-baseline")
    baseline_session.begin("read")
    baseline = len(baseline_session.scan(10 ** 9))
    baseline_session.commit()
    committed = [0]
    aborted = [0]
    errors: list[str] = []
    monotonic_ok = [True]
    per_thread = max(1, events // (2 * sessions))  # begin+end pairs

    def worker(worker_seed: int, name: str):
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
                            aborted[0] += 1
                    else:
                        with counts_lock:
                            # The count is published before release; any
                            # later reader must see at least this many.
                            committed[0] += 1
                        session.commit()
                else:
                    with counts_lock:
                        floor = committed[0] - 1  # one commit may be in flight
                    seen = len(session.scan(10 ** 9))
                    if seen < baseline + max(0, floor):
                        monotonic_ok[0] = False
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

    check = db.session("soak-check")
    check.begin("read")
    final = len(check.scan(10 ** 9))
    check.commit()
    if final != baseline + committed[0]:
        errors.append(f"final count {final} != baseline {baseline} "
                      f"+ committed {committed[0]}")
    return SoakResult(
        events=per_thread * 2 * sessions,
        baseline=baseline,
        committed_inserts=committed[0],
        aborted=aborted[0],
        final_count=final,
        monotonic_reads_ok=monotonic_ok[0],
        errors=errors,
    )
