"""The wormdb benchmark: three seeded workloads, one closed-loop client.

    python3 perfbench/run.py --workload scan|oltp|oltp_disk --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout: wormdb is imported from `src/` there,
and a persistent store, if any, and the span file are written under
`.bench_build/perfbench/`. All inputs are made from the seed before any
timer starts.

`--trace 0` loads the store several times (the median load time is
`setup_s`), runs a fixed count of transactions on the last store, sized
from `--seconds` (see `Workload.txns_per_second`), checks the results and
prints the end-to-end metrics. `--trace 1` runs a fixed
number of transactions (`--ops`, so that its counts repeat exactly) twice
on freshly loaded stores, first untraced and then with every layer's
public functions wrapped in spans. It prints the per-layer metrics of the
traced pass, and the tracing overhead as traced minus untraced
end-to-end numbers, and writes the spans to
`.bench_build/perfbench/spans-<workload>.tsv`.

Every metric is printed by name and unit; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The exit code
is 0 when every check passed, 1 when one failed, and 2 when wormdb's
source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORK_DIR = CHECKOUT / ".bench_build" / "perfbench"
# Upper bound on one run's transactions. Its 1,000 inserts of 10 rows are
# half of what fills 8192 pages after a 100K-row load (DatabaseFull came
# after 19,790 inserted rows at seed 1).
MAX_TXNS = 4000


@dataclass(frozen=True)
class Workload:
    rows: int
    persistent: bool  # a DfsCluster with a root directory
    setups: int       # loads per run; setup_s is their median
    traced_ops: int   # transactions of the traced run
    # Transactions per requested second. A run makes the fixed count
    # `--seconds` times this, which takes about `--seconds` on a 2-vCPU
    # host, so that its byte counts, and the space it leaves, do not
    # depend on how fast the run went.
    txns_per_second: float


# BENCHMARK.json lists scan and oltp. oltp_disk (the oltp mix on a
# persistent store under .bench_build/) is run by name only: on a shared
# virtual disk its times drift too far between runs to gate a change on.
# A persistent load takes ~9 s or more, so it loads fewer times per run.
WORKLOADS = {
    "scan": Workload(rows=100_000, persistent=False, setups=5,
                     traced_ops=2, txns_per_second=0.7),
    "oltp": Workload(rows=100_000, persistent=False, setups=5,
                     traced_ops=300, txns_per_second=100),
    "oltp_disk": Workload(rows=20_000, persistent=True, setups=3,
                          traced_ops=150, txns_per_second=25),
}


def _import_wormdb() -> None:
    src = CHECKOUT / "src"
    if not (src / "wormdb" / "__init__.py").is_file():
        print(f"perfbench: no wormdb source in {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import wormdb
    if Path(wormdb.__file__).resolve().parent != src / "wormdb":
        print(f"perfbench: imported wormdb from {wormdb.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p50_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000 if seconds else 0.0


def _p99_ms(seconds: list[float]) -> float:
    """Nearest-rank 99th percentile; reported only from 1,000 samples,
    so that at least ten lie beyond it."""
    return sorted(seconds)[math.ceil(len(seconds) * 0.99) - 1] * 1000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _inputs(name: str, seed: int, rows: int, txns: int):
    from inputs import make_rows, oltp_ops, scan_ops
    table = make_rows(seed, rows)
    ops = scan_ops(txns) if name == "scan" else oltp_ops(seed, table, txns)
    return table, ops


def measure(name: str, seed: int, seconds: float, rows: int) -> dict:
    from client import Client, Model, final_checks, load, stored_bytes
    workload = WORKLOADS[name]
    txns = min(MAX_TXNS, max(1, round(seconds * workload.txns_per_second)))
    table, ops = _inputs(name, seed, rows, txns)
    root = str(WORK_DIR / name) if workload.persistent else None
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of GC passes
    setups = []
    for _ in range(workload.setups):
        cluster = db = None  # drop the previous store before loading
        took, cluster, db = load(table, root)
        setups.append(took)
    load_dfs_bytes = cluster.counters.bytes_written
    model = Model(table)
    loaded_bytes = model.live_bytes
    phase = Client(cluster, db, model).run(ops)
    # Post-commit the log first, so that the space does not depend on
    # where in the log's fill-and-drain cycle the phase ended.
    db.run_maintenance()
    space = stored_bytes(cluster)
    checks = final_checks(db, model, root)
    reads, probes, writes = (phase.latency_s[kind]
                             for kind in ("read", "probe", "write"))
    # write_amp takes in the last load, so that it exists on every
    # workload; the phase adds to it only on those that write.
    dfs_written = load_dfs_bytes + phase.write_dfs_bytes
    record_written = loaded_bytes + phase.written_bytes
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "read_amp": (_ratio(phase.read_dfs_bytes, phase.returned_bytes),
                     "ratio"),
        "write_amp": (_ratio(dfs_written, record_written), "ratio"),
        "space_amp": (_ratio(space, model.live_bytes), "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    attempted = phase.attempted + checks.attempted
    failed = phase.failed + checks.failed
    notes = {
        "setup_s": f"median of {len(setups)} loads: "
                   + " ".join(f"{s:.3f}" for s in setups),
        "read_amp": f"{phase.read_dfs_bytes} DFS bytes read / "
                    f"{phase.returned_bytes} record bytes returned",
        "write_amp": f"{dfs_written} DFS bytes written in the last load "
                     f"and the phase / {record_written} record bytes "
                     f"loaded, inserted or updated",
        "space_amp": f"{space} bytes on DataNodes after maintenance / "
                     f"{model.live_bytes} live record bytes",
    }
    # Printed only. p99s and the latencies of writes and of scan's
    # unindexed selects do not exist on every workload, and failed_ratio
    # is 0 when all is well. On a shared 2-vCPU host whose speed on
    # memory-heavy work changes by up to 1.7x for minutes at a time,
    # txn_per_s spread up to 28% and scan's read_p50_ms up to 32% over ten
    # runs: too far to gate a change on. read_p50_ms leaves the unindexed
    # selects out because they take ~1.3x as long as a full scan, so the
    # median of an even mix of the two would jump between them.
    extra = {
        "txn_per_s": (_ratio(phase.committed, phase.busy_s), "1/s",
                      f"{phase.committed} committed in "
                      f"{phase.busy_s:.3f} s inside transactions"),
        "read_p50_ms": (_p50_ms(reads), "ms", f"n={len(reads)}"),
    }
    if len(reads) >= 1000:
        extra["read_p99_ms"] = (_p99_ms(reads), "ms", f"n={len(reads)}")
    if probes:
        extra["probe_p50_ms"] = (_p50_ms(probes), "ms",
                                 f"n={len(probes)} unindexed selects")
    if writes:
        extra["write_p50_ms"] = (_p50_ms(writes), "ms", f"n={len(writes)}")
        if len(writes) >= 1000:
            extra["write_p99_ms"] = (_p99_ms(writes), "ms",
                                     f"n={len(writes)}")
    extra["failed_ratio"] = (_ratio(failed, attempted), "ratio",
                             f"{failed} of {attempted} operations")
    _print_table(name, seed, rows, metrics, notes, extra)
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)
    return _result(metrics, attempted, failed,
                   phase.errors + checks.errors)


def trace(name: str, seed: int, rows: int, ops_count: int) -> dict:
    from client import Client, Model, final_checks, load
    from spans import Tracer, layer_metrics
    table, ops = _inputs(name, seed, rows, ops_count)
    root = str(WORK_DIR / name) if WORKLOADS[name].persistent else None
    gc.collect()
    gc.freeze()
    _, cluster, db = load(table, root)
    base = Client(cluster, db, Model(table)).run(ops)
    cluster = db = None
    _, cluster, db = load(table, root)
    model = Model(table)
    client = Client(cluster, db, model)
    tracer = Tracer()
    before = cluster.counters.snapshot()
    with tracer.installed():
        phase = client.run(ops, tracer=tracer)
    after = cluster.counters
    checks = final_checks(db, model, root)
    metrics = layer_metrics(
        tracer, phase.rows_written, client.session.page_reads,
        client.session.page_writes, after.bytes_read - before.bytes_read,
        after.bytes_written - before.bytes_written)
    metrics["overhead.txn_per_s"] = (
        _ratio(phase.committed, phase.busy_s)
        - _ratio(base.committed, base.busy_s), "1/s")
    metrics["overhead.read_p50_ms"] = (
        _p50_ms(phase.latency_s["read"])
        - _p50_ms(base.latency_s["read"]), "ms")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    spans = WORK_DIR / f"spans-{name}.tsv"
    tracer.write(str(spans))
    notes = {"trace.spans": f"written to {spans.relative_to(CHECKOUT)}",
             "overhead.txn_per_s": f"{len(ops)} transactions per pass"}
    _print_table(name, seed, rows, metrics, notes, {})
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)
    attempted = base.attempted + phase.attempted + checks.attempted
    failed = base.failed + phase.failed + checks.failed
    return _result(metrics, attempted, failed,
                   base.errors + phase.errors + checks.errors)


def _print_table(name, seed, rows, metrics, notes, extra) -> None:
    print(f"perfbench {name}: seed {seed}, {rows} rows loaded, "
          f"one closed-loop client")
    lines = [(metric, value, unit, notes.get(metric, ""))
             for metric, (value, unit) in metrics.items()]
    lines += [(metric, *row) for metric, row in extra.items()]
    for metric, value, unit, note in lines:
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"  {metric:44} {shown} {unit:6} {note}".rstrip())


def _result(metrics, attempted: int, failed: int, errors: list[str]) -> dict:
    for error in errors[:20]:
        print(f"  check failed: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int,
                        help="rows to load (default: the workload's)")
    parser.add_argument("--ops", type=int,
                        help="transactions of the traced run "
                             "(default: the workload's)")
    args = parser.parse_args(argv)
    _import_wormdb()
    workload = WORKLOADS[args.workload]
    rows = args.rows or workload.rows
    if args.trace:
        result = trace(args.workload, args.seed, rows,
                       args.ops or workload.traced_ops)
    else:
        result = measure(args.workload, args.seed, args.seconds, rows)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
