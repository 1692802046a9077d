"""Command-line harness: gen | run | recover | soak.

`recover` prints the path restart took, "rollback" or "clean", and what
it chose it from, as the log stood before: the live log generation, the
lowest one the NameNode registers, and that generation's blocks past its
committed prefix. A batch post-commit commits when it drops the live
generation, so one that crashed before it is abandoned, not finished:
recovery writes no page.

Exit codes: 0 success, 2 precondition/storage violation, 42 injected
crash (the armed fault point kills the process; run `recover` next).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import bench
from .dfs import DfsCluster
from .engine import Database, EngineConfig
from .errors import ConfigError, StorageError
from .faults import SPDU_DFS_FAULT_POINTS, FaultInjector
from .locks import LockService
from .metafile import pages_per_block
from .spdu_dfs import check_log_geometry

DB_NAME = "db"
DBCONFIG_FILE = "db.json"
# The points a `run` can reach: it opens the root without recovery, so
# the `dfs.restart.*` points are left out.
RUN_CRASH_POINTS = tuple(
    point for point in SPDU_DFS_FAULT_POINTS
    if not point.startswith("dfs.restart."))


def load_config(path: str | None, complete: bool = False) -> dict:
    """EngineConfig's fields, each value of its default's JSON type: the
    defaults, with the values the file at `path` gives in their place; a
    `complete` file must give every value."""
    values = asdict(EngineConfig())
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                given = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(given, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        for key, value in given.items():
            if key not in values:
                raise ConfigError(f"unknown config key: {key}")
            values[key] = _typed(key, value, type(values[key]))
        missing = sorted(values.keys() - given.keys())
        if complete and missing:
            raise ConfigError(f"config {path} lacks {', '.join(missing)}")
    return values


# a default's type -> its JSON name; a JSON integer loads as an int and
# a JSON boolean as a bool, so the exact type tells them apart
_JSON_TYPES = {bool: "boolean", int: "integer"}


def _typed(key: str, value, kind: type):
    if type(value) is not kind:
        raise ConfigError(f"config key {key} needs a JSON "
                          f"{_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _checked_engine_config(values: dict) -> EngineConfig:
    """The EngineConfig of `values`, with every check a database's
    geometry and placement must pass; raises ConfigError, so that `gen`
    fails before it writes anything."""
    cfg = EngineConfig(**values)
    try:
        cfg.dfs_config()
        check_log_geometry(cfg.page_size,
                           pages_per_block(cfg.page_size, cfg.block_size))
    except ValueError as exc:
        raise ConfigError(f"bad config: {exc}") from None
    if cfg.replication > cfg.num_nodes:
        raise ConfigError(
            f"bad config: replication {cfg.replication} exceeds "
            f"num_nodes {cfg.num_nodes}")
    if cfg.total_pages < 1:
        raise ConfigError("bad config: total_pages must be at least 1")
    return cfg


def _open_existing(root: str, faults: FaultInjector,
                   recover: bool) -> Database:
    cfg_path = os.path.join(root, DBCONFIG_FILE)
    if not os.path.exists(cfg_path):
        raise StorageError(f"no database at {root} (missing {DBCONFIG_FILE})")
    cfg = _checked_engine_config(load_config(cfg_path, complete=True))
    cluster = DfsCluster(cfg.dfs_config(), cfg.num_nodes, root)
    return Database.open(cluster, DB_NAME, cfg.page_size,
                         cfg.post_commit_threshold, cfg.deferred,
                         LockService(), faults, recover=recover)


def emit(report: dict, out: str) -> None:
    if out == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        keys = sorted(report)
        print(",".join(keys))
        print(",".join(str(report[k]) for k in keys))


def cmd_gen(args, faults: FaultInjector) -> int:
    values = load_config(args.config)
    cfg = _checked_engine_config(values)
    os.makedirs(args.root, exist_ok=True)
    cfg_path = os.path.join(args.root, DBCONFIG_FILE)
    if os.path.exists(cfg_path):
        raise StorageError(f"database already exists at {args.root}")
    cluster = DfsCluster(cfg.dfs_config(), cfg.num_nodes, args.root)
    # db.json is written right after the create, so a root without it holds
    # at most what an unfinished create left
    Database.discard(cluster, DB_NAME, cfg.page_size)
    db = Database.create(cluster, DB_NAME, cfg.total_pages,
                         cfg.page_size, cfg.post_commit_threshold,
                         cfg.deferred, LockService(), faults)
    # the database exists from here on: a failed load leaves a root that
    # `recover` and `run` open and that a second `gen` refuses
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=2)
    key_count = min(args.key_count, args.tuples)
    bench.generate(db, args.tuples, args.seed, args.key, key_count)
    emit({"generated": args.tuples, "probe_key": args.key,
          "probe_count": key_count, "root": args.root}, args.out)
    return 0


def cmd_run(args, faults: FaultInjector) -> int:
    db = _open_existing(args.root, faults, recover=False)
    needed = db.store.recovery_state()
    if needed:
        print(f"error: database needs recovery ({needed}); "
              f"run `wormdb recover` first", file=sys.stderr)
        return 2
    spec = bench.WorkloadSpec(
        kind=args.workload,
        limit=args.limit,
        repeat=args.repeat,
        key=args.key,
        use_index=args.index,
        seed=args.seed,
    )
    if args.crash_point:
        # armed once: the first traversal in any run kills the process
        faults.arm(args.crash_point, action="exit")
    reports = [bench.run_workload(db, spec).as_dict()
               for _ in range(args.repeat_runs)]
    for report in reports:
        emit(report, args.out)
    if args.crash_point and not faults.hits[args.crash_point]:
        print(f"error: crash point {args.crash_point} was never reached",
              file=sys.stderr)
        return 2
    return 0


def cmd_recover(args, faults: FaultInjector) -> int:
    db = _open_existing(args.root, faults, recover=False)
    # what the path was chosen from: the state before recovery changes it
    state = db.store.log_state()
    emit({"recovery": db.recover(), **state}, args.out)
    return 0


def cmd_soak(args, faults: FaultInjector) -> int:
    db = _open_existing(args.root, faults, recover=True)
    result = bench.soak(db, args.sessions, args.events, args.seed)
    emit({
        "events": result.events,
        "baseline": result.baseline,
        "committed_inserts": result.committed_inserts,
        "aborted": result.aborted,
        "final_count": result.final_count,
        "ok": result.ok,
        "errors": len(result.errors),
    }, args.out)
    return 0 if result.ok else 1


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wormdb",
        description="Transactional page store on a simulated write-once DFS")
    parser.add_argument("--root", default="./wormdb-data",
                        help="directory for the persistent DFS state")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="create and populate a database")
    gen.add_argument("--tuples", type=_at_least(0), default=100_000)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--key", default=bench.DEFAULT_PROBE_KEY)
    gen.add_argument("--key-count", type=_at_least(0),
                     default=bench.DEFAULT_PROBE_COUNT)

    run = sub.add_parser("run", help="run one workload")
    run.add_argument("--workload", required=True,
                     choices=("scan", "insert", "select", "update"))
    run.add_argument("--limit", type=_at_least(0), default=100_000)
    run.add_argument("--repeat", type=_at_least(1), default=10_000)
    run.add_argument("--key", default=bench.DEFAULT_PROBE_KEY)
    index = run.add_mutually_exclusive_group()
    index.add_argument("--index", dest="index", action="store_true",
                       default=True)
    index.add_argument("--no-index", dest="index", action="store_false")
    run.add_argument("--crash-point", choices=RUN_CRASH_POINTS)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--repeat-runs", type=_at_least(1), default=1,
                     help="repeat the workload and report each run")

    sub.add_parser("recover", help="run restart processing")

    soak_cmd = sub.add_parser("soak", help="concurrent-session property run")
    soak_cmd.add_argument("--sessions", type=_at_least(1), default=8)
    soak_cmd.add_argument("--events", type=_at_least(1), default=1000)
    soak_cmd.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    faults = FaultInjector()
    handlers = {
        "gen": cmd_gen,
        "run": cmd_run,
        "recover": cmd_recover,
        "soak": cmd_soak,
    }
    try:
        return handlers[args.command](args, faults)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
