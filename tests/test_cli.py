import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import asdict

import pytest

from oracles import data_blocks, log_windows, stored_block
import wormdb
from wormdb.cli import load_config, main
from wormdb.dfs import DfsCluster, DfsConfig, constituent_name
from wormdb.engine import HEAP_START, Database, EngineConfig, parse_catalog
from wormdb.errors import ConfigError, DatabaseFull, RecoveryError
from wormdb.faults import SPDU_DFS_FAULT_POINTS, CrashPoint, FaultInjector
from wormdb import bench, engine
from wormdb.metafile import MetaDfsManager
from wormdb.pagefmt import PAGE_HEADER_SIZE, stamp_page
from wormdb.pages import SlottedPage
from wormdb.spdu_dfs import (
    generation_name,
    pack_footer,
    unpack_body,
    unpack_footer,
)

SMALL_CONFIG = {
    "page_size": 512,
    "block_size": 8192,
    "replication": 2,
    "num_nodes": 4,
    "total_pages": 1024,
    "post_commit_threshold": 16,
}


@pytest.fixture
def small_root(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    root = tmp_path / "dbroot"
    return str(root), str(config)


def run_cli(args, root, config=None):
    argv = ["--root", root]
    if config:
        argv += ["--config", config]
    return main(argv + args)


def run_cli_subprocess(args, root, config=None):
    # The child runs in "/" to show the CLI depends only on --root, so a
    # relative PYTHONPATH (e.g. "src") would not resolve there. Put the
    # directory holding the imported package first, whether it is a source
    # checkout, an editable install or a regular install.
    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(wormdb.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "wormdb", "--root", root]
    if config:
        argv += ["--config", config]
    return subprocess.run(argv + args, capture_output=True, text=True,
                          cwd="/", env=env)


def test_gen_run_scan_and_select(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "500", "--seed", "1",
                    "--key-count", "5"], root, config) == 0
    capsys.readouterr()

    assert run_cli(["run", "--workload", "scan", "--limit", "200"],
                   root) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["records_returned"] == 200

    assert run_cli(["run", "--workload", "select", "--index"], root) == 0
    with_index = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert run_cli(["run", "--workload", "select", "--no-index"], root) == 0
    without = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert with_index["records_returned"] == 5
    assert without["records_returned"] == 5
    assert with_index["page_reads"] < without["page_reads"]


def test_insert_then_scan_grows(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "100", "--seed", "2"], root,
                   config) == 0
    capsys.readouterr()
    assert run_cli(["run", "--workload", "insert", "--repeat", "50"],
                   root) == 0
    capsys.readouterr()
    assert run_cli(["run", "--workload", "scan", "--limit", "100000"],
                   root) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["records_returned"] == 150


def test_update_workload(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "200", "--seed", "3",
                    "--key-count", "4"], root, config) == 0
    capsys.readouterr()
    assert run_cli(["run", "--workload", "update"], root) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["records_returned"] == 4
    assert run_cli(["run", "--workload", "select"], root) == 0
    capsys.readouterr()


def test_gen_twice_fails(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "10"], root, config) == 0
    capsys.readouterr()
    assert run_cli(["gen", "--tuples", "10"], root, config) == 2


def test_recover_on_clean_db(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "50", "--seed", "4"], root,
                   config) == 0
    capsys.readouterr()
    assert run_cli(["recover"], root) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["recovery"] == "clean"


def _open_root(root, faults):
    """The database of a root `gen` made with SMALL_CONFIG, opened in
    this process without recovery."""
    cluster = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    return Database.open(cluster, "db", SMALL_CONFIG["page_size"],
                         SMALL_CONFIG["post_commit_threshold"],
                         faults=faults, recover=False)


@pytest.mark.parametrize("log", ["clean", "rollback", "abandoned batch"])
def test_recover_says_why_it_chose_its_path(small_root, capsys, log):
    """Beside the path it took, `recover` reports what it chose it from,
    as the log stood before: the live log generation, the lowest
    registered, and that generation's blocks past its committed prefix.
    A block past the prefix is a rollback, else the log is clean; a
    batch that crashed before it dropped the live generation is
    abandoned, so its log is clean at the same generation. A second
    `recover` then finds it clean."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "50", "--seed", "4"], root,
                   config) == 0
    capsys.readouterr()
    faults = FaultInjector()
    db = _open_root(root, faults)
    generation = db.store.generation
    if log == "rollback":
        # the block a commit that failed after its auto-flush leaves
        s = db.session()
        s.begin("write")
        for pageid in range(1, db.manager.pages_per_block):
            db.store.write_page(pageid, bytes(db.manager.page_size))
        s.abort()
    elif log == "abandoned batch":
        faults.arm("dfs.batch.before_generation_drop")
        with pytest.raises(CrashPoint):
            db.run_maintenance()
    assert run_cli(["recover"], root) == 0
    rollback = log == "rollback"
    assert json.loads(capsys.readouterr().out) == {
        "recovery": "rollback" if rollback else "clean",
        "generation": generation, "uncommitted_blocks": int(rollback)}
    assert run_cli(["recover"], root) == 0
    assert json.loads(capsys.readouterr().out) == {
        "recovery": "clean", "generation": generation,
        "uncommitted_blocks": 0}
    assert run_cli(["run", "--workload", "scan"], root) == 0
    assert json.loads(capsys.readouterr().out)["records_returned"] == 50


def test_crash_point_exit_code_and_recover(small_root):
    root, config = small_root
    result = run_cli_subprocess(["gen", "--tuples", "200", "--seed", "5"],
                                root, config)
    assert result.returncode == 0, result.stderr

    result = run_cli_subprocess(
        ["run", "--workload", "insert", "--repeat", "120",
         "--crash-point", "dfs.commit.before_marker"], root)
    assert result.returncode == 42, result.stderr

    # run refuses until recovery happens
    result = run_cli_subprocess(["run", "--workload", "scan"], root)
    assert result.returncode == 2, result.stderr
    assert "recover" in result.stderr

    result = run_cli_subprocess(["recover"], root)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["recovery"] == "rollback"

    result = run_cli_subprocess(
        ["run", "--workload", "scan", "--limit", "100000"], root)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["records_returned"] == 200

    # crash after the marker: the insert survives recovery
    result = run_cli_subprocess(
        ["run", "--workload", "insert", "--repeat", "60",
         "--crash-point", "dfs.commit.after_marker"], root)
    assert result.returncode == 42, result.stderr
    result = run_cli_subprocess(["recover"], root)
    assert result.returncode == 0, result.stderr
    # the committed marker leaves nothing to recover: the log already
    # holds only committed data
    assert json.loads(result.stdout)["recovery"] == "clean"
    result = run_cli_subprocess(
        ["run", "--workload", "scan", "--limit", "100000"], root)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["records_returned"] == 260

    # crash in the middle of batch post-commit, before it drops
    # generation 1, its commit point: the batch is abandoned, and recover
    # finds the log clean at the same generation (ten-row inserts land
    # in the committed heap's tail block, which is logged, so each commit
    # appends a short log block; the 33rd commit's batch is the first,
    # when the log passes 16 blocks' worth of bytes, 131,072; with
    # 10-byte index entries and sub-page index tiers the log holds
    # 131,001 before it)
    result = run_cli_subprocess(
        ["run", "--workload", "insert", "--repeat", "10",
         "--repeat-runs", "40",
         "--crash-point", "dfs.batch.before_generation_drop"], root)
    assert result.returncode == 42, result.stderr
    result = run_cli_subprocess(["recover"], root)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "recovery": "clean", "generation": 1, "uncommitted_blocks": 0}
    result = run_cli_subprocess(
        ["run", "--workload", "scan", "--limit", "100000"], root)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["records_returned"] == 590


@pytest.mark.parametrize("point", ["dfs.commit.before_direct_block",
                                   "dfs.commit.after_direct_block"])
def test_crash_at_an_unlogged_block_rolls_back(small_root, point):
    """120 inserts fill heap blocks past the committed heap's end, which
    the commit writes in place before its marker; a crash there loses the
    whole insert, and the next insert writes over what it left."""
    root, config = small_root
    result = run_cli_subprocess(["gen", "--tuples", "200", "--seed", "5"],
                                root, config)
    assert result.returncode == 0, result.stderr
    result = run_cli_subprocess(
        ["run", "--workload", "insert", "--repeat", "120",
         "--crash-point", point], root)
    assert result.returncode == 42, result.stderr
    result = run_cli_subprocess(["recover"], root)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["recovery"] == "rollback"
    scan = ["run", "--workload", "scan", "--limit", "100000"]
    result = run_cli_subprocess(scan, root)
    assert json.loads(result.stdout)["records_returned"] == 200
    result = run_cli_subprocess(
        ["run", "--workload", "insert", "--repeat", "120"], root)
    assert result.returncode == 0, result.stderr
    result = run_cli_subprocess(scan, root)
    assert json.loads(result.stdout)["records_returned"] == 320


def test_unreached_crash_point_exits_2(small_root):
    root, config = small_root
    result = run_cli_subprocess(["gen", "--tuples", "500"], root, config)
    assert result.returncode == 0, result.stderr
    # a read-only scan never opens a batch post-commit
    result = run_cli_subprocess(
        ["run", "--workload", "scan", "--crash-point", "dfs.batch.begin"],
        root)
    assert result.returncode == 2, result.stderr
    assert "dfs.batch.begin" in result.stderr
    assert "never reached" in result.stderr
    result = run_cli_subprocess(["recover"], root)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["recovery"] == "clean"


def test_core_crash_point_rejected(small_root, capsys):
    root, _ = small_root
    # core.* points belong to the flat-file oracle under tests/, which the
    # package does not ship: the CLI and the package's own injector both
    # refuse them
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--workload", "select", "--crash-point",
                 "core.commit.after_log_sync"], root)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(ValueError):
        FaultInjector().arm("core.commit.after_log_sync")
    with pytest.raises(ValueError, match="unknown fault action: hang"):
        FaultInjector().arm("dfs.commit.before_marker", action="hang")


def test_crash_points_a_run_cannot_reach_are_refused(small_root, capsys):
    """`run` opens the root without recovery, so argparse refuses the
    restart points before the root is opened, and the workload does not
    run."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "200"], root, config) == 0
    unreachable = [point for point in SPDU_DFS_FAULT_POINTS
                   if point.startswith("dfs.restart.")]
    assert len(unreachable) == 2
    for point in unreachable:
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--workload", "insert", "--repeat", "10",
                     "--crash-point", point], root)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert run_cli(["run", "--workload", "scan"], root) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])[
        "records_returned"] == 200


def test_load_config_keys_and_types(tmp_path):
    assert load_config(None) == asdict(EngineConfig())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"total_pages": 64, "page_size": 512}))
    values = load_config(str(path))
    assert values == {**asdict(EngineConfig()), "total_pages": 64,
                      "page_size": 512}
    path.write_text(json.dumps({"pages": 512}))
    with pytest.raises(ValueError, match="unknown config key: pages"):
        load_config(str(path))


def test_load_config_bool_takes_only_a_json_boolean(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"deferred": False}))
    assert load_config(str(path))["deferred"] is False
    for value in ("false", 0, 1, None):
        path.write_text(json.dumps({"deferred": value}))
        with pytest.raises(ConfigError, match="deferred needs a JSON boolean"):
            load_config(str(path))
    path.write_text(json.dumps({"page_size": True}))
    with pytest.raises(ConfigError, match="page_size needs a JSON integer"):
        load_config(str(path))


def test_gen_writes_deferred_false(small_root, capsys):
    root, config = small_root
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({**SMALL_CONFIG, "deferred": False}, fh)
    assert run_cli(["gen", "--tuples", "5", "--seed", "2"], root,
                   config) == 0
    with open(os.path.join(root, "db.json"), encoding="utf-8") as fh:
        assert json.load(fh)["deferred"] is False


@pytest.mark.parametrize("given", [
    {"pages": 1}, {"deferred": "false"}, {"page_size": "512"},
    {"post_commit_threshold": [1]}, [1, 2], {"page_size": 512.0}])
def test_bad_config_is_one_error_line(small_root, capsys, given):
    root, config = small_root
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(given, fh)
    assert run_cli(["gen", "--tuples", "5"], root, config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not os.path.exists(os.path.join(root, "db.json"))


@pytest.mark.parametrize("given", [
    {"page_size": 3000}, {"page_size": 8192}, {"page_size": 0},
    {"block_size": 0}, {"replication": 9}, {"replication": 0},
    {"num_nodes": 0}, {"block_size": 65536}, {"total_pages": 0}])
def test_invalid_config_writes_nothing_under_root(tmp_path, capsys, given):
    """A config of the right types but impossible values fails before gen
    creates anything: in a fresh root and in an existing one."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, **given}))
    fresh = str(tmp_path / "fresh")
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "keep.txt").write_text("x")
    for root in (fresh, str(existing)):
        before = os.listdir(root) if os.path.exists(root) else None
        assert run_cli(["gen", "--tuples", "5"], root, str(config)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad config")
        after = os.listdir(root) if os.path.exists(root) else None
        assert after == before


def test_unreadable_config_is_one_error_line(small_root, capsys):
    root, config = small_root
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    assert run_cli(["gen", "--tuples", "5"], root, config) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")
    missing = os.path.join(os.path.dirname(config), "missing.json")
    assert run_cli(["gen", "--tuples", "5"], root, missing) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2], lambda text: "{}",
    lambda text: '{"page_size": "4096"}'])
def test_bad_db_json_is_one_error_line(small_root, capsys, damage):
    """Opening a database reads db.json with the config file's checks and
    needs every key."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    path = os.path.join(root, "db.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(damage(text))
    for command in (["recover"], ["run", "--workload", "scan"]):
        assert run_cli(command, root) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("key", ["latency", "placement_seed"])
def test_a_db_json_with_a_dropped_key_is_one_error_line(small_root, capsys,
                                                        key):
    """A db.json written while the config still had `latency` and
    `placement_seed` (every key, each 0) is refused: `run` prints one
    error line naming the key and exits 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    path = os.path.join(root, "db.json")
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**values, key: 0}, fh)
    assert run_cli(["run", "--workload", "scan"], root) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: unknown config key: {key}"]


def test_a_root_of_the_two_table_layout_is_one_error_line(small_root,
                                                          capsys):
    """A root saved before the NameNode kept one table (rows without a
    kind in namenode.tbl, the block counts in metafiles.tbl) is refused:
    `recover` prints one error line naming the first row and exits 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    [table] = [os.path.join(folder, "namenode.tbl")
               for folder, _, names in os.walk(root)
               if "namenode.tbl" in names]
    with open(table, encoding="utf-8") as fh:
        rows = [line.split("\t", 1) for line in fh]
    with open(table, "w", encoding="utf-8") as fh:
        fh.writelines(row for kind, row in rows if kind == "file")
    with open(os.path.join(os.path.dirname(table), "metafiles.tbl"), "w",
              encoding="utf-8") as fh:
        fh.writelines(row for kind, row in rows if kind == "meta")
    assert run_cli(["recover"], root) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    first = next(row for kind, row in rows if kind == "file")
    assert repr(first.rstrip("\n")) in lines[0]


def test_a_root_with_an_uncompressed_log_block_is_one_error_line(
        small_root, capsys):
    """A root whose log holds a block of the layout used before log
    blocks were compressed (its pages raw, then a footer whose fixed
    part, count, flag and checksum, comes first) is refused: `recover`
    and `run` print one error line and exit 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    cluster = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    log = generation_name("db/log", 1)  # no batch has run
    pageids = struct.pack("<Q", 5)
    crc = zlib.crc32(struct.pack("<IB", 1, 1) + pageids)
    old_block = stamp_page(5, bytes(SMALL_CONFIG["page_size"])) + \
        struct.pack("<IBQ", 1, 1, crc) + pageids
    cluster.create_file(constituent_name(log, cluster.meta_block_count(log)),
                        old_block, meta=log)
    for command in (["recover"], ["run", "--workload", "scan"]):
        assert run_cli(command, root) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_a_root_whose_committed_log_body_does_not_decode_is_refused(
        small_root, capsys):
    """A committed log block with one byte of its compressed body flipped
    on every replica, its footer intact, is refused at restart, which
    would otherwise find the log clean: a recovering open raises
    RecoveryError, and `recover` prints one error line and exits 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "50", "--seed", "4"], root,
                   config) == 0
    capsys.readouterr()
    db = _open_root(root, FaultInjector())
    # the newest commit-marked block
    block_id = max(block_id for block_id, (_, complete)
                   in db.store.footers().items() if complete)
    entry = db.manager.constituent_entry(db.store.log, block_id)
    block = stored_block(db.manager, db.store.log, block_id)
    pageids, _ = unpack_footer(block)
    flip = (len(block) - 13 - 8 * len(pageids)) // 2
    damaged = bytearray(block)
    damaged[flip] ^= 0xFF
    assert unpack_footer(bytes(damaged)) == unpack_footer(block)
    window = log_windows(db.store)[block_id]
    unpack_body(block, SMALL_CONFIG["page_size"], window)
    with pytest.raises(RecoveryError):
        unpack_body(bytes(damaged), SMALL_CONFIG["page_size"], window)
    for holder in entry.holders:
        path = os.path.join(root, f"node_{holder}", f"{entry.file_id}.blk0")
        with open(path, "wb") as fh:
            fh.write(damaged)
    cluster = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    with pytest.raises(RecoveryError):
        Database.open(cluster, "db", SMALL_CONFIG["page_size"], recover=True)
    assert run_cli(["recover"], root) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_a_root_whose_earlier_log_block_was_replaced_is_refused(
        small_root, capsys):
    """Block 0 of the live generation, replaced on every replica by
    another zlib stream of as many pages and bases, still decodes alone,
    but the committed blocks after it then take a wrong window: their
    streams name the dictionary they were written with, which zlib
    checks, so a recovering open raises RecoveryError and `recover`
    prints one error line and exits 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "50", "--seed", "4"], root,
                   config) == 0
    for _ in range(2):
        assert run_cli(["run", "--workload", "insert", "--repeat", "5"],
                       root) == 0
    capsys.readouterr()

    def cluster():
        return DfsCluster(
            DfsConfig(SMALL_CONFIG["block_size"],
                      SMALL_CONFIG["replication"]),
            SMALL_CONFIG["num_nodes"], root)

    live = generation_name("db/log", 1)  # no batch has run
    dfs = cluster()
    assert dfs.meta_block_count(live) >= 3
    manager = MetaDfsManager(dfs, SMALL_CONFIG["page_size"])
    pageids, complete = unpack_footer(stored_block(manager, live, 0))
    other = bytes(len(pageids) * (SMALL_CONFIG["page_size"] + 8))
    replaced = zlib.compress(other, 1) + pack_footer(pageids, complete)
    assert unpack_body(replaced, SMALL_CONFIG["page_size"]) == \
        (pageids, other)
    dfs.delete_file(constituent_name(live, 0))
    dfs.create_file(constituent_name(live, 0), replaced)
    with pytest.raises(RecoveryError, match="does not decode"):
        Database.open(cluster(), "db", SMALL_CONFIG["page_size"],
                      recover=True)
    assert run_cli(["recover"], root) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _rewrite_log_as_a_master_file(root, master_page, generations):
    """Rewrite the log of the database at `root`, on which no batch has
    run, as a root written with a log master meta file holds it: the
    master meta file `db/log`, whose block 0 is `master_page`, and the
    log blocks in generation `db/log/gen1` or, without `generations`,
    after the master page in `db/log` itself. The database then has no
    log generation this package reads."""
    cluster = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    manager = MetaDfsManager(cluster, SMALL_CONFIG["page_size"])
    live = generation_name("db/log", 1)
    blocks = [stored_block(manager, live, block_id)
              for block_id in range(cluster.meta_block_count(live))]
    master = "db/log"
    manager.create_meta(master)
    manager.append_block(
        master, master_page.ljust(SMALL_CONFIG["page_size"], b"\0"))
    target = "db/log/gen1" if generations else master
    if generations:
        manager.create_meta(target)
    for block in blocks:
        manager.append_block(target, block)
    manager.delete_meta(live)
    assert cluster.meta_names("db/log") == (
        ["db/log", "db/log/gen1"] if generations else ["db/log"])


def _refused_with_one_error_line(root, capsys):
    cluster = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    with pytest.raises(RecoveryError, match="^log db/log has no generation$"):
        Database.open(cluster, "db", SMALL_CONFIG["page_size"])
    for command in (["recover"], ["run", "--workload", "scan"]):
        assert run_cli(command, root) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: log db/log has no generation"]


def test_a_root_of_the_master_format_before_generations_is_one_error_line(
        small_root, capsys):
    """A root whose log is one master meta file, its master block (its
    magic, then the flag) and then the log blocks, as a root written
    before log generations holds it, is refused: it has no generation,
    so an open raises RecoveryError, and `recover` and `run` print one
    error line and exit 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    _rewrite_log_as_a_master_file(
        root, struct.pack("<IB", 0x4C4F4730, 0), generations=False)
    _refused_with_one_error_line(root, capsys)


def test_a_root_of_the_master_format_with_a_commit_flag_is_one_error_line(
        small_root, capsys):
    """A root whose log master block holds a batch commit_flag before
    the live generation, as the master block of a root written while a
    batch still set and cleared that flag does, beside generation
    `gen1`, is refused: an open raises RecoveryError, and `recover` and
    `run` print one error line and exit 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    _rewrite_log_as_a_master_file(
        root, struct.pack("<IBQ", 0x4C4F4731, 0, 1), generations=True)
    _refused_with_one_error_line(root, capsys)


def test_a_root_with_a_log_master_block_is_one_error_line(
        small_root, capsys):
    """A root whose log master block names the live generation, `gen1`,
    as a root written while the master block was the batch's commit
    point holds it, is refused, though generation `gen1` is registered:
    no log generation is read from a name older roots used, so an open
    raises RecoveryError, and `recover` and `run` print one error line
    and exit 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    _rewrite_log_as_a_master_file(
        root, struct.pack("<IQ", 0x4C4F4732, 1), generations=True)
    _refused_with_one_error_line(root, capsys)


def test_a_root_of_catalog_version_1_is_one_error_line(small_root, capsys,
                                                      monkeypatch):
    """A root whose catalog is version 1, as the catalog of a root whose
    index entries held their whole key is, is refused: a recovering open
    raises RecoveryError, and `recover` and `run` print one error line
    and exit 2."""
    root, config = small_root
    with monkeypatch.context() as patched:
        patched.setattr(engine, "_CATALOG_VERSION", 1)
        assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                       config) == 0
    capsys.readouterr()
    cluster = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    with pytest.raises(RecoveryError):
        Database.open(cluster, "db", SMALL_CONFIG["page_size"], recover=True)
    for command in (["recover"], ["run", "--workload", "scan"]):
        assert run_cli(command, root) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: catalog version 1 not supported"]


def _in_the_earlier_layout(pageid, page, heap):
    """`page` as a root written with 16-byte page headers and 4-byte
    slots holds it: the header is the pageid, 4 zero bytes and the
    payload's crc32 as a u64; the catalog (page 0, version 2) and index
    entries lie 8 bytes further in, and a heap page (`heap` holds its
    pageids) keeps its records where they are and gives each slot its
    record's offset and length."""
    size = len(page)
    if pageid in heap:
        spans = list(SlottedPage(bytearray(page)).spans())
        data_start = spans[-1][0]
        assert 20 + 4 * len(spans) <= data_start
        earlier = bytearray(size)
        earlier[data_start:] = page[data_start:]
        struct.pack_into("<HH", earlier, 16, len(spans), data_start)
        for slot, (start, end) in enumerate(spans):
            struct.pack_into("<HH", earlier, 20 + 4 * slot, start,
                             end - start)
        payload = bytes(earlier[16:])
    else:
        app = bytearray(page[PAGE_HEADER_SIZE:])
        if pageid == 0:
            struct.pack_into("<H", app, 4, 2)  # the catalog's version
        assert not any(app[size - 16:])
        payload = bytes(app[:size - 16])
    return struct.pack("<I4xQ", pageid, zlib.crc32(payload)) + payload


def test_a_root_in_the_earlier_page_layout_is_one_error_line(
        small_root, capsys):
    """A root whose pages are in the layout written before a slot became
    its record's offset alone and the page header 8 bytes (a 16-byte
    header, a version 2 catalog, 4-byte slots) is refused, never misread:
    an open raises RecoveryError, and `recover` and `run` print one
    error line and exit 2."""
    root, config = small_root
    assert run_cli(["gen", "--tuples", "5", "--seed", "3"], root,
                   config) == 0
    capsys.readouterr()
    cluster = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    db = Database.open(cluster, "db", SMALL_CONFIG["page_size"],
                       post_commit_threshold=0)
    db.run_maintenance()  # every page home, the log empty
    catalog = parse_catalog(db.manager.read_page(db.data_name, 0))
    heap = range(HEAP_START, HEAP_START + catalog.heap_used)
    size = db.manager.page_size
    rewritten = 0
    for block_id in range(cluster.meta_block_count(db.data_name)):
        if not db.manager.has_constituent(db.data_name, block_id):
            continue
        block = db.manager.read_block(db.data_name, block_id)
        first = block_id * db.manager.pages_per_block
        pages = [block[k:k + size] for k in range(0, len(block), size)]
        rewritten += sum(map(any, pages))
        db.manager.overwrite_block(db.data_name, block_id, b"".join(
            _in_the_earlier_layout(first + k, page, heap) if any(page)
            else page for k, page in enumerate(pages)))
    assert catalog.heap_used >= 2 and catalog.segments and \
        rewritten == 1 + catalog.heap_used + sum(
            seg.pages for seg in catalog.segments)
    reopened = DfsCluster(
        DfsConfig(SMALL_CONFIG["block_size"], SMALL_CONFIG["replication"]),
        SMALL_CONFIG["num_nodes"], root)
    for recover in (True, False):
        with pytest.raises(RecoveryError,
                           match="^catalog page has bad magic$"):
            Database.open(reopened, "db", SMALL_CONFIG["page_size"],
                          recover=recover)
    for command in (["recover"], ["run", "--workload", "scan"]):
        assert run_cli(command, root) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: catalog page has bad magic"]


def test_csv_output(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "20", "--seed", "6"], root,
                   config) == 0
    capsys.readouterr()
    assert run_cli(["--out", "csv", "run", "--workload", "scan",
                    "--limit", "5"], root) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("dfs_remakes,elapsed")
    assert len(out) == 2


def test_repeat_runs_emits_one_report_each(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "40", "--seed", "8"], root,
                   config) == 0
    capsys.readouterr()
    assert run_cli(["run", "--workload", "scan", "--limit", "10",
                    "--repeat-runs", "3"], root) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    counts = {json.loads(line)["records_returned"] for line in lines}
    assert counts == {10}


def test_soak_command(small_root, capsys):
    root, config = small_root
    assert run_cli(["gen", "--tuples", "10", "--seed", "7"], root,
                   config) == 0
    capsys.readouterr()
    assert run_cli(["soak", "--sessions", "4", "--events", "64",
                    "--seed", "1"], root) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["ok"] is True
    assert report["final_count"] == \
        report["baseline"] + report["committed_inserts"]


def test_soak_reports_a_short_read_as_an_error(monkeypatch):
    """A worker's read that sees fewer rows than were committed before
    it is an error message of its own, so the soak is not ok, while the
    final count still matches."""
    cluster = DfsCluster(DfsConfig(8192, 2), 4)
    db = Database.create(cluster, "db", 1024, 512, 16, True, FaultInjector())
    bench.generate(db, 20, seed=3, probe_count=0)
    scan = engine.Session.scan

    def short_for_workers(session, limit):
        rows = scan(session, limit)
        return rows[:1] if session.owner.split("-")[-1].isdigit() else rows

    monkeypatch.setattr(engine.Session, "scan", short_for_workers)
    result = bench.soak(db, sessions=2, events=40, seed=1)
    assert result["ok"] is False
    assert result["final_count"] == \
        result["baseline"] + result["committed_inserts"]
    assert result["errors"] and all(
        "fewer than baseline 20" in error for error in result["errors"])


def test_soak_reports_a_workers_exception_and_a_final_count_mismatch(
        monkeypatch):
    """An exception a worker's transaction raises is aborted and becomes
    an error message naming the worker, and so does a final count that
    is not the baseline plus the committed inserts."""
    cluster = DfsCluster(DfsConfig(8192, 2), 4)
    db = Database.create(cluster, "db", 1024, 512, 16, True, FaultInjector())
    bench.generate(db, 20, seed=3, probe_count=0)
    insert, scan = engine.Session.insert_record, engine.Session.scan

    def failing_for_worker_0(session, record):
        if session.owner == "soak-0":
            raise RuntimeError("insert refused")
        return insert(session, record)

    def one_more_for_the_check(session, limit):
        rows = scan(session, limit)
        return rows + rows[:1] if session.owner == "soak-check" else rows

    monkeypatch.setattr(engine.Session, "insert_record", failing_for_worker_0)
    monkeypatch.setattr(engine.Session, "scan", one_more_for_the_check)
    result = bench.soak(db, sessions=2, events=40, seed=1)
    assert result["ok"] is False
    assert result["final_count"] == \
        result["baseline"] + result["committed_inserts"] + 1
    assert "soak-0: RuntimeError('insert refused')" in result["errors"]
    assert result["errors"][-1] == (
        f"final count {result['final_count']} != baseline 20 "
        f"+ committed {result['committed_inserts']}")
    assert db.locks.snapshot(db.data_name) == []


def test_run_workload_refuses_an_unknown_kind():
    cluster = DfsCluster(DfsConfig(8192, 2), 4)
    db = Database.create(cluster, "db", 64, 512, 16, True, FaultInjector())
    with pytest.raises(ValueError, match="unknown workload kind: delete"):
        bench.run_workload(db, "delete")


def test_counter_determinism_across_generations(tmp_path):
    reports = []
    for run in range(2):
        cluster = DfsCluster(DfsConfig(8192, 2), 4)
        db = Database.create(cluster, "db", 1024, 512, 16, True,
                             FaultInjector())
        bench.generate(db, 300, seed=9, probe_count=3)
        report = bench.run_workload(db, "scan", limit=300)
        report.pop("elapsed")
        reports.append(report)
    assert reports[0] == reports[1]


def test_failed_workload_releases_its_lock():
    cluster = DfsCluster(DfsConfig(8192, 2), 4)
    db = Database.create(cluster, "db", 64, 512, 16, True, FaultInjector())
    with pytest.raises(DatabaseFull):
        bench.run_workload(db, "insert", repeat=5000)
    assert db.locks.snapshot(db.data_name) == []
    bench.run_workload(db, "insert", repeat=10)
    scan = bench.run_workload(db, "scan")
    assert scan["records_returned"] == 10


def test_generate_zero_tuples():
    cluster = DfsCluster(DfsConfig(8192, 2), 4)
    db = Database.create(cluster, "db", 256, 512, 16, True, FaultInjector())
    with pytest.raises(ValueError, match="cannot plant 1 probe rows in 0"):
        bench.generate(db, 0, seed=1, probe_count=1)
    bench.generate(db, 0, seed=1, probe_count=0)
    s = db.session()
    s.begin("read")
    assert s.scan(10) == []
    s.commit()


def test_generation_deterministic_data_bytes():
    states = []
    for run in range(2):
        cluster = DfsCluster(DfsConfig(8192, 2), 4)
        db = Database.create(cluster, "db", 1024, 512, 16, True,
                             FaultInjector())
        bench.generate(db, 250, seed=11, probe_count=3)
        states.append(data_blocks(db.store))
    assert states[0] == states[1]


def _tree(root):
    """Each file under `root` with its size and mtime; None if no root."""
    if not os.path.exists(root):
        return None
    return {os.path.join(d, f): (os.stat(os.path.join(d, f)).st_size,
                                 os.stat(os.path.join(d, f)).st_mtime_ns)
            for d, _, files in os.walk(root) for f in files}


@pytest.mark.parametrize("argv", [
    ["soak", "--sessions", "0"],
    ["run", "--workload", "scan", "--repeat", "0"],
    ["run", "--workload", "scan", "--limit", "-1"],
    ["run", "--workload", "scan", "--repeat-runs", "0"],
    ["gen", "--tuples", "-5"],
    ["gen", "--key-count", "-1"],
    ["soak", "--events", "0"]])
def test_out_of_range_number_fails_at_parse_time(small_root, capsys, argv):
    root, config = small_root
    if argv[0] != "gen":
        assert run_cli(["gen", "--tuples", "10", "--seed", "1"], root,
                       config) == 0
    before = _tree(root)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, root, config if argv[0] == "gen" else None)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argv[-2]}: must be at least" in captured.err
    assert _tree(root) == before


@pytest.mark.parametrize("method,failing_call", [
    ("meta_register", 1),  # the data file, the first NameNode mutation
    ("create_file", 1),    # the data file's catalog block
    ("meta_register", 2)])  # the log's first generation, the data done
def test_gen_after_an_unfinished_create_loads_every_row(
        small_root, capsys, monkeypatch, method, failing_call):
    """A gen that fails inside Database.create leaves no db.json; the next
    gen deletes what that create left and loads the database again."""
    root, config = small_root
    original = getattr(DfsCluster, method)
    calls = []

    def failing(self, *args, **kwargs):
        calls.append(args)
        if len(calls) == failing_call:
            raise RuntimeError(f"injected failure of {method}")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DfsCluster, method, failing)
    with pytest.raises(RuntimeError, match="injected"):
        run_cli(["gen", "--tuples", "300"], root, config)
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(root, "db.json"))
    assert run_cli(["gen", "--tuples", "300"], root, config) == 0
    capsys.readouterr()
    assert run_cli(["run", "--workload", "scan"], root) == 0
    assert json.loads(capsys.readouterr().out)["records_returned"] == 300


def test_failed_gen_leaves_an_open_root(small_root, capsys):
    """A load that fails with DatabaseFull after the database exists
    leaves db.json: the root recovers, reads back what was committed (no
    row: the load commits once, at its end) and takes new commits, and a
    second gen refuses it."""
    root, config = small_root
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({**SMALL_CONFIG, "total_pages": 64}, fh)
    assert run_cli(["gen", "--tuples", "20000"], root, config) == 2
    assert "collides with index space" in capsys.readouterr().err
    assert run_cli(["recover"], root) == 0
    assert json.loads(capsys.readouterr().out)["recovery"] == "clean"
    assert run_cli(["run", "--workload", "scan"], root) == 0
    assert json.loads(capsys.readouterr().out)["records_returned"] == 0
    assert run_cli(["run", "--workload", "insert", "--repeat", "10"],
                   root) == 0
    assert run_cli(["run", "--workload", "scan"], root) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["records_returned"] == 10
    assert run_cli(["gen", "--tuples", "10"], root, config) == 2
    assert "database already exists" in capsys.readouterr().err
