import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormdb.dfs import DataNode, DfsCluster, DfsConfig
from wormdb.errors import (
    AllReplicasDead,
    AlreadyExists,
    InsufficientReplicaNodes,
    NotFound,
    OutOfRange,
    RecoveryError,
    UnknownNode,
    WrongBlockSize,
)
from wormdb.metafile import MetaDfsManager

KB = 1024


def make_cluster(block_size=64 * KB, replication=3, nodes=5, seed=7,
                 root=None):
    return DfsCluster(DfsConfig(block_size, replication, seed), nodes, root)


def _tree(root):
    """Every file under `root` with its bytes."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[path] = fh.read()
    return found


def _block_path(root, node_id, entry):
    """Where DataNode `node_id` under `root` stores `entry`'s block."""
    return os.path.join(root, f"node_{node_id}", f"{entry.file_id}.blk0")


class Died(BaseException):
    """The death of the process inside a DFS call; no Exception, so no
    handler of the cluster's takes it for an ordinary error."""


def test_create_refuses_more_than_one_block(tmp_path):
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    entry = cluster.create_file("f", bytes(64 * KB))
    assert entry.size_bytes == 64 * KB
    assert [len(r) for r in cluster.replicas("f")] == [64 * KB] * 3
    before, written = _tree(root), cluster.counters.bytes_written
    with pytest.raises(WrongBlockSize):
        cluster.create_file("g", bytes(64 * KB + 1))
    assert not cluster.exists("g")
    assert cluster.counters.bytes_written == written
    assert _tree(root) == before


def test_empty_file_round_trips(tmp_path):
    root = str(tmp_path / "dfs")
    entry = make_cluster(root=root).create_file("e", b"")
    assert entry.size_bytes == 0
    reopened = make_cluster(root=root)
    assert reopened.file_entry("e").holders == entry.holders
    assert reopened.read_range("e", 0, 0) == b""
    assert reopened.replicas("e") == [b""] * 3


def test_create_twice_is_write_once_violation():
    cluster = make_cluster()
    cluster.create_file("f", b"x")
    with pytest.raises(AlreadyExists):
        cluster.create_file("f", b"y")


def test_create_needs_enough_alive_nodes():
    cluster = make_cluster(nodes=3)
    cluster.set_node_alive(0, False)
    with pytest.raises(InsufficientReplicaNodes):
        cluster.create_file("f", bytes(64 * KB))
    # exactly R alive still works
    cluster.set_node_alive(0, True)
    cluster.create_file("f", bytes(64 * KB))


def test_read_range_round_trip_and_offsets():
    cluster = make_cluster()
    content = random.Random(1).randbytes(64 * KB)
    cluster.create_file("f", content)
    assert cluster.read_range("f", 0, len(content)) == content
    assert cluster.read_range("f", 40004, 8) == content[40004:40012]
    assert cluster.read_range("f", 64 * KB - 8, 8) == content[-8:]
    assert cluster.read_range("f", 0, 0) == b""


def test_read_range_errors():
    cluster = make_cluster()
    cluster.create_file("f", bytes(10))
    with pytest.raises(NotFound):
        cluster.read_range("g", 0, 1)
    with pytest.raises(OutOfRange):
        cluster.read_range("f", 8, 4)


def test_read_survives_replica_deaths_until_last():
    cluster = make_cluster()
    content = random.Random(2).randbytes(64 * KB)
    entry = cluster.create_file("f", content)
    holders = entry.holders
    cluster.set_node_alive(holders[0], False)
    cluster.set_node_alive(holders[1], False)
    assert cluster.read_range("f", 0, 100) == content[:100]
    cluster.set_node_alive(holders[2], False)
    with pytest.raises(AllReplicasDead):
        cluster.read_range("f", 0, 100)
    # revive one -> served again
    cluster.set_node_alive(holders[1], True)
    assert cluster.read_range("f", 10, 10) == content[10:20]


@pytest.mark.parametrize("persistent", [False, True])
def test_a_missing_block_of_a_listed_holder_is_a_recovery_error(
        tmp_path, persistent):
    """A live holder that lacks the block the NameNode lists it for (only
    damage from outside the DFS leaves this now) fails the read with
    RecoveryError naming the file and the node, not a raw OS or dict
    error."""
    root = str(tmp_path / "dfs") if persistent else None
    cluster = make_cluster(root=root)
    entry = cluster.create_file("f", b"abc")
    holder = entry.holders[0]
    if persistent:
        os.remove(_block_path(root, holder, entry))
    else:
        del cluster._nodes[holder]._mem[(entry.file_id, 0)]
    with pytest.raises(RecoveryError, match=f"f: DataNode {holder} "):
        cluster.read_range("f", 0, 3)
    with pytest.raises(RecoveryError, match=f"f: DataNode {holder} "):
        cluster.replicas("f")


def test_delete_then_read_and_remake():
    cluster = make_cluster()
    cluster.create_file("f", b"old")
    cluster.delete_file("f")
    with pytest.raises(NotFound):
        cluster.read_range("f", 0, 1)
    # a deleted name can be created again
    cluster.create_file("f", b"new")
    assert cluster.read_range("f", 0, 3) == b"new"
    with pytest.raises(NotFound):
        cluster.delete_file("missing")


def test_rename_semantics():
    cluster = make_cluster()
    content = random.Random(3).randbytes(60 * KB)
    cluster.create_file("a", content)
    cluster.create_file("b", b"other")
    with pytest.raises(AlreadyExists):
        cluster.rename_file("a", "b")
    with pytest.raises(NotFound):
        cluster.rename_file("zzz", "w")
    cluster.rename_file("a", "c")
    assert cluster.read_range("c", 0, len(content)) == content
    assert not cluster.exists("a")


def _stored_on(root, entry):
    """The nodes whose directory under `root` holds `entry`'s block."""
    return {os.path.basename(os.path.dirname(path))
            for path in _tree(root) if os.path.basename(path) ==
            f"{entry.file_id}.blk0"}


def test_rename_with_overwrite_replaces_the_target(tmp_path, monkeypatch):
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    content = random.Random(6).randbytes(60 * KB)
    old = cluster.create_file("target", b"old")
    new = cluster.create_file("target.new", content)
    assert set(old.holders) != set(new.holders)
    saves = []
    save = cluster._save_tables
    monkeypatch.setattr(cluster, "_save_tables",
                        lambda: saves.append(1) or save())
    cluster.rename_file("target.new", "target", overwrite=True)
    assert saves == [1]
    assert not cluster.exists("target.new")
    entry = cluster.file_entry("target")
    assert (entry.file_id, entry.holders) == (new.file_id, new.holders)
    assert cluster.replicas("target") == [content] * 3
    # the old block is gone from every holder, not only from the entry
    assert _stored_on(root, new) == {f"node_{n}" for n in new.holders}
    assert _stored_on(root, old) == set()
    reopened = make_cluster(root=root)
    assert reopened.read_range("target", 0, len(content)) == content
    assert reopened.file_entry("target").holders == new.holders


def test_rename_with_overwrite_of_no_target_is_a_rename():
    cluster = make_cluster()
    file_id = cluster.create_file("a", b"x").file_id
    cluster.create_file("c", b"y")
    cluster.rename_file("a", "b", overwrite=True)
    assert cluster.file_entry("b").file_id == file_id
    assert cluster.read_range("b", 0, 1) == b"x"
    assert not cluster.exists("a")
    with pytest.raises(AlreadyExists):
        cluster.rename_file("b", "c")
    assert cluster.read_range("c", 0, 1) == b"y"


def test_rename_touches_no_datanode(tmp_path):
    """A rename is a NameNode edit: every file under every node directory
    keeps its name and bytes, and the renamed file reads the same after
    a reload."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    content = random.Random(8).randbytes(KB)
    cluster.create_file("a", content)
    cluster.create_file("b", b"other")
    nodes = {path: data for path, data in _tree(root).items()
             if os.path.basename(os.path.dirname(path)).startswith("node_")}
    assert len(nodes) == 6
    cluster.rename_file("a", "c")
    cluster.rename_file("c", "d", overwrite=True)
    after = _tree(root)
    assert {path: after[path] for path in nodes} == nodes
    assert after.keys() - nodes.keys() == \
        {os.path.join(root, table) for table in ("namenode.tbl",
                                                 "metafiles.tbl")}
    assert make_cluster(root=root).read_range("d", 0, KB) == content


def test_rename_onto_itself_keeps_the_file():
    cluster = make_cluster()
    entry = cluster.create_file("a", b"x")
    cluster.rename_file("a", "a", overwrite=True)
    assert cluster.file_entry("a") == entry
    assert cluster.replicas("a") == [b"x"] * 3
    with pytest.raises(AlreadyExists):
        cluster.rename_file("a", "a")


def test_set_node_alive_unknown():
    cluster = make_cluster()
    with pytest.raises(UnknownNode):
        cluster.set_node_alive(99, True)


def test_placement_deterministic_for_seed():
    seqs = []
    for _ in range(2):
        cluster = make_cluster(seed=1234)
        ops = random.Random(99)
        placements = []
        for i in range(20):
            entry = cluster.create_file(f"f{i}", ops.randbytes(10 * KB))
            placements.append(entry.holders)
        seqs.append(placements)
    assert seqs[0] == seqs[1]


def test_replica_consistency_and_distinctness():
    cluster = make_cluster()
    rng = random.Random(4)
    for i in range(10):
        cluster.create_file(f"f{i}",
                            rng.randbytes(rng.randrange(1, 64 * KB + 1)))
    for name in cluster.list_files():
        holders = cluster.file_entry(name).holders
        assert len(set(holders)) == cluster.config.replication_factor
        assert len(set(cluster.replicas(name))) == 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_write_once_property(data):
    """No public operation mutates the bytes of a live file.

    Walks random sequences over the whole public API, tracking expected
    contents in a shadow dict.
    """
    cluster = make_cluster(block_size=KB, nodes=4, replication=2)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    shadow: dict[str, bytes] = {}
    names = ["a", "b", "c", "d"]
    for _ in range(30):
        op = data.draw(st.sampled_from(
            ["create", "delete", "rename", "replace", "read", "kill",
             "revive"]))
        name = data.draw(st.sampled_from(names))
        try:
            if op == "create":
                # one in five is longer than a block and refused
                content = rng.randbytes(rng.randrange(0, KB + KB // 4))
                cluster.create_file(name, content)
                shadow[name] = content
            elif op == "delete":
                cluster.delete_file(name)
                del shadow[name]
            elif op == "rename":
                target = data.draw(st.sampled_from(names))
                cluster.rename_file(name, target)
                shadow[target] = shadow.pop(name)
            elif op == "replace":
                target = data.draw(st.sampled_from(names))
                cluster.rename_file(name, target, overwrite=True)
                shadow[target] = shadow.pop(name)
            elif op == "read":
                if name in shadow:
                    got = cluster.read_range(name, 0, len(shadow[name]))
                    assert got == shadow[name]
            elif op == "kill":
                cluster.set_node_alive(rng.randrange(4), False)
            else:
                cluster.set_node_alive(rng.randrange(4), True)
        except (AlreadyExists, NotFound, InsufficientReplicaNodes,
                AllReplicasDead, WrongBlockSize):
            pass
        # every live file still holds its creation-time bytes
        for fname, expected in shadow.items():
            try:
                assert cluster.read_range(fname, 0, len(expected)) == expected
            except AllReplicasDead:
                pass


def test_persistent_mode_survives_restart(tmp_path):
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    content = random.Random(5).randbytes(50 * KB)
    entry = cluster.create_file("dir/f", content)
    cluster.meta_register("m", 3)

    reopened = make_cluster(root=root)
    assert reopened.read_range("dir/f", 0, len(content)) == content
    assert reopened.file_entry("dir/f").size_bytes == 50 * KB
    assert reopened.file_entry("dir/f").holders == entry.holders
    assert reopened.meta_block_count("m") == 3


@pytest.mark.parametrize("row", [
    "f\t10\t1\t3\t0,1,2",  # a block count and each block's holders
    "f\t10\t0,1,2",  # no file_id: a root with name-keyed blocks
    "f\t10\t0,1,2\tseven",
    "f\t10\t0,1,2\t",
], ids=["multi-block", "no-file-id", "word-file-id", "empty-file-id"])
def test_reopen_refuses_a_malformed_namenode_row(tmp_path, row):
    """A namenode.tbl row that is not a name, size, holders and file_id,
    as written by older layouts, fails the reopen with RecoveryError
    naming the row, not a raw ValueError."""
    root = str(tmp_path / "dfs")
    make_cluster(root=root).create_file("g", b"x")
    with open(os.path.join(root, "namenode.tbl"), "a",
              encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(RecoveryError) as caught:
        make_cluster(root=root)
    assert "not a name, size, holders, file_id row" in str(caught.value)
    assert repr(row) in str(caught.value)


@pytest.mark.parametrize("row", ["broken-row", "m\tthree", "m\t1\t2"])
def test_reopen_refuses_a_malformed_metafile_row(tmp_path, row):
    """A metafiles.tbl row that is not a name and a block count fails the
    reopen with RecoveryError, naming the row, not a raw ValueError."""
    root = str(tmp_path / "dfs")
    make_cluster(root=root).meta_register("m", 1)
    with open(os.path.join(root, "metafiles.tbl"), "a",
              encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(RecoveryError, match="not a name, block count row"):
        make_cluster(root=root)


def test_file_ids_are_unique_and_never_reused():
    cluster = make_cluster()
    ids = [cluster.create_file(f"f{i}", b"x").file_id for i in range(5)]
    assert len(set(ids)) == 5
    cluster.delete_file("f2")
    remade = cluster.create_file("f2", b"x").file_id
    assert remade not in ids
    assert cluster.file_entry("f2").file_id == remade
    assert cluster.file_entry("f0").file_id == ids[0]


def test_rename_keeps_the_file_id():
    cluster = make_cluster()
    file_id = cluster.create_file("a", b"x").file_id
    cluster.rename_file("a", "b")
    assert cluster.file_entry("b").file_id == file_id


def test_meta_block_entries_follow_constituents():
    """The NameNode reports a block with no constituent as entry None, for
    every meta file; the meta-file layer reads such a block as zeros in a
    sparse file and fails with NotFound in any other (the log)."""
    cluster = make_cluster()
    cluster.meta_register("m", 0)
    assert cluster.meta_block_entries("m") == []
    entries = []
    for ordinal in range(3):
        entries.append(cluster.create_file(f"m/{ordinal:08d}", b"x"))
        cluster.meta_set_block_count("m", ordinal + 1)
    assert cluster.meta_block_entries("m") == entries
    cluster.delete_file("m/00000001")
    assert cluster.meta_block_entries("m") == [entries[0], None, entries[2]]
    assert cluster.meta_block_entry("m", 1) is None
    remade = cluster.create_file("m/00000001", b"yz")
    assert cluster.meta_block_entries("m") == [entries[0], remade, entries[2]]
    assert cluster.meta_block_entry("m", 1).size_bytes == 2
    with pytest.raises(NotFound):
        cluster.meta_block_entries("nope")

    block = 64 * KB
    manager = MetaDfsManager(cluster, 4 * KB)
    data = manager.create_sparse_meta("data", 3, bytes([1]) * block)
    log = manager.create_meta("log")
    for tag in range(3):
        manager.append_block(log, bytes([tag]) * block)
    cluster.delete_file("log/00000001")
    assert manager.constituent_entries(data)[1:] == [None, None]
    assert manager.read_block(data, 2) == bytes(block)
    assert manager.read_page(data, 16) == bytes(4 * KB)
    with pytest.raises(NotFound, match="log/00000001"):
        manager.constituent_entries(log)
    with pytest.raises(NotFound, match="log/00000001"):
        manager.read_block(log, 1)
    with pytest.raises(NotFound, match="log/00000001"):
        manager.read_page(log, 16)


def test_reloaded_cluster_hands_out_distinct_ids(tmp_path):
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    for i in range(3):
        cluster.create_file(f"f{i}", b"x")
    saved = [cluster.file_entry(f"f{i}").file_id for i in range(3)]
    reopened = make_cluster(root=root)
    loaded = [reopened.file_entry(f"f{i}").file_id for i in range(3)]
    assert loaded == saved
    created = reopened.create_file("g", b"x").file_id
    reopened.delete_file("f1")
    remade = reopened.create_file("f1", b"x").file_id
    assert len(set(loaded + [created, remade])) == 5
    assert make_cluster(root=root).file_entry("f1").file_id == remade


def _crash_script():
    """DFS calls as (call on a cluster, the table of name -> content after
    it, given the table before). With make_cluster's placement, "c.new"
    shares one holder with the "c" it replaces, "k.new" all three."""
    def create(name, content):
        return (lambda c: c.create_file(name, content),
                lambda table: {**table, name: content})

    def rename(old, new, overwrite=False):
        return (lambda c: c.rename_file(old, new, overwrite),
                lambda table: {**{n: v for n, v in table.items()
                                  if n != old}, new: table[old]})

    def delete(name):
        return (lambda c: c.delete_file(name),
                lambda table: {n: v for n, v in table.items() if n != name})

    return [create("a", b"a1"), create("c", b"c1"), create("c.new", b"c2"),
            create("k", b"k1"), create("k.new", b"k2"), rename("a", "b"),
            rename("c.new", "c", overwrite=True),
            rename("k.new", "k", overwrite=True),
            rename("b", "d", overwrite=True), delete("c"), delete("k")]


def _run_until_death(root, death=None):
    """Run the crash script on a cluster over `root`; the `death`-th
    DataNode put or drop or table save raises Died instead of running and
    ends the script. Returns the points passed, and the tables the root
    may hold: before and after the call that died, or the final one."""
    points = []

    def dying(original):
        def point(*args):
            points.append(original.__name__)
            if len(points) == death:
                raise Died(original.__name__)
            return original(*args)
        return point

    table = {}
    with pytest.MonkeyPatch.context() as mp:
        for owner, attr in ((DataNode, "put"), (DataNode, "drop"),
                            (DfsCluster, "_save_tables")):
            mp.setattr(owner, attr, dying(getattr(owner, attr)))
        cluster = make_cluster(root=root)
        for run, apply in _crash_script():
            after = apply(table)
            try:
                run(cluster)
            except Died:
                return points, [table, after]
            table = after
    return points, [table]


def test_process_death_inside_every_dfs_call(tmp_path):
    """The process dies at each DataNode put, each DataNode drop and each
    NameNode table save of the script in turn. A fresh cluster over the
    root then lists the files of the table from before or after the call
    that died, and every listed holder stores each file's content."""
    probe = make_cluster()
    holders = {name: set(probe.create_file(name, b"").holders)
               for name in ("c", "c.new", "k", "k.new")}
    assert len(holders["c"] & holders["c.new"]) == 1
    assert holders["k"] == holders["k.new"]
    points, _ = _run_until_death(str(tmp_path / "whole"))
    assert set(points) == {"put", "drop", "_save_tables"}
    failures = {}
    for death in range(1, len(points) + 1):
        root = str(tmp_path / f"death{death}")
        _, allowed = _run_until_death(root, death)
        cluster = make_cluster(root=root)
        try:
            stored = {name: cluster.replicas(name)
                      for name in cluster.list_files()}
        except RecoveryError as exc:
            stored = str(exc)
        if stored not in [{name: [content] * 3
                           for name, content in table.items()}
                          for table in allowed]:
            failures[death, points[death - 1]] = stored
    assert failures == {}


def test_an_unreferenced_block_is_never_served(tmp_path):
    """A create that dies after its puts leaves blocks no entry names. A
    reload hands out ids above the highest saved one, so a later create
    may take the dead create's id: it reads its own content, and once its
    holders die it is not served from a node that holds only the dead
    create's block."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    kept = cluster.create_file("a", b"a")
    deleted = cluster.create_file("b", b"b")
    cluster.delete_file("b")

    def die():
        raise Died("inside the table save")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_save_tables", die)
        with pytest.raises(Died):
            cluster.create_file("o", b"orphan")
    kept_paths = {_block_path(root, node, kept) for node in kept.holders}
    orphan_paths = {path for path in _tree(root)
                    if path.endswith(".blk0") and path not in kept_paths}
    orphan_names = {os.path.basename(path) for path in orphan_paths}
    assert len(orphan_paths) == 3 and len(orphan_names) == 1
    orphan_id = int(orphan_names.pop().split(".")[0])
    orphans = {int(os.path.basename(os.path.dirname(path))[len("node_"):])
               for path in orphan_paths}

    reopened = make_cluster(root=root)
    assert reopened.list_files() == ["a"]
    created = [reopened.create_file(name, name.encode())
               for name in ("c", "d")]
    entry = created[-1]
    assert [e.file_id for e in created] == [deleted.file_id, orphan_id]
    assert orphans - set(entry.holders)
    assert reopened.read_range("d", 0, 1) == b"d"
    assert reopened.replicas("d") == [b"d"] * 3
    for node in entry.holders:
        reopened.set_node_alive(node, False)
    with pytest.raises(AllReplicasDead):
        reopened.read_range("d", 0, 1)


def test_counters_accumulate():
    cluster = make_cluster()
    cluster.create_file("f", bytes(10 * KB))
    before = cluster.counters.snapshot()
    cluster.read_range("f", 0, 5 * KB)
    assert cluster.counters.read_calls == before.read_calls + 1
    assert cluster.counters.bytes_read == before.bytes_read + 5 * KB


def test_simulated_latency_is_charged_once_per_read(monkeypatch):
    cluster = DfsCluster(DfsConfig(KB, 2, 0, network_latency=0.01), 3)
    cluster.create_file("f", bytes(KB))
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    cluster.read_range("f", 0, KB)
    cluster.read_range("f", 10, 20)
    cluster.read_range("f", 0, 0)  # reads no DataNode
    assert sleeps == [0.01, 0.01]


def test_concurrent_clients_round_trip():
    import threading
    cluster = make_cluster(block_size=KB, nodes=4, replication=2)
    errors = []

    def client(cid):
        rng = random.Random(cid)
        try:
            for i in range(30):
                name = f"c{cid}/f{i}"
                content = rng.randbytes(rng.randrange(1, KB + 1))
                cluster.create_file(name, content)
                assert cluster.read_range(name, 0, len(content)) == content
                if i % 3 == 0:
                    cluster.delete_file(name)
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
