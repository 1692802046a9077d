import os
import random
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import meta_file_strays
from wormdb.dfs import DataNode, DfsCluster, DfsConfig, constituent_name
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


def make_cluster(block_size=64 * KB, replication=3, nodes=5, root=None):
    return DfsCluster(DfsConfig(block_size, replication), nodes, root)


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


def test_a_read_given_a_file_id_refuses_a_file_remade_since():
    """A read given the file_id its caller looked up reads that file, and
    raises NotFound once a remake has put another file under the name,
    whose bytes it never returns."""
    cluster = make_cluster()
    old = cluster.create_file("f", b"old")
    assert cluster.read_range("f", 0, 3, old.file_id) == b"old"
    cluster.create_file("f.new", b"new")
    cluster.rename_file("f.new", "f", overwrite=True)
    with pytest.raises(NotFound, match="no longer"):
        cluster.read_range("f", 0, 3, old.file_id)
    new = cluster.file_entry("f")
    assert cluster.read_range("f", 0, 3, new.file_id) == \
        cluster.read_range("f", 0, 3) == b"new"


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
    old = cluster.create_file("dest", b"old")
    new = cluster.create_file("dest.new", content)
    # the names are chosen so that the old block sits on a node the new
    # one does not: the replace must drop it there too
    assert set(old.holders) != set(new.holders)
    saves = []
    save = cluster._save_tables
    monkeypatch.setattr(cluster, "_save_tables",
                        lambda: saves.append(1) or save())
    cluster.rename_file("dest.new", "dest", overwrite=True)
    assert saves == [1]
    assert not cluster.exists("dest.new")
    entry = cluster.file_entry("dest")
    assert (entry.file_id, entry.holders) == (new.file_id, new.holders)
    assert cluster.replicas("dest") == [content] * 3
    # the old block is gone from every holder, not only from the entry
    assert _stored_on(root, new) == {f"node_{n}" for n in new.holders}
    assert _stored_on(root, old) == set()
    reopened = make_cluster(root=root)
    assert reopened.read_range("dest", 0, len(content)) == content
    assert reopened.file_entry("dest").holders == new.holders


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
    assert after.keys() - nodes.keys() == {os.path.join(root, "namenode.tbl")}
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


def test_placement_is_a_function_of_the_name():
    """Two fresh clusters place every name alike, whatever the order of
    the creates and the contents."""
    names = [f"f{i}" for i in range(20)]
    first, second = make_cluster(), make_cluster()
    ops = random.Random(99)
    placed = [{name: cluster.create_file(name, ops.randbytes(KB)).holders
               for name in order}
              for cluster, order in ((first, names), (second, names[::-1]))]
    assert placed[0] == placed[1]
    assert len(set(placed[0].values())) > 1


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
    """No public operation mutates the bytes of a live file, and the
    meta-file calls leave no file outside meta file "m".

    Walks random sequences over the whole public API, appends to "m", the
    `.new` a failed remake of its block leaves, truncates and deletes of
    it included, tracking expected contents in a shadow dict and the
    count of "m" beside it.
    """
    cluster = make_cluster(block_size=KB, nodes=4, replication=2)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    shadow: dict[str, bytes] = {}
    names = ["a", "b", "c", "d"]
    cluster.meta_register("m", 0)
    count = 0  # the block count of "m"; None while it is unregistered

    def outside_m(files, ordinal):
        return {name: content for name, content in files.items()
                if name.rpartition("/")[0] != "m" or
                int(name[2:10]) < ordinal}

    for _ in range(30):
        op = data.draw(st.sampled_from(
            ["create", "delete", "rename", "replace", "read", "kill",
             "revive", "register", "append", "stale", "truncate",
             "unregister"]))
        name = data.draw(st.sampled_from(names))
        try:
            if op == "register":
                cluster.meta_register("m", 0)
                count = 0
            elif op == "append":
                # one in three names the block after the next, refused
                ordinal = (count or 0) + data.draw(st.sampled_from([0, 0, 1]))
                content = rng.randbytes(rng.randrange(0, KB + KB // 4))
                block = constituent_name("m", ordinal)
                cluster.create_file(block, content, meta="m")
                shadow[block] = content
                count += 1
            elif op == "stale":
                if count:
                    block = constituent_name("m", rng.randrange(count))
                    content = rng.randbytes(rng.randrange(0, KB))
                    cluster.create_file(block + ".new", content)
                    shadow[block + ".new"] = content
            elif op == "truncate":
                # one in (count + 2) is above the count and refused
                ordinal = data.draw(st.integers(0, (count or 0) + 1))
                cluster.meta_set_block_count("m", ordinal)
                shadow = outside_m(shadow, ordinal)
                count = ordinal
            elif op == "unregister":
                cluster.meta_unregister("m")
                shadow = outside_m(shadow, 0)
                count = None
            elif op == "create":
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
                AllReplicasDead, WrongBlockSize, OutOfRange):
            pass
        assert cluster.list_files() == sorted(shadow)
        assert meta_file_strays(cluster) == []
        assert cluster.meta_exists("m") == (count is not None)
        if count is not None:
            assert cluster.meta_block_count("m") == count
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


def _refused_row(root, row):
    """Append `row` to the table under `root`; the reopen must fail with
    RecoveryError naming the row, not a raw ValueError."""
    with open(os.path.join(root, "namenode.tbl"), "a",
              encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(RecoveryError) as caught:
        make_cluster(root=root)
    assert "namenode.tbl: not a file or meta row" in str(caught.value)
    assert repr(row) in str(caught.value)


@pytest.mark.parametrize("row", [
    "file\tf\t10\t1\t3\t0,1,2",  # a block count and each block's holders
    "file\tf\t10\t0,1,2",  # no file_id: a root with name-keyed blocks
    "file\tf\t10\t0,1,2\tseven",
    "file\tf\t10\t0,1,2\t",
], ids=["multi-block", "no-file-id", "word-file-id", "empty-file-id"])
def test_reopen_refuses_a_malformed_namenode_row(tmp_path, row):
    """A file row that is not a name, size, holders and file_id, as
    older layouts wrote them, fails the reopen."""
    root = str(tmp_path / "dfs")
    make_cluster(root=root).create_file("g", b"x")
    _refused_row(root, row)


@pytest.mark.parametrize("row", ["meta\tm", "meta\tm\tthree",
                                 "meta\tm\t1\t2"],
                         ids=["broken-row", "m\tthree", "m\t1\t2"])
def test_reopen_refuses_a_malformed_metafile_row(tmp_path, row):
    """A meta row that is not a name and a block count fails the
    reopen."""
    root = str(tmp_path / "dfs")
    make_cluster(root=root).meta_register("m", 1)
    _refused_row(root, row)


@pytest.mark.parametrize("row", ["dir\tf", "", "g\t1\t0,1,2\t1",
                                 "meta\t1\t0,1,2\t1"],
                         ids=["dir", "blank", "headless", "meta-like"])
def test_reopen_refuses_a_row_of_unknown_kind(tmp_path, row):
    """Every row starts with its kind, `file` or `meta`; a row of a
    layout with no kind column fails even when its name is a kind."""
    root = str(tmp_path / "dfs")
    make_cluster(root=root).create_file("g", b"x")
    _refused_row(root, row)


def test_reopen_refuses_a_root_of_the_two_table_layout(tmp_path):
    """A root whose namenode.tbl rows have no kind, beside a
    metafiles.tbl, as saved before the NameNode kept one table, fails to
    open with RecoveryError naming its first row."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    entry = cluster.create_file("f", b"x")
    cluster.meta_register("m", 1)
    holders = ",".join(str(n) for n in entry.holders)
    first = f"f\t1\t{holders}\t{entry.file_id}"
    with open(os.path.join(root, "namenode.tbl"), "w",
              encoding="utf-8") as fh:
        fh.write(first + "\n")
    with open(os.path.join(root, "metafiles.tbl"), "w",
              encoding="utf-8") as fh:
        fh.write("m\t1\n")
    with pytest.raises(RecoveryError) as caught:
        make_cluster(root=root)
    assert repr(first) in str(caught.value)


def test_one_table_and_one_fsync_per_mutation(tmp_path, monkeypatch):
    """A persistent root keeps the NameNode's state in namenode.tbl
    alone, and each mutation saves it with one fsync of the table and one
    of the root directory; a create also fsyncs the block file it writes
    on each holder and that holder's directory."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    cluster.meta_register("m", 0)
    fsyncs = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or
                        fsync(fd))
    holders = cluster.config.replication_factor
    for call, count in (
            (lambda: cluster.create_file("a", b"x"), 2 + 2 * holders),
            (lambda: cluster.rename_file("a", "b"), 2),
            (lambda: cluster.create_file("m/00000000", b"y", meta="m"),
             2 + 2 * holders),
            (lambda: cluster.create_file("m/00000001", b"z", meta="m"),
             2 + 2 * holders),
            (lambda: cluster.meta_set_block_count("m", 1), 2)):
        fsyncs.clear()
        call()
        assert len(fsyncs) == count
    assert sorted(name for name in os.listdir(root)
                  if not name.startswith("node_")) == ["namenode.tbl"]
    reopened = make_cluster(root=root)
    assert reopened.list_files() == ["b", "m/00000000"]
    assert reopened.meta_block_count("m") == 1


def _no_space(*args):
    raise OSError(28, "No space left on device")


def test_directories_are_fsynced_after_the_renames_they_hold(tmp_path,
                                                             monkeypatch):
    """A create fsyncs each holder's block file, then renames it, then
    fsyncs that holder's directory, all before the table file's fsync;
    the root directory is fsynced after the table's replace, last. Files
    are told apart by inode, which a rename keeps."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    log = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        st = os.fstat(fd)
        log.append(("dir" if stat.S_ISDIR(st.st_mode) else "file",
                    st.st_ino))
        fsync(fd)

    def logged_replace(src, dst):
        log.append(("replace", os.stat(src).st_ino))
        replace(src, dst)
    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    entry = cluster.create_file("a", b"x")
    expected = []
    for node_id in entry.holders:
        node_dir = os.path.join(root, f"node_{node_id}")
        block = os.stat(os.path.join(node_dir, f"{entry.file_id}.blk0"))
        expected += [("file", block.st_ino), ("replace", block.st_ino),
                     ("dir", os.stat(node_dir).st_ino)]
    table = os.stat(os.path.join(root, "namenode.tbl"))
    expected += [("file", table.st_ino), ("replace", table.st_ino),
                 ("dir", os.stat(root).st_ino)]
    assert log == expected


def test_a_failed_fsync_of_the_root_keeps_the_change(tmp_path):
    """Once namenode.tbl is replaced, memory and disk agree: a failed
    fsync of the root directory raises and the cluster equals a fresh
    cluster over the same root."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    cluster.create_file("a", b"a")
    fsync = os.fsync

    def fail_on_root(fd):
        if os.path.samestat(os.fstat(fd), os.stat(root)):
            _no_space()
        fsync(fd)
    for call in (lambda: cluster.create_file("n", b"new"),
                 lambda: cluster.rename_file("a", "b"),
                 lambda: cluster.meta_register("m", 2)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fsync", fail_on_root)
            with pytest.raises(OSError):
                call()
        fresh = make_cluster(root=root)
        assert cluster.list_files() == fresh.list_files()
        for name in fresh.list_files():
            assert cluster.file_entry(name) == fresh.file_entry(name)
            assert cluster.replicas(name) == fresh.replicas(name)
        assert cluster.meta_exists("m") == fresh.meta_exists("m")
    assert cluster.list_files() == ["b", "n"]
    assert cluster.meta_block_count("m") == 2


@pytest.mark.parametrize("call", [
    lambda c: c.create_file("n", b"new"),
    lambda c: c.delete_file("a"),
    lambda c: c.rename_file("a", "z"),
    lambda c: c.rename_file("a", "b", overwrite=True),
    lambda c: c.meta_register("m2", 1),
    lambda c: c.create_file("m/00000002", b"new", meta="m"),
    lambda c: c.meta_set_block_count("m", 1),
    lambda c: c.meta_unregister("m"),
], ids=["create", "delete", "rename", "rename-overwrite", "meta-register",
        "meta-append", "meta-set-block-count", "meta-unregister"])
@pytest.mark.parametrize("fails", ["fsync", "replace"])
def test_a_failed_table_save_changes_nothing(tmp_path, call, fails):
    """When the table save's fsync or os.replace fails with an ordinary
    OSError, the call raises and the cluster holds what a fresh cluster
    over the root reads, every block that table names still reads, and
    the next create gets an id above every id handed out before, a
    failed create's included (its blocks are on disk, unreferenced)."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    cluster.meta_register("m", 0)
    names = ["a", "b", "m/00000000", "m/00000001"]
    for name in names:
        cluster.create_file(name, name.encode(),
                            meta="m" if name.startswith("m/") else None)
    replace = os.replace
    with pytest.MonkeyPatch.context() as mp:
        if fails == "fsync":
            mp.setattr(os, "fsync", _no_space)
        else:
            mp.setattr(os, "replace", lambda src, dst: _no_space() if
                       dst.endswith("namenode.tbl") else replace(src, dst))
        with pytest.raises(OSError) as caught:
            call(cluster)
    assert caught.value.errno == 28
    fresh = make_cluster(root=root)
    assert cluster.list_files() == fresh.list_files() == names
    for name in fresh.list_files():
        assert cluster.file_entry(name) == fresh.file_entry(name)
        assert cluster.replicas(name) == [name.encode()] * 3
    for meta in ("m", "m2"):
        assert cluster.meta_exists(meta) == fresh.meta_exists(meta) == \
            (meta == "m")
    assert cluster.meta_block_count("m") == fresh.meta_block_count("m") == 2
    handed_out = max(int(os.path.basename(path).split(".")[0])
                     for path in _tree(root) if path.endswith(".blk0"))
    entry = cluster.create_file("next", b"next")
    assert entry.file_id > handed_out
    assert make_cluster(root=root).read_range("next", 0, 4) == b"next"


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
    every meta file, and the meta-file layer reads such a block as zeros
    in every meta file, the one created sparse and one that lost a
    constituent alike (the store refuses such a block in its log)."""
    cluster = make_cluster()
    cluster.meta_register("m", 0)
    assert cluster.meta_block_entries("m") == []
    entries = []
    for ordinal in range(3):
        entries.append(cluster.create_file(f"m/{ordinal:08d}", b"x",
                                           meta="m"))
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
    data = "data"
    manager.create_sparse_meta(data, 3, bytes([1]) * block)
    log = "log"
    manager.create_meta(log)
    for tag in range(3):
        manager.append_block(log, bytes([tag]) * block)
    cluster.delete_file("log/00000001")
    assert manager.constituent_entries(data)[1:] == [None, None]
    assert manager.read_block(data, 2) == bytes(block)
    assert manager.read_page(data, 16) == bytes(4 * KB)
    assert manager.constituent_entries(log)[1] is None
    assert manager.read_block(log, 1) == bytes(block)
    assert manager.read_page(log, 16) == bytes(4 * KB)
    manager.overwrite_block(log, 1, bytes([7]) * block)
    assert cluster.exists("log/00000001")
    assert not cluster.exists("log/00000001.new")
    assert manager.read_page(log, 16) == bytes([7]) * 4 * KB


def test_meta_names_lists_registered_meta_files_by_prefix(tmp_path):
    """`meta_names` lists the registered meta files whose names start
    with a prefix, sorted, and a reload over the root lists the same;
    a DFS file is not listed, and the call changes no meta file's
    version and saves no table."""
    root = str(tmp_path / "root")
    cluster = make_cluster(root=root)
    for name in ("log/g10", "log/g2", "log", "data", "log/g2x/data"):
        cluster.meta_register(name, 0)
    cluster.create_file("log/g3", b"x")
    table = os.path.join(root, "namenode.tbl")
    saved = os.stat(table).st_mtime_ns
    versions = [cluster.meta_version(name) for name in ("log", "log/g2")]
    assert cluster.meta_names("log/g") == ["log/g10", "log/g2",
                                           "log/g2x/data"]
    assert cluster.meta_names("") == cluster.meta_names() == [
        "data", "log", "log/g10", "log/g2", "log/g2x/data"]
    assert cluster.meta_names("none") == []
    assert [cluster.meta_version(name) for name in ("log", "log/g2")] == \
        versions
    assert os.stat(table).st_mtime_ns == saved
    cluster.meta_unregister("log/g10")
    assert make_cluster(root=root).meta_names("log/") == \
        ["log/g2", "log/g2x/data"]


def test_meta_version_counts_each_mutation_that_touches_a_meta_file():
    """Every NameNode mutation of a meta file's block count or of a file
    under its name adds one to its version, and no other mutation, a
    failed one or one under another meta file, changes it."""
    cluster = make_cluster()
    assert cluster.meta_version("m") == 0
    steps = [
        lambda: cluster.meta_register("m", 0),
        lambda: cluster.create_file("m/00000000", b"x", meta="m"),
        lambda: cluster.create_file("m/00000000.new", b"y"),
        lambda: cluster.rename_file("m/00000000.new", "m/00000000",
                                    overwrite=True),
        lambda: cluster.create_file("m/00000001", b"z", meta="m"),
        lambda: cluster.delete_file("m/00000000"),
        lambda: cluster.meta_set_block_count("m", 1),
        lambda: cluster.meta_unregister("m"),
    ]
    cluster.meta_register("n", 0)
    for version, step in enumerate(steps, 1):
        step()
        assert cluster.meta_version("m") == version
        cluster.create_file(f"n/{version - 1:08d}", b"n", meta="n")
        with pytest.raises(NotFound):
            cluster.delete_file("m/nothing")
        assert cluster.meta_version("m") == version
    assert cluster.meta_version("n") == 1 + len(steps)


def test_a_meta_append_creates_and_counts_the_next_block_only():
    """`create_file(..., meta=m)` creates block `count` of m and counts it;
    any other name, a block past the end or an unregistered meta file
    changes nothing."""
    cluster = make_cluster()
    with pytest.raises(NotFound):
        cluster.create_file("m/00000000", b"x", meta="m")
    cluster.meta_register("m", 0)
    entry = cluster.create_file("m/00000000", b"x", meta="m")
    assert cluster.meta_block_entries("m") == [entry]
    for name in ("m/00000000.new", "m/00000002", "n/00000001", "m"):
        with pytest.raises(OutOfRange):
            cluster.create_file(name, b"y", meta="m")
    with pytest.raises(AlreadyExists):
        cluster.create_file("m/00000000", b"y", meta="m")
    assert cluster.list_files() == ["m/00000000"]
    assert cluster.meta_block_count("m") == 1


def test_a_truncate_takes_out_every_file_past_the_count(tmp_path):
    """Lowering the count removes the constituents at or past it and their
    `.new` files with them, and drops their blocks; a file of another meta
    file nested under the name stays. A count above the current one is
    refused."""
    root = str(tmp_path / "dfs")
    cluster = make_cluster(root=root)
    for meta in ("m", "m/x"):
        cluster.meta_register(meta, 0)
    kept = [cluster.create_file(f"m/{i:08d}", b"m", meta="m")
            for i in range(4)]
    kept.append(cluster.create_file("m/x/00000000", b"x", meta="m/x"))
    kept.append(cluster.create_file("m/00000000.new", b"0"))
    dropped = [cluster.create_file(f"m/{i:08d}.new", b"n") for i in (1, 3)]
    dropped += kept[1:4]
    del kept[1:4]
    for count in (5, -1):
        with pytest.raises(OutOfRange):
            cluster.meta_set_block_count("m", count)
    cluster.meta_set_block_count("m", 1)
    assert cluster.list_files() == \
        ["m/00000000", "m/00000000.new", "m/x/00000000"]
    assert cluster.meta_block_count("m") == 1
    blocks = {os.path.basename(path) for path in _tree(root)}
    assert {f"{e.file_id}.blk0" for e in kept} <= blocks
    assert not {f"{e.file_id}.blk0" for e in dropped} & blocks
    assert make_cluster(root=root).list_files() == cluster.list_files()
    with pytest.raises(NotFound):
        cluster.meta_set_block_count("absent", 0)


def test_unregister_takes_out_every_file_under_the_name():
    cluster = make_cluster()
    for meta in ("m", "m/x"):
        cluster.meta_register(meta, 3)
    for name in ("m/00000000", "m/00000002.new", "m/x/00000001", "mm"):
        cluster.create_file(name, b"x")
    cluster.meta_unregister("m")
    assert cluster.list_files() == ["m/x/00000001", "mm"]
    assert not cluster.meta_exists("m") and cluster.meta_exists("m/x")
    with pytest.raises(NotFound):
        cluster.meta_unregister("m")


def test_a_constituent_left_past_the_count_refuses_the_append():
    """A file created at a meta file's next ordinal without `meta` lies
    past the count, which no meta-file call leaves: an append at its
    ordinal raises AlreadyExists rather than replace it, and the next
    truncate, even one to the current count, takes it out."""
    cluster = make_cluster()
    cluster.meta_register("m", 1)
    cluster.create_file("m/00000000", b"a")
    cluster.create_file("m/00000001", b"left")
    assert meta_file_strays(cluster) == ["m/00000001"]
    with pytest.raises(AlreadyExists):
        cluster.create_file("m/00000001", b"b", meta="m")
    assert cluster.meta_block_count("m") == 1
    cluster.meta_set_block_count("m", 1)
    assert meta_file_strays(cluster) == []
    cluster.create_file("m/00000001", b"b", meta="m")
    assert cluster.read_range("m/00000001", 0, 1) == b"b"


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
    shares one holder with the "c" it replaces, "keep.new" all three of
    "keep"'s (the test asserts both)."""
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

    def append(ordinal, content):
        name = constituent_name("m", ordinal)
        return (lambda c: c.create_file(name, content, meta="m"),
                lambda table: {**table, name: content})

    def truncate(count):
        return (lambda c: c.meta_set_block_count("m", count),
                lambda table: {n: v for n, v in table.items()
                               if not n.startswith("m/") or
                               n < constituent_name("m", count)})

    return [create("a", b"a1"), create("c", b"c1"), create("c.new", b"c2"),
            create("keep", b"k1"), create("keep.new", b"k2"),
            rename("a", "b"), rename("c.new", "c", overwrite=True),
            rename("keep.new", "keep", overwrite=True),
            rename("b", "d", overwrite=True), delete("c"), delete("keep"),
            (lambda c: c.meta_register("m", 0), lambda table: table),
            append(0, b"m0"), append(1, b"m1"), append(2, b"m2"),
            create("m/00000001.new", b"m1'"), truncate(1),
            (lambda c: c.meta_unregister("m"),
             lambda table: {n: v for n, v in table.items()
                            if not n.startswith("m/")})]


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
    that died, every listed holder stores each file's content, and no
    file lies past a meta file's count."""
    probe = make_cluster()
    holders = {name: set(probe.create_file(name, b"").holders)
               for name in ("c", "c.new", "keep", "keep.new")}
    assert len(holders["c"] & holders["c.new"]) == 1
    assert holders["keep"] == holders["keep.new"]
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
        elif meta_file_strays(cluster):
            failures[death, points[death - 1]] = meta_file_strays(cluster)
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
