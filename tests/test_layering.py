"""Layers use each other's public API only, and the package ships only
what its entry points use.

A module under src/wormdb/ may read ``obj._name`` only when it defines
``_name`` itself (as a function, class, method, attribute or variable),
and imports no private name from another module of the package
(``from .x import _name`` or ``from wormdb.x import _name``). ``self``
and ``cls`` are the module's own objects; ``os._exit`` is the standard
library's documented way to end a process at once.

Every module under src/wormdb/ must be reachable by imports from
``wormdb/__init__.py`` or ``wormdb/__main__.py``; a module only tests use
(an oracle, a fault registry) belongs under tests/.

Only the transaction store names, registers or drops a log generation:
no module other than spdu_dfs.py mentions `generation_name` or calls
`create_meta`, `create_sparse_meta` or `delete_meta`, so a database's
meta files come and go through the store's functions.

A page's recovery header has one writer: inside the package only the
store's ``write_page`` calls ``stamp_page``, and only pagefmt.py, which
defines it, and the store name it.

Only the meta-file layer changes the NameNode: a module other than
metafile.py calls none of the DfsCluster mutations, so "remake a block"
and every other change of a meta file is written once. Only the
transaction store changes a meta file: a module other than spdu_dfs.py
and metafile.py calls none of `append_block`, `overwrite_block` and
`truncate_from`, so which block is logged, written in place or remade is
decided in one place.

Durable writes have one home: inside the package only dfs.py's
``durable_replace`` calls ``os.fsync`` or ``os.replace``. Crash points
have one: only cli.py arms a fault point (faults.py defines ``arm``).
Every ``.hit(...)`` in the package names its point with a string literal,
and the set of those names is ``SPDU_DFS_FAULT_POINTS``: ``hit`` takes
any name, so a point missing from the registry could never be armed and
the sweeps, which walk the registry, would skip it.

A batch's one commit point, the drop of the live log generation, has
one home: only ``batch_post_commit`` passes the live generation
(``self.log``) to ``delete_meta``. ``restart_system`` does not call
``batch_post_commit``, so restart drops only the generations above the
live one and never commits a batch or writes a page.

A database has one transaction store, so one log table index: inside
the package only ``Database.__init__`` constructs a
``DfsTransactionStore``, and its sessions, recovery and maintenance use
that one.

The DFS block size has one home: inside the package only dfs.py and
``MetaDfsManager.__init__`` mention ``block_size_bytes``, and every other
reader takes the manager's ``block_size``/``pages_per_block``. No module
names the deleted ``PageConfig``.

The store's page-id bound is the data file's registered block count:
``total_pages`` appears in spdu_dfs.py only inside ``create_data_meta``,
which sizes the data file, and not at all in metafile.py or dfs.py.

A data block's stored length has one home: the meta-file layer stores a
block up to its last nonzero page and reads the rest as zeros, so no
module other than metafile.py makes zeros of, or pads bytes to, a length
that names ``block_size``.

Each stored format has one home. Only spdu_dfs.py packs or parses a log
block's footer. The zlib codec has one home, pagefmt.py: inside the
package only its ``deflate`` and ``inflate`` call zlib's ``compress``,
``decompress``, ``compressobj`` or ``decompressobj`` or pass ``zdict``,
and only the store's ``_log_block`` and ``unpack_body`` and the
meta-file layer's ``MetaDfsManager._pack_block`` and ``_unpack_block``
call them, so a log block's body and a remade data block are each
written and read in one place.

The benchmark's tracer, perfbench/spans.py, patches package functions by
name, so each of those names must exist in the package, and each hook it
calls before a function must take that function's arguments.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import wormdb
from wormdb.dfs import DataNode, DfsCluster
from wormdb.engine import Session
from wormdb.faults import SPDU_DFS_FAULT_POINTS
from wormdb.spdu_dfs import DfsTransactionStore

PACKAGE = Path(wormdb.__file__).resolve().parent
EXEMPT_OWNERS = {"self", "cls", "os"}
ENTRY_POINTS = ("__init__", "__main__")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return {name for name in names if _private(name)}


def _package_import(node: ast.AST) -> bool:
    """Whether `node` imports names from a module of the package."""
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "wormdb")


def foreign_private_reads(source: str) -> list[tuple[int, str]]:
    """(line, "owner._name") for each read of a private name the module
    does not define, and (line, "from module import _name") for each
    private name it imports from another module of the package, sorted
    by line."""
    tree = ast.parse(source)
    own = _defined(tree)
    found = []
    for node in ast.walk(tree):
        if _package_import(node):
            module = "." * node.level + (node.module or "")
            found += [(node.lineno, f"from {module} import {alias.name}")
                      for alias in node.names if _private(alias.name)]
            continue
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _private(node.attr) and node.attr not in own):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in EXEMPT_OWNERS:
            continue
        found.append((node.lineno, f"{ast.unparse(owner)}.{node.attr}"))
    return sorted(found)


def test_detector_flags_foreign_private_reads():
    source = (
        "def f(store):\n"
        "    return store._read_master()\n"
        "class A:\n"
        "    def _mine(self):\n"
        "        return self._other + os._exit\n"
        "def g(a):\n"
        "    return a._mine()\n"
        "from .metafile import _ZLIB_LEVEL, MetaDfsManager\n"
        "from wormdb.engine import _tier as tier\n"
        "from . import _oracle\n"
        "from collections import _chain, __all__\n"
    )
    assert foreign_private_reads(source) == [
        (2, "store._read_master"), (8, "from .metafile import _ZLIB_LEVEL"),
        (9, "from wormdb.engine import _tier"), (10, "from . import _oracle")]


def test_modules_use_only_public_api_of_other_modules():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, expr in foreign_private_reads(path.read_text("utf-8")):
            offences.append(f"{path.name}:{line}: {expr}")
    assert offences == []


NAMENODE_MUTATIONS = ("create_file", "delete_file", "rename_file",
                      "meta_register", "meta_set_block_count",
                      "meta_unregister")
MUTATING_MODULE = "metafile.py"


def method_calls(source: str, methods) -> list[tuple[int, str]]:
    """(line, method) for each call of one of `methods` by name."""
    return [(node.lineno, node.func.attr)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods]


def test_detector_flags_namenode_mutation_calls():
    source = (
        "def f(manager, cluster):\n"
        "    manager.cluster.create_file('a', b'')\n"
        "    cluster.meta_block_entry('m', 0)\n"
        "    return cluster.rename_file\n"
        "    cluster.rename_file('a', 'b', overwrite=True)\n"
    )
    assert method_calls(source, NAMENODE_MUTATIONS) == [
        (2, "create_file"), (5, "rename_file")]


def calls_outside(methods, homes) -> list[str]:
    """"module:line: method" for each call of one of `methods` in a
    package module not named in `homes`."""
    return [f"{path.name}:{line}: {method}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name not in homes
            for line, method in method_calls(path.read_text("utf-8"),
                                             methods)]


def test_only_the_meta_file_layer_mutates_the_namenode():
    assert calls_outside(NAMENODE_MUTATIONS, {MUTATING_MODULE}) == []
    assert method_calls((PACKAGE / MUTATING_MODULE).read_text("utf-8"),
                        NAMENODE_MUTATIONS) != []


META_FILE_MUTATIONS = ("append_block", "overwrite_block", "truncate_from")
STORE_MODULE = "spdu_dfs.py"


def test_only_the_store_changes_a_meta_file():
    """Where a page goes, to the log or in place, and when a block is
    remade are the store's decisions alone."""
    assert calls_outside(META_FILE_MUTATIONS,
                         {STORE_MODULE, MUTATING_MODULE}) == []
    assert {method for _, method in method_calls(
        (PACKAGE / STORE_MODULE).read_text("utf-8"),
        META_FILE_MUTATIONS)} == set(META_FILE_MUTATIONS)


def scoped_nodes(source: str):
    """(node, enclosing scope) for each node of `source`. The scope is the
    dotted path of the classes and functions that enclose the node, or
    "<module>"; a definition's own scope is the one it is defined in."""
    def visit(node, scope):
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = node.name if scope == "<module>" \
                else f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(ast.parse(source), "<module>")


def mentions(source: str, name: str) -> list[tuple[int, str]]:
    """(line, enclosing scope) for each place `source` uses identifier
    `name`: as a variable, parameter, attribute, keyword, import or
    definition."""
    return sorted(
        (node.lineno, scope) for node, scope in scoped_nodes(source)
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)) and node.name == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.arg) and node.arg == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.keyword) and node.arg == name)
        or (isinstance(node, ast.alias) and name in
            (node.name.split(".")[-1], node.asname)))


def test_detector_finds_mentions_with_their_scope():
    source = (
        "from .metafile import PageConfig as P\n"
        "class M:\n"
        "    def __init__(self, cluster):\n"
        "        self.b = cluster.config.block_size_bytes\n"
        "    def check(self, n):\n"
        "        return DfsConfig(block_size_bytes=n).block_size\n"
        "block_size_bytes = 4\n"
        "def f():\n"
        "    def block_size_bytes(): pass\n"
        "def g(block_size_bytes=1): pass\n"
    )
    assert mentions(source, "block_size_bytes") == [
        (4, "M.__init__"), (6, "M.check"), (7, "<module>"), (9, "f"),
        (10, "g")]
    assert mentions(source, "PageConfig") == [(1, "<module>")]
    assert mentions(source, "block_size") == [(6, "M.check")]
    codec = (
        "import zlib\n"
        "from zlib import decompress as inflate\n"
        "def pack(pages):\n"
        "    return zlib.compress(pages, 1), zlib.crc32(pages)\n"
    )
    assert mentions(codec, "compress") == [(4, "pack")]
    assert mentions(codec, "decompress") == [(2, "<module>")]


def constructions(source: str, name: str) -> list[tuple[int, str]]:
    """(line, enclosing scope) for each call of `name`, by itself or as
    an attribute."""
    return [(node.lineno, scope) for node, scope in scoped_nodes(source)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_detector_finds_constructions_with_their_scope():
    source = (
        "from . import spdu_dfs\n"
        "class Database:\n"
        "    def __init__(self, manager):\n"
        "        self.store = DfsTransactionStore(manager)\n"
        "    def fresh(self):\n"
        "        return spdu_dfs.DfsTransactionStore(self.manager)\n"
        "def f(store):\n"
        "    return DfsTransactionStore, store.DfsTransactionStore.x()\n"
    )
    assert constructions(source, "DfsTransactionStore") == [
        (4, "Database.__init__"), (6, "Database.fresh")]


def test_a_database_constructs_the_only_store():
    """Each session, `recover` and `run_maintenance` of a database use
    the store its `__init__` makes, so they share one log table index
    and its decoded bodies."""
    assert [(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
            for _, scope in constructions(path.read_text("utf-8"),
                                          "DfsTransactionStore")] == \
        [("engine.py", "Database.__init__")]


def test_only_the_store_stamps_a_page():
    """A page's recovery header has one writer: inside the package only
    the store's `write_page` calls `stamp_page`, and no module but
    pagefmt.py, which defines it, and the store names it, so no layer
    stamps a page under another name."""
    assert [(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
            for _, scope in constructions(path.read_text("utf-8"),
                                          "stamp_page")] == \
        [(STORE_MODULE, "DfsTransactionStore.write_page")]
    assert [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in {STORE_MODULE, "pagefmt.py"}
            for line, _ in mentions(path.read_text("utf-8"),
                                    "stamp_page")] == []


# what registers or drops a meta file, and what names a log generation
META_FILE_LIFECYCLE = ("create_meta", "create_sparse_meta", "delete_meta")
GENERATION_NAMING = "generation_name"


def generation_handling(source: str) -> list[tuple[int, str]]:
    """(line, name) for each call that registers or drops a meta file and
    each mention of the function that names a log generation."""
    return sorted(method_calls(source, META_FILE_LIFECYCLE) +
                  [(line, GENERATION_NAMING)
                   for line, _ in mentions(source, GENERATION_NAMING)])


def test_detector_flags_naming_registering_and_dropping_a_meta_file():
    source = (
        "from .spdu_dfs import generation_name\n"
        "def discard(manager, name):\n"
        "    gen = generation_name(name, 2)\n"
        "    manager.delete_meta(gen)\n"
        "    return manager.create_meta(name), manager.exists(name)\n"
    )
    assert generation_handling(source) == [
        (1, "generation_name"), (3, "generation_name"), (4, "delete_meta"),
        (5, "create_meta")]


def test_only_the_store_names_registers_or_drops_a_log_generation():
    """A log generation is named, registered and dropped by the store
    alone, whose drop of the live one commits a batch: no other module
    mentions `generation_name` or registers or drops a meta file, so
    `Database.create` and `discard` go through the store's functions,
    and the meta-file layer only defines the calls."""
    offences = [f"{path.name}:{line}: {name}"
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name not in {STORE_MODULE, MUTATING_MODULE}
                for line, name in generation_handling(
                    path.read_text("utf-8"))]
    assert offences == []
    store = {name for _, name in generation_handling(
        (PACKAGE / STORE_MODULE).read_text("utf-8"))}
    assert store == {GENERATION_NAMING, *META_FILE_LIFECYCLE}
    assert method_calls((PACKAGE / MUTATING_MODULE).read_text("utf-8"),
                        META_FILE_LIFECYCLE) == []


def live_generation_drops(source: str) -> list[tuple[int, str]]:
    """(line, enclosing scope) for each `delete_meta` call whose first
    argument is the live log generation: a name or attribute `log`."""
    return [(node.lineno, scope) for node, scope in scoped_nodes(source)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "delete_meta" and node.args
            and "log" in (getattr(node.args[0], "id", None),
                          getattr(node.args[0], "attr", None))]


def test_detector_finds_live_generation_drops_with_their_scope():
    source = (
        "def discard(manager, log):\n"
        "    manager.delete_meta(log)\n"
        "class S:\n"
        "    def batch(self):\n"
        "        self.manager.delete_meta(self.log)\n"
        "        self.manager.delete_meta(self.data)\n"
        "        self.manager.truncate_from(self.log, 0)\n"
        "        return self.manager.version(self.log)\n"
    )
    assert live_generation_drops(source) == [(2, "discard"), (5, "S.batch")]


def test_only_a_batch_drops_the_live_generation():
    """Dropping the live log generation commits a batch, so only
    `batch_post_commit` drops it; restart does not call
    `batch_post_commit`, so it never commits a batch or writes a
    page."""
    drops = [(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for _, scope in live_generation_drops(path.read_text("utf-8"))]
    assert drops == [(STORE_MODULE, "DfsTransactionStore.batch_post_commit")]
    store = (PACKAGE / STORE_MODULE).read_text("utf-8")
    assert "DfsTransactionStore.restart_system" not in \
        [scope for _, scope in constructions(store, "batch_post_commit")]


# module -> the scopes that may mention block_size_bytes (None: any scope)
BLOCK_SIZE_HOMES = {"dfs.py": None, "metafile.py": {"MetaDfsManager.__init__"}}


def test_the_dfs_block_size_has_one_home():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text("utf-8")
        allowed = BLOCK_SIZE_HOMES.get(path.name, set())
        for line, scope in mentions(source, "block_size_bytes"):
            if allowed is not None and scope not in allowed:
                offences.append(f"{path.name}:{line}: {scope}")
        for line, scope in mentions(source, "PageConfig"):
            offences.append(f"{path.name}:{line}: PageConfig in {scope}")
    assert offences == []
    assert mentions((PACKAGE / "metafile.py").read_text("utf-8"),
                    "block_size_bytes") != []
    assert not hasattr(wormdb, "PageConfig")


# module -> the scopes that may mention total_pages
TOTAL_PAGES_HOMES = {"dfs.py": set(), "metafile.py": set(),
                     STORE_MODULE: {"create_data_meta"}}


def total_pages_offences(module: str, source: str) -> list[str]:
    """"module:line: scope" for each mention of `total_pages` in `source`,
    as module `module`, outside the scopes TOTAL_PAGES_HOMES allows."""
    return [f"{module}:{line}: {scope}"
            for line, scope in mentions(source, "total_pages")
            if scope not in TOTAL_PAGES_HOMES[module]]


def test_detector_flags_total_pages_outside_its_homes():
    source = (
        "def create_data_meta(manager, name, total_pages, first_page):\n"
        "    return total_pages // manager.pages_per_block\n"
        "class DfsTransactionStore:\n"
        "    def __init__(self, manager, total_pages=8):\n"
        "        self.total_pages = total_pages\n"
        "    def read_page(self, pageid):\n"
        "        return pageid < self.total_pages\n"
    )
    store = "DfsTransactionStore"
    assert total_pages_offences(STORE_MODULE, source) == [
        f"{STORE_MODULE}:4: {store}.__init__",
        f"{STORE_MODULE}:5: {store}.__init__",
        f"{STORE_MODULE}:5: {store}.__init__",
        f"{STORE_MODULE}:7: {store}.read_page"]
    assert [offence.split(":")[1] for offence in
            total_pages_offences("metafile.py", source)] == \
        ["1", "2", "4", "5", "5", "7"]


def test_the_data_files_blocks_are_the_stores_page_bound():
    """Below the engine the data file's registered block count is the
    only page-id bound: `total_pages` sizes the data file at its create
    and is not held by the store, the meta-file layer or the DFS."""
    offences = [offence for module in sorted(TOTAL_PAGES_HOMES)
                for offence in total_pages_offences(
                    module, (PACKAGE / module).read_text("utf-8"))]
    assert offences == []
    assert mentions((PACKAGE / STORE_MODULE).read_text("utf-8"),
                    "total_pages") != []


# calls that make zeros of, or pad bytes to, the length they are given
PAD_CALLS = ("bytes", "bytearray", "ljust", "rjust")
BLOCK_SIZES = {"block_size", "block_size_bytes"}


def block_pads(source: str) -> list[tuple[int, str]]:
    """(line, enclosing scope) for each place `source` makes zeros of, or
    pads bytes to, a length that names a block size: a call of one of
    PAD_CALLS, or a bytes literal times that length."""
    found = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id",
                             getattr(node.func, "attr", None))
            if called not in PAD_CALLS:
                continue
            lengths = [*node.args, *(kw.value for kw in node.keywords)]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                and any(isinstance(side, ast.Constant)
                        and isinstance(side.value, bytes)
                        for side in (node.left, node.right)):
            lengths = [node.left, node.right]
        else:
            continue
        if any(getattr(sub, "id", getattr(sub, "attr", None)) in BLOCK_SIZES
               for length in lengths for sub in ast.walk(length)):
            found.append((node.lineno, scope))
    return found


def test_detector_finds_block_pads_with_their_scope():
    source = (
        "def fill(manager):\n"
        "    return bytes(manager.block_size)\n"
        "class S:\n"
        "    def pad(self, block):\n"
        "        return block.ljust(self.manager.block_size, b'\\0')\n"
        "    def zeros(self, block_size):\n"
        "        return b'\\0' * block_size, bytearray(block_size // 2)\n"
        "    def trigger(self):\n"
        "        return self.threshold * self.manager.block_size\n"
        "    def page(self):\n"
        "        return bytes(self.page_size), b'x'.ljust(4), [0] * 3\n"
    )
    assert block_pads(source) == [
        (2, "fill"), (5, "S.pad"), (7, "S.zeros"), (7, "S.zeros")]


def test_a_data_blocks_stored_length_has_one_home():
    offences = [f"{path.name}:{line}: {scope}"
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "metafile.py"
                for line, scope in block_pads(path.read_text("utf-8"))]
    assert offences == []
    assert block_pads((PACKAGE / "metafile.py").read_text("utf-8")) != []


# a log block's footer and its body
FOOTER_FORMAT = ("pack_footer", "unpack_footer", "unpack_body",
                 "unpack_log", "FOOTER_FIXED_SIZE")
# zlib's codec and its preset dictionary
ZLIB_CODEC = ("compress", "decompress", "compressobj", "decompressobj",
              "zdict")
# the package's one codec, and the scopes that write or read a stream
CODEC = ("deflate", "inflate")
CODEC_CALLERS = {(STORE_MODULE, "_log_block"), (STORE_MODULE, "unpack_body"),
                 (MUTATING_MODULE, "MetaDfsManager._pack_block"),
                 (MUTATING_MODULE, "MetaDfsManager._unpack_block")}


def test_the_log_footer_format_has_one_home():
    """Only the store packs, parses or sizes a log block's footer or
    unpacks its body; the meta-file layer hands a log block's bytes over
    unread."""
    offences = [f"{path.name}:{line}: {name} in {scope}"
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name != STORE_MODULE
                for name in FOOTER_FORMAT
                for line, scope in mentions(path.read_text("utf-8"), name)]
    assert offences == []
    store = (PACKAGE / STORE_MODULE).read_text("utf-8")
    assert all(mentions(store, name) for name in FOOTER_FORMAT)


def test_the_zlib_codec_has_one_home():
    """Only pagefmt.py's `deflate` and `inflate` call zlib's codec or pass
    it a dictionary, so every stored stream is written at one level and
    read under one check; and only the store's log block writer and
    reader and the meta-file layer's pack and unpack helpers call them,
    so which bytes a log block or a remade data block stores is decided
    in one place."""
    sources = {path.name: path.read_text("utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {(module, scope) for module, source in sources.items()
            for name in ZLIB_CODEC
            for _, scope in mentions(source, name)} == \
        {("pagefmt.py", "deflate"), ("pagefmt.py", "inflate")}
    assert {(module, scope) for module, source in sources.items()
            for name in CODEC
            for _, scope in constructions(source, name)} == CODEC_CALLERS


DURABLE_WRITES = ("fsync", "replace")


def os_calls(source: str, functions) -> list[tuple[int, str, str]]:
    """(line, enclosing scope, function) for each call of `os.<function>`
    for one of `functions`."""
    return [(node.lineno, scope, node.func.attr)
            for node, scope in scoped_nodes(source)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
            and node.func.attr in functions]


def test_detector_finds_os_calls_with_their_scope():
    source = (
        "from dataclasses import replace\n"
        "class N:\n"
        "    def put(self, fh):\n"
        "        os.fsync(fh.fileno())\n"
        "        return replace(self, a=1), os.replace\n"
        "def save(tmp, path):\n"
        "    os.replace(tmp, path)\n"
        "    os.path.replace(tmp)\n"
    )
    assert os_calls(source, DURABLE_WRITES) == [
        (4, "N.put", "fsync"), (7, "save", "replace")]


def test_one_function_makes_every_durable_write():
    """Every fsync and every rename into place is made by dfs.py's
    `durable_replace`, so a tool that must see each durable write of a
    persistent cluster wraps that one function."""
    calls = {(path.name, scope, function)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, scope, function in os_calls(path.read_text("utf-8"),
                                                DURABLE_WRITES)}
    assert calls == {("dfs.py", "durable_replace", "fsync"),
                     ("dfs.py", "durable_replace", "replace")}


def test_only_the_cli_arms_a_fault_point():
    """Which crash point a run arms, and when, is the CLI's decision; the
    rest of the package only passes fault points."""
    assert calls_outside(("arm",), {"cli.py"}) == []
    assert method_calls((PACKAGE / "cli.py").read_text("utf-8"),
                        ("arm",)) != []


def hit_points(source: str) -> tuple[set[str], list[int]]:
    """The names that `.hit(...)` calls in `source` pass as one string
    literal, and the line of each `.hit` call that passes anything
    else."""
    names, offences = set(), []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "hit"):
            continue
        arg = node.args[0] if len(node.args) == 1 and not node.keywords \
            else None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            names.add(arg.value)
        else:
            offences.append(node.lineno)
    return names, offences


def test_detector_finds_hit_points():
    source = (
        "def f(faults, name):\n"
        "    faults.hit('a.b')\n"
        "    self.faults.hit(\"c.d\")\n"
        "    faults.hit(name)\n"
        "    faults.hit(f'x.{name}')\n"
        "    faults.hit(name='e.f')\n"
        "    hit('g.h')\n"
        "    return faults.hit\n"
    )
    assert hit_points(source) == ({"a.b", "c.d"}, [4, 5, 6])


def test_every_hit_names_a_registered_fault_point():
    """The package passes exactly the registered points to `hit`, each as
    a literal, so every point can be armed and none is left out of the
    sweeps."""
    names, offences = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        found, lines = hit_points(path.read_text("utf-8"))
        names |= found
        offences += [f"{path.name}:{line}" for line in lines]
    assert offences == []
    assert names == set(SPDU_DFS_FAULT_POINTS)


def imported_modules(source: str) -> set[str]:
    """Top-level names `source` imports from the wormdb package; names that
    are not modules of the package are filtered out by the caller."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "wormdb" and module:
                    names.add(module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and \
                    (node.module or "").split(".")[0] == "wormdb":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def unreachable_modules(package: Path) -> list[str]:
    """Modules of `package` that no chain of imports from an entry point
    reaches."""
    sources = {path.stem: path.read_text("utf-8")
               for path in package.glob("*.py")}
    seen = set()
    todo = [name for name in ENTRY_POINTS if name in sources]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(imported_modules(sources[name]) & sources.keys())
    return sorted(sources.keys() - seen)


def test_detector_finds_modules_no_entry_point_imports(tmp_path):
    files = {
        "__init__.py": "from .a import A\n",
        "__main__.py": "import wormdb.c\n",
        "a.py": "from . import b\nfrom wormdb.d import D\nimport os\n",
        "b.py": "from .errors import E\n",
        "c.py": "from wormdb import e\n",
        "d.py": "",
        "e.py": "",
        "errors.py": "",
        "oracle.py": "from .a import A\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, "utf-8")
    assert unreachable_modules(tmp_path) == ["oracle"]


def test_every_module_is_reachable_from_an_entry_point():
    assert unreachable_modules(PACKAGE) == []


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_tracer_patches_exists():
    spans = _tracer_module()
    wanted = [(owner, attr) for owner, functions in spans.SPANNED.values()
              for attr in functions]
    wanted += [(DfsCluster, attr) for attr in
               (*spans.NAMENODE_MUTATIONS, "meta_block_count")]
    wanted += [(DataNode, "get"), (DataNode, "put")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in wanted
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_tracer_before_hook_takes_its_functions_arguments():
    """The tracer calls a before-hook with the positional arguments of the
    call it wraps, self first; a hook that cannot bind them would fail
    only in a traced run."""
    tracer = _tracer_module().Tracer()
    wrapped = {"_commit_before": Session.commit,
               "_read_page_before": DfsTransactionStore.read_page,
               "_put_before": DataNode.put}
    assert {name for name in dir(tracer) if name.endswith("_before")} == \
        wrapped.keys()
    positional = (inspect.Parameter.POSITIONAL_ONLY,
                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
    unbound = []
    for hook, fn in wrapped.items():
        count = sum(param.kind in positional for param
                    in inspect.signature(fn).parameters.values())
        try:
            inspect.signature(getattr(tracer, hook)).bind(*range(count))
        except TypeError:
            unbound.append(f"{hook} for {fn.__qualname__}")
    assert unbound == []
