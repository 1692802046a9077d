"""wormdb: a transactional page store on a write-once-read-many DFS.

Layers, bottom up: an in-process DFS simulation (`dfs`), meta DFS files
that make write-once storage overwritable in block units (`metafile`),
shadow-page deferred-update recovery adapted to meta DFS files, with block
buffering and deferred batch post-commit (`spdu_dfs`), a lockid-ordered
database-granularity lock queue (`locks`), of which each cluster holds
one that every database over it shares (`DfsCluster.locks`), and a
record engine plus benchmark harness on top (`engine`, `bench`, `cli`).
The flat-file form of the recovery method is a test oracle and lives in
`tests/oracles.py`.
"""

from .dfs import DfsCluster, DfsConfig
from .engine import Database, EngineConfig, Session
from .errors import StorageError
from .locks import LockService
from .metafile import MetaDfsManager
from .records import UserVisitsRecord

__version__ = "0.1.0"

__all__ = [
    "Database",
    "DfsCluster",
    "DfsConfig",
    "EngineConfig",
    "LockService",
    "MetaDfsManager",
    "Session",
    "StorageError",
    "UserVisitsRecord",
    "__version__",
]
