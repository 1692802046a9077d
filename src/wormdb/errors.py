"""Exception types shared across the storage stack."""


class StorageError(Exception):
    """Base class for all wormdb errors."""


class AlreadyExists(StorageError):
    pass


class NotFound(StorageError):
    pass


class OutOfRange(StorageError):
    pass


class InsufficientReplicaNodes(StorageError):
    pass


class AllReplicasDead(StorageError):
    pass


class UnknownNode(StorageError):
    pass


class WrongBlockSize(StorageError):
    pass


class RecoveryError(StorageError):
    """Durable state failed a consistency check (bad checksum, bad magic).

    Never repaired silently; surfaced to the caller.
    """


class LogMoved(StorageError):
    """Another store's batch named a new log generation while a
    transaction held pages it had appended to the old one."""


class ConfigError(StorageError, ValueError):
    """A config file is unreadable, names an unknown key or gives a value
    of the wrong type."""


class RecordTooLarge(StorageError):
    pass


class ValueTooLong(StorageError):
    pass


class DatabaseFull(StorageError):
    pass


class LockError(StorageError):
    pass


class UnknownLock(LockError):
    pass


class NotGranted(LockError):
    pass


class UpgradeConflict(LockError):
    """Two lock owners tried to upgrade read -> write against each other."""


class ServiceShutdown(LockError):
    pass
