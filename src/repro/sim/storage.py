"""Deterministic stable storage for the crash-recovery failure model.

The crash-recovery literature (e.g. "You Only Live Multiple Times")
splits process state in two: *volatile* state vanishes at a crash,
*stable* state survives it. This module is the stable half: a
:class:`StorageHub` owned by the :class:`~repro.sim.world.World` holds
one :class:`StableStore` per process id, so the store outlives any
number of crash/recover round trips of the process automaton itself.

Everything here is plain dict bookkeeping — no I/O, no randomness — so
stable storage never perturbs the deterministic digest invariants. Read
and write counters are kept per store; nothing outside
``tests/sim/test_storage.py`` reads them (the e17 bench times whole
campaigns, it does not count writes).
"""

from __future__ import annotations

from typing import Hashable, Iterator


class StableStore:
    """Crash-surviving key/value state of a single process.

    Keys are hashables, values arbitrary objects. The store itself never
    copies values — callers that persist mutable state should store an
    immutable encoding of it (the recovery wrapper stores ``bytes``),
    mirroring the way a real write-ahead log serialises.
    """

    __slots__ = ("pid", "reads", "writes", "_data")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.reads = 0
        self.writes = 0
        self._data: dict[Hashable, object] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def put(self, key: Hashable, value: object) -> None:
        """Persist ``value`` under ``key`` (survives crashes)."""
        self.writes += 1
        self._data[key] = value

    def get(self, key: Hashable, default: object = None) -> object:
        """Read back a persisted value (``default`` if absent)."""
        self.reads += 1
        return self._data.get(key, default)

    def delete(self, key: Hashable) -> None:
        """Drop a persisted key (no-op if absent)."""
        self.writes += 1
        self._data.pop(key, None)

    def keys(self) -> list[Hashable]:
        """The persisted keys, in insertion order."""
        return list(self._data)

    def snapshot(self) -> dict[Hashable, object]:
        """A shallow copy of the persisted state (diagnostics/tests)."""
        return dict(self._data)

    def wipe(self) -> None:
        """Erase everything (simulates losing the disk, not a crash)."""
        self._data.clear()


class StorageHub:
    """All stable stores of one world, keyed by process id.

    Owned by the world rather than the processes so the contents survive
    ``crash_now`` — a crashed process's volatile attributes may be reset
    arbitrarily, but ``hub.slot(pid)`` always returns the same store
    object for the lifetime of the world.
    """

    __slots__ = ("_stores",)

    def __init__(self, n: int) -> None:
        self._stores = [StableStore(pid) for pid in range(n)]

    def __len__(self) -> int:
        return len(self._stores)

    def slot(self, pid: int) -> StableStore:
        """The stable store of process ``pid``."""
        return self._stores[pid]

    @property
    def total_reads(self) -> int:
        """Reads across every store."""
        return sum(store.reads for store in self._stores)

    @property
    def total_writes(self) -> int:
        """Writes across every store."""
        return sum(store.writes for store in self._stores)
