"""Journaled contract storage: rolling a call back costs O(what it wrote).

Every contract call runs inside an :class:`UndoJournal`.  Each write to
contract storage made while the journal is active records its inverse, and
reverting the call replays those inverses newest-first — the scheme Ethereum
clients use for failed calls (cf. go-ethereum's ``core/state/journal.go``).
Appending to a list is undone by truncating it, so a call that appends one
record to an ever-growing history costs O(1), not O(history).

The active journal is per thread, so concurrent calls on different replicas
(each serialised by its world state's execution lock) never share one.

Contract storage may hold only values whose every write is journaled:

* immutable scalars (``None``, ``bool``, ``int``, ``float``, ``str``,
  ``bytes``) and tuples / frozensets of storable values;
* :class:`JournaledList` and :class:`JournaledDict` — plain lists and dicts
  (and dict subclasses such as a transaction's frozen args) are converted to
  these, recursively, when they are stored;
* :class:`JournaledRecord` instances, whose attribute assignment is journaled.

Storing anything else (a ``set``, a ``bytearray``, an arbitrary object)
raises :class:`TypeError`, so no mutable value can silently escape rollback.
"""

from __future__ import annotations

import operator
import threading
from typing import Any, Iterable, List, Optional, Tuple

_SCALARS = (type(None), bool, int, float, str, bytes)


class _ActiveJournal(threading.local):
    #: The undo entries of the journal active on this thread, if any.
    entries: Optional[List[Tuple[Any, ...]]] = None


_active = _ActiveJournal()


def storable(value: Any) -> Any:
    """``value`` as contract storage: lists and dicts become journaled
    (recursively); immutable values are returned unchanged."""
    if type(value) in _SCALARS or isinstance(value, (JournaledList, JournaledDict,
                                                      JournaledRecord)):
        return value
    if isinstance(value, dict):
        return JournaledDict(value)
    if isinstance(value, list):
        return JournaledList(value)
    if isinstance(value, (tuple, frozenset)):
        items = tuple(map(storable, value))
        if all(map(operator.is_, items, value)):
            return value
        return type(value)(items)
    if isinstance(value, (str, int, float, bytes)):
        return value
    raise TypeError(
        f"contract storage cannot hold a {type(value).__name__}: its writes "
        f"would escape rollback (store lists, dicts, tuples, scalars or "
        f"JournaledRecord instances)")


class UndoJournal:
    """Records the inverse of every storage write while active on this thread.

    Leaving the ``with`` block on an exception reverts every recorded write;
    so does leaving it normally when ``always_revert`` is set (read-only
    calls).  A journal that commits inside another one hands its entries to
    the outer journal, so the outer call can still roll them back.
    """

    __slots__ = ("always_revert", "_entries", "_outer")

    def __init__(self, always_revert: bool = False) -> None:
        self.always_revert = always_revert
        self._entries: List[Tuple[Any, ...]] = []
        self._outer: Optional[List[Tuple[Any, ...]]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "UndoJournal":
        self._outer = _active.entries
        _active.entries = self._entries
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.entries = self._outer
        if exc_type is not None or self.always_revert:
            self.revert()
        elif self._outer is not None:
            self._outer.extend(self._entries)
            self._entries = []
        return False

    def revert(self) -> None:
        """Undo every recorded write, newest first."""
        entries = self._entries
        while entries:
            undo, *args = entries.pop()
            undo(*args)


def _record(*undo: Any) -> None:
    entries = _active.entries
    if entries is not None:
        entries.append(undo)


# The inverses call the base-class methods so undoing is never journaled.

def _truncate(items: list, length: int) -> None:
    list.__delitem__(items, slice(length, None))


def _refill_list(items: list, saved: list) -> None:
    list.__setitem__(items, slice(None), saved)


def _refill_dict(mapping: dict, saved: dict) -> None:
    dict.clear(mapping)
    dict.update(mapping, saved)


def _unset_attribute(obj: object, name: str) -> None:
    object.__delattr__(obj, name)


class JournaledList(list):
    """A list whose in-place writes are journaled."""

    __slots__ = ()

    def __init__(self, items: Iterable[Any] = ()) -> None:
        list.__init__(self, map(storable, items))

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, never through the
        # journaled append.
        return (type(self), (list(self),))

    def append(self, item: Any) -> None:
        item = storable(item)
        _record(_truncate, self, len(self))
        list.append(self, item)

    def extend(self, items: Iterable[Any]) -> None:
        items = [storable(item) for item in items]
        _record(_truncate, self, len(self))
        list.extend(self, items)

    def __iadd__(self, items: Iterable[Any]) -> "JournaledList":
        self.extend(items)
        return self

    def __setitem__(self, index: Any, value: Any) -> None:
        if isinstance(index, slice):
            value = [storable(item) for item in value]
            self._save_whole()
        else:
            value = storable(value)
            _record(list.__setitem__, self, index, list.__getitem__(self, index))
        list.__setitem__(self, index, value)

    def insert(self, index: int, item: Any) -> None:
        item = storable(item)
        self._save_whole()
        list.insert(self, index, item)

    def _save_whole(self) -> None:
        if _active.entries is not None:
            _record(_refill_list, self, list(self))


class JournaledDict(dict):
    """A dict whose in-place writes are journaled."""

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        dict.__init__(self)
        for key, value in dict(*args, **kwargs).items():
            dict.__setitem__(self, storable(key), storable(value))

    def __reduce__(self):
        return (type(self), (dict(self),))

    def __setitem__(self, key: Any, value: Any) -> None:
        key, value = storable(key), storable(value)
        if dict.__contains__(self, key):
            _record(dict.__setitem__, self, key, dict.__getitem__(self, key))
        else:
            _record(dict.__delitem__, self, key)
        dict.__setitem__(self, key, value)

    def update(self, *args: Any, **kwargs: Any) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __ior__(self, other: Any) -> "JournaledDict":
        self.update(other)
        return self

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if key not in self:
            self[key] = default
        return self[key]

    def _save_whole(self) -> None:
        if _active.entries is not None:
            _record(_refill_dict, self, dict(self))


def _undone_wholesale(base: type, name: str):
    """A method that saves the whole container before calling ``base.name``.

    Used for the rarely used writes (removals, reordering): their undo is a
    full refill, which also restores a dict's key order."""
    method = getattr(base, name)

    def journaled(self, *args: Any, **kwargs: Any) -> Any:
        self._save_whole()
        return method(self, *args, **kwargs)

    journaled.__name__ = name
    return journaled


for _name in ("__delitem__", "pop", "remove", "clear", "sort", "reverse", "__imul__"):
    setattr(JournaledList, _name, _undone_wholesale(list, _name))
for _name in ("__delitem__", "pop", "popitem", "clear"):
    setattr(JournaledDict, _name, _undone_wholesale(dict, _name))


class JournaledRecord:
    """Mixin: attribute assignment converts the value to storage and is
    journaled.  Contracts and the records they keep derive from it."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        value = storable(value)
        fields = self.__dict__
        if name in fields:
            _record(object.__setattr__, self, name, fields[name])
        else:
            _record(_unset_attribute, self, name)
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        fields = self.__dict__
        if name in fields:
            _record(object.__setattr__, self, name, fields[name])
        object.__delattr__(self, name)
