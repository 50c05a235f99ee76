"""One memo for what the transforms compute apart from the signal.

Transform plans, grid weights and chirps, coefficient pass plans with
their tap tables, admissibility scans and Morrey ball orders depend on
grids, orders, wavelets, scale sets and ball scans, never on a signal.
Their builders, decorated with memoized, share one least-recently-used
memo keyed by builder name and argument values, bounded by bytes (as in
Cao & Irani, "Cost-aware WWW proxy caching algorithms", USENIX Symp.
Internet Technologies and Systems, 1997): an entry is charged its
arrays' bytes, at least _FLOOR_BYTES, and the least recently used
entries go while the charges exceed _BUDGET_BYTES.  An entry charged
more than that is returned, not kept.  Every array an entry holds is
made read-only, as every caller shares it.

One lock guards lookups and inserts, never a build.  A thread that misses
a key under construction waits for that build and counts a hit, so each
key is built once and the counts do not depend on timing; a thread that
hits another key goes on.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import threading
import types

import numpy as np

__all__ = ["cache_info"]

# a cold `frwt verify all` pass keeps 5.7 MiB, and a 1-D N = 4096 analysis
# plan over 128 scales holds 8.4 MiB of tap tables
_BUDGET_BYTES = 16 << 20
# so that entries of few array bytes (a scan holds numbers only) fill it too
_FLOOR_BYTES = 4 << 10

_lock = threading.Lock()
_tables: dict[str, dict[tuple, list]] = {}  # name -> {key: [value, charge, last use]}
_counts: dict[str, list[int]] = {}  # name -> [hits, misses]
_clock = itertools.count()
_charged = 0

_CacheInfo = collections.namedtuple("CacheInfo", "hits misses entries bytes")


def memoized(build):
    """build(*key), kept under build's name without leading underscores."""
    name = build.__name__.lstrip("_")
    entries = _tables[name] = {}
    counts = _counts[name] = [0, 0]
    # key -> the build under way (done event, value, error), for the misses to wait on
    building: dict[tuple, types.SimpleNamespace] = {}

    @functools.wraps(build)
    def lookup(*key):
        _lock.acquire()  # not `with`, which costs a hit 0.1 us more
        try:
            entry = entries.get(key)
            if entry is not None:
                entry[2] = next(_clock)
                counts[0] += 1
                return entry[0]
            pending = building.get(key)
            # a miss starts a build; a wait for one counts a hit
            counts[pending is None] += 1
            if pending is None:
                own = building[key] = types.SimpleNamespace(done=threading.Event(), value=None, error=None)
        finally:
            _lock.release()
        if pending is not None:
            pending.done.wait()
            if pending.error is not None:
                raise pending.error
            return pending.value
        try:
            own.value = build(*key)
            charge = _freeze(own.value)
        except BaseException as exc:
            own.error = exc
            raise
        finally:
            with _lock:
                del building[key]
                if own.error is None:
                    _keep(entries, key, own.value, charge)
            own.done.set()
        return own.value

    return lookup


def _freeze(value) -> int:
    """Make value's arrays read-only, through tuples, lists and dataclasses;
    return the bytes value is charged."""
    arrays, stack = {}, [value]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            arrays[id(item)] = item
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, field.name) for field in dataclasses.fields(item))
    for array in arrays.values():
        array.flags.writeable = False
    return max(_FLOOR_BYTES, sum(array.nbytes for array in arrays.values()))


def _keep(entries: dict, key: tuple, value, charge: int) -> None:
    # with _lock held
    global _charged
    if charge > _BUDGET_BYTES:
        return
    if _charged + charge > _BUDGET_BYTES:
        # least recently used first; the last uses are distinct
        for _, table, old in sorted((e[2], t, k) for t in _tables.values() for k, e in t.items()):
            _charged -= table.pop(old)[1]
            if _charged + charge <= _BUDGET_BYTES:
                break
    entries[key] = [value, charge, next(_clock)]
    _charged += charge


def cache_info() -> dict[str, _CacheInfo]:
    """Each memoized builder's name mapped to its hits, misses, entries
    kept and the bytes they are charged (see frwt.memo)."""
    with _lock:
        return {
            name: _CacheInfo(*_counts[name], len(table), sum(entry[1] for entry in table.values()))
            for name, table in sorted(_tables.items())
        }


def _clear() -> None:
    """Drop every entry and zero every count."""
    global _charged
    with _lock:
        for name, table in _tables.items():
            table.clear()
            _counts[name][:] = [0, 0]
        _charged = 0
