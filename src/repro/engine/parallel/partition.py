"""Hash-sharding of canonical set values.

The parallel backend partitions a set into *shards* -- disjoint canonical
subsets whose union is the original set -- and evaluates a shard-local plan
on each.  Partitioning must be

* **deterministic**: the same value always lands in the same shard, whatever
  the interpreter's randomized string hashing does (``PYTHONHASHSEED``) and
  which worker thread processes the shard -- shard assignment is part of
  the observable execution plan, and the tests pin it;
* **structural**: shards are computed from the value itself, so two engines
  agree without sharing state;
* **cheap to re-apply**: the semi-naive fixpoint re-shards every round's
  frontier, so a shard is a subsequence of a canonical element tuple and is
  built without re-sorting (a subsequence of a canonical sequence is
  canonical).

:func:`structural_hash` is an FNV-1a walk over the value structure mirroring
:func:`repro.objects.values.sort_key` (same traversal, numeric digest).  It
is *not* Python's ``hash`` -- equal values get equal digests in every
process.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...objects.values import BaseVal, BoolVal, PairVal, SetVal, UnitVal, Value

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def _mix(h: int, n: int) -> int:
    return ((h ^ (n & _MASK)) * _FNV_PRIME) & _MASK


def structural_hash(v: Value) -> int:
    """A deterministic 64-bit digest of a complex object value.

    Independent of ``PYTHONHASHSEED``, interning, and process identity: equal
    values (in the canonical-form sense of :mod:`repro.objects.values`) have
    equal digests everywhere.  Used for shard assignment only -- collisions
    merely skew shard sizes, they never affect results.
    """
    if isinstance(v, UnitVal):
        return _mix(_FNV_OFFSET, 1)
    if isinstance(v, BoolVal):
        return _mix(_mix(_FNV_OFFSET, 2), 1 if v.value else 0)
    if isinstance(v, BaseVal):
        if isinstance(v.value, int):
            return _mix(_mix(_FNV_OFFSET, 3), v.value)
        h = _mix(_FNV_OFFSET, 4)
        for b in v.value.encode("utf-8"):
            h = _mix(h, b)
        return h
    if isinstance(v, PairVal):
        h = _mix(_FNV_OFFSET, 5)
        h = _mix(h, structural_hash(v.fst))
        return _mix(h, structural_hash(v.snd))
    if isinstance(v, SetVal):
        h = _mix(_FNV_OFFSET, 6)
        for e in v.elements:
            h = _mix(h, structural_hash(e))
        return h
    raise TypeError(f"not a complex object value: {v!r}")


def _subsequence_set(elements: tuple[Value, ...]) -> SetVal:
    """A ``SetVal`` from an already-canonical element tuple, skipping the sort.

    Sound only for subsequences of a canonical element tuple (deduplicated,
    sorted by ``sort_key``) -- exactly what partitioning produces.
    """
    s = SetVal.__new__(SetVal)
    object.__setattr__(s, "elements", elements)
    object.__setattr__(s, "_hash", None)
    return s


def hash_partition(
    s: SetVal,
    k: int,
    key_of: Optional[Callable[[Value], Value]] = None,
) -> list[SetVal]:
    """Split a canonical set into at most ``k`` disjoint canonical shards.

    Elements are assigned by ``structural_hash(element) % k`` -- or, when
    ``key_of`` is given, by the hash of ``key_of(element)``, which is how a
    join side is *aligned*: partitioning both sides of an equi-join by their
    join keys sends every matching pair to the same shard index, so each
    worker builds and probes only its aligned fraction of the index.

    Empty shards are dropped (their union contributes nothing and their
    evaluation would waste a task); the empty input is returned as the single
    shard ``[{}]`` so a shard-local plan still runs exactly once -- needed
    because a union-distributive query may contain loop-invariant operands
    that contribute to the result even on empty input.
    """
    if k <= 1 or len(s.elements) <= 1:
        return [s]
    buckets: list[list[Value]] = [[] for _ in range(k)]
    if key_of is None:
        for e in s.elements:
            buckets[structural_hash(e) % k].append(e)
    else:
        for e in s.elements:
            buckets[structural_hash(key_of(e)) % k].append(e)
    return [_subsequence_set(tuple(b)) for b in buckets if b]


def hash_partition_aligned(
    s: SetVal,
    k: int,
    key_of: Callable[[Value], Value],
) -> list[SetVal]:
    """Partition by key hash into *exactly* ``k`` shards, empties kept.

    The co-partitioned join protocol: both sides of an equi-join are
    partitioned with the same ``k`` and their respective key functions, so
    shard index ``i`` of the left side joins against shard index ``i`` of
    the right side and no cross-shard pair can match.  Positions matter, so
    empty shards are preserved (the caller skips aligned pairs whose left
    side is empty).
    """
    buckets: list[list[Value]] = [[] for _ in range(max(1, k))]
    for e in s.elements:
        buckets[structural_hash(key_of(e)) % len(buckets)].append(e)
    return [_subsequence_set(tuple(b)) for b in buckets]
