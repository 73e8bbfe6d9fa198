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
* **cheap**: a shard is a subsequence of a canonical element tuple and is
  built without re-sorting (a subsequence of a canonical sequence is
  canonical).

:func:`structural_hash` is an FNV-1a walk over the value structure mirroring
:func:`repro.objects.values.sort_key` (same traversal, numeric digest).  An
FNV step's multiply carries a bit only upward, so the low bits the shard
modulus reads would see only the low bits of a compound value's parts (every
path edge ``(i, i + 1)`` lands in one bucket modulo 2 and modulo 4); pair and
set digests are therefore finished by MurmurHash3's ``fmix64``, which makes
every output bit depend on every input bit.  A base value's digest stays
plain FNV-1a, which already spreads consecutive integers evenly over a
power-of-two modulus.  It is *not* Python's ``hash`` -- equal values get
equal digests in every process.
"""

from __future__ import annotations

from ...objects.values import BaseVal, BoolVal, PairVal, SetVal, UnitVal, Value

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def _mix(h: int, n: int) -> int:
    return ((h ^ (n & _MASK)) * _FNV_PRIME) & _MASK


def _fmix64(h: int) -> int:
    """MurmurHash3's 64-bit finalizer: every output bit depends on every input bit."""
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK
    return h ^ (h >> 33)


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
        return _fmix64(_mix(h, structural_hash(v.snd)))
    if isinstance(v, SetVal):
        h = _mix(_FNV_OFFSET, 6)
        for e in v.elements:
            h = _mix(h, structural_hash(e))
        return _fmix64(h)
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


def hash_partition(s: SetVal, k: int) -> list[SetVal]:
    """Split a canonical set into at most ``k`` disjoint canonical shards.

    Elements are assigned by ``structural_hash(element) % k``.  Empty shards
    are dropped (their union contributes nothing and their evaluation would
    waste a task); the empty input is returned as the single shard ``[{}]``
    so a shard-local plan still runs exactly once -- needed because a
    union-distributive query may contain loop-invariant operands that
    contribute to the result even on empty input.
    """
    if k <= 1 or len(s.elements) <= 1:
        return [s]
    buckets: list[list[Value]] = [[] for _ in range(k)]
    for e in s.elements:
        buckets[structural_hash(e) % k].append(e)
    return [_subsequence_set(tuple(b)) for b in buckets if b]
