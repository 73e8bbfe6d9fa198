"""Hash-consing (interning) of complex object values.

The reference interpreter (:mod:`repro.nra.eval`) rebuilds canonical values
from scratch at every AST node: every :class:`~repro.objects.values.SetVal`
construction re-sorts its elements and recomputes :func:`sort_key` recursively,
and every equality test walks both structures.  For the optimizing engine we
*intern* values instead: an :class:`InternTable` guarantees that structurally
equal values are represented by the **same Python object**, so that

* equality checks are ``O(1)`` identity comparisons (``a is b``),
* the total-order key of :mod:`repro.objects.order` is computed once per
  distinct value and cached, and
* every value gets a dense integer id, so the flat kernels can ship ids in
  integer columns and pack a pair of ids into one code.

Interning preserves canonical form exactly: an interned value is ``==`` to the
value it was built from, so results of the optimized engine are
indistinguishable from the reference interpreter's (the cross-checks in
``tests/engine`` assert this).  The table's own ``id``-keyed maps (cached
sort keys, dense ids) are sound because it holds strong references to every
canonical representative: an interned value can never be garbage collected
while its table is alive.  Caches outside the table that key on ``id(value)``
hold the value they are keyed by themselves (the vectorized backend's set
records do), so their soundness does not rest on the table never freeing a
value.  Tables are scoped to an :class:`~repro.engine.engine.Engine`, so the
memory is reclaimed when the engine is dropped.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from ..objects.values import (
    BaseVal,
    BoolVal,
    PairVal,
    SetVal,
    UnitVal,
    Value,
    canonical_set,
    sort_key,
)


#: Pair codes pack two dense ids into one ``int``:
#: ``(fst << CODE_BITS) | snd``.
CODE_BITS = 32
CODE_MASK = (1 << CODE_BITS) - 1


class DenseIdLimitError(OverflowError):
    """An intern table was asked for a value past its dense-id limit."""


#: Canonical-tuple SetVal constructor (skips the sort; see values.canonical_set).
_raw_set = canonical_set


class InternTable:
    """Hash-consing table for complex object values.

    ``intern`` maps any value to its canonical representative; the fast
    constructors (``pair``, ``singleton``, ``mkset``, ``union``) build interned
    values directly from interned parts, using cached sort keys so set
    canonicalisation is a merge of pre-sorted sequences rather than a fresh
    sort with recursive key recomputation.
    """

    #: Dense ids this table may issue: ids below it pack into pair codes.
    #: 2**32 distinct values per engine is far beyond anything the
    #: benchmarks reach; the table refuses the next one
    #: (:class:`DenseIdLimitError`), so every code any kernel or view packs
    #: names exactly one pair.
    id_limit = 1 << CODE_BITS

    def __init__(self) -> None:
        self._table: dict[tuple, Value] = {}
        # Cached sort_key per interned value, keyed by id (sound because the
        # table keeps every canonical value alive).
        self._keys: dict[int, tuple] = {}
        # -- dense-id assignment (the flat-column backbone) -------------------
        # Every canonical value gets a small integer id in interning order.
        # The assignment is append-only and survives ``Engine.clear_plans``
        # (which never touches the intern table), so ``dense_id -> value ->
        # dense_id`` round-trips for the lifetime of the engine.  Flat kernels
        # ship these ids in ``array('q')`` columns instead of object tuples.
        self._by_dense: list[Value] = []
        self._dense: dict[int, int] = {}  # id(value) -> dense id
        #: pair dense id -> (fst dense id, snd dense id); the column
        #: decomposition flat kernels walk instead of attribute access.
        self._pair_parts: dict[int, tuple[int, int]] = {}
        #: packed ``(fst << 32) | snd`` code -> pair, so a flat join can
        #: materialize its output pairs without re-probing ``("p", ...)`` keys.
        self._pair_codes: dict[int, Value] = {}
        #: sorted-unique dense-id bytes -> SetVal: recognises a set that was
        #: already materialized from ids without re-sorting by object keys.
        self._sets_by_ids: dict[bytes, Value] = {}
        #: sorted-unique pair-code bytes -> SetVal: the same for a set of
        #: pairs, recognised before any code is resolved to its pair.
        self._sets_by_codes: dict[bytes, Value] = {}
        self.hits = 0
        self.misses = 0
        self.unit = self._store(("u",), UnitVal())
        self.true = self._store(("B", True), BoolVal(True))
        self.false = self._store(("B", False), BoolVal(False))
        self.empty_set = self._store(("s",), _raw_set(()))

    # -- plumbing -----------------------------------------------------------------

    def _store(self, key: tuple, v: Value, elem_keys: Optional[tuple] = None) -> Value:
        dense = len(self._by_dense)
        if dense >= self.id_limit:  # before any write: the table stays as it was
            raise DenseIdLimitError(
                f"intern table full: dense id {dense} is past the limit of "
                f"{self.id_limit} ids that pair codes pack")
        self._table[key] = v
        # The parts of a stored pair/set are interned already (every
        # constructor's contract), so their keys are cached: assemble the
        # new key from them instead of recomputing recursively -- set
        # construction is the hot path of delta maintenance.
        keys = self._keys
        if elem_keys:  # a spliced set: its element keys were spliced with it
            keys[id(v)] = (4, len(elem_keys), elem_keys)
        elif isinstance(v, SetVal):
            try:
                # All-cached is the norm; C-level map beats a python-level
                # genexpr by ~4x on the wide sets delta maintenance stores.
                elem_keys = tuple(map(keys.__getitem__, map(id, v.elements)))
            except KeyError:
                elem_keys = tuple(keys.get(id(e)) or sort_key(e)
                                  for e in v.elements)
            keys[id(v)] = (4, len(v.elements), elem_keys)
        elif isinstance(v, PairVal):
            fk = keys.get(id(v.fst)) or sort_key(v.fst)
            sk = keys.get(id(v.snd)) or sort_key(v.snd)
            keys[id(v)] = (3, fk, sk)
        else:
            keys[id(v)] = sort_key(v)
        self._by_dense.append(v)
        self._dense[id(v)] = dense
        if isinstance(v, PairVal):
            # Constructor contract: the parts of a stored pair are interned,
            # so they already carry dense ids.  (``.get`` is defensive: a
            # part that somehow is not registered just leaves this pair
            # opaque to the flat kernels, which then fall back.)
            fi = self._dense.get(id(v.fst))
            si = self._dense.get(id(v.snd))
            if fi is not None and si is not None:
                self._pair_parts[dense] = (fi, si)
                self._pair_codes[(fi << CODE_BITS) | si] = v
        return v

    def _canon(self, key: tuple, build, elem_keys: Optional[tuple] = None) -> Value:
        found = self._table.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        return self._store(key, build(), elem_keys)

    def is_interned(self, v: Value) -> bool:
        """True iff ``v`` is a canonical representative of this table."""
        return id(v) in self._keys

    def sort_key_of(self, v: Value) -> tuple:
        """The cached total-order key of an *interned* value."""
        return self._keys[id(v)]

    @property
    def size(self) -> int:
        """Number of distinct values interned so far."""
        return len(self._table)

    # -- dense ids / flat columns -------------------------------------------------

    def dense_id(self, v: Value) -> int:
        """The stable dense id of an *interned* value (interning order)."""
        return self._dense[id(v)]

    def value_of(self, dense: int) -> Value:
        """The canonical value carrying dense id ``dense``."""
        return self._by_dense[dense]

    @property
    def dense_size(self) -> int:
        """Number of dense ids assigned (== :attr:`size`)."""
        return len(self._by_dense)

    def pair_parts(self) -> dict[int, tuple[int, int]]:
        """Read-only view: pair dense id -> (fst dense id, snd dense id)."""
        return self._pair_parts

    def pair_from_ids(self, fid: int, sid: int) -> Value:
        """Interned pair from two dense part ids (code-cache fast path)."""
        found = self._pair_codes.get((fid << CODE_BITS) | sid)
        if found is not None:
            self.hits += 1
            return found
        return self.pair(self._by_dense[fid], self._by_dense[sid])

    def set_from_ids(self, ids: Sequence[int]) -> Value:
        """Interned set from element dense ids (dedupes; any order).

        One of the flat kernels' plan-boundary materializations: integer
        sort-unique replaces the object-key sort, and a bytes-keyed cache
        recognises a set of ids seen before (a repeated probe's answer)
        without touching the elements at all.
        """
        uniq = sorted(set(ids))
        key = array("q", uniq).tobytes()
        found = self._sets_by_ids.get(key)
        if found is not None:
            self.hits += 1
            return found
        by_dense, keys = self._by_dense, self._keys
        elems = [by_dense[i] for i in uniq]
        elems.sort(key=lambda v: keys[id(v)])
        s = self._set_from_canonical(tuple(elems))
        self._sets_by_ids[key] = s
        return s

    def set_from_pair_codes(self, codes: Iterable[int]) -> Value:
        """Interned set of pairs from packed ``(fst << 32) | snd`` codes (dedupes; any order).

        The pair-emitting kernels' plan boundary.  Keyed on the sorted unique
        codes themselves, so a set of pairs seen before costs one integer
        sort and one lookup: no code is resolved to its pair.  A new one is
        built once -- each code's pair, one sort by the cached keys -- and
        distinct codes are distinct pairs, so no second dedup is needed.
        """
        uniq = sorted(set(codes))
        key = array("Q", uniq).tobytes()  # codes reach 2**64 - 1
        found = self._sets_by_codes.get(key)
        if found is not None:
            self.hits += 1
            return found
        get, pair, by_dense, keys = self._pair_codes.get, self.pair, self._by_dense, self._keys
        pairs = [
            get(c) or pair(by_dense[c >> CODE_BITS], by_dense[c & CODE_MASK])
            for c in uniq
        ]
        pairs.sort(key=lambda v: keys[id(v)])
        s = self._set_from_canonical(tuple(pairs))
        self._sets_by_codes[key] = s
        return s

    # -- interning ----------------------------------------------------------------

    def intern(self, v: Value) -> Value:
        """Return the canonical representative of ``v`` (recursively)."""
        if id(v) in self._keys:
            return v
        if isinstance(v, BaseVal):
            return self._canon(("b", v.value), lambda: v)
        if isinstance(v, BoolVal):
            return self.true if v.value else self.false
        if isinstance(v, UnitVal):
            return self.unit
        if isinstance(v, PairVal):
            fst = self.intern(v.fst)
            snd = self.intern(v.snd)
            return self._canon(
                ("p", id(fst), id(snd)),
                lambda: v if (fst is v.fst and snd is v.snd) else PairVal(fst, snd),
            )
        if isinstance(v, SetVal):
            elems = tuple(self.intern(e) for e in v.elements)
            # Canonical order is preserved: interned elements are structurally
            # equal to the originals, and sort_key is a function of structure.
            return self._canon(
                ("s", *map(id, elems)),
                lambda: v if all(a is b for a, b in zip(elems, v.elements)) else _raw_set(elems),
            )
        raise TypeError(f"cannot intern {v!r}")

    # -- fast constructors over interned parts ------------------------------------

    def base(self, atom) -> Value:
        return self._canon(("b", atom), lambda: BaseVal(atom))

    def boolean(self, b: bool) -> Value:
        return self.true if b else self.false

    def pair(self, fst: Value, snd: Value) -> Value:
        """Interned pair of two interned values."""
        return self._canon(("p", id(fst), id(snd)), lambda: PairVal(fst, snd))

    def singleton(self, v: Value) -> Value:
        """Interned singleton set of an interned value."""
        return self._canon(("s", id(v)), lambda: _raw_set((v,)))

    def _set_from_canonical(
        self, elems: tuple[Value, ...], elem_keys: Optional[tuple] = None
    ) -> Value:
        return self._canon(("s", *map(id, elems)), lambda: _raw_set(elems), elem_keys)

    def canonical_set(self, elements: Iterable[Value]) -> Value:
        """Interned set from *interned* elements already in canonical order.

        Canonical order is a function of structure alone, so a sequence that
        was canonical in another table (e.g. the driver's, when a parallel
        worker translates a shard) stays canonical after element-wise
        re-interning here; this constructor skips the sort :meth:`mkset`
        would redo.  Passing unsorted or duplicated elements is unsound.
        """
        return self._set_from_canonical(tuple(elements))

    def mkset(self, elements: Iterable[Value]) -> Value:
        """Interned set from interned elements (sorts and dedupes by cached keys)."""
        by_key = {self.sort_key_of(e): e for e in elements}
        elems = tuple(by_key[k] for k in sorted(by_key))
        return self._set_from_canonical(elems)

    def union(self, a: SetVal, b: SetVal) -> Value:
        """Interned union of two interned sets, by linear merge of sorted tuples.

        Because both inputs are canonical and their elements interned, the
        merge compares cached keys only and detects duplicates by identity.
        """
        if not a.elements:
            return b
        if not b.elements:
            return a
        keys = self._keys
        xs, ys = a.elements, b.elements
        merged: list[Value] = []
        i = j = 0
        while i < len(xs) and j < len(ys):
            x, y = xs[i], ys[j]
            if x is y:
                merged.append(x)
                i += 1
                j += 1
                continue
            if keys[id(x)] <= keys[id(y)]:
                merged.append(x)
                i += 1
            else:
                merged.append(y)
                j += 1
        merged.extend(xs[i:])
        merged.extend(ys[j:])
        return self._set_from_canonical(tuple(merged))

    def difference(self, a: SetVal, b: SetVal) -> Value:
        """Interned difference of two interned sets (identity membership).

        A subsequence of a canonical sequence is canonical, so the result is
        built without re-sorting.  This is the frontier computation of the
        vectorized engine's semi-naive iteration (``delta = new - old``) and
        the old-against-new diff of a recomputed view node.
        """
        xs = a.elements
        if not xs or not b.elements:
            return a
        drop = set(map(id, b.elements))
        kept = tuple([x for x in xs if id(x) not in drop])
        if len(kept) == len(xs):
            return a
        return self._set_from_canonical(kept)

    def splice(
        self, s: SetVal, inserts: Iterable[Value], deletes: Iterable[Value]
    ) -> tuple[Value, list, list]:
        """Interned ``(s - deletes) | inserts`` over *interned* elements, and its row patch.

        Each delta element is placed by bisection over the cached sort keys
        (a set's own key lists its elements' keys in canonical order, so the
        probes never leave C), and the element tuple and that key tuple are
        copied once around the rows found: O(|delta|) python steps, no
        per-row shift of the rest.  Returns ``(new, dels, ins)`` -- ``(row,
        dense id)`` pairs, ``dels`` in descending row order and ``ins`` in
        the order applied: deleting, then inserting, those rows turns any
        column of ``s`` into that column of ``new``.  How a collection
        follows a commit (``Engine.advance``, which then carries the
        backend's record of ``s`` by the patch) and how a maintained view's
        output is rendered from what joined and left it since the last read.
        """
        keys, dense = self._keys, self._dense
        elems, elem_keys = s.elements, keys[id(s)][2]
        found = set()
        for v in deletes:
            row = bisect_left(elem_keys, keys[id(v)])
            if row < len(elems) and elems[row] is v:
                found.add((row, dense[id(v)]))
        dels = sorted(found, reverse=True)
        if dels:
            rows = [row for row, _ in reversed(dels)]
            elems, elem_keys = _cut(elems, rows), _cut(elem_keys, rows)
        ins, rows, new = [], [], []
        for v in sorted(inserts, key=lambda v: keys[id(v)]):
            row = bisect_left(elem_keys, keys[id(v)])
            if (row == len(elems) or elems[row] is not v) and (not new or new[-1] is not v):
                ins.append((row + len(rows), dense[id(v)]))
                rows.append(row)
                new.append(v)
        if not dels and not ins:
            return s, dels, ins
        if ins:
            elems = _weave(elems, rows, new)
            elem_keys = _weave(elem_keys, rows, [keys[id(v)] for v in new])
        return self._set_from_canonical(tuple(elems), tuple(elem_keys)), dels, ins


def _cut(xs: Sequence, rows: list) -> list:
    """A copy of ``xs`` without ``rows`` (ascending): one slice per gap."""
    out, start = [], 0
    for row in rows:
        out += xs[start:row]
        start = row + 1
    out += xs[start:]
    return out


def _weave(xs: Sequence, rows: list, items: list) -> list:
    """A copy of ``xs`` with ``items[i]`` before ``xs[rows[i]]`` (``rows`` ascending)."""
    out, start = [], 0
    for row, item in zip(rows, items):
        out += xs[start:row]
        out.append(item)
        start = row
    out += xs[start:]
    return out


def patch_column(col: array, dels: list, ins: list) -> array:
    """A copy of ``col`` without the rows of ``dels``, then with each ``(row, id)`` of ``ins``."""
    col = array("q", col)
    for row, _ in dels:
        del col[row]
    for row, v in ins:
        col.insert(row, v)
    return col


def intern_env(
    table: InternTable, env: Optional[dict] = None
) -> dict:
    """Intern every plain value in an environment (function denotations pass through)."""
    if not env:
        return {}
    return {
        name: table.intern(v) if isinstance(v, Value) else v
        for name, v in env.items()
    }
