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
``tests/engine`` assert this).

The table is also the engine's result cache: a set of pairs seen before is
found by its codes, with no pair touched.  So it keeps what nothing else
holds, but not forever.  :meth:`InternTable.sweep` frees every canonical
value that nothing outside the table holds (its reference count is the
table's own) *and* that nothing has used -- created, or found by a
constructor -- since the previous sweep: an answer asked for again within
a sweep interval stays canonical, garbage goes after at most two.  A freed
value leaves every map of the table, its dense id is never issued again,
and no survivor's id or pair code moves.  The contract this puts on
everything outside the table: **whoever keeps a dense id, a pair code or an
``id(value)`` across a sweep must hold a value that holds it** -- the value
itself, or a set or pair it is a part of.  Set records hold their set, a
compiled compare constant its value, the flat loop its input sets.  An
engine's database snapshot holds a commit's canonical rows and their pair
codes -- the deleted ones too, which the advance cut from its collection
before its sweep -- until the next commit, for the views that read them
after the advance.  In a maintained view a base node's elements are held
by the snapshot's collection, a counted node's by its ``counts``, a
constant's by its rendered output, and a coded node's -- a fixpoint's or a
composition's counted codes, built from parts of its children's elements
-- by its children, by induction.  Only the root keeps a pending delta: a
``+1`` code there is present, so held as above, and a ``-1`` code names a
pair its rendered output holds.  A view delta not decoded yet holds the
parts of its codes (:meth:`InternTable.parts_of`).  An
``id``-keyed map that holds neither would, after a sweep, name a freed
value or a newer one at the same address.  The table keeps each stored
set's own key beside it: a splice cuts and weaves the old set's key into
the new one, never rebuilt from the elements, and a sweep frees a set by
it.  The engine sweeps under its
lock, at the end of a run or a commit's advance, once the table has grown
by half since the last sweep (:attr:`InternTable.sweep_due`).  Tables are
scoped to an :class:`~repro.engine.engine.Engine`, so the memory is
reclaimed when the engine is dropped.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence

from ..objects.values import (
    BaseVal,
    BoolVal,
    PairVal,
    SetVal,
    UnitVal,
    Value,
    bulk_pairs,
    canonical_set,
    sort_key,
)


#: Pair codes pack two dense ids into one ``int``:
#: ``(fst << CODE_BITS) | snd``.
CODE_BITS = 32
CODE_MASK = (1 << CODE_BITS) - 1


#: Sorts above every value's key: :func:`sort_key`'s kinds run 0 to 4.
_TOP = (5,)


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

    #: A sweep is due once the table's load (values plus set elements) has
    #: grown by this much, or by half, since the last sweep kept what it
    #: kept, whichever is more: below it the table is a few MB, and a sweep
    #: walks every value.
    SWEEP_MIN = 1 << 14

    def __init__(self) -> None:
        self._table: dict[tuple, Value] = {}
        # Cached sort_key per interned value, keyed by id (sound because the
        # table holds every canonical value until a sweep frees it, and the
        # sweep drops its entry with it).
        self._keys: dict[int, tuple] = {}
        # -- dense-id assignment (the flat-column backbone) -------------------
        # Every canonical value gets a small integer id in interning order.
        # The assignment is append-only and survives ``Engine.clear_plans``
        # (which never touches the intern table), so ``dense_id -> value ->
        # dense_id`` round-trips while the value lives; a sweep leaves
        # ``None`` at a freed value's id, which is never issued again.  Flat
        # kernels ship these ids in ``array('q')`` columns instead of object
        # tuples.
        self._by_dense: list[Optional[Value]] = []
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
        #: id(set) -> the set's ``_table`` key, for every stored set: a
        #: splice cuts and weaves it instead of rebuilding it from the
        #: elements, and a sweep frees a set by it.
        self._set_keys: dict[int, tuple] = {}
        # -- sweeping ---------------------------------------------------------
        #: ids of the values a constructor found since the last sweep (the
        #: values created since are those from dense id ``_swept`` on).
        self._used: set[int] = set()
        #: Dense ids the last sweep kept, ascending, and the first id it did
        #: not see: the next sweep walks ``_swept`` on, then these.
        self._live = array("q")
        self._swept = 0
        #: Elements of the stored sets: with the value count, the table's load.
        self._slots = 0
        self._sweep_at = self.SWEEP_MIN
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
        keys, vid = self._keys, id(v)  # one int object for every id-keyed map
        if isinstance(v, SetVal):
            if not elem_keys:  # else a spliced set's, spliced with its elements
                try:
                    # All-cached is the norm; C-level map beats a python-level
                    # genexpr by ~4x on the wide sets delta maintenance stores.
                    elem_keys = tuple(map(keys.__getitem__, map(id, v.elements)))
                except KeyError:
                    elem_keys = tuple(keys.get(id(e)) or sort_key(e)
                                      for e in v.elements)
            keys[vid] = (4, len(elem_keys), elem_keys)
            self._set_keys[vid] = key
            self._slots += len(elem_keys)
        elif isinstance(v, PairVal):
            fk = keys.get(id(v.fst)) or sort_key(v.fst)
            sk = keys.get(id(v.snd)) or sort_key(v.snd)
            keys[vid] = (3, fk, sk)
        else:
            keys[vid] = sort_key(v)
        self._by_dense.append(v)
        self._dense[vid] = dense
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
            self._used.add(id(found))
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
        """Number of canonical values the table holds now."""
        return len(self._table)

    # -- dense ids / flat columns -------------------------------------------------

    def dense_id(self, v: Value) -> int:
        """The stable dense id of an *interned* value (interning order)."""
        return self._dense[id(v)]

    def value_of(self, dense: int) -> Optional[Value]:
        """The canonical value carrying dense id ``dense`` (``None`` once freed)."""
        return self._by_dense[dense]

    @property
    def dense_size(self) -> int:
        """Number of dense ids issued so far: :attr:`size` plus the ids of
        values a sweep freed, which are never issued again."""
        return len(self._by_dense)

    def pair_parts(self) -> dict[int, tuple[int, int]]:
        """Read-only view: pair dense id -> (fst dense id, snd dense id)."""
        return self._pair_parts

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
            self._used.add(id(found))
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
        distinct codes are distinct pairs, so no second dedup is needed.  The
        pairs not interned yet are stored first, more than a few of them in
        one batch (:meth:`_store_pairs`).
        """
        uniq = sorted(set(codes))
        key = array("Q", uniq).tobytes()  # codes reach 2**64 - 1
        found = self._sets_by_codes.get(key)
        if found is not None:
            self.hits += 1
            self._used.add(id(found))
            return found
        keys = self._keys
        pairs = self.pairs_of(uniq)
        pairs.sort(key=lambda v: keys[id(v)])
        s = self._set_from_canonical(tuple(pairs))
        self._sets_by_codes[key] = s
        return s

    def pairs_of(self, codes: Sequence[int]) -> list[Value]:
        """The interned pairs of packed codes, in order, each part a live value.

        A code whose pair is interned is one lookup; the pairs not interned
        yet are stored first, more than a few of them in one batch
        (:meth:`_store_pairs`).  A maintained fixpoint's output and delta
        decode their codes with it on read, so whoever kept the codes must
        hold their parts (the module docstring's contract).
        """
        by_code = self._pair_codes
        try:
            return list(map(by_code.__getitem__, codes))
        except KeyError:
            new = [c for c in dict.fromkeys(codes) if c not in by_code]
            if len(new) > 4:
                self._store_pairs(new)
            else:
                # A code not in ``_pair_codes`` names a pair not in the
                # table: stored without a probe.
                by_dense = self._by_dense
                for c in new:
                    fst, snd = by_dense[c >> CODE_BITS], by_dense[c & CODE_MASK]
                    self._store(("p", id(fst), id(snd)), PairVal(fst, snd))
                self.misses += len(new)
            return list(map(by_code.__getitem__, codes))

    def intern_rows(self, rows: Sequence[Value]) -> tuple[list, list]:
        """The canonical values of ``rows``, and beside them each row's pair
        code (``None`` for a row that is no pair): a commit's rows, interned
        once for the snapshot's advance and every view.

        A row that is a pair of interned atoms is found by packing the two
        atoms' dense ids into its code, one lookup in ``_pair_codes``; the
        pairs not interned yet are stored by :meth:`pairs_of`.  Any other
        row takes :meth:`intern`.  What is found counts as a hit and is
        marked used, as :meth:`_canon` counts and marks it: a pair row's two
        atoms, and its pair if that was there.
        """
        table, dense, by_code, used = self._table, self._dense, self._pair_codes, self._used
        values: list = []
        codes: list = []
        new: list[int] = []  # positions of the packed rows whose pair is new
        for v in rows:
            code = None
            if type(v) is PairVal and type(v.fst) is BaseVal and type(v.snd) is BaseVal:
                fst, snd = table.get(("b", v.fst.value)), table.get(("b", v.snd.value))
                if fst is not None and snd is not None:
                    code = (dense[id(fst)] << CODE_BITS) | dense[id(snd)]
                    used.add(id(fst))
                    used.add(id(snd))
                    v = by_code.get(code)
                    if v is None:
                        new.append(len(values))
                        self.hits += 2
                    else:
                        used.add(id(v))
                        self.hits += 3
            if code is None:
                v = self.intern(v)
                parts = self._pair_parts.get(dense[id(v)])
                if parts is not None:
                    code = (parts[0] << CODE_BITS) | parts[1]
            values.append(v)
            codes.append(code)
        if new:
            for i, v in zip(new, self.pairs_of([codes[i] for i in new])):
                values[i] = v
        return values, codes

    def parts_of(self, codes: Sequence[int]) -> list[Value]:
        """The values of every part the codes name: what holds their ids
        across a sweep for whoever keeps the codes without their pairs."""
        by_dense = self._by_dense
        return [*map(by_dense.__getitem__, [c >> CODE_BITS for c in codes]),
                *map(by_dense.__getitem__, [c & CODE_MASK for c in codes])]

    def check_room(self, n: int) -> None:
        """Raise :class:`DenseIdLimitError` unless ``n`` more dense ids fit
        under :attr:`id_limit`."""
        last = len(self._by_dense) + n - 1
        if last >= self.id_limit:
            raise DenseIdLimitError(
                f"intern table full: dense id {last} is past the limit of "
                f"{self.id_limit} ids that pair codes pack")

    def _store_pairs(self, codes: list[int]) -> None:
        """Store the pairs of ``codes``, none of them interned yet: what
        :meth:`_store` does for one pair, one map at a time.

        A fixpoint's build renders a closure whose pairs are mostly new, and
        per pair the generic path's lookups, type dispatch and constructor
        checks cost about as much as the maps they fill: a batch of
        thousands stores in about half the time, while below five pairs the
        batch's fixed cost loses.  Every lookup runs before the first write,
        so a code naming a freed part (``KeyError``) or a batch past
        :attr:`id_limit` leaves the table as it was.
        """
        self.check_room(len(codes))
        by_dense, keys = self._by_dense, self._keys
        start = len(by_dense)
        fids = [c >> CODE_BITS for c in codes]
        sids = [c & CODE_MASK for c in codes]
        fsts = list(map(by_dense.__getitem__, fids))
        snds = list(map(by_dense.__getitem__, sids))
        fk, sk = list(map(id, fsts)), list(map(id, snds))
        pair_keys = list(zip(repeat(3), map(keys.__getitem__, fk), map(keys.__getitem__, sk)))
        pairs = bulk_pairs(fsts, snds)
        ids = list(map(id, pairs))
        dense = range(start, start + len(codes))
        self._table.update(zip(zip(repeat("p"), fk, sk), pairs))
        keys.update(zip(ids, pair_keys))
        by_dense.extend(pairs)
        self._dense.update(zip(ids, dense))
        self._pair_parts.update(zip(dense, zip(fids, sids)))
        self._pair_codes.update(zip(codes, pairs))
        self.misses += len(codes)

    # -- sweeping -----------------------------------------------------------------

    @property
    def sweep_due(self) -> bool:
        """Whether the table's load -- its values plus the elements of its
        sets -- has grown by :attr:`SWEEP_MIN`, and by half, since the last
        sweep: sweeping then costs amortized O(1) per value and element
        interned, and the table stays within a constant factor of what it
        holds plus what the last two intervals used."""
        return len(self._table) + self._slots >= self._sweep_at

    def sweep(self) -> int:
        """Free every value that nothing outside the table holds and nothing
        has used since the previous sweep; returns how many were freed.

        A value was used if it was created since the previous sweep or a
        constructor found it since (``_canon``, :meth:`set_from_ids`,
        :meth:`set_from_pair_codes`): a second chance,
        so an answer that only the table holds survives while it recurs.
        Held means a reference count above the table's own references.
        Values are acyclic and a part is interned before its whole, so the
        walk runs from the newest dense id down, and a freed set or pair
        has released its parts before they are looked at.  A freed value
        leaves every map, the set caches entry by entry; ``None`` stays at
        its dense id.  Callers hold the engine lock; nothing may keep an id
        of a value it does not hold (see the module docstring).
        """
        by_dense, table, keys, dense = self._by_dense, self._table, self._keys, self._dense
        parts, codes = self._pair_parts, self._pair_codes
        by_ids, by_codes, set_keys = self._sets_by_ids, self._sets_by_codes, self._set_keys
        cached = {id(s): k for k, s in by_ids.items()}
        coded = {id(s): k for k, s in by_codes.items()}
        used, refcount, fresh = self._used, sys.getrefcount, self._swept
        issued = len(by_dense)
        kept: list[int] = []
        freed = 0
        for d in chain(range(issued - 1, fresh - 1, -1), reversed(self._live)):
            v = by_dense[d]
            vid = id(v)
            if d >= fresh or vid in used:
                kept.append(d)
                continue
            # The table's own references: ``_by_dense`` and ``_table``, the
            # code of a pair, the cache entries of a set; then ``v`` and the
            # call's argument.
            pq = parts.get(d)
            ck, kk = cached.get(vid), coded.get(vid)
            own = 4 + (pq is not None) + (ck is not None) + (kk is not None)
            if refcount(v) > own:
                kept.append(d)
                continue
            del table[set_keys.pop(vid) if type(v) is SetVal else _key_of(v)]
            del keys[vid], dense[vid]
            by_dense[d] = None
            if pq is not None:
                del parts[d], codes[(pq[0] << CODE_BITS) | pq[1]]
            if ck is not None:
                del by_ids[ck]
            if kk is not None:
                del by_codes[kk]
            if type(v) is SetVal:
                self._slots -= len(v.elements)
            freed += 1
        kept.reverse()
        self._live = array("q", kept)
        self._swept = issued
        self._used = set()
        load = len(table) + self._slots
        self._sweep_at = load + max(self.SWEEP_MIN, load // 2)
        return freed

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
        self, elems: tuple[Value, ...], elem_keys: Optional[tuple] = None,
        key: Optional[tuple] = None,
    ) -> Value:
        if key is None:
            key = ("s", *map(id, elems))
        return self._canon(key, lambda: _raw_set(elems), elem_keys)

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

    def fst_run(self, s: SetVal, depth: int, key_id: int) -> Optional[range]:
        """The rows of interned ``s`` whose ``fst``, taken ``depth`` (>= 1)
        times, is the value of dense id ``key_id``; ``None`` when some
        element is not a pair at every step.

        A pair's key is ``(3, key(fst), key(snd))``, so in canonical order
        the elements whose first component has key ``K`` are one run, from
        ``(3, K)`` up to ``(3, K, TOP)`` (each further step nests both
        bounds once more), and two bisections over the set's cached element
        keys find it, as :meth:`splice` places a row.  Kinds sort first, so
        the first and last elements are pairs at every step only if all are.
        A value's key is injective (equal keys, one interned object), so the
        run is exactly the rows whose path column holds ``key_id``.
        """
        keys = self._keys
        elem_keys = keys[id(s)][2]
        if not elem_keys:
            return range(0)
        first, last = elem_keys[0], elem_keys[-1]
        for _ in range(depth):
            if first[0] != 3 or last[0] != 3:
                return None
            first, last = first[1], last[1]
        k = keys[id(self._by_dense[key_id])]
        lo, hi = (3, k), (3, k, _TOP)
        for _ in range(depth - 1):
            lo, hi = (3, lo), (3, hi)
        start = bisect_left(elem_keys, lo)
        return range(start, bisect_left(elem_keys, hi, start))

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
        elems, elem_keys, key = s.elements, keys[id(s)][2], self._set_keys[id(s)]
        found = set()
        for v in deletes:
            row = bisect_left(elem_keys, keys[id(v)])
            if row < len(elems) and elems[row] is v:
                found.add((row, dense[id(v)]))
        dels = sorted(found, reverse=True)
        if dels:
            rows = [row for row, _ in reversed(dels)]
            elems, elem_keys = _cut(elems, rows), _cut(elem_keys, rows)
            key = _cut(key, [row + 1 for row in rows])  # past the key's "s"
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
            key = _weave(key, [row + 1 for row in rows], [*map(id, new)])
        return self._set_from_canonical(tuple(elems), tuple(elem_keys), tuple(key)), dels, ins


def _key_of(v: Value) -> tuple:
    """The ``_table`` key of ``v``, built from its interned parts: a sweep
    frees an atom or a pair under it, and a set under its stored key
    (``_set_keys``), which equals this.

    Only atoms, pairs and sets are ever freed: the unit and both booleans
    are held by the table's own attributes.
    """
    cls = type(v)
    if cls is PairVal:
        return ("p", id(v.fst), id(v.snd))
    if cls is SetVal:
        return ("s", *map(id, v.elements))
    return ("b", v.value)


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
