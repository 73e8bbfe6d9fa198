"""Flat-column representation: dense-id arrays behind the batch kernels.

The object kernels of :mod:`repro.engine.vectorized.batch` are set-at-a-time
in *shape* but still element-at-a-time in *representation*: every probe is a
dict lookup keyed on ``id(value)`` and every output row materializes an
interned ``PairVal``.  This module supplies the flat alternative: a column is
an ``array('q')`` of **dense ids** (the interning-order integers
:meth:`~repro.engine.interning.InternTable.dense_id` assigns), a pair row is
the packed code ``(fst_id << 32) | snd_id``, and the kernels run integer
compares, integer hashing and integer set algebra, materializing canonical
``SetVal``/``PairVal`` objects only at plan boundaries
(:meth:`~repro.engine.interning.InternTable.set_from_ids` /
``set_from_pair_codes``).

Three layers live here:

* the numpy gate (``_np``): numpy accelerates the column compares and
  sort-unique passes when importable; everything degrades to pure-Python
  ``array``/``set`` code when it is not (or when ``REPRO_NO_NUMPY`` is set,
  which CI uses to force the fallback on a numpy-equipped leg);
* **accessor paths**: the syntactic analysis mapping projection chains
  (``pi2(pi1(x))``) to column walks, shared by the select/map/join kernels in
  ``batch.py`` and by the flat fixpoint;
* :class:`FlatLoop`: the semi-naive frontier loop over packed pair codes --
  the round structure of :func:`repro.recursion.iterators.seminaive_iterate`
  with frontier difference as integer-set difference and per-term hash joins
  as int-keyed index probes.  Its rounds can be chunked into independent
  callables, which is what the parallel backend's thread pool and
  shared-memory workers consume.

Exactness contract: every helper either returns exactly what the object
kernel would, or raises :class:`FlatUnavailable` *before any observable
effect* so the caller can re-run the object kernel (which then raises the
canonical ``NRAEvalError`` if the input was genuinely ill-shaped).  A
``FlatUnavailable`` must never escape to user code.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from ...nra import ast
from ...nra.ast import Expr, free_variables
from ...nra.errors import NRAEvalError
from ...objects.values import SetVal

if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:  # pragma: no cover - exercised by the numpy-free CI leg
    try:
        import numpy as _np  # type: ignore[no-redef]
    except Exception:
        _np = None

#: Pair codes pack ``(fst_dense_id << CODE_BITS) | snd_dense_id``.
CODE_BITS = 32
CODE_MASK = (1 << CODE_BITS) - 1
ID_LIMIT = 1 << CODE_BITS

#: Below this column length the numpy round-trip costs more than it saves.
_NP_MIN = 64


def have_numpy() -> bool:
    """True when the numpy fast paths are active."""
    return _np is not None


class FlatUnavailable(Exception):
    """Internal signal: this input cannot take the flat path.

    Raised by flat helpers before any observable effect; callers fall back to
    the object kernel (and count ``flat_fallbacks``).  Never user-visible.
    """


# ---------------------------------------------------------------------------
# Accessor paths
# ---------------------------------------------------------------------------

def accessor_path(e: Expr, var: str) -> Optional[tuple[str, ...]]:
    """``e`` as a projection chain over ``Var(var)``, as column steps.

    ``pi2(pi1(x))`` becomes ``('f', 's')`` -- steps apply left to right from
    the element (``'f'`` = first, ``'s'`` = second).  Returns ``None`` when
    ``e`` is not a pure projection chain over ``var``.
    """
    steps: list[str] = []
    while isinstance(e, (ast.Proj1, ast.Proj2)):
        steps.append("f" if isinstance(e, ast.Proj1) else "s")
        e = e.pair
    if isinstance(e, ast.Var) and e.name == var:
        return tuple(reversed(steps))
    return None


def follow_id(parts: dict, dense: int, path: tuple[str, ...]) -> Optional[int]:
    """Walk ``path`` from dense id ``dense`` through the pair-part columns.

    Returns ``None`` when a step hits a non-pair (caller decides whether that
    is a fallback or an error).
    """
    for step in path:
        pq = parts.get(dense)
        if pq is None:
            return None
        dense = pq[0] if step == "f" else pq[1]
    return dense


def _follow_or_raise(parts: dict, by_dense: list, dense: int, path: tuple[str, ...]) -> int:
    """Like :func:`follow_id` but raises the object kernels' projection error."""
    for step in path:
        pq = parts.get(dense)
        if pq is None:
            op = "pi1" if step == "f" else "pi2"
            raise NRAEvalError(f"{op}: expected a pair, got {by_dense[dense]!r}")
        dense = pq[0] if step == "f" else pq[1]
    return dense


def set_column(it, s: SetVal, path: tuple[str, ...]) -> array:
    """The dense-id column of ``path`` over every element of interned ``s``.

    Raises :class:`FlatUnavailable` when any element lacks the pair shape the
    path requires (the object kernel then reproduces the canonical error, or
    succeeds if the expression never actually projects that element).
    """
    ids = it.set_ids(s)
    if not path:
        return ids
    parts = it.pair_parts()
    out = array("q", bytes(8 * len(ids)))
    for row, dense in enumerate(ids):
        j = follow_id(parts, dense, path)
        if j is None:
            raise FlatUnavailable(f"non-pair under path {path}")
        out[row] = j
    return out


def equal_mask(la: array, rb) -> list:
    """Boolean mask ``la[i] == rb[i]`` (or ``== rb`` for a scalar)."""
    if _np is not None and len(la) >= _NP_MIN:
        a = _np.frombuffer(la, dtype=_np.int64)
        b = _np.frombuffer(rb, dtype=_np.int64) if isinstance(rb, array) else rb
        return (a == b).tolist()
    if isinstance(rb, array):
        return [x == y for x, y in zip(la, rb)]
    return [x == rb for x in la]


def unique_codes(codes) -> list:
    """Sorted distinct codes (numpy sort-unique when it pays)."""
    if _np is not None and len(codes) >= _NP_MIN:
        return _np.unique(_np.fromiter(codes, dtype=_np.int64, count=len(codes))).tolist()
    return sorted(set(codes))


# ---------------------------------------------------------------------------
# Flat fixpoint: analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatTermSpec:
    """One frontier term lowered to a flat join (or the literal copy term).

    ``left``/``right`` classify the sources: ``'delta'`` (the frontier),
    ``'acc'`` (the accumulator), or ``'inv'`` (loop-invariant, carrying the
    source expression).  Keys and output components are accessor paths;
    output components carry their side (``'l'``/``'r'``).  Paths over the
    ``delta``/``acc`` sides are required non-empty: those rows exist only as
    ``(fst, snd)`` id pairs, never as interned elements.
    """

    left: str
    right: str
    left_src: Optional[Expr]
    right_src: Optional[Expr]
    lkey: tuple[str, ...]
    rkey: tuple[str, ...]
    out_a: tuple[str, tuple[str, ...]]  # (side, path)
    out_b: tuple[str, tuple[str, ...]]


def _classify_source(src: Expr, var: str, dv: str) -> tuple[Optional[str], Optional[Expr]]:
    if isinstance(src, ast.Var):
        if src.name == dv:
            return "delta", None
        if src.name == var:
            return "acc", None
    fv = free_variables(src)
    if var in fv or dv in fv:
        return None, None
    return "inv", src


def analyze_flat_terms(
    terms: list[Expr],
    var: str,
    dv: str,
    match_join: Callable,
) -> Optional[list]:
    """Lower semi-naive frontier terms to flat join specs, or ``None``.

    Accepts exactly: the copy term ``Var(dv)`` (represented as the string
    ``"copy"`` -- skippable, since the frontier is already in the
    accumulator), and equi-join terms whose keys are accessor paths, whose
    output is a syntactic ``Pair`` of per-side accessor paths, and whose
    sources are the frontier, the accumulator, or loop-invariant.  Anything
    else returns ``None`` and the loop runs the object semi-naive path.
    ``match_join`` is passed in from the compiler to avoid a module cycle.
    """
    specs: list = []
    for t in terms:
        if isinstance(t, ast.Var) and t.name == dv:
            specs.append("copy")
            continue
        if not (
            isinstance(t, ast.Apply)
            and isinstance(t.func, ast.Ext)
            and isinstance(t.func.func, ast.Lambda)
        ):
            return None
        f = t.func.func
        m = match_join(f.var, f.body)
        if m is None:
            return None
        rvar, lkey, rkey, out, rsrc = m
        lkind, lsrc = _classify_source(t.arg, var, dv)
        rkind, rsrc_expr = _classify_source(rsrc, var, dv)
        if lkind is None or rkind is None:
            return None
        lp = accessor_path(lkey, f.var)
        rp = accessor_path(rkey, rvar)
        if lp is None or rp is None:
            return None
        if not isinstance(out, ast.Pair):
            return None

        def comp(e: Expr) -> Optional[tuple[str, tuple[str, ...]]]:
            p = accessor_path(e, f.var)
            if p is not None:
                return ("l", p)
            p = accessor_path(e, rvar)
            if p is not None:
                return ("r", p)
            return None

        oa, ob = comp(out.fst), comp(out.snd)
        if oa is None or ob is None:
            return None
        # Rows of the delta/acc sides are (fst, snd) id pairs without an id
        # of their own: every path rooted there must project at least once.
        for kind, path in (
            (lkind, lp),
            (rkind, rp),
            (lkind if oa[0] == "l" else rkind, oa[1]),
            (lkind if ob[0] == "l" else rkind, ob[1]),
        ):
            if kind != "inv" and not path:
                return None
        specs.append(
            FlatTermSpec(lkind, rkind, lsrc, rsrc_expr, lp, rp, oa, ob)
        )
    if not any(isinstance(s, FlatTermSpec) for s in specs):
        return None  # nothing but copies: the flat loop would do no work
    return specs


# ---------------------------------------------------------------------------
# Flat fixpoint: the invariant-source index
# ---------------------------------------------------------------------------

def _inv_rows(it, ids, tag):
    """``(key id, (out_a id, out_b id))`` per element dense id of ``ids``."""
    parts, by_dense = it.pair_parts(), it._by_dense
    _, rkey, apath, bpath = tag
    for dense in ids:
        yield (
            _follow_or_raise(parts, by_dense, dense, rkey),
            (
                0 if apath is None else _follow_or_raise(parts, by_dense, dense, apath),
                0 if bpath is None else _follow_or_raise(parts, by_dense, dense, bpath),
            ),
        )


def build_inv_index(it, s: SetVal, tag: tuple) -> dict[int, list]:
    """Index a loop-invariant right source: ``key id -> [(out_a id, out_b id)]``.

    ``tag`` is ``("inv", key path, out_a path, out_b path)``, a ``None`` path
    where the left row supplies the component (stored as 0).  No row is
    named, so the index can follow a commit by its delta alone.
    """
    index: dict[int, list] = {}
    setdefault = index.setdefault
    for rk, out in _inv_rows(it, it.set_ids(s), tag):
        setdefault(rk, []).append(out)
    return index


def patch_inv_index(index: dict, it, tag: tuple, dels: list, ins: list) -> dict[int, list]:
    """A copy of ``index`` moved by a row patch of ``InternTable.advance``.

    One C-level dict copy; only buckets the delta touches are copied and
    edited.  Equals the build over the advanced set up to the order inside a
    bucket, which no reader sees (a bucket's rows land in one output set).
    """
    gone = list(_inv_rows(it, [d for _, d in dels], tag))
    come = list(_inv_rows(it, [d for _, d in ins], tag))
    out = dict(index)
    for rk in {rk for rk, _ in gone + come}:
        out[rk] = list(out.get(rk, ()))
    for rk, row in gone:
        out[rk].remove(row)
    for rk, row in come:
        out[rk].append(row)
    for rk, _ in gone:
        if not out.get(rk, True):
            del out[rk]
    return out


# ---------------------------------------------------------------------------
# Flat fixpoint: runtime
# ---------------------------------------------------------------------------

class _FlatTerm:
    """Runtime state of one flat join term inside a :class:`FlatLoop`."""

    __slots__ = (
        "spec", "index", "inv_rows", "a_left", "b_left",
        "lk_head", "lk_rest", "oa_head", "oa_rest", "ob_head", "ob_rest",
    )

    def __init__(self, spec: FlatTermSpec):
        self.spec = spec
        self.index: dict[int, list] = {}
        self.inv_rows: list = []  # (lkey, la, lb) triples for an invariant left
        self.a_left = spec.out_a[0] == "l"
        self.b_left = spec.out_b[0] == "l"
        # Split row-side paths into the head step (pick fst or snd of the
        # row) and the remaining part walk; the head is free, the rest rare.
        # An invariant side may carry an empty path (its rows are element
        # ids, resolved by full-path walks instead).
        self.lk_head = spec.lkey[0] if spec.lkey else ""
        self.lk_rest = spec.lkey[1:] if spec.lkey else ()
        self.oa_head = spec.out_a[1][0] if spec.out_a[1] else ""
        self.oa_rest = spec.out_a[1][1:] if spec.out_a[1] else ()
        self.ob_head = spec.out_b[1][0] if spec.out_b[1] else ""
        self.ob_rest = spec.out_b[1][1:] if spec.out_b[1] else ()


class FlatLoop:
    """Semi-naive frontier iteration over packed pair codes.

    Construction + :meth:`setup` encode the round-one accumulator and
    frontier as id arrays and build the per-term index structures; each
    :meth:`run_round` derives one frontier.  ``chunks > 1`` splits a round's
    probe work into that many independent callables (strided over the
    streamed rows) which ``runner`` may execute concurrently -- the indexes
    are frozen during a round, so concurrent readers are safe.
    """

    def __init__(self, ctx, specs: list, chunks: int = 1):
        self.ctx = ctx  # the BatchContext: interner, stats, index cache
        self.it = it = ctx.interner
        self.stats = ctx.stats
        self.chunks = max(1, chunks)
        self._parts = it.pair_parts()
        self._by_dense = it._by_dense
        self._specs = specs
        self._terms: list[_FlatTerm] = []
        self._acc_f = array("q")
        self._acc_s = array("q")
        self._acc_codes: set[int] = set()
        self._delta_f = array("q")
        self._delta_s = array("q")
        self._rounds = 0

    # -- setup --------------------------------------------------------------------

    def _encode_rows(self, s: SetVal) -> tuple[array, array]:
        parts = self._parts
        ids = self.it.set_ids(s)
        fs = array("q", bytes(8 * len(ids)))
        ss = array("q", bytes(8 * len(ids)))
        for row, dense in enumerate(ids):
            pq = parts.get(dense)
            if pq is None:
                raise FlatUnavailable("non-pair accumulator element")
            fs[row], ss[row] = pq
        return fs, ss

    def setup(self, acc: SetVal, delta: SetVal, inv_vals: list) -> None:
        """Encode state and build indexes.  ``inv_vals`` pairs up with the
        specs: ``(left_set_or_None, right_set_or_None)`` per term, evaluated
        by the caller in term order (matching the object path's evaluation
        order).  Raises :class:`FlatUnavailable` before any state is shared.
        """
        if self.it.dense_size >= ID_LIMIT:
            raise FlatUnavailable("dense-id space exceeds the 32-bit pack limit")
        self._acc_f, self._acc_s = self._encode_rows(acc)
        self._acc_codes = {
            (f << CODE_BITS) | s for f, s in zip(self._acc_f, self._acc_s)
        }
        self._delta_f, self._delta_s = self._encode_rows(delta)
        stats = self.stats
        for spec, (lval, rval) in zip(self._specs, inv_vals):
            if spec == "copy":
                continue
            if spec.left == "inv" and not lval.elements:
                continue  # the object join short-circuits an empty left side
            t = _FlatTerm(spec)
            if spec.left == "inv":
                t.inv_rows = self._inv_left_rows(t, lval)
            if spec.right == "inv":
                # Shared with later runs over ``rval``: never mutated
                # (``_index_rows`` extends only acc/delta terms' indexes).
                t.index = self.ctx.inv_index(rval, (
                    "inv", spec.rkey,
                    None if t.a_left else spec.out_a[1],
                    None if t.b_left else spec.out_b[1],
                ))
            elif spec.right == "acc":
                self._index_rows(t, self._acc_f, self._acc_s)
                stats.index_builds += 1
            self._terms.append(t)

    def _inv_left_rows(self, t: _FlatTerm, s: SetVal) -> list:
        spec = t.spec
        tag = ("inv", spec.lkey,
               spec.out_a[1] if t.a_left else None, spec.out_b[1] if t.b_left else None)
        return [(lk, la, lb) for lk, (la, lb) in _inv_rows(self.it, self.it.set_ids(s), tag)]

    def _index_rows(self, t: _FlatTerm, fs: array, ss: array) -> None:
        """Index (or extend the index of) pair rows by the right key path."""
        parts, by_dense = self._parts, self._by_dense
        spec = t.spec
        rk_head, rk_rest = spec.rkey[0], spec.rkey[1:]
        index = t.index
        setdefault = index.setdefault
        for f, s in zip(fs, ss):
            rk = f if rk_head == "f" else s
            if rk_rest:
                rk = _follow_or_raise(parts, by_dense, rk, rk_rest)
            if t.a_left:
                ra = 0
            else:
                ra = f if t.oa_head == "f" else s
                if t.oa_rest:
                    ra = _follow_or_raise(parts, by_dense, ra, t.oa_rest)
            if t.b_left:
                rb = 0
            else:
                rb = f if t.ob_head == "f" else s
                if t.ob_rest:
                    rb = _follow_or_raise(parts, by_dense, rb, t.ob_rest)
            setdefault(rk, []).append((ra, rb))

    # -- rounds -------------------------------------------------------------------

    @property
    def frontier(self) -> bool:
        """True while the last round derived something new."""
        return len(self._delta_f) > 0

    @property
    def frontier_size(self) -> int:
        """Pairs in the current frontier (trace cardinality; O(1))."""
        return len(self._delta_f)

    def frontier_codes(self) -> array:
        """The current frontier as packed codes (what shm workers receive)."""
        out = array("q", bytes(8 * len(self._delta_f)))
        for row, (f, s) in enumerate(zip(self._delta_f, self._delta_s)):
            out[row] = (f << CODE_BITS) | s
        return out

    def acc_codes_array(self) -> array:
        """The accumulator as packed codes (the shm setup payload)."""
        out = array("q", bytes(8 * len(self._acc_f)))
        for row, (f, s) in enumerate(zip(self._acc_f, self._acc_s)):
            out[row] = (f << CODE_BITS) | s
        return out

    def round_tasks(self) -> list[Callable[[], set]]:
        """Prepare one round: rebuild frontier indexes, return probe tasks."""
        stats = self.stats
        njoins = 0
        for t in self._terms:
            if t.spec.right == "delta":
                t.index = {}
                self._index_rows(t, self._delta_f, self._delta_s)
                stats.index_builds += 1
            elif self._rounds >= 1:
                # A prebuilt (invariant or incrementally-extended) index is
                # being reused across rounds: the flat analogue of the object
                # kernels' index-cache hit.
                stats.index_hits += 1
            njoins += 1
        stats.hash_joins += njoins
        stats.flat_joins += njoins
        k = min(self.chunks, max(1, len(self._delta_f)))
        return [
            (lambda i=i, k=k: self._derive(i, k)) for i in range(k)
        ]

    def _derive(self, i: int, k: int) -> set:
        """Probe chunk ``i`` of ``k``: every term, strided over its rows."""
        parts, by_dense = self._parts, self._by_dense
        out: set[int] = set()
        add = out.add
        for t in self._terms:
            spec = t.spec
            get = t.index.get
            a_left, b_left = t.a_left, t.b_left
            if spec.left == "inv":
                rows = t.inv_rows
                for j in range(i, len(rows), k):
                    lk, la, lb = rows[j]
                    ms = get(lk)
                    if ms:
                        for ra, rb in ms:
                            add(
                                ((la if a_left else ra) << CODE_BITS)
                                | (lb if b_left else rb)
                            )
                continue
            if spec.left == "delta":
                fs, ss = self._delta_f, self._delta_s
            else:
                fs, ss = self._acc_f, self._acc_s
            lk_head, lk_rest = t.lk_head, t.lk_rest
            oa_head, oa_rest = t.oa_head, t.oa_rest
            ob_head, ob_rest = t.ob_head, t.ob_rest
            for j in range(i, len(fs), k):
                f = fs[j]
                s = ss[j]
                lk = f if lk_head == "f" else s
                if lk_rest:
                    lk = _follow_or_raise(parts, by_dense, lk, lk_rest)
                ms = get(lk)
                if ms:
                    if a_left:
                        la = f if oa_head == "f" else s
                        if oa_rest:
                            la = _follow_or_raise(parts, by_dense, la, oa_rest)
                    else:
                        la = 0
                    if b_left:
                        lb = f if ob_head == "f" else s
                        if ob_rest:
                            lb = _follow_or_raise(parts, by_dense, lb, ob_rest)
                    else:
                        lb = 0
                    for ra, rb in ms:
                        add(
                            ((la if a_left else ra) << CODE_BITS)
                            | (lb if b_left else rb)
                        )
        return out

    def commit(self, derived_sets) -> None:
        """Merge chunk results, compute the new frontier, extend state."""
        acc_codes = self._acc_codes
        fresh: set[int] = set()
        for part in derived_sets:
            fresh |= part
        fresh -= acc_codes
        new = unique_codes(fresh)
        mask = CODE_MASK
        nf = array("q", bytes(8 * len(new)))
        ns = array("q", bytes(8 * len(new)))
        for row, c in enumerate(new):
            nf[row] = c >> CODE_BITS
            ns[row] = c & mask
        acc_codes.update(new)
        self._acc_f.extend(nf)
        self._acc_s.extend(ns)
        for t in self._terms:
            if t.spec.right == "acc" and len(nf):
                self._index_rows(t, nf, ns)
        self._delta_f, self._delta_s = nf, ns
        self._rounds += 1
        self.stats.flat_rounds += 1
        self.stats.flat_dedups += 1

    def run_round(self, runner: Optional[Callable] = None) -> None:
        """One semi-naive round; ``runner(tasks)`` may run chunks concurrently."""
        tasks = self.round_tasks()
        if runner is None or len(tasks) <= 1:
            results = [t() for t in tasks]
        else:
            results = runner(tasks)
        self.commit(results)

    def materialize(self) -> SetVal:
        """The accumulator as a canonical interned set (the plan boundary)."""
        self.stats.flat_dedups += 1
        return self.it.set_from_pair_codes(
            (f << CODE_BITS) | s for f, s in zip(self._acc_f, self._acc_s)
        )
