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
  as int-keyed index probes.  It is the one round loop of the compiling
  backends: ``run`` goes to the fixpoint (or the iterator's budget) in one
  call, because a linear-depth recursion pays whatever a round costs once
  per unit of depth.  Per-term probe plans are resolved at ``setup``, the
  frontier stays in the form the probe reads, the accumulator grows in
  place and the counters are added once per call.  Only a round's *derive
  step* is pluggable: the loop's own probe, a thread pool's chunked
  callables, or shared-memory workers returning codes.

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
from functools import partial
from time import perf_counter
from typing import Callable, Iterable, Optional

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


def sorted_codes(codes: set) -> list:
    """The codes of a set in ascending order (numpy sort when it pays)."""
    if _np is not None and len(codes) >= _NP_MIN:
        return _np.sort(_np.fromiter(codes, dtype=_np.int64, count=len(codes))).tolist()
    return sorted(codes)


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

def _codes(fs, ss):
    """Row-aligned fst/snd id columns as packed pair codes."""
    return ((f << CODE_BITS) | s for f, s in zip(fs, ss))


def _head_rest(path: tuple[str, ...]) -> tuple[bool, tuple[str, ...]]:
    """A row-side path as (its head step picks ``fst``, the part walk left)."""
    return path[:1] == ("f",), path[1:]


class _FlatTerm:
    """One flat join term inside a :class:`FlatLoop`: its probe plan and index.

    What a round needs to know about the term is resolved here, once per
    loop: which side supplies each output component, and every row-side path
    split into its head step (pick fst or snd of the row: free) and the
    remaining part walk (rare).  An invariant side may carry an empty path;
    its rows are element ids, resolved by full-path walks at setup.
    """

    __slots__ = (
        "spec", "index", "inv_rows", "a_left", "b_left", "lk", "rk", "oa", "ob",
    )

    def __init__(self, spec: FlatTermSpec):
        self.spec = spec
        self.index: dict[int, list] = {}
        self.inv_rows: list = []  # (lkey, la, lb) triples for an invariant left
        self.a_left = spec.out_a[0] == "l"
        self.b_left = spec.out_b[0] == "l"
        self.lk, self.rk = _head_rest(spec.lkey), _head_rest(spec.rkey)
        self.oa, self.ob = _head_rest(spec.out_a[1]), _head_rest(spec.out_b[1])


class FlatLoop:
    """Semi-naive frontier iteration over packed pair codes.

    Construction + :meth:`setup` encode the round-one accumulator and
    frontier as id columns and resolve the per-term probe plans and indexes;
    :meth:`run` then drives every remaining round in one call.  What varies
    between callers is only a round's *derive step* -- who probes the frozen
    indexes with the frontier: the loop itself, or a thread pool handed
    :meth:`chunk_probes` (``chunks`` independent callables, strided over the
    streamed rows).
    Deduplication, the accumulator, the acc-side indexes, convergence and
    the counters stay here whoever derives.
    """

    def __init__(self, ctx, specs: list, chunks: int = 1):
        self.ctx = ctx  # the BatchContext: interner, stats, index cache
        self.it = it = ctx.interner
        self.stats = ctx.stats
        self.chunks = max(1, chunks)
        #: Rounds begun so far (a round that raised while deriving counts).
        self.rounds = 0
        self._parts = it.pair_parts()
        self._by_dense = it._by_dense
        self._specs = specs
        self._terms: list[_FlatTerm] = []
        self._acc_f = array("q")
        self._acc_s = array("q")
        self._acc_codes: set[int] = set()
        # The frontier as the probe reads it: fst and snd ids, row-aligned.
        self._delta_f: list[int] = []
        self._delta_s: list[int] = []

    # -- setup --------------------------------------------------------------------

    def _encode_rows(self, s: SetVal) -> tuple[list, list]:
        rows = list(map(self._parts.get, self.it.set_ids(s)))
        if None in rows:
            raise FlatUnavailable("non-pair accumulator element")
        return [f for f, _ in rows], [s for _, s in rows]

    def setup(self, acc: SetVal, delta: SetVal, inv_vals: list) -> None:
        """Encode state and build indexes.  ``inv_vals`` pairs up with the
        specs: ``(left_set_or_None, right_set_or_None)`` per term, evaluated
        by the caller in term order (matching the object path's evaluation
        order).  Raises :class:`FlatUnavailable` before any state is shared.
        """
        if self.it.dense_size >= ID_LIMIT:
            raise FlatUnavailable("dense-id space exceeds the 32-bit pack limit")
        fs, ss = self._encode_rows(acc)
        self._acc_f, self._acc_s = array("q", fs), array("q", ss)
        self._acc_codes = set(_codes(fs, ss))
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
                self._index_rows(t, fs, ss)
                stats.index_builds += 1
            self._terms.append(t)

    def _inv_left_rows(self, t: _FlatTerm, s: SetVal) -> list:
        spec = t.spec
        tag = ("inv", spec.lkey,
               spec.out_a[1] if t.a_left else None, spec.out_b[1] if t.b_left else None)
        return [(lk, la, lb) for lk, (la, lb) in _inv_rows(self.it, self.it.set_ids(s), tag)]

    def _index_rows(self, t: _FlatTerm, fs, ss) -> None:
        """Index (or extend the index of) pair rows by the right key path."""
        parts, by_dense = self._parts, self._by_dense
        (rk_f, rk_rest), (oa_f, oa_rest), (ob_f, ob_rest) = t.rk, t.oa, t.ob
        a_left, b_left = t.a_left, t.b_left
        setdefault = t.index.setdefault
        for f, s in zip(fs, ss):
            rk = f if rk_f else s
            if rk_rest:
                rk = _follow_or_raise(parts, by_dense, rk, rk_rest)
            ra = rb = 0
            if not a_left:
                ra = f if oa_f else s
                if oa_rest:
                    ra = _follow_or_raise(parts, by_dense, ra, oa_rest)
            if not b_left:
                rb = f if ob_f else s
                if ob_rest:
                    rb = _follow_or_raise(parts, by_dense, rb, ob_rest)
            setdefault(rk, []).append((ra, rb))

    # -- rounds -------------------------------------------------------------------

    def run(
        self,
        budget: int,
        derive: Optional[Callable[[], Iterable]] = None,
        on_round: Optional[Callable] = None,
    ) -> int:
        """Run rounds until the frontier empties or ``budget`` are done.

        A round refreshes the frontier-side indexes, derives, keeps what the
        accumulator lacks (one sort: the new frontier, in code order),
        extends the accumulator columns and acc-side indexes in place.
        ``derive()`` replaces the loop's own whole-frontier probe and returns
        collections of codes, filtered or not; indexes and accumulator are
        frozen while it runs.  ``on_round(seconds=, round=, frontier=)`` is
        called after each round with the frontier size it started from.
        Returns the rounds completed by this call; the counters are added
        once, on the way out, also when a round raises (its joins count, the
        round itself does not -- a raise while refreshing counts nothing).
        """
        terms, seen = self._terms, self._acc_codes
        acc_f, acc_s = self._acc_f, self._acc_s
        rebuilt = [t for t in terms if t.spec.right == "delta"]
        grown = [t for t in terms if t.spec.right == "acc"]
        kept = len(terms) - len(rebuilt)  # prebuilt indexes reused per round
        done = joined = hits = 0
        try:
            while done < budget and self._delta_f:
                if on_round is not None:
                    size, t0 = len(self._delta_f), perf_counter()
                self.rounds += 1
                for t in rebuilt:
                    t.index = {}
                    self._index_rows(t, self._delta_f, self._delta_s)
                if self.rounds > 1:
                    hits += kept
                joined += 1
                if derive is None:
                    fresh = self._probe(0, 1)
                else:
                    fresh = set().union(*derive())
                    fresh -= seen
                new = sorted_codes(fresh)
                nf = [c >> CODE_BITS for c in new]
                ns = [c & CODE_MASK for c in new]
                seen.update(new)
                acc_f.extend(nf)
                acc_s.extend(ns)
                for t in grown:
                    self._index_rows(t, nf, ns)
                self._delta_f, self._delta_s = nf, ns
                done += 1
                if on_round is not None:
                    on_round(seconds=perf_counter() - t0, round=self.rounds, frontier=size)
        finally:
            stats = self.stats
            stats.flat_rounds += done
            stats.flat_dedups += done
            stats.hash_joins += joined * len(terms)
            stats.flat_joins += joined * len(terms)
            stats.index_builds += joined * len(rebuilt)
            stats.index_hits += hits
        return done

    def chunk_probes(self) -> list[Callable[[], set]]:
        """The current round's probe work as up to ``chunks`` callables."""
        k = min(self.chunks, max(1, len(self._delta_f)))
        return [partial(self._probe, i, k) for i in range(k)]

    def _probe(self, i: int, k: int) -> set:
        """Chunk ``i`` of ``k`` of a round: every term, strided over its rows.

        Returns the derived codes the accumulator lacks.  Reads only state
        that is frozen while a round derives, so chunks may run concurrently.
        """
        parts, by_dense = self._parts, self._by_dense
        seen = self._acc_codes
        out: set[int] = set()
        add = out.add
        for t in self._terms:
            get = t.index.get
            a_left, b_left = t.a_left, t.b_left
            left = t.spec.left
            if left == "inv":
                for lk, la, lb in t.inv_rows[i::k]:
                    ms = get(lk)
                    if ms:
                        for ra, rb in ms:
                            c = ((la if a_left else ra) << CODE_BITS) | (lb if b_left else rb)
                            if c not in seen:
                                add(c)
                continue
            if left == "delta":
                fs, ss = self._delta_f, self._delta_s
            else:
                fs, ss = self._acc_f, self._acc_s
            (lk_f, lk_rest), (oa_f, oa_rest), (ob_f, ob_rest) = t.lk, t.oa, t.ob
            for f, s in zip(fs[i::k], ss[i::k]):
                lk = f if lk_f else s
                if lk_rest:
                    lk = _follow_or_raise(parts, by_dense, lk, lk_rest)
                ms = get(lk)
                if ms:
                    la = lb = 0
                    if a_left:
                        la = f if oa_f else s
                        if oa_rest:
                            la = _follow_or_raise(parts, by_dense, la, oa_rest)
                    if b_left:
                        lb = f if ob_f else s
                        if ob_rest:
                            lb = _follow_or_raise(parts, by_dense, lb, ob_rest)
                    for ra, rb in ms:
                        c = ((la if a_left else ra) << CODE_BITS) | (lb if b_left else rb)
                        if c not in seen:
                            add(c)
        return out

    def materialize(self) -> SetVal:
        """The accumulator as a canonical interned set (the plan boundary)."""
        self.stats.flat_dedups += 1
        return self.it.set_from_pair_codes(_codes(self._acc_f, self._acc_s))
