"""The shared-memory process path: id arrays across address spaces.

The process pool of :mod:`repro.engine.parallel.scheduler` isolates workers
perfectly but ships ``SetVal`` pickles -- every round of a sharded fixpoint
re-serializes objects the worker has already seen.  This module replaces the
payload, not the isolation: with the flat-column representation of
:mod:`repro.engine.vectorized.flat`, a shard is an ``array('q')`` of packed
dense-id codes, and what crosses the process boundary is

* **one-time intern-dictionary syncs**: a worker that receives a dense id it
  has not seen gets the ``(id, value)`` pair exactly once; every later
  reference to that id is eight bytes (:func:`encode_env` /
  :func:`decode_env` below, used by the generic ``"shm"`` task path);
* **raw code arrays**: the fixpoint protocol
  (:func:`shm_loop_setup` / :func:`shm_loop_round`, coordinated by
  :class:`ShmFixpoint`) broadcasts each round's frontier as one buffer --
  inline when small, a :class:`multiprocessing.shared_memory.SharedMemory`
  segment above :data:`SHM_THRESHOLD` -- and workers return derived codes
  the same way.  No ``SetVal`` is pickled after setup.

Workers never hold interner metadata for the fixpoint: eligibility is
restricted to depth-1 accessor paths, so key and output extraction is pure
``(code >> 32, code & mask)`` arithmetic (:class:`CodeLoop`), and frontier
shard assignment is recomputed worker-side from the broadcast array with
:func:`~repro.engine.parallel.partition.mix64` -- deterministic in every
address space, nothing extra on the wire.

Segment ownership is single-writer: the driver creates a segment, every
slot attaches read-only for the duration of one wave, and the driver closes
and unlinks it as soon as the wave drains -- workers only ever ``close()``
their attachment, so the resource tracker sees one register/unlink pair per
segment.
"""

from __future__ import annotations

from array import array
from multiprocessing import shared_memory
from typing import Optional

from ...nra.errors import NRAEvalError
from ...objects.values import SetVal, Value
from ..vectorized import VectorizedEvaluator
from ..vectorized.compiler import VFunction
from ..vectorized.flat import CODE_BITS, CODE_MASK
from .partition import partition_codes

#: Payloads at or below this many bytes ship inline (pickled with the task);
#: larger arrays go through one SharedMemory segment all workers read.
SHM_THRESHOLD = 1 << 16


# ---------------------------------------------------------------------------
# Blob transport
# ---------------------------------------------------------------------------

def pack_blob(data: bytes) -> tuple[tuple, Optional[shared_memory.SharedMemory]]:
    """Wrap ``data`` for shipping; returns ``(blob, segment_or_None)``.

    The caller owns a returned segment and must ``close()`` + ``unlink()``
    it once the wave that references the blob has drained.
    """
    if len(data) > SHM_THRESHOLD:
        seg = shared_memory.SharedMemory(create=True, size=len(data))
        seg.buf[: len(data)] = data
        return ("seg", seg.name, len(data)), seg
    return ("raw", data), None


def open_blob(blob: tuple) -> bytes:
    """Worker side of :func:`pack_blob`: copy the payload out, detach.

    Attaching does not register with the resource tracker on the Pythons we
    support (3.11+ registers at *create* only), so a plain ``close`` is the
    whole cleanup -- the driver, as creator, is the single owner that
    unlinks after the wave.
    """
    if blob[0] == "raw":
        return blob[1]
    seg = shared_memory.SharedMemory(name=blob[1])
    try:
        return bytes(seg.buf[: blob[2]])
    finally:
        seg.close()


def _codes_of(blob: tuple) -> array:
    codes = array("q")
    codes.frombytes(open_blob(blob))
    return codes


# ---------------------------------------------------------------------------
# Environment encoding (the generic shm task path)
# ---------------------------------------------------------------------------

def encode_env(interner, known: set, env: dict, args):
    """Encode a task environment as dense-id references plus a sync list.

    ``known`` is the driver's record of ids this worker has already been
    sent; it is updated in place, which is what makes the dictionary sync
    one-time.  Interned sets become ``("ids", bytes)`` columns; other
    interned values become ``("ref", id)``; anything the interner does not
    know (or a ``None`` interner) pickles raw, preserving process-pool
    behaviour.  Returns ``(sync, enc_env, enc_args, ids_shipped_bytes)``.
    """
    sync: list = []

    def need(did: int) -> None:
        if did not in known:
            known.add(did)
            sync.append((did, interner.value_of(did)))

    shipped = 0

    def enc(v):
        nonlocal shipped
        if interner is None or not isinstance(v, Value):
            return ("raw", v)
        if isinstance(v, SetVal) and v.elements:
            # Shards are canonical *subsequences*, not interned sets, so the
            # column is built from the (interned) elements directly -- no
            # per-shard interner state.
            try:
                ids = array("q", [interner.dense_id(e) for e in v.elements])
            except KeyError:
                return ("raw", v)
            for i in ids:
                need(i)
            data = ids.tobytes()
            shipped += len(data)
            return ("ids", data)
        try:
            did = interner.dense_id(v)
        except KeyError:
            return ("raw", v)
        need(did)
        return ("ref", did)

    enc_env = {name: enc(v) for name, v in env.items()}
    enc_args = None if args is None else tuple(enc(a) for a in args)
    return sync, enc_env, enc_args, shipped


# ---------------------------------------------------------------------------
# Worker state (one per "shm" pool slot; each slot is its own process)
# ---------------------------------------------------------------------------

_EVALUATOR: Optional[VectorizedEvaluator] = None
_VALUES: dict[int, Value] = {}      # driver dense id -> worker-interned value
_LOOPS: dict[str, "CodeLoop"] = {}  # fixpoint token -> loop state


def shm_init(sigma) -> None:
    """Process-pool initializer for a shared-memory slot."""
    global _EVALUATOR
    _EVALUATOR = VectorizedEvaluator(sigma)
    _VALUES.clear()
    _LOOPS.clear()


def _apply_sync(sync: list) -> None:
    it = _EVALUATOR.interner
    for did, v in sync:
        _VALUES[did] = it.intern(v)


def _decode(enc):
    tag = enc[0]
    if tag == "raw":
        v = enc[1]
        return _EVALUATOR.interner.intern(v) if isinstance(v, Value) else v
    if tag == "ref":
        return _VALUES[enc[1]]
    ids = array("q")
    ids.frombytes(enc[1])
    # Driver ids arrive in the driver's canonical element order; canonical
    # order is structural, so the re-interned elements are already sorted.
    return _EVALUATOR.interner.canonical_set(_VALUES[i] for i in ids)


def shm_run_task(payload):
    """Generic task: ``(sync, expr, enc_env, enc_args)`` -> value(s)."""
    sync, expr, enc_env, enc_args = payload
    ev = _EVALUATOR
    if ev is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("shm worker used before initialization")
    _apply_sync(sync)
    env = {name: _decode(e) for name, e in enc_env.items()}
    d = ev.compile(expr).fn(env)
    if enc_args is None:
        if isinstance(d, VFunction):
            raise NRAEvalError(
                "shard task produced a function denotation; expected a value"
            )
        return d
    if not isinstance(d, VFunction):
        raise NRAEvalError(f"run_many: expected a function expression, got {d!r}")
    return [d(_decode(a)) for a in enc_args]


# ---------------------------------------------------------------------------
# The interner-free fixpoint core
# ---------------------------------------------------------------------------

class _CodeTerm:
    """One flat join term over packed codes, depth-1 selectors only."""

    __slots__ = (
        "left", "right", "lk", "rk", "oa_left", "oa", "ob_left", "ob",
        "inv_rows", "index",
    )

    def __init__(self, spec: tuple, inv_rows, inv_index):
        (self.left, self.right, self.lk, self.rk,
         self.oa_left, self.oa, self.ob_left, self.ob) = spec
        self.inv_rows = inv_rows or []
        self.index: dict[int, list] = dict(inv_index) if inv_index else {}

    def _extend_index(self, codes: array) -> None:
        rk_f = self.rk == "f"
        oa = None if self.oa_left else self.oa == "f"
        ob = None if self.ob_left else self.ob == "f"
        setdefault = self.index.setdefault
        for c in codes:
            f = c >> CODE_BITS
            s = c & CODE_MASK
            ra = 0 if oa is None else (f if oa else s)
            rb = 0 if ob is None else (f if ob else s)
            setdefault(f if rk_f else s, []).append((ra, rb))


class CodeLoop:
    """A worker's half of the shared-memory flat fixpoint.

    Holds the per-term indexes and the accumulator *as codes* -- no interner,
    no ``Value`` objects.  The driver keeps the dedup state and decides
    convergence; the worker only derives: each round it appends the broadcast
    frontier to its accumulator-side indexes, rebuilds its frontier-side
    indexes, and probes its own share of the rows (frontier shards by
    ``mix64``, accumulator and invariant rows by stride).
    """

    def __init__(self, specs: list[tuple], inv_rows: list, inv_index: list,
                 acc_codes: array):
        self._terms = [
            _CodeTerm(spec, rows, index)
            for spec, rows, index in zip(specs, inv_rows, inv_index)
        ]
        self._acc = acc_codes
        for t in self._terms:
            if t.right == "acc":
                t._extend_index(acc_codes)

    def round(self, frontier: array, slot: int, k: int) -> array:
        """Derive one round's codes for shard ``slot`` of ``k``."""
        for t in self._terms:
            if t.right == "acc":
                t._extend_index(frontier)
            elif t.right == "delta":
                t.index = {}
                t._extend_index(frontier)
        self._acc.extend(frontier)
        mine = partition_codes(frontier, k)[slot] if k > 1 else frontier
        out: set[int] = set()
        add = out.add
        for t in self._terms:
            if t.left == "inv":
                rows = t.inv_rows
                get = t.index.get
                a_left, b_left = t.oa_left, t.ob_left
                for j in range(slot, len(rows), k):
                    lk, la, lb = rows[j]
                    ms = get(lk)
                    if ms:
                        for ra, rb in ms:
                            add(((la if a_left else ra) << CODE_BITS)
                                | (lb if b_left else rb))
                continue
            codes = mine if t.left == "delta" else self._acc
            stride = 1 if t.left == "delta" else k
            start = 0 if t.left == "delta" else slot
            lk_f = t.lk == "f"
            oa_f, ob_f = t.oa == "f", t.ob == "f"
            a_left, b_left = t.oa_left, t.ob_left
            get = t.index.get
            for j in range(start, len(codes), stride):
                c = codes[j]
                f = c >> CODE_BITS
                s = c & CODE_MASK
                ms = get(f if lk_f else s)
                if ms:
                    la = (f if oa_f else s) if a_left else 0
                    lb = (f if ob_f else s) if b_left else 0
                    for ra, rb in ms:
                        add(((la if a_left else ra) << CODE_BITS)
                            | (lb if b_left else rb))
        return array("q", sorted(out))


def shm_loop_setup(token: str, specs, inv_rows, inv_index, acc_blob) -> bool:
    _LOOPS[token] = CodeLoop(specs, inv_rows, inv_index, _codes_of(acc_blob))
    return True


def shm_loop_round(token: str, frontier_blob, slot: int, k: int) -> bytes:
    return _LOOPS[token].round(_codes_of(frontier_blob), slot, k).tobytes()


def shm_loop_drop(token: str) -> None:
    _LOOPS.pop(token, None)


# ---------------------------------------------------------------------------
# The driver-side coordinator
# ---------------------------------------------------------------------------

def shm_term_payloads(loop) -> Optional[tuple[list, list, list]]:
    """Serialize a :class:`~repro.engine.vectorized.flat.FlatLoop`'s terms.

    Returns ``(specs, inv_rows, inv_index)`` aligned lists, or ``None`` when
    any frontier/accumulator-side path is deeper than one step -- those rows
    need the driver's pair-part columns, so the loop stays driver-local.
    Invariant sides are exempt: their rows and indexes are precomputed here,
    whatever their depth.
    """
    specs: list[tuple] = []
    inv_rows: list = []
    inv_index: list = []
    for t in loop._terms:
        spec = t.spec
        for kind, path in (
            (spec.left, spec.lkey),
            (spec.right, spec.rkey),
            (spec.left if t.a_left else spec.right, spec.out_a[1]),
            (spec.left if t.b_left else spec.right, spec.out_b[1]),
        ):
            if kind != "inv" and len(path) != 1:
                return None
        specs.append((
            spec.left, spec.right,
            spec.lkey[0] if spec.left != "inv" else "",
            spec.rkey[0] if spec.right != "inv" else "",
            t.a_left, spec.out_a[1][0] if spec.out_a[1] else "",
            t.b_left, spec.out_b[1][0] if spec.out_b[1] else "",
        ))
        inv_rows.append(t.inv_rows if spec.left == "inv" else None)
        inv_index.append(t.index if spec.right == "inv" else None)
    return specs, inv_rows, inv_index


class ShmFixpoint:
    """Drive one flat fixpoint across the shared-memory slots.

    The driver-side :class:`FlatLoop` keeps the authoritative accumulator and
    dedup state and runs the rounds (:meth:`derive` is the derive step its
    ``run`` is handed); workers hold mirrored code state and do the probing.
    Per round exactly one frontier array goes out (one segment, every slot
    reads it) and one derived array comes back per slot.
    """

    _tokens = 0

    def __init__(self, pool, loop) -> None:
        self.pool = pool
        self.loop = loop
        ShmFixpoint._tokens += 1
        self.token = f"fix-{ShmFixpoint._tokens}"

    def setup(self) -> bool:
        """Ship term state and the base accumulator; False if ineligible."""
        payloads = shm_term_payloads(self.loop)
        if payloads is None:
            return False
        specs, inv_rows, inv_index = payloads
        # Base = accumulator minus the live frontier: the first round's
        # broadcast re-appends the frontier on every worker, mirroring the
        # driver loop's commit order.
        fr = set(self.loop.frontier_codes())
        data = array(
            "q", (c for c in self.loop.acc_codes_array() if c not in fr)
        ).tobytes()
        blob, seg = pack_blob(data)
        try:
            self.pool.broadcast(
                shm_loop_setup, self.token, specs, inv_rows, inv_index, blob
            )
        finally:
            if seg is not None:
                seg.close()
                seg.unlink()
        slots = self.pool.workers
        self.pool.shm_ships += slots
        self.pool.array_bytes_shipped += (
            len(data) if seg is not None else len(data) * slots
        )
        return True

    def derive(self) -> list[array]:
        """One round's derive step: broadcast the frontier, collect the codes
        each slot derived (unfiltered: the workers hold no dedup state)."""
        data = self.loop.frontier_codes().tobytes()
        blob, seg = pack_blob(data)
        try:
            results = self.pool.broadcast_slotted(
                shm_loop_round, self.token, blob
            )
        finally:
            if seg is not None:
                seg.close()
                seg.unlink()
        slots = self.pool.workers
        self.pool.shm_ships += 2 * slots
        self.pool.array_bytes_shipped += sum(map(len, results)) + (
            len(data) if seg is not None else len(data) * slots
        )
        return [array("q", chunk) for chunk in results]

    def close(self) -> None:
        try:
            self.pool.broadcast(shm_loop_drop, self.token)
        except Exception:  # pragma: no cover - teardown is best-effort
            pass
