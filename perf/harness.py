"""Timing, span recording and process helpers shared by every workload.

Nothing here knows a workload: ``Spans`` records the in-memory trace of the
traced phase (and is a no-op through ``NULL`` in the untraced one),
``run_clients`` drives closed-loop callers, ``host_speed`` probes how fast the
host runs right now, and ``timing_metrics`` turns op records and probes into
the block-median end-to-end numbers.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter

#: The untraced phase runs as BLOCKS consecutive equal blocks of PARTS equal
#: slices, with a ``host_speed`` probe before and after every slice.
#: Throughput and the median latency are the median over the blocks;
#: ``query_p95_ms`` is the lower quartile over TAIL_BLOCKS half-blocks.  The
#: block spread, the distance between the blocks' outer quartiles over the
#: reported value, is the recorded noise of the run.
BLOCKS = 5
PARTS = 4
SLICES = BLOCKS * PARTS
TAIL_BLOCKS = 2 * BLOCKS


# -- host speed -------------------------------------------------------------------
#
# The reference box is a shared host: for tens of seconds at a time a
# neighbour slows everything on it by 10-40%, allocation-heavy code more than
# arithmetic.  Two fixed pure-python kernels that share no code with ``src/``
# measure that beside every slice; wall times are divided by the result, so a
# metric reads in milliseconds of the *quiet* reference box and two runs of one
# commit agree whatever the neighbours did.  A change under ``src/`` cannot
# move the kernels, so it moves the metrics exactly as it moves wall time.

def _kernel_arith() -> None:
    s = 0
    for i in range(100_000):
        s += i * i


def _kernel_sets() -> None:
    d: dict = {}
    for i in range(6000):
        d.setdefault(i % 97, []).append((i, i * 7 % 6000))
    pairs = frozenset(x for v in d.values() for x in v)
    {(b, a) for a, b in pairs} & pairs


#: Each kernel with the microseconds it takes on the quiet reference box.
KERNELS = ((_kernel_arith, 4550.0), (_kernel_sets, 3300.0))


def host_speed(reps: int = 4) -> float:
    """How slow the host runs now: 1.0 on the quiet reference box, 1.3 = 30% slower.

    The mean of the two kernels' slowdowns, each the median of ``reps`` runs
    (a collector pause or a preemption inside one run does not count).
    """
    return statistics.mean(median_us(kernel, reps) / ref for kernel, ref in KERNELS)


# -- spans ------------------------------------------------------------------------

class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullCtx()


class _NullSpans:
    """The untraced phase's tracer: every call returns a shared no-op."""

    def span(self, name: str):
        return _NULL_CTX

    def op(self, op_id):
        return _NULL_CTX


NULL = _NullSpans()


class Spans:
    """In-memory span recorder: name, start, end, parent, op id.

    Spans nest per thread (one stack per caller thread); ``op`` opens the
    root span of one benchmark operation and stamps its id on every span
    below it.  ``patch`` wraps a public function of a layer -- an attribute
    of an instance or of the module that imported it -- in a span for the
    length of the traced phase; ``unpatch`` restores every original.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        row = {
            "name": name,
            "op": stack[0]["op"] if stack else None,
            "parent": stack[-1]["id"] if stack else None,
            "start": 0.0,
            "end": 0.0,
        }
        with self._lock:
            row["id"] = len(self.rows)
            self.rows.append(row)
        stack.append(row)
        row["start"] = perf_counter()
        try:
            yield row
        finally:
            row["end"] = perf_counter()
            stack.pop()

    @contextmanager
    def op(self, op_id):
        with self.span("op") as row:
            row["op"] = op_id
            yield row

    def replace(self, owner, attr: str, wrapper) -> None:
        """Set ``owner.attr`` to ``wrapper(original)`` until ``unpatch``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper(original))

    def patch(self, owner, attr: str, name: str) -> None:
        """Run every call of ``owner.attr`` inside a span called ``name``."""
        def wrapper(original):
            def wrapped(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapped

        self.replace(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- derivation ---------------------------------------------------------------

    def self_times(self) -> dict:
        """op id -> {span name: self seconds}; self = span - its children.

        The root span's own self time is reported under ``"remainder"``: the
        part of the client-observed op no wrapped layer call covers, so each
        op's values sum to its traced duration exactly.
        """
        child_time: dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None:
                child_time[row["parent"]] = (
                    child_time.get(row["parent"], 0.0) + row["end"] - row["start"]
                )
        per_op: dict = {}
        for row in self.rows:
            if row["op"] is None:
                continue
            own = row["end"] - row["start"] - child_time.get(row["id"], 0.0)
            name = "remainder" if row["name"] == "op" else row["name"]
            layers = per_op.setdefault(row["op"], {})
            layers[name] = layers.get(name, 0.0) + own
        return per_op

    def op_seconds(self) -> dict:
        return {
            row["op"]: row["end"] - row["start"]
            for row in self.rows
            if row["name"] == "op"
        }

    def write(self, path) -> None:
        with open(path, "w") as out:
            for row in self.rows:
                out.write(json.dumps(row, separators=(",", ":")) + "\n")


# -- closed-loop callers --------------------------------------------------------------

def run_clients(callers: list) -> list[list[tuple]]:
    """Run each closed-loop caller to completion; one thread per extra caller.

    A caller is a zero-argument function returning its op records
    ``(kind, start, end, ok)``.  A single caller runs on the calling thread.
    """
    if len(callers) == 1:
        return [callers[0]()]
    results: list = [None] * len(callers)
    errors: list = []
    gate = threading.Barrier(len(callers))

    def body(k: int) -> None:
        try:
            gate.wait()
            results[k] = callers[k]()
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)
            gate.abort()

    threads = [threading.Thread(target=body, args=(k,)) for k in range(len(callers))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


# -- statistics -------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timing_metrics(slices: list[list[list[tuple]]], speeds: list[float]) -> dict:
    """Read throughput and latency percentiles of an untraced phase.

    ``slices`` holds, for each of the SLICES slices, the per-caller op records
    ``(kind, start, end, ok)``; ``speeds`` the SLICES + 1 ``host_speed``
    probes around them.  An op's time is its wall time over the mean of the
    two probes beside its slice.  Throughput is correct reads per second of
    caller busy time -- writes beside reads cost it, the harness's checking
    between ops does not -- summed over callers.

    ``query_p95_ms`` is the lower quartile of the blocks' p95s, the tail of a
    quiet stretch of the run: what the host adds to the tail comes in bursts
    of a few seconds, shorter than the probes see, and lifts the p95 of the
    blocks it lands in (on ``tc_inproc`` 9 of the 10 slowest reads hold no
    collector pause or other work of the program), while a tail the program
    makes itself is in every block.
    """
    timed = [
        [[(op[0], (op[2] - op[1]) / ((speeds[k] + speeds[k + 1]) / 2), op[3]) for op in ops]
         for ops in s]
        for k, s in enumerate(slices)
    ]

    def blocks(count: int) -> list:
        size = SLICES // count
        return [timed[b * size:(b + 1) * size] for b in range(count)]

    def reads(block: list) -> list[float]:
        return [op[1] * 1e3 for s in block for ops in s for op in ops if op[0] == "read"]

    rates = []
    for block in blocks(BLOCKS):
        rate = 0.0
        for caller in range(len(block[0])):
            own = [op for s in block for op in s[caller]]
            rate += sum(1 for op in own if op[0] == "read" and op[2]) / sum(op[1] for op in own)
        rates.append(rate)
    samples = len(reads(timed))
    out = {}
    for name, unit, values in (
        ("queries_per_s", "1/s", rates),
        ("query_p50_ms", "ms", [statistics.median(reads(b)) for b in blocks(BLOCKS)]),
        ("query_p95_ms", "ms", [percentile(reads(b), 0.95) for b in blocks(TAIL_BLOCKS)]),
    ):
        low, mid, high = statistics.quantiles(values, n=4)
        value = low if name == "query_p95_ms" else mid
        out[name] = metric(value, unit, samples, (high - low) / value)
    return out


def metric(value: float, unit: str, samples: int = 1, spread: float = 0.0) -> dict:
    return {"value": value, "unit": unit, "samples": samples, "spread": spread}


def median_us(fn, reps: int) -> float:
    """Median wall time of ``fn()`` over ``reps`` calls, in microseconds."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


# -- processes --------------------------------------------------------------------

def proc_status_kb(pid, field: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def proc_cpu_seconds(pid) -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
