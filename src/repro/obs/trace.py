"""Hierarchical query tracing.

A :class:`Tracer` produces trees of :class:`Span`\\ s -- query, rewrite,
compile, plan-node execution, fixpoint rounds, shard waves, IVM delta
applies -- with monotonic (``perf_counter``) timings and free-form
attributes (cardinalities, backend, route reason).  The current span is
carried in a ``contextvars.ContextVar`` so concurrent sessions on
different threads, asyncio service handlers, and executor offloads each
see their own ancestry: a span opened on one logical flow of control
never adopts children from another.

Tracing is **off by default** and the disabled path is a single
attribute check returning a shared no-op context manager -- hot loops
additionally capture ``TRACER.enabled`` once per invocation so the
steady-state engine pays (almost) nothing.  Worker threads inside the
parallel pool do not open spans at all; shard waves are timed on the
driver thread, which blocks on the wave, so worker activity is folded
into the driver-side ``shard-wave`` span rather than misparented.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, Optional

__all__ = ["Span", "Tracer", "TRACER"]


class Span:
    """One timed node in a trace tree."""

    __slots__ = ("name", "attrs", "seconds", "children", "_t0")

    def __init__(self, name: str, attrs: Optional[dict] = None):
        self.name = name
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.seconds: float = 0.0
        self.children: list[Span] = []
        self._t0: float = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on an open or closed span."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """Pre-order walk of this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (pre-order, incl. self) with the given name."""
        for sp in self.walk():
            if sp.name == name:
                return sp
        return None

    def hottest(self, k: int = 3) -> list["Span"]:
        """The ``k`` longest strict descendants, hottest first."""
        below = [sp for sp in self.walk() if sp is not self]
        below.sort(key=lambda sp: sp.seconds, reverse=True)
        return below[:k]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [c.as_dict() for c in self.children],
        }

    def render(self, depth: int = 0) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        line = "  " * depth + f"{self.name}  {self.seconds * 1e3:.3f}ms"
        if attrs:
            line += f"  [{attrs}]"
        return "\n".join(
            [line] + [c.render(depth + 1) for c in self.children]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f}ms, {len(self.children)} children)"


class _NullSpan:
    """Shared do-nothing context manager: the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL = _NullSpan()


class _SpanCtx:
    """Context manager that opens a span and parents it on exit."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._span = Span(name, attrs)
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        sp = self._span
        self._token = self._tracer._current.set(sp)
        sp._t0 = perf_counter()
        return sp

    def __exit__(self, *exc: object) -> bool:
        sp = self._span
        sp.seconds = perf_counter() - sp._t0
        tracer = self._tracer
        if self._token is not None:
            tracer._current.reset(self._token)
        parent = tracer._current.get()
        if parent is not None:
            # Appended by the thread that owns the parent's flow of
            # control (the driver blocks on offloaded work), so no lock.
            parent.children.append(sp)
        else:
            tracer._record_root(sp)
        return False


class Tracer:
    """Process-wide span factory; ``enabled`` gates every hot-path check."""

    def __init__(self, keep: int = 64):
        self.enabled = False
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("repro_obs_span", default=None)
        )
        #: Set inside :meth:`detached`: spans opened there are dropped.
        self._detached: contextvars.ContextVar[bool] = contextvars.ContextVar(
            "repro_obs_detached", default=False
        )
        self._lock = threading.Lock()
        self._roots: deque[Span] = deque(maxlen=keep)

    # -- span lifecycle -----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager for a child of the current span (no-op if disabled)."""
        if not self.enabled or self._detached.get():
            return _NULL
        return _SpanCtx(self, name, attrs)

    def event(self, name: str, seconds: float = 0.0, **attrs: Any) -> Optional[Span]:
        """Record a completed child span on the current span (e.g. one
        fixpoint round timed by the caller).  Dropped when no span is open."""
        parent = self._current.get()
        if parent is None:
            return None
        sp = Span(name, attrs)
        sp.seconds = seconds
        parent.children.append(sp)
        return sp

    def current(self) -> Optional[Span]:
        return self._current.get()

    @contextmanager
    def detached(self) -> Iterator[None]:
        """Drop every span opened inside: for pool threads, whose work the
        driver times in its own span while it blocks on them."""
        token = self._detached.set(True)
        try:
            yield
        finally:
            self._detached.reset(token)

    # -- control and inspection ---------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def _record_root(self, sp: Span) -> None:
        with self._lock:
            self._roots.append(sp)

    def recent(self) -> list[Span]:
        """Recently completed root spans, oldest first (bounded buffer)."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()


#: The process-wide tracer.  Engine, views, parallel executor, and the
#: network service all record against this instance; ``contextvars``
#: keeps concurrent flows separate.
TRACER = Tracer()
