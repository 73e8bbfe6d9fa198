"""Process-wide metrics registry.

Counters and fixed-bucket histograms behind one
:class:`MetricsRegistry`, with Prometheus-text and JSON exposition.

Every per-subsystem counter bag (``VecStats``, ``ParStats``,
``ViewStats``, ``SessionStats``, ``ServerStats``, ``RouterStats``) is a
slotted dataclass over :class:`Counters`: the fields are the closed set
of counter names (a misspelled one is an ``AttributeError``, not a new
attribute), and the base supplies the per-call ``copy``/``since`` views,
the plain-dict ``as_dict`` and the scrape names ``sample(family)``.  The
bags stay the in-process source of truth; their owners register
scrape-time *collectors* that fold the current values into the
exposition under stable ``repro_{family}_{field}_total`` names.
Collectors are held by weak reference so a closed engine or server drops
out of the scrape instead of pinning the object alive; two live owners
emitting the same name are summed.

Direct metrics (the ``repro_queries_total`` counter and the
``repro_query_seconds`` histogram) are updated inline by the engine and
gated on ``METRICS.enabled`` -- on by default, and cheap enough (a dict
hit and two float adds) that the gated ``obs-overhead`` benchmark row
holds the fully-disabled path within 3% of the default path.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Callable, Iterable, Optional

__all__ = [
    "Counter",
    "Counters",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Fixed histogram buckets for query latencies (seconds); chosen to span
#: sub-millisecond vectorized lookups through multi-second fixpoints.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _sane(name: str) -> str:
    """Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.

    A trailing ``{label="value"}`` block (how an instrument of one family is
    labelled: the registry keys on the whole string) is kept as written.
    """
    name, brace, labels = name.partition("{")
    out = "".join(c if (c.isalnum() or c in "_:") else "_" for c in name)
    return (out if out and not out[0].isdigit() else "_" + out) + brace + labels


class Counters:
    """A bag of monotone integer counters: one ``@dataclass(slots=True)`` field each.

    Subclasses declare nothing but their fields.  The bags are mutated in
    place by their owners; callers take per-call views by differencing
    (``before = s.copy(); ...; s.since(before)``) instead of resetting.
    """

    __slots__ = ()

    def copy(self):
        return type(self)(*[getattr(self, f) for f in self.__dataclass_fields__])

    def since(self, baseline):
        """The counters accumulated after ``baseline`` (an earlier ``copy``) was taken."""
        return type(self)(
            *[getattr(self, f) - getattr(baseline, f) for f in self.__dataclass_fields__]
        )

    def as_dict(self) -> dict:
        """``{field: value}`` (JSON-ready; the wire service's stats frames)."""
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def sample(self, family: str) -> dict:
        """``{"repro_{family}_{field}_total": value}``: a scrape collector's output."""
        return {
            f"repro_{family}_{f}_total": getattr(self, f) for f in self.__dataclass_fields__
        }


class Counter:
    """A monotonically increasing float."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram (cumulative on exposition, like Prometheus)."""

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, buckets: Iterable[float], help: str = ""):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        i = bisect_left(self.buckets, v)
        with self._lock:
            self._counts[i] += 1
            self._sum += v
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper-bound, cumulative count) pairs, ending with +Inf."""
        out: list[tuple[float, int]] = []
        acc = 0
        with self._lock:
            counts = list(self._counts)
        for bound, n in zip(self.buckets, counts):
            acc += n
            out.append((bound, acc))
        out.append((float("inf"), acc + counts[-1]))
        return out


class MetricsRegistry:
    """Name-keyed counters and histograms plus weakly-held collectors."""

    def __init__(self) -> None:
        self.enabled = True
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        # Each entry resolves to a zero-arg callable returning a flat
        # {name: number} dict, or to None once its owner is collected.
        self._collectors: list[Callable[[], Optional[Callable[[], dict]]]] = []

    # -- instrument creation (get-or-create, idempotent) --------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, help)
            return c

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        help: str = "",
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_LATENCY_BUCKETS, help
                )
            return h

    # -- collectors ---------------------------------------------------------------

    def register_collector(self, fn: Callable[[], dict]) -> None:
        """Register a scrape-time callable returning ``{name: number}``.

        Bound methods are held via ``weakref.WeakMethod`` so registering
        a collector never keeps its owner (an Engine, a server) alive.
        """
        ref: Callable[[], Optional[Callable[[], dict]]]
        if hasattr(fn, "__self__"):
            ref = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        else:
            ref = lambda: fn  # noqa: E731 - plain function: strong ref is fine
        with self._lock:
            self._collectors.append(ref)

    def scraped(self) -> dict[str, float]:
        """Current collector output, same-name values summed across owners."""
        with self._lock:
            refs = list(self._collectors)
        out: dict[str, float] = {}
        dead: list = []
        for ref in refs:
            fn = ref()
            if fn is None:
                dead.append(ref)
                continue
            try:
                sample = fn()
            except Exception:  # pragma: no cover - a dying owner mid-scrape
                continue
            for name, value in sample.items():
                out[name] = out.get(name, 0.0) + float(value)
        if dead:
            with self._lock:
                self._collectors = [r for r in self._collectors if r not in dead]
        return out

    # -- exposition ---------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON exposition: direct instruments plus scraped collector values."""
        counters = {c.name: c.value for c in self._counters.values()}
        counters.update(self.scraped())
        return {
            "counters": counters,
            "histograms": {
                h.name: {
                    "count": h.count,
                    "sum": h.sum,
                    "buckets": {
                        ("+Inf" if b == float("inf") else repr(b)): n
                        for b, n in h.cumulative()
                    },
                }
                for h in self._histograms.values()
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        family = None
        for c in sorted(self._counters.values(), key=lambda c: c.name):
            name = _sane(c.name)
            if name.partition("{")[0] != family:  # once per labelled family
                family = name.partition("{")[0]
                if c.help:
                    lines.append(f"# HELP {family} {c.help}")
                lines.append(f"# TYPE {family} counter")
            lines.append(f"{name} {c.value}")
        for name, value in sorted(self.scraped().items()):
            name = _sane(name)
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")
        for h in sorted(self._histograms.values(), key=lambda h: h.name):
            name = _sane(h.name)
            if h.help:
                lines.append(f"# HELP {name} {h.help}")
            lines.append(f"# TYPE {name} histogram")
            for bound, n in h.cumulative():
                le = "+Inf" if bound == float("inf") else repr(bound)
                lines.append(f'{name}_bucket{{le="{le}"}} {n}')
            lines.append(f"{name}_sum {h.sum}")
            lines.append(f"{name}_count {h.count}")
        return "\n".join(lines) + "\n"

    # -- test support -------------------------------------------------------------

    def clear(self) -> None:
        """Drop every instrument and collector (test isolation only)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._collectors.clear()


#: The process-wide registry; engines and servers register collectors here.
METRICS = MetricsRegistry()
