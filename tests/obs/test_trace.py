"""Span correctness: nesting, isolation, and the disabled fast path.

The tracer is process-wide and carried in a ``contextvars.ContextVar``,
so the load-bearing assertions are isolation ones: six threads running
concurrent sessions each get their own span ancestry (a span opened on
one flow of control never adopts children from another), the parallel
executor's worker threads never misparent spans (shard waves are timed
on the driver, which blocks on the wave), and with tracing off the whole
surface is a shared no-op.
"""

import threading

import pytest

from repro.api import Database, Q, connect
from repro.obs.trace import TRACER, Span, Tracer
from repro.workloads.graphs import path_graph

pytestmark = pytest.mark.obs


@pytest.fixture()
def tracer():
    """Enable the process tracer for one test, restoring the default."""
    TRACER.clear()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.clear()


# ---------------------------------------------------------------------------
# The disabled fast path
# ---------------------------------------------------------------------------

def test_disabled_span_is_a_shared_noop():
    assert not TRACER.enabled
    a = TRACER.span("query")
    b = TRACER.span("rewrite", attrs=1)
    assert a is b  # one shared null object, no allocation per call
    with a as sp:
        assert sp is None
    assert TRACER.recent() == []


def test_disabled_event_is_dropped():
    assert TRACER.event("fixpoint-round", seconds=0.1) is None
    assert TRACER.recent() == []


# ---------------------------------------------------------------------------
# Nesting and attributes
# ---------------------------------------------------------------------------

def test_span_nesting_and_attributes(tracer):
    with tracer.span("query", backend="vectorized") as q:
        with tracer.span("rewrite") as r:
            r.set(rules_fired=3)
        with tracer.span("compile", expr="Fix"):
            tracer.event("fixpoint-round", seconds=0.25, round=1)
    roots = tracer.recent()
    assert [sp.name for sp in roots] == ["query"]
    root = roots[0]
    assert root.attrs == {"backend": "vectorized"}
    assert [c.name for c in root.children] == ["rewrite", "compile"]
    assert root.children[0].attrs == {"rules_fired": 3}
    inner = root.children[1].children
    assert [c.name for c in inner] == ["fixpoint-round"]
    assert inner[0].seconds == 0.25
    assert root.seconds >= sum(c.seconds for c in root.children[:1])


def test_walk_find_hottest_render(tracer):
    with tracer.span("query") as q:
        tracer.event("a", seconds=0.1)
        tracer.event("b", seconds=0.3)
        tracer.event("c", seconds=0.2)
    assert [sp.name for sp in q.walk()] == ["query", "a", "b", "c"]
    assert q.find("b").seconds == 0.3
    assert q.find("missing") is None
    assert [sp.name for sp in q.hottest(2)] == ["b", "c"]
    rendered = q.render()
    assert "query" in rendered and "  b" in rendered
    d = q.as_dict()
    assert d["name"] == "query" and len(d["children"]) == 3


def test_exception_still_closes_and_parents(tracer):
    with pytest.raises(RuntimeError):
        with tracer.span("query"):
            with tracer.span("compile"):
                raise RuntimeError("boom")
    (root,) = tracer.recent()
    assert root.name == "query"
    assert [c.name for c in root.children] == ["compile"]


def test_bounded_root_buffer():
    t = Tracer(keep=4)
    t.enable()
    for i in range(10):
        with t.span("q", i=i):
            pass
    kept = [sp.attrs["i"] for sp in t.recent()]
    assert kept == [6, 7, 8, 9]


# ---------------------------------------------------------------------------
# Concurrency: contextvars isolation
# ---------------------------------------------------------------------------

def test_six_threads_never_cross_parent(tracer):
    """Each thread's root adopts exactly its own children."""
    n = 6
    barrier = threading.Barrier(n)
    errors = []

    def work(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            with tracer.span("root", thread=i) as root:
                for j in range(20):
                    with tracer.span("child", thread=i, j=j):
                        pass
            assert len(root.children) == 20
            assert all(c.attrs["thread"] == i for c in root.children)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert errors == []
    roots = tracer.recent()
    assert sorted(sp.attrs["thread"] for sp in roots) == list(range(n))


def test_concurrent_sessions_each_get_their_own_query_span(tracer):
    """Six sessions over one engine: no query span adopts foreign children."""
    db = Database.of("g", edges=path_graph(16))
    shared = connect(db)
    sessions = [connect(db, engine=shared.engine) for _ in range(6)]
    barrier = threading.Barrier(6)
    errors = []

    def work(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            with tracer.span("outer", thread=i) as outer:
                sessions[i].execute(Q.coll("edges").fix())
            queries = [c for c in outer.children if c.name == "query"]
            assert len(queries) == 1
            # Every descendant is engine-side tracing, reached only
            # through this thread's query span.
            for c in outer.children:
                assert c.name == "query"
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert errors == []


def test_parallel_backend_spans_stay_on_the_driver(tracer):
    """Thread-pool shard waves fold into driver-side spans; workers open none."""
    db = Database.of("g", edges=path_graph(24))
    s = connect(db, backend="parallel")
    with tracer.span("outer") as outer:
        s.execute(Q.coll("edges").fix())
    names = {sp.name for sp in outer.walk()}
    assert "query" in names
    # Whatever the pool did (flat rounds or shard waves) is parented under
    # this flow of control -- nothing leaked to the root buffer from a
    # worker thread.
    assert all(root is outer for root in tracer.recent())


def test_engine_query_span_shape(tracer):
    db = Database.of("g", edges=path_graph(16))
    s = connect(db)
    s.execute(Q.coll("edges").fix())
    roots = [sp for sp in tracer.recent() if sp.name == "query"]
    assert roots, "engine.run must open a query span"
    q = roots[-1]
    assert q.attrs.get("backend")
    assert q.attrs.get("rows") == len(s.execute(Q.coll("edges").fix()).value.elements)
    names = [c.name for c in q.walk()]
    assert "rewrite" in names
    assert "compile" in names
    assert "fixpoint-round" in names
    rounds = [sp for sp in q.walk() if sp.name == "fixpoint-round"]
    assert all(sp.attrs["frontier"] >= 0 for sp in rounds)


def test_a_commit_advances_the_snapshot_once_then_applies_views(tracer):
    db = Database.of("g", edges=path_graph(6), other={(0, 1)})
    s = connect(db)
    s.materialize(Q.coll("edges").fix(), name="tc")
    s.materialize(Q.coll("edges").compose(Q.coll("edges")), name="hops")
    tracer.clear()
    db.insert("edges", [(5, 6)])
    (commit,) = [sp for sp in tracer.recent() if sp.name == "commit"]
    assert [c.name for c in commit.children] == ["snapshot-advance", "ivm-apply", "ivm-apply"]
    assert commit.children[0].attrs == {"delta": 1, "rebuild": 0}
    assert commit.attrs == {"db": "g"}
    tracer.clear()
    db.insert("edges", [(5, 6)])  # already there: nothing committed, nothing traced
    assert not tracer.recent()


def test_a_sweep_is_a_span_under_the_query_or_commit_that_paid_for_it(tracer, monkeypatch):
    db = Database.of("g", edges=path_graph(8))
    s = connect(db)
    reach = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    for src in range(8):
        s.execute(reach, {"src": src})
    it = s.engine.interner
    it.sweep()  # what the reads made survives one sweep on its second chance
    tracer.clear()
    monkeypatch.setattr(it, "_sweep_at", 0)  # due: the next run ends in one
    size = it.size
    s.execute(Q.coll("edges").map(lambda e: e.snd))
    (q,) = [sp for sp in tracer.recent() if sp.name == "query"]
    assert [c.name for c in q.children][-1] == "intern-sweep"
    sweep = q.children[-1]
    assert set(sweep.attrs) == {"freed", "kept", "ms"}
    assert sweep.attrs["freed"] > 0 and sweep.attrs["kept"] == it.size
    assert it.size <= size + 2 - sweep.attrs["freed"]  # the map's answer and its set
    assert sweep.attrs["ms"] >= 0 and sweep.seconds > 0
    # Not due: no span.  Due at a commit: under the commit's advance.
    tracer.clear()
    s.execute(reach, {"src": 0})
    assert not [sp for sp in tracer.recent()[-1].walk() if sp.name == "intern-sweep"]
    monkeypatch.setattr(it, "_sweep_at", 0)
    tracer.clear()
    db.insert("edges", [(7, 8)])
    (commit,) = [sp for sp in tracer.recent() if sp.name == "commit"]
    (advance,) = commit.children
    assert [c.name for c in advance.children] == ["intern-sweep"]
