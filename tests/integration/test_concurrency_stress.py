"""Concurrency stress: many threads, many sessions, one parallel engine.

The documented lock contract (:class:`repro.engine.Engine`): an engine
serializes its cache-touching operations behind one reentrant lock, so
sharing an engine across sessions and threads is correct (not call-parallel);
the ``parallel`` backend parallelizes *inside* a call with workers that never
touch engine state.  This suite hammers exactly that contract: N threads over
M sessions on one shared ``Engine(backend="parallel")``, mixing ad-hoc
``execute``, ``executemany`` and prepared execution, then checks

* every result matches the single-threaded expectation, and
* the engine's plan-cache counters are exactly the sum of what the sessions
  attributed to themselves (the sessions are the engine's only users, and
  attribution happens under the engine lock, so nothing may be lost or
  double-counted).
"""

import threading

import pytest

from repro.api import Database, Q
from repro.api.session import Session
from repro.engine import Engine
from repro.workloads.graphs import path_graph

pytestmark = [pytest.mark.stress, pytest.mark.slow]

THREADS = 6
SESSIONS = 3
ITERATIONS = 8
SOURCES = (0, 2, 5, 9, 13)


# One Query object per template, shared by every session and thread: a
# rebuilt fluent query elaborates with fresh bound-variable names and would
# be a structurally new template (and a fresh rewrite) each time.
SELECTION = Q.coll("edges").where(lambda e: e.fst == Q.param("src"))
CLOSURE = Q.coll("edges").fix()


def _selection():
    return SELECTION


def _closure():
    return CLOSURE


@pytest.fixture()
def setup():
    db = Database.of("g", edges=path_graph(16))
    engine = Engine(backend="parallel", workers=2)
    sessions = [Session(db, engine=engine) for _ in range(SESSIONS)]
    # Single-threaded expectations from a private vectorized session.
    oracle = Session(db, backend="vectorized")
    expected_select = {
        k: oracle.execute(_selection(), params={"src": k}).value for k in SOURCES
    }
    expected_many = [
        c.value for c in oracle.executemany(_selection(), list(SOURCES))
    ]
    expected_closure = oracle.execute(_closure()).value
    yield engine, sessions, expected_select, expected_many, expected_closure
    engine.close()


def test_threads_sessions_and_prepared_execution_agree(setup):
    engine, sessions, expected_select, expected_many, expected_closure = setup
    prepared = [s.prepare(_selection()) for s in sessions]
    start = threading.Barrier(THREADS)
    failures: list[str] = []

    def worker(tid: int) -> None:
        session = sessions[tid % SESSIONS]
        ps = prepared[tid % SESSIONS]
        start.wait()
        try:
            for i in range(ITERATIONS):
                k = SOURCES[(tid + i) % len(SOURCES)]
                got = session.execute(_selection(), params={"src": k}).value
                if got != expected_select[k]:
                    failures.append(f"t{tid}: execute src={k} diverged")
                got_many = [
                    c.value for c in session.executemany(_selection(), list(SOURCES))
                ]
                if got_many != expected_many:
                    failures.append(f"t{tid}: executemany diverged")
                got_ps = ps.execute(src=k).value
                if got_ps != expected_select[k]:
                    failures.append(f"t{tid}: prepared src={k} diverged")
                if i == ITERATIONS // 2:
                    got_fix = session.execute(_closure()).value
                    if got_fix != expected_closure:
                        failures.append(f"t{tid}: closure diverged")
        except Exception as exc:  # noqa: BLE001 - surfaced via the failure list
            failures.append(f"t{tid}: raised {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(tid,), name=f"stress-{tid}")
        for tid in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "stress threads deadlocked"
    assert not failures, "\n".join(failures)

    # Cache-counter consistency: the sessions are this engine's only users
    # and attribute their deltas under the engine lock, so the per-session
    # sums must reproduce the engine totals exactly.
    assert engine.plan_misses == sum(s.stats.rewrites for s in sessions)
    assert engine.plan_hits == sum(s.stats.plan_hits for s in sessions)
    per_thread_executes = ITERATIONS * (2 + len(SOURCES)) + 1
    assert (
        sum(s.stats.executes for s in sessions) == THREADS * per_thread_executes
    )
    assert sum(s.stats.batches for s in sessions) == THREADS * ITERATIONS


def test_counter_attribution_is_exact_under_contention(setup):
    engine, sessions, expected_select, *_ = setup
    start = threading.Barrier(THREADS)
    errors: list[str] = []

    def worker(tid: int) -> None:
        session = sessions[tid % SESSIONS]
        start.wait()
        for i in range(ITERATIONS):
            k = SOURCES[(tid * 3 + i) % len(SOURCES)]
            if session.execute(_selection(), params={"src": k}).value != expected_select[k]:
                errors.append(f"t{tid} diverged")

    threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    # One template: exactly one rewrite ever, the rest plan-cache hits.
    assert engine.plan_misses == 1
    assert engine.plan_hits == THREADS * ITERATIONS - 1
    assert sum(s.stats.rewrites for s in sessions) == 1
    assert sum(s.stats.plan_hits for s in sessions) == THREADS * ITERATIONS - 1

# -- one writer, two readers, one shared snapshot ---------------------------------

class _OrderChecked:
    """The database's commit lock, refusing to be taken under the engine lock."""

    def __init__(self, lock, engine, violations: list) -> None:
        self.lock, self.engine, self.violations = lock, engine, violations

    def __enter__(self):
        if self.engine.lock._is_owned() and not self.lock._is_owned():
            self.violations.append(threading.current_thread().name)
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_reads_during_commits_see_one_committed_prefix():
    """No torn environment: every read is the closed form of *some* prefix.

    Commit ``k`` extends the path in ``edges`` by one edge and adds row
    ``(k, k)`` to both ``a`` and ``b`` in the same changeset.  A reader that
    saw ``a`` from one commit and ``b`` from another, or a closure over a
    half-advanced ``edges``, matches no prefix.  A view on the shared engine
    makes the committer take the engine lock (and a session's stats lock)
    under the commit lock while the readers hammer both.
    """
    import sys

    from repro.api import Changeset, Row

    n, commits = 12, 40
    db = Database.of("g", edges=path_graph(n), a={(0, 0)}, b={(0, 0)})
    engine = Engine(backend="vectorized")
    sessions = [Session(db, engine=engine) for _ in range(2)]
    view = sessions[0].materialize(Q.coll("edges").fix(), name="tc")
    violations: list[str] = []
    db._commit_lock = _OrderChecked(db._commit_lock, engine, violations)

    reach = Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))
    both = (Q.coll("a").map(lambda e: Row.pair(e.fst, 0))
            | Q.coll("b").map(lambda e: Row.pair(e.fst, 1)))
    want_reach = [frozenset((0, j) for j in range(1, n + k)) for k in range(commits + 1)]
    want_both = [frozenset((i, side) for i in range(k + 1) for side in (0, 1))
                 for k in range(commits + 1)]
    done = [0]  # commits that have returned
    failures: list[str] = []
    stop = threading.Event()

    def reader(session) -> None:
        statements = [(session.prepare(reach), {"src": 0}, want_reach),
                      (session.prepare(both), None, want_both)]
        seen = [0, 0]
        try:
            while not stop.is_set():
                for which, (statement, params, want) in enumerate(statements):
                    low = done[0]
                    rows = statement.execute(params).rows()
                    high = min(done[0] + 1, commits)  # one commit may be in flight
                    prefix = next((k for k in range(low, high + 1) if rows == want[k]), None)
                    if prefix is None:
                        failures.append(f"read {which} matches no prefix in [{low}, {high}]")
                    elif prefix < seen[which]:
                        failures.append(f"read {which} went back from {seen[which]} to {prefix}")
                    else:
                        seen[which] = prefix
        except Exception as exc:  # noqa: BLE001 - surfaced via the failure list
            failures.append(f"reader raised {type(exc).__name__}: {exc}")

    def writer() -> None:
        try:
            for k in range(1, commits + 1):
                db.apply(Changeset.of(
                    edges=([(n + k - 2, n + k - 1)], []), a=([(k, k)], []), b=([(k, k)], [])))
                done[0] = k
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer raised {type(exc).__name__}: {exc}")
        finally:
            stop.set()

    threads = [threading.Thread(target=reader, args=(s,), name=f"reader-{i}")
               for i, s in enumerate(sessions)]
    threads.append(threading.Thread(target=writer, name="writer"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    assert not any(t.is_alive() for t in threads), "readers and writer deadlocked"
    assert not failures, "\n".join(failures[:10])
    assert not violations, f"commit lock taken under the engine lock by {violations}"
    assert done[0] == commits
    assert sessions[0]._snapshot is sessions[1]._snapshot is view._snapshot
    assert view.rows() == {(i, j) for i in range(n + commits) for j in range(i + 1, n + commits)}
    assert sessions[1].execute(reach, {"src": 0}).rows() == want_reach[commits]
