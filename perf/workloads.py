"""The five closed-loop workloads.

Each workload generates its inputs from the seed alone (``generate``), builds
the program state it drives (``setup``), and hands ``run.py`` closed-loop
callers whose op records ``(kind, start, end, ok)`` carry client-observed
latencies.  Every op is checked against a closed form computed here in plain
python, outside the timed region; the reference interpreter backs that up
where the issue asks for it (``verify``).  ``perf/README.md`` says why each
workload exists and which layers it loads or bypasses.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import NULL, SLICES, run_clients

from repro.api import Database, Q, Row, connect
from repro.nra.eval import run as reference_run
from repro.objects.values import to_python
from repro.relational.relation import Relation
from repro.service import connect as service_connect
from repro.workloads.graphs import binary_tree, path_graph, random_graph
from repro.workloads.nested_graphs import ADJ_DB_T, adjacency_database, two_hop_query

SRC = Path(__file__).resolve().parent.parent / "src"

#: Index ranges that keep warm-up and probe ops apart from the measured ones
#: (an ad-hoc op's index is what makes its query never-seen).
WARM_AT = 1_000_000
PROBE_AT = 2_000_000

#: A check between timed ops that failed (kept out of the latency samples).
FAILED_CHECK = ("check", 0.0, 0.0, False)


def reach_statement():
    """``reach(src)``: the flagship fixpoint, filtered on its source."""
    return Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src"))


def shortcut_batches(rng: random.Random, nodes: int, present: set, count: int) -> list:
    """``count`` batches of 4 distinct forward edges (u < v) absent from the graph.

    Forward edges keep every graph here acyclic, so delete/rederive stays in
    the milliseconds and the database returns to its base state.
    """
    batches = []
    for _ in range(count):
        batch: list = []
        while len(batch) < 4:
            u = rng.randrange(nodes - 1)
            edge = (u, rng.randrange(u + 1, nodes))
            if edge not in present and edge not in batch:
                batch.append(edge)
        batches.append(batch)
    return batches


class Reads:
    """Op ``i`` on one session: execute, then fetch every row.

    Either one statement prepared here and executed with binding ``i``, or
    (``make_query``) a fresh never-seen query per op.
    """

    def __init__(self, session, query=None, bindings=None, make_query=None) -> None:
        self.session = session
        self.statement = session.prepare(query) if query is not None else None
        self.bindings = bindings
        self.make_query = make_query

    def pick(self, i: int) -> tuple:
        """(runnable, params) of op ``i``."""
        if self.statement is not None:
            return self.statement, self.bindings[i % len(self.bindings)]
        return self.make_query(i), None

    def __call__(self, i: int, tr=NULL) -> list:
        runnable, params = self.pick(i)
        with tr.span("api.execute"):
            if self.statement is not None:
                cursor = runnable.execute(params)
            else:
                cursor = self.session.execute(runnable)
        with tr.span("api.fetch"):
            return cursor.fetchall()


class Workload:
    """What ``run.py`` and ``layers.py`` need from a workload."""

    name = ""
    collection = "edges"  # what the commit probes mutate
    warm_ops = 8
    FULL: dict = {}
    SMOKE: dict = {}

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.smoke = smoke
        self.size = dict(self.SMOKE if smoke else self.FULL)
        if smoke:
            self.n_ops = self.size["ops"]
        else:
            ops = int(self.size["rate"] * seconds)
            self.n_ops = max(SLICES, ops - ops % SLICES)
        self.rng = random.Random(f"{self.name}/{seed}")
        self.error = None  # first exception an op raised, for the report
        self.generate()

    def digest(self) -> str:
        return hashlib.sha256(repr(self.inputs).encode()).hexdigest()[:16]

    def timed(self, kind: str, op_id, tr, call) -> tuple:
        """Run ``call(tr)`` as one op: its record, ``ok`` being what it returns.

        An op that raises failed; it is counted, not fatal.
        """
        t0 = perf_counter()
        try:
            with tr.op(op_id):
                ok = call(tr)
        except Exception as exc:
            ok = False
            if self.error is None:
                self.error = exc
                print(f"{self.name}: op {op_id} failed: {exc!r}", file=sys.stderr)
        return (kind, t0, perf_counter(), bool(ok))

    def read_caller(self, read, expected, first: int, count: int, tr, tag: str = ""):
        def caller() -> list:
            return [
                self.timed("read", f"{tag}{i}", tr,
                           lambda tr, i=i: self.check(i, read(i, tr), expected(i)))
                for i in range(first, first + count)
            ]

        return caller

    def check(self, i: int, rows: list, want: frozenset) -> bool:
        return frozenset(rows) == want

    def reader(self, session) -> Reads:
        """Ops of this workload's shape on an in-process ``session`` (main or twin)."""
        return Reads(session, self.statement(), self.bindings)

    def probe_queries(self) -> list:
        """Fresh queries whose templates the cold-cost probes measure."""
        return [self.statement()]

    def verify(self) -> int:
        """Deferred checks after the timed phases; returns how many failed."""
        return 0


class InProcess(Workload):
    """One ``Session`` (default vectorized backend) over one database."""

    def setup(self) -> None:
        self.db = self.twin_db()
        self.session = connect(self.db)
        self.read = self.reader(self.session)
        for i in range(self.warm_ops):
            self.read(WARM_AT + i)

    def teardown(self) -> None:
        self.session.close()

    def phase(self, first: int, count: int, tr=NULL) -> list:
        return run_clients([self.read_caller(self.read, self.expected, first, count, tr)])

    def instrument(self, tr) -> None:
        import repro.api.cursor
        import repro.api.session

        engine = self.session.engine
        tr.patch(engine, "run", "engine.run")
        tr.patch(engine, "optimize", "engine.rewrite")
        tr.patch(engine, "intern", "engine.interning")
        tr.patch(repro.api.cursor, "to_python", "objects.to_python")
        tr.patch(repro.api.session, "from_python", "objects.from_python")

    def rss_pid(self) -> int:
        return os.getpid()


class PathReach:
    """``reach(src)`` on the path ``0 -> 1 -> ... -> n-1``, closed form included."""

    statement = staticmethod(reach_statement)

    def generate_path(self, callers: int = 1) -> None:
        n = self.n = self.size["n"]
        self.orders = [self.rng.sample(range(n), n) for _ in range(callers)]
        self.bindings = [{"src": s} for s in self.orders[0]]
        edges = {(i, i + 1) for i in range(n - 1)}
        self.write_batches = shortcut_batches(self.rng, n, edges, self.size["commits"])
        self.inputs = (n, self.orders, self.write_batches)

    def reach(self, src: int) -> frozenset:
        return frozenset((src, j) for j in range(src + 1, self.n))

    def twin_db(self) -> Database:
        return Database.of("path", edges=path_graph(self.n))


class TcInproc(PathReach, InProcess):
    """Flat fixpoint kernels and result materialization; plan cache warm."""

    name = "tc_inproc"
    FULL = {"n": 96, "rate": 31, "commits": 20}
    SMOKE = {"n": 16, "ops": 20, "commits": 3}

    def generate(self) -> None:
        self.generate_path()

    def expected(self, i: int) -> frozenset:
        return self.reach(self.orders[0][i % self.n])

    def phase(self, first: int, count: int, tr=NULL) -> list:
        engine = self.session.engine
        misses = engine.plan_misses
        ops = super().phase(first, count, tr)
        if engine.plan_misses != misses:
            ops[0].append(FAILED_CHECK)  # a prepared execute rewrote a plan
        return ops


class AdhocCold(PathReach, InProcess):
    """Every query never seen: elaborate, rewrite and compile; kernels idle."""

    name = "adhoc_cold"
    FULL = {"n": 24, "rate": 620, "commits": 20}
    SMOKE = {"n": 8, "ops": 40, "commits": 3}
    #: An odd number of shapes, so the median op sits inside one shape's mode.
    SHAPES = 5
    REFERENCE_EVERY = 50
    #: No cache ever fills here; the warm-up is long enough to time steadily.
    warm_ops = 200

    def generate(self) -> None:
        self.generate_path()
        self.tag_base = self.rng.randrange(10**4, 10**6)
        self.inputs += (self.tag_base,)
        self.sampled: list = []

    def spec(self, i: int) -> tuple:
        """(shape, src, fresh tag) of op ``i``; the tag makes the query unseen."""
        return i % self.SHAPES, self.orders[0][i % self.n], self.tag_base + i

    def make_query(self, i: int):
        shape, s, k = self.spec(i)
        edges = Q.coll("edges")
        if shape == 0:
            return edges.where(lambda e: e.fst == s).map(lambda e: Row.pair(e.snd, k))
        if shape == 1:
            return (edges.compose(edges).where(lambda e: e.snd == s)
                    .map(lambda e: Row.pair(k, e.fst)))
        if shape == 2:
            return edges.fix().where(lambda e: e.fst == s).map(lambda e: Row.pair(e.snd, k))
        if shape == 3:
            return (edges.where(lambda e: e.snd == s).union(edges.where(lambda e: e.fst == s))
                    .map(lambda e: Row.pair(e, k)))
        return (edges.map(lambda e: Row.pair(e.snd, e.fst)).where(lambda e: e.fst == s)
                .map(lambda e: Row.pair(k, e.snd)))

    def expected(self, i: int) -> frozenset:
        shape, s, k = self.spec(i)
        n = self.n
        if shape == 0:
            return frozenset({(s + 1, k)} if s + 1 < n else ())
        if shape == 1:
            return frozenset({(k, s - 2)} if s >= 2 else ())
        if shape == 2:
            return frozenset((j, k) for j in range(s + 1, n))
        if shape == 3:
            near = [(s - 1, s)] * (s >= 1) + [(s, s + 1)] * (s + 1 < n)
            return frozenset((edge, k) for edge in near)
        return frozenset({(k, s - 1)} if s >= 1 else ())

    def reader(self, session) -> Reads:
        return Reads(session, make_query=self.make_query)

    def probe_queries(self) -> list:
        return [self.make_query(PROBE_AT + k) for k in range(self.SHAPES)]

    def check(self, i: int, rows: list, want: frozenset) -> bool:
        if i % self.REFERENCE_EVERY == 0:
            self.sampled.append((i, rows))
        return super().check(i, rows, want)

    def verify(self) -> int:
        """The reference interpreter on the 1-in-50 sampled ops."""
        env, schema = self.db.environment(), self.db.schema()
        wrong = 0
        for i, rows in self.sampled:
            template = self.make_query(i).elaborate(schema).expr
            wrong += frozenset(rows) != to_python(reference_run(template, env=env))
        return wrong


class NestedObjects(InProcess):
    """Nested in, nested out: objects.values, interning, per-group evaluation."""

    name = "nested_objects"
    collection = "adj"
    #: One fixed G(n, p) topology, relabelled by the seed: the inputs differ
    #: per seed while the work (and every count) stays the same.
    FULL = {"n": 32, "p": 0.05, "topology": 4, "rate": 22, "commits": 20}
    SMOKE = {"n": 10, "p": 0.15, "topology": 1, "ops": 20, "commits": 3}
    REFERENCE = {"n": 10, "p": 0.15, "topology": 1}
    bindings = [None]
    warm_ops = 3

    def relabelled(self, size: dict) -> list:
        n = size["n"]
        label = self.rng.sample(range(n), n)
        return sorted(
            (label[a], label[b])
            for a, b in random_graph(n, size["p"], seed=size["topology"])
        )

    def generate(self) -> None:
        self.edges = self.relabelled(self.size)
        self.small_edges = self.relabelled(self.REFERENCE)
        n = self.size["n"]
        self.write_batches = [
            [(n + 4 * k + j, frozenset(self.rng.sample(range(n), 3))) for j in range(4)]
            for k in range(self.size["commits"])
        ]
        self.want = self.two_hop_nested(self.edges)
        self.inputs = (self.edges, self.small_edges, self.write_batches)

    @staticmethod
    def two_hop_nested(edges: list) -> frozenset:
        succ: dict = {}
        for a, b in edges:
            succ.setdefault(a, set()).add(b)
        groups = {
            a: frozenset(c for b in out for c in succ.get(b, ()))
            for a, out in succ.items()
        }
        return frozenset((a, cs) for a, cs in groups.items() if cs)

    @staticmethod
    def adjacency(edges: list) -> Database:
        adj = adjacency_database(Relation.from_pairs("r", edges))
        return Database("nested").register("adj", adj, type=ADJ_DB_T)

    def twin_db(self) -> Database:
        return self.adjacency(self.edges)

    @staticmethod
    def statement():
        return Q.coll("adj").pipe(two_hop_query()).nest()

    def expected(self, i: int) -> frozenset:
        return self.want

    def verify(self) -> int:
        """Engine == reference interpreter == closed form, on the reduced twin.

        The reference interpreter needs ~10 s for the full-size statement
        (it is the oracle, not a fast path), so it runs the same statement on
        a 10-node relabelled graph; the full-size rows were already checked
        against the closed form on every op.
        """
        small = self.adjacency(self.small_edges)
        with connect(small) as session:
            got = session.execute(self.statement()).rows()
        template = self.statement().elaborate(small.schema()).expr
        want = to_python(reference_run(template, env=small.environment()))
        return int(not got == want == self.two_hop_nested(self.small_edges))


class IvmChurn(InProcess):
    """Writes beside reads: view maintenance, commits, re-interning per commit."""

    name = "ivm_churn"
    #: ``rate`` in cycles/s.  Reads cycle through the top ``src_levels`` tree
    #: levels, so every seed reads the same mix of subtree sizes; an odd count
    #: keeps the median read inside one level's mode.
    FULL = {"depth": 8, "src_levels": 7, "rate": 27, "check_every": 50}
    SMOKE = {"depth": 4, "src_levels": 3, "ops": 20, "check_every": 5}
    warm_ops = 2

    def generate(self) -> None:
        self.nodes = 2 ** (self.size["depth"] + 1) - 1
        children: dict = {
            i: [c for c in (2 * i + 1, 2 * i + 2) if c < self.nodes]
            for i in range(self.nodes)
        }
        tree = {(i, c) for i, cs in children.items() for c in cs}
        cycles = self.n_ops + self.warm_ops
        self.write_batches = shortcut_batches(self.rng, self.nodes, tree, cycles)
        self.srcs = [
            self.rng.randrange(2 ** level - 1, 2 ** (level + 1) - 1)
            for level in (c % self.size["src_levels"] for c in range(cycles))
        ]
        self.bindings = [{"src": s} for s in self.srcs]
        self.inputs = (self.nodes, self.write_batches, self.srcs)
        self.want = []  # per cycle: reach(src) with the batch in, then without
        for batch, src in zip(self.write_batches, self.srcs):
            extra: dict = {}
            for a, b in batch:
                extra.setdefault(a, []).append(b)
            self.want.append(
                (self.reach(src, children, extra), self.reach(src, children, {}))
            )

    @staticmethod
    def reach(src: int, children: dict, extra: dict) -> frozenset:
        seen, todo = set(), [src]
        while todo:
            node = todo.pop()
            for nxt in children[node] + extra.get(node, []):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return frozenset((src, x) for x in seen)

    def twin_db(self) -> Database:
        return Database("tree").register("edges", binary_tree(self.size["depth"]))

    statement = staticmethod(reach_statement)

    @staticmethod
    def view_queries() -> dict:
        edges = Q.coll("edges")
        return {"reach": edges.fix(), "two_hop": edges.compose(edges)}

    def setup(self) -> None:
        self.db = self.twin_db()
        self.base = self.db["edges"]
        self.session = connect(self.db)
        self.views = {
            name: self.session.materialize(query, name=name)
            for name, query in self.view_queries().items()
        }
        self.read = self.reader(self.session)
        self.cycles(self.n_ops, self.warm_ops, NULL)

    def phase(self, first: int, count: int, tr=NULL) -> list:
        return [self.cycles(first, count, tr)]

    def cycles(self, first: int, count: int, tr) -> list:
        """insert 4 edges -> read -> delete the same 4 -> read, ``count`` times."""
        def commit(mutate, batch):
            def run(tr):
                with tr.span("api.commit"):
                    return mutate("edges", batch).rows_touched() == len(batch)
            return run

        ops = []
        for c in range(first, first + count):
            batch = self.write_batches[c]
            for half, mutate in enumerate((self.db.insert, self.db.delete)):
                ops.append(self.timed("write", f"write-{c}-{half}", tr, commit(mutate, batch)))
                ops.append(self.timed(
                    "read", f"read-{c}-{half}", tr,
                    lambda tr: frozenset(self.read(c, tr)) == self.want[c][half],
                ))
            # Untimed: the database is back at its base state after every
            # cycle, and every view equals a cold recompute now and then.
            ok = self.db["edges"] == self.base
            if ok and (c + 1) % self.size["check_every"] == 0:
                ok = self.views_current()
            if not ok:
                ops.append(FAILED_CHECK)
        return ops

    def views_current(self) -> bool:
        with connect(self.db) as cold:
            return all(
                self.views[name].rows() == cold.execute(query).rows()
                for name, query in self.view_queries().items()
            )

    def instrument(self, tr) -> None:
        super().instrument(tr)
        for view in self.views.values():
            tr.patch(view, "apply", "engine.incremental")


class ServiceTc(PathReach, Workload):
    """The tc_inproc statement over the wire, one connection per caller."""

    name = "service_tc"
    FULL = {"n": 48, "rate": 64, "commits": 20, "callers": 2}  # rate per caller
    SMOKE = {"n": 12, "ops": 20, "commits": 3, "callers": 2}

    def generate(self) -> None:
        self.generate_path(self.size["callers"])

    def setup(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "serve",
             "--workload", f"path:{self.n}", "--port", "0"],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        self.conns, self.sessions, self.statements = [], [], []
        try:
            line = self.server.stdout.readline()
            found = re.search(r"listening on ([\w.]+):(\d+)", line)
            if not found:
                raise RuntimeError(f"server did not announce its port: {line!r}")
            for order in self.orders:
                conn = service_connect(found.group(1), int(found.group(2)))
                self.conns.append(conn)
                self.sessions.append(conn.session())
                self.statements.append(self.sessions[-1].prepare(self.statement()))
                for src in order[:self.warm_ops]:
                    self.statements[-1].execute(src=src).fetchall()
        except BaseException:
            self.teardown()
            raise

    def teardown(self) -> None:
        """Close the connections, then reap the server: SIGTERM, then kill."""
        for closable in self.sessions + self.conns:
            closable.close()
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()

    def phase(self, first: int, count: int, tr=NULL, callers=None) -> list:
        def caller(k: int):
            statement, order = self.statements[k], self.orders[k]

            def read(i: int, tr) -> list:
                with tr.span("service.client.execute"):
                    cursor = statement.execute(src=order[i % self.n])
                with tr.span("service.client.fetch"):
                    return cursor.fetchall()

            def expected(i: int) -> frozenset:
                return self.reach(order[i % self.n])

            return self.read_caller(read, expected, first, count, tr, tag=f"{k}-")

        callers = range(len(self.orders)) if callers is None else callers
        return run_clients([caller(k) for k in callers])

    def instrument(self, tr) -> None:
        import repro.service.client as client

        self.frames = {"sent": [], "received": []}

        def capture(kind):
            def wrapper(original):
                def wrapped(sock, *args):
                    got = original(sock, *args)
                    self.frames[kind].append(args[0] if kind == "sent" else got)
                    return got
                return wrapped
            return wrapper

        # Replies arrive on the connection's reader thread: captured for the
        # codec replay, but given no span (that thread belongs to no op).
        tr.replace(client, "read_frame_sync", capture("received"))
        tr.replace(client, "write_frame_sync", capture("sent"))
        tr.patch(client, "write_frame_sync", "service.protocol.write")
        tr.patch(client, "to_jsonable", "objects.to_jsonable")
        tr.patch(client, "to_python_row", "objects.to_python_row")
        for conn in self.conns:
            tr.patch(conn, "request", "service.client.request")

    def rss_pid(self) -> int:
        return self.server.pid


WORKLOADS = {w.name: w for w in (TcInproc, ServiceTc, AdhocCold, IvmChurn, NestedObjects)}
