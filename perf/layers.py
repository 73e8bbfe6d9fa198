"""Per-layer probes: what each layer costs, measured from outside ``src/``.

Every number is taken around calls into a layer's public functions.  The
engine, api, nra and objects probes run on an in-process *twin* of the
workload (same statement, same data, a fresh view-free database), so they mean
the same thing on every workload -- for ``service_tc`` the twin is also the
"what the socket costs" subtraction.  The incremental and service probes read
the workload's own views and server, and report 0 where a workload has none:
a layer that is not on a workload's path costs it nothing.

Counts are per op (``count/op``) or absolute (``count``) and repeat exactly
for one seed; ``README.md`` names the two that depend on timing.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter

from harness import Spans, metric, median_us, percentile, proc_cpu_seconds
from workloads import PROBE_AT

from repro.api import Session, connect
from repro.api.query import param_var
from repro.engine import Engine
from repro.nra.parser import parse
from repro.nra.pretty import pretty
from repro.nra.typecheck import infer
from repro.objects.encoding import from_jsonable, to_jsonable
from repro.objects.values import from_python, to_python
from repro.obs import METRICS, TRACER
from repro.service.client import to_python_row
from repro.service.protocol import HEADER_BYTES, decode_body, encode_frame

VEC_COUNTS = ("flat_joins", "flat_dedups", "flat_rounds", "flat_fallbacks",
              "hash_joins", "bulk_maps", "elementwise_exts")
VIEW_COUNTS = ("delta_applies", "fallback_recomputes", "seminaive_rounds",
               "dred_overdeletes", "dred_rederives")
SERVER_COUNTS = ("queries", "rows_streamed", "busy_rejections", "errors")


def ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


def op_seconds(read, indices, after=None) -> list[float]:
    """Wall time of ``read(i)`` per index; ``after(i)`` runs untimed between ops."""
    out = []
    for i in indices:
        t0 = perf_counter()
        read(i)
        out.append(perf_counter() - t0)
        if after is not None:
            after(i)
    return out


def read_ms(phase: list) -> float:
    """Median read latency (ms) over the per-caller op records of one phase."""
    return ms([op[2] - op[1] for ops in phase for op in ops if op[0] == "read"])


def span_ms(tr: Spans, name: str) -> tuple[float, str, int]:
    """Median inclusive duration of the spans called ``name``, as ``metric`` arguments."""
    times = [row["end"] - row["start"] for row in tr.rows if row["name"] == name]
    return ms(times), "ms", len(times)


def layer_metrics(w, tr: Spans, untraced: list, traced: list, before: dict,
                  speeds: list) -> dict:
    """Every per-layer metric of one traced run of workload ``w``.

    ``untraced``/``traced`` are the op records of the two equal phases just
    run; ``before`` is ``snapshot(w)`` taken between them; ``speeds`` the
    ``host_speed`` probes before, between and after them.
    """
    k = 3 if w.smoke else 20
    indices = itertools.count(PROBE_AT + 1000)
    out: dict = {}
    db = w.twin_db()
    with connect(db) as session:
        twin_ms = twin_probes(w, db, session, k, indices, out)
        commit_ms = commit_probes(w, db, session, k, indices, out)
        backend_probes(w, db, twin_ms, k, indices, out)
        obs_probes(w, session, k, indices, out)
    template_probes(w, db, k, out)
    incremental_probes(w, tr, before, commit_ms, k, out)
    service_probes(w, tr, untraced, before, twin_ms, k, out)
    # Each phase's time over the host speed beside it, so that a neighbour
    # waking up between the two phases does not read as tracing overhead.
    out["bench.trace_overhead_ratio"] = metric(
        (read_ms(traced) / (speeds[1] + speeds[2])) / (read_ms(untraced) / (speeds[0] + speeds[1])),
        "ratio", k)
    out["bench.host_speed"] = metric(statistics.median(speeds), "ratio", len(speeds))
    # Client-observed commit latency inside the workload's own ops (views
    # current on return); 0 on the workloads that write nothing.
    writes = [(op[2] - op[1]) * 1e3 for ops in untraced for op in ops if op[0] == "write"]
    out["api.update_p50_ms"] = metric(percentile(writes, 0.5) if writes else 0.0, "ms", len(writes))
    out["api.update_p95_ms"] = metric(percentile(writes, 0.95) if writes else 0.0, "ms", len(writes))
    return out


def snapshot(w) -> dict:
    """Counters the traced phase is differenced against."""
    snap: dict = {}
    if hasattr(w, "views"):
        snap["views"] = {
            f: sum(getattr(v.stats, f) for v in w.views.values()) for f in VIEW_COUNTS
        }
    if hasattr(w, "server"):
        snap["status"] = w.conns[0].status()["stats"]
        snap["cpu"] = proc_cpu_seconds(w.server.pid)
    return snap


# -- the twin: api, engine.vectorized, engine.interning, objects ------------------

def twin_probes(w, db, session, k, indices, out) -> float:
    """Steady ops on the twin, each in its own span tree; returns their p50 (ms)."""
    read = w.reader(session)
    engine = session.engine
    for i in itertools.islice(indices, 3):
        read(i)
    tr = Spans()
    tr.patch(engine, "run", "engine.run")
    counts = dict.fromkeys(VEC_COUNTS, 0)
    hits, misses, compiles = engine.plan_hits, engine.plan_misses, engine.vectorized_compiles()
    rows: list = []
    try:
        for i in itertools.islice(indices, k):
            with tr.op(i):
                rows.extend(read(i, tr))
            for f in VEC_COUNTS:
                counts[f] += getattr(engine.last_stats, f, 0)
    finally:
        tr.unpatch()
    for name, span in (("api.execute_ms", "api.execute"), ("api.fetch_ms", "api.fetch"),
                       ("engine.vectorized.run_ms", "engine.run")):
        out[name] = metric(*span_ms(tr, span))
    for f in VEC_COUNTS:
        out[f"engine.vectorized.{f}"] = metric(counts[f] / k, "count/op", k)
    out["engine.vectorized.compiles"] = metric(
        (engine.vectorized_compiles() - compiles) / k, "count/op", k)
    out["engine.rewrite.plan_hits"] = metric((engine.plan_hits - hits) / k, "count/op", k)
    out["engine.rewrite.plan_misses"] = metric((engine.plan_misses - misses) / k, "count/op", k)
    out["engine.interning.table_size"] = metric(engine.interner.size, "count", 1)
    object_probes(rows, 1 if w.smoke else 5, out)
    return ms(list(tr.op_seconds().values()))


def object_probes(rows: list, reps: int, out: dict) -> None:
    """Conversion cost per 1000 of the workload's own result rows."""
    values = [from_python(r) for r in rows]
    wire = [to_jsonable(v) for v in values]
    for name, fn, items in (
        ("objects.from_python_us_per_krow", from_python, rows),
        ("objects.to_python_us_per_krow", to_python, values),
        ("objects.to_jsonable_us_per_krow", to_jsonable, values),
        ("objects.from_jsonable_us_per_krow", from_jsonable, wire),
    ):
        each = median_us(lambda: [fn(x) for x in items], reps)
        out[name] = metric(each / max(1, len(items)) * 1e3, "us", len(items) * reps)


def commit_probes(w, db, session, k, indices, out) -> float:
    """Commits on the view-free twin, and what the next read pays for them."""
    read = w.reader(session)
    commits, first, steady = [], [], []
    for batch in w.write_batches[:k]:
        for mutate in (db.insert, db.delete):
            t0 = perf_counter()
            mutate(w.collection, batch)
            commits.append(perf_counter() - t0)
            first += op_seconds(read, [next(indices)])
            steady += op_seconds(read, [next(indices)])
    out["api.commit_ms"] = metric(ms(commits), "ms", len(commits))
    out["api.env_reintern_ms"] = metric(ms(first) - ms(steady), "ms", len(first))
    return ms(commits)


def backend_probes(w, db, twin_ms, k, indices, out) -> None:
    """The same ops through the paths nobody defaults to, against vectorized."""
    def steady_ms(session, on_op=None) -> float:
        read = w.reader(session)
        op_seconds(read, itertools.islice(indices, 3))
        return ms(op_seconds(read, itertools.islice(indices, k), on_op))

    with Session(db, engine=Engine(backend="vectorized", flat=False)) as objects:
        out["engine.vectorized.object_ratio"] = metric(steady_ms(objects) / twin_ms, "ratio", k)

    with connect(db, backend="parallel") as parallel:
        tasks = fallbacks = 0

        def count(_i) -> None:
            nonlocal tasks, fallbacks
            tasks += parallel.engine.last_stats.tasks
            fallbacks += parallel.engine.last_stats.fallback_runs

        try:
            ratio = steady_ms(parallel, count) / twin_ms
        finally:
            parallel.engine.close()
    out["engine.parallel.thread_ratio"] = metric(ratio, "ratio", k)
    out["engine.parallel.tasks"] = metric(tasks / k, "count/op", k)
    out["engine.parallel.fallback_runs"] = metric(fallbacks / k, "count/op", k)

    with connect(db, backend="auto") as auto:
        try:
            ratio = steady_ms(auto) / twin_ms
            routes, reroutes = auto.engine.router_counters()
            accuracy = [row["ratio"] for row in auto.engine.router_stats()["accuracy"]]
        finally:
            auto.engine.close()
    out["engine.router.auto_ratio"] = metric(ratio, "ratio", k)
    out["engine.router.routes"] = metric(routes, "count", 1)
    out["engine.router.reroutes"] = metric(reroutes, "count", 1)
    out["engine.router.predicted_over_actual"] = metric(
        statistics.median(accuracy) if accuracy else 0.0, "ratio", len(accuracy))


def obs_probes(w, session, k, indices, out) -> None:
    read = w.reader(session)
    on, off, analyzed = [], [], []
    try:
        for _ in range(k):
            TRACER.enable()
            on += op_seconds(read, [next(indices)])
            TRACER.disable()
            off += op_seconds(read, [next(indices)])
    finally:
        TRACER.disable()
        TRACER.clear()
    for _ in range(k):
        runnable, params = read.pick(next(indices))
        t0 = perf_counter()
        session.explain_analyze(runnable, params)
        analyzed.append(perf_counter() - t0)
    out["obs.trace_overhead_ratio"] = metric(ms(on) / ms(off), "ratio", k)
    out["obs.explain_analyze_ratio"] = metric(ms(analyzed) / out["api.execute_ms"]["value"],
                                              "ratio", k)
    out["obs.metrics_scrape_ms"] = metric(median_us(METRICS.as_dict, k) / 1e3, "ms", k)


# -- templates: nra, api prepare, engine.rewrite, compile, intern load ------------

TEMPLATE = {
    "api.elaborate_us": "us", "nra.pretty_us": "us", "nra.parse_us": "us",
    "nra.typecheck_us": "us", "engine.rewrite.cold_ms": "ms", "engine.rewrite.hit_us": "us",
    "engine.rewrite.rules_fired": "count", "engine.vectorized.compile_ms": "ms",
    "api.prepare_cold_ms": "ms",
}


def template_probes(w, db, k, out) -> None:
    """Cold costs of the workload's statement(s), a fresh engine per repetition."""
    schema = db.schema()
    seen: dict = {key: [] for key in TEMPLATE}
    reps = max(1, k // 4)
    for _ in range(reps):
        for query in w.probe_queries():
            t0 = perf_counter()
            elaborated = query.elaborate(schema)
            seen["api.elaborate_us"].append((perf_counter() - t0) * 1e6)
            template = elaborated.expr
            types = dict(schema)
            types.update({param_var(n): t for n, t in elaborated.params.items()})
            text = pretty(template)
            seen["nra.pretty_us"].append(median_us(lambda: pretty(template), 3))
            seen["nra.parse_us"].append(median_us(lambda: parse(text), 3))
            seen["nra.typecheck_us"].append(median_us(lambda: infer(template, types), 3))
            engine = Engine(backend="vectorized")
            t0 = perf_counter()
            plan = engine.optimize(template)
            t1 = perf_counter()
            engine.explain_plan(template, backend="vectorized")
            t2 = perf_counter()
            seen["engine.rewrite.cold_ms"].append((t1 - t0) * 1e3)
            seen["engine.vectorized.compile_ms"].append((t2 - t1) * 1e3)
            seen["engine.rewrite.hit_us"].append(median_us(lambda: engine.optimize(template), 50))
            seen["engine.rewrite.rules_fired"].append(len(plan.firings))
        for query in w.probe_queries():
            with connect(db) as fresh:
                t0 = perf_counter()
                fresh.prepare(query)
                seen["api.prepare_cold_ms"].append((perf_counter() - t0) * 1e3)
    for key, unit in TEMPLATE.items():
        value = statistics.mean if unit == "count" else statistics.median
        out[key] = metric(value(seen[key]), unit, len(seen[key]))
    loads = []
    for _ in range(reps):
        engine = Engine(backend="vectorized")
        t0 = perf_counter()
        for value in db.environment().values():
            engine.intern(value)
        loads.append(perf_counter() - t0)
    out["engine.interning.load_ms"] = metric(ms(loads), "ms", reps)


# -- engine.incremental -----------------------------------------------------------

INCREMENTAL = {
    "insert_apply_ms": "ms", "delete_apply_ms": "ms", "recompute_ms": "ms",
    "delta_over_recompute": "ratio", "rederive_ratio": "ratio",
    **dict.fromkeys(VIEW_COUNTS, "count/op"),
}


def incremental_probes(w, tr, before, commit_ms, k, out) -> None:
    """View maintenance against a cold recompute on the twin; 0 without views."""
    if not hasattr(w, "views"):
        out.update({f"engine.incremental.{f}": metric(0.0, unit, 0)
                    for f, unit in INCREMENTAL.items()})
        return
    seconds = tr.op_seconds()
    commits = {half: [s for op, s in seconds.items() if str(op).startswith("write-")
                      and str(op).endswith(f"-{half}")] for half in (0, 1)}
    applies = {}
    for half, name in ((0, "insert_apply_ms"), (1, "delete_apply_ms")):
        applies[name] = ms(commits[half]) - commit_ms
        out[f"engine.incremental.{name}"] = metric(applies[name], "ms", len(commits[half]))
    after = snapshot(w)["views"]
    n_commits = len(commits[0]) + len(commits[1])
    delta = {f: after[f] - before["views"][f] for f in VIEW_COUNTS}
    for f in VIEW_COUNTS:
        out[f"engine.incremental.{f}"] = metric(delta[f] / n_commits, "count/op", n_commits)
    out["engine.incremental.rederive_ratio"] = metric(
        delta["dred_rederives"] / max(1, delta["dred_overdeletes"]), "ratio", n_commits)
    twin = w.twin_db()
    recomputes = []
    for batch in w.write_batches[:max(1, k // 4)]:
        twin.insert("edges", batch)
        with connect(twin) as cold:
            t0 = perf_counter()
            for query in w.view_queries().values():
                cold.execute(query).value
            recomputes.append(perf_counter() - t0)
        twin.delete("edges", batch)
    out["engine.incremental.recompute_ms"] = metric(ms(recomputes), "ms", len(recomputes))
    out["engine.incremental.delta_over_recompute"] = metric(
        statistics.mean(applies.values()) / ms(recomputes), "ratio", len(recomputes))


# -- service ----------------------------------------------------------------------

SERVICE = {
    "service.protocol.encode_us_per_krow": "us", "service.protocol.decode_us_per_krow": "us",
    "service.protocol.reply_bytes_per_row": "bytes", "service.protocol.request_bytes": "bytes",
    "service.client.ping_us": "us", "service.client.prepare_ms": "ms",
    "service.client.first_chunk_ms": "ms", "service.client.fetch_rest_ms": "ms",
    "service.server.queries": "count/op", "service.server.rows_streamed": "count/op",
    "service.server.busy_rejections": "count/op", "service.server.errors": "count/op",
    "service.server.cpu_s_per_kquery": "s", "service.server.socket_tax_ms": "ms",
    "service.server.contention_ratio": "ratio", "service.server.budget_coverage": "ratio",
}


def service_probes(w, tr, untraced, before, twin_ms, k, out) -> None:
    """The wire, the client SDK and the server seen from outside; 0 in-process."""
    if not hasattr(w, "server"):
        out.update({name: metric(0.0, unit, 0) for name, unit in SERVICE.items()})
        return
    conn = w.conns[0]
    traced_ops = sum(1 for row in tr.rows if row["name"] == "op")
    stats = conn.status()["stats"]
    cpu = proc_cpu_seconds(w.server.pid) - before["cpu"]
    for f in SERVER_COUNTS:
        out[f"service.server.{f}"] = metric(
            (stats[f] - before["status"][f]) / traced_ops, "count/op", traced_ops)
    queries = stats["queries"] - before["status"]["queries"]
    out["service.server.cpu_s_per_kquery"] = metric(cpu / queries * 1e3, "s", queries)

    # The codec, replayed on the frames the traced phase captured.
    requests = [f for f in w.frames["sent"] if f.get("op") == "execute_statement"]
    replies = [f for f in w.frames["received"] if f and f.get("rows")]
    rows = sum(len(f["rows"]) for f in replies)
    bodies = [encode_frame(f)[HEADER_BYTES:] for f in replies]
    encode = median_us(lambda: [encode_frame(f) for f in replies], 3)
    decode = median_us(lambda: [decode_body(b) for b in bodies], 3)
    unrow = median_us(lambda: [to_python_row(o) for f in replies for o in f["rows"]], 3)
    out["service.protocol.encode_us_per_krow"] = metric(encode / rows * 1e3, "us", rows)
    out["service.protocol.decode_us_per_krow"] = metric(decode / rows * 1e3, "us", rows)
    out["service.protocol.reply_bytes_per_row"] = metric(
        sum(map(len, bodies)) / rows, "bytes", rows)
    out["service.protocol.request_bytes"] = metric(
        statistics.median(len(encode_frame(f)) for f in requests), "bytes", len(requests))

    ping = median_us(conn.ping, 10 * k)
    out["service.client.ping_us"] = metric(ping, "us", 10 * k)
    prepares = []
    for _ in range(max(1, k // 4)):
        with conn.session() as fresh:
            t0 = perf_counter()
            fresh.prepare(w.statement())
            prepares.append(perf_counter() - t0)
    out["service.client.prepare_ms"] = metric(ms(prepares), "ms", len(prepares))
    for name, span in (("first_chunk_ms", "service.client.execute"),
                       ("fetch_rest_ms", "service.client.fetch")):
        out[f"service.client.{name}"] = metric(*span_ms(tr, span))

    # One caller alone, against the in-process twin and against two callers.
    alone = w.phase(PROBE_AT, 5 * k, callers=[0])
    alone_ms = read_ms(alone)
    out["service.server.socket_tax_ms"] = metric(alone_ms - twin_ms, "ms", 5 * k)
    out["service.server.contention_ratio"] = metric(read_ms(untraced) / alone_ms, "ratio", 5 * k)
    # What the named steps add up to, over what one caller alone observes;
    # the rest is queue, lock and GIL wait nobody has named yet.
    param = median_us(lambda: to_jsonable(from_python(0)), 50)
    named_us = (
        param + ping + out["api.execute_ms"]["value"] * 1e3
        + (out["objects.to_jsonable_us_per_krow"]["value"] * rows / 1e3
           + encode + decode + unrow) / len(replies)
    )
    out["service.server.budget_coverage"] = metric(named_us / 1e3 / alone_ms, "ratio", 5 * k)
