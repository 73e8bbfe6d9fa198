"""The metrics registry: instruments, collectors, exposition.

Instrument tests run against private ``MetricsRegistry`` instances so
they cannot collide with the process-wide ``METRICS`` the engines and
servers register against; the engine-integration tests at the bottom use
the real singleton and only ever assert on *deltas*.
"""

import gc

import pytest

from repro.api import Database, Q, connect
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    METRICS,
    MetricsRegistry,
)
from repro.workloads.graphs import path_graph

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

def test_counter_monotone():
    c = Counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_histogram_buckets_cumulative():
    h = Histogram("h", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(56.05)
    assert h.cumulative() == [
        (0.1, 1), (1.0, 3), (10.0, 4), (float("inf"), 5),
    ]


def test_histogram_boundary_lands_in_its_bucket():
    h = Histogram("h", buckets=(1.0, 2.0))
    h.observe(1.0)  # le="1.0" includes the bound, Prometheus-style
    assert h.cumulative()[0] == (1.0, 1)


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    h = reg.histogram("z")
    assert reg.histogram("z") is h
    assert h.buckets == tuple(sorted(DEFAULT_LATENCY_BUCKETS))


# ---------------------------------------------------------------------------
# Collectors (the compatibility shims)
# ---------------------------------------------------------------------------

class _Owner:
    def __init__(self, n: float) -> None:
        self.n = n

    def sample(self) -> dict:
        return {"repro_owner_things_total": self.n}


def test_collectors_sum_across_live_owners():
    reg = MetricsRegistry()
    a, b = _Owner(3), _Owner(4)
    reg.register_collector(a.sample)
    reg.register_collector(b.sample)
    assert reg.scraped() == {"repro_owner_things_total": 7.0}


def test_dead_owner_drops_out_of_the_scrape():
    reg = MetricsRegistry()
    a, b = _Owner(3), _Owner(4)
    reg.register_collector(a.sample)
    reg.register_collector(b.sample)
    del a
    gc.collect()
    assert reg.scraped() == {"repro_owner_things_total": 4.0}
    # and the dead ref was pruned, not just skipped
    assert len(reg._collectors) == 1


def test_plain_function_collector_is_held_strongly():
    reg = MetricsRegistry()
    reg.register_collector(lambda: {"repro_fn_total": 1})
    gc.collect()
    assert reg.scraped() == {"repro_fn_total": 1.0}


# ---------------------------------------------------------------------------
# Exposition
# ---------------------------------------------------------------------------

def test_as_dict_shape():
    reg = MetricsRegistry()
    reg.counter("repro_c_total", help="c").inc(2)
    reg.histogram("repro_h", buckets=(1.0,)).observe(0.5)
    reg.register_collector(lambda: {"repro_scraped_total": 9})
    d = reg.as_dict()
    assert d["counters"] == {"repro_c_total": 2.0, "repro_scraped_total": 9.0}
    assert set(d) == {"counters", "histograms"}
    h = d["histograms"]["repro_h"]
    assert h["count"] == 1 and h["sum"] == 0.5
    assert h["buckets"] == {"1.0": 1, "+Inf": 1}


def test_prometheus_text_exposition():
    reg = MetricsRegistry()
    reg.counter("repro_c_total", help="things done").inc(2)
    reg.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
    text = reg.render_prometheus()
    assert "# HELP repro_c_total things done" in text
    assert "# TYPE repro_c_total counter" in text
    assert "repro_c_total 2.0" in text
    assert '# TYPE repro_h_seconds histogram' in text
    assert 'repro_h_seconds_bucket{le="1.0"} 1' in text
    assert 'repro_h_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_h_seconds_sum 0.5" in text
    assert "repro_h_seconds_count 1" in text
    assert text.endswith("\n")


def test_labelled_counters_render_as_one_family():
    reg = MetricsRegistry()
    reg.counter('repro_moves_total{kind="delta"}', help="collections moved").inc(3)
    reg.counter('repro_moves_total{kind="rebuild"}', help="collections moved")
    text = reg.render_prometheus()
    assert text.count("# TYPE repro_moves_total counter") == 1
    assert text.count("# HELP repro_moves_total collections moved") == 1
    assert 'repro_moves_total{kind="delta"} 3.0' in text
    assert 'repro_moves_total{kind="rebuild"} 0.0' in text
    assert reg.as_dict()["counters"]['repro_moves_total{kind="delta"}'] == 3.0


# ---------------------------------------------------------------------------
# Engine integration (the real singleton; delta assertions only)
# ---------------------------------------------------------------------------

def test_engine_queries_feed_the_registry():
    before = METRICS.counter("repro_queries_total").value
    h = METRICS.histogram("repro_query_seconds")
    before_h = h.count
    s = connect(Database.of("g", edges=path_graph(8)))
    s.execute(Q.coll("edges").fix())
    s.execute(Q.coll("edges"))
    assert METRICS.counter("repro_queries_total").value == before + 2
    assert h.count == before_h + 2


def test_engine_scraped_counters_track_plan_cache():
    s = connect(Database.of("g", edges=path_graph(8)))
    base = METRICS.scraped()
    s.execute(Q.coll("edges"))  # miss
    s.execute(Q.coll("edges"))  # hit
    now = METRICS.scraped()
    delta = lambda k: now.get(k, 0.0) - base.get(k, 0.0)  # noqa: E731
    assert delta("repro_plan_cache_misses_total") >= 1
    assert delta("repro_plan_cache_hits_total") >= 1


def test_disabled_registry_skips_direct_instruments():
    before = METRICS.counter("repro_queries_total").value
    METRICS.enabled = False
    try:
        s = connect(Database.of("g", edges=path_graph(8)))
        s.execute(Q.coll("edges"))
    finally:
        METRICS.enabled = True
    assert METRICS.counter("repro_queries_total").value == before


def test_commits_count_how_each_collection_moved():
    """delta / rebuild advances and patched / built invariant indexes, by label."""
    def counts():
        return {
            (family, kind): METRICS.counter(f'repro_{family}_total{{kind="{kind}"}}').value
            for family, kinds in (("snapshot_advances", ("delta", "rebuild")),
                                  ("carried_indexes", ("patched", "built")))
            for kind in kinds
        }

    db = Database.of("g", edges=path_graph(8), tiny={(0, 1)})
    s = connect(db)
    reach = s.prepare(Q.coll("edges").fix().where(lambda e: e.fst == Q.param("src")))
    before = counts()
    reach.execute({"src": 0}).value              # builds the invariant index of edges
    db.insert("edges", [(7, 8)])                 # a delta; the index follows it
    db.insert("tiny", [(1, 2), (2, 3)])          # a delta larger than the collection
    assert len(reach.execute({"src": 0}).rows()) == 8
    moved = {key: value - before[key] for key, value in counts().items()}
    assert moved == {
        ("snapshot_advances", "delta"): 1, ("snapshot_advances", "rebuild"): 1,
        ("carried_indexes", "patched"): 1, ("carried_indexes", "built"): 1,
    }
    METRICS.enabled = False
    try:
        db.insert("edges", [(8, 9)])
    finally:
        METRICS.enabled = True
    assert counts() == {key: value + before[key] for key, value in moved.items()}
