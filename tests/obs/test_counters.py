"""The telemetry surface: one slotted counter type, and the names it scrapes as.

Every per-subsystem counter bag is a ``@dataclass(slots=True)`` subclass of
:class:`~repro.obs.metrics.Counters`, so its fields are a closed set -- a
misspelled counter is an ``AttributeError``, not a silent new attribute --
and the ``repro_*_total`` names a scrape exposes are fixed by those fields.
The name list below is written out on purpose: renaming a field renames a
metric someone's dashboard reads, and that must show up as a test edit.
"""

import gc
import importlib.util
from pathlib import Path

import pytest

from repro.api.session import SessionStats
from repro.engine.incremental.view import ViewStats
from repro.engine.parallel.executor import ParStats
from repro.engine.router import RouterStats
from repro.engine.vectorized.batch import VecStats
from repro.obs.metrics import Counters
from repro.service.server import ServerStats

pytestmark = pytest.mark.obs

ROOT = Path(__file__).resolve().parents[2]
BAGS = (VecStats, ParStats, ViewStats, SessionStats, ServerStats, RouterStats)

#: The engine's plan-cache counters (plain engine attributes, not a bag).
PLAN_CACHE_NAMES = [
    "repro_plan_cache_evictions_total",
    "repro_plan_cache_hits_total",
    "repro_plan_cache_misses_total",
]

#: The 40 names the four scraped bags emit: ``vec``, ``par``, ``router``
#: (engine) and ``service`` (server).
BAG_NAMES = [
    "repro_par_fallback_runs_total",
    "repro_par_shard_runs_total",
    "repro_par_tasks_total",
    "repro_par_worker_compiles_total",
    "repro_router_estimate_failures_total",
    "repro_router_joins_reordered_total",
    "repro_router_recalibrations_total",
    "repro_router_reroutes_total",
    "repro_router_route_hits_total",
    "repro_router_routes_total",
    "repro_router_runs_recorded_total",
    "repro_service_busy_rejections_total",
    "repro_service_connections_closed_total",
    "repro_service_connections_opened_total",
    "repro_service_errors_total",
    "repro_service_notifications_total",
    "repro_service_queries_total",
    "repro_service_rows_streamed_total",
    "repro_service_sessions_closed_total",
    "repro_service_sessions_opened_total",
    "repro_vec_bulk_maps_total",
    "repro_vec_bulk_selects_total",
    "repro_vec_compiled_exprs_total",
    "repro_vec_dcr_by_size_total",
    "repro_vec_dcr_trees_total",
    "repro_vec_elementwise_exts_total",
    "repro_vec_flat_dedups_total",
    "repro_vec_flat_fallbacks_total",
    "repro_vec_flat_fixpoints_total",
    "repro_vec_flat_joins_total",
    "repro_vec_flat_maps_total",
    "repro_vec_flat_rounds_total",
    "repro_vec_flat_selects_total",
    "repro_vec_full_loops_total",
    "repro_vec_hash_joins_total",
    "repro_vec_index_builds_total",
    "repro_vec_index_hits_total",
    "repro_vec_seminaive_loops_total",
    "repro_vec_seminaive_rounds_total",
    "repro_vec_sri_elementwise_total",
]


def test_the_six_bags_are_every_counters_subclass():
    gc.collect()  # dataclass(slots=True) replaces the class it decorates
    assert set(Counters.__subclasses__()) == set(BAGS)


@pytest.mark.parametrize("bag", BAGS, ids=lambda c: c.__name__)
def test_a_bag_is_slotted_and_refuses_a_misspelled_counter(bag):
    stats = bag()
    assert not hasattr(stats, "__dict__")
    field = next(iter(bag.__dataclass_fields__))
    setattr(stats, field, 1)
    with pytest.raises(AttributeError):
        setattr(stats, field + "_typo", 1)


def test_copy_since_as_dict_and_sample():
    stats = VecStats(flat_rounds=3, hash_joins=1)
    before = stats.copy()
    assert before == stats and before is not stats
    stats.flat_rounds += 4
    moved = stats.since(before)
    assert isinstance(moved, VecStats)
    assert (moved.flat_rounds, moved.hash_joins, moved.bulk_maps) == (4, 0, 0)
    assert stats.as_dict()["flat_rounds"] == 7
    assert list(stats.as_dict()) == list(VecStats.__dataclass_fields__)
    sample = stats.sample("vec")
    assert sample["repro_vec_flat_rounds_total"] == 7
    assert len(sample) == len(VecStats.__dataclass_fields__)


def test_the_scraped_names_are_the_documented_ones():
    # A small run on vectorized, parallel and auto sessions plus a server:
    # every scraped family is live at once.
    spec = importlib.util.spec_from_file_location(
        "telemetry_surface", ROOT / "tools" / "telemetry_surface.py")
    telemetry_surface = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(telemetry_surface)
    surface = telemetry_surface.surface(ROOT)
    assert len(BAG_NAMES) == 40
    assert surface["scrape_names"] == sorted(PLAN_CACHE_NAMES + BAG_NAMES)
    assert surface["server_fields"] == sorted(ServerStats.__dataclass_fields__)
    assert set(RouterStats.__dataclass_fields__) <= set(surface["router_keys"])
    for stats in surface["sessions"].values():
        assert list(stats) == list(SessionStats.__dataclass_fields__)
        assert stats["executes"] == 6 and stats["prepares"] == 1
    # Every view is maintained by delta; an earlier session's views also
    # absorb the later sessions' commits, so no one count is pinned.
    assert {name.split(".")[1] for name in surface["views"]} == {"tc", "compose"}
    for name, stats in surface["views"].items():
        assert list(stats) == list(ViewStats.__dataclass_fields__)
        assert stats["delta_applies"] > 0 and stats["fallback_recomputes"] == 0
        if name.endswith(".tc"):
            assert stats["dred_applies"] > 0
