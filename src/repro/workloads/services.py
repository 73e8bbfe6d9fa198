"""Service-shaped workloads: relations mapped through oracle externals.

The paper's language is ``NRA(Sigma)``: queries may call *external* functions
from a signature ``Sigma`` -- oracles the evaluator treats as opaque.  In a
deployed query service those oracles are exactly the expensive part: remote
lookups, feature stores, model invocations -- calls whose cost is latency,
not CPU.  The workloads here model that regime so the engine benchmarks can
measure what the parallel backend is *for*: an ``ext`` over a relation whose
body calls an external of configurable simulated latency is one independent
oracle call per element (the paper keeps ``ext`` primitive precisely because
all its applications are independent -- a single parallel step), and the
sharded backend overlaps those calls across its worker pool while every
element-at-a-time or set-at-a-time backend pays them serially.

With ``latency=0`` the external is a pure, cheap integer transform, which is
what the differential and property tests use: same queries, same values, no
clock in the loop.
"""

from __future__ import annotations

import time
from functools import partial

from ..nra.ast import Apply, Ext, ExternalCall, Lambda, Pair, Singleton, Var
from ..nra.errors import NRAEvalError
from ..nra.externals import ExternalFunction, Signature
from ..objects.types import BASE, SetType
from ..objects.values import BaseVal, SetVal, Value

#: The input type of the enrichment workload: a set of request identifiers.
REQUESTS_T = SetType(BASE)


def _enrich_impl(latency: float, v: Value) -> Value:
    """The oracle: a deterministic transform behind simulated call latency."""
    if not isinstance(v, BaseVal) or not isinstance(v.value, int):
        raise NRAEvalError(f"enrich expects an integer atom, got {v!r}")
    if latency > 0.0:
        time.sleep(latency)
    return BaseVal(v.value * 2 + 1)


def enrichment_sigma(latency: float = 0.0) -> Signature:
    """A signature with one external, ``enrich : D -> D``.

    ``latency`` (seconds) is slept per call, modelling a remote service
    round-trip; ``0`` makes the oracle pure compute (the testing default).
    """
    return Signature(
        [
            ExternalFunction(
                "enrich",
                BASE,
                BASE,
                partial(_enrich_impl, latency),
                "deterministic integer transform behind simulated latency",
            )
        ]
    )


def enrichment_query() -> Lambda:
    """``{D} -> {D x D}``: pair every request with its oracle response.

    ``ext(\\x. {(x, enrich(x))})`` -- a bulk map whose per-element cost is
    one external call.  Union-distributive by shape, so the parallel backend
    shards the request set and overlaps the calls; the benchmark suite's
    parallel acceptance row measures exactly this query.
    """
    body = Singleton(Pair(Var("x"), ExternalCall("enrich", Var("x"))))
    return Lambda("s", REQUESTS_T, Apply(Ext(Lambda("x", BASE, body)), Var("s")))


def request_ids(n: int) -> SetVal:
    """The request set ``{0, ..., n-1}``."""
    return SetVal(BaseVal(i) for i in range(n))


def enrichment_workload(n: int, latency: float = 0.0):
    """Convenience bundle: ``(sigma, query, input)`` for benchmarks and tests."""
    return enrichment_sigma(latency), enrichment_query(), request_ids(n)
