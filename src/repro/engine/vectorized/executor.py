"""The vectorized evaluator: compiled set-at-a-time plans, executed.

:class:`VectorizedEvaluator` is the engine's compiling evaluation backend
and mirrors the reference interpreter's API: ``evaluate`` / ``run`` over an
optional environment and argument.  It owns one :class:`~.batch.BatchContext`
(intern table, join-index cache, strategy statistics) and a structural compile
cache, so every run through the same evaluator shares its compiled plans, one
intern table and all loop-invariant join indexes.
"""

from __future__ import annotations

from typing import Optional

from ...nra.ast import Expr
from ...nra.errors import NRAEvalError
from ...nra.externals import EMPTY_SIGMA, Signature
from ...objects.values import Value
from ..interning import InternTable, intern_env
from .batch import BatchContext, VecStats
from .compiler import Compiled, PlanCompiler, VFunction
from .plan import PlanNode


class VectorizedEvaluator:
    """Compile-once evaluation of NRA expressions, caches shared across runs."""

    def __init__(
        self,
        sigma: Signature = EMPTY_SIGMA,
        interner: Optional[InternTable] = None,
        flat: bool = True,
    ) -> None:
        self.interner = interner if interner is not None else InternTable()
        # ``flat`` selects the dense-id array kernels where shapes allow
        # (see :mod:`.flat`); ``False`` pins every kernel to the object
        # path -- the benchmark baseline and an escape hatch.
        self.ctx = BatchContext(self.interner, sigma, use_flat=flat)
        self.compiler = PlanCompiler(self.ctx)

    @property
    def stats(self) -> VecStats:
        return self.ctx.stats

    # -- compilation --------------------------------------------------------------

    def compile(self, e: Expr) -> Compiled:
        """Compile (or fetch the cached plan for) an expression."""
        return self.compiler.compile(e)

    def clear_caches(self) -> None:
        """Drop the compile cache and every set's record (results unaffected).

        The intern table is deliberately kept: interned values back ``id``-
        keyed equality across the engine.  This is what ``Engine.clear_plans`` calls for long-lived
        engines serving many ad-hoc queries.
        """
        self.compiler.clear_cache()
        self.ctx.clear_indexes()

    def plan(self, e: Expr) -> PlanNode:
        """The set-at-a-time plan chosen for ``e`` (for explain/tests)."""
        return self.compile(e).plan

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, e: Expr, env: Optional[dict] = None):
        """Evaluate ``e``; returns an interned value or a function denotation."""
        return self.compile(e).fn(intern_env(self.interner, env))

    def run(
        self,
        e: Expr,
        arg: Optional[Value] = None,
        env: Optional[dict] = None,
    ) -> Value:
        """Evaluate ``e`` and, if ``arg`` is given, apply the result to it."""
        return self.run_compiled(self.compile(e), arg, env)

    def run_compiled(
        self,
        c: Compiled,
        arg: Optional[Value] = None,
        env: Optional[dict] = None,
    ) -> Value:
        """:meth:`run` for an entry :meth:`compile` returned earlier.

        No compile-cache lookup (which hashes the whole tree); a new run
        starts for the once-cells all the same.
        """
        self.compiler.start_run()
        d = c.fn(intern_env(self.interner, env))
        if arg is not None:
            if not isinstance(d, VFunction):
                raise NRAEvalError(f"application: expected a function, got {d!r}")
            d = d(self.interner.intern(arg))
        if isinstance(d, VFunction):
            raise NRAEvalError("result is a function; supply an argument to run it")
        return d
