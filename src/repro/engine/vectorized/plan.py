"""Set-at-a-time plan descriptions.

The vectorized compiler lowers every NRA expression to a closure *and* to a
:class:`PlanNode` tree describing the whole-set strategy it chose -- which
``ext`` shapes became hash joins or bulk selects, which loops run
semi-naively, which recursions share by cardinality, and where the compiler
fell back to faithful element-wise evaluation.  The plan is what
``Engine.explain_plan`` prints and what the strategy-selection tests assert
on; it carries no runtime state.

Annotations are free-form strings refining an op.  The ones the compiler
emits today: ``indexed`` (a reusable join index; on a ``select``, a
key-equality predicate answered by probing that index from the second time
the same set is selected from), ``once`` (a kernel source behind a once-cell:
evaluated at most once per run per binding of its free variables, however
many occurrences or enclosing iterations demand it), ``semi-naive`` /
``early-exit`` (loop round structure), and ``flat-columns`` -- the node was
compiled against the dense-id array kernels of
:mod:`repro.engine.vectorized.flat` (the object kernels remain its runtime
fallback, so the annotation records eligibility; ``Engine.last_stats``'s
``flat_*`` counters record what actually ran).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


#: Operator vocabulary (the values ``PlanNode.op`` ranges over).
OPS = frozenset(
    {
        "const", "var", "unit", "bool", "pair", "proj1", "proj2", "singleton",
        "union", "empty", "eq", "is-empty", "if", "lambda", "apply", "external",
        "map", "select", "hash-join", "ext", "ext-dynamic",
        "loop-seminaive", "loop-full", "dcr-by-size", "dcr-tree",
        "sri-as-loop", "sri-elementwise",
        # The sharded backend (repro.engine.parallel) wraps vectorized
        # sub-plans in these combinator nodes.
        "parallel", "shard", "combine-union",
        # Maintenance-plan trees of the incremental view-maintenance
        # subsystem (repro.engine.incremental), shown by
        # Engine.explain_plan(backend="incremental").
        "ivm-static", "ivm-base", "ivm-map", "ivm-select", "ivm-ext",
        "ivm-join", "ivm-union", "ivm-fixpoint", "ivm-recompute",
        # The fixpoint node's deletion strategy (delete/rederive), rendered
        # as explicit sub-steps under ivm-fixpoint.
        "ivm-dred-overdelete", "ivm-dred-rederive",
        # The adaptive router's "why this backend" trace, wrapped around the
        # routed backend's plan by Engine.explain_plan(backend="auto")
        # (repro.engine.router).
        "route", "route-estimate", "route-decision", "route-history",
    }
)


@dataclass(frozen=True)
class PlanNode:
    """One operator of a compiled set-at-a-time plan."""

    op: str
    detail: str = ""
    children: tuple["PlanNode", ...] = ()
    annotations: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown plan op {self.op!r}")

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and all descendants, preorder."""
        yield self
        for c in self.children:
            yield from c.walk()

    def ops(self) -> set[str]:
        """Every operator occurring in the plan (for strategy assertions)."""
        return {n.op for n in self.walk()}

    def count(self, op: str) -> int:
        return sum(1 for n in self.walk() if n.op == op)

    def __str__(self) -> str:
        return "\n".join(self._render(0))

    def _render(self, depth: int) -> list[str]:
        label = self.op
        if self.detail:
            label += f" [{self.detail}]"
        if self.annotations:
            label += " (" + ", ".join(self.annotations) + ")"
        lines = ["  " * depth + label]
        for c in self.children:
            lines.extend(c._render(depth + 1))
        return lines


def leaf(op: str, detail: str = "") -> PlanNode:
    return PlanNode(op, detail)


def node(op: str, detail: str = "", *children: PlanNode, annotations: tuple[str, ...] = ()) -> PlanNode:
    return PlanNode(op, detail, tuple(children), annotations)
