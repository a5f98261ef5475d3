"""Budgeted-search primitives shared by the exponential solvers.

Every exact solver in this package takes an explicit budget and returns a
three-valued answer: ``yes`` with a witness, a proven ``no``, or ``unknown``
when the budget ran out first.  A ``Budget`` is per-call mutable state and is
never shared between top-level solver invocations.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Literal

DEFAULT_NODE_BUDGET = 10_000_000


class OutOfBudget(Exception):
    """Raised internally when a search exceeds its node or wall-clock budget."""


class _HandOver(Exception):
    """A search spent its allowance without settling the instance, and its
    caller hands the instance over to another route."""


@dataclass
class Budget:
    """Search allowance measured in explored nodes and (optionally) wall-clock ms."""

    max_nodes: int = DEFAULT_NODE_BUDGET
    max_ms: float | None = None
    spent: int = 0
    _deadline: float | None = field(default=None, repr=False)
    _next_clock: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.max_ms is not None:
            self._deadline = time.monotonic() + self.max_ms / 1000.0

    def spend(self, amount: int = 1) -> None:
        """Consume ``amount`` search nodes; raise OutOfBudget once exhausted.

        Wall-clock checks are comparatively expensive, so the clock is read
        at the first charge and then once per 2,048 nodes; once the deadline
        has passed, every charge reads it and raises."""
        self.spent += amount
        if self.spent > self.max_nodes:
            raise OutOfBudget(f"node budget of {self.max_nodes} exhausted")
        if self._deadline is not None and self.spent >= self._next_clock:
            if time.monotonic() >= self._deadline:
                raise OutOfBudget(f"time budget of {self.max_ms} ms exhausted")
            self._next_clock = self.spent + 2048


def as_budget(budget: Budget | int | None) -> Budget:
    """Coerce ``None`` (defaults) or a bare node count into a fresh Budget."""
    if budget is None:
        return Budget()
    if isinstance(budget, int):
        return Budget(max_nodes=budget)
    return budget


Status = Literal["yes", "no", "unknown"]


@dataclass(frozen=True)
class Decision:
    """Three-valued search outcome.  ``witness`` is set when status is yes;
    a "no" may carry a certificate too (``trees.decide_sgc``'s refutation)."""

    status: Status
    witness: Any = None

    def __bool__(self) -> bool:
        return self.status == "yes"
