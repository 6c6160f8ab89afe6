"""Shared work budgets: wall-clock deadlines and step counters."""

from __future__ import annotations

import time


class BudgetExceeded(RuntimeError):
    """A computation ran past its configured step or time budget."""


class Budget:
    """Tracks a step count and an optional deadline.

    Long-running algorithms call tick() at natural unit-of-work boundaries
    (one S-pair, one reduction, one round; tick(n) counts n units) and
    abort with BudgetExceeded instead of running away.  A Budget with no
    limits never trips.
    """

    __slots__ = ("max_steps", "seconds", "steps", "_deadline")

    def __init__(self, seconds: float | None = None, max_steps: int | None = None):
        # NaN compares false; a bool is no number of seconds or steps
        if seconds is not None and (type(seconds) is bool or not seconds >= 0):
            raise ValueError(f"seconds must be a number >= 0, not {seconds!r}")
        if max_steps is not None and (type(max_steps) is not int or max_steps < 0):
            raise ValueError(f"max_steps must be an integer >= 0, not {max_steps!r}")
        self.seconds = seconds
        self.max_steps = max_steps
        self.steps = 0
        self._deadline = None if seconds is None else time.monotonic() + seconds

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(f"step budget exceeded ({self.max_steps} steps)")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(f"time budget exceeded ({self.seconds:g}s)")
