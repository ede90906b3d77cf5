"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a *replayable* failure schedule: a list of
:class:`FaultAction` records saying which fault to inject — scribble
over the next disk-cache entry, drop a TCP connection mid-response.
Because the schedule is data, a chaos test that fails replays
*identically*.

Consumers pull matching actions with :meth:`FaultPlan.take`; an action
fires **once** (consumption is tracked per plan instance, thread-safe),
so a plan with one ``drop_connection`` drops exactly one connection.
:meth:`FaultPlan.reset` re-arms a plan for the next run.

Injection points (each consumer documents its own semantics):

``corrupt_cache``
    :class:`~repro.serve.cache.SolveCache` truncates/garbles the next
    disk-tier pickle it writes (a torn write); the subsequent load must
    quarantine it and continue as a miss.
``drop_connection``
    The TCP transport closes the client connection just before writing
    the next solve response; the service and batching worker must
    survive.

Plans reach the serve tier two ways: ``SolverService(fault_plan=...)``
(or ``SolveCache(fault_plan=...)`` for a cache alone) for in-process
callers, or the ``REPRO_FAULT_PLAN`` environment variable
(a JSON action list, or ``@/path/to/plan.json``) for subprocesses and
servers — :func:`env_plan` parses it once and hands every consumer in
the process the *same* instance, so consumption is global.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass
from typing import Iterable

__all__ = [
    "ENV_VAR",
    "FaultAction",
    "FaultPlan",
    "env_plan",
]

#: environment hook: JSON action list, or ``@path`` to a JSON file
ENV_VAR = "REPRO_FAULT_PLAN"

#: action kinds the shipped consumers understand
KNOWN_KINDS = ("corrupt_cache", "drop_connection")


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault (see the module docstring for kind semantics)."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {list(KNOWN_KINDS)}"
            )


class FaultPlan:
    """An ordered, consumable schedule of :class:`FaultAction` records.

    >>> plan = FaultPlan([FaultAction("drop_connection")])
    >>> [a.kind for a in plan.take("drop_connection")]
    ['drop_connection']
    >>> plan.take("drop_connection")  # fired once, now spent
    []
    >>> plan.reset()
    >>> len(plan.take("drop_connection"))
    1
    """

    def __init__(self, actions: Iterable[FaultAction] = ()) -> None:
        self.actions: tuple[FaultAction, ...] = tuple(actions)
        self._fired = [False] * len(self.actions)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a JSON action list (the :data:`ENV_VAR` wire format)."""
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("fault plan JSON must be a list of action objects")
        return cls(FaultAction(**item) for item in data)

    def to_json(self) -> str:
        """Serialise the schedule (consumption state is *not* included)."""
        return json.dumps([asdict(a) for a in self.actions])

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #
    def take(self, kind: str) -> list[FaultAction]:
        """Consume and return every not-yet-fired action of ``kind``.
        Thread-safe; each action fires at most once."""
        out: list[FaultAction] = []
        with self._lock:
            for i, action in enumerate(self.actions):
                if not self._fired[i] and action.kind == kind:
                    self._fired[i] = True
                    out.append(action)
        return out

    def pending(self) -> int:
        """Number of actions that have not fired yet."""
        with self._lock:
            return self._fired.count(False)

    def fired(self) -> list[FaultAction]:
        """The actions that have fired, in schedule order."""
        with self._lock:
            return [a for a, f in zip(self.actions, self._fired) if f]

    def reset(self) -> None:
        """Re-arm every action (for the next run of a reused plan)."""
        with self._lock:
            self._fired = [False] * len(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({len(self.actions)} actions, {self.pending()} pending)"


# --------------------------------------------------------------------- #
# environment hook
# --------------------------------------------------------------------- #
_env_lock = threading.Lock()
_env_cache: tuple[str, FaultPlan] | None = None


def env_plan() -> FaultPlan | None:
    """The process-wide plan from :data:`ENV_VAR`, or ``None`` if unset.

    Parsed once per distinct variable value and *shared*: every consumer
    in the process draws from the same consumption state, so an action
    fires exactly once no matter which subsystem sees it first.  An
    unparsable value raises ``ValueError`` (a chaos harness misconfig
    should be loud, not silently fault-free).
    """
    global _env_cache
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    with _env_lock:
        if _env_cache is not None and _env_cache[0] == raw:
            return _env_cache[1]
        text = raw
        if raw.startswith("@"):
            with open(raw[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        plan = FaultPlan.from_json(text)
        _env_cache = (raw, plan)
        return plan
