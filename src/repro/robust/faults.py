"""Deterministic, replayable fault injection.

Every failure path the robustness layer handles — a crashing client, a
formula blow-up, a hung or killed worker — is exercised through a
:class:`FaultPlan`: an ordered set of :class:`FaultRule` values keyed
on the *site names* the codebase already uses for its observability
spans (``"forward_run"``, ``"extract"``, ``"choose"``, ``"backward"``)
plus the bench-harness unit sites (``"unit"`` and
``"unit:<benchmark>:<analysis>:<index>"``) and the serving layer's
sites (``"serve.worker"`` — evaluated inside a pool worker per
request; ``"serve.worker_kill"`` — a ``corrupt`` match tells the
supervisor to SIGKILL the in-flight worker mid-solve;
``"serve.reply"`` — a ``corrupt`` match truncates the daemon's reply
bytes; ``"serve.transport"`` — evaluated client-side per attempt;
``"store.compact.write"`` / ``"store.compact.rename"`` /
``"store.compact.done"`` — the compaction kill-matrix windows).

Rules fire on deterministic per-process hit counters — "the Nth time
this site is reached" — and can additionally be pinned to a work-unit
*attempt* number, which is the worker-independent way to say "fail the
first attempt, succeed on retry" (hit counters live per process, and a
retried unit may land on any worker).  A plan is therefore replayable:
the same plan on the same workload fires at the same sites in the same
order, and each firing emits a ``fault_injected`` trace event.

Actions:

``raise``
    Raise the configured exception (:class:`InjectedFault` by default;
    ``error="explosion"`` raises the real
    :class:`~repro.core.formula.FormulaExplosion` so the degradation
    ladder is exercised end to end).

``delay``
    Sleep for ``delay`` seconds (a slow dependency / GC pause stand-in;
    with a cooperative deadline installed this is how deadline overruns
    are simulated).

``kill``
    ``SIGKILL`` the current process — only meaningful inside a worker
    process, whose lease the scheduler's parent then releases.

``corrupt``
    Do not raise; instead :func:`inject` returns the string
    ``"corrupt"`` and the call site opts in to producing damaged output
    (the bench worker truncates its unit records, which its integrity
    check turns into a retried failure).

Plans install ambiently (:class:`fault_scope`), mirroring
:mod:`repro.robust.budget`; with no plan installed :func:`inject` is a
single global read.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as obs

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "current_plan",
    "fault_scope",
    "inject",
]


class InjectedFault(RuntimeError):
    """The exception a ``raise`` rule throws by default — deliberately
    *not* one of the solver's own exception types, so containment of
    unexpected client errors is what gets tested."""


def _error_class(name: str):
    if name == "injected":
        return InjectedFault
    if name == "explosion":
        from repro.core.formula import FormulaExplosion

        return FormulaExplosion
    if name == "connection":
        # An OSError subclass: what a flaky transport raises, so the
        # serve client's retry-on-OSError path is what gets exercised.
        return ConnectionError
    raise ValueError(f"unknown fault error kind {name!r}")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic trigger: fire ``action`` at ``site`` on hits
    ``at .. at + times - 1`` (1-based; ``times=None`` fires forever)."""

    site: str
    action: str  # "raise" | "delay" | "kill" | "corrupt"
    at: int = 1
    times: Optional[int] = 1
    error: str = "injected"  # for "raise": "injected" | "explosion"
    delay: float = 0.0  # for "delay": seconds to sleep
    attempt: Optional[int] = None  # fire only on this unit attempt

    _ACTIONS = ("raise", "delay", "kill", "corrupt")

    def __post_init__(self):
        if self.action not in self._ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at < 1:
            raise ValueError("'at' is a 1-based hit index")
        _error_class(self.error)  # validate eagerly

    @classmethod
    def from_spec(cls, spec: str) -> "FaultRule":
        """Parse ``site:action[:key=value,...]``.

        Examples: ``backward:raise:error=explosion,times=2``,
        ``forward_run:delay:delay=0.05,at=3``, ``unit:kill:attempt=0``.
        """
        parts = spec.split(":", 2)
        if len(parts) < 2:
            raise ValueError(
                f"bad fault spec {spec!r} (want site:action[:key=value,...])"
            )
        site, action = parts[0], parts[1]
        kwargs: Dict[str, object] = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if key in ("at", "attempt"):
                    kwargs[key] = int(value)
                elif key == "times":
                    kwargs[key] = None if value.lower() == "none" else int(value)
                elif key == "delay":
                    kwargs[key] = float(value)
                elif key == "error":
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault spec key {key!r}")
        return cls(site=site, action=action, **kwargs)


class FaultPlan:
    """An ordered rule set with per-process hit counters.

    Plans are immutable-by-convention and pickle *without* their
    counters, so a shipped plan starts counting afresh wherever it is
    unpickled; the scheduler's workers also reset them per task."""

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._hits: Dict[int, int] = {}

    @classmethod
    def from_specs(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        return cls([FaultRule.from_spec(spec) for spec in specs], seed=seed)

    def __reduce__(self):
        return (FaultPlan, (self.rules, self.seed))

    def reset(self) -> None:
        """Forget all hit counters (a fresh replay)."""
        self._hits.clear()

    def inject(self, site: str, attempt: Optional[int] = None) -> Optional[str]:
        """Evaluate every rule against one arrival at ``site``.

        Raising and killing rules take effect immediately; a matched
        ``corrupt`` rule is reported through the return value
        (``"corrupt"``) for the call site to act on."""
        fired: Optional[str] = None
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.attempt is not None and attempt != rule.attempt:
                continue
            hit = self._hits.get(index, 0) + 1
            self._hits[index] = hit
            if hit < rule.at:
                continue
            if rule.times is not None and hit >= rule.at + rule.times:
                continue
            obs.event(
                "fault_injected",
                site=site,
                action=rule.action,
                hit=hit,
                rule=index,
            )
            if rule.action == "delay":
                time.sleep(rule.delay)
            elif rule.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif rule.action == "raise":
                raise _error_class(rule.error)(
                    f"injected fault at {site} (hit {hit}, rule {index})"
                )
            else:  # corrupt
                fired = "corrupt"
        return fired

    def __len__(self) -> int:
        return len(self.rules)


class _Scope:
    __slots__ = ("plan", "attempt")

    def __init__(self, plan: FaultPlan, attempt: Optional[int]):
        self.plan = plan
        self.attempt = attempt


#: The ambient fault scope, or ``None`` (no injection — the default).
_CURRENT: Optional[_Scope] = None


def current_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None``."""
    scope = _CURRENT
    return scope.plan if scope is not None else None


def inject(site: str) -> Optional[str]:
    """Report one arrival at ``site`` to the ambient plan (no-op —
    one global read — when no plan is installed)."""
    scope = _CURRENT
    if scope is None:
        return None
    return scope.plan.inject(site, attempt=scope.attempt)


class fault_scope:
    """Install a plan (with an optional unit-attempt number) for a
    ``with`` block; scopes nest like :class:`~repro.robust.budget.budget_scope`."""

    def __init__(self, plan: Optional[FaultPlan], attempt: Optional[int] = None):
        self._scope = None if plan is None else _Scope(plan, attempt)
        self._previous: Optional[_Scope] = None

    def __enter__(self) -> Optional[FaultPlan]:
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self._scope
        return self._scope.plan if self._scope is not None else None

    def __exit__(self, *exc) -> bool:
        global _CURRENT
        _CURRENT = self._previous
        return False
