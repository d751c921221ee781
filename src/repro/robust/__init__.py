"""Fault-tolerant solver runtime: budgets, fault injection, graceful
degradation, durable logs, and a crash-surviving parallel scheduler.

The pieces (see ``docs/ROBUSTNESS.md`` for the full story):

* :mod:`repro.robust.budget` — cooperative wall-clock/step budgets the
  forward worklists and the backward meta-analysis honour mid-loop;
* :mod:`repro.robust.faults` — deterministic, replayable fault
  injection keyed on the observability span sites;
* :mod:`repro.robust.degrade` — the beam-width degradation ladder the
  TRACER driver walks on formula explosions;
* :mod:`repro.robust.durablelog` — the crash discipline of every
  append-only log below;
* :mod:`repro.robust.leases` / :mod:`repro.robust.scheduler` — the
  lease log and the work-stealing scheduler of ``repro eval --jobs``,
  with per-task timeouts and bounded retries; the lease log is what
  ``--checkpoint`` writes and ``--resume`` reads;
* :mod:`repro.robust.clausebus` — CEGAR rounds shared between the
  scheduler's workers;
* :mod:`repro.robust.pool` — the serving daemon's supervised worker
  process;
* :mod:`repro.robust.journal` — the append-only CEGAR search journal
  behind ``--journal`` / ``--resume-journal``;
* :mod:`repro.robust.certify` — verdict certificates and their
  independent checker (``--certify-out`` / ``repro certify``).

:mod:`repro.robust.certify` is deliberately *not* re-exported here:
it imports :mod:`repro.core.selfcheck` (and through it the meta
machinery), which itself imports :mod:`repro.robust.budget` — pulling
certify in at package-import time would re-enter this partially
initialised package.  Import it as ``repro.robust.certify`` directly.
"""

from repro.robust.budget import (
    Budget,
    BudgetExceeded,
    budget_scope,
    current_budget,
)
from repro.robust.degrade import beam_ladder, run_with_degradation
from repro.robust.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    current_plan,
    fault_scope,
)
from repro.robust.journal import JournalMismatch, SearchJournal

__all__ = [
    "Budget",
    "BudgetExceeded",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "JournalMismatch",
    "SearchJournal",
    "beam_ladder",
    "budget_scope",
    "current_budget",
    "current_plan",
    "fault_scope",
    "run_with_degradation",
]
