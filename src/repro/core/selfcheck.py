"""Self-checking utilities for client analyses.

Writing the backward transfer functions of a meta-analysis by hand is,
in the paper's own words, "tedious and error-prone" (Section 8).  This
module productises the validation strategy our test suite uses so that
*downstream* clients can machine-check their own analyses:

* :func:`check_wp` — requirement (2) of Section 4: for every supplied
  ``(p, d)`` pair, ``wp(command, prim)`` must hold exactly when
  ``prim`` holds of the transferred state;
* :func:`check_transfer_total` — the forward transfer function must be
  total and deterministic over the supplied pairs (the property that
  makes wp a boolean homomorphism);
* :func:`check_soundness_on_trace` — Theorem 3 on one counterexample
  trace: the current pair is covered by ``B[t]``'s result, and every
  covered abstraction indeed fails.

All functions return a list of :class:`Violation` (empty = passed), so
they slot directly into client test suites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.formula import Formula, Primitive, evaluate
from repro.core.meta import MAX_CUBES, BackwardMetaAnalysis, backward_trace
from repro.core.parametric import ParametricAnalysis
from repro.lang.ast import AtomicCommand, Trace


@dataclass(frozen=True)
class Violation:
    """One counterexample to a client-analysis contract."""

    kind: str
    command: Optional[AtomicCommand]
    prim: Optional[Primitive]
    p: object
    d: object
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] command={self.command!r} prim={self.prim!r} "
            f"p={sorted(self.p) if isinstance(self.p, frozenset) else self.p!r} "
            f"d={self.d!r}: {self.detail}"
        )


def sample_subsets(universe: Iterable[str], limit: int = 6) -> List[frozenset]:
    """A deterministic subset sample of ``universe``: exhaustive (all
    ``2^n`` subsets) while ``n <= limit``, otherwise the bottom set,
    every singleton, and the full set — enough to exercise both
    polarities of every parameter variable without exploding."""
    items = sorted(universe)
    if len(items) <= limit:
        return [
            frozenset(combo)
            for r in range(len(items) + 1)
            for combo in itertools.combinations(items, r)
        ]
    sample = [frozenset()]
    sample.extend(frozenset([item]) for item in items)
    sample.append(frozenset(items))
    return sample


def sample_pairs(
    params: Sequence[object],
    states: Iterable[object],
    limit: int = 4096,
) -> List[Tuple[object, object]]:
    """Pair up abstractions and states for :func:`check_wp` /
    :func:`check_transfer_total`, truncating the product at ``limit``
    (states vary in the outer loop so a truncated sample still covers
    many states).  Below the limit this is the full product — and the
    checks are then exhaustive proofs for the universe."""
    pairs: List[Tuple[object, object]] = []
    for d in states:
        for p in params:
            pairs.append((p, d))
            if len(pairs) >= limit:
                return pairs
    return pairs


def check_wp(
    analysis: ParametricAnalysis,
    meta: BackwardMetaAnalysis,
    commands: Iterable[AtomicCommand],
    prims: Sequence[Primitive],
    pairs: Sequence[Tuple[object, object]],
    max_violations: int = 10,
) -> List[Violation]:
    """Check requirement (2) of Section 4 over the given pairs.

    ``pairs`` is a sequence of ``(p, d)`` samples; passing the full
    cartesian product of a small universe makes the check exhaustive
    (and hence a proof for that universe).
    """
    theory = meta.theory
    violations: List[Violation] = []
    for command in commands:
        for prim in prims:
            pre = meta.wp_primitive(command, prim)
            for p, d in pairs:
                post = analysis.transfer(command, p, d)
                expected = theory.holds(prim, p, post)
                actual = evaluate(pre, theory, p, d)
                if expected != actual:
                    violations.append(
                        Violation(
                            kind="wp-mismatch",
                            command=command,
                            prim=prim,
                            p=p,
                            d=d,
                            detail=(
                                f"wp evaluates to {actual} but the primitive "
                                f"is {expected} of the post-state {post!r}"
                            ),
                        )
                    )
                    if len(violations) >= max_violations:
                        return violations
    return violations


def check_transfer_total(
    analysis: ParametricAnalysis,
    commands: Iterable[AtomicCommand],
    pairs: Sequence[Tuple[object, object]],
    max_violations: int = 10,
) -> List[Violation]:
    """Check the forward transfer is total (never raises) and
    deterministic (equal inputs give equal outputs) over ``pairs``."""
    violations: List[Violation] = []
    for command in commands:
        for p, d in pairs:
            try:
                first = analysis.transfer(command, p, d)
                second = analysis.transfer(command, p, d)
            except Exception as error:  # totality violation
                violations.append(
                    Violation(
                        kind="transfer-partial",
                        command=command,
                        prim=None,
                        p=p,
                        d=d,
                        detail=f"transfer raised {error!r}",
                    )
                )
                if len(violations) >= max_violations:
                    return violations
                continue
            if first != second:
                violations.append(
                    Violation(
                        kind="transfer-nondeterministic",
                        command=command,
                        prim=None,
                        p=p,
                        d=d,
                        detail=f"two runs gave {first!r} and {second!r}",
                    )
                )
                if len(violations) >= max_violations:
                    return violations
    return violations


def check_soundness_on_trace(
    analysis: ParametricAnalysis,
    meta: BackwardMetaAnalysis,
    trace: Trace,
    p: object,
    d_init: object,
    fail_condition: Formula,
    other_params: Iterable[object],
    k: Optional[int] = 5,
    max_violations: int = 10,
    max_cubes: Optional[int] = MAX_CUBES,
) -> List[Violation]:
    """Check Theorem 3 on one counterexample trace.

    ``other_params`` is the set of abstractions to test clause (2)
    against (pass the whole family for an exhaustive check).
    ``max_cubes`` caps the backward DNF like the driver's
    ``TracerConfig.max_cubes``, ``None`` meaning no cap — certificate
    checking passes the recorded cap so the replay matches the original
    derivation."""
    theory = meta.theory
    final = analysis.run_trace(trace, p, d_init)
    if not evaluate(fail_condition, theory, p, final):
        return [
            Violation(
                kind="not-a-counterexample",
                command=None,
                prim=None,
                p=p,
                d=d_init,
                detail="the final state does not satisfy the fail condition",
            )
        ]
    result = backward_trace(
        meta, analysis, trace, p, d_init, fail_condition, k=k, max_cubes=max_cubes
    )
    violations: List[Violation] = []
    if not evaluate(result.condition, theory, p, d_init):
        violations.append(
            Violation(
                kind="theorem3.1",
                command=None,
                prim=None,
                p=p,
                d=d_init,
                detail="the current (p, dI) is not covered by B[t]'s result",
            )
        )
    for p0 in other_params:
        if evaluate(result.condition, theory, p0, d_init):
            final0 = analysis.run_trace(trace, p0, d_init)
            if not evaluate(fail_condition, theory, p0, final0):
                violations.append(
                    Violation(
                        kind="theorem3.2",
                        command=None,
                        prim=None,
                        p=p0,
                        d=d_init,
                        detail=(
                            "covered abstraction does not fail along the "
                            f"trace (final state {final0!r})"
                        ),
                    )
                )
                if len(violations) >= max_violations:
                    return violations
    return violations
