"""Greedy corpus minimisation for failing fuzz cases.

Given a failing :class:`~repro.fuzz.spec.CaseSpec` and a predicate
("does this spec still fail?"), shrink the spec one field at a time,
keeping any change that preserves the failure, until a full pass over
all shrink candidates yields no progress (first-improvement fixpoint).
Every candidate is re-validated, so minimisation can never produce a
spec outside the generator's invariants — a minimised reproducer is
always replayable by the same campaign code path.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.fuzz.generator import nearest_valid_elems
from repro.fuzz.spec import CaseSpec

Predicate = Callable[[CaseSpec], bool]


def _candidates(spec: CaseSpec) -> Iterator[CaseSpec]:
    """Strictly-simpler variants of ``spec``, cheapest shrinks first."""
    if spec.benign_rounds > 0:
        yield spec.with_(benign_rounds=0)
    if spec.workgroups > 1:
        yield spec.with_(workgroups=1)
    if spec.wg_size > 32:
        yield spec.with_(wg_size=32)
    if spec.probe > 0:
        yield spec.with_(probe=0)
    # Drop trailing buffers (victim/target indices must survive).
    floor = max(2, spec.victim + 1, spec.target + 1,
                3 if spec.kind == "canary_jump" else 0)
    if spec.nbuf > floor:
        yield spec.with_(nbuf=floor)
    # Halve the element count toward the smallest valid size.
    if spec.elems > 16:
        smaller = nearest_valid_elems(spec.elems // 2)
        if smaller < spec.elems:
            changes = {"elems": smaller}
            if spec.probe >= smaller:
                changes["probe"] = 0
            if spec.inner >= smaller * 4:
                changes["inner"] = 0
            yield spec.with_(**changes)
    if spec.kind in ("overflow", "underflow") and spec.margin > 4:
        yield spec.with_(margin=4)
    if spec.kind == "heap" and spec.margin > 0:
        yield spec.with_(margin=0)
    if spec.kind == "local_var":
        if spec.local_words > 1:
            yield spec.with_(local_words=1,
                             margin=min(spec.margin, 0))
        elif spec.margin > 0:
            yield spec.with_(margin=0)
    if spec.inner > 0:
        yield spec.with_(inner=0)


def minimize(spec: CaseSpec, predicate: Predicate,
             max_steps: int = 200) -> CaseSpec:
    """Shrink ``spec`` while ``predicate`` keeps holding.

    ``predicate(spec)`` must return True for the original spec (asserted)
    and for every accepted shrink.  Candidates that fail validation are
    skipped silently; ``max_steps`` bounds total predicate evaluations.
    """
    if not predicate(spec):
        raise ValueError("predicate does not hold on the original spec")
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(spec):
            try:
                candidate.validate()
            except ValueError:
                continue
            steps += 1
            if predicate(candidate):
                spec = candidate
                improved = True
                break           # restart from the shrunk spec
            if steps >= max_steps:
                break
    return spec
