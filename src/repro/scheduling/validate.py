"""Brute-force oracle for the two hardware constraints a schedule must obey.

:func:`validate_schedule` re-checks a finished :class:`Schedule` without any
of the scheduler's book-keeping:

1. **Atom exclusivity** — no atom takes part in two operations that overlap
   in time by more than ``_EPSILON``.
2. **Restriction radius** — no two entangling operations overlap in time by
   more than ``_EPSILON`` while a site of one lies within the other's
   restriction radius.  The test runs in both directions with
   :meth:`NeutralAtomArchitecture.within_restriction`, because zoned
   devices use per-zone radii and the relation is not symmetric there.

Candidate pairs come from a sweep over the operations in start order, so
every time-overlapping pair is visited exactly once; the spatial test then
compares every site of one operation with every site of the other.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..hardware.architecture import NeutralAtomArchitecture
from .schedule import OperationKind, Schedule, ScheduledOperation

__all__ = ["validate_schedule"]

_EPSILON = 1e-9


def _overlapping_pairs(operations: List[ScheduledOperation]
                       ) -> List[Tuple[ScheduledOperation, ScheduledOperation]]:
    """Every pair overlapping in time by more than ``_EPSILON``.

    Two operations overlap when each ends more than ``_EPSILON`` after the
    other starts.  Operations are visited in start order, and ``active``
    keeps those that end after the current start: an operation that does
    not can overlap no later one.
    """
    pairs = []
    active: List[ScheduledOperation] = []
    for op in sorted(operations, key=lambda op: op.start):
        active = [other for other in active if other.end > op.start + _EPSILON]
        pairs.extend((other, op) for other in active
                     if op.end > other.start + _EPSILON)
        active.append(op)
    return pairs


def _restricted(architecture: NeutralAtomArchitecture,
                first: ScheduledOperation, second: ScheduledOperation) -> bool:
    return any(site_a == site_b
               or architecture.within_restriction(site_a, site_b)
               or architecture.within_restriction(site_b, site_a)
               for site_a in first.sites for site_b in second.sites)


def validate_schedule(schedule: Schedule,
                      architecture: NeutralAtomArchitecture,
                      max_violations: int = 25) -> List[str]:
    """Return the constraint violations of ``schedule``; empty means valid.

    Collection stops after ``max_violations`` entries.
    """
    violations: List[str] = []
    per_atom: Dict[int, List[ScheduledOperation]] = {}
    for op in schedule:
        for atom in op.atoms:
            per_atom.setdefault(atom, []).append(op)
    for atom in sorted(per_atom):
        for first, second in _overlapping_pairs(per_atom[atom]):
            violations.append(
                f"atom {atom} is double-booked: {first.name} "
                f"[{first.start}, {first.end}) overlaps {second.name} "
                f"[{second.start}, {second.end})")
            if len(violations) >= max_violations:
                return violations
    entangling = [op for op in schedule if op.kind == OperationKind.ENTANGLING]
    for first, second in _overlapping_pairs(entangling):
        if _restricted(architecture, first, second):
            violations.append(
                f"restriction radius: {first.name} at sites {first.sites} "
                f"[{first.start}, {first.end}) overlaps {second.name} at "
                f"sites {second.sites} [{second.start}, {second.end})")
            if len(violations) >= max_violations:
                return violations
    return violations
