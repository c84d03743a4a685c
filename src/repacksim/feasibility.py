"""Feasibility checking: can one more station be packed alongside an already
packed set of stations in the reduced band?

Three checkers share one verdict contract:

* :func:`check_greedy` scans the target's channels against the packed
  assignment without moving anything; when no channel fits it reports a
  timeout, never infeasibility.
* :func:`check_sat` is complete, in two layers as in SATFC (Frechette,
  Newman & Leyton-Brown, AAAI 2016): the greedy scan as a presolve, then
  forward-checking search (:mod:`repacksim.search`) over every packed
  station and the target, trying each packed station's current channel
  first. It can also prove that no packing exists.
* :func:`check_exhaustive` enumerates joint assignments in lexicographic
  order and returns the first valid one; it is the small-scale ground truth
  the other checkers are measured against. It runs on bit masks of the
  channels each station has left, with forward checking, which skips only
  prefixes that no valid assignment extends.

The greedy scan, the enumeration and the search's packing model read each
station's channels from the instance's channel table
(:meth:`repacksim.model.Instance.channel_table`), built once per clearing
target and kept as long as the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Assignment,
    ClearingTarget,
    Instance,
    StationId,
    validate_assignment,
)
from .search import NodeCounter, PackingModel, ResourceLimitError, search

#: Exhaustive enumeration refuses joint search spaces larger than this.
EXHAUSTIVE_SPACE_LIMIT = 10_000_000


class InvalidProblemError(ValueError):
    """The feasibility problem violates its structural invariants."""


class SearchSpaceError(RuntimeError):
    """The exhaustive checker refused a search space beyond its bound."""


#: The step limit of a feasibility check unless a config sets another.
DEFAULT_STEP_LIMIT = 50_000


@dataclass(frozen=True)
class Budget:
    """Limit on one feasibility check. ``step_limit`` counts the channels the
    search tries, so a verdict never depends on the speed of the machine."""

    step_limit: int

    def __post_init__(self) -> None:
        if self.step_limit <= 0:
            raise ValueError("step_limit must be positive")


@dataclass(frozen=True)
class Feasible:
    certificate: Assignment


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Timeout:
    pass


FeasibilityVerdict = Feasible | Infeasible | Timeout


@dataclass(frozen=True)
class FeasibilityProblem:
    """Ask whether ``target`` can be packed together with the stations already
    assigned in ``packed``.

    ``packed`` must itself be a valid assignment; construction checks only the
    cheap structural facts, that the instance declares every station and that
    the target is not packed; :meth:`validate` runs the full check.
    """

    target: StationId
    packed: Assignment
    inst: Instance
    ct: ClearingTarget

    def __post_init__(self) -> None:
        inst = self.inst
        inst.position(self.target)
        if not inst.declares(self.packed.keys()):
            # name the first undeclared station, as a lookup of each would
            for sid in self.packed:
                inst.position(sid)
        if self.target in self.packed:
            raise InvalidProblemError(
                f"target station {self.target} is already packed"
            )

    def validate(self) -> None:
        if not validate_assignment(self.packed, self.inst, self.ct):
            raise InvalidProblemError("packed assignment is not valid")

    def station_set(self) -> list[StationId]:
        return sorted({*self.packed, self.target})


def _fit_target(problem: FeasibilityProblem) -> Assignment | None:
    """The packed assignment plus the target on its lowest reduced-band
    channel that fits beside it as it stands, or None."""
    inst, packed, target = problem.inst, problem.packed, problem.target
    for ch, _, partners, _ in inst.channel_table(problem.ct)[inst.position(target)]:
        if all(packed.get(osid) != och for osid, och in partners):
            certificate = dict(packed)
            certificate[target] = ch
            return certificate
    return None


def check_greedy(problem: FeasibilityProblem, budget: Budget) -> FeasibilityVerdict:
    """Try each of the target's reduced-band channels, lowest first, against
    the packed assignment as it stands. Never alters the packed assignment and
    never proves infeasibility: exhausting the domain reports a timeout.

    The scan is bounded by the domain size, so the budget is accepted for
    interface parity but not consumed.
    """
    del budget
    certificate = _fit_target(problem)
    return Timeout() if certificate is None else Feasible(certificate)


def encode(problem: FeasibilityProblem) -> PackingModel:
    """The packing model of the packed stations plus the target, in station
    order, with each packed station's current channel as its first option."""
    return PackingModel(
        problem.inst, problem.ct, problem.station_set(), hint=problem.packed
    )


@dataclass(frozen=True)
class SolveResult:
    verdict: FeasibilityVerdict
    steps: int


def solve(model: PackingModel, budget: Budget) -> SolveResult:
    """Search for a channel for every station of ``model`` and stop at the
    first complete assignment, whose certificate lists the stations in
    station order. Each channel tried is one step."""
    counter = NodeCounter(budget.step_limit)
    try:
        found = search(model, counter)
    except ResourceLimitError:
        return SolveResult(Timeout(), counter.spent)
    if found is None:
        return SolveResult(Infeasible(), counter.spent)
    return SolveResult(Feasible(dict(sorted(found.items()))), counter.spent)


def check_sat(problem: FeasibilityProblem, budget: Budget) -> FeasibilityVerdict:
    """Complete check: the greedy presolve when the target fits with nobody
    moving, otherwise the search over :func:`encode`. Infeasible exactly when
    the search exhausts every assignment. Certificates list their stations in
    id order, so equal packings are equal as ordered items too."""
    certificate = _fit_target(problem)
    if certificate is not None:
        return Feasible(dict(sorted(certificate.items())))
    return solve(encode(problem), budget).verdict


def check_exhaustive(problem: FeasibilityProblem) -> FeasibilityVerdict:
    """Enumerate all joint channel assignments in lexicographic order: the
    stations in id order, each station's channels ascending. Returns the
    lexicographically first valid certificate, otherwise Infeasible; never
    times out.

    Each station's channels ruled out by the choices before it are a
    ``blocked`` mask. A choice blocks its clashes at the later stations of
    the problem and is undone at once when it blocks every channel of one of
    them (forward checking); such a prefix has no valid completion, so the
    first certificate is the one plain enumeration finds.

    Refuses search spaces whose domain-size product exceeds
    :data:`EXHAUSTIVE_SPACE_LIMIT`.
    """
    inst = problem.inst
    table = inst.channel_table(problem.ct)
    sids = problem.station_set()
    positions = [inst.position(sid) for sid in sids]
    rows = [table[pos] for pos in positions]
    space = math.prod(len(row) for row in rows)
    if space > EXHAUSTIVE_SPACE_LIMIT:
        raise SearchSpaceError(
            f"joint search space {space} exceeds the enumeration bound "
            f"{EXHAUSTIVE_SPACE_LIMIT}"
        )
    if not space:
        # a station with no channel in the band, which no choice can block
        return Infeasible()
    n = len(rows)
    # the problem index of each station of the instance, -1 outside it
    rank = [-1] * len(table)
    for i, pos in enumerate(positions):
        rank[pos] = i
    full = [sum(bit for _, bit, _, _ in row) for row in rows]
    blocked = [0] * n
    chosen = [0] * n  # the option each station holds
    marks = [0] * n  # the trail's length before each station's choice
    trail: list[tuple[int, int]] = []  # (station, mask before) per narrowing
    i = k = 0
    while i < n:
        row, mask = rows[i], blocked[i]
        while k < len(row) and row[k][1] & mask:
            k += 1
        if k < len(row):
            chosen[i], marks[i] = k, len(trail)
            for pos, bit in row[k][3]:
                j = rank[pos]
                if j > i and not blocked[j] & bit:
                    trail.append((j, blocked[j]))
                    blocked[j] |= bit
                    if blocked[j] == full[j]:
                        break
            else:
                i, k = i + 1, 0
                continue
        elif i:
            i -= 1
        else:
            return Infeasible()
        # undo station i's choice, latest narrowing first, and try its next
        k = chosen[i] + 1
        mark = marks[i]
        while len(trail) > mark:
            j, mask = trail.pop()
            blocked[j] = mask
    return Feasible({sid: rows[i][chosen[i]][0] for i, sid in enumerate(sids)})
