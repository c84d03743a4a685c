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
* :func:`check_exhaustive` enumerates every joint assignment; it is the
  small-scale ground truth the other checkers are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Assignment,
    ClearingTarget,
    Instance,
    StationId,
    reduced_domain,
    validate_assignment,
)
from .search import NodeCounter, PackingModel, ResourceLimitError, search

#: Exhaustive enumeration refuses joint search spaces larger than this.
EXHAUSTIVE_SPACE_LIMIT = 10_000_000


class InvalidProblemError(ValueError):
    """The feasibility problem violates its structural invariants."""


class SearchSpaceError(RuntimeError):
    """The exhaustive checker refused a search space beyond its bound."""


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
    cheap structural facts, :meth:`validate` runs the full check.
    """

    target: StationId
    packed: Assignment
    inst: Instance
    ct: ClearingTarget

    def __post_init__(self) -> None:
        self.inst.station(self.target)
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
    conflicts = problem.inst.conflicts_in_band(problem.ct)
    packed = problem.packed
    target = problem.target
    for ch in sorted(reduced_domain(problem.inst.station(target), problem.ct)):
        if all(
            packed.get(osid) != och for osid, och in conflicts.get((target, ch), ())
        ):
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
    n = len(model.order)
    counter = NodeCounter(budget.step_limit)
    try:
        found, _ = search(model, [0.0] * n, [True] * n, counter, first=True)
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
    """Enumerate all joint channel assignments in lexicographic order, pruning
    prefixes that already violate a constraint. Returns the lexicographically
    first valid certificate, otherwise Infeasible; never times out.

    Refuses search spaces whose domain-size product exceeds
    :data:`EXHAUSTIVE_SPACE_LIMIT`.
    """
    inst, ct = problem.inst, problem.ct
    sids = problem.station_set()
    domains = [sorted(reduced_domain(inst.station(sid), ct)) for sid in sids]
    space = math.prod(len(d) for d in domains)
    if space > EXHAUSTIVE_SPACE_LIMIT:
        raise SearchSpaceError(
            f"joint search space {space} exceeds the enumeration bound "
            f"{EXHAUSTIVE_SPACE_LIMIT}"
        )
    conflicts = inst.conflicts_in_band(ct)
    chosen: Assignment = {}

    def fits(sid: StationId, ch: int) -> bool:
        return all(
            chosen.get(osid) != och for osid, och in conflicts.get((sid, ch), ())
        )

    def descend(i: int) -> bool:
        if i == len(sids):
            return True
        sid = sids[i]
        for ch in domains[i]:
            if fits(sid, ch):
                chosen[sid] = ch
                if descend(i + 1):
                    return True
                del chosen[sid]
        return False

    if descend(0):
        return Feasible(dict(chosen))
    return Infeasible()
