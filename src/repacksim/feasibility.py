"""Feasibility checking: can one more station be packed alongside an already
packed set of stations in the reduced band?

Three checkers share one verdict contract:

* :func:`check_greedy` scans the target's channels against the packed
  assignment without moving anything; when no channel fits it reports a
  timeout, never infeasibility.
* :func:`check_sat` is complete, in two layers as in SATFC (Frechette,
  Newman & Leyton-Brown, AAAI 2016): the greedy scan as a presolve, then
  :func:`solve`, a forward-checking search over the packing model of every
  packed station and the target (:func:`encode`), trying each packed
  station's current channel first. It can also prove that no packing
  exists.
* :func:`check_exhaustive` returns the lexicographically first valid joint
  assignment; it is the small-scale ground truth the other checkers are
  measured against.

Both complete checkers run one search, depth-first with forward checking
over bit masks of the channels each station has left, in two decision
orders: :func:`solve` decides the station with the fewest channels left
first, and enumeration decides the stations in id order. The greedy scan,
the packing model and the exact benchmark (:mod:`repacksim.vcg`) read each
station's channels from the instance's channel table
(:meth:`repacksim.model.Instance.channel_table`), built once per clearing
target and kept as long as the instance. A :class:`PackingModel` is a cut of
that table, and every search runs over one, the initial packing's fallback
included. A search's limit is a count of steps. Running out of it is a
:class:`Timeout` verdict for a check that may time out; a search that must
decide, enumeration or the initial packing's fallback, raises
:class:`SearchSpaceError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import (
    Assignment,
    Channel,
    ClearingTarget,
    Instance,
    StationChannel,
    StationId,
    validate_assignment,
)


class InvalidProblemError(ValueError):
    """The feasibility problem violates its structural invariants."""


class SearchSpaceError(RuntimeError):
    """A search that must decide ran out of steps undecided: the exhaustive
    check, or the initial packing's whole-set search."""


#: The step limit of a feasibility check unless a config sets another.
DEFAULT_STEP_LIMIT = 50_000

#: The step limit of a search that must decide: the exhaustive check's, and
#: the least that the initial packing's whole-set search gets.
DECIDING_STEP_LIMIT = 1_000_000


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


class PackingModel:
    """The stations of ``order`` as a cut of the instance's channel table
    (:meth:`~repacksim.model.Instance.channel_table`): ``rows`` holds each
    station's row of ``(channel, bit, partners, clashes)`` entries, the
    table's own tuple unless the station's ``hint`` channel moves to its
    front, and ``rank`` maps each position of the instance to the station's
    index in ``order``, -1 for a station outside it."""

    __slots__ = ("order", "rows", "rank")

    def __init__(
        self,
        inst: Instance,
        ct: ClearingTarget,
        order: Iterable[StationId],
        hint: Mapping[StationId, Channel] | None = None,
    ) -> None:
        self.order = list(order)
        table = inst.channel_table(ct)
        self.rank = [-1] * len(table)
        self.rows = []
        for i, sid in enumerate(self.order):
            pos = inst.position(sid)
            self.rank[pos] = i
            row = table[pos]
            if hint and sid in hint:
                k = next((k for k, entry in enumerate(row) if entry[0] == hint[sid]), 0)
                if k:
                    row = (row[k], *row[:k], *row[k + 1 :])
            self.rows.append(row)

    @property
    def clauses(self) -> list[tuple[StationChannel, StationChannel]]:
        """Each forbidden pair among the stations once, from its lower pair,
        in station then row order."""
        rank, pairs = self.rank, []
        for sid, row in zip(self.order, self.rows):
            for ch, _, partners, clashes in row:
                for other, (pos, _) in zip(partners, clashes):
                    if rank[pos] >= 0 and other > (sid, ch):
                        pairs.append(((sid, ch), other))
        return pairs


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


def _search(model: PackingModel, step_limit: int, weight: int) -> SolveResult:
    """The first packing that puts every station of ``model`` on air, its
    certificate listing the stations in station order; Infeasible when there
    is none.

    Depth-first search with forward checking (Haralick & Elliott, 1980),
    written as one loop with an explicit stack, so its cost does not depend
    on the caller's stack depth. The next station to decide is the undecided
    one with the lowest score ``channels_left * weight + index``: a weight of
    ``len(model.order)`` decides the station with the fewest channels left
    first, the lower index breaking ties, and a weight of 0 decides the
    stations in the order of ``model.order``. A station's channels are tried
    in the order of its row. Assigning a channel removes the channels it
    rules out from undecided stations, and a station left with none ends the
    branch. Each channel tried is one step; the step past ``step_limit`` ends
    the search in a Timeout.
    """
    order, rows, rank = model.order, model.rows, model.rank
    n = len(order)
    # The last slot stands for every station outside the model (rank -1):
    # it shows no channels, so a clash with one removes nothing.
    avail = [sum(bit for _, bit, _, _ in row) for row in rows] + [0]
    score = [avail[i].bit_count() * weight + i for i in range(n)]
    undecided = set(range(n))
    steps = 0
    # One frame per decided station: [station, its channels, its untried
    # entries, what its current channel removed, its current channel].
    stack: list[list] = []
    while undecided:
        i = min(map(score.__getitem__, undecided)) % n
        undecided.discard(i)
        mask = avail[i]
        # A decided station shows no channels, so restricting skips it.
        avail[i] = 0
        stack.append([i, mask, iter(rows[i]), (), None])
        # Move the deepest frame on to its next channel, dropping frames that
        # have none left; the search fails when no frame is left.
        while stack:
            frame = stack[-1]
            i, mask, untried, removed, _ = frame
            for j, b in removed:
                avail[j] |= b
                score[j] += weight
            for ch, bit, _, clashes in untried:
                if not mask & bit:
                    continue
                steps += 1
                if steps > step_limit:
                    return SolveResult(Timeout(), steps)
                # Remove the channels (i, ch) rules out from undecided
                # stations; a station left with none ends the branch.
                removed = []
                for pos, b in clashes:
                    j = rank[pos]
                    c = avail[j]
                    if c & b:
                        c ^= b
                        avail[j] = c
                        score[j] -= weight
                        removed.append((j, b))
                        if not c:
                            break
                else:
                    frame[3], frame[4] = removed, ch
                    break
                for j, b in removed:
                    avail[j] |= b
                    score[j] += weight
            else:
                stack.pop()
                avail[i] = mask
                undecided.add(i)
                continue
            break
        else:
            return SolveResult(Infeasible(), steps)
    return SolveResult(Feasible(dict(sorted((order[f[0]], f[4]) for f in stack))), steps)


def solve(model: PackingModel, budget: Budget) -> SolveResult:
    """The search (:func:`_search`) deciding the station with the fewest
    channels left first, within ``budget``'s step limit."""
    return _search(model, budget.step_limit, len(model.order))


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
    """The lexicographically first valid certificate, the stations in id
    order and each station's channels ascending; otherwise Infeasible.

    This is the search of :func:`solve` deciding the stations in id order
    over the model with no hint: lexicographic enumeration with forward
    checking, which skips only prefixes that no valid assignment extends, so
    its first certificate is the one plain enumeration finds. It never times
    out: a search still undecided after :data:`DECIDING_STEP_LIMIT` steps
    raises :class:`SearchSpaceError`.
    """
    model = PackingModel(problem.inst, problem.ct, problem.station_set())
    if not all(model.rows):
        # a station with no channel in the band, which the search in station
        # order would reach only after every choice of the stations before it
        return Infeasible()
    # not through solve, so that a wrapper counting SAT searches sees no other
    verdict = _search(model, DECIDING_STEP_LIMIT, 0).verdict
    if isinstance(verdict, Timeout):
        raise SearchSpaceError(
            f"enumeration undecided within {DECIDING_STEP_LIMIT} steps"
        )
    return verdict
