"""Feasibility checking: can one more station be packed alongside an already
packed set of stations in the reduced band?

Three checkers share one verdict contract:

* :func:`check_greedy` scans the target's channel-table row against the
  packed assignment without moving anything (:func:`_fit_channel`, the scan
  the auction's accept question makes too); when no channel fits it reports
  a timeout, never infeasibility.
* :func:`check_sat` is complete, in two layers as in SATFC (Frechette,
  Newman & Leyton-Brown, AAAI 2016): the same scan as a presolve, then
  :func:`solve`, a forward-checking search over the packing model of the
  target's interference component among the packed stations
  (:func:`encode`), trying each packed station's current channel first;
  every other packed station keeps its channel. It can also prove that no
  packing exists.
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
target and kept as long as the instance. The component flood and the packing
model read each station's neighbour ids and channel mask from the clash view
kept beside it (:meth:`repacksim.model.Instance.clash_view`), so a search's
set-up reads no partner list and sums no bits. A :class:`PackingModel` is a
cut of that table, and every search runs over one. A search's limit is a
count of steps. Running out of it is a :class:`Timeout` verdict for a check
that may time out; enumeration (:func:`_first_packing`), which the
exhaustive check and the initial packing of each interference component run,
must decide, so it raises :class:`SearchSpaceError` instead.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import (
    Assignment,
    Channel,
    ClearingTarget,
    Instance,
    StationChannel,
    StationId,
)


class InvalidProblemError(ValueError):
    """The feasibility problem violates its structural invariants."""


class SearchSpaceError(RuntimeError):
    """An enumeration, which must decide, ran out of steps undecided: the
    exhaustive check's, or the initial packing's over one component."""


#: The step limit of a feasibility check unless a config sets another.
DEFAULT_STEP_LIMIT = 50_000

#: The step limit of an enumeration, which must decide: the exhaustive
#: check's, and the initial packing's for each component.
DECIDING_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class Budget:
    """Limit on one feasibility check. ``step_limit`` counts the channels the
    search tries, so a verdict never depends on the speed of the machine."""

    step_limit: int

    def __post_init__(self) -> None:
        if not isinstance(self.step_limit, numbers.Integral) or self.step_limit <= 0:
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
    the target is not packed.
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

    def station_set(self) -> list[StationId]:
        return sorted({*self.packed, self.target})


def _fit_channel(
    inst: Instance, ct: ClearingTarget, target: StationId, packed: Assignment
) -> Channel | None:
    """The lowest channel of ``target``'s channel-table row that clashes with
    no station of ``packed`` where it stands, or None: a channel fits when
    none of its partners is an item of ``packed``."""
    placed = packed.items()
    for ch, _, partners, _ in inst.channel_table(ct)[inst.position(target)]:
        if placed.isdisjoint(partners):
            return ch
    return None


def check_greedy(problem: FeasibilityProblem, budget: Budget) -> FeasibilityVerdict:
    """Try each of the target's reduced-band channels, lowest first, against
    the packed assignment as it stands. Never alters the packed assignment and
    never proves infeasibility: exhausting the domain reports a timeout.

    The scan is bounded by the domain size, so the budget is accepted for
    interface parity but not consumed.
    """
    del budget
    ch = _fit_channel(problem.inst, problem.ct, problem.target, problem.packed)
    return Timeout() if ch is None else Feasible({**problem.packed, problem.target: ch})


class PackingModel:
    """The stations of ``order`` as a cut of the instance's channel table
    (:meth:`~repacksim.model.Instance.channel_table`): ``rows`` holds each
    station's row of ``(channel, bit, partners, clashes)`` entries, the
    table's own tuple unless the station's ``hint`` channel moves to its
    front, ``masks`` each station's channel bits from the clash view
    (:meth:`~repacksim.model.Instance.clash_view`), and ``rank`` maps each
    position of the instance to the station's index in ``order``, -1 for a
    station outside it. A hint that is already first, outside the row, or
    for a station with no channel in the band leaves the row as it is."""

    __slots__ = ("order", "rows", "rank", "masks")

    def __init__(
        self,
        inst: Instance,
        ct: ClearingTarget,
        order: Iterable[StationId],
        hint: Mapping[StationId, Channel] | None = None,
    ) -> None:
        self.order = list(order)
        table, view = inst.channel_table(ct), inst.clash_view(ct)
        self.rank = [-1] * len(table)
        self.rows = []
        self.masks = []
        for i, sid in enumerate(self.order):
            pos = inst.position(sid)
            self.rank[pos] = i
            row = table[pos]
            first = hint.get(sid) if hint else None
            if first is not None and row and row[0][0] != first:
                for k, entry in enumerate(row):
                    if entry[0] == first:
                        row = (entry, *row[:k], *row[k + 1 :])
                        break
            self.rows.append(row)
            self.masks.append(view[pos][0])

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
    """The packing model of the target's interference component among the
    packed stations (:func:`_flood`), in station order, with each packed
    station's current channel as its first option."""
    inst, ct, packed = problem.inst, problem.ct, problem.packed
    component = _flood(inst, inst.clash_view(ct), problem.target, set(packed))
    return PackingModel(inst, ct, sorted(component), hint=packed)


def _flood(inst: Instance, view: tuple, start: StationId, unreached: set) -> list[StationId]:
    """``start`` and its interference component among ``unreached``, whose
    stations it takes out of ``unreached``: flooded over the clash view's
    neighbour ids (:meth:`~repacksim.model.Instance.clash_view`), meeting
    each neighbour once. A station joins when one of its reduced-band
    channels clashes with one of a member's, so no channel of a station left
    outside clashes with any channel of a station inside."""
    unreached.discard(start)
    component = [start]
    # the loop reads the stations appended while it runs
    for sid in component:
        reached = unreached.intersection(view[inst.position(sid)][1])
        if reached:
            unreached -= reached
            component += reached
    return component


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
    avail = [*model.masks, 0]
    score = [avail[i].bit_count() * weight + i for i in range(n)]
    undecided = set(range(n))
    steps = 0
    # One frame per decided station: [station, its channels, its untried
    # entries, what its current channel removed, its current channel].
    stack: list[list] = []
    while undecided:
        # With weight 0 the undecided stations are the ones after the
        # decided prefix, so the lowest index is the stack's length.
        i = min(map(score.__getitem__, undecided)) % n if weight else len(stack)
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
    moving, otherwise the search over the target's interference component
    (:func:`encode`), every other packed station keeping its channel.
    Infeasible exactly when the search exhausts every assignment of the
    component. Certificates list their stations in id order, so equal
    packings are equal as ordered items too.

    The component search decides as the search over every packed station
    and the target would, wherever that one finishes within the budget, with
    an equal certificate and no more steps. No reduced-band channel of a
    station outside the component clashes with a station inside it, so
    neither part's decisions remove the other's channels. The whole search's
    pick among the component's stations then depends on the component
    alone, and their relative index order is the same in both models. So it
    decides them in the same order, on the same channels, as the component
    search does. Each station outside the component tries its packed channel
    first, and those channels form a valid packing, so they never block one
    another. One leaves its packed channel only after the component's search
    below it has failed, and its other channels leave the component as it
    was, so that search fails again: on every branch that succeeds, it keeps
    its packed channel. The component search's steps are therefore a
    subsequence of the whole search's: a whole search that finishes is
    matched, and a whole search that times out may be decided.
    """
    ch = _fit_channel(problem.inst, problem.ct, problem.target, problem.packed)
    if ch is not None:
        return Feasible(dict(sorted([*problem.packed.items(), (problem.target, ch)])))
    verdict = solve(encode(problem), budget).verdict
    if isinstance(verdict, Feasible):
        return Feasible(dict(sorted({**problem.packed, **verdict.certificate}.items())))
    return verdict


def check_exhaustive(problem: FeasibilityProblem) -> FeasibilityVerdict:
    """The lexicographically first valid certificate of the target and the
    packed stations (:func:`_first_packing`); otherwise Infeasible. It never
    times out, but raises :class:`SearchSpaceError`. The certificate is the
    caller's own."""
    verdict = _first_packing(problem.inst, problem.ct, problem.station_set())
    if isinstance(verdict, Feasible):
        return Feasible(dict(verdict.certificate))
    return verdict


def _first_packing(
    inst: Instance, ct: ClearingTarget, stations: list[StationId]
) -> Feasible | Infeasible:
    """The lexicographically first packing of ``stations``, given in id
    order, each station's channels ascending, or Infeasible; it raises
    :class:`SearchSpaceError` when still undecided after
    :data:`DECIDING_STEP_LIMIT` steps. This is the search of :func:`solve`
    deciding the stations in id order over their model with no hint:
    lexicographic enumeration with forward checking, which skips only
    prefixes that no valid assignment extends, so its first certificate is
    the one plain enumeration finds.

    A decided enumeration is kept, with its steps, in the instance's
    :meth:`~repacksim.model.Instance.derived` memo under ``stations``, and
    read from there by every later call that its steps fit within the
    limit; one that they do not fit raises, as the search would. The
    verdict is shared, so a caller must not change its certificate."""
    memo = inst.derived(ct).setdefault("first_packing", {})
    key = tuple(stations)
    found = memo.get(key)
    if found is None:
        model = PackingModel(inst, ct, stations)
        # A station with no channel in the band, which the search in station
        # order would reach only after every choice of the stations before
        # it, makes the set Infeasible at once. The search runs not through
        # solve, so that a wrapper counting SAT searches sees no other.
        if all(model.rows):
            found = _search(model, DECIDING_STEP_LIMIT, 0)
        else:
            found = SolveResult(Infeasible(), 0)
        if not isinstance(found.verdict, Timeout):
            memo[key] = found
    if found.steps > DECIDING_STEP_LIMIT:
        raise SearchSpaceError(
            f"enumeration undecided within {DECIDING_STEP_LIMIT} steps"
        )
    return found.verdict
