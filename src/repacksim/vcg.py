"""Exact benchmark: the value-maximizing packing and externality prices.

The packing problem maximizes the total value of participating stations kept
on air, subject to the forbidden pairs, at most one channel per station, and
exactly one channel for every non-participating station. It is solved exactly
for each connected component of the interference graph by AND/OR branch and
bound: the sum of undecided station values bounds a branch, and once a cut
station is decided, the stations left fall into parts with no conflict
between them, each solved on its own and cached. The search is
:func:`repacksim.search.search`, the loop the feasibility checks run too;
here it starts from a greedy packing as its incumbent.

A winner's price is the drop in everyone else's optimal value caused by
taking it off the air: optimal value minus the optimal value when the winner
is forced to stay on air (its own value excluded). Losing stations are paid
nothing. :func:`vcg_outcome` re-solves only the winner's component for each
price. The re-solve decides the winner before any other station, so every
branch starts with the winner on air and the channels it rules out already
removed (fail first, Haralick & Elliott, 1980); after it, the search picks
stations as every other search does. The re-solve is warm-started from the
base optimum: the winner goes on air on each of its channels in turn, the
stations it conflicts with are evicted and re-placed greedily, and the best
such packing becomes the incumbent when it beats the greedy one. A better
incumbent never changes the optimum. It usually prunes more, but not always:
a part's search that must beat more ends with a bound rather than its
optimum, and a later branch may have to search it again.
:func:`restricted_optimal_value` gives the same restricted value by a full,
cold re-solve, with no station decided first.

Within one :func:`vcg_outcome` call each component has one search context:
a packing model built once, in the base solve's order, one part cache and
one memo of cut tests. The base solve and every re-solve of the component
search that model, breaking ties by its order, and share the cache and the
memo, so a re-solve does not search again a part that the base solve or an
earlier re-solve has solved, nor repeat a cut test. A re-solve leads with
its winner, so ranking its stations as a solve forcing the winner would
change no pick: for every other station that ranking keeps the model's
order. The key of a cached part holds its stations' forced
flags, and a forced station is worth nothing, so the only entries a
re-solve cannot use are those of parts that hold its winner. The contexts
go with the call; :func:`optimal_packing` and :func:`restricted_optimal_value`
build fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import (
    Assignment,
    ClearingTarget,
    Instance,
    StationId,
    UnpackableError,
    ValueProfile,
    station_sum,
)
from .search import NodeCounter as _NodeCounter
from .search import PackingModel, ResourceLimitError, parts_of, search

DEFAULT_NODE_BUDGET = 50_000_000


@dataclass(frozen=True)
class VcgOutcome:
    optimal_assignment: Assignment
    optimal_value: float
    winners: tuple[StationId, ...]
    prices: dict[StationId, float]
    restricted_values: dict[StationId, float]
    #: Search nodes spent by the base solve and all the per-winner re-solves;
    #: each of those solves alone may spend at most the node budget.
    nodes: int


def _partition_check(
    inst: Instance,
    participants: Iterable[StationId],
    non_participants: Iterable[StationId],
) -> tuple[frozenset[StationId], frozenset[StationId]]:
    parts = frozenset(participants)
    nons = frozenset(non_participants)
    if parts & nons:
        raise ValueError(f"stations {sorted(parts & nons)} appear in both sets")
    all_ids = frozenset(inst.station_ids())
    if parts | nons != all_ids:
        raise ValueError("participants and non-participants must cover all stations")
    return parts, nons


def _components(inst: Instance, ct: ClearingTarget) -> list[list[StationId]]:
    """The connected components of the interference graph, each in ascending
    station order and in the order of their first stations: the search's
    part split over a model of every station."""
    model = PackingModel(inst, ct, inst.station_ids())
    parts, _ = parts_of((1 << len(model.order)) - 1, model.neighbours)
    return [[model.order[i] for i in part] for part in parts]


def _ranked(
    stations: Iterable[StationId], forced: frozenset[StationId], values: ValueProfile
) -> list[StationId]:
    """``stations`` forced first, then by value, then by id, where a forced
    station is worth nothing: the order of a component's model, whose lower
    index breaks ties in the fewest-channels-left rule."""
    return sorted(stations, key=lambda s: (s not in forced, 0.0 if s in forced else -values[s], s))


class _Component:
    """The search context of one interference component within one call: a
    packing model over its stations in :func:`_ranked` order for the base
    solve's forced set, and the part cache and cut-test memo that the base
    solve and every re-solve of the component share. Every solve breaks ties
    by the model's order; a re-solve leads with its entrant. A forced station
    is worth nothing and any other its value, so a station's gain depends on
    its forced flag alone, which is what sharing the cache needs."""

    __slots__ = ("values", "model", "cache", "splits")

    def __init__(
        self,
        stations: list[StationId],
        forced: frozenset[StationId],
        values: ValueProfile,
        inst: Instance,
        ct: ClearingTarget,
    ) -> None:
        self.values = values
        self.model = PackingModel(inst, ct, _ranked(stations, forced, values))
        self.cache: dict = {}
        self.splits: dict = {}


def _solve_component(
    component: _Component,
    forced: frozenset[StationId],
    counter: _NodeCounter,
    entrant: StationId | None = None,
    start: Assignment | None = None,
) -> tuple[Assignment, float] | None:
    """Exact max-value packing of one component; None if the forced stations
    cannot all be placed.

    AND/OR branch and bound with forward checking
    (:func:`repacksim.search.search`) over the component's model, breaking
    ties by the model's order. The search decides ``entrant``, when given,
    before any other station, and shares the component's part cache and
    cut-test memo.

    The incumbent is a greedy packing, placed in model order. ``start``,
    given with ``entrant``, packs the component with ``entrant`` off the
    air, as the base optimum does. The entrant is put on air on each of its
    channels in turn, the stations it conflicts with are evicted and
    re-placed greedily in model order, and the best packing found this way
    replaces the greedy one when it is worth more.
    """
    model = component.model
    order, options, universe = model.order, model.options, model.universe
    n = len(order)
    gain = [0.0 if sid in forced else component.values[sid] for sid in order]
    is_forced = [sid in forced for sid in order]

    def place(on_air: list[int], pending: Iterable[int]) -> bool:
        """Put each pending station, in order, on its lowest channel that fits
        ``on_air``; False when a forced station fits nowhere."""
        for i in pending:
            for bit, _, clash in options[i]:
                if all(on_air[j] != b for j, b in clash):
                    on_air[i] = bit
                    break
            else:
                if is_forced[i]:
                    return False
        return True

    def worth(on_air: list[int]) -> float:
        # left to right in model order; sum() of floats rounds differently
        # from Python 3.12 on, which would move the incumbent and the pruning
        total = 0.0
        for i in range(n):
            if on_air[i]:
                total += gain[i]
        return total

    def packing(on_air: list[int]) -> Assignment:
        return {order[i]: universe[on_air[i].bit_length() - 1] for i in range(n) if on_air[i]}

    best_value = -1.0
    best_assign: Assignment | None = None
    greedy = [0] * n
    if place(greedy, range(n)):
        best_value = worth(greedy)
        best_assign = packing(greedy)

    e = None if entrant is None else order.index(entrant)
    if start is not None:
        started = [0] * n
        for i, sid in enumerate(order):
            if sid in start:
                started[i] = 1 << universe.index(start[sid])
        for bit, _, clash in options[e]:
            on_air = list(started)
            on_air[e] = bit
            evicted = [j for j, b in clash if on_air[j] == b]
            for j in evicted:
                on_air[j] = 0
            if not place(on_air, sorted(evicted)):
                continue
            value = worth(on_air)
            if value > best_value:
                best_value = value
                best_assign = packing(on_air)

    best_assign, best_value = search(
        model,
        gain,
        is_forced,
        counter,
        best_value,
        best_assign,
        cache=component.cache,
        splits=component.splits,
        lead=e,
    )
    if best_assign is None:
        return None
    return best_assign, best_value


def _solve_all(
    components: list[_Component],
    nons: frozenset[StationId],
    counter: _NodeCounter,
) -> Assignment:
    """Optimal packing of every component in turn, all spending ``counter``.
    Raises :class:`UnpackableError` for the first component whose
    non-participants cannot all be placed."""
    assignment: Assignment = {}
    for component in components:
        solved = _solve_component(component, nons, counter)
        if solved is None:
            raise UnpackableError(
                f"non-participating stations in component {sorted(component.model.order)}"
                " cannot be packed"
            )
        assignment.update(solved[0])
    return assignment


def optimal_packing(
    inst: Instance,
    values: ValueProfile,
    participants: Iterable[StationId],
    non_participants: Iterable[StationId],
    ct: ClearingTarget,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Assignment, float]:
    """Exact value-maximizing packing. Participants may stay on air or not;
    non-participants must be packed. Raises :class:`UnpackableError` when the
    non-participants cannot all be placed, and :class:`ResourceLimitError`
    when the node budget runs out."""
    parts, nons = _partition_check(inst, participants, non_participants)
    components = [_Component(comp, nons, values, inst, ct) for comp in _components(inst, ct)]
    assignment = _solve_all(components, nons, _NodeCounter(node_budget))
    return assignment, station_sum(values, parts.intersection(assignment))


def restricted_optimal_value(
    inst: Instance,
    values: ValueProfile,
    participants: Iterable[StationId],
    non_participants: Iterable[StationId],
    ct: ClearingTarget,
    sid: StationId,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> float:
    """Optimal value with ``sid`` forced on air and its value excluded.

    When even that forced problem is infeasible the value degenerates to
    zero, which prices the station at the full optimum.
    """
    parts = [p for p in participants if p != sid]
    nons = sorted(set(non_participants) | {sid})
    try:
        _, value = optimal_packing(inst, values, parts, nons, ct, node_budget)
    except UnpackableError:
        return 0.0
    return value


def vcg_outcome(
    inst: Instance,
    values: ValueProfile,
    participants: Iterable[StationId],
    non_participants: Iterable[StationId],
    ct: ClearingTarget,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> VcgOutcome:
    """Optimal packing plus a price for every winner.

    The pricing subproblems are independent; they run in ascending station
    order so the result never depends on scheduling. Forcing one winner on
    air only perturbs its own interference component, so each subproblem
    re-solves just that component; the answers are identical to a full
    re-solve because the other components' subproblems are unchanged. Each
    re-solve decides its winner first, is warm-started from the base optimum
    (see the module docstring) and has a node budget of its own. The base
    solve and the re-solves of one component share its search context, which
    this call builds and drops, so the outcome, its node count included,
    depends on the arguments alone.
    """
    parts, nons = _partition_check(inst, participants, non_participants)
    components = [_Component(comp, nons, values, inst, ct) for comp in _components(inst, ct)]
    counter = _NodeCounter(node_budget)
    assignment = _solve_all(components, nons, counter)
    value = station_sum(values, parts.intersection(assignment))
    component_of = {sid: c for c in components for sid in c.model.order}

    winners = tuple(sorted(parts - set(assignment)))
    prices: dict[StationId, float] = {}
    restricted: dict[StationId, float] = {}
    nodes = counter.spent
    for sid in winners:
        component = component_of[sid]
        resolve_counter = _NodeCounter(node_budget)
        solved = _solve_component(component, nons | {sid}, resolve_counter, sid, assignment)
        nodes += resolve_counter.spent
        if solved is None:
            # Forcing the winner on air is infeasible: its price degenerates
            # to the full optimal value.
            restricted[sid] = 0.0
        else:
            merged = dict(assignment)
            for other in component.model.order:
                merged.pop(other, None)
            merged.update(solved[0])
            restricted[sid] = station_sum(values, (parts - {sid}).intersection(merged))
        prices[sid] = value - restricted[sid]
    return VcgOutcome(assignment, value, winners, prices, restricted, nodes)
