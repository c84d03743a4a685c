"""Exact benchmark: the value-maximizing packing and externality prices.

The packing problem maximizes the total value of participating stations kept
on air, subject to the forbidden pairs, at most one channel per station, and
exactly one channel for every non-participating station. Each connected
component of the interference graph is solved on its own, by one of two
exact methods. Which one runs depends on the component and on which of its
stations are forced, so an outcome is a function of the call's arguments.

*Max-sum* solves every component whose tables hold at most
:data:`MAX_SUM_ENTRIES` entries. Each station is a variable; its states are
its reduced-band channels, plus off the air for a participant. A participant
is worth its value on air, and a forbidden pair of channels is worth -inf. A
min-fill elimination order gives a clique tree. Each station's bucket is
itself and the neighbours it has left when it is eliminated; a bucket that
holds the whole bucket of the next station eliminated in it takes that
station in, so each node of the tree is a maximal clique of the filled
graph. A node's table spans its clique and sends its maximum over the
stations eliminated in it to its parent. One upward pass gives the optimum,
and an optimal packing is decoded from the root down. A single station is
packed directly, on its lowest channel.

*Branch and bound* solves any other component, by AND/OR search: the sum of
undecided station values bounds a branch, and once a cut station is
decided, the stations left fall into parts with no conflict between them,
each solved on its own and cached. The search is
:func:`repacksim.search.search`, the loop the feasibility checks run too;
here it starts from a greedy packing as its incumbent.

A winner's price is the drop in everyone else's optimal value caused by
taking it off the air: optimal value minus the optimal value when the winner
is forced to stay on air (its own value excluded). Losing stations are paid
nothing. Forcing a winner on air changes only its own component.

- On a max-sum component, one downward pass (max-propagation, Dawid, 1992)
  turns every table into the max-marginals of its stations, so each
  winner's best channel is read from its own table. A packing with the
  winner on that channel is decoded from the winner's table up to the root
  and then down the rest of the tree. This prices all of the component's
  winners with no re-solve, for about the cost of one solve, as Hershberger
  & Suri (2001) do for shortest paths. A winner with no feasible channel
  gets a restricted value of 0.
- On a branch-and-bound component, each price re-solves the component. The
  re-solve decides the winner before any other station, so every branch
  starts with the winner on air and the channels it rules out already
  removed (fail first, Haralick & Elliott, 1980). It is warm-started from
  the base optimum: the winner goes on air on each of its channels in turn,
  the stations it conflicts with are evicted and re-placed greedily, and the
  best such packing becomes the incumbent when it beats the greedy one.

Either way the optimum and each restricted value are summed by
:func:`~repacksim.model.station_sum` over the on-air stations of a packing,
so equal on-air sets give equal bits whichever method found them.
:func:`restricted_optimal_value` gives the same restricted value by a cold
solve of the forced problem.

Node budget: a max-sum component spends its tables' entries once, from the
budget of the base solve, and pricing its winners spends nothing. A search
spends a node per option tried and per off-air branch, and each re-solve
has a budget of its own.

Within one :func:`vcg_outcome` call each branch-and-bound component has one
search context: a packing model built once, in the base solve's order, one
part cache and one memo of cut tests. The base solve and every re-solve of
the component search that model, breaking ties by its order, and share the
cache and the memo, so a re-solve does not search again a part that the
base solve or an earlier re-solve has solved, nor repeat a cut test. The
key of a cached part holds its stations' forced flags, and a forced station
is worth nothing, so the only entries a re-solve cannot use are those of
parts that hold its winner. The contexts and the tables go with the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

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
#: The most table entries a component may need to be solved by max-sum; one
#: that needs more is solved by branch and bound. The largest component of
#: one pass of the acceptance grid needs 239,428, 1.9 MB of float64.
MAX_SUM_ENTRIES = 1 << 20


@dataclass(frozen=True)
class VcgOutcome:
    optimal_assignment: Assignment
    optimal_value: float
    winners: tuple[StationId, ...]
    prices: dict[StationId, float]
    restricted_values: dict[StationId, float]
    #: Work spent: the table entries of the max-sum components, plus the
    #: search nodes of the base solve and of every re-solve of the others.
    #: The base solve alone, max-sum tables included, may spend at most the
    #: node budget, and so may each re-solve.
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


def _split(inst: Instance, ct: ClearingTarget) -> tuple[PackingModel, list[list[int]]]:
    """A packing model of every station, in ascending order, and the
    connected components of the interference graph as lists of its station
    indices, in the order of their first stations: the search's part split."""
    model = PackingModel(inst, ct, inst.station_ids())
    parts, _ = parts_of((1 << len(model.order)) - 1, model.neighbours)
    return model, parts


def _components(inst: Instance, ct: ClearingTarget) -> list[list[StationId]]:
    """The connected components of the interference graph, each in ascending
    station order and in the order of their first stations."""
    model, parts = _split(inst, ct)
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


def _max_sum(
    model: PackingModel,
    part: list[int],
    forced: frozenset[StationId],
    values: ValueProfile,
    counter: _NodeCounter,
    price: bool,
) -> tuple[Assignment | None, dict[StationId, Assignment | None]] | None:
    """Exact max-value packing of the component of ``model``'s stations
    ``part`` by max-sum on a clique tree; None when its tables would hold
    more than :data:`MAX_SUM_ENTRIES` entries.

    Returns the packing, None when the forced stations cannot all be placed,
    and, with ``price``, for each participant the packing leaves off the air,
    the best packing of the component with that station on air (None when it
    cannot be), decoded from its max-marginals. The tables' entries are
    spent from ``counter`` at once; :class:`ResourceLimitError` is raised
    when fewer are left.
    """
    order, options = model.order, model.options
    sids = [order[g] for g in part]
    m = len(part)
    channels = [[ch for _, ch, _ in options[g]] for g in part]
    # a participant's last state is off the air
    off = [sid not in forced for sid in sids]
    sizes = [len(chs) + o for chs, o in zip(channels, off)]
    if m == 1:
        if sizes[0] > MAX_SUM_ENTRIES:
            return None
        counter.spend(sizes[0])
        sid = sids[0]
        if channels[0]:
            return {sid: channels[0][0]}, {}
        if not off[0]:
            return None, {}
        return {}, ({sid: None} if price else {})

    # the option pairs that each pair of stations may not take
    local = {g: i for i, g in enumerate(part)}
    rank = [{bit: k for k, (bit, _, _) in enumerate(options[g])} for g in part]
    forbidden: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    near = [0] * m
    for i, g in enumerate(part):
        for k, (_, _, clash) in enumerate(options[g]):
            for h, bit in clash:
                j = local[h]
                if j > i:
                    pair = forbidden.get((i, j))
                    if pair is None:
                        pair = forbidden[i, j] = ([], [])
                        near[i] |= 1 << j
                        near[j] |= 1 << i
                    pair[0].append(k)
                    pair[1].append(rank[j][bit])

    # The clique tree (see the module docstring), root first, each node
    # after its parent. A node's scope lists its stations in elimination
    # order: first its frontal stations, eliminated in it, then its
    # separator, which its parent's scope holds too.
    elim, bucket = _min_fill(near)
    node_of = [0] * m
    frontal: list[list[int]] = []
    scope: list[list[int]] = []
    parent: list[int] = []
    for v in reversed(elim):
        if len(bucket[v]) > 1:
            n = node_of[bucket[v][1]]
            if bucket[v][1:] == scope[n]:
                frontal[n].insert(0, v)
                scope[n] = bucket[v]
                node_of[v] = n
                continue
            parent.append(n)
        else:
            parent.append(-1)
        node_of[v] = len(frontal)
        frontal.append([v])
        scope.append(bucket[v])
    entries = sum(math.prod(sizes[u] for u in sc) for sc in scope)
    if entries > MAX_SUM_ENTRIES:
        return None
    counter.spend(entries)
    nodes = range(len(scope))
    sep = [sc[len(fr) :] for sc, fr in zip(scope, frontal)]
    front = [tuple(range(len(fr))) for fr in frontal]
    children: list[list[int]] = [[] for _ in nodes]
    for n in nodes[1:]:
        children[parent[n]].append(n)
    lined = [None] + [_lined_up(sep[n], scope[parent[n]], sizes) for n in nodes[1:]]

    # Upward pass. A node's table spans its scope, in elimination order, so
    # the message it sends, its maximum over its frontal stations, lines up
    # with its parent's table by a reshape, with no transpose. Messages are
    # not kept: the downward pass takes each again from its table.
    table: list = [None] * len(scope)
    for n in reversed(nodes):
        sc = scope[n]
        t = np.zeros([sizes[u] for u in sc])
        for a, v in enumerate(frontal[n]):
            if off[v]:
                t[(slice(None),) * a + (slice(len(channels[v])),)] += values[sids[v]]
            for b in range(a + 1, len(sc)):
                u = sc[b]
                pair = forbidden.get((v, u) if v < u else (u, v))
                if pair is not None:
                    at: list = [slice(None)] * len(sc)
                    at[a], at[b] = pair if v < u else pair[::-1]
                    t[tuple(at)] = -np.inf
        for c in children[n]:
            t += table[c].max(axis=front[c]).reshape(lined[c])
        table[n] = t

    if table[0].max() == -np.inf:
        return None, {}
    packing = [0] * m
    for n in nodes:
        _decode(table[n], frontal[n], [packing[u] for u in sep[n]], packing)

    def assignment(states: list[int]) -> Assignment:
        return {sids[v]: channels[v][k] for v, k in enumerate(states) if k < len(channels[v])}

    winners = [v for v in range(m) if off[v] and packing[v] == len(channels[v])]
    if not price or not winners:
        return assignment(packing), {}

    # Downward pass: each table becomes the max-marginals of its scope. A
    # parent's message to a child leaves out the child's own message, which
    # spans the child's separator, so it is subtracted after the maximum
    # over the other axes: rounding is monotone, so the bits are those of
    # subtracting first. Where the child's message is -inf, so is the
    # child's whole table, and the -inf - -inf there is set to -inf.
    with np.errstate(invalid="ignore"):
        for n in nodes:
            t = table[n]
            for c in children[n]:
                # the axes the child's separator lacks, and any of size 1
                rest = tuple(a for a, size in enumerate(lined[c]) if size == 1)
                mine = table[c].max(axis=front[c])
                down = t.max(axis=rest).reshape(mine.shape) - mine
                down[np.isnan(down)] = -np.inf
                table[c] += down

    restricted: dict[StationId, Assignment | None] = {}
    for w in winners:
        n = node_of[w]
        t = table[n]
        a = frontal[n].index(w)
        onair = t.max(axis=tuple(b for b in range(t.ndim) if b != a))[: len(channels[w])]
        if not onair.size or onair.max() == -np.inf:
            restricted[sids[w]] = None
            continue
        # Decode with w on its best channel: first w's node and its
        # ancestors, which may leave any of their stations to choose, then
        # each other node whose separator's states have changed.
        states = packing.copy()
        states[w] = int(onair.argmax())
        known = {w}
        chain = set()
        while n >= 0:
            chain.add(n)
            free = [u for u in scope[n] if u not in known]
            sub = table[n][tuple(slice(None) if u not in known else states[u] for u in scope[n])]
            for u, k in zip(free, np.unravel_index(int(sub.argmax()), sub.shape)):
                states[u] = int(k)
            known.update(free)
            n = parent[n]
        changed = {u for u in known if states[u] != packing[u]}
        for n in nodes:
            if n not in chain and not changed.isdisjoint(sep[n]):
                _decode(table[n], frontal[n], [states[u] for u in sep[n]], states)
                changed.update(u for u in frontal[n] if states[u] != packing[u])
        restricted[sids[w]] = assignment(states)
    return assignment(packing), restricted


def _decode(t: np.ndarray, frontal: list[int], given: list[int], states: list[int]) -> None:
    """Set ``states`` of the stations ``frontal``, the first axes of table
    ``t``, to their best given ``given``, the states of its other axes."""
    sub = t[(..., *given)]
    k = int(sub.argmax())
    for u, size in zip(reversed(frontal), reversed(sub.shape)):
        k, states[u] = divmod(k, size)


def _lined_up(sub: list[int], scope: list[int], sizes: list[int]) -> list[int]:
    """The shape that lines a table over ``sub`` up with one over ``scope``,
    which holds the stations of ``sub`` in the same order."""
    inside = set(sub)
    return [sizes[u] if u in inside else 1 for u in scope]


def _min_fill(near: list[int]) -> tuple[list[int], list[list[int]]]:
    """A min-fill elimination order of the graph in which station ``i``
    neighbours the stations of bit mask ``near[i]``, the lower index
    breaking ties, and each station's bucket: itself, then its neighbours
    when it is eliminated, in elimination order."""
    near = list(near)
    m = len(near)
    left = (1 << m) - 1
    elim: list[int] = []
    later: list[list[int]] = [[] for _ in range(m)]
    for _ in range(m):
        fewest = v = -1
        rest = left
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            # twice the edges missing among u's neighbours
            mask = near[u]
            missing = -mask.bit_count()
            others = mask
            while others:
                bit = others & -others
                others ^= bit
                missing += (mask & ~near[bit.bit_length() - 1]).bit_count()
            if fewest < 0 or missing < fewest:
                fewest, v = missing, u
                if not missing:
                    break
        mask = near[v]
        others = mask
        while others:
            bit = others & -others
            others ^= bit
            u = bit.bit_length() - 1
            later[v].append(u)
            # eliminating v joins its neighbours to one another
            near[u] = (near[u] | mask) & ~bit & ~(1 << v)
        left ^= 1 << v
        elim.append(v)
    pos = [0] * m
    for k, v in enumerate(elim):
        pos[v] = k
    return elim, [[v, *sorted(later[v], key=pos.__getitem__)] for v in range(m)]


def _solve_all(
    inst: Instance,
    ct: ClearingTarget,
    values: ValueProfile,
    nons: frozenset[StationId],
    counter: _NodeCounter,
    price: bool,
) -> tuple[
    Assignment, dict[StationId, tuple[list[StationId], Assignment | None]], list[_Component]
]:
    """Optimal packing of every component in turn, all spending ``counter``:
    by max-sum when its tables fit :data:`MAX_SUM_ENTRIES`, by branch and
    bound otherwise. Also returns, with ``price``, the max-sum components'
    packings with each of their winners on air (see :func:`_max_sum`), and
    the search contexts of the components left to branch and bound. Raises
    :class:`UnpackableError` for the first component whose non-participants
    cannot all be placed."""
    model, parts = _split(inst, ct)
    assignment: Assignment = {}
    restricted: dict[StationId, tuple[list[StationId], Assignment | None]] = {}
    searched: list[_Component] = []
    for part in parts:
        stations = [model.order[i] for i in part]
        solved = _max_sum(model, part, nons, values, counter, price)
        if solved is None:
            component = _Component(stations, nons, values, inst, ct)
            found = _solve_component(component, nons, counter)
            packing = None if found is None else found[0]
            searched.append(component)
        else:
            packing, winners = solved
            restricted.update((sid, (stations, p)) for sid, p in winners.items())
        if packing is None:
            raise UnpackableError(
                f"non-participating stations in component {stations}"
                " cannot be packed"
            )
        assignment.update(packing)
    return assignment, restricted, searched


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
    assignment, _, _ = _solve_all(inst, ct, values, nons, _NodeCounter(node_budget), False)
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

    Forcing one winner on air only perturbs its own interference component,
    so each restricted value solves just that component again, with the
    other components' packings unchanged. A max-sum component decodes its
    winners' packings from its max-marginals; a branch-and-bound component
    re-solves once per winner, in ascending station order, each re-solve
    deciding its winner first, warm-started from the base optimum and with a
    node budget of its own (see the module docstring). The tables and
    search contexts are built and dropped by this call, so the outcome, its
    node count included, depends on the arguments alone.
    """
    parts, nons = _partition_check(inst, participants, non_participants)
    counter = _NodeCounter(node_budget)
    assignment, packed, searched = _solve_all(inst, ct, values, nons, counter, True)
    value = station_sum(values, parts.intersection(assignment))
    component_of = {sid: c for c in searched for sid in c.model.order}

    winners = tuple(sorted(parts - set(assignment)))
    prices: dict[StationId, float] = {}
    restricted: dict[StationId, float] = {}
    nodes = counter.spent
    for sid in winners:
        if sid in packed:
            stations, packing = packed[sid]
        else:
            component = component_of[sid]
            stations = component.model.order
            resolve_counter = _NodeCounter(node_budget)
            solved = _solve_component(component, nons | {sid}, resolve_counter, sid, assignment)
            nodes += resolve_counter.spent
            packing = None if solved is None else solved[0]
        if packing is None:
            # Forcing the winner on air is infeasible: its price degenerates
            # to the full optimal value.
            restricted[sid] = 0.0
        else:
            merged = dict(assignment)
            for other in stations:
                merged.pop(other, None)
            merged.update(packing)
            restricted[sid] = station_sum(values, (parts - {sid}).intersection(merged))
        prices[sid] = value - restricted[sid]
    return VcgOutcome(assignment, value, winners, prices, restricted, nodes)
