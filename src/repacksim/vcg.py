"""Exact benchmark: the value-maximizing packing and externality prices.

The packing problem maximizes the total value of participating stations kept
on air, subject to the forbidden pairs, at most one channel per station, and
exactly one channel for every non-participating station. Each connected
component of the interference graph is solved on its own, by max-sum on a
clique tree, conditioning on a station where its tables do not fit. The
outcome is a function of the call's arguments.

*Max-sum.* Each station is a variable; its states are its allowed
reduced-band channels, plus off the air for a participant. A participant is
worth its value on air, and a forbidden pair of channels is worth -inf. A
min-fill elimination order gives a clique tree. Each station's bucket is
itself and the neighbours it has left when it is eliminated; a bucket that
holds the whole bucket of the next station eliminated in it takes that
station in, so each node of the tree is a maximal clique of the filled
graph. A node's table spans its clique and sends its maximum over the
stations eliminated in it to its parent. One upward pass gives the optimum,
and an optimal packing is decoded from the root down. A single station is
packed directly, on its lowest channel.

*Conditioning* (cutset conditioning, Pearl, 1988; Larrosa & Dechter, 2003).
A part whose tables would hold more than :data:`MAX_SUM_ENTRIES` entries is
split by branching on the station with the most neighbours in it, the lower
index breaking ties: on each channel it has left, and off the air for a
participant. Each branch drops the channels that state rules out from the
other stations, splits them into parts on the conflicts of the channels
still allowed, and solves each part the same way. The best branch, the
first on a tie, is the optimum.

A winner's price is the drop in everyone else's optimal value caused by
taking it off the air: optimal value minus the optimal value when the winner
is forced to stay on air (its own value excluded). Losing stations are paid
nothing. Forcing a winner on air changes only its own component, and every
winner is priced from the same solve, with no re-solve:

- In a max-sum part, one downward pass (max-propagation, Dawid, 1992) turns
  every table into the max-marginals of its stations, so each winner's best
  channel is read from its own table. A packing with the winner on that
  channel is decoded from the winner's table up to the root and then down
  the rest of the tree. This prices all of the part's winners for about the
  cost of one solve, as Hershberger & Suri (2001) do for shortest paths.
- In a conditioned part, a winner's packing is the best over the branches:
  the branch's own packing when it puts the winner on air, otherwise the
  branch with the winner's part replaced by that part's packing with the
  winner on air.

A winner that cannot be on air gets a restricted value of 0. The optimum and
each restricted value are summed by :func:`~repacksim.model.station_sum`
over the on-air stations of a packing, so equal on-air sets give equal bits
however they were found. :func:`restricted_optimal_value` gives the same
restricted value by a cold solve of the forced problem.

Node budget: a call spends the entries of every table it builds, in every
part of every branch, from one counter, and pricing spends nothing more.
The tables go with the call.
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
from .search import PackingModel, ResourceLimitError, parts_of

#: Table entries a call may spend. An entry of the large tables that a
#: conditioned call builds costs about 70 ns (2-core x86_64, Python 3.11),
#: so this bounds such a call at about a minute. The worst call of
#: ``scripts/run_grid.py --stations 50`` on seeds 1-3 needs 1.2×10^8.
DEFAULT_NODE_BUDGET = 1_000_000_000
#: The most table entries a part may need to be solved by max-sum; one that
#: needs more is conditioned on a station. The largest component of one pass
#: of the acceptance grid needs 239,428, 1.9 MB of float64.
MAX_SUM_ENTRIES = 1 << 20


@dataclass(frozen=True)
class VcgOutcome:
    optimal_assignment: Assignment
    optimal_value: float
    winners: tuple[StationId, ...]
    prices: dict[StationId, float]
    restricted_values: dict[StationId, float]
    #: Work spent: the entries of every table the call built, at most the
    #: node budget.
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


def _split(
    inst: Instance, ct: ClearingTarget
) -> tuple[PackingModel, list[int], list[list[int]]]:
    """A packing model of every station, in ascending order, the bit mask of
    each one's channels, and the connected components of the interference
    graph as lists of its station indices, in the order of their first
    stations, by :func:`parts_of`."""
    model = PackingModel(inst, ct, inst.station_ids())
    allowed = [sum(bit for bit, _, _ in opts) for opts in model.options]
    everyone = (1 << len(model.order)) - 1
    parts = parts_of(everyone, _linked(model, everyone, allowed))
    return model, allowed, parts


def _components(inst: Instance, ct: ClearingTarget) -> list[list[StationId]]:
    """The connected components of the interference graph, each in ascending
    station order and in the order of their first stations."""
    model, _, parts = _split(inst, ct)
    return [[model.order[i] for i in part] for part in parts]


def _max_sum(
    model: PackingModel,
    part: list[int],
    allowed: list[int],
    forced: frozenset[StationId],
    values: ValueProfile,
    counter: _NodeCounter,
    price: bool,
) -> tuple[Assignment | None, dict[StationId, Assignment | None]] | None:
    """Exact max-value packing of ``model``'s stations ``part``, connected
    through the conflicts of their ``allowed`` channels, by max-sum on a
    clique tree; None when its tables would hold more than
    :data:`MAX_SUM_ENTRIES` entries. ``allowed[g]`` is the bit mask of
    station ``g``'s channels that the packing may use.

    Returns the packing, None when the forced stations cannot all be placed,
    and, with ``price``, for each participant the packing leaves off the air,
    the best packing of the part with that station on air (None when it
    cannot be), decoded from its max-marginals. The tables' entries are
    spent from ``counter`` at once; :class:`ResourceLimitError` is raised
    when fewer are left.
    """
    order, options = model.order, model.options
    sids = [order[g] for g in part]
    m = len(part)
    # each station's allowed options; a participant's last state is off the air
    kept = [[opt for opt in options[g] if allowed[g] & opt[0]] for g in part]
    channels = [[ch for _, ch, _ in opts] for opts in kept]
    off = [sid not in forced for sid in sids]
    sizes = [len(chs) + o for chs, o in zip(channels, off)]
    if m == 1:
        counter.spend(sizes[0])
        sid = sids[0]
        if channels[0]:
            return {sid: channels[0][0]}, {}
        if not off[0]:
            return None, {}
        return {}, ({sid: None} if price else {})

    # the option pairs that each pair of stations may not take
    local = {g: i for i, g in enumerate(part)}
    rank = [{bit: k for k, (bit, _, _) in enumerate(opts)} for opts in kept]
    forbidden: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    near = [0] * m
    for i, opts in enumerate(kept):
        for k, (_, _, clash) in enumerate(opts):
            for h, bit in clash:
                j = local.get(h, -1)
                if j > i and bit in rank[j]:
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


def _linked(model: PackingModel, within: int, allowed: list[int]) -> list[int]:
    """For each station of ``within``, the bit mask of the stations of
    ``within`` with an ``allowed`` channel that rules out one of its own
    allowed channels; 0 for any other station."""
    near = [0] * len(model.order)
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low
        g = low.bit_length() - 1
        for bit, _, clash in model.options[g]:
            if allowed[g] & bit:
                for h, b in clash:
                    if within >> h & 1 and allowed[h] & b:
                        near[g] |= 1 << h
    return near


def _solve(
    model: PackingModel,
    part: list[int],
    allowed: list[int],
    forced: frozenset[StationId],
    values: ValueProfile,
    counter: _NodeCounter,
    price: bool,
) -> tuple[Assignment | None, dict[StationId, Assignment | None]]:
    """:func:`_max_sum` of ``part``, conditioning on a station when its
    tables do not fit (see the module docstring); the same returns."""
    solved = _max_sum(model, part, allowed, forced, values, counter, price)
    if solved is not None:
        return solved
    order = model.order
    within = sum(1 << g for g in part)
    near = _linked(model, within, allowed)
    s = min(part, key=lambda g: (-near[g].bit_count(), g))
    rest = within ^ 1 << s
    sid = order[s]
    states = [(ch, clash) for bit, ch, clash in model.options[s] if allowed[s] & bit]
    if sid not in forced:
        states.append((None, ()))
    best: Assignment | None = None
    best_value = 0.0
    # each participant's best packing on air so far, as (value without it, packing)
    on_air: dict[StationId, tuple[float, Assignment]] = {}

    def offer(w: StationId, packing: Assignment) -> None:
        value = station_sum(values, [o for o in packing if o not in forced and o != w])
        if w not in on_air or value > on_air[w][0]:
            on_air[w] = value, packing

    for ch, clash in states:
        left = list(allowed)
        for h, b in clash:
            left[h] &= ~b
        packing: Assignment = {} if ch is None else {sid: ch}
        pieces = []
        for piece in parts_of(rest, _linked(model, rest, left)):
            found, restricted = _solve(model, piece, left, forced, values, counter, price)
            if found is None:
                break
            packing.update(found)
            pieces.append((piece, restricted))
        else:
            value = station_sum(values, [o for o in packing if o not in forced])
            if best is None or value > best_value:
                best, best_value = packing, value
            if not price:
                continue
            for w in packing:
                if w not in forced:
                    offer(w, packing)
            for piece, restricted in pieces:
                for w, lifted in restricted.items():
                    if lifted is not None:
                        swapped = dict(packing)
                        for g in piece:
                            swapped.pop(order[g], None)
                        swapped.update(lifted)
                        offer(w, swapped)
    if best is None or not price:
        return best, {}
    winners = [order[g] for g in part if order[g] not in forced and order[g] not in best]
    return best, {w: on_air[w][1] if w in on_air else None for w in winners}


def _solve_all(
    inst: Instance,
    ct: ClearingTarget,
    values: ValueProfile,
    nons: frozenset[StationId],
    counter: _NodeCounter,
    price: bool,
) -> tuple[Assignment, dict[StationId, tuple[list[StationId], Assignment | None]]]:
    """Optimal packing of every component in turn by :func:`_solve`, all
    spending ``counter``, and, with ``price``, each winner's component with
    its packing with the winner on air. Raises :class:`UnpackableError` for
    the first component whose non-participants cannot all be placed."""
    model, allowed, parts = _split(inst, ct)
    assignment: Assignment = {}
    restricted: dict[StationId, tuple[list[StationId], Assignment | None]] = {}
    for part in parts:
        stations = [model.order[i] for i in part]
        packing, winners = _solve(model, part, allowed, nons, values, counter, price)
        if packing is None:
            raise UnpackableError(
                f"non-participating stations in component {stations}"
                " cannot be packed"
            )
        assignment.update(packing)
        restricted.update((sid, (stations, p)) for sid, p in winners.items())
    return assignment, restricted


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
    assignment, _ = _solve_all(inst, ct, values, nons, _NodeCounter(node_budget), False)
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
    so each restricted value takes that component's packing with the winner
    on air, found by the same solve as the optimum (see the module
    docstring), with the other components' packings unchanged. The solve
    spends at most ``node_budget`` table entries. Its tables are built and
    dropped by this call, so the outcome, its node count included, depends
    on the arguments alone.
    """
    parts, nons = _partition_check(inst, participants, non_participants)
    counter = _NodeCounter(node_budget)
    assignment, packed = _solve_all(inst, ct, values, nons, counter, True)
    value = station_sum(values, parts.intersection(assignment))

    winners = tuple(sorted(parts - set(assignment)))
    prices: dict[StationId, float] = {}
    restricted: dict[StationId, float] = {}
    for sid in winners:
        stations, packing = packed[sid]
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
    return VcgOutcome(assignment, value, winners, prices, restricted, counter.spent)
