"""Exact benchmark: the value-maximizing packing and externality prices.

The packing problem maximizes the total value of participating stations kept
on air, subject to the forbidden pairs, at most one channel per station, and
exactly one channel for every non-participating station. The outcome is a
function of the call's arguments.

Stations are indexed by their position in the instance, with their channels
and conflicts read from its channel table
(:meth:`~repacksim.model.Instance.channel_table`).

*The join* (:func:`_join`), at the top level and in every branch of a
conditioned part: a flood over the conflicts of the channels still allowed
splits the stations into parts, the components of the interference graph at
the top level. Each part is solved on its own, by max-sum where its tables
fit and by conditioning where they do not, and the packing is the union of
the parts' packings. A winner's packing with it on air swaps its part's
packing for that part's packing with the winner on air.

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
other stations and joins the parts of the rest. The best branch, the first
on a tie, is the optimum; a branch that cannot place its forced stations is
skipped.

A winner's price is the drop in everyone else's optimal value caused by
taking it off the air: optimal value minus the optimal value when the winner
is forced to stay on air (its own value excluded). Losing stations are paid
nothing. Forcing a winner on air changes only its own part, so every
winner is priced from the same solve, with no re-solve, through the join:

- In a max-sum part, one downward pass (max-propagation, Dawid, 1992) turns
  every table into the max-marginals of its stations, so each winner's best
  channel is read from its own table. A packing with the winner on that
  channel is decoded from the winner's table up to the root and then down
  the rest of the tree. This prices all of the part's winners for about the
  cost of one solve, as Hershberger & Suri (2001) do for shortest paths.
- In a conditioned part, a winner's packing is the best over the branches:
  the branch's own packing when it puts the winner on air, otherwise the
  branch's join with the winner on air.

A winner that cannot be on air gets a restricted value of 0. The optimum and
each restricted value are summed by :func:`~repacksim.model.station_sum`
over the on-air stations of a packing, so equal on-air sets give equal bits
however they were found. :func:`restricted_optimal_value` gives the same
restricted value by a cold solve of the forced problem.

Node budget: a call spends the entries of every table it builds, in every
part of every branch, from one :class:`NodeCounter`, and pricing spends
nothing more. A call that would spend more than its budget raises
:class:`ResourceLimitError`.

*What is kept.* What no value or participant changes is compiled once and
the values are propagated through it per call, the split of Lauritzen &
Spiegelhalter (1988). The instance keeps, per clearing target, in its
:meth:`~repacksim.model.Instance.derived` memo, the top-level parts and the
:class:`_Model` of each part whose tables with every station a participant
hold at most :data:`MAX_SUM_ENTRIES` entries: its allowed channels, its
clique tree and each node's mask of forbidden entries. The tables go with
the call. Each call cuts each mask to its own sizes, a non-participant
having no state off the air, and counts, spends and fills the tables from
there, so its outcome and ``nodes`` depend on its arguments alone.
Conditioned branches and parts over the limit are built per call by the
same builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    Assignment,
    ChannelEntry,
    ClearingTarget,
    Instance,
    StationId,
    UnpackableError,
    ValueProfile,
    station_sum,
)

#: :meth:`~repacksim.model.Instance.channel_table` for one clearing target.
_Table = tuple[tuple[ChannelEntry, ...], ...]

#: Table entries a call may spend. An entry of the large tables that a
#: conditioned call builds costs about 70 ns (2-core x86_64, Python 3.11),
#: so this bounds such a call at about a minute. The worst call of
#: ``scripts/run_grid.py --stations 50`` on seeds 1-3 needs 1.2×10^8.
DEFAULT_NODE_BUDGET = 1_000_000_000
#: The most table entries a part may need to be solved by max-sum; one that
#: needs more is conditioned on a station. The largest component of one pass
#: of the acceptance grid needs 239,428, 1.9 MB of float64.
MAX_SUM_ENTRIES = 1 << 20


class ResourceLimitError(RuntimeError):
    """The exact benchmark ran out of its node budget; it never degrades to
    an approximation."""


class NodeCounter:
    """The table entries a call has spent against its node budget."""

    __slots__ = ("budget", "spent")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.spent = 0

    def spend(self, nodes: int) -> None:
        """Spend ``nodes`` at once; :class:`ResourceLimitError` when fewer
        are left."""
        self.spent += nodes
        if self.spent > self.budget:
            # `run` records this text as the reason its rows are incomparable
            raise ResourceLimitError(
                f"exact benchmark exceeded its node budget of {self.budget} table entries"
            )


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


@dataclass
class _Model:
    """What a max-sum solve of one part needs that no value or participant
    changes (see the module docstring): the part's station ids, each one's
    allowed channels, the option pairs that each pair of stations may not
    take, and the clique tree, root first, each node after its parent. A
    node's scope lists its stations in elimination order: first its frontal
    stations, eliminated in it, then its separator, which its parent's scope
    holds too. ``masks``, once set, holds each node's forbidden entries,
    and ``forbidden`` is then emptied."""

    sids: list[StationId]
    channels: list[list[int]]
    forbidden: dict[tuple[int, int], tuple[list[int], list[int]]]
    node_of: list[int]
    frontal: list[list[int]]
    scope: list[list[int]]
    parent: list[int]
    masks: list[np.ndarray] | None = None

    def entries(self, sizes: list[int]) -> int:
        """The entries of the node tables when station ``u`` has
        ``sizes[u]`` states, its last off the air when it has one more than
        its channels."""
        return sum(math.prod(sizes[u] for u in sc) for sc in self.scope)

    def forbidden_masks(self, sizes: list[int]) -> list[np.ndarray]:
        """For each node, the entries of its table over ``sizes`` that a
        forbidden pair rules out, each pair at the node that eliminates its
        first station."""
        masks = []
        for sc, fr in zip(self.scope, self.frontal):
            mask = np.zeros([sizes[u] for u in sc], dtype=bool)
            for a, v in enumerate(fr):
                for b in range(a + 1, len(sc)):
                    u = sc[b]
                    pair = self.forbidden.get((v, u) if v < u else (u, v))
                    if pair is not None:
                        at: list = [slice(None)] * len(sc)
                        at[a], at[b] = pair if v < u else pair[::-1]
                        mask[tuple(at)] = True
            masks.append(mask)
        return masks


def _model(
    table: _Table, ids: tuple[StationId, ...], part: list[int], allowed: list[int]
) -> _Model:
    """The max-sum model of the stations at positions ``part`` of
    ``table``, each with the channels of bit mask ``allowed[g]``, connected
    through their conflicts; its masks are left unset."""
    sids = [ids[g] for g in part]
    m = len(part)
    # each station's allowed channels
    kept = [[row for row in table[g] if allowed[g] & row[1]] for g in part]
    channels = [[ch for ch, _, _, _ in rows] for rows in kept]
    forbidden: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    if m == 1:
        return _Model(sids, channels, forbidden, [0], [[0]], [[0]], [-1])

    # the option pairs that each pair of stations may not take
    local = {g: i for i, g in enumerate(part)}
    rank = [{bit: k for k, (_, bit, _, _) in enumerate(rows)} for rows in kept]
    near = [0] * m
    for i, rows in enumerate(kept):
        for k, (_, _, _, clashes) in enumerate(rows):
            for h, bit in clashes:
                j = local.get(h, -1)
                if j > i and bit in rank[j]:
                    pair = forbidden.get((i, j))
                    if pair is None:
                        pair = forbidden[i, j] = ([], [])
                        near[i] |= 1 << j
                        near[j] |= 1 << i
                    pair[0].append(k)
                    pair[1].append(rank[j][bit])

    # the clique tree (see the module docstring)
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
    return _Model(sids, channels, forbidden, node_of, frontal, scope, parent)


def _max_sum(
    table: _Table,
    ids: tuple[StationId, ...],
    part: list[int],
    allowed: list[int],
    forced: frozenset[StationId],
    values: ValueProfile,
    counter: NodeCounter,
    models: dict[tuple[int, ...], _Model] | None = None,
) -> tuple[Assignment | None, dict[StationId, Assignment | None]] | None:
    """Exact max-value packing of the stations at positions ``part`` of
    ``table``, connected through the conflicts of their ``allowed``
    channels, by max-sum on a clique tree; None when its tables would hold
    more than :data:`MAX_SUM_ENTRIES` entries. ``allowed[g]`` is the bit
    mask of the channels that the packing may give station ``ids[g]``.

    The part's :class:`_Model` is read from ``models``, the memo of the
    top-level parts, by the part's positions, or built and added there,
    with masks over every station's off state, when its tables with every
    station a participant fit (see the module docstring). A part that is
    not kept gets masks over its own sizes.

    Returns the packing, None when the forced stations cannot all be placed,
    and, for each participant the packing leaves off the air, the best
    packing of the part with that station on air (None when it cannot be),
    decoded from its max-marginals. The tables' entries are spent from
    ``counter`` at once; :class:`ResourceLimitError` is raised when fewer
    are left.
    """
    model = None if models is None else models.get(tuple(part))
    if model is None:
        model = _model(table, ids, part, allowed)
        full = [len(chs) + 1 for chs in model.channels]
        if models is not None and model.entries(full) <= MAX_SUM_ENTRIES:
            # a kept model keeps its masks, not the pairs they are built from
            model.masks, model.forbidden = model.forbidden_masks(full), {}
            models[tuple(part)] = model
    sids, channels = model.sids, model.channels
    m = len(sids)
    # a participant's last state is off the air
    off = [sid not in forced for sid in sids]
    sizes = [len(chs) + o for chs, o in zip(channels, off)]
    if m == 1:
        counter.spend(sizes[0])
        sid = sids[0]
        if channels[0]:
            return {sid: channels[0][0]}, {}
        if not off[0]:
            return None, {}
        return {}, {sid: None}

    entries = model.entries(sizes)
    if entries > MAX_SUM_ENTRIES:
        return None
    counter.spend(entries)
    masks = model.masks if model.masks is not None else model.forbidden_masks(sizes)
    node_of, frontal, scope, parent = model.node_of, model.frontal, model.scope, model.parent
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
    tables: list = [None] * len(scope)
    for n in reversed(nodes):
        sc = scope[n]
        t = np.where(masks[n][tuple(slice(sizes[u]) for u in sc)], -np.inf, 0.0)
        for a, v in enumerate(frontal[n]):
            if off[v]:
                t[(slice(None),) * a + (slice(len(channels[v])),)] += values[sids[v]]
        for c in children[n]:
            t += tables[c].max(axis=front[c]).reshape(lined[c])
        tables[n] = t

    if tables[0].max() == -np.inf:
        return None, {}
    packing = [0] * m
    for n in nodes:
        _decode(tables[n], frontal[n], [packing[u] for u in sep[n]], packing)

    def assignment(states: list[int]) -> Assignment:
        return {sids[v]: channels[v][k] for v, k in enumerate(states) if k < len(channels[v])}

    winners = [v for v in range(m) if off[v] and packing[v] == len(channels[v])]
    if not winners:
        return assignment(packing), {}

    # Downward pass: each table becomes the max-marginals of its scope. A
    # parent's message to a child leaves out the child's own message, which
    # spans the child's separator, so it is subtracted after the maximum
    # over the other axes: rounding is monotone, so the bits are those of
    # subtracting first. Where the child's message is -inf, so is the
    # child's whole table, and the -inf - -inf there is set to -inf.
    with np.errstate(invalid="ignore"):
        for n in nodes:
            t = tables[n]
            for c in children[n]:
                # the axes the child's separator lacks, and any of size 1
                rest = tuple(a for a, size in enumerate(lined[c]) if size == 1)
                mine = tables[c].max(axis=front[c])
                down = t.max(axis=rest).reshape(mine.shape) - mine
                down[np.isnan(down)] = -np.inf
                tables[c] += down

    restricted: dict[StationId, Assignment | None] = {}
    for w in winners:
        n = node_of[w]
        t = tables[n]
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
            sub = tables[n][tuple(slice(None) if u not in known else states[u] for u in scope[n])]
            for u, k in zip(free, np.unravel_index(int(sub.argmax()), sub.shape)):
                states[u] = int(k)
            known.update(free)
            n = parent[n]
        changed = {u for u in known if states[u] != packing[u]}
        for n in nodes:
            if n not in chain and not changed.isdisjoint(sep[n]):
                _decode(tables[n], frontal[n], [states[u] for u in sep[n]], states)
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


def _linked(table: _Table, within: int, allowed: list[int]) -> list[int]:
    """For each station of ``within``, the bit mask of the stations of
    ``within`` with an ``allowed`` channel that rules out one of its own
    allowed channels; 0 for any other station."""
    near = [0] * len(table)
    rest = within
    while rest:
        low = rest & -rest
        rest ^= low
        g = low.bit_length() - 1
        for _, bit, _, clashes in table[g]:
            if allowed[g] & bit:
                for h, b in clashes:
                    if within >> h & 1 and allowed[h] & b:
                        near[g] |= 1 << h
    return near


def _parts(table: _Table, within: int, allowed: list[int]) -> list[list[int]]:
    """The parts that the stations of ``within`` fall into, connected
    through the conflicts of their ``allowed`` channels: each a list in
    ascending order, and the parts in the order of their first stations."""
    near = _linked(table, within, allowed)
    parts = []
    while within:
        # flood out from the first station left
        part = frontier = within & -within
        while frontier:
            low = frontier & -frontier
            grown = near[low.bit_length() - 1] & ~part
            part |= grown
            frontier = frontier ^ low | grown
        within ^= part
        parts.append([g for g in range(part.bit_length()) if part >> g & 1])
    return parts


def _solve(
    table: _Table,
    ids: tuple[StationId, ...],
    part: list[int],
    allowed: list[int],
    forced: frozenset[StationId],
    values: ValueProfile,
    counter: NodeCounter,
    models: dict[tuple[int, ...], _Model] | None = None,
) -> tuple[Assignment | None, dict[StationId, Assignment | None]]:
    """:func:`_max_sum` of ``part``, conditioning on a station when its
    tables do not fit (see the module docstring); the same returns."""
    solved = _max_sum(table, ids, part, allowed, forced, values, counter, models)
    if solved is not None:
        return solved
    within = sum(1 << g for g in part)
    near = _linked(table, within, allowed)
    s = min(part, key=lambda g: (-near[g].bit_count(), g))
    rest = within ^ 1 << s
    sid = ids[s]
    states = [(ch, clashes) for ch, bit, _, clashes in table[s] if allowed[s] & bit]
    if sid not in forced:
        states.append((None, ()))
    best: Assignment | None = None
    best_value = 0.0
    # each participant's best packing on air so far, as (value without it, packing)
    on_air: dict[StationId, tuple[float, Assignment]] = {}
    for ch, clash in states:
        left = list(allowed)
        for h, b in clash:
            left[h] &= ~b
        packing: Assignment = {} if ch is None else {sid: ch}
        try:
            parts = _parts(table, rest, left)
            swapped = _join(table, ids, parts, left, forced, values, counter, packing)
        except UnpackableError:
            continue
        value = station_sum(values, [o for o in packing if o not in forced])
        if best is None or value > best_value:
            best, best_value = packing, value
        offers = [(w, packing) for w in packing if w not in forced]
        offers += [(w, p) for w, p in swapped.items() if p is not None]
        for w, p in offers:
            worth = station_sum(values, [o for o in p if o not in forced and o != w])
            if w not in on_air or worth > on_air[w][0]:
                on_air[w] = worth, p
    if best is None:
        return None, {}
    winners = [ids[g] for g in part if ids[g] not in forced and ids[g] not in best]
    return best, {w: on_air[w][1] if w in on_air else None for w in winners}


def _join(
    table: _Table,
    ids: tuple[StationId, ...],
    parts: list[list[int]],
    allowed: list[int],
    forced: frozenset[StationId],
    values: ValueProfile,
    counter: NodeCounter,
    packing: Assignment,
    models: dict[tuple[int, ...], _Model] | None = None,
) -> dict[StationId, Assignment | None]:
    """Solve each of ``parts``, the :func:`_parts` of some stations, by
    :func:`_solve` with ``models``, in order, and add its packing to
    ``packing`` in place.

    Returns, for each participant the parts leave off the air, ``packing``
    with that station's part swapped for the part's packing with it on air,
    or None when it cannot be on air. Raises :class:`UnpackableError` for
    the first part whose forced stations cannot all be placed.
    """
    solved = []
    for part in parts:
        found, restricted = _solve(table, ids, part, allowed, forced, values, counter, models)
        if found is None:
            raise UnpackableError(
                f"non-participating stations in component {[ids[g] for g in part]}"
                " cannot be packed"
            )
        packing.update(found)
        solved.append((part, restricted))
    swapped: dict[StationId, Assignment | None] = {}
    for part, restricted in solved:
        stations = {ids[g] for g in part}
        others = {o: ch for o, ch in packing.items() if o not in stations}
        for w, lifted in restricted.items():
            swapped[w] = None if lifted is None else {**others, **lifted}
    return swapped


def optimal_packing(
    inst: Instance,
    values: ValueProfile,
    participants: Iterable[StationId],
    non_participants: Iterable[StationId],
    ct: ClearingTarget,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[Assignment, float]:
    """Exact value-maximizing packing and its value: those of
    :func:`vcg_outcome`. Participants may stay on air or not;
    non-participants must be packed. Raises :class:`UnpackableError` when the
    non-participants cannot all be placed, and :class:`ResourceLimitError`
    when the node budget runs out."""
    outcome = vcg_outcome(inst, values, participants, non_participants, ct, node_budget)
    return outcome.optimal_assignment, outcome.optimal_value


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

    The packing joins the components of the interference graph, and each
    restricted value is read from the join's packing with the winner on air
    (see the module docstring). The solve
    spends at most ``node_budget`` table entries. The instance keeps the
    max-sum models of its interference components, which no value or
    participant changes; the tables are built from them and dropped by this
    call, so the outcome, its node count included, depends on the arguments
    alone.
    """
    parts, nons = _partition_check(inst, participants, non_participants)
    counter = NodeCounter(node_budget)
    table, ids = inst.channel_table(ct), inst.station_ids()
    # -1 has every bit set: each station may take any of its channels
    allowed = [-1] * len(table)
    memo = inst.derived(ct)
    top = memo.get("max_sum")
    if top is None:
        # the interference components and the models of those that fit
        top = memo["max_sum"] = (_parts(table, (1 << len(table)) - 1, allowed), {})
    components, models = top
    assignment: Assignment = {}
    swapped = _join(table, ids, components, allowed, nons, values, counter, assignment, models)
    value = station_sum(values, parts.intersection(assignment))
    winners = tuple(sorted(parts - set(assignment)))
    # A winner that cannot be forced on air is priced at the full optimum.
    restricted = {
        sid: 0.0 if swapped[sid] is None
        else station_sum(values, (parts - {sid}).intersection(swapped[sid]))
        for sid in winners
    }
    prices = {sid: value - restricted[sid] for sid in winners}
    return VcgOutcome(assignment, value, winners, prices, restricted, counter.spent)
