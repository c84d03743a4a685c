"""The packing search shared by the feasibility checks, initial packing and
the exact benchmark.

A :class:`PackingModel` is the packing problem over an ordered list of
stations: each station's reduced-band channels, as bit masks, with the
channels of the other listed stations that each one rules out.
:func:`search` is depth-first search with forward checking over such a model
(Haralick & Elliott, 1980), written as one loop with an explicit stack, so
its cost does not depend on the caller's stack depth. A feasibility check
forces every station and stops at the first complete assignment; the
benchmark's branch and bound lets participants stay off the air and keeps
the packing of highest value. The branch and bound is AND/OR search with
caching (Marinescu & Dechter, 2009): once a cut station is decided, the
undecided stations fall into parts that share no conflict, and each part is
solved on its own, its optimum cached by its stations' live channels and
forced flags. Searches of one model may share that cache, so a part solved
once is not searched again by a later search that meets it. They may also
share a memo of the cut tests made and the parts found, which depend on the
model alone. The model's station order is the only order a search reads:
the lower index breaks ties in the fewest-channels-left rule, and a search
may name a lead station to decide before any other, as a VCG re-solve
leads with its entrant.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .model import (
    Assignment,
    Channel,
    ClearingTarget,
    Instance,
    StationChannel,
    StationId,
)


class ResourceLimitError(RuntimeError):
    """The search's node budget ran out before an exact answer; the search
    never degrades to an approximation."""


class NodeCounter:
    __slots__ = ("budget", "remaining")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.remaining = budget

    @property
    def spent(self) -> int:
        return self.budget - self.remaining

    def spend(self, nodes: int) -> None:
        """Spend ``nodes`` at once; :class:`ResourceLimitError` when fewer
        are left."""
        self.remaining -= nodes
        if self.remaining < 0:
            raise _exhausted(self, self.remaining)


class PackingModel:
    """The stations of ``order``, each with its options cut from its row of
    the instance's channel table (:meth:`~repacksim.model.Instance.channel_table`):
    one per reduced-band channel, in ascending order, as ``(bit, channel,
    clash)``, where bit ``k`` stands for ``universe[k]``, the k-th channel of
    the instance's universe, and ``clash`` lists the ``(station index, bit)``
    pairs of the listed stations that the channel rules out.
    A station's ``hint`` channel, when it has one, is its first option.
    ``neighbours[i]`` has bit ``j`` set when some channel of station ``i``
    rules out a channel of station ``j``."""

    __slots__ = ("order", "options", "universe", "_neighbours")

    def __init__(
        self,
        inst: Instance,
        ct: ClearingTarget,
        order: Iterable[StationId],
        hint: Mapping[StationId, Channel] | None = None,
    ) -> None:
        self.order = list(order)
        self.universe = inst.channel_universe
        self._neighbours: list[int] | None = None
        table = inst.channel_table(ct)
        positions = [inst.position(sid) for sid in self.order]
        # the local index of each station of the instance in the model
        local = {pos: i for i, pos in enumerate(positions)}
        self.options = []
        for sid, pos in zip(self.order, positions):
            opts = [
                (bit, ch, tuple([(local[p], b) for p, b in clashes if p in local]))
                for ch, bit, _, clashes in table[pos]
            ]
            hinted = hint.get(sid) if hint is not None else None
            for k, option in enumerate(opts):
                if option[1] == hinted:
                    opts.insert(0, opts.pop(k))
                    break
            self.options.append(opts)

    @property
    def neighbours(self) -> list[int]:
        if self._neighbours is None:
            self._neighbours = []
            for opts in self.options:
                near = 0
                for _, _, clash in opts:
                    for j, _ in clash:
                        near |= 1 << j
                self._neighbours.append(near)
        return self._neighbours

    @property
    def clauses(self) -> list[tuple[StationChannel, StationChannel]]:
        """Each forbidden pair among the stations once, from its lower pair,
        in station then option order."""
        pairs = []
        for sid, opts in zip(self.order, self.options):
            for _, ch, clash in opts:
                for j, bit in clash:
                    other = (self.order[j], self.universe[bit.bit_length() - 1])
                    if other > (sid, ch):
                        pairs.append(((sid, ch), other))
        return pairs


#: The untried options of a station whose off-air branch is under way.
_OFF_AIR = iter(())
_INF = float("inf")
#: The fewest undecided stations worth looking for a cut station among. On
#: smaller problems the test costs more than the split saves: 10-station
#: solves ran 3.5 % slower than plain branch and bound with this bound, 8 %
#: with a bound of 8 (sweep workload, 2-core x86_64, Python 3.11).
SPLIT_MIN = 10


def _flood(seed: int, within: int, neighbours: list[int], goal: int = 0) -> int:
    """The stations of ``within`` reachable from ``seed``, or fewer once they
    include all of ``goal``."""
    reached = frontier = seed
    while frontier and goal & ~reached:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~reached
        reached |= frontier
    return reached


def _split(near: int, within: int, neighbours: list[int]) -> tuple:
    """:func:`parts_of` ``within`` when the stations of ``near`` do not all
    reach one another within it; otherwise ``()``."""
    # most often the first of them neighbours all the others
    low = near & -near
    if not near & ~(neighbours[low.bit_length() - 1] | low):
        return ()
    if not near & ~_flood(low, within, neighbours, near):
        return ()
    return parts_of(within, neighbours)


def parts_of(within: int, neighbours: list[int]) -> tuple[list[list[int]], list[int]]:
    """The parts that the stations of ``within`` fall into, connected
    through ``neighbours``, as ``(station lists, masks)``: each list in
    ascending order, and the parts in the order of their first stations."""
    parts, masks = [], []
    while within:
        part = _flood(within & -within, within, neighbours, within)
        within ^= part
        masks.append(part)
        stations = []
        while part:
            low = part & -part
            stations.append(low.bit_length() - 1)
            part ^= low
        parts.append(stations)
    return parts, masks


class _AndNode:
    """The parts of a :func:`_split` and, while ``at`` is not None, the AND
    node over them on the cut station's current branch.

    For each part the node holds an upper bound on its optimum and, once
    known, that optimum as ``(value, packing)``; for a part that may need a
    search, also its cache key and its open value (the sum of its stations
    with channels left). ``at`` is the part under search, -1 before the
    first; ``saved`` holds the search the cut station belongs to, resumed
    when a part's search ends."""

    __slots__ = ("parts", "masks", "at", "acc", "keys", "open", "bound", "found", "saved")

    def __init__(self, split: tuple) -> None:
        self.parts, self.masks = split
        self.at: int | None = None

    def begin(self, acc, avail, gain, forced, order, options, width, cache) -> None:
        self.at = -1
        self.acc = acc
        self.keys, self.open, self.bound, self.found = [], [], [], []
        for part in self.parts:
            found = key = None
            total = 0.0
            if len(part) == 1:
                # on air on its first channel left, if it has one
                j = part[0]
                c = avail[j]
                if c:
                    ch = next(ch for bit, ch, _ in options[j] if c & bit)
                    found = (gain[j], (((order[j], ch),),))
                else:
                    found = (0.0, ((),))
                bound = found[0]
            else:
                key = 0
                for j in part:
                    c = avail[j]
                    key |= ((c << 1 | forced[j]) << 1 | 1) << (j * width)
                    if c:
                        total += gain[j]
                bound = total
                hit = cache.get(key)
                if hit.__class__ is tuple:
                    found = hit
                    bound = hit[0]
                elif hit is not None and hit < bound:
                    bound = hit
            self.keys.append(key)
            self.open.append(total)
            self.bound.append(bound)
            self.found.append(found)

    def next_part(self, best_value: float) -> tuple[int, float]:
        """The next part to search and the value it must beat; ``(-1, 0.0)``
        when the node cannot beat ``best_value``, and ``(len(parts), 0.0)``
        when every part's optimum is known."""
        bound = self.bound
        for k in range(self.at + 1, len(self.parts)):
            if self.found[k] is None:
                others = 0.0
                for q, b in enumerate(bound):
                    if q != k:
                        others += b
                threshold = best_value - self.acc - others
                if bound[k] <= threshold:
                    return -1, 0.0
                self.at = k
                return k, threshold
        return len(self.parts), 0.0


def _unpack(tree: tuple) -> Assignment:
    """Flatten a packing of nested ``(pairs, *parts)`` tuples."""
    assignment: Assignment = {}
    todo = [tree]
    while todo:
        pairs, *parts = todo.pop()
        assignment.update(pairs)
        todo.extend(parts)
    return assignment


def search(
    model: PackingModel,
    gain: list[float],
    forced: list[bool],
    counter: NodeCounter,
    best_value: float = -1.0,
    best: Assignment | None = None,
    first: bool = False,
    cache: dict[int, float | tuple] | None = None,
    splits: dict[int, tuple] | None = None,
    lead: int | None = None,
) -> tuple[Assignment | None, float]:
    """Best packing of ``model`` worth more than ``best_value``.

    Station ``i`` is worth ``gain[i]`` on air and must be on air when
    ``forced[i]``. Station ``lead``, when given, is decided first. After it,
    the next station to decide is the undecided one with the fewest channels
    left, the lower index in ``model.order`` breaking ties. Its options are
    tried in order, then, unless it is forced, leaving it off the air. Assigning a channel removes the channels it rules
    out from undecided stations, and a forced station left with none ends
    the branch. A node is pruned when the value decided so far plus all the
    undecided value cannot beat the best. Every option tried and every
    off-air branch spends one node of ``counter``; :class:`ResourceLimitError`
    is raised when none are left.

    Without ``first``, on models of at least :data:`SPLIT_MIN` stations, the
    search is AND/OR branch and bound. A station with no undecided neighbour
    in ``model.neighbours`` goes on air on its first channel left, one branch.
    A station whose neighbours do not all reach one another through undecided
    stations is a cut station: on each of its branches the undecided stations
    fall into parts, solved one after another, each needing to beat the best
    less the value decided and the other parts' bounds, and the branch is
    worth the sum of their optima. A part of one station needs no search. A
    part's optimum, or the largest bound its search closed when it cannot
    beat what it needs to, goes into ``cache`` under its stations' live
    channels and forced flags, and a cache hit spends no node. Either entry
    holds whatever the part had to beat, so searches of one model may share
    ``cache`` as long as a station's gain depends on its forced flag alone;
    without one, the search starts an empty cache of its own. Cut stations
    are looked for only while at least :data:`SPLIT_MIN` stations of the part
    under search are undecided. ``splits`` keeps each cut test and the parts
    it made, keyed by the undecided stations and the station picked; these
    depend on ``model`` alone, so its searches may share it, and without
    one the search starts its own.

    Returns the best packing and its value, or ``(best, best_value)`` when
    nothing beats them. With ``first`` the search stops at the first packing
    that beats ``best_value``, with its stations in the order they were
    decided.
    """
    order, options = model.order, model.options
    n = len(order)
    avail = [sum(bit for bit, _, _ in opts) for opts in options]
    score = [avail[i].bit_count() * n + i for i in range(n)]
    if lead is not None:
        # below every other score, and still `lead` modulo n
        score[lead] -= (len(model.universe) + 1) * n
    undecided = set(range(n))
    neighbours = model.neighbours if not first and n >= SPLIT_MIN else None
    free = (1 << n) - 1  # the stations with no frame on the stack
    left = counter.remaining
    # One frame per decided station: [station, its channels, value decided
    # before it, value still open after it, its untried options, what its
    # current branch removed, its current channel or None off the air, its
    # AND node when it is a cut station].
    stack: list[list] = []
    acc = 0.0
    # summed in station order, so equal problems prune identically
    open_value = sum(gain[i] for i in sorted(range(n), key=order.__getitem__))
    # The part under search: its stations are `scope`, its frames start at
    # stack[base], its undecided stations are `undecided`, `tree` is its best
    # packing found so far, and no subtree closed without beating the best is
    # worth more than `proven`.
    scope = free
    base = 0
    tree = None
    proven = -_INF
    if cache is None:
        cache = {}
    if splits is None:
        splits = {}
    width = len(model.universe) + 2
    while True:
        if not undecided:
            if acc > best_value:
                best_value = acc
                if first:
                    best = {order[f[0]]: f[6] for f in stack if f[6] is not None}
                    break
                tree = (tuple([(order[f[0]], f[6]) for f in stack[base:] if f[6] is not None]),)
            elif acc > proven:
                proven = acc
        elif acc + open_value <= best_value:
            if acc + open_value > proven:
                proven = acc + open_value
        else:
            i = min(map(score.__getitem__, undecided)) % n
            undecided.discard(i)
            free ^= 1 << i
            mask = avail[i]
            # stations starved of channels were already deducted when starved
            rest = open_value - (gain[i] if mask else 0.0)
            # A decided station shows no channels, so restricting skips it.
            avail[i] = 0
            cut = None
            if neighbours is not None:
                near = neighbours[i] & free
                if not near and mask:
                    # its first channel left rules out none of the undecided
                    # stations' channels, so on air there beats every other
                    # branch: take it as the only one
                    left -= 1
                    if left < 0:
                        raise _exhausted(counter, left)
                    ch = next(ch for bit, ch, _ in options[i] if mask & bit)
                    stack.append([i, mask, acc, rest, _OFF_AIR, (), ch, None])
                    acc, open_value = acc + gain[i], rest
                    continue
                if near & (near - 1) and len(undecided) >= SPLIT_MIN:
                    # i is a cut station when its undecided neighbours do not
                    # all reach one another through undecided stations
                    within = free & scope
                    key = within * n + i
                    split = splits.get(key)
                    if split is None:
                        split = splits[key] = _split(near, within, neighbours)
                    if split:
                        cut = _AndNode(split)
            stack.append([i, mask, acc, rest, iter(options[i]), (), None, cut])
        # Move the deepest frame on to its next branch, dropping frames that
        # have none left; the search ends when no frame is left.
        while stack:
            frame = stack[-1]
            i, mask, base_acc, rest, untried, removed, _, cut = frame
            if cut is not None and cut.at is not None:
                # The AND node on this cut station's branch: settle the part
                # whose search has just ended, then start the next one.
                k = cut.at
                if k >= 0:
                    # part k's search is over: cache what it found, and go
                    # back to the search the cut station belongs to
                    if tree is None:
                        cache[cut.keys[k]] = cut.bound[k] = proven
                    else:
                        cache[cut.keys[k]] = cut.found[k] = (best_value, tree)
                        cut.bound[k] = best_value
                    best_value, tree, base, undecided, proven, scope = cut.saved
                if k < 0 or cut.found[k] is not None:
                    k, threshold = cut.next_part(best_value)
                    if 0 <= k < len(cut.parts):
                        cut.saved = best_value, tree, base, undecided, proven, scope
                        undecided, scope = set(cut.parts[k]), cut.masks[k]
                        acc, open_value = 0.0, cut.open[k]
                        best_value, tree, base, proven = threshold, None, len(stack), -_INF
                        break
                else:
                    k = -1  # part k could not beat what it had to
                # the node is worth the sum of its parts' optima, and at most
                # the sum of their bounds when it was cut short
                value = cut.acc
                for b in cut.bound:
                    value += b
                if k >= 0 and value > best_value:
                    best_value = value
                    own = [(order[f[0]], f[6]) for f in stack[base:] if f[6] is not None]
                    tree = (tuple(own), *[found[1] for found in cut.found])
                elif value > proven:
                    proven = value
                cut.at = None
                continue
            for j, b in removed:
                avail[j] |= b
                score[j] += n
            for bit, ch, clash in untried:
                if not mask & bit:
                    continue
                left -= 1
                if left < 0:
                    raise _exhausted(counter, left)
                # Remove the channels (i, ch) rules out from undecided
                # stations, totting up the value of those left with none; a
                # starved forced station ends the branch.
                removed = []
                lost = 0.0
                dead = False
                for pair in clash:
                    j, b = pair
                    c = avail[j]
                    if c & b:
                        c ^= b
                        avail[j] = c
                        score[j] -= n
                        removed.append(pair)
                        if not c:
                            if forced[j]:
                                dead = True
                                break
                            lost += gain[j]
                if not dead:
                    frame[5], frame[6] = removed, ch
                    acc, open_value = base_acc + gain[i], rest - lost
                    break
                for j, b in removed:
                    avail[j] |= b
                    score[j] += n
            else:
                # every channel tried: off the air next, unless forced or done
                if untried is _OFF_AIR or forced[i]:
                    stack.pop()
                    avail[i] = mask
                    undecided.add(i)
                    free |= 1 << i
                    continue
                left -= 1
                if left < 0:
                    raise _exhausted(counter, left)
                frame[4], frame[5], frame[6] = _OFF_AIR, (), None
                acc, open_value = base_acc, rest
            if cut is not None:
                # the undecided stations now fall into the cut's parts
                if acc + open_value > best_value:
                    cut.begin(acc, avail, gain, forced, order, options, width, cache)
                elif acc + open_value > proven:
                    proven = acc + open_value
                continue
            break
        else:
            break
    counter.remaining = left
    if tree is not None:
        best = _unpack(tree)
    return best, best_value


def _exhausted(counter: NodeCounter, left: int) -> ResourceLimitError:
    counter.remaining = left
    # the benchmark's records carry this text as the reason they are incomparable
    return ResourceLimitError(
        "packing search exceeded its node budget; raise node_budget for an exact answer"
    )
