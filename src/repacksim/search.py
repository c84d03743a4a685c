"""The packing model shared by the feasibility checks, initial packing and
the exact benchmark, and the feasibility checks' search.

A :class:`PackingModel` is the packing problem over an ordered list of
stations: each station's reduced-band channels, as bit masks, with the
channels of the other listed stations that each one rules out.
:func:`search` is depth-first search with forward checking over such a model
(Haralick & Elliott, 1980), written as one loop with an explicit stack, so
its cost does not depend on the caller's stack depth. It puts every station
on air and stops at the first complete packing. :func:`parts_of` splits
stations into parts that share no conflict, which the exact benchmark
(:mod:`repacksim.vcg`) solves one by one.
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
    """A node budget ran out before an exact answer; neither the search nor
    the exact benchmark degrades to an approximation."""


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
    A station's ``hint`` channel, when it has one, is its first option."""

    __slots__ = ("order", "options", "universe")

    def __init__(
        self,
        inst: Instance,
        ct: ClearingTarget,
        order: Iterable[StationId],
        hint: Mapping[StationId, Channel] | None = None,
    ) -> None:
        self.order = list(order)
        self.universe = inst.channel_universe
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


def parts_of(within: int, neighbours: list[int]) -> list[list[int]]:
    """The parts that the stations of ``within`` fall into, connected
    through ``neighbours``: each a list in ascending order, and the parts in
    the order of their first stations."""
    parts = []
    while within:
        part = _flood(within & -within, within, neighbours, within)
        within ^= part
        stations = []
        while part:
            low = part & -part
            stations.append(low.bit_length() - 1)
            part ^= low
        parts.append(stations)
    return parts


def search(model: PackingModel, counter: NodeCounter) -> Assignment | None:
    """The first packing that puts every station of ``model`` on air, with
    its stations in the order they were decided; None when there is none.

    The next station to decide is the undecided one with the fewest channels
    left, the lower index in ``model.order`` breaking ties. Its options are
    tried in order. Assigning a channel removes the channels it rules out
    from undecided stations, and a station left with none ends the branch.
    Every option tried spends one node of ``counter``;
    :class:`ResourceLimitError` is raised when none are left.
    """
    order, options = model.order, model.options
    n = len(order)
    avail = [sum(bit for bit, _, _ in opts) for opts in options]
    score = [avail[i].bit_count() * n + i for i in range(n)]
    undecided = set(range(n))
    left = counter.remaining
    # One frame per decided station: [station, its channels, its untried
    # options, what its current channel removed, its current channel].
    stack: list[list] = []
    while undecided:
        i = min(map(score.__getitem__, undecided)) % n
        undecided.discard(i)
        mask = avail[i]
        # A decided station shows no channels, so restricting skips it.
        avail[i] = 0
        stack.append([i, mask, iter(options[i]), (), None])
        # Move the deepest frame on to its next channel, dropping frames that
        # have none left; the search fails when no frame is left.
        while stack:
            frame = stack[-1]
            i, mask, untried, removed, _ = frame
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
                # stations; a station left with none ends the branch.
                removed = []
                for pair in clash:
                    j, b = pair
                    c = avail[j]
                    if c & b:
                        c ^= b
                        avail[j] = c
                        score[j] -= n
                        removed.append(pair)
                        if not c:
                            break
                else:
                    frame[3], frame[4] = removed, ch
                    break
                for j, b in removed:
                    avail[j] |= b
                    score[j] += n
            else:
                stack.pop()
                avail[i] = mask
                undecided.add(i)
                continue
            break
        else:
            counter.remaining = left
            return None
    counter.remaining = left
    return {order[f[0]]: f[4] for f in stack}


def _exhausted(counter: NodeCounter, left: int) -> ResourceLimitError:
    counter.remaining = left
    # the benchmark's records carry this text as the reason they are incomparable
    return ResourceLimitError(
        "packing search exceeded its node budget; raise node_budget for an exact answer"
    )
