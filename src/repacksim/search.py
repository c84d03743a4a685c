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
the packing of highest value.
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
    reduced_domain,
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


class PackingModel:
    """The stations of ``order``, each with its options: one per
    reduced-band channel, in ascending order, as ``(bit, channel, clash)``,
    where bit ``k`` stands for the k-th channel of the instance's universe and
    ``clash`` lists the ``(station index, bit)`` pairs that channel rules out.
    A station's ``hint`` channel, when it has one, is its first option."""

    __slots__ = ("order", "options", "bit_of", "channel_of")

    def __init__(
        self,
        inst: Instance,
        ct: ClearingTarget,
        order: Iterable[StationId],
        hint: Mapping[StationId, Channel] | None = None,
    ) -> None:
        self.order = list(order)
        local = {sid: i for i, sid in enumerate(self.order)}
        self.bit_of = {ch: 1 << k for k, ch in enumerate(inst.channel_universe)}
        self.channel_of = {bit: ch for ch, bit in self.bit_of.items()}
        conflicts = inst.conflicts_in_band(ct)
        bit_of = self.bit_of
        self.options = []
        for sid in self.order:
            channels = sorted(reduced_domain(inst.station(sid), ct))
            hinted = hint.get(sid) if hint is not None else None
            if hinted in channels:
                channels.remove(hinted)
                channels.insert(0, hinted)
            self.options.append(
                [
                    (
                        bit_of[ch],
                        ch,
                        tuple(
                            (local[osid], bit_of[och])
                            for osid, och in conflicts.get((sid, ch), ())
                            if osid in local
                        ),
                    )
                    for ch in channels
                ]
            )

    @property
    def clauses(self) -> list[tuple[StationChannel, StationChannel]]:
        """Each forbidden pair among the stations once, from its lower pair,
        in station then option order."""
        pairs = []
        for sid, opts in zip(self.order, self.options):
            for _, ch, clash in opts:
                for j, bit in clash:
                    other = (self.order[j], self.channel_of[bit])
                    if other > (sid, ch):
                        pairs.append(((sid, ch), other))
        return pairs


#: The untried options of a station whose off-air branch is under way.
_OFF_AIR = iter(())


def search(
    model: PackingModel,
    gain: list[float],
    forced: list[bool],
    counter: NodeCounter,
    best_value: float = -1.0,
    best: Assignment | None = None,
    first: bool = False,
) -> tuple[Assignment | None, float]:
    """Best packing of ``model`` worth more than ``best_value``.

    Station ``i`` is worth ``gain[i]`` on air and must be on air when
    ``forced[i]``. The next station to decide is the undecided one with the
    fewest channels left, the lower index breaking ties; its options are tried
    in order, then, unless it is forced, leaving it off the air. Assigning a
    channel removes the channels it rules out from undecided stations, and a
    forced station left with none ends the branch. A node is pruned when the
    value decided so far plus all the undecided value cannot beat the best.
    Every option tried and every off-air branch spends one node of
    ``counter``; :class:`ResourceLimitError` is raised when none are left.

    Returns the best packing, in the order its stations were decided, and its
    value, or ``(best, best_value)`` when nothing beats them. With ``first``
    the search stops at the first packing that beats ``best_value``.
    """
    order, options = model.order, model.options
    n = len(order)
    avail = [sum(bit for bit, _, _ in opts) for opts in options]
    score = [avail[i].bit_count() * n + i for i in range(n)]
    undecided = set(range(n))
    left = counter.remaining
    # One frame per decided station: [station, its channels, value decided
    # before it, value still open after it, its untried options, what its
    # current branch removed, its current channel or None off the air].
    stack: list[list] = []
    acc = 0.0
    # summed in station order, so equal problems prune identically
    open_value = sum(gain[i] for i in sorted(range(n), key=order.__getitem__))
    while True:
        if not undecided:
            if acc > best_value:
                best_value = acc
                best = {order[f[0]]: f[6] for f in stack if f[6] is not None}
                if first:
                    break
        elif acc + open_value > best_value:
            i = min(map(score.__getitem__, undecided)) % n
            undecided.discard(i)
            mask = avail[i]
            # stations starved of channels were already deducted when starved
            rest = open_value - (gain[i] if mask else 0.0)
            # A decided station shows no channels, so restricting skips it.
            avail[i] = 0
            stack.append([i, mask, acc, rest, iter(options[i]), (), None])
        # Move the deepest frame on to its next branch, dropping frames that
        # have none left; the search ends when no frame is left.
        while stack:
            frame = stack[-1]
            i, mask, base, rest, untried, removed, _ = frame
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
                    acc, open_value = base + gain[i], rest - lost
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
                    continue
                left -= 1
                if left < 0:
                    raise _exhausted(counter, left)
                frame[4], frame[5], frame[6] = _OFF_AIR, (), None
                acc, open_value = base, rest
            break
        else:
            break
    counter.remaining = left
    return best, best_value


def _exhausted(counter: NodeCounter, left: int) -> ResourceLimitError:
    counter.remaining = left
    # the benchmark's records carry this text as the reason they are incomparable
    return ResourceLimitError(
        "packing search exceeded its node budget; raise node_budget for an exact answer"
    )
