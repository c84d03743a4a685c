"""The feasibility checks' packing model, node counter and search.

A :class:`PackingModel` is the packing problem over an ordered list of
stations, cut from the instance's channel table: each station's row of the
table and a rank array from instance positions to model indices. The
feasibility checks and the initial packing's fallback build one, and
enumeration reads the same cut. :func:`search` is depth-first search with
forward checking over such a model (Haralick & Elliott, 1980), written as
one loop with an explicit stack, so its cost does not depend on the
caller's stack depth. It puts every station on air and stops at the first
complete packing. The exact benchmark (:mod:`repacksim.vcg`) reads the
channel table itself and shares only the node counter and
:class:`ResourceLimitError`.
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
    """The stations of ``order`` as a cut of the instance's channel table
    (:meth:`~repacksim.model.Instance.channel_table`): ``rows`` holds each
    station's row of ``(channel, bit, partners, clashes)`` entries, the
    table's own tuple unless the station's ``hint`` channel moves to its
    front, and ``rank`` maps each position of the instance to the station's
    index in ``order``, -1 for a station outside it. Enumeration
    (:func:`~repacksim.feasibility.check_exhaustive`) reads the same cut."""

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


def search(model: PackingModel, counter: NodeCounter) -> Assignment | None:
    """The first packing that puts every station of ``model`` on air, with
    its stations in the order they were decided; None when there is none.

    The next station to decide is the undecided one with the fewest channels
    left, the lower index in ``model.order`` breaking ties. Its channels are
    tried in the order of its row. Assigning a channel removes the channels
    it rules out from undecided stations, and a station left with none ends
    the branch. Every channel tried spends one node of ``counter``;
    :class:`ResourceLimitError` is raised when none are left.
    """
    order, rows, rank = model.order, model.rows, model.rank
    n = len(order)
    # The last slot stands for every station outside the model (rank -1):
    # it shows no channels, so a clash with one removes nothing.
    avail = [sum(bit for _, bit, _, _ in row) for row in rows] + [0]
    score = [avail[i].bit_count() * n + i for i in range(n)]
    undecided = set(range(n))
    left = counter.remaining
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
                score[j] += n
            for ch, bit, _, clashes in untried:
                if not mask & bit:
                    continue
                left -= 1
                if left < 0:
                    raise _exhausted(counter, left)
                # Remove the channels (i, ch) rules out from undecided
                # stations; a station left with none ends the branch.
                removed = []
                for pos, b in clashes:
                    j = rank[pos]
                    c = avail[j]
                    if c & b:
                        c ^= b
                        avail[j] = c
                        score[j] -= n
                        removed.append((j, b))
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
