"""Core value types for channel repacking: stations, interference constraints,
problem instances, clearing targets, and assignment validation.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

StationId = int
Channel = int

#: Partial channel assignment. Stations absent from the map are off the air.
Assignment = dict[StationId, Channel]

#: Dollar value each station places on remaining on the air.
ValueProfile = dict[StationId, float]

#: Station-channel pair, the atom of an interference constraint.
StationChannel = tuple[StationId, Channel]

#: One channel of a station in :meth:`Instance.channel_table`:
#: ``(channel, bit, partners, clashes)``.
ChannelEntry = tuple[Channel, int, tuple[StationChannel, ...], tuple[tuple[int, int], ...]]


class UnknownStationError(ValueError):
    """Input referenced a station the instance does not declare."""


class UnpackableError(RuntimeError):
    """A set of stations that must stay on the air cannot be jointly packed."""


@dataclass(frozen=True)
class Station:
    """A broadcast station: eligible channels, audience reach, and prior channel."""

    id: StationId
    domain: frozenset[Channel]
    population: int
    pre_auction_channel: Channel

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", frozenset(self.domain))
        if self.id < 0:
            raise ValueError(f"station id must be non-negative, got {self.id}")
        if not self.domain:
            raise ValueError(f"station {self.id} has an empty domain")
        if self.pre_auction_channel not in self.domain:
            raise ValueError(
                f"station {self.id}: pre-auction channel "
                f"{self.pre_auction_channel} is outside its domain"
            )
        if self.population < 0:
            raise ValueError(f"station {self.id} has negative population")


@dataclass(frozen=True, order=True)
class InterferenceConstraint:
    """An unordered forbidden pair of station-channel assignments.

    The two pairs are stored in canonical (lexicographic) order, so a
    constraint inserted in either order compares and hashes identically.
    """

    first: StationChannel
    second: StationChannel

    def __post_init__(self) -> None:
        first = (int(self.first[0]), int(self.first[1]))
        second = (int(self.second[0]), int(self.second[1]))
        if first == second:
            raise ValueError(f"degenerate constraint on {first}")
        if second < first:
            first, second = second, first
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


@dataclass(frozen=True)
class ClearingTarget:
    """Channel threshold: only channels strictly below ``bar_c`` stay assignable."""

    bar_c: Channel

    def reduced(self, channels: Iterable[Channel]) -> frozenset[Channel]:
        """Restrict a channel collection to the band kept after clearing."""
        return frozenset(c for c in channels if c < self.bar_c)


@dataclass(frozen=True)
class Instance:
    """A repacking problem: stations, their interference constraints, and the
    channel universe they draw from.

    Stations are kept sorted by id and constraints canonicalized, so two
    instances with the same content compare equal regardless of input order.
    """

    stations: tuple[Station, ...]
    constraints: frozenset[InterferenceConstraint]
    channel_universe: tuple[Channel, ...]

    def __post_init__(self) -> None:
        stations = tuple(sorted(self.stations, key=lambda s: s.id))
        constraints = frozenset(self.constraints)
        universe = tuple(sorted(set(self.channel_universe)))
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "channel_universe", universe)

        by_id: dict[StationId, Station] = {}
        for st in stations:
            if st.id in by_id:
                raise ValueError(f"duplicate station id {st.id}")
            by_id[st.id] = st
        universe_set = set(universe)
        for st in stations:
            if not st.domain <= universe_set:
                extra = sorted(st.domain - universe_set)
                raise ValueError(
                    f"station {st.id} domain channels {extra} are outside the universe"
                )
        for con in constraints:
            for sid, ch in (con.first, con.second):
                if sid not in by_id:
                    raise UnknownStationError(
                        f"constraint references undeclared station {sid}"
                    )
                if ch not in by_id[sid].domain:
                    raise ValueError(
                        f"constraint channel {ch} is outside the domain of station {sid}"
                    )
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_position", {sid: i for i, sid in enumerate(by_id)})
        object.__setattr__(self, "_conflict_memo", {})
        object.__setattr__(self, "_table_memo", {})

    def station(self, sid: StationId) -> Station:
        try:
            return self._by_id[sid]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownStationError(f"unknown station {sid}") from None

    def position(self, sid: StationId) -> int:
        """The index of station ``sid`` in :attr:`stations`."""
        try:
            return self._position[sid]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownStationError(f"unknown station {sid}") from None

    def station_ids(self) -> tuple[StationId, ...]:
        return tuple(s.id for s in self.stations)

    def conflicts_in_band(
        self, ct: ClearingTarget
    ) -> Mapping[StationChannel, tuple[StationChannel, ...]]:
        """Index of forbidden partners per station-channel pair, restricted to
        constraints whose channels both survive the clearing target.

        Built once per target and memoized; the build iterates constraints in
        canonical order so the index is deterministic.
        """
        memo: dict = self._conflict_memo  # type: ignore[attr-defined]
        cached = memo.get(ct.bar_c)
        if cached is not None:
            return cached
        index: dict[StationChannel, list[StationChannel]] = {}
        for con in sorted(self.constraints):
            first, second = con.first, con.second
            if first[1] >= ct.bar_c or second[1] >= ct.bar_c:
                continue
            # the constraint's own pairs, not copies: every instance keeps
            # this index for as long as it lives
            index.setdefault(first, []).append(second)
            index.setdefault(second, []).append(first)
        frozen = {key: tuple(val) for key, val in index.items()}
        memo[ct.bar_c] = frozen
        return frozen

    def channel_table(self, ct: ClearingTarget) -> tuple[tuple[ChannelEntry, ...], ...]:
        """Per station, in station order, its reduced-band channels in
        ascending order, each as ``(channel, bit, partners, clashes)``: bit
        ``k`` stands for the k-th channel of the universe, ``partners`` is the
        channel's own entry of :meth:`conflicts_in_band`, and ``clashes``
        names the same partners as ``(station position, bit)``.

        Built once per target and memoized, as the conflict index is.
        """
        memo: dict = self._table_memo  # type: ignore[attr-defined]
        cached = memo.get(ct.bar_c)
        if cached is not None:
            return cached
        conflicts = self.conflicts_in_band(ct)
        bit_of = {ch: 1 << k for k, ch in enumerate(self.channel_universe)}
        channels = [sorted(ct.reduced(st.domain)) for st in self.stations]
        # one (position, bit) pair per station-channel, shared by every clash
        # that names it
        atoms = {
            (st.id, ch): (pos, bit_of[ch])
            for pos, st in enumerate(self.stations)
            for ch in channels[pos]
        }
        table = []
        for st, chs in zip(self.stations, channels):
            row = []
            for ch in chs:
                partners = conflicts.get((st.id, ch), ())
                row.append((ch, bit_of[ch], partners, tuple(atoms[p] for p in partners)))
            table.append(tuple(row))
        frozen = tuple(table)
        memo[ct.bar_c] = frozen
        return frozen


def station_sum(amounts: Mapping[StationId, float], stations: Iterable[StationId]) -> float:
    """The sum of ``amounts`` over ``stations``, taken in ascending station
    order so that equal station sets give bit-identical totals."""
    return sum(amounts[sid] for sid in sorted(stations))


def reduced_domain(station: Station, ct: ClearingTarget) -> frozenset[Channel]:
    """Channels the station may occupy once the band at and above the target
    is cleared. May be empty; such a station can never be repacked."""
    return ct.reduced(station.domain)


def validate_assignment(
    assignment: Mapping[StationId, Channel], inst: Instance, ct: ClearingTarget
) -> bool:
    """True iff every assigned channel lies in the station's reduced domain and
    no forbidden pair is jointly realized.

    Referencing an unknown station is a structural error, not ``False``.
    """
    for sid, ch in assignment.items():
        st = inst.station(sid)
        if ch >= ct.bar_c or ch not in st.domain:
            return False
    conflicts = inst.conflicts_in_band(ct)
    for sid, ch in assignment.items():
        for osid, och in conflicts.get((sid, ch), ()):
            if assignment.get(osid) == och:
                return False
    return True


def interference_graph(
    inst: Instance, ct: ClearingTarget
) -> dict[StationId, set[StationId]]:
    """Undirected graph with an edge per station pair sharing at least one
    forbidden pair whose channels both survive the clearing target."""
    graph: dict[StationId, set[StationId]] = {s.id: set() for s in inst.stations}
    for (sid, _), partners in inst.conflicts_in_band(ct).items():
        graph[sid].update(osid for osid, _ in partners if osid != sid)
    return graph
