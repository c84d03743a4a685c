"""The descending clock auction state machine.

One shared base clock falls round by round. Every active station is offered
clock times volume, answers with accept or exit, and the bids are processed
one at a time in descending order of price reduction (ties shuffled by a
seeded stream drawn per round). Processing a bid first asks the feasibility
checker whether the bidder still fits alongside the packed stations: if it
does, an exit permanently packs it and an accept just lowers its standing
price; if it does not (or the checker times out), the station freezes and is
owed the last price it accepted. Frozen stations are the auction's winners.

Given an instance, a value profile and a config, the whole run is
deterministic: checker budgets count search steps, not seconds.

Every processed bid goes into the round log as an immutable named tuple
(``ProcessedBid``, grouped per round in ``RoundRecord``) holding plain
strings. The round loop keeps the active stations in station order: those
whose processed bid left them active. An active station accepted every offer
so far, so its price reduction is its last accepted price minus its new offer.

The clock advances from event to event (next-event time advance). A round
is quiet when it does not follow an exit and no station decides to exit in
it: every active station then already holds a feasible verdict for the
packed set, so the round can only lower last accepted prices. The loop skips
each quiet stretch in one step. A truthful station's first exit round comes
from bisection over the memoized clock trajectory, since its offers only
fall; a station with a strategy hook is asked once per round, and the
decisions of the round that ends a stretch are carried into playing it. The
round log (``RoundLog``) holds the played rounds and the skipped stretches
and expands each stretch into its records on first read, so it reads as the
tuple of every round's record.

Auctions on one instance repeat most of each other's work, so three pure
computations are memoized in-process and shared across auctions: the
tie-break ranks of a (seed, round, bid count), a truthful station's first
exit round for an (opening price, volume, value), and the checker verdicts
for a (clearing target, checker, step limit, packed assignment) on the most
recent instance. A memo hit returns what the computation would have
returned, so outcomes do not depend on which auctions ran before.

Within one auction a station's verdict can change only when an exit replaces
the packed set, so the verdicts are kept in one layer: a table per packed
set, from target station to verdict. An auction fetches the table of its
packed set whenever an exit replaces that set, building the key once per
exit, and fills it on a miss; a later auction that reaches the same packed
set finds the verdicts already there. A verdict from a table is shared and
read-only; an exit copies the certificate it keeps as the packed assignment.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .feasibility import (
    DECIDING_STEP_LIMIT,
    DEFAULT_STEP_LIMIT,
    Budget,
    Feasible,
    FeasibilityProblem,
    FeasibilityVerdict,
    Infeasible,
    PackingModel,
    SearchSpaceError,
    Timeout,
    check_exhaustive,
    check_greedy,
    check_sat,
    solve,
)
from .model import (
    Assignment,
    ClearingTarget,
    Instance,
    StationId,
    UnknownStationError,
    UnpackableError,
    ValueProfile,
    station_sum,
)
from .pricing import (
    ScoringRule,
    VolumeTable,
    clock_trajectory,
    default_initial_clock_price,
    offer_price,
    volumes_for,
)

_TIEBREAK_STREAM = 3

# Memo bounds. Each holds one instance's working set in criterion 5, whose
# auctions on an instance run back to back: over its 50 instances its played
# rounds draw about 5,700 distinct tie-break keys (at most 182 on one
# instance). First exit rounds repeat within the auctions of one value
# profile: a pass of the benchmark's ``truthful`` workload asks for 120
# distinct ones 32,520 times, and ``grid`` and ``sweep`` hit the memo as
# often with 256 entries as with 4,096. The verdict memo counts packed-set
# tables: one pass of ``truthful``, ``grid`` and ``sweep`` peaks at 38, 73
# and 348 tables on one instance, so 512 evicts none of them.
_TIEBREAK_MEMO_SIZE = 256
_VERDICT_MEMO_SIZE = 512
_EXIT_ROUND_MEMO_SIZE = 256


class CheckerKind(str, Enum):
    GREEDY = "greedy"
    SAT = "sat"
    EXHAUSTIVE = "exhaustive"


class BidDecision(str, Enum):
    ACCEPT = "accept"
    EXIT = "exit"


#: Bidder hook: (round index, offered price, on-air value) -> decision.
BidStrategy = Callable[[int, float, float], BidDecision]

# Decisions and round-log strings, read once here: every bid compares a
# decision, and an enum member's ``.value`` is a descriptor call.
ACCEPT, EXIT = BidDecision.ACCEPT, BidDecision.EXIT
_ACCEPT, _EXIT = ACCEPT.value, EXIT.value
_ACTIVE, _EXITED, _FROZEN = "active", "exited", "frozen"
_FEASIBLE, _INFEASIBLE, _TIMEOUT = "feasible", "infeasible", "timeout"


@dataclass(frozen=True)
class AuctionConfig:
    ct: ClearingTarget
    scoring: ScoringRule = ScoringRule.FCC
    c0: float | None = None  # None picks the default for the scoring rule
    checker: CheckerKind = CheckerKind.SAT
    budget: Budget = Budget(step_limit=DEFAULT_STEP_LIMIT)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.c0 is not None and not (math.isfinite(self.c0) and self.c0 > 0):
            raise ValueError("c0 must be positive and finite")

    def initial_price(self) -> float:
        return self.c0 if self.c0 is not None else default_initial_clock_price(self.scoring)


class _BidFields(NamedTuple):
    station: StationId
    decision: BidDecision
    price_reduction: float
    offer: float


class Bid(_BidFields):
    """One station's answer to its offer in one round."""

    __slots__ = ()

    def __new__(
        cls, station: StationId, decision: BidDecision, price_reduction: float, offer: float
    ) -> Bid:
        if not price_reduction >= 0:  # NaN fails too
            raise ValueError("price reduction must be non-negative")
        return _BidFields.__new__(cls, station, decision, price_reduction, offer)


class ProcessedBid(NamedTuple):
    """Round-log entry for one processed bid."""

    station: StationId
    decision: str
    price_reduction: float
    offer: float
    verdict: str  # "feasible" | "infeasible" | "timeout"
    new_status: str  # "active" | "exited" | "frozen"
    payment: float | None = None


class RoundRecord(NamedTuple):
    round_index: int
    clock: float
    bids: tuple[ProcessedBid, ...]
    final_resolution: bool = False


class _QuietStretch(NamedTuple):
    """Rounds ``first`` to ``last``, skipped as quiet: each station of
    ``active`` accepted every offer and stayed feasible. ``accepted`` holds
    their last accepted prices before ``first``."""

    first: int
    last: int
    active: tuple[StationId, ...]
    accepted: dict[StationId, float]


class RoundLog(Sequence):
    """One auction's round log: its played rounds and its skipped quiet
    stretches. The first read expands every stretch into the records its
    rounds would have logged, so the log reads as the tuple of all its
    records: ``repr``, ``==``, ``len``, iteration and indexing agree with
    that tuple, and a slice is a tuple."""

    __slots__ = ("_parts", "_records", "_length", "_vols", "_clocks", "_seed")

    def __init__(
        self,
        parts: list[RoundRecord | _QuietStretch],
        length: int,
        vols: Mapping[StationId, float],
        clocks: tuple[float, ...],
        seed: int,
    ) -> None:
        self._parts, self._records, self._length = parts, None, length
        self._vols, self._clocks, self._seed = vols, clocks, seed

    def _expanded(self) -> tuple[RoundRecord, ...]:
        if self._records is None:
            records: list[RoundRecord] = []
            for part in self._parts:
                if type(part) is _QuietStretch:
                    records.extend(self._quiet_rounds(part))
                else:
                    records.append(part)
            self._records, self._parts = tuple(records), None
        return self._records

    def _quiet_rounds(self, stretch: _QuietStretch) -> Iterable[RoundRecord]:
        everyone_accepts = dict.fromkeys(stretch.active, ACCEPT)
        accepted = stretch.accepted
        for round_index in range(stretch.first, stretch.last + 1):
            current = self._clocks[round_index]
            bids = _round_bids(stretch.active, self._vols, accepted, current, everyone_accepts)
            ordered = _processing_order(bids, self._seed, round_index)
            yield RoundRecord(
                round_index,
                current,
                tuple(
                    ProcessedBid(sid, _ACCEPT, reduction, offer, _FEASIBLE, _ACTIVE)
                    for sid, _, reduction, offer in ordered
                ),
            )
            accepted = {bid.station: bid.offer for bid in bids}

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._expanded()[index]

    def __iter__(self):
        return iter(self._expanded())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RoundLog):
            other = other._expanded()
        if isinstance(other, tuple):
            return self._expanded() == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._expanded())


@dataclass(frozen=True)
class AuctionOutcome:
    winners: dict[StationId, float]
    final_assignment: Assignment
    participants: tuple[StationId, ...]
    non_participants: tuple[StationId, ...]
    rounds: int
    checker_timeout_count: int
    round_log: Sequence[RoundRecord]

    def cost(self) -> float:
        return station_sum(self.winners, self.winners)


def determine_participants(
    inst: Instance,
    values: ValueProfile,
    volumes: VolumeTable,
    c0: float,
) -> tuple[tuple[StationId, ...], tuple[StationId, ...]]:
    """Split stations into participants and non-participants: a station
    participates exactly when its value is strictly below its opening price.
    A profile must value every station the instance declares, and no other."""
    missing = [s.id for s in inst.stations if s.id not in values]
    if missing:
        raise ValueError(f"value profile is missing stations {missing}")
    if not inst.declares(values.keys()):
        unknown = sorted(values.keys() - set(inst.station_ids()))
        raise UnknownStationError(f"value profile names undeclared stations {unknown}")
    participants = []
    non_participants = []
    for st in inst.stations:
        opening = offer_price(volumes[st.id], c0)
        if values[st.id] < opening:
            participants.append(st.id)
        else:
            non_participants.append(st.id)
    return tuple(participants), tuple(non_participants)


def _run_checker(
    kind: CheckerKind, problem: FeasibilityProblem, budget: Budget
) -> FeasibilityVerdict:
    if kind is CheckerKind.GREEDY:
        return check_greedy(problem, budget)
    if kind is CheckerKind.SAT:
        return check_sat(problem, budget)
    return check_exhaustive(problem)


def _whole_set_pack(
    inst: Instance,
    sids: Iterable[StationId],
    ct: ClearingTarget,
    budget: Budget,
) -> Assignment:
    """Single joint solve used when station-by-station packing fails."""
    sids = sorted(sids)
    steps = max(DECIDING_STEP_LIMIT, 20 * budget.step_limit)
    verdict = solve(PackingModel(inst, ct, sids), Budget(step_limit=steps)).verdict
    if isinstance(verdict, Feasible):
        return verdict.certificate
    if isinstance(verdict, Infeasible):
        raise UnpackableError(
            f"stations {sids} cannot be jointly packed in the reduced band"
        )
    raise SearchSpaceError(
        f"joint packing of {len(sids)} stations undecided within the fallback budget"
    )


def initial_assignment(
    inst: Instance,
    non_participants: Iterable[StationId],
    ct: ClearingTarget,
    checker: CheckerKind,
    budget: Budget,
) -> Assignment:
    """Pack the non-participating stations, which the auction must keep on
    air. Stations are added one at a time in ascending id order with the
    configured checker; any failure falls back to one whole-set solve.
    Rejects the instance when the set is jointly unpackable."""
    packed: Assignment = {}
    ordered = sorted(non_participants)
    for sid in ordered:
        problem = FeasibilityProblem(sid, packed, inst, ct)
        verdict = _run_checker(checker, problem, budget)
        if isinstance(verdict, Feasible):
            packed = verdict.certificate
        else:
            return _whole_set_pack(inst, ordered, ct, budget)
    return packed


def truthful_bid(value: float, new_offer: float) -> BidDecision:
    """Accept when the new offer still covers the station's value; the
    indifferent case resolves to accept."""
    return ACCEPT if new_offer >= value else EXIT


class _VerdictMemo:
    """Verdict tables of the most recent instance's checks, shared across
    auctions: one table per packed set, from target station to verdict.

    A checker is a pure function of the instance, the clearing target, its
    kind and budget, the target station and the packed assignment, so a
    verdict in a table is the one it would compute. A table keys as the
    clearing target, checker, step limit and the packed assignment's ordered
    items: the greedy certificate keeps the packed order, so an equal dict in
    another order is another problem. Instances match by identity; a
    different one clears the memo. The least recently fetched table is evicted
    first; an auction that still holds it goes on filling it alone.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.inst: Instance | None = None
        self.tables: OrderedDict[tuple, dict[StationId, FeasibilityVerdict]] = OrderedDict()

    def clear(self) -> None:
        self.inst = None
        self.tables.clear()

    def table(self, inst: Instance, key: tuple) -> dict[StationId, FeasibilityVerdict]:
        if inst is not self.inst:
            self.clear()
            self.inst = inst
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = {}
            if len(self.tables) > self.size:
                self.tables.popitem(last=False)
        else:
            self.tables.move_to_end(key)
        return table


_VERDICTS = _VerdictMemo(_VERDICT_MEMO_SIZE)


@dataclass
class AuctionState:
    """Mutable per-run state shared by the round loop and bid processing."""

    inst: Instance
    ct: ClearingTarget
    checker: CheckerKind
    budget: Budget
    last_accepted: dict[StationId, float]
    payments: dict[StationId, float] = field(default_factory=dict)
    packed: Assignment = field(default_factory=dict)
    timeout_count: int = 0
    # the ``packed`` that ``_verdicts`` holds the verdicts for, by station;
    # both are replaced when ``packed`` is
    _keyed: Assignment | None = field(default=None, init=False, repr=False)
    _verdicts: dict[StationId, FeasibilityVerdict] = field(
        default_factory=dict, init=False, repr=False
    )

    def check(self, sid: StationId) -> FeasibilityVerdict:
        """Feasibility of packing ``sid`` with the current packed set, from
        the shared verdict table of that set, which a miss fills. The table
        hands the same verdict to later auctions, so it is read-only: an exit
        copies the certificate it keeps."""
        if self._keyed is not self.packed:
            packed = tuple(self.packed.items())
            key = (self.ct.bar_c, self.checker, self.budget.step_limit, packed)
            self._keyed, self._verdicts = self.packed, _VERDICTS.table(self.inst, key)
        verdict = self._verdicts.get(sid)
        if verdict is None:
            problem = FeasibilityProblem(sid, self.packed, self.inst, self.ct)
            verdict = self._verdicts[sid] = _run_checker(self.checker, problem, self.budget)
        return verdict


@lru_cache(maxsize=_TIEBREAK_MEMO_SIZE)
def _tiebreak_order(seed: int, round_index: int, n: int) -> tuple[int, ...]:
    """The tie-break of ``n`` bids in one round: their positions in station
    order, listed by the rank the round draws for each, lowest first."""
    ranks = np.random.default_rng([seed, _TIEBREAK_STREAM, round_index]).permutation(n)
    return tuple(sorted(range(n), key=ranks.tolist().__getitem__))


_station = itemgetter(0)
_reduction = itemgetter(2)


def _processing_order(bids: list[Bid], seed: int, round_index: int) -> list[Bid]:
    """Sort bids by descending price reduction, breaking ties with a shuffle
    drawn per round index so the order never depends on map iteration
    order. A round without ties needs no shuffle: ranks could not change
    its order, and the reverse of ascending order is descending."""
    if len(set(map(_reduction, bids))) == len(bids):
        return sorted(bids, key=_reduction, reverse=True)
    ordered = sorted(bids, key=_station)
    by_rank = [ordered[i] for i in _tiebreak_order(seed, round_index, len(ordered))]
    # a sort is stable, also in reverse, so tied bids keep their rank order
    return sorted(by_rank, key=_reduction, reverse=True)


def _round_bids(
    active: Iterable[StationId],
    vols: Mapping[StationId, float],
    accepted: Mapping[StationId, float],
    current: float,
    decided: Mapping[StationId, BidDecision],
    values: ValueProfile | None = None,
) -> list[Bid]:
    """One round's bids at clock ``current``, in station order. A station's
    decision comes from ``decided``, else it bids truthfully on its value;
    its price reduction is its price in ``accepted`` minus its new offer."""
    bids = []
    for sid in active:
        offer = offer_price(vols[sid], current)
        decision = decided.get(sid)
        if decision is None:
            decision = truthful_bid(values[sid], offer)
        bids.append(Bid(sid, decision, accepted[sid] - offer, offer))
    return bids


def _hook_decisions(
    hooked: list[StationId],
    strategies: Mapping[StationId, BidStrategy],
    round_index: int,
    vols: Mapping[StationId, float],
    current: float,
    values: ValueProfile,
) -> dict[StationId, BidDecision]:
    """Ask each hooked station, in station order, about its offer in one
    round."""
    decided = {}
    for sid in hooked:
        decision = strategies[sid](round_index, offer_price(vols[sid], current), values[sid])
        if decision is not ACCEPT and decision is not EXIT:
            decision = BidDecision(decision)  # "exit" is EXIT; junk raises
        decided[sid] = decision
    return decided


@lru_cache(maxsize=_EXIT_ROUND_MEMO_SIZE)
def _first_exit_round(c0: float, vol: float, value: float) -> int:
    """The first round in which a truthful station declines its offer, or
    ``len(clock_trajectory(c0))`` when it accepts down to clock zero. Its
    offers only fall, so it declines every offer after the first one it
    declines."""
    clocks = clock_trajectory(c0)
    return bisect_left(
        clocks, True, 1, key=lambda c: truthful_bid(value, offer_price(vol, c)) is EXIT
    )


def process_bids(
    state: AuctionState, bids: list[Bid], seed: int, round_index: int
) -> tuple[ProcessedBid, ...]:
    """Process one round's bids in order. Each bid is checked against the
    packed set as it stands at that moment: exits repack immediately, so a
    later bid in the same round sees the updated assignment."""
    last_accepted = state.last_accepted
    log: list[ProcessedBid] = []
    for sid, decision, reduction, offer in _processing_order(bids, seed, round_index):
        verdict = state.check(sid)
        exiting = decision is EXIT
        payment = None
        cls = verdict.__class__
        if cls is Feasible:
            verdict_name = _FEASIBLE
            if exiting:
                state.packed = dict(verdict.certificate)
                new_status = _EXITED
            else:
                last_accepted[sid] = offer
                new_status = _ACTIVE
        else:
            if cls is Timeout:
                verdict_name = _TIMEOUT
                state.timeout_count += 1
            else:
                verdict_name = _INFEASIBLE
            payment = last_accepted[sid]
            state.payments[sid] = payment
            new_status = _FROZEN
        log.append(
            ProcessedBid(
                sid,
                _EXIT if exiting else _ACCEPT,
                reduction,
                offer,
                verdict_name,
                new_status,
                payment,
            )
        )
    return tuple(log)


def run_auction(
    inst: Instance,
    values: ValueProfile,
    config: AuctionConfig,
    strategies: Mapping[StationId, BidStrategy] | None = None,
) -> AuctionOutcome:
    """Run the clock auction to completion and return the outcome with a full
    round log.

    ``strategies`` overrides the truthful bidder for selected stations; it is
    a simulation hook and does not change participation, which is always
    decided by value against opening price.
    """
    c0 = config.initial_price()
    vols = volumes_for(inst, config.ct, config.scoring)
    participants, non_participants = determine_participants(inst, values, vols, c0)
    packed0 = initial_assignment(
        inst, non_participants, config.ct, config.checker, config.budget
    )

    # The opening price counts as accepted: participation implies the station
    # took the round-zero offer.
    last_accepted = {sid: offer_price(vols[sid], c0) for sid in participants}
    state = AuctionState(
        inst=inst,
        ct=config.ct,
        checker=config.checker,
        budget=config.budget,
        last_accepted=last_accepted,
        packed=packed0,
    )

    strategies = strategies or {}
    seed = config.seed
    clocks = clock_trajectory(c0)
    horizon = len(clocks)  # the round after the clock first reaches zero
    exit_round = {
        sid: _first_exit_round(c0, vols[sid], values[sid])
        for sid in participants
        if sid not in strategies
    }
    # active stations in station order; a station leaves once it exits or freezes
    active = sorted(participants)
    parts: list[RoundRecord | _QuietStretch] = []
    round_index = 0  # the last round played or skipped
    # whether every active station holds a feasible verdict for the packed set
    settled = False

    while active:
        if clocks[round_index] == 0.0 and all(last_accepted[sid] == 0.0 for sid in active):
            # At clock zero with every offer accepted at zero, no round can
            # change an offer and the rounds would repeat forever. Exiting is
            # then as good as holding: each station is re-checked in order,
            # and the packable ones exit while the rest freeze at zero.
            round_index += 1
            bids = [Bid(sid, EXIT, 0.0, 0.0) for sid in active]
            processed = process_bids(state, bids, seed, round_index)
            parts.append(RoundRecord(round_index, 0.0, processed, final_resolution=True))
            break

        hooked = [sid for sid in active if sid in strategies]
        decided = None
        if settled:
            # Find the next round in which a station decides to exit; the
            # rounds before it are quiet.
            event = min([exit_round[sid] for sid in active if sid in exit_round], default=horizon)
            if hooked:
                for r in range(round_index + 1, min(event + 1, horizon)):
                    decided = _hook_decisions(hooked, strategies, r, vols, clocks[r], values)
                    if r == event or EXIT in decided.values():
                        event = r
                        break
                else:
                    event, decided = horizon, None
            if event > round_index + 1:
                last = event - 1
                parts.append(
                    _QuietStretch(
                        round_index + 1,
                        last,
                        tuple(active),
                        {sid: last_accepted[sid] for sid in active},
                    )
                )
                for sid in active:
                    last_accepted[sid] = offer_price(vols[sid], clocks[last])
                round_index = last
                if event == horizon:
                    continue  # the stretch ran into clock zero: the stall test is next

        round_index += 1
        current = clocks[round_index]
        if decided is None:
            decided = _hook_decisions(hooked, strategies, round_index, vols, current, values)
        bids = _round_bids(active, vols, last_accepted, current, decided, values)
        packed = state.packed
        processed = process_bids(state, bids, seed, round_index)
        parts.append(RoundRecord(round_index, current, processed))
        settled = state.packed is packed
        active = sorted([p.station for p in processed if p.new_status == _ACTIVE])

    winners = {sid: state.payments[sid] for sid in sorted(state.payments)}
    return AuctionOutcome(
        winners=winners,
        final_assignment=state.packed,
        participants=participants,
        non_participants=non_participants,
        rounds=round_index,
        checker_timeout_count=state.timeout_count,
        round_log=RoundLog(parts, round_index, vols, clocks, seed),
    )
