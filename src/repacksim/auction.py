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
strings. The round loop itself plays on plain tuples: a played round is kept
as plain rows in those fields' order and wrapped into the named tuples on
the log's first read, so an auction whose log nobody reads never builds them.
The round loop keeps the active stations in station order: those whose
processed bid left them active. An active station accepted every offer
so far, so its price reduction is its last accepted price minus its new offer.

The clock advances from event to event (next-event time advance). A round
is quiet when no station decides to exit in it and every active station
fits the packed set: its accept is then feasible and no bid changes the
packed set, so the round can only lower last accepted prices. After a
played round with no exit every active station already holds a feasible
verdict; after an exit, the loop asks each active station the question its
accept would ask. The loop skips each quiet stretch in one step. A truthful
station's first exit round comes from bisection over the memoized clock
trajectory, since its offers only fall; a station with a strategy hook is
asked once per round, and the decisions of the round that ends a stretch
are carried into playing it. The round log (``RoundLog``) holds the played
rounds and the skipped stretches and expands each stretch into its records
on first read, so it reads as the tuple of every round's record.

Auctions on one instance repeat most of each other's work, so three pure
computations are memoized in-process and shared across auctions: the
tie-break ranks of a (seed, round, bid count), a truthful station's first
exit round for an (opening price, volume, value), and the most recent
truthful run of an (instance, config, value profile) with its state after
each played round and the checker verdicts that it and its deviations
found. A memo hit returns what the computation would have returned, so
outcomes do not depend on which auctions ran before.

Only an auction with strategy hooks reads the truthful run: until a hooked
station answers otherwise than it would bid truthfully, the auction is the
truthful one. So it asks its hooked stations once per round, as a played
auction would, and compares each answer with the truthful bid. At the first
round that differs it resumes from the truthful run's state after its last
played round before that one, with the answers so far, and plays on; if no
answer differs before the hooked stations leave, its outcome is the truthful
run's.

Within one auction a station's verdict can change only when an exit replaces
the packed set, so the verdicts are kept in one layer: a table per packed
set, from target station to verdict. An auction without hooks keeps its
own tables and shares none. A truthful run keeps its tables by the packed
set's ordered items, and each of its deviations fetches the table of its
packed set whenever an exit replaces that set and fills it on a miss, so a
deviation that reaches a packed set the run or an earlier deviation reached
finds the verdicts already there. A verdict from a table is read-only; an
exit copies the certificate it keeps as the packed assignment.
An accept reads no certificate: it scans its station's channel-table row
against the packed set, building no problem, and for a station that fits
the table holds a shared "fits" marker, read as feasible, in place of the
checker's verdict; an exit that finds it runs the checker instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
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
    _fit_channel,
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
# instance). One seed-1 pass of the benchmark's workloads, read from
# ``cache_info()`` after clearing the memos, asks for tie-break ranks 13,928
# times with 1,999 misses on ``truthful`` (every unscored bid ties), and
# 508 and 12,429 times, all misses, on ``grid`` and ``sweep``. It asks for
# first exit rounds 240 times with 120 misses on ``truthful``, 3,303 with
# 2,222 on ``grid`` and 37,250 with 14,827 on ``sweep``, the same misses
# with 256 entries as with 4,096. The verdict bound counts one truthful
# run's packed-set tables: a ``truthful`` pass peaks at 38, so 512 evicts
# none. The truthful run memo keeps one run (``_TRUTHFUL_RUN``): criterion 5
# runs each instance's deviations back to back.
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
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def initial_price(self) -> float:
        return self.c0 if self.c0 is not None else default_initial_clock_price(self.scoring)


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
    """One auction's round log: its played rounds, as plain
    ``(round_index, clock, rows, final_resolution)`` tuples of plain rows,
    and its skipped quiet stretches. The first read wraps every played round
    into its ``RoundRecord`` and expands every stretch into the records its
    rounds would have logged, so the log reads as the tuple of all its
    records: ``repr``, ``==``, ``len``, iteration and indexing agree with
    that tuple, and a slice is a tuple."""

    __slots__ = ("_parts", "_records", "_length", "_vols", "_clocks", "_seed")

    def __init__(
        self,
        parts: list[tuple | _QuietStretch],
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
                    round_index, clock, rows, final = part
                    bids = tuple(map(ProcessedBid._make, rows))
                    records.append(RoundRecord(round_index, clock, bids, final))
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
            accepted = {sid: offer for sid, _, _, offer in bids}

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


#: What an accepting bid records for a station that fits (``AuctionState.check``).
_FITS = Feasible({})


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
    # verdict tables shared with other auctions, by the packed set's ordered
    # items; None keeps a table of this auction's own per packed set
    tables: OrderedDict[tuple, dict[StationId, FeasibilityVerdict]] | None = None
    # the ``packed`` that ``_verdicts`` holds the verdicts for, by station;
    # both are replaced when ``packed`` is
    _keyed: Assignment | None = field(default=None, init=False, repr=False)
    _verdicts: dict[StationId, FeasibilityVerdict] = field(
        default_factory=dict, init=False, repr=False
    )

    def check(self, sid: StationId, accepting: bool = False) -> FeasibilityVerdict:
        """Feasibility of packing ``sid`` with the current packed set, from
        the verdict table of that set, which a miss fills. A table in
        ``tables`` hands the same verdict to later auctions, so verdicts are
        read-only: an exit copies the certificate it keeps. The table a
        fetch misses is added as the most recently used, evicting the least
        recently used beyond ``_VERDICT_MEMO_SIZE``; an auction that still
        holds an evicted table goes on filling it alone.

        An ``accepting`` bid asks only whether ``sid`` fits beside the packed
        set as it stands, scanning its channel-table row with no problem
        built; if so, the table records ``_FITS`` and no checker runs. Greedy
        and SAT say Feasible from the same scan, and under exhaustive the fit
        is a packing, though an enumeration undecided after
        ``DECIDING_STEP_LIMIT`` steps (no workload comes near) would have
        raised. Any other check replaces the marker with the checker's
        verdict, so exit certificates hold. Under greedy, an accept that does
        not fit records a Timeout at once, as the checker would only rescan."""
        if self._keyed is not self.packed:
            self._keyed, tables = self.packed, self.tables
            if tables is None:
                self._verdicts = {}
            else:
                # the greedy certificate keeps the packed order, so an equal
                # dict in another order is another problem
                key = tuple(self.packed.items())
                self._verdicts = tables.get(key)
                if self._verdicts is None:
                    self._verdicts = tables[key] = {}
                    if len(tables) > _VERDICT_MEMO_SIZE:
                        tables.popitem(last=False)
                else:
                    tables.move_to_end(key)
        verdict = self._verdicts.get(sid)
        if verdict is None or (verdict is _FITS and not accepting):
            if accepting and _fit_channel(self.inst, self.ct, sid, self.packed) is not None:
                verdict = _FITS
            elif accepting and self.checker is CheckerKind.GREEDY:
                verdict = Timeout()
            else:
                problem = FeasibilityProblem(sid, self.packed, self.inst, self.ct)
                verdict = _run_checker(self.checker, problem, self.budget)
            self._verdicts[sid] = verdict
        return verdict


@lru_cache(maxsize=_TIEBREAK_MEMO_SIZE)
def _tiebreak_order(seed: int, round_index: int, n: int) -> tuple[int, ...]:
    """The tie-break of ``n`` bids in one round: their positions in station
    order, listed by the rank the round draws for each, lowest first."""
    ranks = np.random.default_rng([seed, _TIEBREAK_STREAM, round_index]).permutation(n)
    return tuple(sorted(range(n), key=ranks.tolist().__getitem__))


_station = itemgetter(0)
_reduction = itemgetter(2)


def _processing_order(bids: list[tuple], seed: int, round_index: int) -> list[tuple]:
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
) -> list[tuple]:
    """One round's bids at clock ``current``, in station order, as plain
    ``(station, decision, price reduction, offer)`` tuples. A station's
    decision comes from ``decided``, else it bids truthfully on its value;
    its price reduction is its price in ``accepted`` minus its new offer,
    which must be non-negative."""
    bids = []
    for sid in active:
        offer = offer_price(vols[sid], current)
        decision = decided.get(sid)
        if decision is None:
            decision = truthful_bid(values[sid], offer)
        reduction = accepted[sid] - offer
        if not reduction >= 0:  # NaN fails too
            raise ValueError("price reduction must be non-negative")
        bids.append((sid, decision, reduction, offer))
    return bids


def _hook_decisions(hooked: list[StationId], answers: list) -> dict[StationId, BidDecision]:
    """The answers of the hooked stations, in station order, as decisions:
    "exit" is EXIT, and junk raises."""
    return {
        sid: answer if answer is ACCEPT or answer is EXIT else BidDecision(answer)
        for sid, answer in zip(hooked, answers)
    }


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
    state: AuctionState, bids: list[tuple], seed: int, round_index: int
) -> tuple[tuple, ...]:
    """Process one round's bids in order. Each bid is checked against the
    packed set as it stands at that moment: exits repack immediately, so a
    later bid in the same round sees the updated assignment. Returns plain
    rows in ``ProcessedBid``'s field order, which the round log wraps on its
    first read."""
    last_accepted = state.last_accepted
    log: list[tuple] = []
    for sid, decision, reduction, offer in _processing_order(bids, seed, round_index):
        exiting = decision is EXIT
        verdict = state.check(sid, not exiting)
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
            (
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


class _Snapshot(NamedTuple):
    """An auction's state after round ``round_index`` (0: before the first),
    when its round log holds ``parts`` parts. ``packed`` is shared, since the
    round loop only ever replaces it; the dicts are the snapshot's own, and
    a restore copies them."""

    round_index: int
    parts: int
    packed: Assignment
    last_accepted: dict[StationId, float]
    payments: dict[StationId, float]
    timeout_count: int
    active: tuple[StationId, ...]
    settled: bool


class _Opening(NamedTuple):
    """What an auction fixes before its first round, and its state then.
    ``exit_rounds`` holds each participant's truthful first exit round."""

    vols: VolumeTable
    participants: tuple[StationId, ...]
    non_participants: tuple[StationId, ...]
    clocks: tuple[float, ...]
    exit_rounds: dict[StationId, int]
    start: _Snapshot


class _TruthfulRun(NamedTuple):
    """The truthful run of an (instance identity, config, value profile
    items) ``key``: its opening, its state after the opening and after each
    played round before the final resolution, its round log's parts, its
    outcome, None when the run raised, and the verdict tables that it and
    its deviations share. ``inst`` keeps the instance whose identity the key
    holds alive.

    A checker is a pure function of the instance, the config's clearing
    target, checker and budget, the target station and the packed
    assignment, so within one run's key a table needs only the packed set.
    """

    key: tuple
    inst: Instance
    opening: _Opening
    snapshots: list[_Snapshot]
    parts: list[tuple | _QuietStretch]
    outcome: AuctionOutcome | None
    tables: OrderedDict[tuple, dict[StationId, FeasibilityVerdict]]


#: The most recent truthful run that an auction with hooks asked for.
_TRUTHFUL_RUN: list[_TruthfulRun] = []


def _open(inst: Instance, values: ValueProfile, config: AuctionConfig) -> _Opening:
    """Set an auction up: volumes, participants, the initial packing, the
    clock and the truthful exit rounds."""
    c0 = config.initial_price()
    vols = volumes_for(inst, config.ct, config.scoring)
    participants, non_participants = determine_participants(inst, values, vols, c0)
    packed = initial_assignment(
        inst, non_participants, config.ct, config.checker, config.budget
    )
    # The opening price counts as accepted: participation implies the station
    # took the round-zero offer.
    accepted = {sid: offer_price(vols[sid], c0) for sid in participants}
    exit_rounds = {sid: _first_exit_round(c0, vols[sid], values[sid]) for sid in participants}
    start = _Snapshot(0, 0, packed, accepted, {}, 0, tuple(sorted(participants)), False)
    return _Opening(
        vols, participants, non_participants, clock_trajectory(c0), exit_rounds, start
    )


def _play(
    inst: Instance,
    values: ValueProfile,
    config: AuctionConfig,
    opening: _Opening,
    start: _Snapshot,
    parts: list[tuple | _QuietStretch],
    strategies: Mapping[StationId, BidStrategy],
    asked: Mapping[int, list] | None = None,
    snapshots: list[_Snapshot] | None = None,
    tables: OrderedDict | None = None,
) -> AuctionOutcome:
    """Play the auction on from ``start`` to its outcome, appending to
    ``parts``, the round log's parts up to ``start``. ``asked`` holds the
    hooked stations' answers in rounds they were already asked in, which
    are not asked again; ``snapshots``, when given, gets the state after
    each played round but the final resolution; ``tables`` are the verdict
    tables of ``AuctionState.tables``."""
    state = AuctionState(
        inst=inst,
        ct=config.ct,
        checker=config.checker,
        budget=config.budget,
        last_accepted=dict(start.last_accepted),
        payments=dict(start.payments),
        packed=start.packed,
        timeout_count=start.timeout_count,
        tables=tables,
    )
    last_accepted = state.last_accepted
    asked = asked or {}
    seed = config.seed
    vols, clocks = opening.vols, opening.clocks
    horizon = len(clocks)  # the round after the clock first reaches zero
    exit_round = opening.exit_rounds
    if strategies:
        exit_round = {sid: e for sid, e in exit_round.items() if sid not in strategies}
    # active stations in station order; a station leaves once it exits or freezes
    active = list(start.active)
    round_index = start.round_index  # the last round played or skipped
    # whether every active station holds a feasible verdict for the packed set
    settled = start.settled

    while active:
        if clocks[round_index] == 0.0 and all(last_accepted[sid] == 0.0 for sid in active):
            # At clock zero with every offer accepted at zero, no round can
            # change an offer and the rounds would repeat forever. Exiting is
            # then as good as holding: each station is re-checked in order,
            # and the packable ones exit while the rest freeze at zero.
            round_index += 1
            bids = [(sid, EXIT, 0.0, 0.0) for sid in active]
            processed = process_bids(state, bids, seed, round_index)
            parts.append((round_index, 0.0, processed, True))
            break

        # the next round in which a truthful station decides to exit
        event = min([exit_round[sid] for sid in active if sid in exit_round], default=horizon)
        if not settled and event > round_index + 1:
            # after an exit (or the initial packing) the next round is quiet
            # too if every active station fits, which is all its accept asks
            settled = all(state.check(sid, True).__class__ is Feasible for sid in active)
        if not settled:
            event = round_index + 1  # the next round is played
        # Find the next round in which any station decides to exit; the
        # rounds before it are quiet. A hooked station is asked once per
        # round, and the decisions of the round that is played are kept.
        hooked = [sid for sid in active if sid in strategies]
        decided = {}
        if hooked:
            for r in range(round_index + 1, min(event + 1, horizon)):
                answers = asked.get(r)
                if answers is None:
                    current = clocks[r]
                    answers = [
                        strategies[sid](r, offer_price(vols[sid], current), values[sid])
                        for sid in hooked
                    ]
                if r < event:
                    for answer in answers:
                        if answer is not ACCEPT:
                            break
                    else:
                        continue  # every hooked station accepts
                decided = _hook_decisions(hooked, answers)
                if r == event or EXIT in decided.values():
                    event = r
                    break
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
        bids = _round_bids(active, vols, last_accepted, current, decided, values)
        packed = state.packed
        processed = process_bids(state, bids, seed, round_index)
        parts.append((round_index, current, processed, False))
        settled = state.packed is packed
        active = sorted([row[0] for row in processed if row[5] == _ACTIVE])
        if snapshots is not None:
            snapshots.append(
                _Snapshot(
                    round_index,
                    len(parts),
                    state.packed,
                    dict(last_accepted),
                    dict(state.payments),
                    state.timeout_count,
                    tuple(active),
                    settled,
                )
            )

    winners = {sid: state.payments[sid] for sid in sorted(state.payments)}
    return AuctionOutcome(
        winners=winners,
        # a resumed auction may end on the packed set of a snapshot
        final_assignment=dict(state.packed),
        participants=opening.participants,
        non_participants=opening.non_participants,
        rounds=round_index,
        checker_timeout_count=state.timeout_count,
        round_log=RoundLog(parts, round_index, vols, clocks, seed),
    )


def _truthful_run(inst: Instance, values: ValueProfile, config: AuctionConfig) -> _TruthfulRun:
    """The memoized truthful run of ``inst``, ``values`` and ``config``,
    played on a miss."""
    key = (id(inst), config, tuple(values.items()))
    if _TRUTHFUL_RUN and _TRUTHFUL_RUN[0].key == key:
        return _TRUTHFUL_RUN[0]
    opening = _open(inst, values, config)
    snapshots, parts, tables = [opening.start], [], OrderedDict()
    try:
        outcome = _play(
            inst, values, config, opening, opening.start, parts, {}, None, snapshots, tables
        )
    except SearchSpaceError:
        # an enumeration left undecided, which a deviation that leaves the
        # truthful path before it need not reach
        outcome = None
    _TRUTHFUL_RUN[:] = [_TruthfulRun(key, inst, opening, snapshots, parts, outcome, tables)]
    return _TRUTHFUL_RUN[0]


def _resumed(
    inst: Instance,
    values: ValueProfile,
    config: AuctionConfig,
    strategies: Mapping[StationId, BidStrategy],
) -> AuctionOutcome:
    """The auction with ``strategies``, resumed from its truthful run at the
    first round where a hooked station answers otherwise than truthfully."""
    run = _truthful_run(inst, values, config)
    opening = run.opening
    if run.outcome is None:
        return _play(
            inst, values, config, opening, opening.start, [], strategies, tables=run.tables
        )
    vols, clocks, exit_rounds = opening.vols, opening.clocks, opening.exit_rounds
    snapshots = run.snapshots
    for i, snap in enumerate(snapshots):
        # each hooked station's hook, volume, value and truthful exit round
        hooked = [
            (strategies[sid], vols[sid], values[sid], exit_rounds[sid])
            for sid in snap.active
            if sid in strategies
        ]
        if not hooked:
            break
        # the rounds up to the next one played, or up to the last before the
        # horizon, the last round in which a station is asked
        last = snapshots[i + 1].round_index if i + 1 < len(snapshots) else len(clocks) - 1
        asked = {}
        for r in range(snap.round_index + 1, last + 1):
            current = clocks[r]
            answers = asked[r] = []
            truthful = True
            for ask, vol, value, exit_round in hooked:
                answer = ask(r, offer_price(vol, current), value)
                answers.append(answer)
                truthful = truthful and answer is (EXIT if r >= exit_round else ACCEPT)
            if not truthful:
                parts = run.parts[: snap.parts]
                return _play(
                    inst, values, config, opening, snap, parts, strategies, asked,
                    tables=run.tables,
                )
    out = run.outcome
    return replace(out, winners=dict(out.winners), final_assignment=dict(out.final_assignment))


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
    decided by value against opening price. An auction with hooks resumes
    the memoized truthful run where a hooked station first leaves the
    truthful path.
    """
    if strategies:
        return _resumed(inst, values, config, strategies)
    opening = _open(inst, values, config)
    return _play(inst, values, config, opening, opening.start, [], {})
