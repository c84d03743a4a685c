"""The descending clock auction state machine.

One shared base clock falls round by round. Every active station is offered
clock times volume, answers with accept or exit, and the bids are processed
one at a time in descending order of price reduction (ties shuffled by a
seeded stream drawn per round). Processing a bid first asks the feasibility
checker whether the bidder still fits alongside the packed stations: if it
does, an exit permanently packs it and an accept keeps it bidding; if not
(or the checker times out), the station freezes and is owed its price, its
offer at the previous clock. Frozen stations are the auction's winners.

Given an instance, a value profile and a config, the whole run is
deterministic: checker budgets count search steps, not seconds.

Every processed bid goes into the round log as an immutable named tuple
(``ProcessedBid``, grouped per round in ``RoundRecord``) holding plain
strings. The round loop itself plays on plain tuples: a played round is kept
as plain rows in those fields' order and wrapped into the named tuples on
the log's first read, so an auction whose log nobody reads never builds them.
The round loop keeps the active stations in station order: those whose
processed bid left them active. An active station accepted every offer
so far, so its price reduction is its offer at the previous clock minus its
new offer: the clock sets every price, and none is stored.

The clock advances from event to event (next-event time advance). A round
is quiet when no station decides to exit in it and every active station
fits the packed set: its accept is then feasible and no bid changes the
packed set, so the round only lowers offers. After a played round with no
exit every active station already holds a feasible verdict; after an exit,
the loop asks each active station the question its accept would ask. The
loop skips each quiet stretch in one step. A truthful
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
found. Two more memos go with that run: the never-exit run of one station,
and the tails its auctions played. A memo hit returns what the computation
would have returned, so outcomes do not depend on which auctions ran before.

Every auction reads its truthful run: until a hooked station answers
otherwise than it would bid truthfully, the auction is the truthful one. So
it asks its hooked stations once per round, as a played auction would, and
compares each answer with the truthful bid. At the first round that differs
it resumes from the truthful run's state after its last played round before
that one, with that round's answers, and plays on; if no answer differs
before the hooked stations leave, its outcome is the truthful run's. The
rounds between that state and the first that differs were quiet in the run
and accepted by every hooked station, so the resumed auction asks its hooks
from the round after, and no round is asked twice. An auction without hooks
never leaves the truthful path, so its outcome is the run's.

An offer is read as volume times clock. ``offer_price`` checks that both
are non-negative; ``determine_participants`` calls it on every station's
volume at the opening price, and the clock trajectory never goes below
zero, so the rounds multiply the two directly and every offer keeps the
bits ``offer_price`` would give it.

A single-minded bidder's strategies come down to the round in which it
exits, so one station's deviations share their rounds: exiting in round r
agrees with never exiting through round r - 1. The first time a lone hooked
station accepts where it would truthfully exit, its never-exit run, a
truthful run in which its exit round is past the horizon, is played once
from the truthful run's state before that round, with its own snapshots.
An auction whose lone hooked station accepts there follows that run the
same way: it resumes the run at its first other answer, or takes the run's
outcome. Once no active station has a hook, the rest of an auction depends
only on its run, round index, packed set and active stations; an auction
that reaches a state from which an earlier one on the same run played a
round appends what that one played from there and stops. The runs that
record snapshots, the truthful and the never-exit ones, neither read nor
fill these tails.

Within one auction a station's verdict can change only when an exit replaces
the packed set, so the verdicts are kept in one layer: a table per packed
set, from target station to verdict, keyed by the set's ordered items. Every
auction fetches the table of its packed set whenever an exit replaces that
set, and fills it on a miss. A truthful run shares its tables with the
auctions resumed from it, so one that reaches a packed set the run or an
earlier deviation reached finds the verdicts already there. A verdict from
a table is read-only; an exit copies the certificate it keeps as the packed
assignment. An accept reads no certificate: it scans its station's
channel-table row against the packed set, building no problem, and for a
station that fits the table holds a shared "fits" marker, read as feasible,
in place of the checker's verdict; an exit that finds it runs the checker
instead.
"""

from __future__ import annotations

import math
import numbers
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
# ``cache_info()`` after clearing the memos, asks for tie-break ranks 4,872
# times with 1,999 misses on ``truthful`` (every unscored bid ties), and
# 508 and 12,429 times, all misses, on ``grid`` and ``sweep``. It asks for
# first exit rounds 120 times, all misses, on ``truthful``, 3,303 with
# 2,222 on ``grid`` and 37,250 with 14,827 on ``sweep``, the same misses
# with 256 entries as with 4,096. The verdict bound counts the packed-set
# tables of one truthful run and its deviations: a ``truthful`` pass peaks
# at 38, so 512 evicts none, and a run past 512 exits evicts tables it never
# reads again. The truthful run memo keeps one run (``_TRUTHFUL_RUN``):
# criterion 5 runs each instance's truthful auction and its deviations back
# to back, one station's after another. That run keeps the never-exit run of
# one station, replaced when another station needs its own, so at most two
# runs are alive at once; and at most ``_TAIL_MEMO_SIZE`` tails, after which
# it records no more: a ``truthful`` pass peaks at 88 per run.
_TIEBREAK_MEMO_SIZE = 256
_VERDICT_MEMO_SIZE = 512
_EXIT_ROUND_MEMO_SIZE = 256
_TAIL_MEMO_SIZE = 512


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
        # a plain string becomes its member, as the rules compare by identity
        object.__setattr__(self, "scoring", ScoringRule(self.scoring))
        object.__setattr__(self, "checker", CheckerKind(self.checker))
        if self.c0 is not None and not (math.isfinite(self.c0) and self.c0 > 0):
            raise ValueError("c0 must be positive and finite")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
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
    ``active`` accepted every offer and stayed feasible, so each round's
    prices are the offers at the clock before it."""

    first: int
    last: int
    active: tuple[StationId, ...]


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
        vols, clocks = self._vols, self._clocks
        for round_index in range(stretch.first, stretch.last + 1):
            previous, current = clocks[round_index - 1], clocks[round_index]
            bids = _round_bids(stretch.active, vols, previous, current, everyone_accepts)
            ordered = _processing_order(bids, self._seed, round_index)
            yield RoundRecord(
                round_index,
                current,
                tuple(
                    ProcessedBid(sid, _ACCEPT, reduction, offer, _FEASIBLE, _ACTIVE)
                    for sid, _, reduction, offer, _ in ordered
                ),
            )

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
    """Mutable per-run state shared by the round loop and bid processing:
    the packed set and the verdict tables. What a frozen station is paid and
    which verdicts timed out are read from the round log."""

    inst: Instance
    ct: ClearingTarget
    checker: CheckerKind
    budget: Budget
    packed: Assignment = field(default_factory=dict)
    # verdict tables by the packed set's ordered items; a truthful run
    # shares its own with its deviations
    tables: OrderedDict[tuple, dict[StationId, FeasibilityVerdict]] = field(
        default_factory=OrderedDict
    )
    # the ``packed`` that ``_verdicts`` holds the verdicts for, by station;
    # both are replaced when ``packed`` is
    _keyed: Assignment | None = field(default=None, init=False, repr=False)
    _verdicts: dict[StationId, FeasibilityVerdict] = field(
        default_factory=dict, init=False, repr=False
    )

    def check(self, sid: StationId, accepting: bool = False) -> FeasibilityVerdict:
        """Feasibility of packing ``sid`` with the current packed set, from
        the verdict table of that set, which a miss fills. A table in
        ``tables`` hands the same verdict to every auction that shares it, so
        verdicts are read-only: an exit copies the certificate it keeps. The
        table a fetch misses is added as the most recently used, evicting the
        least recently used beyond ``_VERDICT_MEMO_SIZE``; an auction that
        still holds an evicted table goes on filling it alone.

        An ``accepting`` bid asks only whether ``sid`` fits beside the packed
        set as it stands, scanning its channel-table row with no problem
        built; if so, the table records ``_FITS`` and no checker runs. Greedy
        and SAT say Feasible from the same scan, and under exhaustive the fit
        is a packing, though an enumeration undecided after
        ``DECIDING_STEP_LIMIT`` steps (no workload comes near) would have
        raised. Any other check replaces the marker with the checker's
        verdict, so exit certificates hold."""
        if self._keyed is not self.packed:
            self._keyed, tables = self.packed, self.tables
            # the greedy certificate keeps the packed order, so an equal dict
            # in another order is another problem
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
    previous: float,
    current: float,
    decided: Mapping[StationId, BidDecision],
    values: ValueProfile | None = None,
) -> list[tuple]:
    """One round's bids at clock ``current``, in station order, as plain
    ``(station, decision, price reduction, offer, price)`` tuples. A
    station's decision comes from ``decided``, else it bids truthfully on its
    value; its price is its offer at the ``previous`` clock, which it
    accepted, and its price reduction is that price minus its new offer,
    which must be non-negative."""
    bids = []
    for sid in active:
        vol = vols[sid]
        offer = vol * current
        price = vol * previous
        decision = decided.get(sid)
        if decision is None:
            decision = ACCEPT if offer >= values[sid] else EXIT  # truthful_bid
        reduction = price - offer
        if not reduction >= 0:  # NaN fails too
            raise ValueError("price reduction must be non-negative")
        bids.append((sid, decision, reduction, offer, price))
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
        clocks, True, 1, key=lambda c: truthful_bid(value, vol * c) is EXIT
    )


def process_bids(
    state: AuctionState, bids: list[tuple], seed: int, round_index: int
) -> tuple[tuple, ...]:
    """Process one round's bids, the plain tuples of ``_round_bids``, in
    order. Each bid is checked against the packed set as it stands at that
    moment: exits repack immediately, so a later bid in the same round sees
    the updated assignment. A station that freezes is paid its bid's price,
    which only its row records. Returns plain rows in ``ProcessedBid``'s
    field order, which the round log wraps on its first read."""
    log: list[tuple] = []
    for sid, decision, reduction, offer, price in _processing_order(bids, seed, round_index):
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
                new_status = _ACTIVE
        else:
            verdict_name = _TIMEOUT if cls is Timeout else _INFEASIBLE
            payment = price
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
    round loop only ever replaces it. It holds no price and no payment: an
    active station's price is its offer at the clock of ``round_index``, and
    the log's first ``parts`` parts hold what each frozen station is paid."""

    round_index: int
    parts: int
    packed: Assignment
    active: tuple[StationId, ...]
    settled: bool


class _TruthfulRun(NamedTuple):
    """The truthful run of an (instance identity, config, value profile
    items) ``key``: what it fixes before round 1 (``exit_rounds`` holds each
    participant's truthful first exit round), its state then and after each
    played round but the final resolution, its round log's parts, the
    verdict tables that it and every auction resumed from it share, and its
    outcome, None when it raised. ``inst`` keeps the instance whose identity
    the key holds alive.

    A checker is a pure function of the instance, the config's clearing
    target, checker and budget, the target station and the packed
    assignment, so within one run's key a table needs only the packed set.

    A station's never-exit run is a run of the same key in which that
    station's exit round is past the horizon: it shares the truthful run's
    snapshots and parts up to the station's truthful exit round, and its
    tables and tails. ``tails`` holds what an auction played from each
    state in which no active station has a hook, keyed by the round index
    and the packed and active stations, since all else it plays from there
    is fixed by the key.
    """

    key: tuple
    inst: Instance
    values: ValueProfile
    config: AuctionConfig
    vols: VolumeTable
    participants: tuple[StationId, ...]
    non_participants: tuple[StationId, ...]
    clocks: tuple[float, ...]
    exit_rounds: dict[StationId, int]
    snapshots: list[_Snapshot]
    parts: list[tuple | _QuietStretch]
    tables: OrderedDict[tuple, dict[StationId, FeasibilityVerdict]]
    # the never-exit run of at most one station, by station
    never_exit: dict[StationId, _TruthfulRun]
    # hook-free state -> (parts played from it, final packed set, rounds)
    tails: dict[tuple, tuple]
    outcome: AuctionOutcome | None = None


#: The most recent truthful run that an auction asked for.
_TRUTHFUL_RUN: list[_TruthfulRun] = []


def _play(
    run: _TruthfulRun,
    start: _Snapshot,
    parts: list[tuple | _QuietStretch],
    strategies: Mapping[StationId, BidStrategy],
    departure: tuple[int, list] | None = None,
    snapshots: list[_Snapshot] | None = None,
) -> AuctionOutcome:
    """Play ``run``'s auction with ``strategies`` on from ``start`` to its
    outcome, appending to ``parts``, the round log's parts up to ``start``,
    whose frozen rows give the winners' payments and the timeouts. Checks
    read and fill the run's verdict tables. ``departure``, when given, is the
    round in which the auction leaves ``run`` and the hooked stations'
    answers in it, from ``_departure``: every round between ``start`` and
    that one was quiet in ``run`` and each hooked station accepted it, so
    hooks are asked from the round after it, and no round is asked twice.
    ``snapshots``, when given, gets the state after each played round but
    the final resolution. An auction that records no snapshots reads and
    fills the run's tails: from a hook-free state that an earlier one played
    from, it appends what that one played and stops."""
    config, values = run.config, run.values
    state = AuctionState(
        run.inst, config.ct, config.checker, config.budget, start.packed, run.tables
    )
    tails = run.tails if snapshots is None else None
    # each hook-free state this auction plays a round from, with its parts' count
    starts: list[tuple[tuple, int]] = []
    left, left_answers = departure or (0, None)
    seed = config.seed
    vols, clocks, exit_rounds = run.vols, run.clocks, run.exit_rounds
    horizon = len(clocks)  # the round after the clock first reaches zero
    # active stations in station order; a station leaves once it exits or freezes
    active = list(start.active)
    round_index = start.round_index  # the last round played or skipped
    # whether every active station holds a feasible verdict for the packed set
    settled = start.settled

    while active:
        if clocks[round_index] == 0.0:
            # At clock zero every price is zero, no round can change an offer
            # and the rounds would repeat forever. Exiting is then as good as
            # holding: each station is re-checked in order, and the packable
            # ones exit while the rest freeze at zero.
            round_index += 1
            bids = [(sid, EXIT, 0.0, 0.0, 0.0) for sid in active]
            processed = process_bids(state, bids, seed, round_index)
            parts.append((round_index, 0.0, processed, True))
            break

        # the next round in which a truthful station decides to exit
        event = min(
            [exit_rounds[sid] for sid in active if sid not in strategies], default=horizon
        )
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
            for r in range(max(round_index + 1, left), min(event + 1, horizon)):
                if r == left:
                    answers = left_answers
                else:
                    current = clocks[r]
                    answers = [
                        strategies[sid](r, vols[sid] * current, values[sid]) for sid in hooked
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
            parts.append(_QuietStretch(round_index + 1, event - 1, tuple(active)))
            round_index = event - 1
            if event == horizon:
                continue  # the stretch ran into clock zero: the stall test is next

        if tails is not None and not hooked:
            # all that the rest of the auction reads: ``settled`` is set
            # afresh by the round played next
            key = (round_index, tuple(state.packed.items()), tuple(active))
            tail = tails.get(key)
            if tail is not None:
                played, state.packed, round_index = tail
                parts.extend(played)
                break
            starts.append((key, len(parts)))
        previous, current = clocks[round_index], clocks[round_index + 1]
        round_index += 1
        bids = _round_bids(active, vols, previous, current, decided, values)
        packed = state.packed
        processed = process_bids(state, bids, seed, round_index)
        parts.append((round_index, current, processed, False))
        settled = state.packed is packed
        active = sorted([row[0] for row in processed if row[5] == _ACTIVE])
        if snapshots is not None:
            snapshots.append(
                _Snapshot(round_index, len(parts), state.packed, tuple(active), settled)
            )

    for key, count in starts:
        if len(tails) < _TAIL_MEMO_SIZE:
            tails[key] = (tuple(parts[count:]), state.packed, round_index)
    # the log's frozen rows: a station freezes once, and only a played round
    # freezes one
    frozen = [
        row
        for part in parts
        if type(part) is not _QuietStretch
        for row in part[2]
        if row[5] == _FROZEN
    ]
    winners = {row[0]: row[6] for row in sorted(frozen, key=_station)}
    return AuctionOutcome(
        winners=winners,
        # a resumed auction may end on the packed set of a snapshot
        final_assignment=dict(state.packed),
        participants=run.participants,
        non_participants=run.non_participants,
        rounds=round_index,
        checker_timeout_count=sum(row[4] == _TIMEOUT for row in frozen),
        round_log=RoundLog(parts, round_index, vols, clocks, seed),
    )


def _played(run: _TruthfulRun, strategies: Mapping[StationId, BidStrategy]) -> _TruthfulRun:
    """``run`` played on with ``strategies`` from its last snapshot, adding
    to its snapshots and parts, with its outcome, which stays None when the
    play raises ``SearchSpaceError``."""
    try:
        outcome = _play(run, run.snapshots[-1], run.parts, strategies, None, run.snapshots)
    except SearchSpaceError:
        # an enumeration left undecided, which a deviation that leaves the
        # run before it need not reach
        return run
    return run._replace(outcome=outcome)


def _truthful_run(inst: Instance, values: ValueProfile, config: AuctionConfig) -> _TruthfulRun:
    """The memoized truthful run of ``inst``, ``values`` and ``config``,
    played on a miss after the memo lets go of the run it held."""
    key = (id(inst), config, tuple(values.items()))
    if _TRUTHFUL_RUN and _TRUTHFUL_RUN[0].key == key:
        return _TRUTHFUL_RUN[0]
    _TRUTHFUL_RUN.clear()
    c0 = config.initial_price()
    vols = volumes_for(inst, config.ct, config.scoring)
    participants, non_participants = determine_participants(inst, values, vols, c0)
    packed = initial_assignment(inst, non_participants, config.ct, config.checker, config.budget)
    run = _TruthfulRun(
        key,
        inst,
        values,
        config,
        vols,
        participants,
        non_participants,
        clock_trajectory(c0),
        {sid: _first_exit_round(c0, vols[sid], values[sid]) for sid in participants},
        [_Snapshot(0, 0, packed, tuple(sorted(participants)), False)],
        [],
        OrderedDict(),
        {},
        {},
    )
    run = _played(run, {})
    _TRUTHFUL_RUN.append(run)
    return run


def _accepts(round_index: int, offer: float, value: float) -> BidDecision:
    return ACCEPT


def _never_exit_run(run: _TruthfulRun, sid: StationId, i: int) -> _TruthfulRun:
    """The memoized never-exit run of ``sid``: ``run`` up to its ``i``-th
    snapshot, the last before ``sid`` exits in it, played on with ``sid``
    accepting every offer. It replaces the never-exit run of any other
    station."""
    never_exit = run.never_exit.get(sid)
    if never_exit is None:
        run.never_exit.clear()
        snap = run.snapshots[i]
        never_exit = run.never_exit[sid] = _played(
            run._replace(
                exit_rounds={**run.exit_rounds, sid: len(run.clocks)},
                snapshots=run.snapshots[: i + 1],
                parts=run.parts[: snap.parts],
                never_exit={},
            ),
            {sid: _accepts},
        )
    return never_exit


def _departure(
    run: _TruthfulRun,
    strategies: Mapping[StationId, BidStrategy],
    first: int = 0,
    asked_to: int = 0,
) -> tuple[int, int, list] | None:
    """Where an auction with ``strategies`` leaves ``run``, following its
    snapshots from the ``first``-th: the index of the last snapshot before the
    first round in which a hooked station answers otherwise than it bids in
    ``run``, that round, and the hooked stations' answers in it, in station
    order; None if no answer differs before the hooked stations leave.
    Rounds up to ``asked_to`` were asked already and bid as in ``run``. Each
    later round asks each hooked station once, offering its volume times the
    round's clock, and compares the answer with its bid in ``run``."""
    clocks, snapshots = run.clocks, run.snapshots
    vols, values, exit_rounds = run.vols, run.values, run.exit_rounds
    # each hooked station's id, hook, volume, value and exit round in the run;
    # a station is dropped once it leaves a snapshot's active set
    hooked = [
        (sid, strategies[sid], vols[sid], values[sid], exit_rounds[sid])
        for sid in snapshots[first].active
        if sid in strategies
    ]
    for i in range(first, len(snapshots)):
        snap = snapshots[i]
        active = snap.active
        for h in hooked:
            if h[0] not in active:
                hooked = [h for h in hooked if h[0] in active]
                break
        if not hooked:
            return None
        # the rounds up to the next one played, or up to the last before the
        # horizon, the last round in which a station is asked
        last = snapshots[i + 1].round_index if i + 1 < len(snapshots) else len(clocks) - 1
        rounds = range(max(snap.round_index, asked_to) + 1, last + 1)
        if len(hooked) == 1:
            # a lone hook, as every criterion 5 deviation has: no answer list
            _, ask, vol, value, exit_round = hooked[0]
            for r in rounds:
                answer = ask(r, vol * clocks[r], value)
                if answer is not (EXIT if r >= exit_round else ACCEPT):
                    return i, r, [answer]
            continue
        for r in rounds:
            current = clocks[r]
            answers = []
            bid_as_in_run = True
            for _, ask, vol, value, exit_round in hooked:
                answer = ask(r, vol * current, value)
                answers.append(answer)
                bid_as_in_run = bid_as_in_run and answer is (EXIT if r >= exit_round else ACCEPT)
            if not bid_as_in_run:
                return i, r, answers
    return None


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
    decided by value against opening price. Every auction reads the memoized
    truthful run and resumes it where a hooked station first leaves the
    truthful path; an auction that never leaves it gets a copy of the run's
    outcome. A lone hooked station that accepts where it would exit follows
    its memoized never-exit run the same way.
    """
    strategies = strategies or {}
    run = _truthful_run(inst, values, config)
    if run.outcome is None:
        # the truthful run raised: played again from the start, an auction
        # without hooks raises again
        return _play(run, run.snapshots[0], [], strategies)
    left = _departure(run, strategies)
    if left is not None:
        i, r, answers = left
        if len(answers) == 1 and answers[0] is ACCEPT:
            sid = next(sid for sid in run.snapshots[i].active if sid in strategies)
            never_exit = _never_exit_run(run, sid, i)
            # one that raised is not followed: the auction plays on as before
            if never_exit.outcome is not None:
                run = never_exit
                left = _departure(run, strategies, i, r)
    if left is None:
        out = run.outcome
        return replace(out, winners=dict(out.winners), final_assignment=dict(out.final_assignment))
    i, r, answers = left
    snap = run.snapshots[i]
    return _play(run, snap, run.parts[: snap.parts], strategies, (r, answers))
