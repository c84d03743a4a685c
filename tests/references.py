"""Independent references shared by the tests.

:func:`reference_auction` is the auction as a plain round loop, and
:func:`milp_packing` the benchmark's packing problem as a 0-1 program built
from the instance's constraints, the station domains and the clearing target,
solved by HiGHS (Huangfu & Hall, Math. Prog. Computation 10, 2018) through
``scipy.optimize.milp``. :func:`reference_component` is the SAT check's
interference component flooded over every partner entry of the conflict
index. None shares code with the part of the program it checks: the
auction's memos and round skipping, the packing search, or the per-station
clash view that the component flood reads. The reference auction stores each
active station's last accepted price, which the auction derives from the clock.
"""

from typing import NamedTuple

import numpy as np
import scipy.optimize

from repacksim.auction import (
    AuctionOutcome,
    BidDecision,
    CheckerKind,
    ProcessedBid,
    RoundRecord,
    initial_assignment,
    truthful_bid,
)
from repacksim.feasibility import (
    Feasible,
    FeasibilityProblem,
    Timeout,
    check_exhaustive,
    check_greedy,
    check_sat,
)
from repacksim.pricing import initial_clock, next_clock, offer_price, volumes_for


class _BidFields(NamedTuple):
    station: int
    decision: BidDecision
    price_reduction: float
    offer: float


class Bid(_BidFields):
    """One station's answer to its offer in one round; a price reduction
    that is negative or NaN is refused, as the auction refuses it."""

    __slots__ = ()

    def __new__(cls, station, decision, price_reduction, offer):
        if not price_reduction >= 0:  # NaN fails too
            raise ValueError("price reduction must be non-negative")
        return _BidFields.__new__(cls, station, decision, price_reduction, offer)


def reference_order(bids, seed, round_index):
    """``bids`` by price reduction, highest first, with ties broken by a
    fresh permutation drawn from ``(seed, 3, round_index)`` over the bids in
    station order."""
    ordered = sorted(bids, key=lambda b: b.station)
    ranks = np.random.default_rng([seed, 3, round_index]).permutation(len(ordered))
    keyed = sorted(zip(ordered, ranks), key=lambda br: (-br[0].price_reduction, br[1]))
    return [b for b, _ in keyed]


_CHECKERS = {
    CheckerKind.GREEDY: check_greedy,
    CheckerKind.SAT: check_sat,
    CheckerKind.EXHAUSTIVE: lambda problem, budget: check_exhaustive(problem),
}


def reference_auction(inst, values, config, strategies):
    """The auction as a plain round loop: every bid runs its checker afresh,
    with no memo and no per-auction table, and bids are ordered by a fresh
    tie-break draw."""
    ct, budget = config.ct, config.budget
    checker = _CHECKERS[config.checker]
    c0 = config.initial_price()
    vols = volumes_for(inst, ct, config.scoring)
    opening = {s.id: offer_price(vols[s.id], c0) for s in inst.stations}
    participants = tuple(s.id for s in inst.stations if values[s.id] < opening[s.id])
    non_participants = tuple(s.id for s in inst.stations if s.id not in participants)
    packed = initial_assignment(inst, non_participants, ct, config.checker, budget)
    accepted = {sid: opening[sid] for sid in participants}
    payments, timeouts, log = {}, 0, []
    active, clock = sorted(participants), initial_clock(c0)
    while active:
        final = clock.current == 0.0 and all(accepted[sid] == 0.0 for sid in active)
        if final:
            round_index, current = clock.round_index + 1, 0.0
            bids = [Bid(sid, BidDecision.EXIT, 0.0, 0.0) for sid in active]
        else:
            clock = next_clock(clock)
            round_index, current = clock.round_index, clock.current
            bids = []
            for sid in active:
                offer = offer_price(vols[sid], current)
                if sid in strategies:
                    decision = strategies[sid](round_index, offer, values[sid])
                else:
                    decision = truthful_bid(values[sid], offer)
                bids.append(Bid(sid, decision, accepted[sid] - offer, offer))
        processed = []
        for bid in reference_order(bids, config.seed, round_index):
            sid = bid.station
            verdict = checker(FeasibilityProblem(sid, packed, inst, ct), budget)
            payment = None
            if isinstance(verdict, Feasible):
                name = "feasible"
                if bid.decision is BidDecision.EXIT:
                    packed, status = dict(verdict.certificate), "exited"
                else:
                    accepted[sid], status = bid.offer, "active"
            else:
                name = "timeout" if isinstance(verdict, Timeout) else "infeasible"
                timeouts += name == "timeout"
                payment = payments[sid] = accepted[sid]
                status = "frozen"
            processed.append(
                ProcessedBid(
                    sid, bid.decision.value, bid.price_reduction, bid.offer, name, status, payment
                )
            )
        log.append(RoundRecord(round_index, current, tuple(processed), final))
        if final:
            break
        active = sorted(p.station for p in processed if p.new_status == "active")
    return AuctionOutcome(
        winners={sid: payments[sid] for sid in sorted(payments)},
        final_assignment=packed,
        participants=participants,
        non_participants=non_participants,
        rounds=len(log),
        checker_timeout_count=timeouts,
        round_log=tuple(log),
    )


def reference_component(problem):
    """The target's interference component among the packed stations, in
    station order: a flood from the target over every partner of every
    reduced-band channel of each station it reaches, so it meets a neighbour
    once per clashing pair of channels."""
    inst, ct = problem.inst, problem.ct
    conflicts = inst.conflicts_in_band(ct)
    unreached = set(problem.packed)
    component = [problem.target]
    # the loop reads the stations appended while it runs
    for sid in component:
        for ch in sorted(ct.reduced(inst.station(sid).domain)):
            for osid, _ in conflicts.get((sid, ch), ()):
                if osid in unreached:
                    unreached.remove(osid)
                    component.append(osid)
    return sorted(component)


def milp_packing(inst, values, participants, non_participants, ct):
    """The stations on air in a packing of the best total value of
    ``participants`` on air, each station on at most one channel below
    ``ct.bar_c`` and every one of ``non_participants`` on exactly one, with no
    constraint's two pairs both on air; None when the non-participants cannot
    all be placed."""
    columns = [
        (station.id, ch)
        for station in inst.stations
        for ch in sorted(station.domain)
        if ch < ct.bar_c
    ]
    column = {pair: k for k, pair in enumerate(columns)}
    parts, nons = set(participants), set(non_participants)
    rows, lower = [], []
    for con in sorted(inst.constraints):
        if con.first in column and con.second in column:
            row = np.zeros(len(columns))
            row[column[con.first]] = row[column[con.second]] = 1.0
            rows.append(row)
            lower.append(0.0)
    for station in inst.stations:
        row = np.zeros(len(columns))
        for ch in station.domain:
            if (station.id, ch) in column:
                row[column[station.id, ch]] = 1.0
        forced = station.id in nons
        if forced and not row.any():
            return None
        rows.append(row)
        lower.append(1.0 if forced else 0.0)
    if not columns:
        return set()
    gain = np.array([values[sid] if sid in parts else 0.0 for sid, _ in columns])
    result = scipy.optimize.milp(
        -gain,
        constraints=scipy.optimize.LinearConstraint(np.array(rows), lower, 1.0),
        integrality=np.ones(len(columns)),
        bounds=scipy.optimize.Bounds(0.0, 1.0),
        # HiGHS stops within a relative gap of 1e-4 by default
        options={"mip_rel_gap": 0},
    )
    if result.status == 2:  # infeasible
        return None
    assert result.success, result.message
    return {sid for (sid, _), x in zip(columns, result.x) if x > 0.5}


def milp_value(inst, values, participants, non_participants, ct):
    """The value of :func:`milp_packing`'s participants on air, or None."""
    on_air = milp_packing(inst, values, participants, non_participants, ct)
    if on_air is None:
        return None
    return sum(values[sid] for sid in sorted(on_air & set(participants)))
