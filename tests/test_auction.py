import dataclasses

import pytest

from repacksim.auction import (
    AuctionConfig,
    BidDecision,
    CheckerKind,
    StationStatus,
    determine_participants,
    initial_assignment,
    run_auction,
    truthful_bid,
)
from repacksim.feasibility import Budget
from repacksim.model import ClearingTarget, UnpackableError, validate_assignment
from repacksim.pricing import ScoringRule, offer_price, unscored_volumes, volumes_for

from conftest import mk_instance

BUDGET = Budget(step_limit=50_000)


def unscored_config(ct, c0, checker=CheckerKind.SAT, seed=0):
    return AuctionConfig(
        ct=ct, scoring=ScoringRule.UNSCORED, c0=c0, checker=checker, seed=seed
    )


# ------------------------------------------------------- participation


def test_participation_is_strict():
    inst = mk_instance([(1, {14}), (2, {14}), (3, {14})])
    volumes = unscored_volumes(inst)
    values = {1: 0.0, 2: 900.0, 3: 899.0}
    participants, nons = determine_participants(inst, values, volumes, 900.0)
    assert participants == (1, 3)  # value == opening price stays out
    assert nons == (2,)


def test_participation_requires_full_profile():
    inst = mk_instance([(1, {14}), (2, {14})])
    with pytest.raises(ValueError, match="missing"):
        determine_participants(inst, {1: 5.0}, unscored_volumes(inst), 10.0)


def test_unscored_participation_near_default_opening():
    inst = mk_instance([(1, {14})])
    volumes = unscored_volumes(inst)
    participants, _ = determine_participants(
        inst, {1: 899_999_999.0}, volumes, 900_000_000.0
    )
    assert participants == (1,)


# ------------------------------------------------------- initial packing


def test_initial_assignment_cases():
    inst = mk_instance([(1, {15, 14}), (2, {14})], [(1, 14, 2, 14)])
    ct = ClearingTarget(16)
    assert initial_assignment(inst, (), ct, CheckerKind.SAT, BUDGET) == {}
    assert initial_assignment(inst, (1,), ct, CheckerKind.SAT, BUDGET) == {1: 14}
    # greedy packs 1 on 14 first, blocking 2; the whole-set fallback repacks
    packed = initial_assignment(inst, (1, 2), ct, CheckerKind.GREEDY, BUDGET)
    assert packed == {1: 15, 2: 14}
    assert validate_assignment(packed, inst, ct)


def test_initial_assignment_rejects_unpackable(triangle_one_channel):
    inst, ct = triangle_one_channel
    with pytest.raises(UnpackableError):
        initial_assignment(inst, (1, 2), ct, CheckerKind.SAT, BUDGET)


# ------------------------------------------------------- bids


def test_truthful_bid_tie_accepts():
    assert truthful_bid(100.0, 150.0) is BidDecision.ACCEPT
    assert truthful_bid(100.0, 99.0) is BidDecision.EXIT
    assert truthful_bid(100.0, 100.0) is BidDecision.ACCEPT


# ------------------------------------------------------- whole runs


def test_all_non_participating_means_zero_winners():
    inst = mk_instance([(1, {14}), (2, {15})])
    out = run_auction(inst, {1: 50.0, 2: 50.0}, unscored_config(ClearingTarget(16), 10.0))
    assert out.winners == {}
    assert out.participants == ()
    assert out.final_assignment == {1: 14, 2: 15}
    assert out.rounds == 0


def test_single_station_always_feasible_exits_without_payment():
    inst = mk_instance([(1, {14})])
    out = run_auction(inst, {1: 5.0}, unscored_config(ClearingTarget(15), 10.0))
    assert out.winners == {}
    assert out.final_assignment == {1: 14}
    # it exits the first round its offer drops below 5
    exit_rounds = [
        rec.round_index
        for rec in out.round_log
        for b in rec.bids
        if b.new_status == "exited"
    ]
    assert len(exit_rounds) == 1
    clock_at_exit = out.round_log[exit_rounds[0] - 1].clock
    assert clock_at_exit < 5.0
    prev_clock = out.round_log[exit_rounds[0] - 2].clock
    assert prev_clock >= 5.0


def test_empty_reduced_domain_station_freezes_at_opening_price():
    inst = mk_instance([(1, {20})], universe=(14, 20))
    ct = ClearingTarget(15)
    out = run_auction(inst, {1: 1.0}, unscored_config(ct, 10.0, CheckerKind.SAT))
    assert out.winners == {1: 10.0}
    assert out.rounds == 1
    assert out.final_assignment == {}
    assert out.round_log[0].bids[0].verdict == "infeasible"
    # the greedy checker freezes it too, via a timeout verdict
    out_greedy = run_auction(inst, {1: 1.0}, unscored_config(ct, 10.0, CheckerKind.GREEDY))
    assert out_greedy.winners == {1: 10.0}
    assert out_greedy.checker_timeout_count == 1
    assert out_greedy.round_log[0].bids[0].verdict == "timeout"


def test_two_exclusive_stations_value_order(triangle_one_channel):
    inst, ct = triangle_one_channel
    # only stations 1 and 2 exist in this variant
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    values = {1: 5.0, 2: 3.0}
    out = run_auction(inst, values, unscored_config(ct, 10.0))
    # the value-5 station exits first while still packable; the other freezes
    assert set(out.winners) == {2}
    assert out.final_assignment == {1: 14}
    assert out.winners[2] >= 3.0  # paid at least its value (frozen after accepting)


def test_equal_reduction_tie_is_seeded(triangle_one_channel):
    inst, ct = triangle_one_channel
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    values = {1: 5.0, 2: 5.0}  # both exit the same round; one packable slot
    winners_by_seed = set()
    for seed in range(12):
        out = run_auction(inst, values, unscored_config(ct, 10.0, seed=seed))
        assert len(out.winners) == 1
        winners_by_seed.add(next(iter(out.winners)))
    assert winners_by_seed == {1, 2}  # both orders occur across seeds


def test_winner_paid_most_recent_accepted_offer():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    values = {1: 5.0, 2: 3.0}
    out = run_auction(inst, values, unscored_config(ClearingTarget(15), 10.0))
    payment = out.winners[2]
    offers = [10.0] + [rec.clock for rec in out.round_log]
    assert payment in offers
    accepted = [
        b.offer
        for rec in out.round_log
        for b in rec.bids
        if b.station == 2 and b.new_status == "active"
    ]
    last_accepted = accepted[-1] if accepted else 10.0
    assert payment == last_accepted


def test_payment_sequence_non_increasing_and_statuses_terminal():
    inst = mk_instance(
        [(i, {14, 15}) for i in range(6)],
        [(a, c, b, c) for a in range(6) for b in range(a + 1, 6) for c in (14, 15)],
    )
    values = {i: float(2 + i) for i in range(6)}
    out = run_auction(inst, values, unscored_config(ClearingTarget(16), 9.0, seed=4))
    assert validate_assignment(out.final_assignment, inst, ClearingTarget(16))
    for sid, payment in out.winners.items():
        assert sid not in out.final_assignment
        per_station = [
            b.offer
            for rec in out.round_log
            for b in rec.bids
            if b.station == sid and b.new_status == "active"
        ]
        assert all(a >= b for a, b in zip(per_station, per_station[1:]))
        assert payment == ([9.0] + per_station)[-1]
    exited = {
        b.station
        for rec in out.round_log
        for b in rec.bids
        if b.new_status == "exited"
    }
    for sid in exited:
        assert sid in out.final_assignment


def test_outcome_partitions_stations():
    # winners never overlap the final assignment, and everyone else is packed
    inst = mk_instance(
        [(i, {14, 15}) for i in range(7)],
        [(a, c, b, c) for a in range(7) for b in range(a + 1, 7) for c in (14, 15)],
    )
    values = {i: float(1 + i) for i in range(7)}
    values[6] = 1000.0  # non-participant at c0=20
    out = run_auction(inst, values, unscored_config(ClearingTarget(16), 20.0, seed=3))
    assert set(out.winners).isdisjoint(out.final_assignment)
    everyone = set(out.participants) | set(out.non_participants)
    assert set(out.winners) | set(out.final_assignment) == everyone


def test_deterministic_outcomes():
    inst = mk_instance(
        [(i, {14, 15}) for i in range(5)],
        [(a, c, b, c) for a in range(5) for b in range(a + 1, 5) for c in (14, 15)],
    )
    values = {i: float(1 + 2 * i) for i in range(5)}
    cfg = unscored_config(ClearingTarget(16), 12.0, seed=9)
    a = run_auction(inst, values, cfg)
    b = run_auction(inst, values, cfg)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    shifted = run_auction(
        inst, values, unscored_config(ClearingTarget(16), 12.0, seed=10)
    )
    assert dataclasses.asdict(shifted) != dataclasses.asdict(a) or True  # may tie


def test_zero_value_station_resolves_at_clock_zero():
    inst = mk_instance([(1, {14})])
    out = run_auction(inst, {1: 0.0}, unscored_config(ClearingTarget(15), 10.0))
    # rides every round down to zero, then exits in the resolution pass
    assert out.winners == {}
    assert out.final_assignment == {1: 14}
    assert out.round_log[-1].final_resolution is True
    assert out.round_log[-1].clock == 0.0


def test_zero_value_conflicting_pair_resolution():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    out = run_auction(
        inst, {1: 0.0, 2: 0.0}, unscored_config(ClearingTarget(15), 10.0, seed=2)
    )
    # one exits at zero, the other freezes at its accepted price of zero
    assert len(out.winners) == 1
    assert list(out.winners.values()) == [0.0]
    assert len(out.final_assignment) == 1


def test_strategy_hook_forces_early_exit():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    values = {1: 5.0, 2: 3.0}

    def exit_now(round_index, offer, value):
        return BidDecision.EXIT

    out = run_auction(
        inst,
        values,
        unscored_config(ClearingTarget(15), 10.0),
        strategies={2: exit_now},
    )
    # station 2 leaves in round one while still packable, station 1 freezes
    assert out.final_assignment == {2: 14}
    assert set(out.winners) == {1}


def test_fcc_scoring_orders_processing_by_volume():
    # two stations, distinct volumes, both exit in the same round: the higher
    # volume one (bigger price reduction) is processed first
    inst = mk_instance(
        [(1, {14}, 1_000_000, 14), (2, {14}, 10_000, 14)],
        [(1, 14, 2, 14)],
    )
    ct = ClearingTarget(15)
    volumes = volumes_for(inst, ct, ScoringRule.FCC)
    assert volumes.volume(1) > volumes.volume(2)
    opening_1 = offer_price(volumes.volume(1), 900.0)
    opening_2 = offer_price(volumes.volume(2), 900.0)
    values = {1: opening_1 * 0.99999, 2: opening_2 * 0.99999}
    cfg = AuctionConfig(ct=ct, scoring=ScoringRule.FCC, checker=CheckerKind.SAT, seed=0)
    out = run_auction(inst, values, cfg)
    first_round = out.round_log[0]
    assert [b.station for b in first_round.bids] == [1, 2]
    assert first_round.bids[0].price_reduction > first_round.bids[1].price_reduction
    # both exit-bid immediately; station 1 goes first and packs the channel
    assert set(out.winners) == {2}


def test_config_validation():
    ct = ClearingTarget(15)
    with pytest.raises(ValueError):
        AuctionConfig(ct=ct, c0=-1.0)
    assert AuctionConfig(ct=ct).initial_price() == 900.0
    assert (
        AuctionConfig(ct=ct, scoring=ScoringRule.UNSCORED).initial_price()
        == 900_000_000.0
    )
