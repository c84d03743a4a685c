import dataclasses
import hashlib

import numpy as np
import pytest

from repacksim import auction
from repacksim.auction import (
    AuctionConfig,
    AuctionState,
    Bid,
    BidDecision,
    CheckerKind,
    StationStatus,
    _processing_order,
    determine_participants,
    initial_assignment,
    run_auction,
    truthful_bid,
)
from repacksim.feasibility import Budget, Feasible
from repacksim.instances import (
    GeneratorParams,
    ValueSamplerParams,
    generate_instance,
    sample_values,
)
from repacksim.model import (
    ClearingTarget,
    Instance,
    UnpackableError,
    validate_assignment,
)
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


# ------------------------------------------------------- memoized work

# sha256 over ``repr`` of every outcome of ``_pinned_batch``, computed before
# tie-break ranks and verdicts were memoized across auctions
PINNED_BATCH_DIGEST = "fc903e4972a3f40a8d95b9b1f5bcc913e19c79117ef54de6530734203e8e7236"

PINNED_CHECKERS = (
    (CheckerKind.SAT, 50_000),
    (CheckerKind.SAT, 2),  # times out on some checks the full budget decides
    (CheckerKind.GREEDY, 50_000),
    (CheckerKind.EXHAUSTIVE, 50_000),
)


def _pinned_instances():
    pairs = []
    for k in range(3):
        inst = generate_instance(
            GeneratorParams(
                n_stations=7,
                channel_lo=14,
                channel_hi=17,
                co_channel_radius=0.45,
                adjacent_channel_radius=0.1,
                seed=600 + k,
            )
        )
        values = sample_values(
            inst,
            ValueSamplerParams(
                log_mean=2.5, log_sd=0.8, population_exponent=0.3, seed=60 + k
            ),
        )
        pairs.append((inst, values))
    return pairs


def _exit_at(r):
    return lambda round_index, offer, value: (
        BidDecision.EXIT if round_index >= r else BidDecision.ACCEPT
    )


def _pinned_batch(pairs, twins=None):
    """Every instance x {FCC, unscored} x checker, each run truthfully and
    with every participant exiting at round 1 and at round 4. With ``twins``,
    every other auction runs on the twin of its instance instead."""
    outcomes = []
    for k, (inst, values) in enumerate(pairs):
        unscored_c0 = max(values.values()) * 1.5
        for scoring, c0 in ((ScoringRule.FCC, None), (ScoringRule.UNSCORED, unscored_c0)):
            for checker, steps in PINNED_CHECKERS:
                cfg = AuctionConfig(
                    ct=ClearingTarget(16),
                    scoring=scoring,
                    c0=c0,
                    checker=checker,
                    budget=Budget(step_limit=steps),
                    seed=k,
                )

                def run(strategies=None):
                    on = twins[k] if twins and len(outcomes) % 2 else inst
                    outcomes.append(run_auction(on, values, cfg, strategies))
                    return outcomes[-1]

                for sid in run().participants:
                    for r in (1, 4):
                        run({sid: _exit_at(r)})
    return outcomes


def _digest(outcomes):
    h = hashlib.sha256()
    for out in outcomes:
        h.update(repr(out).encode())
    return h.hexdigest()


def _forget_memoized_work():
    auction._VERDICTS.clear()
    auction._tiebreak_ranks.cache_clear()


def test_pinned_outcomes_do_not_depend_on_memoized_work():
    pairs = _pinned_instances()
    twins = [Instance(i.stations, i.constraints, i.channel_universe) for i, _ in pairs]
    assert all(t == i and t is not i for t, (i, _) in zip(twins, pairs))
    _forget_memoized_work()
    cold = _digest(_pinned_batch(pairs))
    warm = _digest(_pinned_batch(pairs))
    interleaved = _digest(_pinned_batch(pairs, twins))
    assert cold == warm == interleaved == PINNED_BATCH_DIGEST


def test_mutating_returned_assignments_cannot_change_later_auctions():
    pairs = _pinned_instances()
    _forget_memoized_work()
    first = _pinned_batch(pairs)
    assert _digest(first) == PINNED_BATCH_DIGEST
    for out in first:
        out.final_assignment.clear()
    # certificates handed out by AuctionState.check come from the same memo
    inst, _ = pairs[0]
    for checker, steps in PINNED_CHECKERS:
        state = AuctionState(
            inst=inst,
            ct=ClearingTarget(16),
            checker=checker,
            budget=Budget(step_limit=steps),
            status={},
            last_accepted={},
        )
        for sid in inst.station_ids():
            for _ in range(2):  # a miss, then a hit
                verdict = state.check(sid)
                if isinstance(verdict, Feasible):
                    verdict.certificate.clear()
                    verdict.certificate[-1] = 99
    assert _digest(_pinned_batch(pairs)) == PINNED_BATCH_DIGEST


def _reference_order(bids, seed, round_index):
    ordered = sorted(bids, key=lambda b: b.station)
    ranks = np.random.default_rng([seed, 3, round_index]).permutation(len(ordered))
    keyed = sorted(zip(ordered, ranks), key=lambda br: (-br[0].price_reduction, br[1]))
    return [b for b, _ in keyed]


def _bids(reductions):
    # station ids out of order, so the order cannot come from the input
    sids = [(7 * i + 3) % 17 for i in range(len(reductions))]
    return [
        Bid(sid, BidDecision.ACCEPT, red, 1.0) for sid, red in zip(sids, reductions)
    ]


@pytest.mark.parametrize(
    "pattern",
    [
        lambda n: [2.5] * n,  # all ties
        lambda n: [float(n - i) for i in range(n)],  # no ties
        lambda n: [float(i % 3) for i in range(n)],  # mixed ties
        lambda n: [0.0, -0.0, 1.0, 0.0, 3.0, -0.0, 0.5, 1.0, 2.0][:n],  # signed zeros
    ],
    ids=["all-ties", "no-ties", "mixed-ties", "signed-zeros"],
)
def test_processing_order_matches_a_fresh_draw(pattern):
    _forget_memoized_work()
    for n in (0, 1, 2, 3, 6, 9):
        bids = _bids(pattern(n))
        for seed in (0, 1, 7, 2**31 + 5):
            for round_index in (0, 1, 5, 60):
                expected = _reference_order(bids, seed, round_index)
                assert _processing_order(bids, seed, round_index) == expected
                # a second call is served from the memo
                assert _processing_order(bids, seed, round_index) == expected


def test_processing_order_draws_only_for_uncached_ties(monkeypatch):
    _forget_memoized_work()
    tied = _bids([1.0, 1.0, 2.0])
    first = _processing_order(tied, 4, 2)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew tie-break ranks")

    monkeypatch.setattr(auction.np.random, "default_rng", no_draw)
    assert _processing_order(tied, 4, 2) == first  # memo hit
    distinct = _bids([3.0, 1.0, 2.0, 0.0])
    assert [b.price_reduction for b in _processing_order(distinct, 4, 3)] == [
        3.0, 2.0, 1.0, 0.0
    ]
    with pytest.raises(AssertionError, match="drew"):
        _processing_order(tied, 4, 3)
