import dataclasses
import hashlib
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim import auction
from repacksim.auction import (
    AuctionConfig,
    AuctionOutcome,
    AuctionState,
    BidDecision,
    CheckerKind,
    ProcessedBid,
    RoundRecord,
    _processing_order,
    determine_participants,
    initial_assignment,
    process_bids,
    run_auction,
    truthful_bid,
)
from repacksim.feasibility import (
    Budget,
    FeasibilityProblem,
    SearchSpaceError,
    check_sat,
)
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
from repacksim.pricing import (
    DegenerateInstanceError,
    ScoringRule,
    clock_trajectory,
    offer_price,
    unscored_volumes,
    volumes_for,
)

from conftest import mk_instance
from references import Bid, reference_auction, reference_order

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


def test_initial_assignment_reports_a_fallback_left_undecided(monkeypatch):
    # pigeonhole: 5 stations, 4 channels, every pair in conflict on every
    # channel. Greedy blocks the fifth station, and the whole-set search needs
    # 4 + 12 + 24 + 24 = 64 steps to prove the set unpackable.
    chans = {14, 15, 16, 17}
    inst = mk_instance(
        [(s, chans) for s in range(5)],
        [(a, c, b, c) for a in range(5) for b in range(a + 1, 5) for c in chans],
    )
    ct, budget = ClearingTarget(18), Budget(step_limit=1)
    monkeypatch.setattr(auction, "DECIDING_STEP_LIMIT", 20)
    with pytest.raises(SearchSpaceError, match="undecided within the fallback budget"):
        initial_assignment(inst, range(5), ct, CheckerKind.GREEDY, budget)
    monkeypatch.setattr(auction, "DECIDING_STEP_LIMIT", 64)
    with pytest.raises(UnpackableError):
        initial_assignment(inst, range(5), ct, CheckerKind.GREEDY, budget)


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


def test_cost_sums_the_winners_payments_in_station_order():
    def outcome(winners):
        return AuctionOutcome(winners, {}, tuple(winners), (), 0, 0, ())

    assert outcome({}).cost() == 0
    # 0.3 + 0.2 + 0.1 is 0.6; in station order the sum is 0.6000000000000001
    cost = outcome({3: 0.3, 2: 0.2, 1: 0.1}).cost()
    assert cost == 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1


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
    cfg10 = unscored_config(ClearingTarget(16), 12.0, seed=10)
    shifted = run_auction(inst, values, cfg10)
    assert dataclasses.asdict(run_auction(inst, values, cfg10)) == dataclasses.asdict(shifted)
    # unscored bids all tie, so seed 10's first draw alone orders round one
    ranks = np.random.default_rng([10, 3, 1]).permutation(5)
    expected = [sid for _, sid in sorted(zip(ranks, range(5)))]
    assert [b.station for b in shifted.round_log[0].bids] == expected


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


def test_strategy_decision_given_as_a_string_is_read_as_the_decision():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    values = {1: 5.0, 2: 3.0}
    cfg = unscored_config(ClearingTarget(15), 10.0)

    def answer(decision):
        return {2: lambda round_index, offer, value: decision}

    as_enum = run_auction(inst, values, cfg, strategies=answer(BidDecision.EXIT))
    as_string = run_auction(inst, values, cfg, strategies=answer("exit"))
    assert as_string == as_enum
    assert [b.decision for b in as_string.round_log[0].bids if b.station == 2] == ["exit"]
    assert as_string.final_assignment == {2: 14}


def test_strategy_decision_that_is_no_decision_raises():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    with pytest.raises(ValueError, match="bogus"):
        run_auction(
            inst,
            {1: 5.0, 2: 3.0},
            unscored_config(ClearingTarget(15), 10.0),
            strategies={2: lambda round_index, offer, value: "bogus"},
        )


def test_a_junk_decision_in_a_round_that_would_be_skipped_raises():
    # neither station ever exits and both fit, so every round until clock
    # zero is quiet: the hook's one junk answer falls in a skipped stretch
    inst = mk_instance([(1, {14}), (2, {15})])

    def junk_in_round_7(round_index, offer, value):
        return "bogus" if round_index == 7 else BidDecision.ACCEPT

    with pytest.raises(ValueError, match="bogus"):
        run_auction(
            inst,
            {1: 0.0, 2: 0.0},
            unscored_config(ClearingTarget(16), 10.0),
            strategies={2: junk_in_round_7},
        )


def test_fcc_scoring_orders_processing_by_volume():
    # two stations, distinct volumes, both exit in the same round: the higher
    # volume one (bigger price reduction) is processed first
    inst = mk_instance(
        [(1, {14}, 1_000_000, 14), (2, {14}, 10_000, 14)],
        [(1, 14, 2, 14)],
    )
    ct = ClearingTarget(15)
    volumes = volumes_for(inst, ct, ScoringRule.FCC)
    assert volumes[1] > volumes[2]
    opening_1 = offer_price(volumes[1], 900.0)
    opening_2 = offer_price(volumes[2], 900.0)
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
    with pytest.raises(ValueError, match="positive"):
        AuctionConfig(ct=ct, c0=-1.0)
    for c0 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            AuctionConfig(ct=ct, c0=c0)
    # a negative seed would reach numpy's tie-break draw only at the first tie
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        AuctionConfig(ct=ct, seed=-1)
    assert AuctionConfig(ct=ct).initial_price() == 900.0
    assert (
        AuctionConfig(ct=ct, scoring=ScoringRule.UNSCORED).initial_price()
        == 900_000_000.0
    )


# ------------------------------------------------------- memoized work

# sha256 over ``repr`` of the winners (with their payments), rounds and round
# log of every outcome of ``_pinned_batch`` whose checker budget does not bind,
# that is all but the 2-step SAT cells. Computed with the SAT checker's CNF and
# DPLL, before it moved to presolve and forward checking, which must not move it.
PINNED_OUTCOME_DIGEST = "cab8ba7deb0714d1d72ae5af55597b7406b5ef1d4b2a6b7dad4b6562377b11b0"

# sha256 over ``repr`` of every outcome of ``_pinned_batch``, certificates and
# 2-step cells included. Re-pinned when the SAT checker moved to presolve and
# forward checking, which changes its certificates and what 2 steps decide,
# and again when its search kept to the target's interference component,
# which decides some checks within 2 steps that the whole set's search did
# not (the 2-step cells' checker timeouts fell from 111 to 75).
PINNED_BATCH_DIGEST = "aab899abcc12de22bb94842e3af898cd2995bbced6fa9c2159047ab3c75af3b9"

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


def _pinned_jobs(pairs):
    """Every instance x {FCC, unscored} x checker, each run truthfully and
    with every participant exiting at round 1 and at round 4, as
    ``(instance index, step limit, config, strategies)``."""
    jobs = []
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
                vols = volumes_for(inst, cfg.ct, scoring)
                participants, _ = determine_participants(inst, values, vols, cfg.initial_price())
                jobs.append((k, steps, cfg, None))
                for sid in participants:
                    for r in (1, 4):
                        jobs.append((k, steps, cfg, {sid: _exit_at(r)}))
    return jobs


def _pinned_batch(pairs, twins=None):
    """The auctions of :func:`_pinned_jobs` in order, as pairs of the
    checker's step limit and the outcome. With ``twins``, every other auction
    runs on the twin of its instance instead."""
    outcomes = []
    for n, (k, steps, cfg, strategies) in enumerate(_pinned_jobs(pairs)):
        inst, values = pairs[k]
        on = twins[k] if twins and n % 2 else inst
        outcomes.append((steps, run_auction(on, values, cfg, strategies)))
    return outcomes


def _digests(batch):
    """The digests of ``PINNED_OUTCOME_DIGEST`` and ``PINNED_BATCH_DIGEST``."""
    outcomes, whole = hashlib.sha256(), hashlib.sha256()
    for steps, out in batch:
        if steps > 2:
            outcomes.update(repr((out.winners, out.rounds, out.round_log)).encode())
        whole.update(repr(out).encode())
    return outcomes.hexdigest(), whole.hexdigest()


PINNED_DIGESTS = (PINNED_OUTCOME_DIGEST, PINNED_BATCH_DIGEST)


def _forget_memoized_work():
    auction._tiebreak_order.cache_clear()
    auction._TRUTHFUL_RUN.clear()


def test_pinned_outcomes_do_not_depend_on_memoized_work():
    pairs = _pinned_instances()
    twins = [Instance(i.stations, i.constraints, i.channel_universe) for i, _ in pairs]
    assert all(t == i and t is not i for t, (i, _) in zip(twins, pairs))
    _forget_memoized_work()
    cold = _digests(_pinned_batch(pairs))
    warm = _digests(_pinned_batch(pairs))
    interleaved = _digests(_pinned_batch(pairs, twins))
    assert cold == warm == interleaved == PINNED_DIGESTS


@pytest.mark.parametrize("size", [1, auction._VERDICT_MEMO_SIZE])
def test_pinned_outcomes_do_not_depend_on_table_eviction_or_auction_order(monkeypatch, size):
    # with one table, each exit's packed set evicts the table of the one
    # before from its truthful run's tables, and a set met again is checked
    # afresh
    monkeypatch.setattr(auction, "_VERDICT_MEMO_SIZE", size)
    pairs = _pinned_instances()
    _forget_memoized_work()
    assert _digests(_pinned_batch(pairs)) == PINNED_DIGESTS
    # backwards, the deviations fill their truthful run's tables in another
    # order, and each meets the tables of the ones after it
    _forget_memoized_work()
    backward = [
        (steps, run_auction(*pairs[k], cfg, strategies))
        for k, steps, cfg, strategies in reversed(_pinned_jobs(pairs))
    ]
    assert _digests(backward[::-1]) == PINNED_DIGESTS


def test_an_auction_keeps_filling_a_table_the_memo_evicted(monkeypatch):
    monkeypatch.setattr(auction, "_VERDICT_MEMO_SIZE", 1)
    inst, _ = _pinned_instances()[0]
    ct, budget = ClearingTarget(16), Budget(step_limit=50_000)
    first, *rest = inst.station_ids()
    lowest = min(ct.reduced(inst.station(first).domain))
    tables = OrderedDict()
    states = [
        AuctionState(inst, ct, CheckerKind.SAT, budget, {}, packed=packed, tables=tables)
        for packed in ({}, {first: lowest})
    ]
    # the two states take turns, so each fetch evicts the other's table
    for sid in rest:
        for state in states:
            expected = check_sat(FeasibilityProblem(sid, state.packed, inst, ct), budget)
            assert state.check(sid) == expected
            assert state.check(sid) is state.check(sid)
    assert len(tables) == 1


def _recorded_checker_runs(monkeypatch):
    """The target and packed items of every checker run that ``auction.py``
    makes from here on, in order."""
    runs = []
    run_checker = auction._run_checker

    def recording(kind, problem, budget):
        runs.append((problem.target, tuple(problem.packed.items())))
        return run_checker(kind, problem, budget)

    monkeypatch.setattr(auction, "_run_checker", recording)
    return runs


def test_an_auction_without_hooks_runs_the_same_checkers_when_run_twice(monkeypatch):
    # it keeps its verdicts to itself, so a second run meets none of them
    inst, values, config = _criterion_5_case(1)
    n_packed = len(determine_participants(inst, values, unscored_volumes(inst), config.c0)[1])
    runs = _recorded_checker_runs(monkeypatch)
    first = run_auction(inst, values, config)
    once = list(runs)
    assert len(once) > n_packed  # the rounds run checkers, not only the initial packing
    runs.clear()
    assert run_auction(inst, values, config) == first
    assert runs == once


def test_a_second_equal_hooked_auction_runs_no_checker(monkeypatch):
    inst, values, config = _criterion_5_case(1)
    opening = auction._open(inst, values, config)
    # a station that would accept in round 1 exits in it, so the deviation
    # leaves the truthful run at once and its exit runs a checker
    sid = next(s for s in opening.participants if opening.exit_rounds[s] > 1)
    strategies = {sid: _exit_at(1)}
    _forget_memoized_work()
    runs = _recorded_checker_runs(monkeypatch)
    first = run_auction(inst, values, config, strategies)
    assert first == reference_auction(inst, values, config, strategies)
    assert runs
    runs.clear()
    # the truthful run keeps the verdicts its deviations found too
    assert run_auction(inst, values, config, strategies) == first
    assert runs == []


def test_mutating_returned_assignments_cannot_change_later_auctions():
    pairs = _pinned_instances()
    _forget_memoized_work()
    first = _pinned_batch(pairs)
    assert _digests(first) == PINNED_DIGESTS
    for _, out in first:
        out.final_assignment.clear()
    # an exit keeps the certificate of a verdict that later auctions get
    # from the same tables
    inst, _ = pairs[0]
    for checker, steps in PINNED_CHECKERS:
        tables = OrderedDict()
        for sid in inst.station_ids():
            for _ in range(2):  # a miss, then a hit
                state = AuctionState(
                    inst=inst,
                    ct=ClearingTarget(16),
                    checker=checker,
                    budget=Budget(step_limit=steps),
                    last_accepted={sid: 0.0},
                    tables=tables,
                )
                process_bids(state, [Bid(sid, BidDecision.EXIT, 0.0, 0.0)], 0, 1)
                state.packed.clear()
                state.packed[-1] = 99
    assert _digests(_pinned_batch(pairs)) == PINNED_DIGESTS


def _outcome_or_error(auction_fn, *args):
    try:
        return auction_fn(*args)
    except (DegenerateInstanceError, UnpackableError, SearchSpaceError) as error:
        return type(error)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=4, max_value=8),
    checker=st.sampled_from(list(CheckerKind)),
    steps=st.sampled_from([2, 50_000]),
    scoring=st.sampled_from(list(ScoringRule)),
    exits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=12)),
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_auction_matches_a_reference_without_memos(seed, n, checker, steps, scoring, exits):
    inst = generate_instance(
        GeneratorParams(
            n_stations=n,
            channel_lo=14,
            channel_hi=17,
            co_channel_radius=0.45,
            adjacent_channel_radius=0.1,
            seed=seed,
        )
    )
    values = sample_values(
        inst,
        ValueSamplerParams(log_mean=2.5, log_sd=0.8, population_exponent=0.3, seed=seed),
    )
    config = AuctionConfig(
        ct=ClearingTarget(16),
        scoring=scoring,
        c0=max(values.values()) * 1.5 if scoring is ScoringRule.UNSCORED else None,
        checker=checker,
        budget=Budget(step_limit=steps),
        seed=seed,
    )
    sids = inst.station_ids()
    strategies = {sids[i % n]: _exit_at(r) for i, r in exits}
    # truthful first, then with exits, which resumes from a truthful run
    # of its own and meets the verdicts that run left
    for chosen in ({}, strategies):
        expected = _outcome_or_error(reference_auction, inst, values, config, chosen)
        got = _outcome_or_error(run_auction, inst, values, config, chosen)
        assert got == expected
        assert repr(got) == repr(expected)  # the packed order too


def _never_exit(round_index, offer, value):
    return BidDecision.ACCEPT


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=4, max_value=8),
    checker=st.sampled_from(list(CheckerKind)),
    scoring=st.sampled_from(list(ScoringRule)),
    # exit rounds over the clock's whole horizon of 53 rounds and past it;
    # None never exits
    exits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.none() | st.integers(min_value=1, max_value=60),
        ),
        max_size=3,
    ),
)
@settings(max_examples=100, deadline=None)
def test_skipped_stretches_read_as_the_reference_round_log(seed, n, checker, scoring, exits):
    inst = generate_instance(
        GeneratorParams(
            n_stations=n,
            channel_lo=14,
            channel_hi=17,
            co_channel_radius=0.4,
            adjacent_channel_radius=0.1,
            seed=seed,
        )
    )
    values = sample_values(
        inst,
        ValueSamplerParams(log_mean=2.5, log_sd=0.8, population_exponent=0.3, seed=seed),
    )
    config = AuctionConfig(
        ct=ClearingTarget(16),
        scoring=scoring,
        c0=max(values.values()) * 1.5 if scoring is ScoringRule.UNSCORED else None,
        checker=checker,
        seed=seed,
    )
    sids = inst.station_ids()
    strategies = {
        sids[i % n]: _never_exit if r is None else _exit_at(r) for i, r in exits
    }
    expected = _outcome_or_error(reference_auction, inst, values, config, strategies)
    got = _outcome_or_error(run_auction, inst, values, config, strategies)
    if isinstance(expected, type):
        assert got is expected
        return
    assert got == expected
    assert repr(got) == repr(expected)
    log, reference = got.round_log, expected.round_log
    assert len(log) == len(reference) == got.rounds
    assert reference == log and tuple(log) == reference
    for i in range(-len(log), len(log)):
        assert log[i] == reference[i]
    for cut in (slice(None), slice(1, None), slice(None, None, 2), slice(-3, None), slice(2, 5)):
        assert type(log[cut]) is tuple
        assert log[cut] == reference[cut]


def _played_rounds(monkeypatch):
    """The round indices of the rounds ``process_bids`` plays from now on."""
    played = []
    process = auction.process_bids

    def recording(state, bids, seed, round_index):
        played.append(round_index)
        return process(state, bids, seed, round_index)

    monkeypatch.setattr(auction, "process_bids", recording)
    return played


def test_a_quiet_stretch_into_clock_zero_ends_in_the_final_resolution(monkeypatch):
    # Station 1 exits once its offer falls below 6. Station 2 is worth
    # nothing, so after that it accepts every offer down to clock zero: those
    # rounds are quiet, and the stall test must come right after them.
    inst = mk_instance([(1, {14}), (2, {15})])
    values = {1: 6.0, 2: 0.0}
    config = unscored_config(ClearingTarget(16), 10.0)
    clocks = clock_trajectory(10.0)
    exit_round = next(r for r, c in enumerate(clocks) if c < 6.0)
    horizon = len(clocks)  # the round after the first at clock zero
    played = _played_rounds(monkeypatch)
    got = run_auction(inst, values, config)
    expected = reference_auction(inst, values, config, {})
    assert got.rounds == expected.rounds == horizon
    assert got.round_log == expected.round_log
    assert [rec.round_index for rec in got.round_log if rec.final_resolution] == [horizon]
    # station 1's exit and the resolution: the rounds before the exit and
    # the ones after it are quiet, since station 2 fits beside station 1
    assert played == [exit_round, horizon]


def _criterion_5_case(k):
    inst = generate_instance(
        GeneratorParams(
            n_stations=6,
            channel_lo=14,
            channel_hi=17,
            co_channel_radius=0.4,
            adjacent_channel_radius=0.1,
            seed=400 + k,
        )
    )
    values = sample_values(
        inst,
        ValueSamplerParams(log_mean=2.5, log_sd=0.8, population_exponent=0.3, seed=40 + k),
    )
    config = AuctionConfig(
        ct=ClearingTarget(16),
        scoring=ScoringRule.UNSCORED,
        c0=max(values.values()) * 1.5,
        checker=CheckerKind.SAT,
        seed=k,
    )
    return inst, values, config


def test_only_rounds_that_can_change_the_auction_are_played(monkeypatch):
    inst, values, config = _criterion_5_case(1)
    played = _played_rounds(monkeypatch)
    participants = run_auction(inst, values, config).participants
    for strategies in ({}, *({sid: _exit_at(9)} for sid in participants)):
        played.clear()
        out = run_auction(inst, values, config, strategies)
        assert len(played) < out.rounds
        log = out.round_log
        for r in played:
            record = log[r - 1]
            holds_exit = any(b.decision == "exit" for b in record.bids)
            freezes = any(b.new_status == "frozen" for b in record.bids)
            assert holds_exit or freezes or record.final_resolution


def test_hooks_are_asked_what_the_reference_asks():
    def recorded(calls, sid, exit_round):
        def hook(round_index, offer, value):
            calls.append((sid, round_index, offer, value))
            if exit_round is not None and round_index >= exit_round:
                return BidDecision.EXIT
            return BidDecision.ACCEPT

        return hook

    inst, values, config = _criterion_5_case(2)
    first, second = run_auction(inst, values, config).participants[:2]
    for exit_rounds in ((3, None), (20, 45), (None, None), (1, 30), (52, 53)):
        asked = []
        for auction_fn in (run_auction, reference_auction):
            calls = []
            strategies = {
                sid: recorded(calls, sid, r) for sid, r in zip((first, second), exit_rounds)
            }
            auction_fn(inst, values, config, strategies)
            asked.append(calls)
        assert asked[0] == asked[1]
        assert asked[0]


def _first_untruthful_round(strategies, inst, values, config):
    """The first round in which a hooked station's answer differs from its
    truthful bid, infinity when none does before the clock reaches zero."""
    vols = volumes_for(inst, config.ct, config.scoring)
    clocks = clock_trajectory(config.initial_price())
    for r in range(1, len(clocks)):
        for sid, hook in sorted(strategies.items()):
            offer = offer_price(vols[sid], clocks[r])
            if hook(r, offer, values[sid]) is not truthful_bid(values[sid], offer):
                return r
    return math.inf


def _criterion_5_deviations(inst, values, config):
    """Every participant alone exiting at every round up to the clock's
    horizon, and never exiting, as criterion 5 runs them."""
    horizon = len(clock_trajectory(config.initial_price()))
    participants = run_auction(inst, values, config).participants
    return [
        {sid: hook}
        for sid in participants
        for hook in (*map(_exit_at, range(1, horizon + 1)), _never_exit)
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_deviations_resumed_from_the_truthful_run_match_the_reference(monkeypatch, k):
    inst, values, config = _criterion_5_case(k)
    jobs = _criterion_5_deviations(inst, values, config)
    expected = [reference_auction(inst, values, config, strategies) for strategies in jobs]
    played = _played_rounds(monkeypatch)
    cold = []
    for strategies in jobs:
        _forget_memoized_work()
        cold.append(run_auction(inst, values, config, strategies))
    warm = []
    for strategies in jobs:
        played.clear()
        warm.append(run_auction(inst, values, config, strategies))
        # the rounds before the first untruthful answer are the truthful
        # run's, so none of them is played again
        first = _first_untruthful_round(strategies, inst, values, config)
        assert min(played, default=math.inf) >= first
    packed_order = [list(out.final_assignment.items()) for out in expected]
    for outcomes in (cold, warm):
        assert outcomes == expected
        assert [list(out.final_assignment.items()) for out in outcomes] == packed_order


def test_two_hooked_stations_resume_from_the_truthful_run():
    inst, values, config = _criterion_5_case(2)
    first, second, third = run_auction(inst, values, config).participants[:3]
    rounds = (None, 1, 9, 20, 30, 52, 53)
    jobs = [
        {a: _never_exit if r is None else _exit_at(r), b: _never_exit if q is None else _exit_at(q)}
        for a, b in ((first, second), (second, third))
        for r in rounds
        for q in rounds
    ]
    _forget_memoized_work()
    for strategies in jobs:
        expected = reference_auction(inst, values, config, strategies)
        got = run_auction(inst, values, config, strategies)
        assert got == expected
        assert repr(got) == repr(expected)


class _HookFailed(Exception):
    pass


def test_a_hook_that_raises_leaves_the_truthful_run_as_it_was():
    inst, values, config = _criterion_5_case(3)
    first, second = run_auction(inst, values, config).participants[:2]

    def raising_at(r):
        def hook(round_index, offer, value):
            if round_index >= r:
                raise _HookFailed(round_index)
            return truthful_bid(value, offer)

        return hook

    _forget_memoized_work()
    # raising while the answers are still truthful, then after another
    # station left the truthful path at round 2, so on a resumed state
    for strategies in ({first: raising_at(5)}, {first: _exit_at(2), second: raising_at(12)}):
        with pytest.raises(_HookFailed):
            run_auction(inst, values, config, strategies)
        for after in ({first: _exit_at(2)}, {second: _never_exit}, {first: _exit_at(40)}):
            expected = reference_auction(inst, values, config, after)
            got = run_auction(inst, values, config, after)
            assert got == expected
            assert repr(got) == repr(expected)


def test_mutating_resumed_outcomes_cannot_change_later_auctions():
    inst, values, config = _criterion_5_case(2)
    sid = run_auction(inst, values, config).participants[0]
    jobs = [s for s in _criterion_5_deviations(inst, values, config) if sid in s]
    _forget_memoized_work()
    for strategies in jobs:
        out = run_auction(inst, values, config, strategies)
        out.final_assignment.clear()
        out.final_assignment[-1] = 99
        out.winners[-1] = 1.0
    for strategies in jobs:
        expected = reference_auction(inst, values, config, strategies)
        got = run_auction(inst, values, config, strategies)
        assert got == expected
        assert repr(got) == repr(expected)


def test_a_resumed_auction_that_ends_on_the_truthful_packed_set_hands_out_a_copy():
    # Three stations share channel 14 and conflict pairwise. Truthfully,
    # station 3 exits in round 9 after 1 and 2 accepted (seed 1's order),
    # and in round 10 station 1 exits and 2 accepts: both freeze beside
    # station 3. Station 1 accepting instead freezes all the same, so the
    # auction resumed after round 9 ends on that round's packed set.
    inst = mk_instance(
        [(1, {14}), (2, {14}), (3, {14})], [(1, 14, 2, 14), (1, 14, 3, 14), (2, 14, 3, 14)]
    )
    values = {1: 6.2, 2: 1.0, 3: 6.5}
    config = unscored_config(ClearingTarget(15), 10.0, seed=1)
    strategies = {1: _exit_at(20)}
    expected = reference_auction(inst, values, config, strategies)
    assert expected.final_assignment == {3: 14} and expected.rounds == 10
    _forget_memoized_work()
    for _ in range(2):
        got = run_auction(inst, values, config, strategies)
        assert got == expected
        got.final_assignment.clear()


def test_a_deviation_plays_on_when_the_truthful_run_raises_after_it_leaves(monkeypatch):
    inst, values, config = _criterion_5_case(1)
    truthful = run_auction(inst, values, config)
    sid = next(
        bid.station
        for record in truthful.round_log[2:]
        for bid in record.bids
        if bid.decision == "exit" and not record.final_resolution
    )
    process = auction.process_bids

    def refusing_the_truthful_exit(state, bids, seed, round_index):
        # only the truthful run has station ``sid`` exit after round 2
        if any(bid[0] == sid and bid[1] is BidDecision.EXIT for bid in bids) and round_index > 2:
            raise SearchSpaceError("refused")
        return process(state, bids, seed, round_index)

    monkeypatch.setattr(auction, "process_bids", refusing_the_truthful_exit)
    _forget_memoized_work()
    with pytest.raises(SearchSpaceError):
        run_auction(inst, values, config)
    strategies = {sid: _exit_at(2)}
    for _ in range(2):  # the failed truthful run is memoized too
        got = run_auction(inst, values, config, strategies)
        assert got == reference_auction(inst, values, config, strategies)


def test_a_value_profile_changed_between_hooked_auctions_is_not_resumed_from_the_old_run():
    inst, values, config = _criterion_5_case(1)
    participants = run_auction(inst, values, config).participants
    sid, other = participants[0], participants[-1]
    strategies = {sid: _exit_at(30)}
    _forget_memoized_work()
    assert run_auction(inst, values, config, strategies) == reference_auction(
        inst, values, config, strategies
    )
    # the same dict, changed in place: the other station now exits in round
    # 1 of the truthful run, and then it does not participate
    for value in (config.c0 * 0.99, config.c0 * 2):
        values[other] = value
        expected = reference_auction(inst, values, config, strategies)
        got = run_auction(inst, values, config, strategies)
        assert got == expected
        assert repr(got) == repr(expected)


def _fits(problem):
    """Whether the target has a reduced-band channel that clashes with no
    packed station where it stands."""
    clashes = set()
    for con in problem.inst.constraints:
        clashes.add((con.first, con.second))
        clashes.add((con.second, con.first))
    packed = problem.packed.items()
    return any(
        all(((problem.target, ch), pair) not in clashes for pair in packed)
        for ch in problem.ct.reduced(problem.inst.station(problem.target).domain)
    )


def test_exhaustive_enumeration_runs_only_for_exits_and_stations_that_do_not_fit(monkeypatch):
    asking = []  # whether the check in progress is an accepting bid's
    runs = []  # (accepting, fits) of each enumeration run for a bid
    check, enumerate_ = AuctionState.check, auction.check_exhaustive

    def recording_check(state, sid, accepting=False):
        asking.append(accepting)
        try:
            return check(state, sid, accepting)
        finally:
            asking.pop()

    def counting(problem):
        if asking:  # not the initial packing
            runs.append((asking[-1], _fits(problem)))
        return enumerate_(problem)

    monkeypatch.setattr(AuctionState, "check", recording_check)
    monkeypatch.setattr(auction, "check_exhaustive", counting)
    _forget_memoized_work()
    for k in range(4):
        inst, values, config = _criterion_5_case(k)
        config = dataclasses.replace(config, checker=CheckerKind.EXHAUSTIVE)
        assert run_auction(inst, values, config) == reference_auction(inst, values, config, {})
    assert (True, True) not in runs
    # both kinds of run that remain happen
    assert (False, True) in runs and (True, False) in runs


def _grid_sized_case():
    """A draw of the directional grid's size and generator settings."""
    inst = generate_instance(
        GeneratorParams(
            n_stations=31,
            channel_lo=14,
            channel_hi=17,
            co_channel_radius=0.26,
            adjacent_channel_radius=0.065,
            seed=1001,
        )
    )
    values = sample_values(
        inst,
        ValueSamplerParams(log_mean=8.0, log_sd=1.0, population_exponent=0.7, seed=20_013),
    )
    return inst, values, AuctionConfig(ct=ClearingTarget(17), seed=1001)


@pytest.mark.parametrize("checker", [CheckerKind.GREEDY, CheckerKind.SAT])
@pytest.mark.parametrize(
    "case", [lambda: _criterion_5_case(1), _grid_sized_case], ids=["criterion-5", "grid"]
)
def test_accepting_checks_build_a_problem_only_for_a_checker_run(monkeypatch, case, checker):
    asking = []  # per check in progress: its counts if it is an accepting bid's
    calls = []  # per accepting check: (problems built, checker runs, fits)
    check, run_checker = AuctionState.check, auction._run_checker
    problem = auction.FeasibilityProblem

    def recording_check(state, sid, accepting=False):
        asking.append([0, 0] if accepting else None)
        try:
            verdict = check(state, sid, accepting)
        finally:
            counts = asking.pop()
        if counts is not None:
            calls.append((*counts, verdict is auction._FITS))
        return verdict

    def counting(counter, fn):
        def counted(*args):
            if asking and asking[-1] is not None:
                asking[-1][counter] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(AuctionState, "check", recording_check)
    monkeypatch.setattr(auction, "FeasibilityProblem", counting(0, problem))
    monkeypatch.setattr(auction, "_run_checker", counting(1, run_checker))
    inst, values, config = case()
    config = dataclasses.replace(config, checker=checker)
    _forget_memoized_work()
    got = run_auction(inst, values, config)
    expected = reference_auction(inst, values, config, {})
    assert got == expected
    assert repr(got) == repr(expected)
    assert any(fits for _, _, fits in calls)
    # an accept builds a problem only for the checker it runs: never when
    # the station fits, and never under greedy
    assert all(built == runs for built, runs, _ in calls)
    assert not any(built for built, _, fits in calls if fits)
    if checker is CheckerKind.GREEDY:
        assert sum(built for built, _, _ in calls) == 0
    else:  # SAT searches for an accept that does not fit
        assert any(runs for _, runs, _ in calls)


def test_an_exit_replaces_a_fits_marker_another_auction_left():
    # Station 2 stays on air on channel 14; station 1 fits beside it on 15,
    # but the lexicographically first packing moves station 2 to 15.
    inst = mk_instance(
        [(1, {14, 15}), (2, {14, 15}), (3, {16})],
        [(1, 14, 2, 14), (1, 15, 2, 15)],
    )
    config = unscored_config(ClearingTarget(17), 10.0, CheckerKind.EXHAUSTIVE)
    values = {1: 0.0, 2: 10.0, 3: 6.0}
    _forget_memoized_work()
    # truthfully, station 1 accepts beside {2: 14} until station 3 exits
    # beside it, so a hook that never exits gets the truthful run's outcome
    truthful = {1: _never_exit}
    got = run_auction(inst, values, config, truthful)
    assert got == reference_auction(inst, values, config, truthful)
    assert auction._TRUTHFUL_RUN[0].tables[((2, 14),)][1] is auction._FITS
    # station 1 exits beside {2: 14}, where the truthful run left the marker
    deviation = {1: _exit_at(1)}
    got = run_auction(inst, values, config, deviation)
    assert got == reference_auction(inst, values, config, deviation)
    assert got.final_assignment == {1: 14, 2: 15, 3: 16}


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
                expected = reference_order(bids, seed, round_index)
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


# ------------------------------------------------------- round log

# ``repr`` of the round log of ``_logged_auction`` under the SAT checker,
# computed before the round log became named tuples. Station 3 has no channel
# below ``bar_c`` and freezes at once, station 1 exits when its offer falls
# below 6, which freezes station 2, and station 4 rides to clock zero and
# exits in the final resolution.
PINNED_ROUND_LOG = (
    '(RoundRecord(round_index=1, clock=9.5, bids=('
    "ProcessedBid(station=2, decision='accept', price_reduction=0.5, offer=9.5, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.5, offer=9.5, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=1, decision='accept', price_reduction=0.5, offer=9.5, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=3, decision='accept', price_reduction=0.5, offer=9.5, verdict='infeasible', new_status='frozen', payment=10.0)), final_resolution=False), "
    'RoundRecord(round_index=2, clock=9.025, bids=('
    "ProcessedBid(station=2, decision='accept', price_reduction=0.47499999999999964, offer=9.025, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.47499999999999964, offer=9.025, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=1, decision='accept', price_reduction=0.47499999999999964, offer=9.025, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=3, clock=8.57375, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.45124999999999993, offer=8.57375, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=1, decision='accept', price_reduction=0.45124999999999993, offer=8.57375, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=2, decision='accept', price_reduction=0.45124999999999993, offer=8.57375, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=4, clock=8.1450625, bids=('
    "ProcessedBid(station=2, decision='accept', price_reduction=0.42868750000000055, offer=8.1450625, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=1, decision='accept', price_reduction=0.42868750000000055, offer=8.1450625, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.42868750000000055, offer=8.1450625, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=5, clock=7.737809374999999, bids=('
    "ProcessedBid(station=1, decision='accept', price_reduction=0.40725312500000044, offer=7.737809374999999, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=2, decision='accept', price_reduction=0.40725312500000044, offer=7.737809374999999, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.40725312500000044, offer=7.737809374999999, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=6, clock=7.3509189062499996, bids=('
    "ProcessedBid(station=1, decision='accept', price_reduction=0.3868904687499999, offer=7.3509189062499996, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=2, decision='accept', price_reduction=0.3868904687499999, offer=7.3509189062499996, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.3868904687499999, offer=7.3509189062499996, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=7, clock=6.9833729609374995, bids=('
    "ProcessedBid(station=2, decision='accept', price_reduction=0.36754594531250007, offer=6.9833729609374995, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.36754594531250007, offer=6.9833729609374995, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=1, decision='accept', price_reduction=0.36754594531250007, offer=6.9833729609374995, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=8, clock=6.634204312890624, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.3491686480468754, offer=6.634204312890624, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=2, decision='accept', price_reduction=0.3491686480468754, offer=6.634204312890624, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=1, decision='accept', price_reduction=0.3491686480468754, offer=6.634204312890624, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=9, clock=6.302494097246093, bids=('
    "ProcessedBid(station=2, decision='accept', price_reduction=0.33171021564453085, offer=6.302494097246093, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.33171021564453085, offer=6.302494097246093, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=1, decision='accept', price_reduction=0.33171021564453085, offer=6.302494097246093, verdict='feasible', new_status='active', payment=None)), final_resolution=False), "
    'RoundRecord(round_index=10, clock=5.987369392383789, bids=('
    "ProcessedBid(station=1, decision='exit', price_reduction=0.3151247048623045, offer=5.987369392383789, verdict='feasible', new_status='exited', payment=None), "
    "ProcessedBid(station=4, decision='accept', price_reduction=0.3151247048623045, offer=5.987369392383789, verdict='feasible', new_status='active', payment=None), "
    "ProcessedBid(station=2, decision='accept', price_reduction=0.3151247048623045, offer=5.987369392383789, verdict='infeasible', new_status='frozen', payment=6.302494097246093)), final_resolution=False), "
    'RoundRecord(round_index=11, clock=5.6880009227646, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.29936846961918917, offer=5.6880009227646, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=12, clock=5.40360087662637, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.2844000461382299, offer=5.40360087662637, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=13, clock=5.133420832795051, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.2701800438313189, offer=5.133420832795051, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=14, clock=4.876749791155298, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.25667104163975285, offer=4.876749791155298, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=15, clock=4.632912301597533, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.24383748955776507, offer=4.632912301597533, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=16, clock=4.401266686517657, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.23164561507987624, offer=4.401266686517657, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=17, clock=4.1812033521917735, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.2200633343258831, offer=4.1812033521917735, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=18, clock=3.972143184582185, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.20906016760958845, offer=3.972143184582185, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=19, clock=3.7735360253530756, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.19860715922910943, offer=3.7735360253530756, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=20, clock=3.584859224085422, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.18867680126765363, offer=3.584859224085422, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=21, clock=3.405616262881151, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.1792429612042712, offer=3.405616262881151, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=22, clock=3.2353354497370934, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.1702808131440574, offer=3.2353354497370934, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=23, clock=3.073568677250239, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.16176677248685456, offer=3.073568677250239, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=24, clock=2.919890243387727, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.1536784338625119, offer=2.919890243387727, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=25, clock=2.7738957312183405, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.14599451216938641, offer=2.7738957312183405, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=26, clock=2.6352009446574236, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.13869478656091694, offer=2.6352009446574236, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=27, clock=2.5034408974245523, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.13176004723287127, offer=2.5034408974245523, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=28, clock=2.3782688525533247, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.12517204487122768, offer=2.3782688525533247, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=29, clock=2.2593554099256585, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.11891344262766612, offer=2.2593554099256585, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=30, clock=2.1463876394293755, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.11296777049628304, offer=2.1463876394293755, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=31, clock=2.039068257457907, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10731938197146862, offer=2.039068257457907, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=32, clock=1.9371148445850115, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10195341287289539, offer=1.9371148445850115, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=33, clock=1.8371148445850114, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.8371148445850114, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=34, clock=1.7371148445850113, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.7371148445850113, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=35, clock=1.6371148445850112, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.6371148445850112, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=36, clock=1.5371148445850111, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.5371148445850111, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=37, clock=1.437114844585011, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.437114844585011, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=38, clock=1.337114844585011, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.337114844585011, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=39, clock=1.2371148445850109, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.2371148445850109, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=40, clock=1.1371148445850108, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.1371148445850108, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=41, clock=1.0371148445850107, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.10000000000000009, offer=1.0371148445850107, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=42, clock=0.9371148445850107, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.09999999999999998, offer=0.9371148445850107, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=43, clock=0.8371148445850107, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.09999999999999998, offer=0.8371148445850107, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=44, clock=0.7371148445850108, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.09999999999999998, offer=0.7371148445850108, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=45, clock=0.6371148445850108, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.09999999999999998, offer=0.6371148445850108, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=46, clock=0.5371148445850108, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.09999999999999998, offer=0.5371148445850108, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=47, clock=0.4371148445850108, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.09999999999999998, offer=0.4371148445850108, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=48, clock=0.33711484458501084, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.09999999999999998, offer=0.33711484458501084, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=49, clock=0.23711484458501084, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.1, offer=0.23711484458501084, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=50, clock=0.13711484458501083, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.1, offer=0.13711484458501083, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=51, clock=0.037114844585010826, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.1, offer=0.037114844585010826, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=52, clock=0.0, bids=('
    "ProcessedBid(station=4, decision='accept', price_reduction=0.037114844585010826, offer=0.0, verdict='feasible', new_status='active', payment=None),), final_resolution=False), "
    'RoundRecord(round_index=53, clock=0.0, bids=('
    "ProcessedBid(station=4, decision='exit', price_reduction=0.0, offer=0.0, verdict='feasible', new_status='exited', payment=None),), final_resolution=True))"
)


def _logged_auction(checker):
    inst = mk_instance(
        [(1, {14}), (2, {14}), (3, {20}), (4, {15})],
        [(1, 14, 2, 14)],
        universe=(14, 15, 20),
    )
    values = {1: 6.0, 2: 3.0, 3: 1.0, 4: 0.0}
    return run_auction(inst, values, unscored_config(ClearingTarget(16), 10.0, checker))


def test_round_log_repr_is_pinned():
    _forget_memoized_work()
    assert repr(_logged_auction(CheckerKind.SAT).round_log) == PINNED_ROUND_LOG
    # greedy never proves infeasibility: the same freezes are timeouts
    greedy = _logged_auction(CheckerKind.GREEDY)
    assert repr(greedy.round_log) == PINNED_ROUND_LOG.replace("'infeasible'", "'timeout'")
    assert greedy.checker_timeout_count == 2


def test_round_log_records_are_immutable():
    bid = ProcessedBid(1, "accept", 0.5, 9.5, "feasible", "active")
    record = RoundRecord(1, 9.5, (bid,))
    assert bid.payment is None and record.final_resolution is False
    for obj, name in ((bid, "payment"), (bid, "station"), (record, "bids"), (record, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_round_log_records_keep_their_types(monkeypatch):
    # A plain tuple equals the named tuple with the same fields, so the
    # comparisons against the reference auction cannot catch a played round
    # whose rows were never wrapped.
    _forget_memoized_work()
    played = _played_rounds(monkeypatch)
    log = _logged_auction(CheckerKind.SAT).round_log
    indices = [rec.round_index for rec in log]
    final = [rec.round_index for rec in log if rec.final_resolution]
    # played rounds, skipped ones and a final resolution that was played
    assert played and set(indices) - set(played)
    assert final == [indices[-1]] and final[0] in played
    for rec in log:
        assert type(rec) is RoundRecord
        assert type(rec.bids) is tuple and rec.bids
        assert all(type(bid) is ProcessedBid for bid in rec.bids)


@pytest.mark.parametrize("accepted", [4.0, math.nan], ids=["negative", "nan"])
def test_round_bids_reject_a_price_reduction_that_is_not_non_negative(accepted):
    # station 1's offer at clock 5 is 5.0: above a last accepted price of 4
    for decided, values in (({1: BidDecision.ACCEPT}, None), ({}, {1: 0.0})):
        with pytest.raises(ValueError, match="^price reduction must be non-negative$"):
            auction._round_bids([1], {1: 1.0}, {1: accepted}, 5.0, decided, values)


def test_bid_rejects_a_negative_price_reduction():
    # the reference auction's Bid refuses what the round loop refuses
    with pytest.raises(ValueError, match="non-negative"):
        Bid(1, BidDecision.ACCEPT, price_reduction=-1.0, offer=5.0)


def test_bid_rejects_a_price_reduction_that_is_not_a_number():
    with pytest.raises(ValueError, match="non-negative"):
        Bid(1, BidDecision.ACCEPT, price_reduction=math.nan, offer=5.0)
    assert Bid(1, BidDecision.ACCEPT, 0.5, 5.0) == (1, BidDecision.ACCEPT, 0.5, 5.0)
