import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim.model import ClearingTarget
from repacksim.pricing import (
    DegenerateInstanceError,
    MAX_SCORED_VOLUME,
    ClockState,
    ScoringRule,
    decrement,
    default_initial_clock_price,
    fcc_volumes,
    initial_clock,
    next_clock,
    offer_price,
    unscored_volumes,
    volumes_for,
)

from conftest import mk_instance


def within_one_ulp(x, target):
    return abs(x - target) <= math.ulp(target)


def test_single_station_volume_is_exactly_the_max():
    inst = mk_instance(
        [(1, {14}, 123_456, 14), (2, {14}, 0, 14)],
        [(1, 14, 2, 14)],
    )
    table = fcc_volumes(inst, ClearingTarget(15))
    assert table[1] == MAX_SCORED_VOLUME
    # population zero gives a zero weight, priced at volume zero
    assert table[2] == 0.0


def test_volume_ratio_hand_example():
    # station 1: 4 constraints and population 1e6 -> raw 2000
    # station 2: 1 constraint and population 250_000 -> raw 500
    # station 3 exists to absorb the extra constraints
    inst = mk_instance(
        [(1, {14, 15, 16}, 1_000_000, 14), (2, {14}, 250_000, 14), (3, {14, 15, 16}, 1, 14)],
        [
            (1, 14, 2, 14),
            (1, 14, 3, 15),
            (1, 15, 3, 14),
            (1, 16, 3, 16),
        ],
    )
    table = fcc_volumes(inst, ClearingTarget(17))
    assert table[1] == 1_000_000.0
    assert table[2] == 250_000.0


def test_a_constraint_within_one_station_counts_once():
    # station 1: one constraint with itself and one with station 2 -> 2
    # station 2: one constraint -> 1
    inst = mk_instance(
        [(1, {14, 15}, 100, 14), (2, {14}, 100, 14)],
        [(1, 14, 1, 15), (1, 14, 2, 14)],
    )
    table = fcc_volumes(inst, ClearingTarget(16))
    assert within_one_ulp(table[1], MAX_SCORED_VOLUME)
    assert table[2] == pytest.approx(MAX_SCORED_VOLUME / math.sqrt(2))
    # above the target the within-station constraint no longer counts
    table = fcc_volumes(inst, ClearingTarget(15))
    assert table[1] == table[2]


def test_constraints_above_target_do_not_count():
    inst = mk_instance(
        [(1, {14, 20}, 100, 14), (2, {14, 20}, 100, 14)],
        [(1, 14, 2, 14), (1, 20, 2, 20)],
        universe=(14, 20),
    )
    counted = fcc_volumes(inst, ClearingTarget(15))
    assert within_one_ulp(counted[1], MAX_SCORED_VOLUME)
    assert within_one_ulp(counted[2], MAX_SCORED_VOLUME)
    with pytest.raises(DegenerateInstanceError):
        # bar_c=14 leaves no countable constraint at all
        fcc_volumes(inst, ClearingTarget(14))


@given(st.integers(min_value=1, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_max_volume_is_one_million_on_generated_instances(seed):
    from repacksim.instances import GeneratorParams, generate_instance

    inst = generate_instance(
        GeneratorParams(n_stations=8, co_channel_radius=0.6, seed=seed)
    )
    ct = ClearingTarget(19)
    try:
        table = fcc_volumes(inst, ct)
    except DegenerateInstanceError:
        return
    assert within_one_ulp(max(table.values()), MAX_SCORED_VOLUME)
    assert all(v >= 0 for v in table.values())


def test_unscored_volumes_all_one():
    inst = mk_instance([(1, {14}), (2, {14})])
    table = unscored_volumes(inst)
    assert set(table.values()) == {1.0}
    assert volumes_for(inst, ClearingTarget(15), ScoringRule.UNSCORED) == table


def test_decrement_examples():
    assert decrement(900.0, 900.0) == 45.0
    assert decrement(10.0, 900.0) == 9.0
    assert decrement(0.0, 900.0) == 9.0


def test_next_clock_examples():
    c = initial_clock(900.0)
    c = next_clock(c)
    assert c.current == 855.0 and c.round_index == 1
    low = ClockState(900.0, 5.0, 40)
    clamped = next_clock(low)
    assert clamped.current == 0.0
    frozen = next_clock(clamped)
    assert frozen.current == 0.0  # absorbing floor
    assert type(frozen) is ClockState and frozen == ClockState(900.0, 0.0, 42)


def test_clock_state_checks_its_fields():
    for fields in ((0.0, 0.0), (900.0, 900.5), (900.0, -1.0), (900.0, 5.0, -1)):
        with pytest.raises(ValueError):
            ClockState(*fields)
    with pytest.raises(ValueError):
        initial_clock(-5.0)


def test_offer_price_examples():
    assert offer_price(1_000_000.0, 900.0) == 900_000_000.0
    assert offer_price(123.0, 0.0) == 0.0
    assert offer_price(250_000.0, 855.0) == 213_750_000.0
    with pytest.raises(ValueError):
        offer_price(-1.0, 10.0)


def test_default_opening_prices():
    assert default_initial_clock_price(ScoringRule.FCC) == 900.0
    assert default_initial_clock_price(ScoringRule.UNSCORED) == 900_000_000.0


def test_a_plain_string_rule_is_the_rule_it_names():
    # The rules compare by identity, so "fcc" once fell through to the
    # unscored volumes and the unscored opening price.
    inst = mk_instance([(1, {14}, 4, 14), (2, {14}, 9, 14)], [(1, 14, 2, 14)])
    ct = ClearingTarget(15)
    for rule in ScoringRule:
        assert volumes_for(inst, ct, rule.value) == volumes_for(inst, ct, rule)
        assert default_initial_clock_price(rule.value) == default_initial_clock_price(rule)
    assert volumes_for(inst, ct, "fcc") != unscored_volumes(inst)
    for junk in ("FCC", "scored"):
        with pytest.raises(ValueError, match=repr(junk)):
            volumes_for(inst, ct, junk)
        with pytest.raises(ValueError, match=repr(junk)):
            default_initial_clock_price(junk)


@given(st.floats(min_value=1e-6, max_value=1e10))
@settings(max_examples=60, deadline=None)
def test_clock_reaches_exactly_zero_fast(c0):
    c = initial_clock(c0)
    seen = [c.current]
    for _ in range(130):
        c = next_clock(c)
        seen.append(c.current)
        if c.current == 0.0:
            break
    assert c.current == 0.0
    # non-increasing path
    assert all(a >= b for a, b in zip(seen, seen[1:]))
    # 5% phase lasts at most ~32 rounds, floor phase at most 20 more
    assert c.round_index <= 120


def test_subnormal_clock_still_falls_to_zero():
    # 5 % of the clock and 1 % of c0 both round to 0.0 here
    assert decrement(5e-324, 5e-324) == 0.0
    c = initial_clock(5e-324)
    for _ in range(10):
        c = next_clock(c)
        if c.current == 0.0:
            break
    assert c.current == 0.0 and c.round_index == 1


@given(st.floats(min_value=1e-300, max_value=1e10))
@settings(max_examples=100, deadline=None)
def test_clock_follows_the_raw_rule_from_a_normal_c0(c0):
    c = initial_clock(c0)
    raw = c0
    while raw > 0.0:
        raw = max(0.0, raw - max(0.05 * raw, 0.01 * c0))
        c = next_clock(c)
        assert c.current == raw


@given(st.floats(min_value=0.0, max_value=1e9), st.floats(min_value=1e-3, max_value=1e10))
@settings(max_examples=60, deadline=None)
def test_offer_paths_non_increasing(volume, c0):
    c = initial_clock(c0)
    previous = offer_price(volume, c.current)
    for _ in range(40):
        c = next_clock(c)
        current = offer_price(volume, c.current)
        assert current <= previous
        previous = current
