import math

import pytest

from repacksim.auction import AuctionConfig, CheckerKind, run_auction
from repacksim.metrics import (
    ComparisonRecord,
    ValueLossConsistencyError,
    compare,
    cost,
    cost_fraction,
    value_loss,
    value_loss_ratio,
)
from repacksim.pricing import ScoringRule
from repacksim.vcg import vcg_outcome


def test_value_loss_examples():
    assert value_loss([], {}) == 0.0
    assert value_loss([1], {1: 3.0}) == 3.0
    assert value_loss([1, 2], {1: 3.0, 2: 7.5}) == 10.5


def test_value_loss_ratio_examples():
    assert value_loss_ratio(10.0, 10.0) == 1.0
    assert value_loss_ratio(10.5, 10.0) == 1.05
    assert value_loss_ratio(0.0, 0.0) == 1.0
    assert value_loss_ratio(3.0, 0.0) == math.inf
    with pytest.raises(ValueLossConsistencyError):
        value_loss_ratio(5.0, 10.0)
    with pytest.raises(ValueError):
        value_loss_ratio(-1.0, 2.0)
    # rounding slack below the optimum is tolerated
    assert value_loss_ratio(10.0 * (1 - 1e-9), 10.0) < 1.0


def test_cost_examples():
    assert cost({}) == 0.0
    assert cost({1: 5.0}) == 5.0
    assert cost({1: 213_750_000.0, 2: 900.0}) == 213_750_900.0


def test_totals_are_winner_order_invariant():
    values = {1: 0.1, 2: 0.2, 3: 0.7}
    assert value_loss([3, 1, 2], values) == value_loss([1, 2, 3], values)
    payments = {1: 0.1, 2: 0.2, 3: 0.7}
    reversed_payments = dict(reversed(list(payments.items())))
    assert cost(payments) == cost(reversed_payments)


def test_cost_fraction_conventions():
    assert cost_fraction(5.0, 10.0) == 0.5
    assert cost_fraction(0.0, 0.0) == 1.0
    assert cost_fraction(2.0, 0.0) == math.inf


def test_compare_end_to_end(triangle_one_channel):
    inst, ct = triangle_one_channel
    values = {1: 5.0, 2: 3.0, 3: 2.0}
    cfg = AuctionConfig(
        ct=ct, scoring=ScoringRule.UNSCORED, c0=10.0, checker=CheckerKind.SAT, seed=1
    )
    outcome = run_auction(inst, values, cfg)
    benchmark = vcg_outcome(inst, values, outcome.participants, outcome.non_participants, ct)
    record = compare(outcome, benchmark, values)
    assert record.value_loss_optimal == 5.0
    assert record.value_loss_auction >= record.value_loss_optimal * (1 - 1e-9)
    assert record.value_loss_ratio >= 1.0 - 1e-9
    assert record.cost_vcg == 10.0
    assert record.rounds == outcome.rounds
