"""Efficiency and cost measures comparing auction outcomes to the exact
benchmark.

Efficiency is measured as value lost: the total value of the stations bought
off the air. Dividing an outcome's loss by the optimal loss over the same
participant set gives a ratio that is weakly above one whenever the optimum
really is optimal; a violation beyond rounding signals a broken oracle and is
raised, not reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .auction import AuctionOutcome
from .model import StationId, ValueProfile, station_sum
from .vcg import VcgOutcome

#: Relative slack allowed before an auction loss below the optimal loss is
#: treated as an internal error.
LOSS_CONSISTENCY_TOLERANCE = 1e-6


class ValueLossConsistencyError(RuntimeError):
    """The supposedly optimal loss exceeded the auction's loss by more than
    rounding slack."""


@dataclass(frozen=True)
class ComparisonRecord:
    value_loss_auction: float
    value_loss_optimal: float
    value_loss_ratio: float
    cost_auction: float
    cost_vcg: float
    cost_fraction: float
    checker_timeout_count: int
    rounds: int


def value_loss(winners: Iterable[StationId], values: ValueProfile) -> float:
    """Total value of the stations that go off air, in station order."""
    return station_sum(values, winners)


def value_loss_ratio(auction_loss: float, optimal_loss: float) -> float:
    """Auction loss over optimal loss. Both zero is a perfect outcome and maps
    to 1.0; positive loss against a zero optimum is reported as infinity."""
    if auction_loss < 0 or optimal_loss < 0:
        raise ValueError("losses must be non-negative")
    if optimal_loss > 0:
        if auction_loss < optimal_loss * (1.0 - LOSS_CONSISTENCY_TOLERANCE):
            raise ValueLossConsistencyError(
                f"auction loss {auction_loss} fell below the optimal loss "
                f"{optimal_loss}; the optimum oracle is inconsistent"
            )
        return auction_loss / optimal_loss
    if auction_loss == 0:
        return 1.0
    return math.inf


def cost(payments: Mapping[StationId, float]) -> float:
    """Total paid to winners, in station order."""
    return station_sum(payments, payments)


def cost_fraction(cost_auction: float, cost_benchmark: float) -> float:
    """Auction cost over benchmark cost, with the same zero conventions as
    the value loss ratio."""
    if cost_auction < 0 or cost_benchmark < 0:
        raise ValueError("costs must be non-negative")
    if cost_benchmark > 0:
        return cost_auction / cost_benchmark
    return 1.0 if cost_auction == 0 else math.inf



def compare(
    outcome: AuctionOutcome, benchmark: VcgOutcome, values: ValueProfile
) -> ComparisonRecord:
    """One comparison row: the auction outcome against the exact benchmark
    computed over the same participant set."""
    auction_loss = value_loss(outcome.winners, values)
    optimal_loss = value_loss(benchmark.winners, values)
    return ComparisonRecord(
        value_loss_auction=auction_loss,
        value_loss_optimal=optimal_loss,
        value_loss_ratio=value_loss_ratio(auction_loss, optimal_loss),
        cost_auction=cost(outcome.winners),
        cost_vcg=cost(benchmark.prices),
        cost_fraction=cost_fraction(cost(outcome.winners), cost(benchmark.prices)),
        checker_timeout_count=outcome.checker_timeout_count,
        rounds=outcome.rounds,
    )
