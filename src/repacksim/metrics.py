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


def _ratio(numerator: float, denominator: float, what: str) -> float:
    """``numerator / denominator`` for non-negative ``what``: 0/0 is a perfect
    outcome and maps to 1.0, and a positive amount over zero to infinity."""
    if numerator < 0 or denominator < 0:
        raise ValueError(f"{what} must be non-negative")
    if denominator > 0:
        return numerator / denominator
    return 1.0 if numerator == 0 else math.inf


def value_loss_ratio(auction_loss: float, optimal_loss: float) -> float:
    """Auction loss over optimal loss, by :func:`_ratio`; a loss below a
    positive optimum beyond rounding raises :class:`ValueLossConsistencyError`."""
    ratio = _ratio(auction_loss, optimal_loss, "losses")
    if auction_loss < optimal_loss * (1.0 - LOSS_CONSISTENCY_TOLERANCE):
        raise ValueLossConsistencyError(
            f"auction loss {auction_loss} fell below the optimal loss "
            f"{optimal_loss}; the optimum oracle is inconsistent"
        )
    return ratio


def cost(payments: Mapping[StationId, float]) -> float:
    """Total paid to winners, in station order."""
    return station_sum(payments, payments)


def cost_fraction(cost_auction: float, cost_benchmark: float) -> float:
    """Auction cost over benchmark cost, by :func:`_ratio`."""
    return _ratio(cost_auction, cost_benchmark, "costs")


def compare(
    outcome: AuctionOutcome, benchmark: VcgOutcome, values: ValueProfile
) -> ComparisonRecord:
    """One comparison row: the auction outcome against the exact benchmark
    computed over the same participant set."""
    auction_loss = value_loss(outcome.winners, values)
    optimal_loss = value_loss(benchmark.winners, values)
    cost_auction = cost(outcome.winners)
    cost_vcg = cost(benchmark.prices)
    return ComparisonRecord(
        value_loss_auction=auction_loss,
        value_loss_optimal=optimal_loss,
        value_loss_ratio=value_loss_ratio(auction_loss, optimal_loss),
        cost_auction=cost_auction,
        cost_vcg=cost_vcg,
        cost_fraction=cost_fraction(cost_auction, cost_vcg),
        checker_timeout_count=outcome.checker_timeout_count,
        rounds=outcome.rounds,
    )
