"""Scoring rules, station volumes, and the descending base clock.

A station's price offer in any round is its volume times the shared base
clock, so the scoring rule fixes relative prices for the whole auction.
Volumes are computed once up front and never change; a
:data:`VolumeTable` maps each station to its volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .model import ClearingTarget, Instance, StationId

#: The regulator-style rule rescales volumes so the largest is exactly this.
MAX_SCORED_VOLUME = 1_000_000.0

#: Default opening base clock per scoring rule, in dollars per unit volume.
DEFAULT_C0_FCC = 900.0
DEFAULT_C0_UNSCORED = 900_000_000.0


class ScoringRule(str, Enum):
    FCC = "fcc"
    UNSCORED = "unscored"


class DegenerateInstanceError(ValueError):
    """Every station has zero interference-population weight, so scored
    volumes cannot be normalized."""


#: Volume of each station. A station whose raw weight is zero gets volume
#: zero and can never face a positive offer.
VolumeTable = dict[StationId, float]


def fcc_volumes(inst: Instance, ct: ClearingTarget) -> VolumeTable:
    """Volume(s) = A * sqrt(interference(s)) * sqrt(population(s)), with A
    chosen so the maximum volume is exactly one million (to one ulp), where
    interference(s) counts the constraints on s within the reduced band,
    read from s's row of the instance's channel table."""
    raw = {}
    for st, row in zip(inst.stations, inst.channel_table(ct)):
        # a constraint between two channels of one station counts once
        count = 0
        for ch, _, partners, _ in row:
            count += sum(osid != st.id or och > ch for osid, och in partners)
        raw[st.id] = math.sqrt(count) * math.sqrt(st.population)
    max_raw = max(raw.values(), default=0.0)
    if max_raw <= 0.0:
        raise DegenerateInstanceError(
            "no station has a positive interference-population weight"
        )
    scaling = MAX_SCORED_VOLUME / max_raw
    return {sid: scaling * r for sid, r in raw.items()}


def unscored_volumes(inst: Instance) -> VolumeTable:
    """Every station gets volume one, so offers equal the base clock."""
    return {s.id: 1.0 for s in inst.stations}


def volumes_for(inst: Instance, ct: ClearingTarget, rule: ScoringRule) -> VolumeTable:
    """The volumes of ``rule``, in a dict of the caller's own. Scored
    volumes are computed once per instance and target and kept in its
    :meth:`~repacksim.model.Instance.derived` memo."""
    # a plain string becomes its member, as the rules compare by identity
    if ScoringRule(rule) is ScoringRule.FCC:
        memo = inst.derived(ct)
        vols = memo.get("fcc_volumes")
        if vols is None:
            vols = memo["fcc_volumes"] = fcc_volumes(inst, ct)
        return dict(vols)
    return unscored_volumes(inst)


def default_initial_clock_price(rule: ScoringRule) -> float:
    return DEFAULT_C0_FCC if ScoringRule(rule) is ScoringRule.FCC else DEFAULT_C0_UNSCORED


@dataclass(frozen=True)
class ClockState:
    """Shared descending price level: the initial price, the current price,
    and the round index. Building one checks all three."""

    c0: float
    current: float
    round_index: int = 0

    def __post_init__(self) -> None:
        if self.c0 <= 0:
            raise ValueError("initial clock price must be positive")
        if not 0 <= self.current <= self.c0:
            raise ValueError("clock must stay within [0, c0]")
        if self.round_index < 0:
            raise ValueError("round index must be non-negative")


def initial_clock(c0: float) -> ClockState:
    return ClockState(c0, c0, 0)


def decrement(c_prev: float, c0: float) -> float:
    """Per-round decrement: the larger of 5% of the previous clock and 1% of
    the initial clock."""
    return max(0.05 * c_prev, 0.01 * c0)


def next_clock(state: ClockState) -> ClockState:
    """Advance one round. The raw rule would eventually go negative, so the
    clock clamps at zero, which also guarantees termination. A clock the rule
    cannot lower, because its decrement rounds to nothing (a subnormal
    ``c0``), drops to zero at once."""
    lowered = max(0.0, state.current - decrement(state.current, state.c0))
    if lowered == state.current:
        lowered = 0.0
    return ClockState(state.c0, lowered, state.round_index + 1)


@lru_cache(maxsize=64)
def clock_trajectory(c0: float) -> tuple[float, ...]:
    """The base clock of every round from ``c0`` to the first round at zero:
    entry ``r`` is the clock of round ``r``, entry 0 is ``c0``. Memoized per
    ``c0``; auctions on one opening price share it."""
    clock = initial_clock(c0)
    clocks = [clock.current]
    while clock.current > 0.0:
        clock = next_clock(clock)
        clocks.append(clock.current)
    return tuple(clocks)


def offer_price(volume: float, clock: float) -> float:
    """Dollar offer for a station: its volume times the base clock, refusing
    a negative volume or clock. In the package only
    ``auction.determine_participants`` calls it, on every station's volume
    at the opening price; the auction's rounds then multiply the same
    volumes by the clock trajectory, which never goes below zero, so they
    read each offer as ``volume * clock`` without the check."""
    if volume < 0 or clock < 0:
        raise ValueError("volume and clock must be non-negative")
    return volume * clock
