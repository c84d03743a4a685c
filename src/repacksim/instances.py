"""Instance and value-profile files, synthetic instance generation, and seeded
value sampling.

Instance file format (UTF-8, line oriented, ``#`` starts a comment):

    CHANNELS <lo> <hi>
    STATION <id> <pre_auction_channel> <population> <c1,c2,...>
    CONSTRAINT <s1> <c1> <s2> <c2>

Serialization is canonical: the CHANNELS line first, stations ascending by id,
then constraints in canonical order. A value profile file holds one
``<station id> <value>`` pair per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Channel,
    Instance,
    InterferenceConstraint,
    Station,
    StationId,
    ValueProfile,
)

# Stream tags keep per-station random draws independent between uses of the
# same master seed.
_STATION_STREAM = 1
_VALUE_STREAM = 2

_POPULATION_LO = 10_000
_POPULATION_HI = 10_000_000


class ParseError(ValueError):
    """A file failed to parse; the message carries the offending line number."""


@dataclass(frozen=True)
class GeneratorParams:
    """Geometric instance generator: stations drop uniformly into the unit
    square and nearby pairs become forbidden on shared or adjacent channels."""

    n_stations: int
    channel_lo: Channel = 14
    channel_hi: Channel = 20
    co_channel_radius: float = 0.25
    adjacent_channel_radius: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_stations < 0:
            raise ValueError("n_stations must be non-negative")
        if self.channel_lo > self.channel_hi:
            raise ValueError("channel_lo must not exceed channel_hi")
        if not 0.0 <= self.adjacent_channel_radius <= self.co_channel_radius:
            raise ValueError(
                "adjacent_channel_radius must lie in [0, co_channel_radius]"
            )
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ValueSamplerParams:
    """Lognormal on-air values scaled by a power of station population.

    The defaults put most values well below default opening prices while
    leaving the cheap-station tail wide, which keeps desk-scale auctions
    economically interesting.
    """

    log_mean: float = 8.0
    log_sd: float = 1.0
    population_exponent: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("log_mean", "log_sd", "population_exponent"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.log_sd <= 0:
            raise ValueError("log_sd must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _tokenize(text: str):
    """Yield (line_number, tokens) for content lines, stripping comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_instance(text: str) -> Instance:
    """Parse an instance file. Raises :class:`ParseError` with a line number on
    malformed lines, unknown stations, duplicate declarations, or channels
    outside the CHANNELS range."""
    channels: tuple[int, int] | None = None
    stations: dict[StationId, Station] = {}
    station_lines: dict[StationId, int] = {}
    raw_constraints: list[tuple[int, int, int, int, int]] = []

    for lineno, tok in _tokenize(text):
        kind = tok[0].upper()
        try:
            if kind == "CHANNELS":
                if channels is not None:
                    raise ParseError(f"line {lineno}: duplicate CHANNELS line")
                if len(tok) != 3:
                    raise ParseError(f"line {lineno}: CHANNELS expects two fields")
                lo, hi = int(tok[1]), int(tok[2])
                if lo > hi:
                    raise ParseError(f"line {lineno}: empty channel range")
                channels = (lo, hi)
            elif kind == "STATION":
                if len(tok) != 5:
                    raise ParseError(f"line {lineno}: STATION expects four fields")
                sid = int(tok[1])
                pre = int(tok[2])
                pop = int(tok[3])
                domain = frozenset(int(c) for c in tok[4].split(","))
                if sid in stations:
                    raise ParseError(f"line {lineno}: duplicate station id {sid}")
                stations[sid] = Station(sid, domain, pop, pre)
                station_lines[sid] = lineno
            elif kind == "CONSTRAINT":
                if len(tok) != 5:
                    raise ParseError(f"line {lineno}: CONSTRAINT expects four fields")
                raw_constraints.append(
                    (lineno, int(tok[1]), int(tok[2]), int(tok[3]), int(tok[4]))
                )
            else:
                raise ParseError(f"line {lineno}: unknown record type {tok[0]!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc

    if channels is None:
        raise ParseError("missing CHANNELS line")

    lo, hi = channels
    for sid, station in stations.items():
        extra = sorted(ch for ch in station.domain if not lo <= ch <= hi)
        if extra:
            raise ParseError(
                f"line {station_lines[sid]}: station {sid} domain channels {extra} "
                f"are outside the CHANNELS range {lo}-{hi}"
            )

    constraints = set()
    for lineno, s1, c1, s2, c2 in raw_constraints:
        for sid, ch in ((s1, c1), (s2, c2)):
            if sid not in stations:
                raise ParseError(
                    f"line {lineno}: constraint references undeclared station {sid}"
                )
            if ch not in stations[sid].domain:
                raise ParseError(
                    f"line {lineno}: channel {ch} is outside the domain of station {sid}"
                )
        try:
            constraints.add(InterferenceConstraint((s1, c1), (s2, c2)))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc

    universe = tuple(range(lo, hi + 1))
    try:
        return Instance(tuple(stations.values()), frozenset(constraints), universe)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: stations ascending by id, constraints sorted."""
    if inst.channel_universe:
        lo, hi = inst.channel_universe[0], inst.channel_universe[-1]
    else:
        lo, hi = 0, 0
    lines = [f"CHANNELS {lo} {hi}"]
    for st in inst.stations:
        domain = ",".join(str(c) for c in sorted(st.domain))
        lines.append(
            f"STATION {st.id} {st.pre_auction_channel} {st.population} {domain}"
        )
    for con in sorted(inst.constraints):
        (s1, c1), (s2, c2) = con.first, con.second
        lines.append(f"CONSTRAINT {s1} {c1} {s2} {c2}")
    return "\n".join(lines) + "\n"


def parse_values(text: str) -> ValueProfile:
    values: ValueProfile = {}
    for lineno, tok in _tokenize(text):
        if len(tok) != 2:
            raise ParseError(f"line {lineno}: expected '<station id> <value>'")
        try:
            sid, value = int(tok[0]), float(tok[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if sid in values:
            raise ParseError(f"line {lineno}: duplicate value for station {sid}")
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value for station {sid}")
        if value < 0:
            raise ParseError(f"line {lineno}: negative value for station {sid}")
        values[sid] = value
    return values


def serialize_values(values: ValueProfile) -> str:
    return "".join(f"{sid} {values[sid]!r}\n" for sid in sorted(values))


def _station_rng(seed: int, stream: int, sid: StationId) -> np.random.Generator:
    # Seeding on (master seed, stream, station id) keeps each station's draws
    # stable when other stations are added or removed.
    return np.random.default_rng([seed, stream, sid])


def generate_instance(params: GeneratorParams) -> Instance:
    """Synthesize an instance from the geometric model.

    Stations get contiguous channel ranges covering at least half the band and
    populations drawn uniformly from [1e4, 1e7]. Pairs closer than the
    co-channel radius are forbidden on every shared channel; pairs closer than
    the adjacent-channel radius are additionally forbidden on adjacent channel
    pairs present in both domains. Output is a pure function of the params.
    """
    lo, hi = params.channel_lo, params.channel_hi
    span = hi - lo + 1
    universe = tuple(range(lo, hi + 1))

    stations = []
    positions: dict[StationId, tuple[float, float]] = {}
    for sid in range(params.n_stations):
        rng = _station_rng(params.seed, _STATION_STREAM, sid)
        x = float(rng.random())
        y = float(rng.random())
        width = int(rng.integers((span + 1) // 2, span + 1))
        start = lo + int(rng.integers(0, span - width + 1))
        domain = frozenset(range(start, start + width))
        pre = int(rng.integers(start, start + width))
        # log-uniform: audience sizes spread over orders of magnitude
        population = int(
            round(10 ** rng.uniform(math.log10(_POPULATION_LO), math.log10(_POPULATION_HI)))
        )
        stations.append(Station(sid, domain, population, pre))
        positions[sid] = (x, y)

    constraints: set[InterferenceConstraint] = set()
    for i in range(params.n_stations):
        for j in range(i + 1, params.n_stations):
            xi, yi = positions[i]
            xj, yj = positions[j]
            dist = math.hypot(xi - xj, yi - yj)
            di, dj = stations[i].domain, stations[j].domain
            if dist <= params.co_channel_radius:
                for c in di & dj:
                    constraints.add(InterferenceConstraint((i, c), (j, c)))
            if dist <= params.adjacent_channel_radius:
                for c in di:
                    for adj in (c - 1, c + 1):
                        if adj in dj:
                            constraints.add(InterferenceConstraint((i, c), (j, adj)))

    return Instance(tuple(stations), frozenset(constraints), universe)


def sample_values(inst: Instance, params: ValueSamplerParams) -> ValueProfile:
    """Draw a value profile: lognormal(log_mean, log_sd) times
    population ** population_exponent, seeded per station id."""
    values: ValueProfile = {}
    for st in inst.stations:
        rng = _station_rng(params.seed, _VALUE_STREAM, st.id)
        draw = float(rng.lognormal(params.log_mean, params.log_sd))
        values[st.id] = draw * st.population**params.population_exponent
    return values
