"""Feasibility checking: can one more station be packed alongside an already
packed set of stations in the reduced band?

Three checkers share one verdict contract:

* :func:`check_greedy` scans the target's channels against the packed
  assignment without moving anything; when no channel fits it reports a
  timeout, never infeasibility.
* :func:`check_sat` encodes the joint problem as CNF and runs a complete
  backtracking search with unit propagation, so it can also prove that no
  packing exists. The previous assignment seeds the branching polarities.
* :func:`check_exhaustive` enumerates every joint assignment; it is the
  small-scale ground truth the other checkers are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .model import (
    Assignment,
    Channel,
    ClearingTarget,
    Instance,
    StationChannel,
    StationId,
    reduced_domain,
    validate_assignment,
)

#: Exhaustive enumeration refuses joint search spaces larger than this.
EXHAUSTIVE_SPACE_LIMIT = 10_000_000


class InvalidProblemError(ValueError):
    """The feasibility problem violates its structural invariants."""


class SearchSpaceError(RuntimeError):
    """The exhaustive checker refused a search space beyond its bound."""


@dataclass(frozen=True)
class Budget:
    """Limit on one feasibility check. ``step_limit`` counts branching
    decisions, so a verdict never depends on the speed of the machine."""

    step_limit: int

    def __post_init__(self) -> None:
        if self.step_limit <= 0:
            raise ValueError("step_limit must be positive")


@dataclass(frozen=True)
class Feasible:
    certificate: Assignment


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Timeout:
    pass


FeasibilityVerdict = Feasible | Infeasible | Timeout


@dataclass(frozen=True)
class FeasibilityProblem:
    """Ask whether ``target`` can be packed together with the stations already
    assigned in ``packed``.

    ``packed`` must itself be a valid assignment; construction checks only the
    cheap structural facts, :meth:`validate` runs the full check.
    """

    target: StationId
    packed: Assignment
    inst: Instance
    ct: ClearingTarget

    def __post_init__(self) -> None:
        self.inst.station(self.target)
        if self.target in self.packed:
            raise InvalidProblemError(
                f"target station {self.target} is already packed"
            )

    def validate(self) -> None:
        if not validate_assignment(self.packed, self.inst, self.ct):
            raise InvalidProblemError("packed assignment is not valid")

    def station_set(self) -> list[StationId]:
        return sorted({*self.packed, self.target})


def check_greedy(problem: FeasibilityProblem, budget: Budget) -> FeasibilityVerdict:
    """Try each of the target's reduced-band channels, lowest first, against
    the packed assignment as it stands. Never alters the packed assignment and
    never proves infeasibility: exhausting the domain reports a timeout.

    The scan is bounded by the domain size, so the budget is accepted for
    interface parity but not consumed.
    """
    del budget
    conflicts = problem.inst.conflicts_in_band(problem.ct)
    packed = problem.packed
    target = problem.target
    for ch in sorted(reduced_domain(problem.inst.station(target), problem.ct)):
        if all(
            packed.get(osid) != och for osid, och in conflicts.get((target, ch), ())
        ):
            certificate = dict(packed)
            certificate[target] = ch
            return Feasible(certificate)
    return Timeout()


@dataclass
class CnfFormula:
    """CNF over one boolean variable per admissible (station, channel) pair."""

    var_of: dict[StationChannel, int]
    pair_of: tuple[StationChannel, ...]
    clauses: list[list[int]] = field(default_factory=list)

    @property
    def n_vars(self) -> int:
        return len(self.pair_of)

    def to_dimacs(self) -> str:
        """Standard DIMACS text, with comment lines mapping variables back to
        station-channel pairs for external cross-checks."""
        lines = [f"p cnf {self.n_vars} {len(self.clauses)}"]
        for idx, (sid, ch) in enumerate(self.pair_of, start=1):
            lines.append(f"c var {idx} station {sid} channel {ch}")
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def encode_stations(
    inst: Instance, ct: ClearingTarget, sids: list[StationId]
) -> CnfFormula:
    """CNF requiring every listed station to take some reduced-band channel
    while realizing no forbidden pair. One at-least-one clause per station
    (possibly empty) plus one binary clause per applicable constraint."""
    pair_of: list[StationChannel] = []
    var_of: dict[StationChannel, int] = {}
    domains: dict[StationId, list[int]] = {}
    for sid in sorted(sids):
        chans = sorted(reduced_domain(inst.station(sid), ct))
        domains[sid] = chans
        for ch in chans:
            var_of[(sid, ch)] = len(pair_of) + 1
            pair_of.append((sid, ch))

    clauses: list[list[int]] = []
    for sid in sorted(sids):
        clauses.append([var_of[(sid, ch)] for ch in domains[sid]])
    conflicts = inst.conflicts_in_band(ct)
    for pair in pair_of:
        v1 = var_of[pair]
        for other in conflicts.get(pair, ()):
            if other > pair and other in var_of:
                clauses.append([-v1, -var_of[other]])
    return CnfFormula(var_of, tuple(pair_of), clauses)


def encode(problem: FeasibilityProblem) -> CnfFormula:
    """CNF for the packed stations plus the target."""
    return encode_stations(problem.inst, problem.ct, problem.station_set())


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat" | "timeout"
    model: dict[int, bool] | None
    steps: int


def solve(
    formula: CnfFormula,
    budget: Budget,
    polarity_hint: Mapping[StationId, Channel] | None = None,
) -> SolveResult:
    """Complete backtracking search with watched-literal unit propagation.

    Branching always picks the lowest-index unassigned variable and tries the
    hinted polarity first: a variable for (s, c) starts true exactly when the
    hint assigns s to c, false for other channels of a hinted station, and
    true for unhinted stations. The outcome is a pure function of the
    formula, budget and hint.
    """
    n = len(formula.pair_of)

    # Normalize clauses: drop tautologies, dedup literals, catch empties.
    clauses: list[list[int]] = []
    for raw in formula.clauses:
        seen = sorted(set(raw), key=abs)
        if any(-lit in seen for lit in seen):
            continue
        if not seen:
            return SolveResult("unsat", None, 0)
        clauses.append(list(seen))

    phase = [True] * (n + 1)
    if polarity_hint is not None:
        for idx, (sid, ch) in enumerate(formula.pair_of, start=1):
            if sid in polarity_hint:
                phase[idx] = polarity_hint[sid] == ch

    assign = [0] * (n + 1)  # 0 unassigned, +1 true, -1 false
    trail: list[int] = []
    qhead = 0
    next_var = 1

    watches: dict[int, list[int]] = {}
    root_units: list[int] = []
    for ci, cl in enumerate(clauses):
        if len(cl) == 1:
            root_units.append(cl[0])
        else:
            watches.setdefault(cl[0], []).append(ci)
            watches.setdefault(cl[1], []).append(ci)

    def lit_value(lit: int) -> int:
        v = assign[abs(lit)]
        return v if lit > 0 else -v

    def enqueue(lit: int) -> bool:
        v = lit_value(lit)
        if v == 1:
            return True
        if v == -1:
            return False
        assign[abs(lit)] = 1 if lit > 0 else -1
        trail.append(lit)
        return True

    def propagate() -> bool:
        nonlocal qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches.get(false_lit)
            if not ws:
                continue
            i = 0
            while i < len(ws):
                ci = ws[i]
                cl = clauses[ci]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if lit_value(first) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if lit_value(cl[k]) != -1:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches.setdefault(cl[1], []).append(ci)
                        ws[i] = ws[-1]
                        ws.pop()
                        moved = True
                        break
                if moved:
                    continue
                if not enqueue(first):
                    return False
                i += 1
        return True

    def undo_to(mark: int) -> None:
        nonlocal qhead, next_var
        while len(trail) > mark:
            var = abs(trail.pop())
            assign[var] = 0
            if var < next_var:
                next_var = var
        qhead = mark

    for lit in root_units:
        if not enqueue(lit):
            return SolveResult("unsat", None, 0)
    if not propagate():
        return SolveResult("unsat", None, 0)

    # Decision stack entries: [variable, trail mark, already flipped].
    decisions: list[list] = []
    steps = 0

    while True:
        while next_var <= n and assign[next_var] != 0:
            next_var += 1
        if next_var > n:
            model = {v: assign[v] == 1 for v in range(1, n + 1)}
            return SolveResult("sat", model, steps)

        steps += 1
        if steps > budget.step_limit:
            return SolveResult("timeout", None, steps)

        var = next_var
        decisions.append([var, len(trail), False])
        enqueue(var if phase[var] else -var)
        while not propagate():
            while decisions and decisions[-1][2]:
                _, mark, _ = decisions.pop()
                undo_to(mark)
            if not decisions:
                return SolveResult("unsat", None, steps)
            entry = decisions[-1]
            undo_to(entry[1])
            entry[2] = True
            flipped = entry[0]
            enqueue(-flipped if phase[flipped] else flipped)


def decode_model(formula: CnfFormula, model: Mapping[int, bool]) -> Assignment:
    """Project a model onto an assignment; a station set true on several
    channels keeps the lowest one."""
    assignment: Assignment = {}
    for idx, (sid, ch) in enumerate(formula.pair_of, start=1):
        if model[idx] and sid not in assignment:
            assignment[sid] = ch
    return assignment


def check_sat(problem: FeasibilityProblem, budget: Budget) -> FeasibilityVerdict:
    """Complete check: encode, solve with the packed assignment as polarity
    hint, and decode the model into a certificate. Infeasible exactly when the
    search space is exhausted without a model."""
    formula = encode(problem)
    result = solve(formula, budget, polarity_hint=problem.packed)
    if result.status == "timeout":
        return Timeout()
    if result.status == "unsat":
        return Infeasible()
    assert result.model is not None
    return Feasible(decode_model(formula, result.model))


def check_exhaustive(problem: FeasibilityProblem) -> FeasibilityVerdict:
    """Enumerate all joint channel assignments in lexicographic order, pruning
    prefixes that already violate a constraint. Returns the lexicographically
    first valid certificate, otherwise Infeasible; never times out.

    Refuses search spaces whose domain-size product exceeds
    :data:`EXHAUSTIVE_SPACE_LIMIT`.
    """
    inst, ct = problem.inst, problem.ct
    sids = problem.station_set()
    domains = [sorted(reduced_domain(inst.station(sid), ct)) for sid in sids]
    space = math.prod(len(d) for d in domains)
    if space > EXHAUSTIVE_SPACE_LIMIT:
        raise SearchSpaceError(
            f"joint search space {space} exceeds the enumeration bound "
            f"{EXHAUSTIVE_SPACE_LIMIT}"
        )
    conflicts = inst.conflicts_in_band(ct)
    chosen: Assignment = {}

    def fits(sid: StationId, ch: int) -> bool:
        return all(
            chosen.get(osid) != och for osid, och in conflicts.get((sid, ch), ())
        )

    def descend(i: int) -> bool:
        if i == len(sids):
            return True
        sid = sids[i]
        for ch in domains[i]:
            if fits(sid, ch):
                chosen[sid] = ch
                if descend(i + 1):
                    return True
                del chosen[sid]
        return False

    if descend(0):
        return Feasible(dict(chosen))
    return Infeasible()
