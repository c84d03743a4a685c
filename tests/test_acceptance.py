"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest -s`` to see them live).

The random sweeps pin their seeds, so every run checks identical cases. Where
a criterion needs an independent oracle, it is implemented here from scratch
(truth tables, exhaustive enumeration) rather than through the code under
test. Instance draws whose non-participants cannot be packed are rejected by
the auction by design; sweeps that could hit such draws skip to the next seed
deterministically.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from repacksim.auction import (
    AuctionConfig,
    BidDecision,
    CheckerKind,
    determine_participants,
    initial_assignment,
    run_auction,
)
from repacksim.feasibility import (
    Budget,
    Feasible,
    FeasibilityProblem,
    Timeout,
    check_exhaustive,
    check_greedy,
    check_sat,
)
from repacksim.instances import (
    GeneratorParams,
    ValueSamplerParams,
    generate_instance,
    sample_values,
)
from repacksim.metrics import compare, value_loss
from repacksim.model import (
    ClearingTarget,
    Instance,
    InterferenceConstraint,
    Station,
    validate_assignment,
)
from repacksim.pricing import (
    ScoringRule,
    default_initial_clock_price,
    initial_clock,
    next_clock,
    volumes_for,
)
from repacksim.vcg import optimal_packing, restricted_optimal_value, vcg_outcome

CHECK_BUDGET = Budget(step_limit=200_000)


def announce(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ----------------------------------------------------------------- helpers


def random_feasibility_problem(seed: int) -> FeasibilityProblem:
    """Seeded problem at most 12 stations and 4 channels: greedily pack a
    shuffled prefix and target the first station that did not fit."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    lo = 14
    hi = lo + int(rng.integers(0, 4))
    inst = generate_instance(
        GeneratorParams(
            n_stations=n,
            channel_lo=lo,
            channel_hi=hi,
            co_channel_radius=float(rng.uniform(0.15, 0.9)),
            adjacent_channel_radius=float(rng.uniform(0.0, 0.15)),
            seed=int(rng.integers(0, 2**32)),
        )
    )
    ct = ClearingTarget(lo + int(rng.integers(1, hi - lo + 2)))
    conflicts = inst.conflicts_in_band(ct)
    order = list(rng.permutation(inst.station_ids()))
    packed = {}
    target = None
    for sid in order:
        placed = False
        for ch in sorted(ct.reduced(inst.station(sid).domain)):
            if all(packed.get(o) != oc for o, oc in conflicts.get((sid, ch), ())):
                packed[sid] = ch
                placed = True
                break
        if not placed:
            target = sid
            break
    if target is None:
        target = order[-1]
        del packed[target]
    return FeasibilityProblem(int(target), packed, inst, ct)


def enumerate_best_value(inst, values, participants, non_participants, ct):
    """Exhaustive packing-value oracle, pruning only on violations."""
    sids = sorted(inst.station_ids())
    parts = set(participants)
    nons = set(non_participants)
    conflicts = inst.conflicts_in_band(ct)
    domains = {sid: sorted(ct.reduced(inst.station(sid).domain)) for sid in sids}
    best = [-1.0]
    chosen = {}

    def walk(i, acc):
        if i == len(sids):
            best[0] = max(best[0], acc)
            return
        sid = sids[i]
        for ch in domains[sid]:
            if all(chosen.get(o) != oc for o, oc in conflicts.get((sid, ch), ())):
                chosen[sid] = ch
                walk(i + 1, acc + (values[sid] if sid in parts else 0.0))
                del chosen[sid]
        if sid not in nons:
            walk(i + 1, acc)

    walk(0, 0.0)
    return best[0] if best[0] >= 0 else None


def small_vcg_case(seed: int, max_stations: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_stations + 1))
    channels = 2 if n > 8 else int(rng.integers(2, 4))
    inst = generate_instance(
        GeneratorParams(
            n_stations=n,
            channel_lo=14,
            channel_hi=14 + channels - 1,
            co_channel_radius=float(rng.uniform(0.2, 0.8)),
            adjacent_channel_radius=float(rng.uniform(0.0, 0.2)),
            seed=int(rng.integers(0, 2**32)),
        )
    )
    values = sample_values(
        inst,
        ValueSamplerParams(log_mean=2.0, log_sd=1.0, seed=int(rng.integers(0, 2**32))),
    )
    return inst, values, ClearingTarget(14 + channels)


# ----------------------------------------------------------------- criteria


def test_criterion_1_feasibility_oracle_equivalence():
    started = time.monotonic()
    mismatches = 0
    bad_certificates = 0
    for seed in range(1000):
        problem = random_feasibility_problem(seed)
        sat = check_sat(problem, CHECK_BUDGET)
        exh = check_exhaustive(problem)
        if type(sat) is not type(exh):
            mismatches += 1
        for verdict in (sat, exh):
            if isinstance(verdict, Feasible):
                expected = set(problem.packed) | {problem.target}
                if not validate_assignment(
                    verdict.certificate, problem.inst, problem.ct
                ) or set(verdict.certificate) != expected:
                    bad_certificates += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and bad_certificates == 0 and elapsed < 120
    assert announce(
        "1 (feasibility oracle equivalence)",
        ok,
        f"{mismatches} mismatches, {bad_certificates} bad certificates over "
        f"1000 problems in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_greedy_incompleteness_witness():
    inst = Instance(
        (Station(1, frozenset({14, 15}), 1000, 14), Station(2, frozenset({14}), 1000, 14)),
        frozenset({InterferenceConstraint((1, 14), (2, 14))}),
        (14, 15, 16),
    )
    ct = ClearingTarget(16)
    problem = FeasibilityProblem(2, {1: 14}, inst, ct)
    greedy = check_greedy(problem, CHECK_BUDGET)
    sat = check_sat(problem, CHECK_BUDGET)
    ok = (
        greedy == Timeout()
        and isinstance(sat, Feasible)
        and sat.certificate == {1: 15, 2: 14}
    )
    assert announce(
        "2 (greedy incompleteness witnessed)",
        ok,
        f"greedy={type(greedy).__name__}, sat={type(sat).__name__} "
        f"with certificate {getattr(sat, 'certificate', None)}",
    )


def test_criterion_3_vcg_correctness():
    started = time.monotonic()
    mismatches = 0
    ir_violations = 0
    negative_prices = 0
    for seed in range(200):
        inst, values, ct = small_vcg_case(seed, max_stations=10)
        participants = inst.station_ids()
        _, total = optimal_packing(inst, values, participants, (), ct)
        oracle = enumerate_best_value(inst, values, participants, (), ct)
        if abs(total - oracle) > 1e-9 * max(1.0, abs(oracle)):
            mismatches += 1
        outcome = vcg_outcome(inst, values, participants, (), ct)
        for sid in outcome.winners:
            if outcome.prices[sid] < values[sid]:
                ir_violations += 1
            if outcome.prices[sid] < 0:
                negative_prices += 1
    elapsed = time.monotonic() - started
    ok = (
        mismatches == 0
        and ir_violations == 0
        and negative_prices == 0
        and elapsed < 300
    )
    assert announce(
        "3 (exact benchmark correctness)",
        ok,
        f"{mismatches} value mismatches, {ir_violations} rationality violations, "
        f"{negative_prices} negative prices over 200 instances in {elapsed:.1f}s "
        f"(limit 300s)",
    )


def test_criterion_4_vcg_truthfulness():
    multipliers = np.linspace(0.0, 4.0, 20)
    violations = 0
    checked = 0
    for seed in range(50):
        inst, values, ct = small_vcg_case(seed + 10_000, max_stations=8)
        participants = inst.station_ids()

        def utility(reported, sid):
            assignment, total = optimal_packing(inst, reported, participants, (), ct)
            if sid in assignment:
                return 0.0
            restricted = restricted_optimal_value(
                inst, reported, participants, (), ct, sid
            )
            return (total - restricted) - values[sid]

        for sid in participants:
            truthful = utility(values, sid)
            for m in multipliers:
                reported = dict(values)
                reported[sid] = float(m) * values[sid]
                checked += 1
                if utility(reported, sid) > truthful + 1e-9:
                    violations += 1
    ok = violations == 0
    assert announce(
        "4 (benchmark truthfulness)",
        ok,
        f"{violations} profitable misreports out of {checked} checked",
    )


def test_criterion_5_clock_auction_truthfulness_proxy():
    started = time.monotonic()
    violations = 0
    checked = 0
    instances_used = 0
    seed = 0
    while instances_used < 50:
        seed += 1
        inst = generate_instance(
            GeneratorParams(
                n_stations=6,
                channel_lo=14,
                channel_hi=17,
                co_channel_radius=0.4,
                adjacent_channel_radius=0.1,
                seed=400 + seed,
            )
        )
        values = sample_values(
            inst,
            ValueSamplerParams(
                log_mean=2.5, log_sd=0.8, population_exponent=0.3, seed=40 + seed
            ),
        )
        ct = ClearingTarget(16)
        c0 = max(values.values()) * 1.5
        config = AuctionConfig(
            ct=ct,
            scoring=ScoringRule.UNSCORED,
            c0=c0,
            checker=CheckerKind.SAT,
            seed=seed,
        )
        truthful = run_auction(inst, values, config)
        instances_used += 1

        def utility(outcome, sid):
            if sid in outcome.winners:
                return outcome.winners[sid] - values[sid]
            return 0.0

        # offers stop changing once the clock bottoms out, so exit rounds
        # beyond that horizon behave exactly like never exiting
        clock = initial_clock(c0)
        while clock.current > 0:
            clock = next_clock(clock)
        horizon = clock.round_index + 1

        for sid in truthful.participants:
            base = utility(truthful, sid)
            for r in range(1, horizon + 1):
                def exit_at(round_index, offer, value, r=r):
                    return (
                        BidDecision.EXIT if round_index >= r else BidDecision.ACCEPT
                    )

                checked += 1
                alt = run_auction(inst, values, config, strategies={sid: exit_at})
                if utility(alt, sid) > base + 1e-9:
                    violations += 1
            checked += 1
            never = run_auction(
                inst, values, config, strategies={sid: lambda *_: BidDecision.ACCEPT}
            )
            if utility(never, sid) > base + 1e-9:
                violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0
    assert announce(
        "5 (clock auction truthfulness proxy)",
        ok,
        f"{violations} profitable deviations out of {checked} alternative exit "
        f"schedules on 50 instances in {elapsed:.1f}s",
    )


def test_criterion_6_unscored_exit_order():
    c0 = 1000.0
    clock = initial_clock(c0)
    path = [clock.current]
    while clock.current > 0:
        clock = next_clock(clock)
        path.append(clock.current)
    # one value per clock bracket (path[t], path[t-1]]: the regime where the
    # descending-exit-order claim holds exactly
    midpoints = [(path[t] + path[t - 1]) / 2 for t in range(1, len(path))]

    inversions = 0
    for i in range(100):
        inst = generate_instance(
            GeneratorParams(
                n_stations=8,
                channel_lo=14,
                channel_hi=17,
                co_channel_radius=0.45,
                adjacent_channel_radius=0.1,
                seed=600 + i,
            )
        )
        rng = np.random.default_rng([123, i])
        slots = rng.permutation(len(midpoints))[: len(inst.stations)]
        values = {
            st.id: float(midpoints[s]) for st, s in zip(inst.stations, slots)
        }
        ids = [st.id for st in inst.stations]
        if i % 10 == 0:
            # equal-value pair: ties are allowed exactly here
            values[ids[1]] = values[ids[0]]
        config = AuctionConfig(
            ct=ClearingTarget(16),
            scoring=ScoringRule.UNSCORED,
            c0=c0,
            checker=CheckerKind.EXHAUSTIVE,
            seed=i,
        )
        outcome = run_auction(inst, values, config)
        exit_values = [
            values[b.station]
            for record in outcome.round_log
            for b in record.bids
            if b.new_status == "exited"
        ]
        for a, b in zip(exit_values, exit_values[1:]):
            if a < b:
                inversions += 1
    ok = inversions == 0
    assert announce(
        "6 (unscored exit order non-increasing)",
        ok,
        f"{inversions} value inversions in exit order over 100 instances",
    )


# ------------------------------------------------- the directional grid


GRID_CELLS = (
    (ScoringRule.FCC, CheckerKind.SAT),
    (ScoringRule.FCC, CheckerKind.GREEDY),
    (ScoringRule.UNSCORED, CheckerKind.SAT),
)


def _grid_instance(seed: int) -> Instance:
    return generate_instance(
        GeneratorParams(
            n_stations=30 + (seed % 5),
            channel_lo=14,
            channel_hi=17,
            co_channel_radius=0.26,
            adjacent_channel_radius=0.065,
            seed=seed,
        )
    )


def _grid_values(inst: Instance, seed: int, profile: int):
    return sample_values(
        inst,
        ValueSamplerParams(
            log_mean=8.0,
            log_sd=1.0,
            population_exponent=0.7,
            seed=7000 + 13 * seed + profile,
        ),
    )


@pytest.fixture(scope="module")
def directional_grid():
    """20 usable instances of 30-34 stations, 5 value profiles each, three
    cells, every record compared to the benchmark over its own participant
    set. Draws whose non-participants cannot be packed are skipped
    deterministically."""
    started = time.monotonic()
    ct = ClearingTarget(17)
    budget = Budget(step_limit=50_000)
    rows = []
    used = 0
    seed = 999
    while used < 20:
        seed += 1
        assert seed < 1200, "rejected too many instance draws; generator drifted"
        inst = _grid_instance(seed)
        profiles = []
        usable = True
        for p in range(5):
            values = _grid_values(inst, seed, p)
            for scoring in (ScoringRule.FCC, ScoringRule.UNSCORED):
                _, nons = determine_participants(
                    inst,
                    values,
                    volumes_for(inst, ct, scoring),
                    default_initial_clock_price(scoring),
                )
                try:
                    initial_assignment(inst, nons, ct, CheckerKind.SAT, budget)
                except Exception:
                    usable = False
                    break
            if not usable:
                break
            profiles.append(values)
        if not usable:
            continue
        used += 1
        for p, values in enumerate(profiles):
            benchmarks = {}
            for scoring, checker in GRID_CELLS:
                config = AuctionConfig(
                    ct=ct,
                    scoring=scoring,
                    checker=checker,
                    budget=budget,
                    seed=100 * seed + p,
                )
                participants, nons = determine_participants(
                    inst, values, volumes_for(inst, ct, scoring), config.initial_price()
                )
                key = frozenset(participants)
                if key not in benchmarks:
                    benchmarks[key] = vcg_outcome(
                        inst, values, participants, nons, ct
                    )
                outcome = run_auction(inst, values, config)
                rows.append(
                    ((scoring, checker), compare(outcome, benchmarks[key], values))
                )
    return rows, time.monotonic() - started


def test_criterion_7_value_loss_ratio_bound(directional_grid):
    rows, _ = directional_grid
    worst = min(record.value_loss_ratio for _, record in rows)
    ok = worst >= 1.0 - 1e-9
    assert announce(
        "7 (value loss ratio bound)",
        ok,
        f"minimum ratio {worst!r} over {len(rows)} records (bound 1 - 1e-9)",
    )


def test_criterion_8_directional_reproduction(directional_grid):
    rows, elapsed = directional_grid

    def mean(cell, field):
        xs = [getattr(rec, field) for c, rec in rows if c == cell]
        return sum(xs) / len(xs)

    fcc_sat = (ScoringRule.FCC, CheckerKind.SAT)
    fcc_greedy = (ScoringRule.FCC, CheckerKind.GREEDY)
    unscored_sat = (ScoringRule.UNSCORED, CheckerKind.SAT)

    a = mean(fcc_greedy, "cost_auction") / mean(fcc_sat, "cost_auction")
    b = mean(fcc_greedy, "value_loss_auction") / mean(fcc_sat, "value_loss_auction")
    c = mean(fcc_sat, "cost_auction") / mean(unscored_sat, "cost_auction")
    d = mean(unscored_sat, "value_loss_ratio")

    ok = a > 1.0 and b > 1.0 and c < 1.0 and d <= 1.25 and elapsed < 1800
    assert announce(
        "8 (directional reproduction at desk scale)",
        ok,
        f"naive/complete cost {a:.3f} (>1), naive/complete loss {b:.3f} (>1), "
        f"scored/unscored cost {c:.3f} (<1), unscored loss ratio {d:.4f} "
        f"(<=1.25), grid in {elapsed:.0f}s (limit 1800s)",
    )


def test_criterion_9_clock_trajectory():
    clock = initial_clock(900.0)
    observed = [clock.current]
    for _ in range(3):
        clock = next_clock(clock)
        observed.append(clock.current)
    expected = [900.0, 855.0, 812.25, 771.6375]
    prefix_ok = all(
        abs(o - e) <= math.ulp(e) for o, e in zip(observed, expected)
    )

    reaches_zero = True
    rng = np.random.default_rng(77)
    for c0 in [900.0, 900e6, 0.01, 1e12, *rng.uniform(1e-3, 1e9, size=25)]:
        clock = initial_clock(float(c0))
        for _ in range(150):
            clock = next_clock(clock)
            if clock.current == 0.0:
                break
        if clock.current != 0.0:
            reaches_zero = False
    ok = prefix_ok and reaches_zero
    assert announce(
        "9 (clock trajectory)",
        ok,
        f"prefix {observed} vs {expected} within 1 ulp: {prefix_ok}; "
        f"clock reaches exactly 0 for all sampled c0: {reaches_zero}",
    )


def test_criterion_10_end_to_end_determinism(tmp_path):
    from click.testing import CliRunner

    from repacksim.cli import main

    config = {
        "bar_c": 17,
        "generator": {
            "n_stations": 10,
            "channel_lo": 14,
            "channel_hi": 18,
            "co_channel_radius": 0.35,
            "adjacent_channel_radius": 0.1,
            "seed": 21,
        },
        "n_value_profiles": 3,
        "sampler": {"log_mean": 8.0, "log_sd": 1.0, "population_exponent": 0.7},
        "cells": ["fcc:sat", "fcc:greedy", "unscored:sat", "unscored:greedy",
                  "unscored:exhaustive"],
        "master_seed": 77,
        "out_dir": str(tmp_path / "a"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()
    first = runner.invoke(main, ["run", "--config", str(config_path)])
    second = runner.invoke(
        main, ["run", "--config", str(config_path), "--out", str(tmp_path / "b")]
    )
    ok = first.exit_code == 0 and second.exit_code == 0
    csv_a = (tmp_path / "a" / "records.csv").read_bytes()
    csv_b = (tmp_path / "b" / "records.csv").read_bytes()
    json_a = (tmp_path / "a" / "records.json").read_bytes()
    json_b = (tmp_path / "b" / "records.json").read_bytes()
    ok = ok and csv_a == csv_b and json_a == json_b
    assert announce(
        "10 (end-to-end determinism)",
        ok,
        f"exit codes ({first.exit_code}, {second.exit_code}); CSV identical: "
        f"{csv_a == csv_b}; JSON identical: {json_a == json_b}",
    )
