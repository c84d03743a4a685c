import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repacksim.feasibility import (
    Budget,
    EXHAUSTIVE_SPACE_LIMIT,
    Feasible,
    FeasibilityProblem,
    Infeasible,
    InvalidProblemError,
    SearchSpaceError,
    SolveResult,
    Timeout,
    check_exhaustive,
    check_greedy,
    check_sat,
    encode,
    solve,
)
from repacksim.instances import GeneratorParams, generate_instance
from repacksim.model import ClearingTarget, validate_assignment
from repacksim.search import PackingModel

from conftest import mk_instance

STEP_BUDGET = Budget(step_limit=100_000)


# ---------------------------------------------------------------- greedy


def test_greedy_empty_reduced_domain_times_out():
    inst = mk_instance([(1, {20})], universe=(14, 20))
    p = FeasibilityProblem(1, {}, inst, ClearingTarget(15))
    assert check_greedy(p, STEP_BUDGET) == Timeout()


def test_greedy_packs_lowest_channel():
    inst = mk_instance([(1, {15, 14, 16})])
    p = FeasibilityProblem(1, {}, inst, ClearingTarget(17))
    assert check_greedy(p, STEP_BUDGET) == Feasible({1: 14})


def test_greedy_incompleteness_witness(two_station_conflict):
    inst, ct = two_station_conflict
    packed = {1: 14}
    p = FeasibilityProblem(2, packed, inst, ct)
    assert check_greedy(p, STEP_BUDGET) == Timeout()
    sat = check_sat(p, STEP_BUDGET)
    assert isinstance(sat, Feasible)
    assert sat.certificate == {1: 15, 2: 14}
    assert check_exhaustive(p) == Feasible({1: 15, 2: 14})
    # the input assignment is never mutated
    assert packed == {1: 14}


def test_problem_structural_errors(two_station_conflict):
    inst, ct = two_station_conflict
    with pytest.raises(InvalidProblemError):
        FeasibilityProblem(1, {1: 14}, inst, ct)
    bad = FeasibilityProblem(2, {1: 16}, inst, ct)
    with pytest.raises(InvalidProblemError):
        bad.validate()


# ---------------------------------------------------------------- encode


def _channels(model):
    return [[ch for _, ch, _ in opts] for opts in model.options]


def test_encode_one_station_two_channels():
    inst = mk_instance([(1, {14, 15})])
    f = encode(FeasibilityProblem(1, {}, inst, ClearingTarget(16)))
    assert f.order == [1]
    assert _channels(f) == [[14, 15]]
    assert f.clauses == []


def test_encode_shared_channel_conflict_is_unsat():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    f = encode(FeasibilityProblem(2, {1: 14}, inst, ClearingTarget(15)))
    assert f.order == [1, 2]
    assert f.clauses == [((1, 14), (2, 14))]
    assert solve(f, STEP_BUDGET).verdict == Infeasible()


# ---------------------------------------------------------------- solve


def test_solve_trivial_cases():
    inst = mk_instance([(1, {14}), (2, {14}), (3, {20})], [(1, 14, 2, 14)], universe=(14, 20))
    ct = ClearingTarget(15)
    empty = solve(PackingModel(inst, ct, []), STEP_BUDGET)
    assert empty == SolveResult(Feasible({}), 0)
    # no channel below the clearing target: nothing to try
    assert solve(PackingModel(inst, ct, [3]), STEP_BUDGET) == SolveResult(Infeasible(), 0)
    # one channel each, in conflict: the second station starves at once
    assert solve(PackingModel(inst, ct, [1, 2]), STEP_BUDGET) == SolveResult(Infeasible(), 1)


def test_solve_returns_full_model():
    inst = mk_instance(
        [(1, {14, 15}), (2, {14, 15}), (3, {14, 15, 16})],
        [(1, 14, 2, 14), (2, 15, 3, 15), (1, 15, 3, 14)],
    )
    ct = ClearingTarget(17)
    verdict = solve(PackingModel(inst, ct, [1, 2, 3]), STEP_BUDGET).verdict
    assert isinstance(verdict, Feasible)
    assert list(verdict.certificate) == [1, 2, 3]
    assert validate_assignment(verdict.certificate, inst, ct)


def test_solve_step_budget_timeout():
    # pigeonhole: 5 stations, 4 channels, every pair in conflict on every channel
    chans = {14, 15, 16, 17}
    inst = mk_instance(
        [(s, chans) for s in range(5)],
        [(a, c, b, c) for a in range(5) for b in range(a + 1, 5) for c in chans],
    )
    model = PackingModel(inst, ClearingTarget(18), range(5))
    assert solve(model, Budget(step_limit=3)) == SolveResult(Timeout(), 4)
    exhausted = solve(model, Budget(step_limit=200_000))
    assert exhausted.verdict == Infeasible()
    # a step is one channel tried: the first four stations take 4 * 3 * 2 * 1
    # channel orders, each tried once along the way
    assert exhausted.steps == 4 + 4 * 3 + 4 * 3 * 2 + 4 * 3 * 2 * 1


def test_solve_respects_polarity_hint():
    inst = mk_instance([(1, {14, 15}), (2, {14, 15})])
    p = FeasibilityProblem(2, {1: 15}, inst, ClearingTarget(16))
    verdict = solve(encode(p), STEP_BUDGET).verdict
    assert isinstance(verdict, Feasible)
    assert verdict.certificate[1] == 15
    # without the hint the lowest channel comes first
    plain = solve(PackingModel(inst, p.ct, [1, 2]), STEP_BUDGET)
    assert plain.verdict == Feasible({1: 14, 2: 14})


# ---------------------------------------------------------------- checkers


def test_check_sat_empty_reduced_domain_is_infeasible():
    inst = mk_instance([(1, {20})], universe=(14, 20))
    p = FeasibilityProblem(1, {}, inst, ClearingTarget(15))
    assert check_sat(p, STEP_BUDGET) == Infeasible()
    assert check_exhaustive(p) == Infeasible()


def test_exhaustive_refuses_oversized_spaces():
    chans = set(range(14, 30))
    inst = mk_instance([(i, chans) for i in range(7)], universe=chans)
    packed = {i: 14 for i in range(1, 7)}
    p = FeasibilityProblem(0, packed, inst, ClearingTarget(30))
    assert 16**7 > EXHAUSTIVE_SPACE_LIMIT
    with pytest.raises(SearchSpaceError):
        check_exhaustive(p)


def test_exhaustive_returns_lexicographically_first():
    # the packed station may be moved: enumeration is lexicographic over the
    # joint assignment, not anchored to the incumbent positions
    inst = mk_instance([(1, {14, 15}), (2, {14, 15})], [(1, 14, 2, 14)])
    p = FeasibilityProblem(2, {1: 15}, inst, ClearingTarget(16))
    assert check_exhaustive(p) == Feasible({1: 14, 2: 15})


def _random_problem(seed, fits=False):
    """Seeded problem: generate an instance, greedily pack a prefix, and aim
    the checkers at the first station the greedy pass could not place. With
    ``fits`` (when anything was packed), or when everything fits, aim at the
    last packed one instead, which fits beside the stations packed before it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    lo = 14
    hi = lo + int(rng.integers(0, 4))
    params = GeneratorParams(
        n_stations=n,
        channel_lo=lo,
        channel_hi=hi,
        co_channel_radius=float(rng.uniform(0.15, 0.9)),
        adjacent_channel_radius=float(rng.uniform(0.0, 0.15)),
        seed=int(rng.integers(0, 2**32)),
    )
    inst = generate_instance(params)
    bar_c = lo + int(rng.integers(1, hi - lo + 2))
    ct = ClearingTarget(bar_c)
    conflicts = inst.conflicts_in_band(ct)
    order = list(rng.permutation(inst.station_ids()))
    packed = {}
    target = None
    for sid in order:
        chans = sorted(ct.reduced(inst.station(sid).domain))
        placed = False
        for c in chans:
            if all(packed.get(o) != oc for o, oc in conflicts.get((sid, c), ())):
                packed[sid] = c
                placed = True
                break
        if not placed:
            target = sid
            break
    if target is None or (fits and packed):
        target = list(packed)[-1]
        del packed[target]
    return FeasibilityProblem(int(target), packed, inst, ct)


@pytest.mark.parametrize("seed", range(120))
def test_check_sat_matches_exhaustive(seed):
    p = _random_problem(seed)
    sat = check_sat(p, STEP_BUDGET)
    exh = check_exhaustive(p)
    assert type(sat) is type(exh)
    if isinstance(sat, Feasible):
        assert validate_assignment(sat.certificate, p.inst, p.ct)
        assert set(sat.certificate) == set(p.packed) | {p.target}
        assert validate_assignment(exh.certificate, p.inst, p.ct)


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=200, deadline=None)
def test_check_sat_verdict_matches_exhaustive_around_the_presolve(seed, fits):
    p = _random_problem(seed + 80_000, fits)
    # ``fits`` picks the presolve's side: the target fits beside the packed
    # stations as they stand, or it does not and the search decides
    assume(isinstance(check_greedy(p, STEP_BUDGET), Feasible) == fits)
    sat = check_sat(p, STEP_BUDGET)
    exh = check_exhaustive(p)
    assert type(sat) is type(exh)
    if isinstance(sat, Feasible):
        assert validate_assignment(sat.certificate, p.inst, p.ct)
        assert set(sat.certificate) == set(p.packed) | {p.target}


@pytest.mark.parametrize("seed", range(60))
def test_greedy_conservative_and_sound(seed):
    p = _random_problem(seed + 3000)
    greedy = check_greedy(p, STEP_BUDGET)
    assert not isinstance(greedy, Infeasible)
    if isinstance(greedy, Feasible):
        assert validate_assignment(greedy.certificate, p.inst, p.ct)
        assert isinstance(check_sat(p, STEP_BUDGET), Feasible)


def test_checkers_are_deterministic():
    p = _random_problem(77)
    budget = Budget(step_limit=50_000)
    assert check_sat(p, budget) == check_sat(p, budget)
    assert check_greedy(p, budget) == check_greedy(p, budget)
    assert check_exhaustive(p) == check_exhaustive(p)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_encoding_sat_iff_enumeration_feasible(seed):
    p = _random_problem(seed + 50_000)
    f = encode(p)
    verdict = solve(f, STEP_BUDGET).verdict
    expected = check_exhaustive(p)
    assert type(verdict) is type(expected)


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(step_limit=0)
