import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim.feasibility import (
    Budget,
    EXHAUSTIVE_SPACE_LIMIT,
    Feasible,
    FeasibilityProblem,
    Infeasible,
    InvalidProblemError,
    SearchSpaceError,
    Timeout,
    check_exhaustive,
    check_greedy,
    check_sat,
    encode,
    solve,
)
from repacksim.instances import GeneratorParams, generate_instance
from repacksim.model import ClearingTarget, validate_assignment

from conftest import mk_instance

STEP_BUDGET = Budget(step_limit=100_000)


_MASK_CACHE: dict[int, list] = {}


def _var_masks(n_vars: int):
    if n_vars not in _MASK_CACHE:
        idx = np.arange(1 << n_vars, dtype=np.uint64)
        _MASK_CACHE[n_vars] = [
            np.packbits(((idx >> np.uint64(v - 1)) & np.uint64(1)).astype(bool))
            for v in range(1, n_vars + 1)
        ]
    return _MASK_CACHE[n_vars]


def cnf_satisfiable_bruteforce(n_vars: int, clauses) -> bool:
    """Truth-table oracle over packed bit vectors: one bit per assignment."""
    var_mask = _var_masks(n_vars)
    sat = np.full(len(var_mask[0]) if n_vars else 1, 0xFF, dtype=np.uint8)
    if not n_vars:
        sat = np.array([0x80], dtype=np.uint8)  # single empty assignment
    for clause in clauses:
        if not clause:
            return False
        acc = np.zeros_like(sat)
        for lit in clause:
            mask = var_mask[abs(lit) - 1]
            acc |= mask if lit > 0 else ~mask
        sat &= acc
        if not sat.any():
            return False
    if n_vars:
        # packbits pads the tail with zeros, which is harmless for any().
        return bool(sat.any())
    return bool(sat.any())


class FakeFormula:
    """Minimal stand-in so `solve` can run on raw clause lists."""

    def __init__(self, n_vars, clauses):
        self.pair_of = tuple((0, i) for i in range(n_vars))
        self.clauses = clauses


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


def test_encode_one_station_two_channels():
    inst = mk_instance([(1, {14, 15})])
    f = encode(FeasibilityProblem(1, {}, inst, ClearingTarget(16)))
    assert f.n_vars == 2
    assert f.clauses == [[1, 2]]


def test_encode_shared_channel_conflict_is_unsat():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    f = encode(FeasibilityProblem(2, {1: 14}, inst, ClearingTarget(15)))
    assert f.n_vars == 2
    assert sorted(len(c) for c in f.clauses) == [1, 1, 2]
    result = solve(f, STEP_BUDGET)
    assert result.status == "unsat"
    # agrees with the truth table over all four assignments
    assert cnf_satisfiable_bruteforce(f.n_vars, f.clauses) is False


def test_dimacs_export():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    f = encode(FeasibilityProblem(2, {1: 14}, inst, ClearingTarget(15)))
    text = f.to_dimacs()
    lines = text.splitlines()
    assert lines[0] == "p cnf 2 3"
    assert "c var 1 station 1 channel 14" in lines
    assert all(line.endswith(" 0") for line in lines if line[0] not in "pc")


# ---------------------------------------------------------------- solve


def test_solve_trivial_cases():
    empty = FakeFormula(0, [])
    assert solve(empty, STEP_BUDGET).status == "sat"
    assert solve(empty, STEP_BUDGET).model == {}
    contradiction = FakeFormula(1, [[1], [-1]])
    assert solve(contradiction, STEP_BUDGET).status == "unsat"
    has_empty = FakeFormula(1, [[1], []])
    assert solve(has_empty, STEP_BUDGET).status == "unsat"


def test_solve_returns_full_model():
    f = FakeFormula(3, [[1, 2]])
    result = solve(f, STEP_BUDGET)
    assert result.status == "sat"
    assert set(result.model) == {1, 2, 3}


def test_solve_step_budget_timeout():
    # pigeonhole: 5 pigeons, 4 holes, tiny budget
    def var(p, h):
        return p * 4 + h + 1

    clauses = [[var(p, h) for h in range(4)] for p in range(5)]
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                clauses.append([-var(p1, h), -var(p2, h)])
    f = FakeFormula(20, clauses)
    assert solve(f, Budget(step_limit=3)).status == "timeout"
    assert solve(f, Budget(step_limit=200_000)).status == "unsat"


def test_solve_respects_polarity_hint():
    inst = mk_instance([(1, {14, 15}), (2, {14, 15})])
    p = FeasibilityProblem(2, {1: 15}, inst, ClearingTarget(16))
    f = encode(p)
    result = solve(f, STEP_BUDGET, polarity_hint={1: 15})
    assert result.status == "sat"
    var_15 = f.var_of[(1, 15)]
    var_14 = f.var_of[(1, 14)]
    assert result.model[var_15] is True
    assert result.model[var_14] is False


def _random_3cnf(rng, n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.choice(n_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append([int(v * s) for v, s in zip(chosen, signs)])
    return clauses


def test_solver_matches_truth_table_on_random_3cnf():
    rng = np.random.default_rng(20260808)
    checked = {True: 0, False: 0}
    for i in range(1000):
        n_vars = 20
        # sweep across densities so both outcomes are common
        n_clauses = int(rng.integers(int(2.0 * n_vars), int(6.0 * n_vars)))
        clauses = _random_3cnf(rng, n_vars, n_clauses)
        expected = cnf_satisfiable_bruteforce(n_vars, clauses)
        result = solve(FakeFormula(n_vars, clauses), Budget(step_limit=2_000_000))
        assert result.status == ("sat" if expected else "unsat"), f"case {i}"
        checked[expected] += 1
        if result.status == "sat":
            for clause in clauses:
                assert any(
                    result.model[abs(lit)] == (lit > 0) for lit in clause
                ), f"model violates clause in case {i}"
    assert checked[True] > 50 and checked[False] > 50


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


def _random_problem(seed):
    """Seeded problem: generate an instance, greedily pack a prefix, and aim
    the checkers at the first station the greedy pass could not place (or the
    last packed one when everything fits)."""
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
    if target is None:
        target = order[-1]
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
    result = solve(f, STEP_BUDGET)
    expected = check_exhaustive(p)
    assert result.status == ("sat" if isinstance(expected, Feasible) else "unsat")


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(step_limit=0)
