"""The feasibility checks' packing search runs in a loop, so its callers'
stack depth is all the stack it needs, and it returns the first packing of
every station or None."""

import sys

from repacksim.auction import CheckerKind, initial_assignment
from repacksim.feasibility import Budget, Feasible, FeasibilityProblem, check_greedy, check_sat
from repacksim.instances import GeneratorParams, ValueSamplerParams, generate_instance, sample_values
from repacksim.model import ClearingTarget, validate_assignment
from repacksim.search import NodeCounter, PackingModel, search
from repacksim.vcg import optimal_packing

from conftest import mk_instance


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_grid_sized_searches_need_no_stack_per_station():
    # a 31-station draw of the acceptance grid, with its value sampler
    ct = ClearingTarget(17)
    inst = generate_instance(
        GeneratorParams(
            n_stations=31,
            channel_lo=14,
            channel_hi=17,
            co_channel_radius=0.26,
            adjacent_channel_radius=0.065,
            seed=1006,
        )
    )
    values = sample_values(
        inst, ValueSamplerParams(log_mean=8.0, log_sd=1.0, population_exponent=0.7, seed=20078)
    )
    sids = inst.station_ids()
    budget = Budget(step_limit=50_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        assignment, _ = optimal_packing(inst, values, sids, (), ct)
        packed = initial_assignment(inst, sorted(assignment), ct, CheckerKind.SAT, budget)
        # aim at a station the packing as it stands has no room for, so the
        # check runs the search over all 31 stations
        target = next(
            sid
            for sid in sids
            if sid not in assignment
            and not isinstance(
                check_greedy(FeasibilityProblem(sid, dict(assignment), inst, ct), budget),
                Feasible,
            )
        )
        problem = FeasibilityProblem(target, dict(assignment), inst, ct)
        verdict = check_sat(problem, budget)
    finally:
        sys.setrecursionlimit(limit)
    assert len(sids) == 31
    assert validate_assignment(assignment, inst, ct)
    assert validate_assignment(packed, inst, ct) and set(packed) == set(assignment)
    if isinstance(verdict, Feasible):
        assert validate_assignment(verdict.certificate, inst, ct)
        assert len(verdict.certificate) == len(assignment) + 1


def test_the_search_returns_the_first_packing_or_none():
    inst = mk_instance(
        [(1, {14}), (2, {14, 15}), (3, {14, 15, 16})],
        [(1, 14, 2, 14), (2, 15, 3, 15)],
    )
    model = PackingModel(inst, ClearingTarget(17), [1, 2, 3])
    counter = NodeCounter(100)
    packing = search(model, counter)
    assert validate_assignment(packing, inst, ClearingTarget(17)) and len(packing) == 3
    # one node per channel tried: 1 on 14, 2 on 15, 3 on 14
    assert counter.spent == 3
    # under 15, stations 1 and 2 both have only channel 14
    assert search(PackingModel(inst, ClearingTarget(15), [1, 2, 3]), NodeCounter(100)) is None
