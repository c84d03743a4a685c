"""The packing search runs in a loop, so its callers' stack depth is all the
stack it needs, and it decides a lead station before any other."""

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


def test_the_lead_station_is_decided_first():
    # station 3 has the most channels and the last rank, so without a lead
    # the fewest-channels-left rule decides it last
    inst = mk_instance(
        [(1, {14}), (2, {14, 15}), (3, {14, 15, 16})],
        [(1, 14, 2, 14), (2, 15, 3, 15)],
    )
    ct = ClearingTarget(17)
    model = PackingModel(inst, ct, [1, 2, 3])
    for k in range(3):
        packing, _ = search(model, [0.0] * 3, [True] * 3, NodeCounter(100), first=True, lead=k)
        # with `first`, the packing lists its stations in the order decided
        assert next(iter(packing)) == model.order[k]
        assert validate_assignment(packing, inst, ct) and len(packing) == 3
