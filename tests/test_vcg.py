from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim import search, vcg
from repacksim.auction import determine_participants
from repacksim.instances import GeneratorParams, ValueSamplerParams, generate_instance, sample_values
from repacksim.model import ClearingTarget, UnpackableError, reduced_domain, validate_assignment
from repacksim.pricing import ScoringRule, default_initial_clock_price, volumes_for
from repacksim.vcg import (
    ResourceLimitError,
    optimal_packing,
    restricted_optimal_value,
    vcg_outcome,
)

from conftest import mk_instance


def enumerate_best_value(inst, values, participants, non_participants, ct):
    """Independent oracle: walk every channel assignment (participants may
    also stay unassigned) and track the best total participant value. Prunes
    only on constraint violations, never on value."""
    sids = sorted(inst.station_ids())
    parts = set(participants)
    nons = set(non_participants)
    conflicts = inst.conflicts_in_band(ct)
    domains = {sid: sorted(reduced_domain(inst.station(sid), ct)) for sid in sids}
    best = [-1.0]
    chosen = {}

    def fits(sid, ch):
        return all(chosen.get(o) != oc for o, oc in conflicts.get((sid, ch), ()))

    def walk(i, acc):
        if i == len(sids):
            if acc > best[0]:
                best[0] = acc
            return
        sid = sids[i]
        for ch in domains[sid]:
            if fits(sid, ch):
                chosen[sid] = ch
                walk(i + 1, acc + (values[sid] if sid in parts else 0.0))
                del chosen[sid]
        if sid not in nons:
            walk(i + 1, acc)

    walk(0, 0.0)
    return best[0] if best[0] >= 0 else None


# --------------------------------------------------------------- examples


def test_no_constraints_everyone_stays_on_air():
    inst = mk_instance([(1, {14}), (2, {14}), (3, {15})])
    values = {1: 5.0, 2: 3.0, 3: 2.0}
    assignment, total = optimal_packing(inst, values, (1, 2, 3), (), ClearingTarget(16))
    assert set(assignment) == {1, 2, 3}
    assert total == 10.0
    out = vcg_outcome(inst, values, (1, 2, 3), (), ClearingTarget(16))
    assert out.winners == ()
    assert out.prices == {}


def test_two_station_conflict_pricing():
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    values = {1: 5.0, 2: 3.0}
    ct = ClearingTarget(15)
    out = vcg_outcome(inst, values, (1, 2), (), ct)
    assert out.optimal_assignment == {1: 14}
    assert out.optimal_value == 5.0
    assert out.winners == (2,)
    assert out.prices == {2: 5.0}
    assert out.restricted_values == {2: 0.0}
    assert out.optimal_value - restricted_optimal_value(inst, values, (1, 2), (), ct, 2) == 5.0


def test_forced_station_changes_winner():
    # same instance, but the value-5 station does not participate: it must be
    # packed, so the value-3 participant goes off air at price zero externality
    inst = mk_instance([(1, {14}), (2, {14})], [(1, 14, 2, 14)])
    values = {1: 5.0, 2: 3.0}
    ct = ClearingTarget(15)
    out = vcg_outcome(inst, values, (2,), (1,), ct)
    assert out.optimal_assignment == {1: 14}
    assert out.optimal_value == 0.0
    assert out.winners == (2,)
    # forcing 2 on air evicts the non-participant: infeasible, degenerate rule
    assert out.restricted_values == {2: 0.0}
    assert out.prices == {2: 0.0}


def test_triangle_prices(triangle_one_channel):
    inst, ct = triangle_one_channel
    values = {1: 5.0, 2: 3.0, 3: 2.0}
    out = vcg_outcome(inst, values, (1, 2, 3), (), ct)
    assert out.optimal_assignment == {1: 14}
    assert out.optimal_value == 5.0
    assert out.winners == (2, 3)
    # forcing either loser on air evicts the value-5 station entirely
    assert out.prices == {2: 5.0, 3: 5.0}


def test_unpackable_non_participants_rejected(triangle_one_channel):
    inst, ct = triangle_one_channel
    values = {1: 5.0, 2: 3.0, 3: 2.0}
    with pytest.raises(UnpackableError):
        optimal_packing(inst, values, (3,), (1, 2), ct)


def test_partition_validation(triangle_one_channel):
    inst, ct = triangle_one_channel
    values = {1: 5.0, 2: 3.0, 3: 2.0}
    with pytest.raises(ValueError, match="both sets"):
        optimal_packing(inst, values, (1, 2), (2, 3), ct)
    with pytest.raises(ValueError, match="cover"):
        optimal_packing(inst, values, (1,), (2,), ct)


def test_node_budget_is_enforced():
    inst = mk_instance(
        [(i, {14, 15, 16}) for i in range(8)],
        [(a, c, b, c) for a in range(8) for b in range(a + 1, 8) for c in (14, 15, 16)],
    )
    values = {i: float(i + 1) for i in range(8)}
    with pytest.raises(ResourceLimitError):
        optimal_packing(
            inst, values, tuple(range(8)), (), ClearingTarget(17), node_budget=5
        )


def test_a_cut_station_splits_the_search():
    # ten conflicting pairs, each hanging off one hub by its first station,
    # all on one channel; the hub is worth most, so it is decided first and
    # leaves ten parts of two stations each
    stations, constraints, values = [(0, {14})], [], {0: 3.5}
    for k in range(10):
        a, b = 2 * k + 1, 2 * k + 2
        stations += [(a, {14}), (b, {14})]
        constraints += [(0, 14, a, 14), (a, 14, b, 14)]
        values[a], values[b] = 3.0, 2.75
    inst = mk_instance(stations, constraints)
    # Searched as one, the ten pairs' 2**10 choices are all open while the hub
    # is off the air: plain branch and bound spent 2,458 nodes here.
    assignment, total = optimal_packing(
        inst, values, inst.station_ids(), (), ClearingTarget(15), node_budget=100
    )
    assert total == 31.0
    assert sorted(assignment) == [0, *range(2, 21, 2)]


# --------------------------------------------------------------- random sweeps


def _random_case(seed, max_stations=10):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_stations + 1))
    channels = 2 if n > 8 else int(rng.integers(2, 4))
    params = GeneratorParams(
        n_stations=n,
        channel_lo=14,
        channel_hi=14 + channels - 1,
        co_channel_radius=float(rng.uniform(0.2, 0.8)),
        adjacent_channel_radius=float(rng.uniform(0.0, 0.2)),
        seed=int(rng.integers(0, 2**32)),
    )
    inst = generate_instance(params)
    values = sample_values(
        inst, ValueSamplerParams(log_mean=2.0, log_sd=1.0, seed=int(rng.integers(0, 2**32)))
    )
    ct = ClearingTarget(14 + channels)
    return inst, values, ct


@pytest.mark.parametrize("seed", range(60))
def test_optimal_matches_enumeration_and_prices_rational(seed):
    inst, values, ct = _random_case(seed)
    participants = inst.station_ids()
    assignment, total = optimal_packing(inst, values, participants, (), ct)
    assert validate_assignment(assignment, inst, ct)
    oracle = enumerate_best_value(inst, values, participants, (), ct)
    assert total == pytest.approx(oracle, rel=1e-12)
    out = vcg_outcome(inst, values, participants, (), ct)
    for sid in out.winners:
        assert out.prices[sid] >= values[sid]
        assert out.prices[sid] >= 0.0
        # component-local pricing agrees bitwise with a full re-solve
        cold = restricted_optimal_value(inst, values, participants, (), ct, sid)
        assert out.optimal_value - cold == out.prices[sid]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=5, max_value=8),
    channels=st.integers(min_value=1, max_value=3),
    forced=st.integers(min_value=1, max_value=2**8 - 1),
    split=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_forced_packings_and_restricted_values_match_enumeration(
    seed, n, channels, forced, split
):
    # Draws of 5-8 stations, sparse enough that about a third of them have a
    # cut station. `split` lets the AND/OR search run on them too, below the
    # size it starts at by default.
    rng = np.random.default_rng(seed)
    inst = generate_instance(
        GeneratorParams(
            n_stations=n,
            channel_lo=14,
            channel_hi=13 + channels,
            co_channel_radius=float(rng.uniform(0.3, 0.7)),
            adjacent_channel_radius=float(rng.uniform(0.0, 0.1)),
            seed=int(rng.integers(0, 2**32)),
        )
    )
    values = sample_values(
        inst, ValueSamplerParams(log_mean=2.0, log_sd=1.0, seed=int(rng.integers(0, 2**32)))
    )
    ct = ClearingTarget(14 + channels)
    sids = inst.station_ids()
    nons = [sid for k, sid in enumerate(sids) if forced >> k & 1] or sids[:1]
    parts = [sid for sid in sids if sid not in nons]
    oracle = enumerate_best_value(inst, values, parts, nons, ct)
    with mock.patch.object(search, "SPLIT_MIN", 2 if split else search.SPLIT_MIN):
        if oracle is None:
            with pytest.raises(UnpackableError):
                optimal_packing(inst, values, parts, nons, ct)
            return
        _, total = optimal_packing(inst, values, parts, nons, ct)
        out = vcg_outcome(inst, values, parts, nons, ct)
        for comp in vcg._components(inst, ct):
            (packing, value), _ = _cold_solve(comp, frozenset(nons), values, inst, ct)
            # the value the search reports is what its packing is worth
            assert value == pytest.approx(sum(values[sid] for sid in packing if sid in parts))
    # equal-value packings may add their values in another order
    assert total == pytest.approx(oracle, rel=1e-12)
    assert out.optimal_value == total
    for sid in out.winners:
        rest = [p for p in parts if p != sid]
        restricted = enumerate_best_value(inst, values, rest, [*nons, sid], ct)
        assert out.restricted_values[sid] == pytest.approx(restricted or 0.0, rel=1e-12)


def _cold_solve(comp, forced, values, inst, ct, warm_start=None, ranked_by=None):
    """``vcg._solve_component`` on a search context of its own, its model
    ranked as a solve forcing ``ranked_by`` ranks it (by default ``forced``),
    and the nodes it spent."""
    counter = vcg._NodeCounter(vcg.DEFAULT_NODE_BUDGET)
    component = vcg._Component(comp, forced if ranked_by is None else ranked_by, values, inst, ct)
    solved = vcg._solve_component(component, forced, counter, warm_start)
    return solved, counter.spent


def _grid_sized_case(seed):
    """A draw shaped like the acceptance directional grid: 25-34 stations,
    channels 14-16 under ``bar_c=17``, its radii and value sampler, and the
    scored rule's participation. Forcing a winner on air there evicts
    neighbors that the warm start has to re-place."""
    rng = np.random.default_rng(seed)
    ct = ClearingTarget(17)
    inst = generate_instance(
        GeneratorParams(
            n_stations=int(rng.integers(25, 35)),
            channel_lo=14,
            channel_hi=16,
            co_channel_radius=0.26,
            adjacent_channel_radius=0.065,
            seed=int(rng.integers(0, 2**32)),
        )
    )
    values = sample_values(
        inst,
        ValueSamplerParams(
            log_mean=8.0,
            log_sd=1.0,
            population_exponent=0.7,
            seed=int(rng.integers(0, 2**32)),
        ),
    )
    participants, non_participants = determine_participants(
        inst,
        values,
        volumes_for(inst, ct, ScoringRule.FCC),
        default_initial_clock_price(ScoringRule.FCC),
    )
    return inst, values, participants, non_participants, ct


@pytest.mark.parametrize("seed", range(5))
def test_grid_sized_prices_match_cold_resolves(seed):
    inst, values, parts, nons, ct = _grid_sized_case(seed)
    out = vcg_outcome(inst, values, parts, nons, ct)
    assert validate_assignment(out.optimal_assignment, inst, ct)
    assert out.winners
    for sid in out.winners:
        assert out.prices[sid] >= values[sid]
        # the warm-started re-solve agrees bitwise with a cold full re-solve
        cold = restricted_optimal_value(inst, values, parts, nons, ct, sid)
        assert out.optimal_value - cold == out.prices[sid]


def test_warm_start_fires_and_never_adds_nodes():
    fired = 0
    for seed in range(3):
        inst, values, parts, nons, ct = _grid_sized_case(seed)
        out = vcg_outcome(inst, values, parts, nons, ct)
        components = vcg._components(inst, ct)
        for sid in out.winners:
            comp = next(c for c in components if sid in c)
            forced = frozenset(nons) | {sid}
            cold_solved, cold = _cold_solve(comp, forced, values, inst, ct)
            warm_solved, warm = _cold_solve(
                comp, forced, values, inst, ct, warm_start=(out.optimal_assignment, sid)
            )
            assert warm <= cold
            # the packings may differ in the order their values were added
            assert warm_solved[1] == pytest.approx(cold_solved[1], rel=1e-12)
            fired += warm < cold
    assert fired >= 10


@pytest.mark.parametrize("seed", range(5))
def test_resolves_share_their_component_search_context(seed):
    # The same solves, each on a context of its own, spend more: a re-solve
    # finds parts that the base solve or an earlier re-solve already solved.
    inst, values, parts, nons, ct = _grid_sized_case(seed)
    nons = frozenset(nons)
    out = vcg_outcome(inst, values, parts, nons, ct)
    components = vcg._components(inst, ct)
    alone = sum(_cold_solve(comp, nons, values, inst, ct)[1] for comp in components)
    for sid in out.winners:
        comp = next(c for c in components if sid in c)
        warm_start = (out.optimal_assignment, sid)
        alone += _cold_solve(comp, nons | {sid}, values, inst, ct, warm_start, ranked_by=nons)[1]
    assert out.nodes < alone


def test_no_search_state_outlives_a_call():
    first = vcg_outcome(*_grid_sized_case(0))
    vcg_outcome(*_grid_sized_case(1))
    assert vcg_outcome(*_grid_sized_case(0)) == first


def test_node_budget_runs_out_in_a_resolve():
    # The first grid-sized draw where some re-solve needs more nodes than the
    # whole base solve; re-solves share what the base solve cached, so on
    # most draws none does.
    for seed in range(20):
        inst, values, parts, nons, ct = _grid_sized_case(seed)
        out = vcg_outcome(inst, values, parts, nons, ct)
        # the base solve alone needs exactly `base` nodes: the least budget
        # under which the plain optimum is found
        low, high = 0, out.nodes
        while low < high:
            middle = (low + high) // 2
            try:
                optimal_packing(inst, values, parts, nons, ct, node_budget=middle)
                high = middle
            except ResourceLimitError:
                low = middle + 1
        base = low
        assert 0 < base < out.nodes
        # the base solve fits that budget, so a raise comes from a re-solve
        try:
            vcg_outcome(inst, values, parts, nons, ct, node_budget=base)
        except ResourceLimitError:
            break
    else:
        pytest.fail("no re-solve of seeds 0-19 needs more nodes than its base solve")
    assert vcg_outcome(inst, values, parts, nons, ct, node_budget=out.nodes) == out


def test_winner_reporting_above_price_stops_winning():
    rng = np.random.default_rng(5)
    checked = 0
    for seed in range(30):
        inst, values, ct = _random_case(seed + 500, max_stations=7)
        participants = inst.station_ids()
        out = vcg_outcome(inst, values, participants, (), ct)
        for sid in out.winners:
            raised = dict(values)
            raised[sid] = out.prices[sid] * (1 + 1e-9) + 1e-9
            again = vcg_outcome(inst, raised, participants, (), ct)
            assert sid not in again.winners
            checked += 1
        if checked >= 10:
            break
    assert checked >= 10


def test_restricted_value_degenerate_rule():
    # a station with an empty reduced domain can never be forced on air
    inst = mk_instance([(1, {20}), (2, {14})], universe=(14, 20))
    values = {1: 3.0, 2: 9.0}
    ct = ClearingTarget(15)
    assert restricted_optimal_value(inst, values, (1, 2), (), ct, 1) == 0.0
    out = vcg_outcome(inst, values, (1, 2), (), ct)
    assert out.winners == (1,)
    assert out.prices == {1: 9.0}  # the full optimal value

