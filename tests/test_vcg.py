import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim import feasibility, vcg
from repacksim.auction import determine_participants
from repacksim.instances import GeneratorParams, ValueSamplerParams, generate_instance, sample_values
from repacksim.model import (
    ClearingTarget,
    Instance,
    UnpackableError,
    interference_graph,
    validate_assignment,
)
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
    domains = {sid: sorted(ct.reduced(inst.station(sid).domain)) for sid in sids}
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
    # all on one channel
    stations, constraints, values = [(0, {14})], [], {0: 3.5}
    for k in range(10):
        a, b = 2 * k + 1, 2 * k + 2
        stations += [(a, {14}), (b, {14})]
        constraints += [(0, 14, a, 14), (a, 14, b, 14)]
        values[a], values[b] = 3.0, 2.75
    inst = mk_instance(stations, constraints)
    # The graph is a tree: max-sum needs 20 tables of 4 entries. Conditioned
    # on the hub, the station with the most neighbours, each branch falls
    # into ten parts: with the hub on air, ten lone first stations of 1
    # state and ten second stations of 2; off the air, ten pairs of 4
    # entries. The ten pairs' 2**10 choices are never enumerated.
    sids, ct = inst.station_ids(), ClearingTarget(15)
    for limit, entries in ((vcg.MAX_SUM_ENTRIES, 80), (8, 70)):
        with mock.patch.object(vcg, "MAX_SUM_ENTRIES", limit):
            assignment, total = optimal_packing(inst, values, sids, (), ct, node_budget=100)
            assert vcg_outcome(inst, values, sids, (), ct).nodes == entries
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
    conditioned=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_forced_packings_and_restricted_values_match_enumeration(
    seed, n, channels, forced, conditioned
):
    # Draws of 5-8 stations. `conditioned` lowers the entry limit so far
    # that every part of two or more stations is conditioned on a station,
    # mostly more than once.
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
    with mock.patch.object(vcg, "MAX_SUM_ENTRIES", 8 if conditioned else vcg.MAX_SUM_ENTRIES):
        if oracle is None:
            with pytest.raises(UnpackableError):
                optimal_packing(inst, values, parts, nons, ct)
            return
        assignment, total = optimal_packing(inst, values, parts, nons, ct)
        out = vcg_outcome(inst, values, parts, nons, ct)
    assert validate_assignment(assignment, inst, ct)
    # equal-value packings may add their values in another order
    assert total == pytest.approx(oracle, rel=1e-12)
    assert out.optimal_value == total
    for sid in out.winners:
        rest = [p for p in parts if p != sid]
        restricted = enumerate_best_value(inst, values, rest, [*nons, sid], ct)
        assert out.restricted_values[sid] == pytest.approx(restricted or 0.0, rel=1e-12)


def _graph_components(inst, ct):
    """The connected components of ``interference_graph`` by depth-first
    search from each station in ascending order, each sorted."""
    graph = interference_graph(inst, ct)
    seen, components = set(), []
    for root in sorted(graph):
        if root in seen:
            continue
        seen.add(root)
        stack, component = [root], []
        while stack:
            sid = stack.pop()
            component.append(sid)
            for other in graph[sid] - seen:
                seen.add(other)
                stack.append(other)
        components.append(sorted(component))
    return components


def _solved_components(inst, ct):
    """The parts that ``vcg_outcome`` hands max-sum when every station is a
    participant, each in ascending position order, in the order solved. No
    part is conditioned, so they are the interference components."""
    solved, refused, spy = _spying_max_sum()
    ids = inst.station_ids()
    with mock.patch.object(vcg, "_max_sum", spy):
        vcg_outcome(inst, dict.fromkeys(ids, 1.0), ids, [], ct)
    assert refused == []
    return solved


@pytest.mark.parametrize("n", [10, 15, 20])
@pytest.mark.parametrize("seed", range(1, 5))
@pytest.mark.parametrize("bar_c", [15, 17])
def test_components_are_those_of_the_interference_graph(n, seed, bar_c):
    # the sweep geometry, whose draws fall into several components
    inst = generate_instance(
        GeneratorParams(
            n_stations=n,
            channel_lo=14,
            channel_hi=18,
            co_channel_radius=0.35,
            adjacent_channel_radius=0.1,
            seed=seed,
        )
    )
    ct = ClearingTarget(bar_c)
    assert _solved_components(inst, ct) == _graph_components(inst, ct)


def test_components_of_stations_without_conflicts_or_channels():
    # 1 has no conflict; 2 has no channel below bar_c, and its constraint
    # with 4 lies above it; 3's two channels exclude each other
    inst = mk_instance(
        [(1, {14}), (2, {20}), (3, {14, 15}), (4, {14, 20}), (5, {14}), (6, {15})],
        [(3, 14, 3, 15), (3, 15, 6, 15), (2, 20, 4, 20), (4, 14, 5, 14)],
    )
    ct = ClearingTarget(17)
    solved = _solved_components(inst, ct)
    assert solved == _graph_components(inst, ct) == [[1], [2], [3, 6], [4, 5]]


def _grid_sized_case(seed):
    """A draw shaped like the acceptance directional grid: 25-34 stations,
    channels 14-16 under ``bar_c=17``, its radii and value sampler, and the
    scored rule's participation."""
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
        # the packing decoded with the winner on air agrees bitwise with a
        # cold full re-solve
        cold = restricted_optimal_value(inst, values, parts, nons, ct, sid)
        assert out.optimal_value - cold == out.prices[sid]


def test_no_search_state_outlives_a_call():
    first = vcg_outcome(*_grid_sized_case(0))
    vcg_outcome(*_grid_sized_case(1))
    assert vcg_outcome(*_grid_sized_case(0)) == first


def test_the_benchmark_reads_the_channel_table_without_a_packing_model():
    case = _grid_sized_case(0)
    shipped, conditioned = vcg_outcome(*case), _conditioned(*case)
    cut = mock.patch.object(
        feasibility.PackingModel, "__init__", side_effect=AssertionError("a packing model was cut")
    )
    with cut:
        assert vcg_outcome(*case) == shipped
        assert _conditioned(*case) == conditioned


# --------------------------------------------------------------- max-sum


def _conditioned(*args):
    """``vcg_outcome`` under an entry limit of 1,000, which conditions every
    component of more than a few stations, mostly more than once."""
    with mock.patch.object(vcg, "MAX_SUM_ENTRIES", 1_000):
        return vcg_outcome(*args)


def _assert_methods_agree(inst, values, participants, non_participants, ct):
    """``vcg_outcome`` as shipped and under :func:`_conditioned` give
    bitwise-equal values, winners and prices, and valid optimal packings
    with the same stations on air; returns the outcome, or None when the
    non-participants cannot all be placed. The branching compared is
    conditioning, which branches on a station's states with no bound."""
    try:
        out = vcg_outcome(inst, values, participants, non_participants, ct)
    except UnpackableError:
        with pytest.raises(UnpackableError):
            _conditioned(inst, values, participants, non_participants, ct)
        return None
    conditioned = _conditioned(inst, values, participants, non_participants, ct)
    assert out.optimal_value == conditioned.optimal_value
    assert out.winners == conditioned.winners
    assert out.prices == conditioned.prices
    assert out.restricted_values == conditioned.restricted_values
    assert validate_assignment(out.optimal_assignment, inst, ct)
    assert validate_assignment(conditioned.optimal_assignment, inst, ct)
    assert set(out.optimal_assignment) == set(conditioned.optimal_assignment)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_max_sum_and_conditioning_agree_at_grid_size(seed):
    assert _assert_methods_agree(*_grid_sized_case(seed)).winners


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=5, max_value=16),
    channels=st.integers(min_value=1, max_value=3),
    forced=st.sets(st.integers(min_value=0, max_value=15), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_max_sum_and_conditioning_agree_on_forced_draws(seed, n, channels, forced):
    rng = np.random.default_rng(seed)
    inst = generate_instance(
        GeneratorParams(
            n_stations=n,
            channel_lo=14,
            channel_hi=13 + channels,
            co_channel_radius=float(rng.uniform(0.2, 0.6)),
            adjacent_channel_radius=float(rng.uniform(0.0, 0.1)),
            seed=int(rng.integers(0, 2**32)),
        )
    )
    values = sample_values(
        inst, ValueSamplerParams(log_mean=2.0, log_sd=1.0, seed=int(rng.integers(0, 2**32)))
    )
    sids = inst.station_ids()
    nons = [sid for k, sid in enumerate(sids) if k in forced]
    parts = [sid for sid in sids if sid not in nons]
    _assert_methods_agree(inst, values, parts, nons, ClearingTarget(14 + channels))


def _spying_max_sum():
    """A stand-in for ``vcg._max_sum`` that records the stations of each
    part it solves, as a list in position order, and of each part whose
    tables do not fit, so that it is conditioned on a station."""
    solved, refused = [], []

    def spy(table, ids, part, *args):
        packed = _max_sum(table, ids, part, *args)
        if packed is None:
            refused.append(frozenset(ids[g] for g in part))
        else:
            solved.append([ids[g] for g in part])
        return packed

    _max_sum = vcg._max_sum
    return solved, refused, spy


@pytest.mark.parametrize("seed", range(10))
def test_grid_sized_components_take_max_sum(seed):
    inst, values, parts, nons, ct = _grid_sized_case(seed)
    _, refused, spy = _spying_max_sum()
    with mock.patch.object(vcg, "_max_sum", spy):
        vcg_outcome(inst, values, parts, nons, ct)
    assert max(map(len, _graph_components(inst, ct))) >= 16
    assert refused == []


def test_a_component_over_the_entry_limit_takes_conditioning():
    # The largest component needs 47,417 entries, the other two 112 and 36,
    # so under a limit of 1,000 only the largest is conditioned on a
    # station: it branches on that station's states, with no bound.
    inst, values, parts, nons, ct = _grid_sized_case(0)
    _, refused, spy = _spying_max_sum()
    with mock.patch.object(vcg, "_max_sum", spy):
        with mock.patch.object(vcg, "MAX_SUM_ENTRIES", 1_000):
            mixed = vcg_outcome(inst, values, parts, nons, ct)
    largest = frozenset(max(_graph_components(inst, ct), key=len))
    # the whole component first, then only parts of it
    assert refused[0] == largest
    assert all(part < largest for part in refused[1:])
    out = vcg_outcome(inst, values, parts, nons, ct)
    assert (mixed.optimal_value, mixed.winners, mixed.prices, mixed.restricted_values) == (
        out.optimal_value,
        out.winners,
        out.prices,
        out.restricted_values,
    )
    assert set(mixed.optimal_assignment) == set(out.optimal_assignment)
    assert mixed.nodes != out.nodes


def test_max_sum_spends_its_table_entries_once():
    # Max-sum spends its tables' entries from the base solve's budget and
    # prices its winners with no re-solve, so the budget the plain optimum
    # needs is all the outcome needs.
    inst, values, parts, nons, ct = _grid_sized_case(0)
    out = vcg_outcome(inst, values, parts, nons, ct)
    assert out.winners
    # the tables of its three components hold 47,417, 112 and 36 entries
    assert out.nodes == 47_565
    optimal_packing(inst, values, parts, nons, ct, node_budget=out.nodes)
    assert vcg_outcome(inst, values, parts, nons, ct, node_budget=out.nodes) == out
    with pytest.raises(ResourceLimitError):
        optimal_packing(inst, values, parts, nons, ct, node_budget=out.nodes - 1)
    with pytest.raises(ResourceLimitError):
        vcg_outcome(inst, values, parts, nons, ct, node_budget=out.nodes - 1)


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



# --------------------------------------------------------------- kept models


def _outcomes(inst, ct, calls):
    """Each call's outcome on ``inst``: its repr, which holds ``nodes``, and
    its packing's items in order, or the error it raises."""
    found = []
    for values, participants, non_participants in calls:
        try:
            out = vcg_outcome(inst, values, participants, non_participants, ct)
        except UnpackableError as error:
            found.append(repr(error))
            continue
        found.append((repr(out), list(out.optimal_assignment.items())))
    return found


@pytest.mark.parametrize("seed", range(3))
def test_outcomes_do_not_depend_on_the_calls_an_instance_served_before(seed):
    # Each instance keeps the max-sum models of its components; the
    # outcomes of calls on one instance, in either order, are those of the
    # same calls each on an instance of its own.
    inst, values, parts, nons, ct = _grid_sized_case(seed)
    other = sample_values(
        inst, ValueSamplerParams(log_mean=8.0, log_sd=1.0, population_exponent=0.7, seed=seed)
    )
    sids = inst.station_ids()
    unscored = determine_participants(
        inst,
        other,
        volumes_for(inst, ct, ScoringRule.UNSCORED),
        default_initial_clock_price(ScoringRule.UNSCORED),
    )
    calls = [
        (values, parts, nons),
        (values, sids, ()),
        (other, *unscored),
        (other, parts, nons),
        (other, sids[1::3], [s for s in sids if s not in sids[1::3]]),
        (values, parts[1:], (*nons, parts[0])),
    ]

    def twin():
        return Instance(inst.stations, inst.constraints, inst.channel_universe)

    fresh = [_outcomes(twin(), ct, [call])[0] for call in calls]
    assert any(isinstance(out, tuple) for out in fresh)
    for order in (calls, calls[::-1]):
        shared = twin()
        assert _outcomes(shared, ct, order) == (fresh if order is calls else fresh[::-1])
    assert shared.derived(ct)["max_sum"][1]


def test_a_part_over_the_entry_limit_is_not_kept():
    inst, values, parts, nons, ct = _grid_sized_case(0)
    largest = max(_graph_components(inst, ct), key=len)
    with mock.patch.object(vcg, "MAX_SUM_ENTRIES", 1_000):
        conditioned = vcg_outcome(inst, values, parts, nons, ct)
        components, models = inst.derived(ct)["max_sum"]
        full = [[len(chs) + 1 for chs in model.channels] for model in models.values()]
        assert full and all(
            model.entries(sizes) <= 1_000 for model, sizes in zip(models.values(), full)
        )
        assert not any(model.sids == largest for model in models.values())
        assert vcg_outcome(inst, values, parts, nons, ct) == conditioned
    # under the shipped limit every component is kept, and a kept model
    # over a lowered limit is still conditioned
    vcg_outcome(inst, values, parts, nons, ct)
    assert len(models) == len(components)
    with mock.patch.object(vcg, "MAX_SUM_ENTRIES", 1_000):
        assert vcg_outcome(inst, values, parts, nons, ct) == conditioned


def test_the_kept_models_go_with_their_instance():
    inst, values, parts, nons, ct = _grid_sized_case(0)
    vcg_outcome(inst, values, parts, nons, ct)
    assert inst.derived(ct)["max_sum"][1]
    gone = weakref.ref(inst)
    del inst
    gc.collect()
    assert gone() is None
