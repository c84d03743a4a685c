import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim.model import (
    ClearingTarget,
    Instance,
    InterferenceConstraint,
    Station,
    UnknownStationError,
    interference_graph,
    validate_assignment,
)

from conftest import mk_instance


def test_station_invariants():
    st_ = Station(3, {14, 15}, 100, 14)
    assert st_.domain == frozenset({14, 15})
    with pytest.raises(ValueError):
        Station(1, set(), 100, 14)
    with pytest.raises(ValueError):
        Station(1, {14}, 100, 15)
    with pytest.raises(ValueError):
        Station(1, {14}, -5, 14)
    with pytest.raises(ValueError):
        Station(-1, {14}, 100, 14)


def test_constraint_canonical_order():
    a = InterferenceConstraint((2, 14), (1, 15))
    b = InterferenceConstraint((1, 15), (2, 14))
    assert a == b
    assert a.first == (1, 15) and a.second == (2, 14)
    assert len({a, b}) == 1
    with pytest.raises(ValueError):
        InterferenceConstraint((1, 14), (1, 14))


def test_instance_rejects_bad_references():
    with pytest.raises(ValueError):
        mk_instance([(1, {14}), (1, {15})], universe=range(14, 16))
    with pytest.raises(UnknownStationError):
        mk_instance([(1, {14})], [(1, 14, 9, 14)])
    # constraint channel outside the named station's domain
    with pytest.raises(ValueError):
        Instance(
            (Station(1, {14}, 10, 14), Station(2, {15}, 10, 15)),
            frozenset({InterferenceConstraint((1, 14), (2, 14))}),
            (14, 15),
        )
    # domain outside universe
    with pytest.raises(ValueError):
        Instance((Station(1, {14, 20}, 10, 14),), frozenset(), (14, 15))


def test_validate_assignment_examples(two_station_conflict):
    inst, ct = two_station_conflict
    # empty assignment is vacuously valid
    assert validate_assignment({}, inst, ct) is True
    # constraint directly violated
    assert validate_assignment({1: 14, 2: 14}, inst, ct) is False
    # the only constraint is avoided
    assert validate_assignment({1: 15, 2: 14}, inst, ct) is True
    # channel at or above the clearing target is invalid
    assert validate_assignment({1: 16}, inst, ct) is False
    # unknown station is a structural error, not False
    with pytest.raises(UnknownStationError):
        validate_assignment({9: 14}, inst, ct)


def test_validate_assignment_channel_outside_domain(two_station_conflict):
    inst, ct = two_station_conflict
    assert validate_assignment({2: 15}, inst, ct) is False


def test_reduced_domain_examples():
    st_ = Station(1, set(range(14, 37)), 100, 14)
    assert ClearingTarget(29).reduced(st_.domain) == frozenset(range(14, 29))
    st2 = Station(2, {30, 31}, 100, 30)
    assert ClearingTarget(29).reduced(st2.domain) == frozenset()
    st3 = Station(3, {14}, 100, 14)
    assert ClearingTarget(15).reduced(st3.domain) == frozenset({14})


def test_interference_graph_examples():
    inst = mk_instance([(1, {14, 15}), (2, {14, 15})], universe=range(14, 16))
    ct = ClearingTarget(29)
    assert interference_graph(inst, ct) == {1: set(), 2: set()}

    inst2 = mk_instance([(1, {14}), (2, {15})], [(1, 14, 2, 15)])
    assert interference_graph(inst2, ClearingTarget(29)) == {1: {2}, 2: {1}}

    # channels at or above the target do not create edges
    inst3 = mk_instance([(1, {30}), (2, {31})], [(1, 30, 2, 31)], universe=range(30, 32))
    assert interference_graph(inst3, ClearingTarget(29)) == {1: set(), 2: set()}


@st.composite
def small_instance(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    channels = tuple(range(14, 14 + draw(st.integers(min_value=1, max_value=4))))
    stations = []
    for sid in range(n):
        domain = draw(
            st.sets(st.sampled_from(channels), min_size=1, max_size=len(channels))
        )
        stations.append((sid, domain))
    pairs = [
        (s1, c1, s2, c2)
        for s1, d1 in stations
        for s2, d2 in stations
        for c1 in sorted(d1)
        for c2 in sorted(d2)
        if (s1, c1) < (s2, c2)
    ]
    cons = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    return mk_instance(stations, cons, universe=channels)


@given(small_instance(), st.integers(min_value=14, max_value=19))
@settings(max_examples=80, deadline=None)
def test_graph_symmetric_no_self_loops(inst, bar_c):
    graph = interference_graph(inst, ClearingTarget(bar_c))
    for sid, neighbors in graph.items():
        assert sid not in neighbors
        for other in neighbors:
            assert sid in graph[other]


@given(small_instance(), st.integers(min_value=14, max_value=19), st.data())
@settings(max_examples=80, deadline=None)
def test_validity_is_monotone_under_removal(inst, bar_c, data):
    ct = ClearingTarget(bar_c)
    assignment = {}
    for station in inst.stations:
        dom = sorted(ct.reduced(station.domain))
        if dom and data.draw(st.booleans()):
            assignment[station.id] = data.draw(st.sampled_from(dom))
    if not validate_assignment(assignment, inst, ct):
        return
    for sid in list(assignment):
        smaller = dict(assignment)
        del smaller[sid]
        assert validate_assignment(smaller, inst, ct)
