import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repacksim import auction, feasibility
from repacksim.auction import AuctionConfig, run_auction
from repacksim.feasibility import (
    DECIDING_STEP_LIMIT,
    DEFAULT_STEP_LIMIT,
    Budget,
    Feasible,
    FeasibilityProblem,
    Infeasible,
    InvalidProblemError,
    PackingModel,
    SearchSpaceError,
    SolveResult,
    Timeout,
    check_exhaustive,
    check_greedy,
    check_sat,
    encode,
    solve,
)
from repacksim.instances import (
    GeneratorParams,
    ValueSamplerParams,
    generate_instance,
    sample_values,
)
from repacksim.model import (
    ClearingTarget,
    Instance,
    InterferenceConstraint,
    UnknownStationError,
    interference_graph,
    validate_assignment,
)

from conftest import mk_instance
from references import reference_component

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
    # construction checks only structure: an invalid packed set is taken on
    # trust, and ``validate_assignment`` is the full check
    bad = FeasibilityProblem(2, {1: 16}, inst, ct)
    assert not validate_assignment(bad.packed, inst, ct)


@pytest.mark.parametrize(
    "checker",
    [check_greedy, check_sat, lambda problem, budget: check_exhaustive(problem)],
    ids=["greedy", "sat", "exhaustive"],
)
def test_undeclared_packed_station_is_rejected(checker):
    # the target fits beside station 1 on channel 15, so a checker that took
    # the packed set on trust would certify station 99 along with it
    inst = mk_instance([(1, {14}), (2, {14, 15})], [(1, 14, 2, 14)])
    ct = ClearingTarget(16)
    with pytest.raises(UnknownStationError, match="unknown station 99"):
        checker(FeasibilityProblem(2, {1: 14, 99: 14}, inst, ct), STEP_BUDGET)


# ---------------------------------------------------------------- encode


def _channels(model):
    return [[ch for ch, *_ in row] for row in model.rows]


def _options(model):
    """Each station's entries as ``(bit, channel, clash)``, with its clashes
    mapped through ``rank`` to model indices and the stations outside the
    model dropped: the rows of :func:`_reference_options`."""
    rank = model.rank
    return [
        [
            (bit, ch, tuple((rank[pos], b) for pos, b in clashes if rank[pos] >= 0))
            for ch, bit, _, clashes in row
        ]
        for row in model.rows
    ]


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


def _reference_options(inst, ct, order, hint):
    """Each station's options straight from the constraints and the station
    domains: its channels below the target, ascending with the hinted one
    first, and per channel the stations of ``order`` and channels that a
    constraint in the band pairs it with, in canonical constraint order."""
    local = {sid: i for i, sid in enumerate(order)}
    bit = {ch: 1 << k for k, ch in enumerate(inst.channel_universe)}
    options = []
    for sid in order:
        channels = sorted(ch for ch in inst.station(sid).domain if ch < ct.bar_c)
        hinted = (hint or {}).get(sid)
        if hinted in channels:
            channels.remove(hinted)
            channels.insert(0, hinted)
        row = []
        for ch in channels:
            clash = []
            for con in sorted(inst.constraints):
                for mine, other in ((con.first, con.second), (con.second, con.first)):
                    if mine == (sid, ch) and other[0] in local and other[1] < ct.bar_c:
                        clash.append((local[other[0]], bit[other[1]]))
            row.append((bit[ch], ch, tuple(clash)))
        options.append(row)
    return options


def _reference_clauses(inst, ct, order):
    """The forbidden pairs in the band among the stations of ``order``, each
    once, from its lower end (a constraint's canonical ``first``), sorted."""
    listed = set(order)
    return sorted(
        (con.first, con.second)
        for con in inst.constraints
        if {con.first[0], con.second[0]} <= listed
        and max(con.first[1], con.second[1]) < ct.bar_c
    )


@st.composite
def _drawn_instance(draw):
    """An instance over channels 14-19 whose station ids do not match their
    positions, with a station whose only channel is 19, and interference
    drawn as the generator draws it: a pair of stations clashes on shared
    channels, on neighbouring channels, or both."""
    ids = draw(st.lists(st.integers(0, 40), min_size=3, max_size=9, unique=True))
    universe = tuple(range(14, 20))
    domains = [
        draw(st.sets(st.sampled_from(universe), min_size=2, max_size=6)) for _ in ids
    ]
    domains[draw(st.integers(0, len(ids) - 1))] = {19}
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from([0, 1, 2])),
            min_size=len(ids),
            max_size=3 * len(ids),
        )
    )
    dom = dict(zip(ids, domains))
    constraints = {
        (a, c, b, d)
        for a, b, kind in edges
        if a != b
        for c in dom[a]
        for d in dom[b]
        if (c == d and kind != 1) or (abs(c - d) == 1 and kind != 0)
    }
    return mk_instance(list(zip(ids, domains)), constraints, universe=universe)


@st.composite
def _models_on_two_targets(draw):
    """An instance and, per clearing target, a drawn subset of its stations
    in a drawn order with hints in the band, outside it (channels 19 and 30
    are never in a band of 15-19) or none at all."""
    inst = draw(_drawn_instance())
    ids = inst.station_ids()
    bars = draw(st.lists(st.integers(15, 19), min_size=2, max_size=2, unique=True))
    cases = []
    for bar_c in bars:
        order = draw(st.permutations(ids))[: draw(st.integers(0, len(ids)))]
        hint = draw(
            st.none()
            | st.dictionaries(st.sampled_from(ids), st.sampled_from(range(14, 20)) | st.just(30))
        )
        cases.append((ClearingTarget(bar_c), order, hint))
    return inst, cases


@given(_models_on_two_targets())
@settings(max_examples=300, deadline=None)
def test_packing_model_matches_a_build_from_the_constraints(drawn):
    inst, cases = drawn
    # the first target again after the second: each keeps its own table
    for ct, order, hint in cases + cases[:1]:
        model = PackingModel(inst, ct, order, hint)
        assert model.order == order
        ids = inst.station_ids()
        assert model.rank == [order.index(sid) if sid in order else -1 for sid in ids]
        options = _reference_options(inst, ct, order, hint)
        assert _options(model) == options
        assert model.masks == [sum(bit for bit, _, _ in row) for row in options]
        # a row whose first channel stays first is the table's own
        table = inst.channel_table(ct)
        for sid, row in zip(order, model.rows):
            own = table[inst.position(sid)]
            assert row is own or row[0] is not own[0]
        # sorted, so a pair listed twice or from its upper end shows
        assert sorted(model.clauses) == _reference_clauses(inst, ct, order)


def test_a_hint_for_a_station_with_no_channel_in_the_band_leaves_its_row_empty():
    inst = mk_instance([(1, {14, 15}), (2, {19})], [(1, 14, 2, 19)])
    model = PackingModel(inst, ClearingTarget(16), [1, 2], hint={1: 15, 2: 19})
    assert _channels(model) == [[15, 14], []]
    # bits in universe order: 14, 15, 19
    assert model.masks == [0b011, 0]


@st.composite
def _instance_with_self_clashes(draw):
    """A drawn instance (see :func:`_drawn_instance`) with constraints added
    between two channels of one station, which no packing realizes."""
    inst = draw(_drawn_instance())
    added = set()
    for s in inst.stations:
        pairs = [(a, b) for a in sorted(s.domain) for b in sorted(s.domain) if a < b]
        if pairs:
            for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2)):
                added.add(InterferenceConstraint((s.id, a), (s.id, b)))
    return Instance(inst.stations, inst.constraints | added, inst.channel_universe)


@given(
    _instance_with_self_clashes(),
    st.lists(st.integers(15, 20), min_size=2, max_size=3, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_clash_view_matches_the_constraints(inst, bars):
    bit = {ch: 1 << k for k, ch in enumerate(inst.channel_universe)}
    # the first target again after the others: each keeps its own view
    for bar_c in bars + bars[:1]:
        ct = ClearingTarget(bar_c)
        view = inst.clash_view(ct)
        assert len(view) == len(inst.stations)
        graph = interference_graph(inst, ct)
        for s, (mask, neighbours) in zip(inst.stations, view):
            assert mask == sum(bit[ch] for ch in s.domain if ch < bar_c)
            assert list(neighbours) == sorted(set(neighbours))
            assert set(neighbours) == graph[s.id]
            assert set(neighbours) == {
                other[0]
                for con in inst.constraints
                for mine, other in ((con.first, con.second), (con.second, con.first))
                if mine[0] == s.id != other[0] and max(mine[1], other[1]) < bar_c
            }


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
    # the clash on 15 puts station 1 in the target's component, and the
    # model that encode builds
    inst = mk_instance([(1, {14, 15}), (2, {14, 15})], [(1, 15, 2, 15)])
    p = FeasibilityProblem(2, {1: 15}, inst, ClearingTarget(16))
    verdict = solve(encode(p), STEP_BUDGET).verdict
    assert isinstance(verdict, Feasible)
    assert verdict.certificate[1] == 15
    # without the hint the lowest channel comes first
    plain = solve(PackingModel(inst, p.ct, [1, 2]), STEP_BUDGET)
    assert plain.verdict == Feasible({1: 14, 2: 14})


#: The SAT searches of the drawn auction below: their number, their steps,
#: the sha256 of their verdicts' reprs, certificates in the order given, and
#: the sha256 of the sorted reprs of their results, which does not depend on
#: the order the auction asks in. A search covers the target's interference
#: component, so its certificate lists the component's stations only.
PINNED_SEARCHES = (
    52,
    522,
    "e7954219c39eaad24c42d7936a63ec39d8d35b26055e2278a7b807c3092ff394",
    "a82a02d9a24afb610038cccdd016fdf2d93a235fa09cf6034f40d66023bca6ee",
)

#: The same auction's ``check_sat`` calls: their number and the sha256 of
#: their verdicts' reprs, in the order asked. These were pinned while the
#: search still covered every packed station, and a search restricted to the
#: target's component must leave them as they were. The initial packing runs
#: no checker, so it no longer asks the first three of the 65 pinned then.
PINNED_CHECKS = (62, "c6219cf927bbe87833308edac6a9855201c962b81be237d4550336f4e317c188")


def _run_the_drawn_auction():
    """A sat auction on the run_grid.py geometry at 30 stations, where the
    greedy presolve leaves the search both feasible and infeasible checks."""
    inst = generate_instance(
        GeneratorParams(
            n_stations=30,
            channel_lo=14,
            channel_hi=18,
            co_channel_radius=0.35,
            adjacent_channel_radius=0.1,
            seed=5,
        )
    )
    values = sample_values(inst, ValueSamplerParams(seed=5))
    run_auction(inst, values, AuctionConfig(ClearingTarget(17), seed=5))


def test_the_searches_of_a_drawn_auction_are_pinned(monkeypatch):
    results, verdicts = [], []

    def searched(model, budget):
        results.append(solve(model, budget))
        return results[-1]

    def checked(problem, budget):
        verdicts.append(check_sat(problem, budget))
        return verdicts[-1]

    monkeypatch.setattr(feasibility, "solve", searched)
    monkeypatch.setattr(auction, "check_sat", checked)
    _run_the_drawn_auction()
    searches = repr(sorted(map(repr, results))).encode()
    assert (
        len(results),
        sum(r.steps for r in results),
        hashlib.sha256(repr([r.verdict for r in results]).encode()).hexdigest(),
        hashlib.sha256(searches).hexdigest(),
    ) == PINNED_SEARCHES
    assert (len(verdicts), hashlib.sha256(repr(verdicts).encode()).hexdigest()) == PINNED_CHECKS


def _whole_search(problem, budget):
    """The search over every packed station and the target, each packed
    station's channel first: the model that ``check_sat`` would search
    without cutting out the target's component."""
    model = PackingModel(problem.inst, problem.ct, problem.station_set(), hint=problem.packed)
    return solve(model, budget)


# ---------------------------------------------------------------- checkers


def test_check_sat_empty_reduced_domain_is_infeasible():
    inst = mk_instance([(1, {20})], universe=(14, 20))
    p = FeasibilityProblem(1, {}, inst, ClearingTarget(15))
    assert check_sat(p, STEP_BUDGET) == Infeasible()
    assert check_exhaustive(p) == Infeasible()


def test_exhaustive_decides_an_unconstrained_space_in_one_step_per_station(monkeypatch):
    # 16**7 joint assignments with no constraint: the first channel of each
    # station fits, so enumeration takes 7 steps, and refuses with 6
    chans = set(range(14, 30))
    inst = mk_instance([(i, chans) for i in range(7)], universe=chans)
    packed = {i: 14 for i in range(1, 7)}
    p = FeasibilityProblem(0, packed, inst, ClearingTarget(30))
    monkeypatch.setattr(feasibility, "DECIDING_STEP_LIMIT", 7)
    assert list(check_exhaustive(p).certificate.items()) == [(i, 14) for i in range(7)]
    monkeypatch.setattr(feasibility, "DECIDING_STEP_LIMIT", 6)
    with pytest.raises(SearchSpaceError, match="enumeration undecided within 6 steps"):
        check_exhaustive(p)


def test_exhaustive_does_not_reach_the_sat_search(monkeypatch):
    # enumeration runs the search under a private name, so a wrapper on
    # ``solve`` (the benchmark's SAT counters hook one) sees SAT searches only
    def refuse(model, budget):
        raise AssertionError("check_exhaustive called feasibility.solve")

    monkeypatch.setattr(feasibility, "solve", refuse)
    inst = mk_instance([(1, {14, 15}), (2, {14, 15})], [(1, 14, 2, 14)])
    p = FeasibilityProblem(2, {1: 14}, inst, ClearingTarget(16))
    assert check_exhaustive(p) == Feasible({1: 14, 2: 15})


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
    # no step count exceeds NaN, so a NaN limit would never time out
    for limit in (0, -1, 2.5, math.nan):
        with pytest.raises(ValueError, match="^step_limit must be positive$"):
            Budget(step_limit=limit)
    assert Budget(step_limit=np.int64(3)).step_limit == 3


# ---------------------------------------------------------------- references


def _reference_fit_target(problem):
    """The greedy scan as a sort of the target's reduced domain per call."""
    conflicts = problem.inst.conflicts_in_band(problem.ct)
    packed, target = problem.packed, problem.target
    for ch in sorted(problem.ct.reduced(problem.inst.station(target).domain)):
        if all(packed.get(osid) != och for osid, och in conflicts.get((target, ch), ())):
            certificate = dict(packed)
            certificate[target] = ch
            return certificate
    return None


def _reference_fit_channel(problem):
    certificate = _reference_fit_target(problem)
    return None if certificate is None else certificate[problem.target]


def _fit_channel(problem):
    return feasibility._fit_channel(problem.inst, problem.ct, problem.target, problem.packed)


def _packed_by_the_checkers(inst, ct, checker):
    """Each packed set that ``checker`` builds adding the stations one at a
    time in id order, the empty set first; a station it cannot add stays out."""
    packed = {}
    yield packed
    for sid in inst.station_ids():
        verdict = checker(FeasibilityProblem(sid, packed, inst, ct), STEP_BUDGET)
        if isinstance(verdict, Feasible):
            packed = verdict.certificate
            yield packed


@pytest.mark.parametrize("seed", range(12))
def test_fit_channel_picks_the_reference_channel_beside_packed_sets_the_checkers_built(seed):
    rng = np.random.default_rng(seed)
    inst = generate_instance(
        GeneratorParams(
            n_stations=int(rng.integers(4, 13)),
            channel_lo=14,
            channel_hi=int(rng.integers(15, 19)),
            co_channel_radius=float(rng.uniform(0.15, 0.6)),
            adjacent_channel_radius=float(rng.uniform(0.0, 0.15)),
            seed=seed,
        )
    )
    answers = set()
    for bar_c in range(15, 20):
        ct = ClearingTarget(bar_c)
        for checker in (check_greedy, check_sat):
            for packed in _packed_by_the_checkers(inst, ct, checker):
                for target in inst.station_ids():
                    if target not in packed:
                        p = FeasibilityProblem(target, packed, inst, ct)
                        channel = _fit_channel(p)
                        assert channel == _reference_fit_channel(p)
                        answers.add(channel)
    # the scan both finds channels and finds none
    assert None in answers and len(answers) > 1


def test_fit_channel_finds_none_for_a_target_with_no_reduced_band_channel():
    inst = mk_instance([(1, {16, 17}), (2, {14, 16})], [(1, 16, 2, 16)])
    for packed in ({}, {2: 14}):
        p = FeasibilityProblem(1, packed, inst, ClearingTarget(16))
        assert p.inst.channel_table(p.ct)[p.inst.position(1)] == ()
        assert _fit_channel(p) is None is _reference_fit_channel(p)


def _reference_greedy(problem):
    certificate = _reference_fit_target(problem)
    return Timeout() if certificate is None else Feasible(certificate)


def _reference_sat(problem):
    certificate = _reference_fit_target(problem)
    if certificate is not None:
        return Feasible(dict(sorted(certificate.items())))
    return _whole_search(problem, STEP_BUDGET).verdict


def _reference_exhaustive(problem):
    """Lexicographic enumeration on a dict of the channels chosen so far, one
    recursive call per station, testing each channel against every partner
    already chosen. It never refuses."""
    inst, ct = problem.inst, problem.ct
    sids = problem.station_set()
    domains = [sorted(ct.reduced(inst.station(sid).domain)) for sid in sids]
    conflicts = inst.conflicts_in_band(ct)
    chosen = {}

    def fits(sid, ch):
        return all(chosen.get(osid) != och for osid, och in conflicts.get((sid, ch), ()))

    def descend(i):
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


def _items(verdict):
    """A verdict with its certificate's items in order."""
    if isinstance(verdict, Feasible):
        return "Feasible", list(verdict.certificate.items())
    return type(verdict).__name__, None


def _outcome(checker, problem):
    """A verdict as :func:`_items` gives it, or the error raised."""
    try:
        verdict = checker(problem)
    except SearchSpaceError as error:
        return type(error).__name__, str(error)
    return _items(verdict)


def _sat(problem):
    return check_sat(problem, STEP_BUDGET)


_CHECKERS_AND_REFERENCES = [
    (check_exhaustive, _reference_exhaustive),
    (lambda p: check_greedy(p, STEP_BUDGET), _reference_greedy),
    (_sat, _reference_sat),
]


@st.composite
def _problems_on_two_targets(draw, instances=_drawn_instance()):
    """An instance drawn from ``instances`` (by default
    :func:`_drawn_instance`) and, per clearing target, a problem whose packed
    stations were placed in a drawn order; conflicts reach stations outside
    each problem."""
    inst = draw(instances)
    ids = inst.station_ids()
    bars = draw(st.lists(st.integers(16, 19), min_size=2, max_size=2, unique=True))
    problems = []
    for bar_c in bars:
        ct = ClearingTarget(bar_c)
        order = draw(st.permutations(ids))
        target, rest = order[0], order[1:]
        in_problem = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
        packed = {}
        for sid, keep in zip(rest, in_problem):
            for ch in sorted(ct.reduced(inst.station(sid).domain)):
                candidate = {**packed, sid: ch}
                if keep and validate_assignment(candidate, inst, ct):
                    packed = candidate
                    break
        problems.append(FeasibilityProblem(target, packed, inst, ct))
    return problems


@given(_problems_on_two_targets())
@settings(max_examples=300, deadline=None)
def test_checkers_match_their_references_on_two_targets(problems):
    # the first target again after the second: each keeps its own table
    for p in problems + problems[:1]:
        for checker, reference in _CHECKERS_AND_REFERENCES:
            assert _outcome(checker, p) == _outcome(reference, p)
        expected = _outcome(_reference_exhaustive, p)
        if expected[0] in ("Feasible", "Infeasible"):
            assert _outcome(_sat, p)[0] == expected[0]


@given(_problems_on_two_targets())
@settings(max_examples=200, deadline=None)
def test_fit_channel_picks_the_reference_channel_on_drawn_problems(problems):
    for p in problems:
        assert _fit_channel(p) == _reference_fit_channel(p)
        # with nothing packed, the target's lowest reduced-band channel
        empty = FeasibilityProblem(p.target, {}, p.inst, p.ct)
        assert _fit_channel(empty) == _reference_fit_channel(empty)


@given(_problems_on_two_targets(_instance_with_self_clashes()))
@settings(max_examples=200, deadline=None)
def test_encode_cuts_the_component_the_partner_flood_reaches(problems):
    for p in problems:
        model = encode(p)
        flooded = PackingModel(p.inst, p.ct, reference_component(p), hint=p.packed)
        assert model.order == flooded.order
        assert model.rows == flooded.rows
        assert model.rank == flooded.rank
        assert model.masks == flooded.masks


def _assert_the_component_search_matches_the_whole_search(problem, budget):
    """For a problem the greedy presolve leaves to the search: where the
    whole search finishes, ``check_sat`` gives its verdict and certificate,
    items in the same order; its search takes no more steps; and where the
    whole search times out, a verdict it reaches is the whole search's with
    room to finish. Returns the two searches' verdict types."""
    whole = _whole_search(problem, budget)
    part = solve(encode(problem), budget)
    verdict = check_sat(problem, budget)
    assert part.steps <= whole.steps
    if isinstance(whole.verdict, Timeout):
        if not isinstance(verdict, Timeout):
            decided = _whole_search(problem, Budget(DECIDING_STEP_LIMIT)).verdict
            assert _items(verdict) == _items(decided)
    else:
        assert _items(verdict) == _items(whole.verdict)
    return type(whole.verdict), type(verdict)


@given(
    _problems_on_two_targets(),
    st.integers(0, 10_000),
    st.integers(1, 40) | st.just(STEP_BUDGET.step_limit),
)
@settings(max_examples=300, deadline=None)
def test_the_component_search_matches_the_whole_search_on_drawn_problems(problems, seed, limit):
    # small limits time out both searches, or the whole one only; the
    # generator's problems add more stations and channels
    budget = Budget(limit)
    for p in [*problems, _random_problem(seed + 120_000)]:
        if _fit_channel(p) is None:
            _assert_the_component_search_matches_the_whole_search(p, budget)


def test_the_component_search_matches_the_whole_search_on_a_drawn_auction(monkeypatch):
    problems = []

    def encoded(problem):
        problems.append(problem)
        return encode(problem)

    monkeypatch.setattr(feasibility, "encode", encoded)
    _run_the_drawn_auction()
    monkeypatch.undo()
    # the auction's own budget, and budgets that cut the searches short
    seen = {
        _assert_the_component_search_matches_the_whole_search(p, Budget(limit))
        for p in problems
        for limit in (2, 5, 10, DEFAULT_STEP_LIMIT)
    }
    # both searches decide both ways and give up, and the component search
    # decides both ways on checks the whole search gives up on
    assert seen == {
        (Feasible, Feasible),
        (Infeasible, Infeasible),
        (Timeout, Timeout),
        (Timeout, Feasible),
        (Timeout, Infeasible),
    }


@given(st.lists(st.integers(1, 5), min_size=6, max_size=14), st.integers(0, 13))
@settings(max_examples=100, deadline=None)
def test_exhaustive_decides_every_drawn_space_as_the_reference_does(sizes, at):
    # joint spaces of up to 5**14 assignments, which a bound on their size
    # would refuse; the steps enumeration takes do not grow with them
    universe = tuple(range(14, 19))
    stations = [(sid, set(universe[:size])) for sid, size in enumerate(sizes)]
    # conflicts off channel 14, where every station is packed
    constraints = [
        (sid, 15, sid + 1, 15) for sid in range(len(sizes) - 1) if min(sizes[sid : sid + 2]) > 1
    ]
    inst = mk_instance(stations, constraints, universe=universe)
    target = at % len(sizes)
    packed = {sid: 14 for sid in range(len(sizes)) if sid != target}
    p = FeasibilityProblem(target, packed, inst, ClearingTarget(19))
    outcome = _outcome(check_exhaustive, p)
    assert outcome[0] != "SearchSpaceError"
    assert outcome == _outcome(_reference_exhaustive, p)


@pytest.mark.parametrize("limit, refused", [(13_699, False), (13_698, True)])
def test_exhaustive_refuses_past_its_step_limit(monkeypatch, limit, refused):
    # pigeonhole: 8 stations on 7 shared channels, every pair clashing on
    # every channel. Enumeration needs 7 + 7*6 + ... + 7! = 13,699 steps to
    # prove that no packing exists.
    chans = set(range(14, 21))
    inst = mk_instance(
        [(s, chans) for s in range(8)],
        [(a, c, b, c) for a in range(8) for b in range(a + 1, 8) for c in chans],
    )
    packed = {s: 13 + s for s in range(1, 8)}
    p = FeasibilityProblem(0, packed, inst, ClearingTarget(21))
    monkeypatch.setattr(feasibility, "DECIDING_STEP_LIMIT", limit)
    outcome = _outcome(check_exhaustive, p)
    if refused:
        assert outcome == ("SearchSpaceError", f"enumeration undecided within {limit} steps")
    else:
        assert outcome == ("Infeasible", None) == _outcome(_reference_exhaustive, p)
