import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim.instances import (
    GeneratorParams,
    ParseError,
    ValueSamplerParams,
    generate_instance,
    parse_instance,
    parse_values,
    sample_values,
    serialize_instance,
    serialize_values,
)
SAMPLE = """\
# two stations, one co-channel conflict
CHANNELS 14 16
STATION 1 14 5000 14,15
STATION 2 15 9000 14,15,16
CONSTRAINT 1 14 2 14
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert len(inst.stations) == 2
    assert len(inst.constraints) == 1
    assert inst.channel_universe == (14, 15, 16)
    assert inst.station(2).population == 9000


#: Malformed files and the exact error each raises: a parser, its text and
#: the message.
PARSE_ERRORS = [
    (parse_instance, "CHANNELS 14 16\nCHANNELS 14 16\n", "line 2: duplicate CHANNELS line"),
    (parse_instance, "CHANNELS 14\n", "line 1: CHANNELS expects two fields"),
    (parse_instance, "CHANNELS 16 14\n", "line 1: empty channel range"),
    (
        parse_instance,
        "CHANNELS 14 16\nSTATION 1 14 10 14\nCONSTRAINT 1 14 1\n",
        "line 3: CONSTRAINT expects four fields",
    ),
    (
        parse_instance,
        "CHANNELS 14 16\nSTATION 1 14 10 14\nSTATION 2 15 10 15\nCONSTRAINT 1 15 2 15\n",
        "line 4: channel 15 is outside the domain of station 1",
    ),
    (
        parse_instance,
        "CHANNELS 14 16\nSTATION 1 14 ten 14\n",
        "line 2: invalid literal for int() with base 10: 'ten'",
    ),
    # checked after every line is read, as the CHANNELS line may come later
    (
        parse_instance,
        "CHANNELS 14 16\nSTATION 1 20 10 20\n",
        "line 2: station 1 domain channels [20] are outside the CHANNELS range 14-16",
    ),
    (
        parse_instance,
        "STATION 1 14 10 14\nSTATION 2 13 10 13,14\nCHANNELS 14 16\n",
        "line 2: station 2 domain channels [13] are outside the CHANNELS range 14-16",
    ),
    (parse_values, "1 abc\n", "line 1: could not convert string to float: 'abc'"),
]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("CHANNELS 14 16\nSTATION 1 14 10 14\nCONSTRAINT 1 14 9 14\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("CHANNELS 14 16\nSTATION 1 14 10 14\nSTATION 1 14 10 14\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("CHANNELS 14 16\nSTATION x 14 10 14\n")
    with pytest.raises(ParseError, match="CHANNELS"):
        parse_instance("STATION 1 14 10 14\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("CHANNELS 14 16\nWIDGET 1\n")
    for parse, text, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message, text


def test_serialize_is_canonical_and_round_trips():
    inst = parse_instance(SAMPLE)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text
    # comments and ordering in the source do not survive canonicalization
    shuffled = (
        "CHANNELS 14 16\n"
        "STATION 2 15 9000 16,15,14\n"
        "CONSTRAINT 2 14 1 14\n"
        "STATION 1 14 5000 15,14\n"
    )
    assert serialize_instance(parse_instance(shuffled)) == text


def test_value_profile_round_trip():
    values = {3: 12.5, 1: 0.25}
    text = serialize_values(values)
    assert parse_values(text) == values
    with pytest.raises(ParseError, match="line 1"):
        parse_values("1 -3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_values("1 3\n1 4\n")


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_values_must_be_finite(token):
    with pytest.raises(ParseError, match="line 2: non-finite value for station 4"):
        parse_values(f"1 3\n4 {token}\n")


def test_generate_empty_and_unconstrained():
    empty = generate_instance(GeneratorParams(n_stations=0, seed=1))
    assert empty.stations == ()
    loose = generate_instance(
        GeneratorParams(
            n_stations=8, co_channel_radius=0.0, adjacent_channel_radius=0.0, seed=1
        )
    )
    assert loose.constraints == frozenset()


def test_generate_deterministic_bytes():
    params = GeneratorParams(n_stations=12, seed=99)
    a = serialize_instance(generate_instance(params))
    b = serialize_instance(generate_instance(params))
    assert a == b


def test_generate_param_validation():
    with pytest.raises(ValueError):
        GeneratorParams(n_stations=-1)
    with pytest.raises(ValueError):
        GeneratorParams(n_stations=1, channel_lo=20, channel_hi=14)
    with pytest.raises(ValueError):
        GeneratorParams(n_stations=1, co_channel_radius=0.1, adjacent_channel_radius=0.2)


@given(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=0.6),
)
@settings(max_examples=40, deadline=None)
def test_generated_instances_satisfy_invariants(n, seed, co_radius):
    params = GeneratorParams(
        n_stations=n,
        co_channel_radius=co_radius,
        adjacent_channel_radius=co_radius / 2,
        seed=seed,
    )
    inst = generate_instance(params)  # construction reruns all invariants
    assert len(inst.stations) == n
    text = serialize_instance(inst)
    assert parse_instance(text) == inst


def test_adjacent_channel_constraints_generated():
    # with a full-square radius every pair conflicts on shared and adjacent channels
    params = GeneratorParams(
        n_stations=3,
        channel_lo=14,
        channel_hi=15,
        co_channel_radius=2.0,
        adjacent_channel_radius=2.0,
        seed=5,
    )
    inst = generate_instance(params)
    pairs = {(con.first, con.second) for con in inst.constraints}
    for i in range(3):
        for j in range(i + 1, 3):
            di = inst.station(i).domain
            dj = inst.station(j).domain
            for c in di & dj:
                assert ((i, c), (j, c)) in pairs
            for c in di:
                if c + 1 in dj:
                    key = tuple(sorted([(i, c), (j, c + 1)]))
                    assert (key[0], key[1]) in pairs


def test_sample_values_deterministic_and_station_local():
    inst = generate_instance(GeneratorParams(n_stations=6, seed=2))
    params = ValueSamplerParams(seed=11)
    a = sample_values(inst, params)
    b = sample_values(inst, params)
    assert a == b
    # dropping a station leaves the others' values untouched
    smaller = generate_instance(GeneratorParams(n_stations=5, seed=2))
    c = sample_values(smaller, params)
    for sid in c:
        assert c[sid] == a[sid]


def test_sample_values_population_scaling():
    inst = generate_instance(GeneratorParams(n_stations=5, seed=3))
    tight = ValueSamplerParams(log_mean=2.0, log_sd=1e-9, population_exponent=0.0, seed=1)
    values = sample_values(inst, tight)
    for v in values.values():
        assert math.isclose(v, math.exp(2.0), rel_tol=1e-6)
    assert all(v >= 0 for v in values.values())


def test_sampler_param_validation():
    with pytest.raises(ValueError):
        ValueSamplerParams(log_sd=0.0)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        ValueSamplerParams(seed=-1)


@pytest.mark.parametrize("field", ["log_mean", "log_sd", "population_exponent"])
@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
def test_sampler_rejects_a_number_that_is_not_finite(field, number):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ValueSamplerParams(**{field: number})
