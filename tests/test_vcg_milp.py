"""The exact benchmark against an independent oracle: the packing problem as
a 0-1 program built from the instance's constraints, the station domains and
the clearing target, solved by HiGHS (Huangfu & Hall, Math. Prog. Computation
10, 2018) through ``scipy.optimize.milp``. The oracle shares no code with the
packing search, so it checks the benchmark at grid size, beyond the reach of
enumeration. Optima of equal value may differ, so values are compared, not
packings."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim.instances import GeneratorParams, ValueSamplerParams, generate_instance, sample_values
from repacksim.model import ClearingTarget, UnpackableError
from repacksim.vcg import vcg_outcome

from test_vcg import _grid_sized_case


def milp_value(inst, values, participants, non_participants, ct):
    """The best total value of ``participants`` on air, each station on at
    most one channel below ``ct.bar_c`` and every one of ``non_participants``
    on exactly one, with no constraint's two pairs both on air; None when the
    non-participants cannot all be placed."""
    columns = [
        (station.id, ch)
        for station in inst.stations
        for ch in sorted(station.domain)
        if ch < ct.bar_c
    ]
    column = {pair: k for k, pair in enumerate(columns)}
    parts, nons = set(participants), set(non_participants)
    rows, lower = [], []
    for con in sorted(inst.constraints):
        if con.first in column and con.second in column:
            row = np.zeros(len(columns))
            row[column[con.first]] = row[column[con.second]] = 1.0
            rows.append(row)
            lower.append(0.0)
    for station in inst.stations:
        row = np.zeros(len(columns))
        for ch in station.domain:
            if (station.id, ch) in column:
                row[column[station.id, ch]] = 1.0
        forced = station.id in nons
        if forced and not row.any():
            return None
        rows.append(row)
        lower.append(1.0 if forced else 0.0)
    if not columns:
        return 0.0
    gain = np.array([values[sid] if sid in parts else 0.0 for sid, _ in columns])
    result = scipy.optimize.milp(
        -gain,
        constraints=scipy.optimize.LinearConstraint(np.array(rows), lower, 1.0),
        integrality=np.ones(len(columns)),
        bounds=scipy.optimize.Bounds(0.0, 1.0),
        # HiGHS stops within a relative gap of 1e-4 by default
        options={"mip_rel_gap": 0},
    )
    if result.status == 2:  # infeasible
        return None
    assert result.success, result.message
    on_air = {sid for (sid, _), x in zip(columns, result.x) if x > 0.5}
    return sum(values[sid] for sid in sorted(on_air & parts))


def _assert_matches_milp(inst, values, participants, non_participants, ct):
    """``vcg_outcome``'s optimal value and every restricted value equal the
    oracle's to a relative 1e-9; returns the outcome, or None when the
    non-participants cannot all be placed."""
    parts, nons = set(participants), set(non_participants)
    optimum = milp_value(inst, values, parts, nons, ct)
    if optimum is None:
        with pytest.raises(UnpackableError):
            vcg_outcome(inst, values, participants, non_participants, ct)
        return None
    out = vcg_outcome(inst, values, participants, non_participants, ct)
    assert out.optimal_value == pytest.approx(optimum, rel=1e-9)
    for sid in out.winners:
        # forcing the winner on air, its own value excluded; an infeasible
        # restriction prices it at the full optimum
        restricted = milp_value(inst, values, parts - {sid}, nons | {sid}, ct)
        assert out.restricted_values[sid] == pytest.approx(restricted or 0.0, rel=1e-9)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_grid_sized_values_match_the_milp_oracle(seed):
    assert _assert_matches_milp(*_grid_sized_case(seed)).winners


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=5, max_value=16),
    channels=st.integers(min_value=1, max_value=3),
    # a few stations forced on air: forcing half of them leaves most draws
    # unpackable
    forced=st.sets(st.integers(min_value=0, max_value=15), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_forced_draws_match_the_milp_oracle(seed, n, channels, forced):
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
    _assert_matches_milp(inst, values, parts, nons, ClearingTarget(14 + channels))
