"""The exact benchmark against an independent oracle: the packing problem as
a 0-1 program solved by HiGHS (:func:`references.milp_value`). The oracle
shares no code with the packing search, so it checks the benchmark at grid
size, beyond the reach of enumeration. Optima of equal value may differ, so
values are compared, not packings."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repacksim import vcg
from repacksim.auction import determine_participants
from repacksim.experiment import _VALUES_STREAM, ExperimentConfig, derive_seed
from repacksim.instances import GeneratorParams, ValueSamplerParams, generate_instance, sample_values
from repacksim.model import ClearingTarget, UnpackableError
from repacksim.pricing import ScoringRule, volumes_for
from repacksim.vcg import ResourceLimitError, vcg_outcome

from references import milp_value
from test_vcg import _grid_sized_case


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


def test_a_conditioned_component_matches_the_milp_oracle():
    # Value profile 0 of `scripts/run_grid.py --seed 2 --stations 40`, with
    # the scored rule's participants: all 40 stations, in one component whose
    # tables would need 1,726,992 entries, so it is conditioned on a station.
    cfg = ExperimentConfig(
        bar_c=17,
        generator=GeneratorParams(
            n_stations=40,
            channel_lo=14,
            channel_hi=18,
            co_channel_radius=0.35,
            adjacent_channel_radius=0.1,
            seed=2,
        ),
        master_seed=2,
    )
    inst, ct = generate_instance(cfg.generator), ClearingTarget(cfg.bar_c)
    values = sample_values(inst, cfg.sampler(derive_seed(cfg.master_seed, _VALUES_STREAM, 0)))
    parts, nons = determine_participants(
        inst, values, volumes_for(inst, ct, ScoringRule.FCC), cfg.c0_fcc
    )
    refused = []
    max_sum = vcg._max_sum

    def spy(table, ids, part, *args):
        solved = max_sum(table, ids, part, *args)
        if solved is None:
            refused.append(len(part))
        return solved

    with mock.patch.object(vcg, "_max_sum", spy):
        out = _assert_matches_milp(inst, values, parts, nons, ct)
    assert refused == [40]
    assert len(out.winners) == 24
    assert vcg_outcome(inst, values, parts, nons, ct, node_budget=out.nodes) == out
    with pytest.raises(ResourceLimitError):
        vcg_outcome(inst, values, parts, nons, ct, node_budget=out.nodes - 1)
