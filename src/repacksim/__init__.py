"""Deterministic descending clock auction simulator for TV channel repacking,
with pluggable feasibility checkers, an exact VCG benchmark, and an
efficiency-versus-cost metrics layer."""

from .model import (
    Assignment,
    Channel,
    ClearingTarget,
    Instance,
    InterferenceConstraint,
    Station,
    StationId,
    UnknownStationError,
    UnpackableError,
    ValueProfile,
    interference_graph,
    validate_assignment,
)
from .instances import (
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
from .feasibility import (
    Budget,
    Feasible,
    FeasibilityProblem,
    FeasibilityVerdict,
    Infeasible,
    Timeout,
    check_exhaustive,
    check_greedy,
    check_sat,
    encode,
    solve,
)
from .search import PackingModel
from .pricing import (
    ClockState,
    ScoringRule,
    VolumeTable,
    decrement,
    fcc_volumes,
    next_clock,
    offer_price,
    unscored_volumes,
    volumes_for,
)
from .auction import (
    AuctionConfig,
    AuctionOutcome,
    BidDecision,
    CheckerKind,
    determine_participants,
    initial_assignment,
    run_auction,
    truthful_bid,
)
from .vcg import VcgOutcome, optimal_packing, vcg_outcome
from .metrics import (
    ComparisonRecord,
    compare,
    cost,
    value_loss,
    value_loss_ratio,
)

__all__ = [name for name in dir() if not name.startswith("_")]
