"""Experiment grid: one instance, several value profiles, several
(scoring, checker) cells, every cell compared to the exact benchmark over its
own participant set.

Seed derivation is documented and pure: every seed is
``SeedSequence([master_seed, stream, *indices]).generate_state(1)[0]`` with
stream 10 for value profiles and stream 11 for auction tie-breaking. Two runs
with the same config and master seed therefore produce byte-identical output
files, whichever directory they run from.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, get_args, get_type_hints

import numpy as np

from .auction import AuctionConfig, CheckerKind, run_auction
from .feasibility import DEFAULT_STEP_LIMIT, Budget
from .instances import (
    GeneratorParams,
    ValueSamplerParams,
    generate_instance,
    parse_instance,
    sample_values,
)
from .metrics import ComparisonRecord, compare
from .model import ClearingTarget, Instance
from .pricing import DEFAULT_C0_FCC, DEFAULT_C0_UNSCORED, ScoringRule
from .vcg import DEFAULT_NODE_BUDGET, ResourceLimitError, vcg_outcome

_VALUES_STREAM = 10
_AUCTION_STREAM = 11

CSV_HEADER = "cell,profile,cost_fraction,value_loss_ratio,timeouts,rounds"

#: The config fields that make up the value sampler; a config may set them under "sampler".
_SAMPLER_FIELDS = ("log_mean", "log_sd", "population_exponent")


@dataclass(frozen=True)
class Cell:
    scoring: ScoringRule
    checker: CheckerKind

    def __post_init__(self) -> None:
        # a plain string becomes its member, as the rules compare by identity
        object.__setattr__(self, "scoring", ScoringRule(self.scoring))
        object.__setattr__(self, "checker", CheckerKind(self.checker))

    @property
    def key(self) -> str:
        return f"{self.scoring.value}:{self.checker.value}"

    @staticmethod
    def parse(text: str) -> "Cell":
        try:
            scoring, checker = text.strip().split(":")
            return Cell(ScoringRule(scoring), CheckerKind(checker))
        except ValueError as exc:
            raise ValueError(
                f"cell {text!r} must look like 'fcc:sat' with a known scoring "
                f"rule and checker"
            ) from exc


DEFAULT_CELLS: tuple[Cell, ...] = (
    Cell(ScoringRule.FCC, CheckerKind.SAT),
    Cell(ScoringRule.FCC, CheckerKind.GREEDY),
    Cell(ScoringRule.UNSCORED, CheckerKind.SAT),
    Cell(ScoringRule.UNSCORED, CheckerKind.GREEDY),
    Cell(ScoringRule.UNSCORED, CheckerKind.EXHAUSTIVE),
)


@dataclass(frozen=True)
class ExperimentConfig:
    bar_c: int
    instance_path: str | None = None
    generator: GeneratorParams | None = None
    n_value_profiles: int = 5
    log_mean: float = ValueSamplerParams.log_mean
    log_sd: float = ValueSamplerParams.log_sd
    population_exponent: float = ValueSamplerParams.population_exponent
    cells: tuple[Cell, ...] = DEFAULT_CELLS
    c0_fcc: float = DEFAULT_C0_FCC
    c0_unscored: float = DEFAULT_C0_UNSCORED
    budget_steps: int = DEFAULT_STEP_LIMIT
    master_seed: int = 0
    vcg_node_budget: int = DEFAULT_NODE_BUDGET
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if (self.instance_path is None) == (self.generator is None):
            raise ValueError("configure exactly one of instance_path or generator")
        if not isinstance(self.n_value_profiles, numbers.Integral):
            raise ValueError("n_value_profiles must be an integer")
        if self.n_value_profiles < 1:
            raise ValueError("need at least one value profile")
        if not self.cells:
            raise ValueError("need at least one cell")
        twice = [c.key for i, c in enumerate(self.cells) if c in self.cells[:i]]
        if twice:
            raise ValueError(f"cell {twice[0]!r} is listed twice")
        if not isinstance(self.budget_steps, numbers.Integral) or self.budget_steps < 1:
            raise ValueError("budget_steps must be positive")
        if not isinstance(self.master_seed, numbers.Integral) or self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if not (math.isfinite(self.c0_fcc) and math.isfinite(self.c0_unscored)):
            raise ValueError("c0_fcc and c0_unscored must be finite")
        if not (self.c0_fcc > 0 and self.c0_unscored > 0):
            raise ValueError("c0_fcc and c0_unscored must be positive")
        if not isinstance(self.vcg_node_budget, numbers.Integral) or self.vcg_node_budget < 1:
            raise ValueError("vcg_node_budget must be positive")
        self.sampler(0)  # ValueSamplerParams owns the checks on the sampler fields

    def sampler(self, seed: int) -> ValueSamplerParams:
        """The value sampler of this config, seeded with ``seed``."""
        params = {name: getattr(self, name) for name in _SAMPLER_FIELDS}
        return ValueSamplerParams(**params, seed=seed)

    def c0_for(self, scoring: ScoringRule) -> float:
        # a plain string becomes its member, as the rules compare by identity
        return self.c0_fcc if ScoringRule(scoring) is ScoringRule.FCC else self.c0_unscored


def _load(cfg: ExperimentConfig) -> tuple[Instance, str | None]:
    """The config's instance and the SHA-256 of the text it was parsed from."""
    if cfg.instance_path is None:
        return generate_instance(cfg.generator), None
    text = Path(cfg.instance_path).read_text()
    return parse_instance(text), hashlib.sha256(text.encode()).hexdigest()


def _check_fields(where: str, data: object, cls: type, known: Iterable[str] = ()) -> None:
    """Reject a ``data`` that is not a JSON object, has a key outside
    ``known`` (by default every field of ``cls``), has a value whose JSON
    type does not fit the field of ``cls`` it sets (an integer fits a float
    field; a boolean fits no number field), or has a number that is not
    finite (Python's ``json`` reads ``NaN`` and ``Infinity``)."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, not {type(data).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(set(data) - set(known or hints))
    if unknown:
        raise ValueError(f"unknown {where} key {', '.join(map(repr, unknown))}")
    for key, value in data.items():
        allowed = get_args(hints[key]) or (hints[key],)
        fits = isinstance(value, allowed) or (float in allowed and isinstance(value, int))
        if isinstance(value, bool) or not fits:
            expected = " or ".join(
                "null" if t is type(None) else t.__name__ for t in allowed
            )
            raise ValueError(
                f"{where} key {key!r} must be {expected}, not {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where} key {key!r} must be finite, not {value!r}")


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON; see the module docstring of
    :mod:`repacksim.cli` for the schema. A key outside it, a value of the
    wrong JSON type, or a number that is not finite raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be an object, not {type(data).__name__}")
    known = dict(data)
    generator = known.pop("generator", None)
    cells = known.pop("cells", None)
    sampler = known.pop("sampler", None)
    _check_fields("config", known, ExperimentConfig)
    kwargs: dict = {}
    if generator is not None:
        _check_fields("generator", generator, GeneratorParams)
        kwargs["generator"] = GeneratorParams(**generator)
    if cells is not None:
        if not isinstance(cells, list) or not all(isinstance(c, str) for c in cells):
            raise ValueError("cells must be a list of strings")
        kwargs["cells"] = tuple(Cell.parse(c) for c in cells)
    if sampler is not None:
        _check_fields("sampler", sampler, ExperimentConfig, _SAMPLER_FIELDS)
        twice = sorted(set(sampler) & set(known))
        if twice:
            raise ValueError(f"sampler key {twice[0]!r} is also set at the top level")
        kwargs.update(sampler)
    kwargs.update(known)
    return ExperimentConfig(**kwargs)


def derive_seed(master_seed: int, stream: int, *indices: int) -> int:
    """Documented hash from (master seed, stream, indices) to a 32-bit seed."""
    seq = np.random.SeedSequence([master_seed, stream, *indices])
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class RecordRow:
    """One (cell, profile) result: its comparison with the benchmark, or no
    record, when the row is incomparable, and the ``reason``."""

    cell: str
    profile: int
    record: ComparisonRecord | None
    reason: str = ""

    @property
    def incomparable(self) -> bool:
        return self.record is None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[RecordRow, ...]
    instance_sha256: str | None = None  # of an instance file's text

    @property
    def any_incomparable(self) -> bool:
        return any(r.incomparable for r in self.rows)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (cell, profile) auction and compare each against the exact
    benchmark over the participant set that auction ran, computed once per
    distinct set per profile."""
    inst, instance_sha256 = _load(cfg)
    ct = ClearingTarget(cfg.bar_c)
    budget = Budget(step_limit=cfg.budget_steps)
    rows: list[RecordRow] = []

    for profile in range(cfg.n_value_profiles):
        sampler = cfg.sampler(derive_seed(cfg.master_seed, _VALUES_STREAM, profile))
        values = sample_values(inst, sampler)
        benchmark_cache: dict[frozenset, object] = {}

        for cell_index, cell in enumerate(cfg.cells):
            config = AuctionConfig(
                ct=ct,
                scoring=cell.scoring,
                c0=cfg.c0_for(cell.scoring),
                checker=cell.checker,
                budget=budget,
                seed=derive_seed(cfg.master_seed, _AUCTION_STREAM, cell_index, profile),
            )
            outcome = run_auction(inst, values, config)
            key = frozenset(outcome.participants)
            if key not in benchmark_cache:
                try:
                    benchmark_cache[key] = vcg_outcome(
                        inst,
                        values,
                        outcome.participants,
                        outcome.non_participants,
                        ct,
                        node_budget=cfg.vcg_node_budget,
                    )
                except ResourceLimitError as exc:
                    benchmark_cache[key] = exc
            benchmark = benchmark_cache[key]
            if isinstance(benchmark, ResourceLimitError):
                rows.append(RecordRow(cell.key, profile, None, str(benchmark)))
            else:
                rows.append(
                    RecordRow(cell.key, profile, compare(outcome, benchmark, values))
                )

    rows.sort(key=lambda r: (r.cell, r.profile))
    return ExperimentResult(cfg, tuple(rows), instance_sha256)


def _csv_lines(rows: Iterable[RecordRow]) -> list[str]:
    """The header and one line per row; an incomparable row reads
    ``nan,nan,0,0``."""
    lines = [CSV_HEADER]
    for row in rows:
        r = row.record
        if r is None:
            lines.append(f"{row.cell},{row.profile},nan,nan,0,0")
        else:
            lines.append(
                f"{row.cell},{row.profile},{float(r.cost_fraction)!r},"
                f"{float(r.value_loss_ratio)!r},{r.checker_timeout_count},{r.rounds}"
            )
    return lines


def records_csv(result: ExperimentResult) -> str:
    return "\n".join(_csv_lines(result.rows)) + "\n"


#: How records.json spells the floats that strict JSON has no literal for;
#: each is ``repr`` of the float and is read back by ``float``.
_NON_FINITE = ("inf", "-inf", "nan")
_RECORD_TYPES = get_type_hints(ComparisonRecord)
#: The exact JSON type of each non-float record key: a boolean is no integer.
_RECORD_KEYS = {"cell": str, "profile": int, "incomparable": bool, "reason": str} | {
    name: kind for name, kind in _RECORD_TYPES.items() if kind is not float
}


def _spell_non_finite(data):
    """``data`` with every non-finite float replaced by its name in
    :data:`_NON_FINITE`, so that the document is strict JSON."""
    if isinstance(data, float) and not math.isfinite(data):
        return repr(data)
    if isinstance(data, dict):
        return {key: _spell_non_finite(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_spell_non_finite(value) for value in data]
    return data


def _float_from_json(value) -> float:
    if type(value) not in (int, float) and value not in _NON_FINITE:
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def records_json(result: ExperimentResult) -> str:
    """The config and every record as strict JSON (RFC 8259); a non-finite
    float is written as the string ``"inf"``, ``"-inf"`` or ``"nan"``."""
    cfg = result.config
    cfg_data = asdict(cfg)
    cfg_data["cells"] = [c.key for c in cfg.cells]
    # the output location and the instance file's directory are not part of
    # the experiment's identity; the file's name and content are
    del cfg_data["out_dir"]
    if cfg.instance_path is not None:
        cfg_data["instance_path"] = Path(cfg.instance_path).name
        cfg_data["instance_sha256"] = result.instance_sha256
    records = []
    for row in result.rows:
        entry: dict = {
            "cell": row.cell,
            "profile": row.profile,
            "incomparable": row.incomparable,
        }
        if row.record is None:
            entry["reason"] = row.reason
        else:
            entry.update(asdict(row.record))
        records.append(entry)
    document = _spell_non_finite({"config": cfg_data, "records": records})
    return json.dumps(document, sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "records.csv"
    json_path = out / "records.json"
    csv_path.write_text(records_csv(result))
    json_path.write_text(records_json(result))
    return csv_path, json_path


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else math.nan


@dataclass(frozen=True)
class CellSummary:
    cell: str
    n: int
    mean_cost_fraction: float
    mean_value_loss_ratio: float
    mean_cost: float
    mean_value_loss: float
    infinite_ratios: int


def summarize(rows: Iterable[RecordRow]) -> list[CellSummary]:
    by_cell: dict[str, list[ComparisonRecord]] = {}
    for row in rows:
        if row.record is not None:
            by_cell.setdefault(row.cell, []).append(row.record)
    summaries = []
    for cell in sorted(by_cell):
        recs = by_cell[cell]
        finite_ratio = [r.value_loss_ratio for r in recs if math.isfinite(r.value_loss_ratio)]
        finite_frac = [r.cost_fraction for r in recs if math.isfinite(r.cost_fraction)]
        summaries.append(
            CellSummary(
                cell=cell,
                n=len(recs),
                mean_cost_fraction=_mean(finite_frac),
                mean_value_loss_ratio=_mean(finite_ratio),
                mean_cost=_mean([r.cost_auction for r in recs]),
                mean_value_loss=_mean([r.value_loss_auction for r in recs]),
                infinite_ratios=sum(
                    1 for r in recs if not math.isfinite(r.value_loss_ratio)
                ),
            )
        )
    return summaries


def report_text(rows: Iterable[RecordRow]) -> str:
    """Per-cell means plus the cross-cell comparisons: naive over complete
    checker cost, scored over unscored cost, and mean value loss ratios."""
    rows = list(rows)
    summaries = summarize(rows)
    by_cell = {s.cell: s for s in summaries}
    lines = ["cell summaries (means over comparable records)"]
    for s in summaries:
        lines.append(
            f"  {s.cell}: n={s.n} mean_cost_fraction={s.mean_cost_fraction:.6g} "
            f"mean_value_loss_ratio={s.mean_value_loss_ratio:.6g} "
            f"mean_cost={s.mean_cost:.6g} mean_value_loss={s.mean_value_loss:.6g}"
            + (f" infinite_ratios={s.infinite_ratios}" if s.infinite_ratios else "")
        )
    lines.append("cross-cell comparisons")
    for scoring in ("fcc", "unscored"):
        naive = by_cell.get(f"{scoring}:greedy")
        complete = by_cell.get(f"{scoring}:sat")
        if naive and complete and complete.mean_cost > 0:
            lines.append(
                f"  naive/complete checker cost ratio [{scoring}] = "
                f"{naive.mean_cost / complete.mean_cost:.6g}"
            )
        if naive and complete and complete.mean_value_loss > 0:
            lines.append(
                f"  naive/complete checker value loss ratio [{scoring}] = "
                f"{naive.mean_value_loss / complete.mean_value_loss:.6g}"
            )
    for checker in ("sat", "greedy", "exhaustive"):
        scored = by_cell.get(f"fcc:{checker}")
        unscored = by_cell.get(f"unscored:{checker}")
        if scored and unscored and unscored.mean_cost > 0:
            lines.append(
                f"  scored/unscored cost ratio [{checker}] = "
                f"{scored.mean_cost / unscored.mean_cost:.6g}"
            )
    for s in summaries:
        lines.append(f"  mean value loss ratio [{s.cell}] = {s.mean_value_loss_ratio:.6g}")
    return "\n".join(lines) + "\n"


def scatter_csv(rows: Iterable[RecordRow]) -> str:
    """Per-record scatter points plus the benchmark reference, which sits at
    (1, 1) by construction for every profile."""
    rows = list(rows)
    lines = _csv_lines(rows)
    for profile in sorted({r.profile for r in rows}):
        lines.append(f"vcg,{profile},1.0,1.0,0,0")
    return "\n".join(lines) + "\n"


def rows_from_json(text: str) -> list[RecordRow]:
    """Rebuild record rows from a records.json document, reading the strings
    ``"inf"``, ``"-inf"`` and ``"nan"`` back as floats. Raises ``ValueError``
    for a document that is not an object with a ``records`` list, or for a
    record that is not an object, lacks a key or holds a wrong JSON type."""
    data = json.loads(text)
    records = data.get("records") if isinstance(data, dict) else None
    if not isinstance(records, list):
        raise ValueError('expected an object with a "records" list')
    rows = []
    for number, entry in enumerate(records):
        if not isinstance(entry, dict):
            raise ValueError(f"record {number} is not an object")
        for key, kind in _RECORD_KEYS.items():
            if key in entry and type(entry[key]) is not kind:
                got = type(entry[key]).__name__
                raise ValueError(f"record {number} key {key!r} must be {kind.__name__}, not {got}")
        try:
            rows.append(_row_from_json(entry))
        except KeyError as exc:
            raise ValueError(f"record {number} has no {exc}") from None
    return rows


def _row_from_json(entry: dict) -> RecordRow:
    if entry.get("incomparable"):
        return RecordRow(entry["cell"], entry["profile"], None, entry.get("reason", ""))
    record = ComparisonRecord(
        **{
            name: _float_from_json(entry[name]) if kind is float else entry[name]
            for name, kind in _RECORD_TYPES.items()
        }
    )
    return RecordRow(entry["cell"], entry["profile"], record)
