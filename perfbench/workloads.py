"""The benchmark's three workloads: ``grid``, ``truthful`` and ``sweep``.

Each workload is built from one seed, generates all of its inputs in
:meth:`setup`, and then yields one pass: a fixed, deterministic sequence of
ops. The work in a pass depends on the seed only, never on how fast the
program is.
:meth:`run` makes the program calls of one op and is the only part the harness
times; :meth:`check` verifies the op's outputs afterwards and renders them as
one digest line.

The program is reached only through module attributes (``auction.run_auction``
rather than an imported name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repacksim import auction, cli, instances, metrics, model, pricing, vcg
from repacksim.auction import AuctionConfig, BidDecision, CheckerKind
from repacksim.feasibility import Budget
from repacksim.instances import GeneratorParams, ValueSamplerParams
from repacksim.model import ClearingTarget
from repacksim.pricing import ScoringRule

#: Slack below 1 that a value loss ratio may show before it counts as wrong.
RATIO_TOLERANCE = 1e-9

#: The header ``records.csv`` is documented to have.
CSV_HEADER = "cell,profile,cost_fraction,value_loss_ratio,timeouts,rounds"


def derive_seed(seed: int, stream: int, *indices: int) -> int:
    """32-bit seed for one input, a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, stream, *indices]).generate_state(1)[0])


@dataclass(frozen=True)
class OpResult:
    """What the harness keeps of one op."""

    records: int  # records (grid, sweep) or auctions (truthful) attempted
    failed: int  # of those, how many failed: raised, lost or wrong
    wrong: bool  # the output broke a correctness property
    digest: str  # canonical text of the op's outputs


def _is_wrong(error: BaseException) -> bool:
    """An auction that lost less value than the benchmark's optimum: the
    program computed a wrong result, not merely failed to compute one."""
    return isinstance(error, metrics.ValueLossConsistencyError)


def _strict_json(text: str) -> object:
    def reject(constant: str) -> object:
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------- grid

GRID_FIRST_DRAW = 1000
GRID_POOL = 36
GRID_PROFILES = 5
GRID_PASS_PROFILE = 0
GRID_CELLS = (
    (ScoringRule.FCC, CheckerKind.SAT),
    (ScoringRule.FCC, CheckerKind.GREEDY),
    (ScoringRule.UNSCORED, CheckerKind.SAT),
)


class Grid:
    """The acceptance directional grid (criteria 7 and 8): 30-34 stations,
    channels 14-17, ``bar_c=17``, five value profiles, three cells, and the
    VCG benchmark solved once per participant set. Draws use the generator and
    value seeds of the acceptance suite, from seed 1000 up, and its tie-break
    seeds (``100 * draw + profile``); the workload seed sets the order of the
    draws. All five profiles take part in screening the draws; a pass runs
    profile 0 of every draw in all three cells, so it spans many instances.
    Per-record cost is heavy-tailed, so every pass covers the same records."""

    name = "grid"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ct = ClearingTarget(17)
        self.budget = Budget(step_limit=50_000)
        self.draws: list[tuple[int, model.Instance, list[dict]]] = []
        self.rejected = 0
        self._benchmarks: dict = {}
        self._benchmark_key: tuple[int, int] | None = None

    def setup(self) -> None:
        draw = GRID_FIRST_DRAW - 1
        while len(self.draws) < GRID_POOL:
            draw += 1
            if draw > GRID_FIRST_DRAW + 10 * GRID_POOL:
                raise RuntimeError("grid: too many rejected draws")
            inst = instances.generate_instance(
                GeneratorParams(
                    n_stations=30 + draw % 5,
                    channel_lo=14,
                    channel_hi=17,
                    co_channel_radius=0.26,
                    adjacent_channel_radius=0.065,
                    seed=draw,
                )
            )
            profiles = [
                instances.sample_values(
                    inst,
                    ValueSamplerParams(
                        log_mean=8.0,
                        log_sd=1.0,
                        population_exponent=0.7,
                        seed=7000 + 13 * draw + p,
                    ),
                )
                for p in range(GRID_PROFILES)
            ]
            if self._usable(inst, profiles):
                self.draws.append((draw, inst, profiles))
            else:
                self.rejected += 1
        order = np.random.default_rng(self.seed).permutation(len(self.draws))
        self.draws = [self.draws[i] for i in order]

    def _usable(self, inst: model.Instance, profiles: list[dict]) -> bool:
        """The acceptance fixture's screen: every profile's non-participants
        must pack under both scoring rules."""
        for values in profiles:
            for scoring in (ScoringRule.FCC, ScoringRule.UNSCORED):
                _, nons = auction.determine_participants(
                    inst,
                    values,
                    pricing.volumes_for(inst, self.ct, scoring),
                    pricing.default_initial_clock_price(scoring),
                )
                try:
                    auction.initial_assignment(
                        inst, nons, self.ct, CheckerKind.SAT, self.budget
                    )
                except RuntimeError:  # UnpackableError or SearchSpaceError
                    return False
        return True

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for draw, inst, profiles in self.draws:
            h.update(instances.serialize_instance(inst).encode())
            for values in profiles:
                h.update(instances.serialize_values(values).encode())
        return h.hexdigest()

    def ops(self):
        for index in range(len(self.draws)):
            for cell in GRID_CELLS:
                yield index, GRID_PASS_PROFILE, cell

    def run(self, op):
        index, p, (scoring, checker) = op
        draw, inst, profiles = self.draws[index]
        values = profiles[p]
        if self._benchmark_key != (index, p):
            self._benchmarks = {}
            self._benchmark_key = (index, p)
        config = AuctionConfig(
            ct=self.ct,
            scoring=scoring,
            checker=checker,
            budget=self.budget,
            seed=100 * draw + p,
        )
        participants, nons = auction.determine_participants(
            inst,
            values,
            pricing.volumes_for(inst, self.ct, scoring),
            config.initial_price(),
        )
        key = frozenset(participants)
        if key not in self._benchmarks:
            self._benchmarks[key] = vcg.vcg_outcome(
                inst, values, participants, nons, self.ct
            )
        outcome = auction.run_auction(inst, values, config)
        try:
            record = metrics.compare(outcome, self._benchmarks[key], values)
        except metrics.ValueLossConsistencyError as exc:
            # kept, not raised, so that check still sees the outcome
            record = exc
        return outcome, record

    def check(self, op, result, error: BaseException | None) -> OpResult:
        index, p, (scoring, checker) = op
        draw, inst, _ = self.draws[index]
        label = f"{draw},{p},{scoring.value}:{checker.value}"
        if error is not None:
            return OpResult(1, 1, _is_wrong(error), f"{label},error:{type(error).__name__}")
        outcome, record = result
        valid = model.validate_assignment(outcome.final_assignment, inst, self.ct)
        if isinstance(record, Exception):
            digest = f"{label},valid:{int(valid)},error:{type(record).__name__}"
            return OpResult(1, 1, True, digest)
        wrong = record.value_loss_ratio < 1.0 - RATIO_TOLERANCE or not valid
        digest = (
            f"{label},{record.cost_fraction!r},{record.value_loss_ratio!r},"
            f"{record.checker_timeout_count},{record.rounds}"
        )
        return OpResult(1, int(wrong), wrong, digest)

    def describe(self) -> dict:
        return {
            "draws": f"{self.draws[0][0]}..{self.draws[-1][0]}",
            "usable_draws": len(self.draws),
            "rejected_draws": self.rejected,
        }

    def close(self) -> None:
        pass


# ------------------------------------------------------------------ truthful

TRUTHFUL_INSTANCES = 20
_TIEBREAK_STREAM = 1


def _exit_at(round_to_exit: int):
    def strategy(round_index: int, offer: float, value: float) -> BidDecision:
        return BidDecision.EXIT if round_index >= round_to_exit else BidDecision.ACCEPT

    return strategy


def _never_exit(round_index: int, offer: float, value: float) -> BidDecision:
    return BidDecision.ACCEPT


class Truthful:
    """Acceptance criterion 5: 6-station instances, unscored, SAT checker;
    every participant is re-run under every exit round up to the clock's
    horizon and under never exiting. One op is one auction. A pass covers
    instances 1 to 20 whole (325 auctions each). Instance ``k`` uses the
    criterion's generator and value seeds (``400 + k``, ``40 + k``); the
    workload seed sets the tie-break seeds, which order every bid since all
    unscored bids tie."""

    name = "truthful"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ct = ClearingTarget(16)
        self.cases: list[tuple[model.Instance, dict, AuctionConfig, tuple, int]] = []
        self._base: dict[int, object] = {}

    def setup(self) -> None:
        for k in range(1, TRUTHFUL_INSTANCES + 1):
            inst = instances.generate_instance(
                GeneratorParams(
                    n_stations=6,
                    channel_lo=14,
                    channel_hi=17,
                    co_channel_radius=0.4,
                    adjacent_channel_radius=0.1,
                    seed=400 + k,
                )
            )
            values = instances.sample_values(
                inst,
                ValueSamplerParams(
                    log_mean=2.5, log_sd=0.8, population_exponent=0.3, seed=40 + k
                ),
            )
            c0 = max(values.values()) * 1.5
            config = AuctionConfig(
                ct=self.ct,
                scoring=ScoringRule.UNSCORED,
                c0=c0,
                checker=CheckerKind.SAT,
                seed=derive_seed(self.seed, _TIEBREAK_STREAM, k),
            )
            participants, _ = auction.determine_participants(
                inst, values, pricing.unscored_volumes(inst), c0
            )
            # Offers stop changing once the clock bottoms out, so exit rounds
            # past that horizon behave exactly like never exiting.
            clock = pricing.initial_clock(c0)
            while clock.current > 0:
                clock = pricing.next_clock(clock)
            self.cases.append((inst, values, config, participants, clock.round_index + 1))

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for inst, values, config, participants, horizon in self.cases:
            h.update(instances.serialize_instance(inst).encode())
            h.update(instances.serialize_values(values).encode())
            h.update(f"{config.c0!r},{config.seed},{participants},{horizon}".encode())
        return h.hexdigest()

    def ops(self):
        for k, (_, _, _, participants, horizon) in enumerate(self.cases):
            yield k, None, 0, None
            for sid in participants:
                for r in range(1, horizon + 1):
                    yield k, sid, r, _exit_at(r)
                yield k, sid, -1, _never_exit

    def run(self, op):
        k, sid, _, strategy = op
        inst, values, config, _, _ = self.cases[k]
        strategies = None if sid is None else {sid: strategy}
        return auction.run_auction(inst, values, config, strategies=strategies)

    def check(self, op, result, error: BaseException | None) -> OpResult:
        k, sid, r, _ = op
        label = f"{k},{sid},{r}"
        if error is not None:
            if sid is None:
                self._base.pop(k, None)
            return OpResult(1, 1, False, f"{label},error:{type(error).__name__}")
        payments = ",".join(f"{s}:{p!r}" for s, p in sorted(result.winners.items()))
        digest = (
            f"{label},{payments},{result.cost()!r},"
            f"{result.checker_timeout_count},{result.rounds}"
        )
        if sid is None:
            self._base[k] = result
            return OpResult(1, 0, False, digest)
        base = self._base.get(k)
        if base is None:
            # the truthful run failed, so this deviation cannot be judged
            return OpResult(1, 1, False, digest)
        values = self.cases[k][1]

        def utility(outcome) -> float:
            return outcome.winners[sid] - values[sid] if sid in outcome.winners else 0.0

        wrong = utility(result) > utility(base) + 1e-9
        return OpResult(1, int(wrong), wrong, digest)

    def describe(self) -> dict:
        return {"instances": len(self.cases)}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- sweep

SWEEP_SIZES = (10, 15, 20)
SWEEP_POOL = 34 * len(SWEEP_SIZES)
SWEEP_PROFILES = 5
SWEEP_CELLS = 5


class Sweep:
    """``repacksim run`` then ``repacksim report``, called in-process through
    ``repacksim.cli.main``, on generated instance files of 10, 15 and 20
    stations in turn (the ``run_grid.py`` geometry: channels 14-18,
    ``bar_c=17``), five value profiles and the five default cells. One op is
    one run plus its report; it holds 25 records.

    File ``k`` is generated with seed ``k + 1`` and run with master seed
    ``k + 1``; the workload seed sets the order of the files. A pass covers
    the whole pool: a few draws cost seconds in the exhaustive checker, and
    drawing the pool from the seed made those draws, and so the measured
    rate, differ from run to run."""

    name = "sweep"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.dir = workdir / "sweep"
        self.config_path = self.dir / "config.json"
        self.cases: list[tuple[Path, int]] = []
        self._serial = 0

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        config = {
            "bar_c": 17,
            "generator": {
                "n_stations": SWEEP_SIZES[0],
                "channel_lo": 14,
                "channel_hi": 18,
                "co_channel_radius": 0.35,
                "adjacent_channel_radius": 0.1,
                "seed": 0,
            },
            "n_value_profiles": SWEEP_PROFILES,
        }
        self.config_path.write_text(json.dumps(config, indent=1) + "\n")
        order = np.random.default_rng(self.seed).permutation(SWEEP_POOL)
        self.cases = []
        for k in map(int, order):
            inst = instances.generate_instance(
                GeneratorParams(
                    n_stations=SWEEP_SIZES[k % len(SWEEP_SIZES)],
                    channel_lo=14,
                    channel_hi=18,
                    co_channel_radius=0.35,
                    adjacent_channel_radius=0.1,
                    seed=k + 1,
                )
            )
            path = self.dir / f"instance_{k}.txt"
            path.write_text(instances.serialize_instance(inst))
            self.cases.append((path, k + 1))

    def inputs_digest(self) -> str:
        h = hashlib.sha256(self.config_path.read_bytes())
        for path, master in self.cases:
            h.update(path.read_bytes())
            h.update(str(master).encode())
        return h.hexdigest()

    def ops(self):
        yield from self.cases

    def run(self, op):
        path, master = op
        self._serial += 1
        out = self.dir / f"out_{self._serial}"
        captured = io.StringIO()
        exit_code = 0
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                cli.main(
                    [
                        "run",
                        "--config", str(self.config_path),
                        "--instance", str(path),
                        "--seed", str(master),
                        "--out", str(out),
                    ],
                    standalone_mode=False,
                )
            except SystemExit as exc:
                # `run` exits 2 when some records are incomparable; it has
                # written its outputs by then, so the report still runs.
                if exc.code != 2:
                    raise RuntimeError(f"repacksim run exited with {exc.code}") from exc
                exit_code = 2
            cli.main(
                ["report", "--records", str(out / "records.json"), "--out", str(out / "report")],
                standalone_mode=False,
            )
        return out, exit_code

    def check(self, op, result, error: BaseException | None) -> OpResult:
        path, master = op
        records = SWEEP_PROFILES * SWEEP_CELLS
        label = f"{path.name},{master}"
        if error is not None:
            digest = f"{label},error:{type(error).__name__}"
            return OpResult(records, records, _is_wrong(error), digest)
        out, exit_code = result
        try:
            csv_text = (out / "records.csv").read_text()
            json_text = (out / "records.json").read_text()
            report_ok = (out / "report" / "summary.txt").is_file()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        try:
            _strict_json(json_text)
            json_ok = True
        except ValueError:
            json_ok = False
        lines = csv_text.splitlines()
        try:
            ratios = [float(line.split(",")[3]) for line in lines[1:]]
        except (IndexError, ValueError):
            ratios = []
        format_ok = (
            lines[:1] == [CSV_HEADER] and len(ratios) == records and json_ok and report_ok
        )
        wrong = any(r < 1.0 - RATIO_TOLERANCE for r in ratios)
        incomparable = sum(1 for r in ratios if math.isnan(r))
        failed = records if not format_ok or wrong else incomparable
        digest = f"{label},exit:{exit_code},json:{int(json_ok)}\n{csv_text}"
        return OpResult(records, failed, wrong, digest)

    def describe(self) -> dict:
        return {"instance_files": len(self.cases), "sizes": list(SWEEP_SIZES)}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Grid, Truthful, Sweep)}
