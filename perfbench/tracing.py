"""Spans around the calls into repacksim's public functions, recorded from
the benchmark's own files.

:meth:`Tracer.install` replaces each traced function with a wrapper in every
``repacksim`` module that refers to it, so calls made inside the program are
seen as well as the benchmark's own. A span records its name, start, end,
parent span and op id; spans stay in memory as columns and are written when
the run ends. Work the tracer does for its own counters (the greedy-fit probe,
the repeat check, component sizes, file sizes) runs on a paused clock, so it
never lands in a span; it still shows in the tracing overhead.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Span status codes.
OK, INFEASIBLE, TIMEOUT, RAISED = 0, 1, 2, 3
_VERDICT_STATUS = {"Feasible": OK, "Infeasible": INFEASIBLE, "Timeout": TIMEOUT}

#: Layers in the order they are reported; ``bench`` is the harness's op span.
LAYERS = (
    "instances", "model", "pricing", "feasibility", "auction",
    "vcg", "metrics", "experiment", "cli", "bench",
)
CHECKERS = ("greedy", "sat", "exhaustive")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.status = array("b")
        self.errors: dict[int, str] = {}
        self.current = -1
        self.op_id = -1
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # counters kept by the hooks
        self.greedy_fit = 0
        self.sat_repeats = 0
        self.bytes_written = 0
        self.max_component = 0
        self._seen_sets: dict[int, set] = {}
        self._built: set = set()
        self._keep: list = []  # holds instances so their ids stay unique
        self._components: dict[int, int] = {}

    # -- recording ------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.start.append(self.now())
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.value.append(0)
        self.status.append(OK)
        self.current = index
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.now()
        self.current = self.parent[index]

    def fail(self, index: int, exc: BaseException) -> None:
        self.close(index)
        self.status[index] = RAISED
        self.errors[index] = type(exc).__name__

    def paused(self):
        return _Paused(self)

    # -- wrappers -------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        name_id = self.intern(name)

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.fail(index, exc)
                raise
            self.close(index)
            if hook is not None:
                with self.paused():
                    hook(index, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, name: str, hook=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        traced = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repacksim" or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._replace(mod, key, traced)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        original = getattr(cls, attr, None)
        if original is None:
            self.missing.append(name)
            return
        self._replace(cls, attr, self.wrap(name, original))

    def install(self) -> None:
        """Wrap the traced public functions. ``uninstall`` undoes it."""
        from repacksim import (
            auction, cli, experiment, feasibility, instances, metrics, model, pricing, vcg,
        )

        # the hooks call the unwrapped functions
        self._greedy = feasibility.check_greedy
        self._graph = model.interference_graph
        fn = self._patch_function
        fn(instances, "generate_instance", "instances.generate_instance")
        fn(instances, "sample_values", "instances.sample_values")
        fn(instances, "parse_instance", "instances.parse_instance")
        fn(model, "interference_graph", "model.interference_graph")
        fn(pricing, "volumes_for", "pricing.volumes_for")
        fn(feasibility, "check_greedy", "feasibility.check_greedy", self._verdict)
        fn(feasibility, "check_exhaustive", "feasibility.check_exhaustive", self._verdict)
        fn(feasibility, "encode", "feasibility.encode", self._clauses)
        fn(feasibility, "solve", "feasibility.solve", self._steps)
        fn(auction, "initial_assignment", "auction.initial_assignment")
        fn(auction, "process_bids", "auction.process_bids", self._bids)
        fn(auction, "determine_participants", "auction.determine_participants")
        fn(auction, "run_auction", "auction.run_auction", self._rounds)
        fn(vcg, "vcg_outcome", "vcg.vcg_outcome", self._vcg)
        fn(metrics, "compare", "metrics.compare")
        fn(experiment, "run_experiment", "experiment.run_experiment")
        fn(experiment, "write_outputs", "experiment.write_outputs", self._written)
        fn(feasibility, "check_sat", "feasibility.check_sat", self._sat)
        self._patch_method(
            getattr(auction, "AuctionState", None), "check", "auction.AuctionState.check"
        )
        self._patch_conflict_index(model.Instance)
        self._patch_cli(cli)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_conflict_index(self, cls) -> None:
        """Span only the first ``conflicts_in_band`` call per instance and
        target: the one that builds the memoized index."""
        original = cls.conflicts_in_band
        name_id = self.intern("model.conflict_index")

        def conflicts_in_band(inst, ct):
            key = (id(inst), ct.bar_c)
            if key in self._built:
                return original(inst, ct)
            self._built.add(key)
            self._keep.append(inst)
            index = self.open(name_id)
            try:
                return original(inst, ct)
            finally:
                self.close(index)

        self._replace(cls, "conflicts_in_band", conflicts_in_band)

    def _patch_cli(self, cli) -> None:
        """Name each ``cli.main`` span after its subcommand."""
        original = cli.main

        def main(args, **kwargs):
            return self.wrap(f"cli.{args[0]}", original)(args, **kwargs)

        self._replace(cli, "main", main)

    # -- hooks (run on the paused clock) ---------------------------------

    def _verdict(self, index, args, result) -> None:
        self.status[index] = _VERDICT_STATUS.get(type(result).__name__, OK)

    def _sat(self, index, args, result) -> None:
        self._verdict(index, args, result)
        problem, budget = args[0], args[1]
        if type(self._greedy(problem, budget)).__name__ == "Feasible":
            self.greedy_fit += 1
        seen = self._seen_sets.get(id(problem.inst))
        if seen is None:
            self._keep.append(problem.inst)
            seen = self._seen_sets[id(problem.inst)] = set()
        key = frozenset(problem.packed).union((problem.target,))
        if key in seen:
            self.sat_repeats += 1
        else:
            seen.add(key)

    def _clauses(self, index, args, result) -> None:
        self.value[index] = len(result.clauses)

    def _steps(self, index, args, result) -> None:
        self.value[index] = result.steps

    def _bids(self, index, args, result) -> None:
        self.value[index] = len(result)

    def _rounds(self, index, args, result) -> None:
        self.value[index] = result.rounds

    def _vcg(self, index, args, result) -> None:
        self.value[index] = len(result.winners)
        inst, ct = args[0], args[4]
        key = id(inst)
        if key not in self._components:
            self._keep.append(inst)
            self._components[key] = _largest_component(self._graph(inst, ct))
        self.max_component = max(self.max_component, self._components[key])

    def _written(self, index, args, result) -> None:
        self.bytes_written += sum(Path(p).stat().st_size for p in result)

    # -- results ----------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span as columns of one compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            value=np.frombuffer(self.value, dtype=np.int64),
            status=np.frombuffer(self.status, dtype=np.int8),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, busy and self times, and ratios. A layer's share
        is its self time over the time of all root spans (set-up and ops)."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        value = np.frombuffer(self.value, dtype=np.int64)
        status = np.frombuffer(self.status, dtype=np.int8)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child[:n]
        total_s = float(dur[~has_parent].sum())

        def sel(span_name: str) -> np.ndarray:
            nid = self._name_ids.get(span_name, -1)
            return name == nid

        def busy(*span_names: str) -> float:
            return float(sum(dur[sel(s)].sum() for s in span_names))

        def count(span_name: str, code: int | None = None) -> int:
            mask = sel(span_name)
            if code is not None:
                mask &= status == code
            return int(mask.sum())

        m: dict[str, float] = {}
        vcg = sel("vcg.vcg_outcome")
        vcg_ms = sorted(1000.0 * dur[vcg & (status == OK)])
        m["vcg.calls"] = count("vcg.vcg_outcome")
        m["vcg.busy_s"] = busy("vcg.vcg_outcome")
        m["vcg.p50_ms"] = percentile(vcg_ms, 50)
        m["vcg.p90_ms"] = percentile(vcg_ms, 90)
        m["vcg.winners"] = int(value[vcg].sum())
        m["vcg.failed"] = count("vcg.vcg_outcome", RAISED)
        m["vcg.max_component"] = self.max_component

        for kind in CHECKERS:
            span = f"feasibility.check_{kind}"
            m[f"feasibility.{kind}.checks"] = count(span)
            m[f"feasibility.{kind}.feasible"] = count(span, OK)
            m[f"feasibility.{kind}.infeasible"] = count(span, INFEASIBLE)
            m[f"feasibility.{kind}.timeout"] = count(span, TIMEOUT)
            m[f"feasibility.{kind}.busy_s"] = busy(span)
        m["feasibility.exhaustive.refused"] = sum(
            1 for i, e in self.errors.items()
            if e == "SearchSpaceError" and self.names[self.name[i]] == "feasibility.check_exhaustive"
        )
        m["feasibility.sat.encode_s"] = busy("feasibility.encode")
        m["feasibility.sat.solve_s"] = busy("feasibility.solve")
        m["feasibility.sat.clauses"] = int(value[sel("feasibility.encode")].sum())
        m["feasibility.sat.steps"] = int(value[sel("feasibility.solve")].sum())

        state_checks = sel("auction.AuctionState.check")
        checker_spans = np.zeros(n, dtype=bool)
        for kind in CHECKERS:
            checker_spans |= sel(f"feasibility.check_{kind}")
        under_state = checker_spans & has_parent
        under_state[under_state] = state_checks[parent[under_state]]
        m["feasibility.state_checks"] = int(state_checks.sum())
        m["feasibility.checker_runs"] = int(under_state.sum())
        m["feasibility.cache_hit_ratio"] = ratio(
            m["feasibility.state_checks"] - m["feasibility.checker_runs"],
            m["feasibility.state_checks"],
        )
        sat_checks = count("feasibility.check_sat") - count("feasibility.check_sat", RAISED)
        m["feasibility.sat.greedy_fit_ratio"] = ratio(self.greedy_fit, sat_checks)
        m["feasibility.sat.repeat_ratio"] = ratio(self.sat_repeats, sat_checks)

        runs = sel("auction.run_auction")
        m["auction.runs"] = int(runs.sum())
        m["auction.rounds"] = int(value[runs].sum())
        m["auction.bids"] = int(value[sel("auction.process_bids")].sum())
        m["auction.busy_s"] = busy("auction.run_auction")
        m["auction.initial_assignment_s"] = busy("auction.initial_assignment")
        m["auction.process_bids_self_s"] = busy("auction.process_bids") - float(
            dur[under_state].sum()
        )
        m["auction.round_self_s"] = float(self_time[runs].sum())

        m["instances.generate_s"] = busy("instances.generate_instance", "instances.sample_values")
        m["instances.parse_s"] = busy("instances.parse_instance")
        m["model.conflict_index_s"] = busy("model.conflict_index")
        m["pricing.volumes_s"] = busy("pricing.volumes_for")

        m["experiment.run_s"] = busy("experiment.run_experiment")
        m["experiment.write_s"] = busy("experiment.write_outputs")
        m["experiment.bytes_written"] = self.bytes_written
        m["metrics.records"] = count("metrics.compare")
        m["experiment.benchmark_reuse_ratio"] = ratio(
            m["metrics.records"], m["vcg.calls"] - m["vcg.failed"]
        )
        m["cli.run_s"] = busy("cli.run")
        m["cli.report_s"] = busy("cli.report")

        layer_of = np.array(
            [LAYERS.index(s.split(".")[0]) for s in self.names] or [0], dtype=np.int32
        )
        by_layer = np.bincount(layer_of[name], weights=self_time, minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            m[f"layer.{layer}.self_s"] = float(by_layer[i])
            m[f"layer.{layer}.self_share"] = ratio(float(by_layer[i]), total_s)
        m["trace.spans"] = n
        return m


class _Paused:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> None:
        self.t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.tracer._paused += time.perf_counter() - self.t0


def _largest_component(graph: dict) -> int:
    seen: set = set()
    largest = 0
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            node = stack.pop()
            size += 1
            for nb in graph[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        largest = max(largest, size)
    return largest


def percentile(sorted_values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a mean of all order
    statistics weighted by a beta distribution, steadier than interpolating
    between two of them where the tail is sparse. 0 for no samples."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(sorted_values[0])
    from scipy.special import betainc

    p = q / 100.0
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), np.asarray(sorted_values, dtype=float)))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
