"""One benchmark run: set-up, timed or traced passes, checks and the report.

``run.py`` imports this module once ``shapeform`` is importable from the
checkout's ``src/``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy
import scipy
from shapeform import simulate
from shapeform.auction import auction_assign, optimal_assignment, singleton_utility_matrix
from shapeform.metrics import spot_values
from shapeform.model import ScenarioIndex

import checks
import tracing
import workloads

OUT = Path(__file__).resolve().parent / "out"
PROBE_ITERATIONS = 1_000_000

END_TO_END_UNITS = {
    "plans_per_s": "1/s",
    "plan_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "broadcasts_per_plan": "count",
}

AUCTION_METRICS = ("auction.singleton_utility_matrix.s", "auction.optimal_assignment.s",
                   "auction.auction_assign.s", "auction.bids_per_plan")

PER_LAYER_UNITS = {
    "allocation.evict.calls": "count",
    "allocation.evict.accepted": "count",
    "allocation.evict.accept_ratio": "ratio",
    "allocation.evict.max_depth": "count",
    "allocation.evict.self_s": "s",
    "allocation.spot_allocation.calls": "count",
    "allocation.spot_allocation.reruns": "count",
    "allocation.spot_allocation.self_s": "s",
    "allocation.block_allocation.self_s": "s",
    "allocation.no_spot_found": "count",
    "allocation.plan_context_utility.linkless": "count",
    "allocation.plan_context_utility.linked": "count",
    "utility.module_spot_cost.calls": "count",
    "utility.block_utility.calls": "count",
    "isomorphism.best_embeddings.calls": "count",
    "isomorphism.best_embeddings.self_s": "s",
    "isomorphism.best_embeddings.embeddings": "count",
    "isomorphism.best_embeddings.mcs_share": "ratio",
    "isomorphism.order_embeddings.self_s": "s",
    "metrics.spot_values.self_s": "s",
    "metrics.rank_entities.self_s": "s",
    "model.index_build.calls": "count",
    "model.index_build.self_s": "s",
    "model.validate_scenario.s": "s",
    "simulate.run_planning.s": "s",
    "simulate.simulate_acting.s": "s",
    "simulate.events_per_plan": "count",
    "generate.generate_scenario.s": "s",
    "scenario_io.roundtrip.s": "s",
    "auction.singleton_utility_matrix.s": "s",
    "auction.optimal_assignment.s": "s",
    "auction.auction_assign.s": "s",
    "auction.bids_per_plan": "count",
    "distance_per_plan": "length",
    "disconnections_per_plan": "count",
    "utility_per_plan": "utility",
    "utility_gap_pct": "%",
    "fail_share": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass
class Outcome:
    """What one plan produced, as far as the benchmark looks at it."""

    problems: list[str]
    events_digest: str = ""
    allocation_digest: str = ""
    disconnections: int = 0
    broadcasts: int = 0
    distance: float = 0.0
    utility: float = 0.0
    events: int = 0


@dataclass
class Plans:
    """Plan times and outcomes by pool position, over one or more passes."""

    seconds: dict[int, list[float]] = field(default_factory=dict)
    first: dict[int, Outcome] = field(default_factory=dict)
    failed: int = 0

    @property
    def count(self) -> int:
        return sum(len(times) for times in self.seconds.values())

    def total_s(self) -> float:
        return sum(sum(times) for times in self.seconds.values())

    def best_s(self) -> list[float]:
        """Each scenario's fastest plan, in pool order."""
        return [min(self.seconds[p]) for p in sorted(self.seconds)]

    def record(self, position: int, seconds: float, outcome: Outcome) -> None:
        self.seconds.setdefault(position, []).append(seconds)
        reference = self.first.setdefault(position, outcome)
        if outcome.problems:
            self.failed += 1
            print(f"plan {position} failed: " + "; ".join(outcome.problems), file=sys.stderr)
        elif (outcome.events_digest, outcome.allocation_digest) != \
                (reference.events_digest, reference.allocation_digest):
            self.failed += 1
            print(f"plan {position} is not deterministic: a repeat changed its digests",
                  file=sys.stderr)


def probe_s() -> float:
    """Machine-speed probe: a fixed pure-Python loop, timed in this process."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def run_one(scenario, optimum: Optional[float], tracer=None) -> tuple[float, Outcome]:
    """Plan one scenario and check the plan; only the planning is timed."""
    started = time.perf_counter()
    try:
        if tracer is None:
            result = simulate.run_scenario(scenario)
        else:
            with tracer.span("plan"):
                result = simulate.run_scenario(scenario)
    except Exception:  # a failed plan is counted, and the run goes on
        elapsed = time.perf_counter() - started
        traceback.print_exc()
        return elapsed, Outcome(problems=["planner raised an exception"])
    elapsed = time.perf_counter() - started
    m = result.metrics
    return elapsed, Outcome(
        problems=checks.check_plan(scenario, result, optimum),
        events_digest=checks.event_log_digest(result),
        allocation_digest=checks.allocation_digest(result),
        disconnections=m.disconnection_count, broadcasts=m.broadcast_count,
        distance=m.total_distance, utility=m.total_utility, events=len(result.event_log))


def oracle(pool, with_auction: bool) -> tuple[list[float], dict[str, float]]:
    """Exact optimum of every singleton-only scenario, plus the auction
    layer's timings and bid count when ``with_auction`` is set."""
    totals = dict.fromkeys(AUCTION_METRICS, 0.0)
    optima = []
    for scenario in pool:
        index, values = ScenarioIndex.build(scenario), spot_values(scenario.target)
        t0 = time.perf_counter()
        module_ids, spot_ids, matrix = singleton_utility_matrix(index, values)
        t1 = time.perf_counter()
        optima.append(optimal_assignment(matrix)[1])
        t2 = time.perf_counter()
        totals["auction.singleton_utility_matrix.s"] += t1 - t0
        totals["auction.optimal_assignment.s"] += t2 - t1
        if with_auction:
            bids = auction_assign(module_ids, spot_ids, matrix).broadcast_count
            totals["auction.auction_assign.s"] += time.perf_counter() - t2
            totals["auction.bids_per_plan"] += bids / len(pool)
    return optima, totals


def quality(outcomes: dict[int, Outcome], optima: Optional[list[float]],
            attempted: int, failed: int) -> dict[str, float]:
    """Plan-quality means over the pool; deterministic for a given seed."""
    firsts = [outcomes[p] for p in sorted(outcomes)]
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0  # noqa: E731
    report = {
        "broadcasts_per_plan": mean([o.broadcasts for o in firsts]),
        "distance_per_plan": mean([o.distance for o in firsts]),
        "disconnections_per_plan": mean([o.disconnections for o in firsts]),
        "utility_per_plan": mean([o.utility for o in firsts]),
        "utility_gap_pct": 0.0,
        "fail_share": failed / attempted,
    }
    if optima is not None:
        report["utility_gap_pct"] = mean(
            [100.0 * (optima[p] - outcomes[p].utility) / abs(optima[p]) for p in sorted(outcomes)])
    return report


def digests(outcomes: dict[int, Outcome]) -> dict[str, str]:
    ordered = [outcomes[p] for p in sorted(outcomes)]
    return {"allocation": checks.combine(o.allocation_digest for o in ordered),
            "event_log": checks.combine(o.events_digest for o in ordered)}


def plan_pool(pool, optima: Optional[list[float]], plans: Plans, tracer=None) -> None:
    """One pass over the pool, in pool order."""
    for position, scenario in enumerate(pool):
        if tracer is not None:
            tracer.begin_plan(position)
        optimum = optima[position] if optima is not None else None
        plans.record(position, *run_one(scenario, optimum, tracer))
    if tracer is not None:
        tracer.begin_plan(None)


def build(workload, seed: int, size: int) -> tuple[list, float]:
    """The pool, and the seconds its build took."""
    started = time.perf_counter()
    pool = workloads.build_pool(workload, seed, size)
    return pool, time.perf_counter() - started


def timed_passes(workload, seed: int, pool, optima) -> tuple[Plans, list[float], float]:
    """``PASSES`` passes over the pool.  Between two passes the pool is
    built again, outside the plan timings, so that set-up is sampled across
    the run rather than in one burst; every rebuild must equal the pool.
    Returns the plans, the rebuild times and the CPU share of the wall time."""
    plans = Plans()
    builds = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for n in range(workloads.PASSES):
        if n:
            rebuilt, seconds = build(workload, seed, len(pool))
            builds.append(seconds)
            if rebuilt != pool:
                plans.failed += 1
                print("a rebuild of the pool came out different", file=sys.stderr)
        plan_pool(pool, optima, plans)
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    return plans, builds, cpu_share


def traced_passes(workload, pool, optima, seed: int) -> tuple[Plans, Plans, tracing.Tracer]:
    """One untimed pass and one traced pass over the pool, in that order.
    The pool is also built once under the tracer and must come out the same."""
    untimed = Plans()
    plan_pool(pool, optima, untimed)
    tracer = tracing.Tracer()
    traced = Plans()
    restore = tracing.install(tracer)
    try:
        traced_pool = workloads.build_pool(workload, seed, len(pool))
        plan_pool(pool, optima, traced, tracer)
    finally:
        restore()
    if traced_pool != pool:
        traced.failed += 1
        print("the traced set-up built a different pool", file=sys.stderr)
    return untimed, traced, tracer


def layer_metrics(tracer, traced: Plans, untimed: Plans) -> dict[str, float]:
    """Per-layer metrics, summed over the traced pass (one plan per pool
    scenario) or over the traced set-up build."""
    spans = tracing.summarize(tracer.spans)
    counts = tracer.counts
    get = lambda name: spans.get(name, tracing.SpanTotals())  # noqa: E731
    evict, embed = get("allocation.evict"), get("isomorphism.best_embeddings")
    metrics = {
        "allocation.evict.calls": evict.calls,
        "allocation.evict.accepted": counts["allocation.evict.accepted"],
        "allocation.evict.accept_ratio":
            counts["allocation.evict.accepted"] / evict.calls if evict.calls else 0.0,
        "allocation.evict.max_depth": tracer.maxima.get("allocation.evict.max_depth", 0),
        "allocation.evict.self_s": evict.self_s,
        "allocation.spot_allocation.calls": get("allocation.spot_allocation").calls,
        "allocation.spot_allocation.reruns": counts["allocation.spot_allocation.reruns"],
        "allocation.spot_allocation.self_s": get("allocation.spot_allocation").self_s,
        "allocation.block_allocation.self_s": get("allocation.block_allocation").self_s,
        "allocation.no_spot_found": counts["allocation.no_spot_found"],
        "allocation.plan_context_utility.linkless":
            counts["allocation.plan_context_utility.linkless"],
        "allocation.plan_context_utility.linked":
            counts["allocation.plan_context_utility.linked"],
        "utility.module_spot_cost.calls": counts["utility.module_spot_cost.calls"],
        "utility.block_utility.calls": counts["utility.block_utility.calls"],
        "isomorphism.best_embeddings.calls": embed.calls,
        "isomorphism.best_embeddings.self_s": embed.self_s,
        "isomorphism.best_embeddings.embeddings":
            counts["isomorphism.best_embeddings.embeddings"],
        "isomorphism.best_embeddings.mcs_share":
            counts["isomorphism.best_embeddings.mcs_calls"] / embed.calls if embed.calls else 0.0,
        "isomorphism.order_embeddings.self_s": get("isomorphism.order_embeddings").self_s,
        "metrics.spot_values.self_s": get("metrics.spot_values").self_s,
        "metrics.rank_entities.self_s": get("metrics.rank_entities").self_s,
        "model.index_build.calls": get("model.index_build").calls,
        "model.index_build.self_s": get("model.index_build").self_s,
        "model.validate_scenario.s": get("model.validate_scenario").inclusive_s,
        "simulate.run_planning.s": get("simulate.run_planning").inclusive_s,
        "simulate.simulate_acting.s": get("simulate.simulate_acting").inclusive_s,
        "simulate.events_per_plan": statistics.fmean(o.events for o in traced.first.values()),
        "generate.generate_scenario.s": get("generate.generate_scenario").inclusive_s,
        "scenario_io.roundtrip.s": get("scenario_io.roundtrip").inclusive_s,
        "trace.overhead_pct": 100.0 * (traced.total_s() / untimed.total_s() - 1.0),
    }
    return metrics


def self_time_shares(tracer) -> dict[str, float]:
    """Share of traced plan time spent in each span name's own code."""
    plan_names = {s[tracing.NAME] for s in tracer.spans if s[tracing.PLAN] is not None}
    totals = tracing.summarize(tracer.spans)
    total = totals["plan"].inclusive_s
    shares = {name: totals[name].self_s / total for name in plan_names - {"plan"}}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def context(args, pool) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": workloads.HELD_OUT_SEED,
        "pool_size": len(pool), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
    }


def main(args, import_s: float) -> int:
    """Measure, check and report one run; returns the exit code."""
    workload = workloads.WORKLOADS[args.workload]
    pool, first_build_s = build(workload, args.seed, workload.pool_size(args.seconds))
    builds = [first_build_s]

    info = context(args, pool)
    info["probe_s.before"] = probe_s()
    optima, auction = (oracle(pool, with_auction=bool(args.trace))
                       if workload.has_oracle else (None, {}))

    if args.trace:
        untimed, traced, tracer = traced_passes(workload, pool, optima, args.seed)
        attempted = untimed.count + traced.count
        failed = untimed.failed + traced.failed
        plan_digests = digests(untimed.first)
        if digests(traced.first) != plan_digests:
            failed += 1
            print("the traced pass changed the event-log digest", file=sys.stderr)
        metrics = layer_metrics(tracer, traced, untimed)
        metrics.update({k: v for k, v in quality(untimed.first, optima, attempted, failed).items()
                        if k in PER_LAYER_UNITS})
        metrics.update({name: auction.get(name, 0.0) for name in AUCTION_METRICS})
        info["self_time_share"] = self_time_shares(tracer)
        info["untimed_s"], info["traced_s"] = untimed.total_s(), traced.total_s()
        units = PER_LAYER_UNITS
    else:
        plans, rebuilds, info["cpu_share"] = timed_passes(workload, args.seed, pool, optima)
        builds += rebuilds
        attempted, failed = plans.count, plans.failed
        plan_digests = digests(plans.first)
        best = plans.best_s()
        families: dict[str, list[float]] = {}
        for position, seconds in enumerate(best):
            families.setdefault(workload.family(position), []).append(seconds)
        info["family_plan_s.p50"] = {f: statistics.median(v) for f, v in families.items()}
        info["plan_s"] = plans.seconds
        metrics = {
            "plans_per_s": len(best) / sum(best),
            "plan_s.p50": statistics.median(best),
            "setup_s": import_s + statistics.median(builds),
            "peak_rss_mb": peak_rss_mb(),
        }
        info["quality"] = quality(plans.first, optima, attempted, failed)
        metrics.update({k: v for k, v in info["quality"].items() if k in END_TO_END_UNITS})
        units = END_TO_END_UNITS

    info["probe_s.after"] = probe_s()
    info["plans"] = attempted
    info["digests"] = plan_digests
    info["setup"] = {"import_s": import_s, "pool_builds_s": builds}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"context": info, "result": result}, indent=2))
    if args.trace:
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "plan"], "spans": tracer.spans}))

    print("context " + json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>16.6g} {unit}")
    for name, value in info.get("quality", {}).items():
        if name not in units:
            print(f"{name:<44} {value:>16.6g} {PER_LAYER_UNITS[name]} (not gated)")
    print(json.dumps(result))
    return 0
