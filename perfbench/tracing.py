"""Spans and counters around shapeform's public functions.

The traced pass replaces public functions of the ``shapeform`` modules with
wrappers, inside the benchmark process only, and puts the originals back
afterwards.  A function is replaced under every module attribute that
refers to it, because modules call each other through names they imported
(``simulate.spot_allocation`` is ``allocation.spot_allocation``).  The
program's source is never edited.

Each span records name, start, end, parent span and plan id; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

NAME, START, END, PARENT, PLAN = range(5)


class Tracer:
    """In-memory span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, plan id]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.plan_id: Optional[int] = None
        self.seen_modules: set[int] = set()  # spot_allocation callers in this plan
        self._stack: list[int] = []

    def begin_plan(self, plan_id: Optional[int]) -> None:
        self.plan_id = plan_id
        self.seen_modules = set()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.plan_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def timed(self, name: str, fn: Callable,
              observe: Optional[Callable[["Tracer", tuple, dict, object], None]] = None):
        """``fn`` wrapped in a span; ``observe`` sees each call's arguments
        and result and may update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn: Callable, key: Callable[[tuple], str]):
        """``fn`` wrapped with a counter only: no span, for functions called
        millions of times."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key(args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value


@dataclass
class SpanTotals:
    calls: int = 0
    inclusive_s: float = 0.0  # outermost spans only, so recursion is not double-counted
    self_s: float = 0.0


def summarize(spans: list[list]) -> dict[str, SpanTotals]:
    """Calls, inclusive time and self time per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    totals: dict[str, SpanTotals] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        entry = totals.setdefault(name, SpanTotals())
        entry.calls += 1
        entry.self_s += duration - covered[i]
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent is None:
            entry.inclusive_s += duration
    return totals


def _observe_evict(tracer: Tracer, args, kwargs, accepted) -> None:
    # evict(curr_id, block_id, depth, state, ctx, chain)
    tracer.note_max("allocation.evict.max_depth", args[2] if len(args) > 2 else kwargs["depth"])
    if accepted:
        tracer.counts["allocation.evict.accepted"] += 1


def _observe_spot_allocation(tracer: Tracer, args, kwargs, spot) -> None:
    module_id = args[0] if args else kwargs["module_id"]
    if module_id in tracer.seen_modules:
        tracer.counts["allocation.spot_allocation.reruns"] += 1
    tracer.seen_modules.add(module_id)
    if spot is None:
        tracer.counts["allocation.no_spot_found"] += 1


def _observe_embeddings(tracer: Tracer, args, kwargs, embeddings) -> None:
    tracer.counts["isomorphism.best_embeddings.embeddings"] += len(embeddings)
    if embeddings and embeddings[0].kind == "mcs":
        tracer.counts["isomorphism.best_embeddings.mcs_calls"] += 1


# (defining module, function, span name, observer)
SPANNED = (
    ("shapeform.allocation", "evict", "allocation.evict", _observe_evict),
    ("shapeform.allocation", "spot_allocation", "allocation.spot_allocation",
     _observe_spot_allocation),
    ("shapeform.allocation", "block_allocation", "allocation.block_allocation", None),
    ("shapeform.isomorphism", "best_embeddings", "isomorphism.best_embeddings",
     _observe_embeddings),
    ("shapeform.isomorphism", "order_embeddings", "isomorphism.order_embeddings", None),
    ("shapeform.metrics", "spot_values", "metrics.spot_values", None),
    ("shapeform.metrics", "rank_entities", "metrics.rank_entities", None),
    ("shapeform.model", "validate_scenario", "model.validate_scenario", None),
    ("shapeform.simulate", "run_planning", "simulate.run_planning", None),
    ("shapeform.simulate", "simulate_acting", "simulate.simulate_acting", None),
    ("shapeform.generate", "generate_scenario", "generate.generate_scenario", None),
    ("workloads", "round_trip", "scenario_io.roundtrip", None),
)

# (defining module, function, counter name)
COUNTED = (
    ("shapeform.utility", "module_spot_cost", "utility.module_spot_cost.calls"),
    ("shapeform.utility", "block_utility", "utility.block_utility.calls"),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced functions; returns a function that restores them."""
    from shapeform.allocation import PlanContext
    from shapeform.model import ScenarioIndex

    holders = [module for name, module in list(sys.modules.items())
               if name == "workloads" or name.startswith("shapeform.")]
    undo: list[tuple[object, str, object]] = []

    def replace_everywhere(original, wrapper) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    for module_name, attr, span_name, observe in SPANNED:
        original = getattr(importlib.import_module(module_name), attr)
        replace_everywhere(original, tracer.timed(span_name, original, observe))
    for module_name, attr, counter_name in COUNTED:
        original = getattr(importlib.import_module(module_name), attr)
        replace_everywhere(original, tracer.counted(original, lambda args, n=counter_name: n))

    build = vars(ScenarioIndex)["build"]
    undo.append((ScenarioIndex, "build", build))
    ScenarioIndex.build = staticmethod(tracer.timed("model.index_build", build.__func__))

    utility = vars(PlanContext)["utility"]
    undo.append((PlanContext, "utility", utility))
    # args = (ctx, module_id, spot_id, state); linkless utilities are cached
    PlanContext.utility = tracer.counted(
        utility,
        lambda args: ("allocation.plan_context_utility.linked"
                      if args[0].index.module_links[args[1]]
                      else "allocation.plan_context_utility.linkless"))

    def restore() -> None:
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)

    return restore
