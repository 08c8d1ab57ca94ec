"""Spans around the calls into dbfnet's modules, recorded from outside.

The tracer replaces a function by a wrapper in the namespace where callers
look it up (``dbfnet.scenarios.consensus_update`` is the name benchmark 1's
loop calls, not ``dbfnet.engine.consensus_update``). Each call records one
span: layer name, start, end, parent span and an optional work quantity.
Spans stay in memory and are summarized after the run.

A target that no longer exists, after a refactor renames or merges it, is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable


def _array_bytes(args, result) -> int:
    """Bytes of every array argument plus the result, computed from sizes."""
    return sum(getattr(x, "nbytes", 0) for x in (*args, result))


def _points(args, result) -> int:
    """Query points of ``StateGrid.log_interp``: one value per point."""
    return int(getattr(result, "size", 1))


def _file_bytes(args, result) -> int:
    """Size of the file ``write_metrics(path, metrics)`` just wrote."""
    return os.path.getsize(args[0])


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    attr: str
    quantity: Callable | None = None


# Layers are dbfnet's modules; each target names a public function by the
# module namespace its callers resolve it in. Functions that several modules
# call are wrapped in each namespace under one layer name.
TARGETS = (
    Target("cli.main", "dbfnet.cli", "main"),
    Target("cli.write_metrics", "dbfnet.cli", "write_metrics", _file_bytes),
    Target("engine.consensus_update", "dbfnet.scenarios", "consensus_update", _array_bytes),
    Target("engine.power_rows", "dbfnet.scenarios", "power_rows"),
    Target("engine.logsumexp", "dbfnet.engine", "logsumexp"),
    Target("scenarios.logsumexp", "dbfnet.scenarios", "logsumexp"),
    Target("density.log_interp", "dbfnet.density", "StateGrid.log_interp", _points),
    Target("density.systematic_indices", "dbfnet.scenarios", "systematic_indices"),
    Target("scenarios.toa_log_likelihood", "dbfnet.scenarios", "toa_log_likelihood"),
    Target("scenarios.doa_log_likelihood", "dbfnet.scenarios", "doa_log_likelihood"),
    Target("infofilter.info_predict", "dbfnet.scenarios", "info_predict"),
    Target("infofilter.info_predict", "dbfnet.infofilter", "info_predict"),
    Target("infofilter.info_measurement", "dbfnet.scenarios", "info_measurement"),
    Target("infofilter.info_measurement", "dbfnet.infofilter", "info_measurement"),
    Target("infofilter.info_fuse", "dbfnet.scenarios", "info_fuse"),
    Target("infofilter.info_update", "dbfnet.scenarios", "info_update"),
    Target("infofilter.centralized_info_step", "dbfnet.scenarios", "centralized_info_step"),
    Target("engine.dbf_step", "dbfnet.engine", "dbf_step"),
    Target("engine.predict", "dbfnet.engine", "predict"),
    Target("engine.fuse", "dbfnet.engine", "fuse"),
    Target("engine.power_estimate", "dbfnet.engine", "power_estimate"),
    Target("engine.update", "dbfnet.engine", "update"),
    Target("density.floor_and_normalize", "dbfnet.density", "floor_and_normalize"),
    Target("density.DensityGrid.init", "dbfnet.density", "DensityGrid.__init__"),
    Target("density.l1_distance", "dbfnet.engine", "l1_distance"),
    Target("pools.joint_likelihood", "dbfnet.engine", "joint_likelihood"),
    Target("topology.local_degree_weights", "dbfnet.scenarios", "local_degree_weights"),
    Target("topology.random_schedule", "dbfnet.topology", "random_schedule"),
    Target("topology.sigma_m", "dbfnet.topology", "sigma_m"),
    Target("bounds.estimate_theta_l", "dbfnet.bounds", "estimate_theta_l"),
    Target("bounds.initial_disagreement", "dbfnet.bounds", "initial_disagreement"),
    Target("bounds.delta_max", "dbfnet.bounds", "delta_max"),
    Target("bounds.kappa", "dbfnet.bounds", "kappa"),
    Target("bounds.steady_state_delta", "dbfnet.bounds", "steady_state_delta"),
)

# The CLI dispatches through a table of (config class, runner) pairs, so the
# scenario runners are wrapped in that table rather than by name.
RUNNER_LAYER = "scenarios.run"
RUNNER_TABLE = ("dbfnet.cli", "_SCENARIOS")


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int
    quantity: int


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, layer: str, fn: Callable, quantity: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, done = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                amount = quantity(args, result) if quantity is not None and done else 0
                spans[index] = Span(layer, start, end, parent, amount)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for t in targets:
            owner, name = _resolve_owner(t.module, t.attr)
            if owner is None or not callable(getattr(owner, name, None)):
                self.absent.append(f"{t.layer} ({t.module}.{t.attr})")
                continue
            setattr(owner, name, self.wrap(t.layer, getattr(owner, name), t.quantity))
        owner, name = _resolve_owner(*RUNNER_TABLE)
        table = getattr(owner, name, None) if owner is not None else None
        if not isinstance(table, dict):
            self.absent.append(f"{RUNNER_LAYER} ({'.'.join(RUNNER_TABLE)})")
            return
        for key, (cls, runner) in list(table.items()):
            table[key] = (cls, self.wrap(RUNNER_LAYER, runner))

    def summary(self, timed_start: float, timed_end: float) -> dict:
        """Layer totals for the timed phase and for the whole process."""
        return {
            "timed": layer_totals(self.spans, timed_start, timed_end),
            "process": layer_totals(self.spans),
            "bounds_busy_s": union_busy(self.spans, "bounds."),
            "spans": len(self.spans),
            "absent": list(self.absent),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,layer,start,end,parent,quantity\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.layer},{s.start!r},{s.end!r},{s.parent},{s.quantity}\n")


def _resolve_owner(module: str, attr: str):
    """Return (object holding the last name, last name), or (None, attr)."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, attr
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name


def layer_totals(spans: list, start: float = float("-inf"), end: float = float("inf")) -> dict:
    """Per layer: calls, busy seconds, self seconds and summed work amount.

    Only spans lying within [start, end] count. Busy time counts only the
    outermost span of a layer, so a layer that calls itself is not counted
    twice; self time subtracts the direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals: dict = {}
    for i, s in enumerate(spans):
        if not (start <= s.start and s.end <= end):
            continue
        t = totals.setdefault(s.layer, {"calls": 0, "busy": 0.0, "self": 0.0, "amount": 0})
        t["calls"] += 1
        t["amount"] += s.quantity
        t["self"] += (s.end - s.start) - child_time[i]
        if not _inside_same_layer(spans, s):
            t["busy"] += s.end - s.start
    return totals


def _inside_same_layer(spans: list, span: Span) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].layer == span.layer:
            return True
        p = spans[p].parent
    return False


def union_busy(spans: list, prefix: str) -> float:
    """Seconds spent inside any layer whose name starts with ``prefix``."""
    total = 0.0
    for s in spans:
        if not s.layer.startswith(prefix):
            continue
        p = s.parent
        while p >= 0 and not spans[p].layer.startswith(prefix):
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total
