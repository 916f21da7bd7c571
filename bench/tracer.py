"""Spans around the public functions of each hopftda module, from outside.

The wrapped names live in one table, WRAPPED. Installing the tracer replaces
every module attribute that holds one of those functions (the defining module
and every module that imported it by name) with a wrapper that records a span
(name, start, end, parent) in memory; uninstalling puts the originals back.
A name that no longer resolves is reported as missing and skipped, so a later
refactor degrades the per-layer figures without breaking the run.

A few wrappers also take counts from the arguments and results (steps,
landmarks, edges, rows). That work runs after the span has closed, so it is
charged to the caller's self time, not to the layer's.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, function) pairs traced; keep in step with the README's layer table
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("dynsys", "integrate"),
    ("dynsys", "add_noise"),
    ("embedding", "delay_embed"),
    ("embedding", "select_delay"),
    ("embedding", "select_dimension"),
    ("persistence", "maxmin_subsample"),
    ("persistence", "pairwise_distances"),
    ("persistence", "rips_persistence"),
    ("persistence", "bottleneck_distance"),
    ("functional", "sweep_point"),
    ("lyapunov", "largest_lyapunov"),
    ("cli", "run_case"),
    ("cli", "main"),
)

PACKAGE = "hopftda"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


@dataclass
class RipsCall:
    """One traced rips_persistence call, kept for the correctness checks."""

    entries: np.ndarray
    eps_max: Optional[float]
    rows: List[Tuple[int, float, float]]


@dataclass
class RoundRecord:
    """Everything one traced round recorded."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    rips_calls: List[RipsCall] = field(default_factory=list)
    integrated: set = field(default_factory=set)


class Tracer:
    def __init__(self):
        self.missing: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._stack: List[int] = []
        self.round: Optional[RoundRecord] = None

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        self.missing = []
        for mod_name, fn_name in WRAPPED:
            name = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, _COUNTERS.get(name))
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith(PACKAGE):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def begin_round(self) -> None:
        self.round = RoundRecord()
        self._stack = []

    def end_round(self) -> RoundRecord:
        rec, self.round = self.round, None
        return rec

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.round
            if rec is None:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            rec.spans.append(Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None))
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                rec.spans[idx].start = start
                rec.spans[idx].end = end
            if counter is not None:
                counter(rec, end - start, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _count_integrate(rec: RoundRecord, dur, args, kwargs, result) -> None:
    params, config = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "config")
    rec.counts["dynsys.integrate.steps"] += config.n_steps
    key = (params, config)
    if key in rec.integrated:
        rec.counts["dynsys.integrate.repeat_calls"] += 1
    rec.integrated.add(key)


def _critical(params) -> Optional[Tuple[float, float]]:
    """Swept value and critical value, as largest_lyapunov chooses its budget."""
    kind = type(params).__name__
    if kind == "HopfParams":
        return params.mu, 0.0
    if kind == "LorenzParams":
        return params.rho, params.rho_critical
    if kind == "BzParams":
        return params.b, params.b_critical
    return None


def _count_lyapunov(rec: RoundRecord, dur, args, kwargs, result) -> None:
    params = _arg(args, kwargs, 0, "params")
    config = _arg(args, kwargs, 1, "config")
    if config is None:
        config = sys.modules[f"{PACKAGE}.lyapunov"].LyapunovConfig()
    margin = getattr(sys.modules[f"{PACKAGE}.lyapunov"], "NEAR_CRITICAL_MARGIN", 0.02)
    n_steps, transient = config.n_steps, config.transient_steps
    crit = _critical(params)
    if crit is not None and abs(crit[0] - crit[1]) <= margin * max(abs(crit[1]), 1.0):
        n_steps, transient = 2 * n_steps, 2 * transient
        rec.counts["lyapunov.largest_lyapunov.doubled_calls"] += 1
    # reference trajectory over the whole budget, perturbed one after the transient
    rec.counts["lyapunov.largest_lyapunov.steps"] += 2 * n_steps - transient


def _count_maxmin(rec: RoundRecord, dur, args, kwargs, result) -> None:
    pts = result.points
    rec.counts["persistence.maxmin_subsample.returned"] += pts.shape[0]
    rec.counts["persistence.maxmin_subsample.distinct"] += np.unique(pts, axis=0).shape[0]


def _count_rips(rec: RoundRecord, dur, args, kwargs, result) -> None:
    dist = _arg(args, kwargs, 0, "dist")
    eps_max = _arg(args, kwargs, 1, "eps_max")
    entries = np.asarray(getattr(dist, "entries", dist), dtype=float)
    n = entries.shape[0]
    upper = entries[np.triu_indices(n, k=1)]
    cap = float(upper.max()) if eps_max is None and n > 1 else eps_max
    rec.counts["persistence.rips_persistence.edges"] += int(np.count_nonzero(upper <= cap)) if n > 1 else 0
    rec.counts["persistence.rips_persistence.rows"] += len(result)
    rec.counts["persistence.rips_persistence.max_call_s"] = max(
        rec.counts["persistence.rips_persistence.max_call_s"], dur
    )
    if n > 1 and np.any(upper == 0.0):
        rec.counts["persistence.rips_persistence.duplicate_input_s"] += dur
    rec.rips_calls.append(RipsCall(entries.copy(), eps_max, result.rows()))


_COUNTERS = {
    "dynsys.integrate": _count_integrate,
    "lyapunov.largest_lyapunov": _count_lyapunov,
    "persistence.maxmin_subsample": _count_maxmin,
    "persistence.rips_persistence": _count_rips,
}


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self seconds (span minus its children) and call counts."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for s, c in zip(spans, child_s):
        self_s[s.name] += (s.end - s.start) - c
        calls[s.name] += 1
    return self_s, calls


def layer_metrics(rounds: List[RoundRecord], missing: List[str]) -> Dict[str, Tuple[float, str]]:
    """Per-round means of the per-layer metrics over the traced rounds.

    Layers a workload never calls read 0, as do their rates and ratios.
    """
    k = max(len(rounds), 1)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, float] = defaultdict(float)
    max_rips = 0.0
    for rec in rounds:
        s, c = self_times(rec.spans)
        for name, v in s.items():
            self_s[name] += v
        for name, v in c.items():
            calls[name] += v
        for name, v in rec.counts.items():
            if name == "persistence.rips_persistence.max_call_s":
                max_rips = max(max_rips, v)
            else:
                counts[name] += v

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    for name in ("dynsys.integrate", "lyapunov.largest_lyapunov",
                 "persistence.rips_persistence", "persistence.bottleneck_distance"):
        out[f"{name}.calls"] = (calls[name] / k, "count")
    for name in ("dynsys.integrate", "dynsys.add_noise", "lyapunov.largest_lyapunov",
                 "embedding.delay_embed", "embedding.select_delay", "embedding.select_dimension",
                 "persistence.maxmin_subsample", "persistence.pairwise_distances",
                 "persistence.rips_persistence", "persistence.bottleneck_distance"):
        out[f"{name}.s"] = (self_s[name] / k, "s")
    for name in ("functional.sweep_point", "cli.run_case", "cli.main"):
        out[f"{name}.self_s"] = (self_s[name] / k, "s")
    out["dynsys.integrate.steps_per_s"] = (
        rate(counts["dynsys.integrate.steps"], self_s["dynsys.integrate"]), "1/s")
    out["dynsys.integrate.repeat_calls"] = (counts["dynsys.integrate.repeat_calls"] / k, "count")
    out["lyapunov.largest_lyapunov.steps_per_s"] = (
        rate(counts["lyapunov.largest_lyapunov.steps"], self_s["lyapunov.largest_lyapunov"]), "1/s")
    out["lyapunov.largest_lyapunov.doubled_calls"] = (
        counts["lyapunov.largest_lyapunov.doubled_calls"] / k, "count")
    out["persistence.maxmin_subsample.distinct_ratio"] = (
        rate(counts["persistence.maxmin_subsample.distinct"],
             counts["persistence.maxmin_subsample.returned"]), "ratio")
    for name in ("edges", "rows"):
        out[f"persistence.rips_persistence.{name}"] = (
            counts[f"persistence.rips_persistence.{name}"] / k, "count")
    out["persistence.rips_persistence.max_call_s"] = (max_rips, "s")
    out["persistence.rips_persistence.duplicate_input_s"] = (
        counts["persistence.rips_persistence.duplicate_input_s"] / k, "s")
    out["trace.missing_names"] = (float(len(missing)), "count")
    return out


def spans_json(rounds: List[RoundRecord]) -> List[List[list]]:
    """Spans of each traced round as [name, start, end, parent] rows."""
    return [[[s.name, s.start, s.end, s.parent] for s in rec.spans] for rec in rounds]
