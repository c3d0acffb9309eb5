"""Spans and counters recorded from outside the planner.

A traced op patches the module attributes the planner's callers actually look
up (``ltlfplan.planner.solve_discounted``, ``ltlfplan.product.sample_trajectory``,
...) with timing wrappers and restores them afterwards.  Coarse calls become
spans (name, start, end, parent); per-rollout and per-step calls only bump
aggregated counters, so memory stays bounded however many steps an op takes.

Every wrapper charges its duration to the frame that encloses it, so a span's
or counter's self time is its duration minus the time its children took.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import ltlfplan


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0          # time covered by child spans and counted calls
    info: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


@dataclass
class Counter:
    calls: int = 0
    units: int = 0                # work items, e.g. steps of a rollout
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class _Frame:
    __slots__ = ("span", "child_s")

    def __init__(self, span=None):
        self.span = span
        self.child_s = 0.0


def _solve_info(args, kwargs, policy):
    return {"warm": kwargs.get("warm_start") is not None, "rounds": policy.stats["rounds"],
            "converged": policy.converged, "alphas": len(policy.alphas),
            "beliefs": len(policy.stats["beliefs"])}


# (module, attribute, recorded name, kind, info or unit-count hook)
TARGETS = (
    (ltlfplan.planner, "solve_discounted", "pbvi.solve_discounted", "span", _solve_info),
    (ltlfplan.pbvi, "expand_beliefs_random_walk", "pbvi.expand_beliefs", "span", None),
    (ltlfplan.planner, "mc_evaluate", "planner.mc_evaluate", "span", None),
    (ltlfplan.planner, "reduce_support_bfs", "planner.reduce_support_bfs", "span", None),
    (ltlfplan.product, "sample_trajectory", "pomdp.sample_trajectory", "count", len),
    (ltlfplan.pomdp, "belief_update", "pomdp.belief_update", "count", None),
    (ltlfplan.pbvi.AlphaPolicy, "action", "pbvi.AlphaPolicy.action", "count", None),
)


class Tracer:
    """Spans and counters of one op; ``installed()`` patches the targets."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self._stack = [_Frame()]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around one of the benchmark's own calls."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        parent = self._stack[-1].span
        span = Span(len(self.spans), -1 if parent is None else parent.id, name, 0.0)
        self.spans.append(span)
        self._stack.append(_Frame(span))
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        frame = self._stack.pop()
        span.child_s = frame.child_s
        self._stack[-1].child_s += span.dur

    def _wrap_span(self, fn, name, info):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return wrapper

    def _wrap_count(self, fn, name, units):
        stat = self.counters.setdefault(name, Counter())
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1].child_s += dt
                stat.calls += 1
                stat.total_s += dt
                stat.child_s += frame.child_s
            stat.units += units(result) if units is not None else 1
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, kind, hook in TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                wrap = self._wrap_span if kind == "span" else self._wrap_count
                setattr(owner, attr, wrap(fn, name, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def children(self, span: Span, name: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id and (name is None or s.name == name)]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def counter(self, name: str) -> Counter:
        return self.counters.get(name, Counter())

    def to_records(self, op_seed: int) -> list[dict]:
        return [{"op_seed": op_seed, "id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "self_s": s.self_s, "info": s.info}
                for s in self.spans]


def null_span(_name: str):
    """Stand-in for ``Tracer.span`` in untraced ops."""
    return contextlib.nullcontext()


def layer_metrics(tracer: Tracer, op_s: float, prod) -> dict[str, float]:
    """Per-layer numbers of one traced op on product ``prod`` (units as listed
    in BENCHMARK.json).  A layer the op never calls reads 0."""
    (eg,) = tracer.find("planner.eg_solve")
    solves = tracer.children(eg, "pbvi.solve_discounted")
    in_loop = tracer.children(eg, "planner.mc_evaluate")
    (final,) = tracer.find("planner.final_eval")
    expand = tracer.find("pbvi.expand_beliefs")
    rounds = sum(s.info["rounds"] for s in solves)
    loop_solves = solves[:len(in_loop)]
    iters = sorted(m.end - s.start for s, m in zip(loop_solves, in_loop))
    roll = tracer.counter("pomdp.sample_trajectory")
    upd = tracer.counter("pomdp.belief_update")
    act = tracer.counter("pbvi.AlphaPolicy.action")
    backup_s = sum(s.self_s for s in solves)

    def total(name):
        return sum(s.dur for s in tracer.find(name))

    def per_us(seconds, n):
        return 1e6 * seconds / n if n else 0.0

    return {
        "pbvi.rounds": rounds,
        "pbvi.round_ms": 1e3 * backup_s / rounds if rounds else 0.0,
        "pbvi.cold_rounds": sum(s.info["rounds"] for s in solves if not s.info["warm"]),
        "pbvi.warm_rounds": sum(s.info["rounds"] for s in solves if s.info["warm"]),
        "pbvi.ref_solve_s": solves[-1].dur,
        "pbvi.alphas": statistics.median([s.info["alphas"] for s in loop_solves]),
        "pbvi.unconverged": sum(not s.info["converged"] for s in solves),
        "pbvi.solve_s": sum(s.dur for s in solves),
        "pbvi.expand_s": sum(s.dur for s in expand),
        "pbvi.beliefs": statistics.median([s.info["beliefs"] for s in solves]),
        "pomdp.rollouts": roll.calls,
        "pomdp.steps": roll.units,
        "pomdp.rollout_us": per_us(roll.total_s, roll.calls),
        "pomdp.step_us": per_us(roll.self_s, roll.units),
        "pomdp.belief_updates": upd.calls,
        "pomdp.belief_update_us": per_us(upd.total_s, upd.calls),
        "pbvi.action_calls": act.calls,
        "pbvi.action_us": per_us(act.total_s, act.calls),
        "planner.iterations": len(in_loop),
        "planner.iter_s": statistics.median(iters),
        "planner.mc_evaluate_s": sum(s.dur for s in in_loop),
        "planner.final_eval_s": final.dur,
        "planner.bfs_s": total("planner.reduce_support_bfs"),
        "planner.solve_share": sum(s.dur for s in solves) / op_s,
        "planner.rollout_share": roll.total_s / op_s,
        "ltlf.parse_s": total("ltlf.parse_formula"),
        "dfa.compile_s": total("dfa.compile_dfa"),
        "dfa.minimize_s": total("dfa.minimize_dfa"),
        "dfa.states": prod.dfa.n_states,
        "benchmarks.make_model_s": total("benchmarks.make_model"),
        "product.build_s": total("product.build_product"),
        "product.prune_s": total("product.prune_unreachable"),
        "product.states": prod.n_states,
        "product.p_nnz_frac": np.count_nonzero(prod.P) / prod.P.size,
        "product.z_nnz_frac": np.count_nonzero(prod.Z) / prod.Z.size,
    }

