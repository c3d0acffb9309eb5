"""Constrained product-POMDP planning by exponentiated-gradient ascent on the
Lagrange multiplier.

Each iteration scalarizes the two reward channels at the current multiplier,
solves the unconstrained POMDP with the point-based solver, estimates the
satisfaction probability by Monte-Carlo rollouts, and updates the multiplier
multiplicatively from the constraint violation.  The returned mixed policy is
the uniform mixture over the per-iteration policies; a two-support reduction
of that mixture is computed from the basic-feasible-solution LP over the
iteration estimates.

Under geometric stopping the scalarized problem is an ordinary discounted
POMDP with per-step reward  r_step + lam*(1-gamma)/gamma * r_final;  the
multiplier weighting comes from rewriting E[r_final(X_{T+1})] as
(1-gamma)/gamma * sum_{t>=1} gamma^t E[r_final(X_t)].  The leftover t=0 term
and the -lam*(1-delta) threshold term are policy-independent constants and
are returned as an offset rather than folded into the solve.

Theorem 2's satisfaction bound needs sup R, the best unconstrained reward;
``eg_solve`` bounds it from above with the product-MDP bound at lam = 0
(``pbvi.mdp_upper_bound``) rather than solving for it.  The same bound at each
lam_k, minus the iterate's start value, is the gap recorded per iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import pbvi
from .files import write_csv, write_json
from .pbvi import (
    SolverConfig, mdp_q_table, mdp_upper_bound, solve_discounted, solve_finite_horizon,
    start_bound, start_value,
)
from .pomdp import RolloutCache, _inverse_cdfs, _pick, derive_seed
from .product import ProductPomdp


def auto_eta(K: int, B: float) -> float:
    """Learning rate sqrt(log 2 / (2 K B^2)) matching the regret bound."""
    return math.sqrt(math.log(2.0) / (2.0 * K * B * B))


def regret_bound(K: int, B: float) -> float:
    return 2.0 * B * math.sqrt(2.0 * math.log(2.0) / K)


@dataclass
class ConstrainedProblem:
    product: ProductPomdp
    threshold: float            # required satisfaction probability, 1 - delta
    B: float                    # Lagrange multiplier cap
    K: int                      # exponentiated-gradient iterations
    eta: float | str = "auto"
    simu: int = 200             # Monte-Carlo rollouts per constraint evaluation
    base_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0 < self.B < math.inf:
            raise ValueError(f"B must be positive and finite, got {self.B}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.simu < 1:
            raise ValueError("simu must be >= 1")
        if self.eta != "auto" and not 0 < float(self.eta) < math.inf:
            raise ValueError(f"eta must be positive and finite or 'auto', got {self.eta}")

    @property
    def delta(self) -> float:
        return 1.0 - self.threshold

    def resolved_eta(self) -> float:
        return auto_eta(self.K, self.B) if self.eta == "auto" else float(self.eta)


class MixedPolicy:
    """Finite-support distribution over alpha policies, sampled once per run
    by the ``_pick`` rule on ``selection``, the read-only weights' inverse CDF."""

    def __init__(self, policies, weights):
        self.policies = list(policies)
        weights = np.asarray(weights)
        if weights.dtype.kind not in "iuf":  # strings, booleans and None are refused, not coerced
            raise ValueError(f"weights must be numbers, got {weights.tolist()}")
        self.weights = np.array(weights, dtype=np.float64)
        if self.weights.shape != (len(self.policies),):
            raise ValueError("one weight per policy required")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError(f"weights must be finite, got {self.weights.tolist()}")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, expected 1")
        self.weights.setflags(write=False)
        self.selection = _inverse_cdfs(self.weights[None, :])[0]


@dataclass
class IterationRecord:
    k: int
    lam: float
    p_hat: float
    r_hat: float
    p_se: float                 # standard errors of p_hat and r_hat
    r_se: float
    converged: bool
    gap: float                  # MDP upper bound (mdp_q_table) minus the start value, at lam


@dataclass
class EvalResult:
    r_hat: float
    p_hat: float
    r_se: float
    p_se: float
    n: int


@dataclass
class EGResult:
    records: list[IterationRecord]
    mixture: MixedPolicy
    lam_bar: float
    bound: float
    r_m_upper: float             # mdp_upper_bound at lam = 0: an upper bound on sup R
    eps_f: float                 # Theorem 2: (r_m_upper - mean r_hat + bound) / B
    threshold: float
    B: float
    K: int
    eta: float
    slack: float
    bfs_weights: np.ndarray | None
    bfs_mixture: MixedPolicy | None
    timings: dict = field(default_factory=dict)

    def mean_r_hat(self) -> float:
        return float(np.mean([rec.r_hat for rec in self.records]))

    def mean_p_hat(self) -> float:
        return float(np.mean([rec.p_hat for rec in self.records]))


# --------------------------------------------------------------------------
# Scalarization
# --------------------------------------------------------------------------

def scalarize(prod: ProductPomdp, lam: float, delta: float):
    """Fold the final-reward channel into the step reward at multiplier lam.

    Returns (reward map, terminal reward, offset).

    Geometric stopping: reward = r_step + lam*(1-gamma)/gamma * r_final, no
    terminal reward (None) and
    offset = -lam*(1-gamma)/gamma * r_final(x0) - lam*(1-delta), so the
    Lagrangian equals the gamma-discounted value of the map plus the offset.

    Fixed stopping: the stage reward r_step, the terminal channel
    lam*r_final that applies after the last action, and
    offset = -lam*(1-delta).
    """
    stopping = prod.stopping
    if stopping.kind == "geometric":
        gamma = stopping.gamma
        coef = lam * (1.0 - gamma) / gamma
        reward = prod.rewards + coef * prod.r_final[:, None]
        q0_accepting = prod.dfa.initial in prod.dfa.accepting
        offset = -coef * (1.0 if q0_accepting else 0.0) - lam * (1.0 - delta)
        return reward, None, offset
    terminal = lam * prod.r_final  # fixed stopping
    offset = -lam * (1.0 - delta)
    return prod.rewards.copy(), terminal, offset


# --------------------------------------------------------------------------
# Exponentiated-gradient multiplier update
# --------------------------------------------------------------------------

_LOGIT_CLAMP = 36.0  # keeps the update strictly inside (0, B) in float64


def eg_update_lambda(lam: float, p_hat: float, eta: float, B: float, delta: float) -> float:
    """Multiplicative update  B * lam * e^z / (B + lam * (e^z - 1))  with
    z = -eta * (p_hat - 1 + delta), evaluated in logit space for stability."""
    if not 0.0 < lam < B:
        raise ValueError(f"multiplier {lam} outside (0, {B})")
    z = -eta * (p_hat - 1.0 + delta)
    logit = math.log(lam / (B - lam)) + z
    logit = max(-_LOGIT_CLAMP, min(_LOGIT_CLAMP, logit))
    return B / (1.0 + math.exp(-logit))


# --------------------------------------------------------------------------
# Monte-Carlo policy evaluation
# --------------------------------------------------------------------------

_SELECT_STREAM = 0x5E1EC7
_WINDOW = 256  # rollouts whose head rows (and mixture picks) come from one draw


def rollouts(policy, prod: ProductPomdp, seed: int, n: int):
    """Rollouts 0 .. n - 1 of key ``seed`` under ``policy``, in order; rollout
    i depends on (seed, i) alone.  A MixedPolicy picks rollout i's pure policy
    from its ``selection`` table with double i of make_rng(derive_seed(seed,
    _SELECT_STREAM)), a stream apart from the runs', so a degenerate mixture
    repeats its policy's runs; the run is rollout i of key ``seed``
    (``sample_trajectory``).  Each window of ``_WINDOW`` rollouts draws its
    head rows, and its picks, at once, and all n share one RolloutCache."""
    cache = RolloutCache()
    select = derive_seed(seed, _SELECT_STREAM) if isinstance(policy, MixedPolicy) else None
    for start in range(0, n, _WINDOW):
        rows = min(_WINDOW, n - start)
        heads = cache.draw(seed, start, rows)  # a row becomes floats only when its run starts
        pures = [policy] * rows if select is None else [
            policy.policies[_pick(policy.selection, u)]
            for u in cache.draw(select, start, rows, 1).ravel().tolist()]
        for i, head, pure in zip(range(start, start + rows), heads, pures):
            yield prod.simulate(pure, seed, cache, i, head.tolist())


def mc_evaluate(policy, prod: ProductPomdp, n: int, seed: int) -> EvalResult:
    """Estimate cumulative step reward and satisfaction probability from
    ``rollouts(policy, prod, seed, n)``, so rollout i is the same in every
    evaluation of more than i rollouts.  A run's total is numpy's pairwise
    ``rewards.sum()``, whose rounding the estimates keep.  The runs of each
    window of ``_WINDOW`` are summed by length, one ``sum(axis=1)`` over the
    C-contiguous rows of each length, and numpy reduces each such row exactly
    as the row alone.  Runs are read as lists: no trajectory array is built."""
    if n < 1:
        raise ValueError("need at least one rollout")
    totals, finals = np.empty(n), np.empty(n)
    accepts = prod.accepts_at_stop.tolist()
    window = {}  # run length -> (rollout indices, reward lists) since the last flush
    for i, traj in enumerate(rollouts(policy, prod, seed, n)):
        finals[i] = accepts[traj.state_list[-1]]
        index, rows = window.setdefault(len(traj), ([], []))
        index.append(i)
        rows.append(traj.reward_list)
        if (i + 1) % _WINDOW == 0 or i + 1 == n:
            for index, rows in window.values():
                totals[index] = np.array(rows).sum(axis=1)
            window.clear()
    r_se, p_se = (float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0 for x in (totals, finals))
    return EvalResult(float(totals.mean()), float(finals.mean()), r_se, p_se, n)


# --------------------------------------------------------------------------
# Support reduction (basic feasible solutions of the two-constraint LP)
# --------------------------------------------------------------------------

def reduce_support_bfs(r_hats, p_hats, threshold: float, slack: float = 0.0):
    """Exact optimum of  max w.r  s.t.  w.p >= threshold - slack, sum w <= 1,
    w >= 0  by enumerating basic solutions, which have at most two nonzeros.

    Returns the weight vector or None when no mixture meets the constraint.
    """
    r = np.asarray(r_hats, dtype=np.float64)
    p = np.asarray(p_hats, dtype=np.float64)
    if r.shape != p.shape or r.ndim != 1 or r.size < 1:
        raise ValueError("need matching 1-d candidate arrays")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    tau = threshold - slack
    K = r.size
    best_value = -np.inf
    best_w = None

    def consider(weights):
        nonlocal best_value, best_w
        if weights @ p < tau - 1e-12 or weights.sum() > 1 + 1e-12:
            return
        value = weights @ r
        if value > best_value + 1e-15:
            best_value = value
            best_w = weights

    if tau <= 0:
        consider(np.zeros(K))
    for k in range(K):
        w = np.zeros(K)
        w[k] = 1.0
        consider(w)
        if tau > 0 and p[k] > 0 and tau / p[k] <= 1.0:
            w = np.zeros(K)
            w[k] = tau / p[k]
            consider(w)
    for k in range(K):
        for l in range(k + 1, K):
            if p[k] == p[l]:
                continue
            wk = (tau - p[l]) / (p[k] - p[l])
            if 0.0 <= wk <= 1.0:
                w = np.zeros(K)
                w[k], w[l] = wk, 1.0 - wk
                consider(w)
    return best_w


# --------------------------------------------------------------------------
# The main loop
# --------------------------------------------------------------------------

GAP_SHARE = 0.1  # a converged discounted solve's largest gap(b0), as a share of its value span


def solve_at(prod: ProductPomdp, lam: float, delta: float, cfg: SolverConfig, warm=None):
    """The policy at multiplier ``lam``, its gap at b0 (MDP upper bound minus
    start value, on the scalarized scale) and the warm state for the next call.

    Fixed stopping: ``solve_finite_horizon``, cold, and converged unless it
    capped a stage; the warm state is None.
    Geometric stopping: the first call walks belief space once; each later
    call backs up at the same beliefs from the previous alphas lowered by
    |d lam| / gamma, so they stay lower bounds, and starts the MDP upper bound
    from the previous values raised by as much (capped by ``mdp_q_table``).
    It is converged only if the Bellman stop fired and the gap is at most
    GAP_SHARE of the value span (max - min reward) / (1 - gamma).  The warm
    state is (lam, beliefs, policy, upper-bound state values).
    """
    reward, terminal, _ = scalarize(prod, lam, delta)
    stopping = prod.stopping
    if stopping.kind != "geometric":
        policy = solve_finite_horizon(prod, reward, stopping.T, cfg, terminal=terminal)
        return policy, mdp_upper_bound(prod, reward, terminal) - start_value(policy, prod), None
    gamma = stopping.gamma
    if warm is None:
        # looked up on the module, so a patched (e.g. traced) walk is the one called
        beliefs = pbvi.expand_beliefs_random_walk(prod, cfg, gamma)
        warm_start = upper_start = None
    else:
        prev_lam, beliefs, prev, upper_values = warm
        shift = abs(lam - prev_lam) / gamma
        warm_start = (prev.alphas - shift, prev.actions)
        upper_start = upper_values + shift
    policy = solve_discounted(prod, reward, gamma, cfg, warm_start=warm_start, beliefs=beliefs)
    q_table = mdp_q_table(prod, reward, terminal, start=upper_start)
    gap = start_bound(q_table, prod) - start_value(policy, prod)
    span = (reward.max() - reward.min()) / (1.0 - gamma)
    policy.converged = bool(policy.converged and gap <= GAP_SHARE * span)
    return policy, gap, (lam, beliefs, policy, q_table.max(axis=1))


def eg_solve(problem: ConstrainedProblem, cfg: SolverConfig | None = None) -> EGResult:
    """Run K exponentiated-gradient iterations and assemble the mixture.

    Each iteration solves at its multiplier (``solve_at``, handed the previous
    call's warm state), evaluates the policy by Monte Carlo and updates the
    multiplier.  sup R is bounded from above by mdp_upper_bound at lam = 0,
    not solved for.
    """
    cfg = cfg or SolverConfig()
    prod = problem.product
    B, K, delta = problem.B, problem.K, problem.delta
    eta = problem.resolved_eta()
    slack = 2.0 * math.sqrt(2.0 * math.log(2.0) / K)
    lam = B / 2.0
    records: list[IterationRecord] = []
    policies = []
    warm = None
    t_solve = t_simu = 0.0
    for k in range(1, K + 1):
        if not 0.0 < lam < B:
            raise RuntimeError(f"multiplier left (0, B): {lam}")
        tic = time.perf_counter()
        policy, gap, warm = solve_at(prod, lam, delta, cfg, warm)
        t_solve += time.perf_counter() - tic
        tic = time.perf_counter()
        est = mc_evaluate(policy, prod, problem.simu, derive_seed(problem.base_seed, k))
        t_simu += time.perf_counter() - tic
        records.append(IterationRecord(k, lam, est.p_hat, est.r_hat, est.p_se, est.r_se,
                                       policy.converged, gap))
        policies.append(policy)
        lam = eg_update_lambda(lam, est.p_hat, eta, B, delta)

    mixture = MixedPolicy(policies, np.full(K, 1.0 / K))
    lam_bar = float(np.mean([rec.lam for rec in records]))
    r_m_upper = mdp_upper_bound(prod, scalarize(prod, 0.0, delta)[0])

    bound = regret_bound(K, B)
    r_hats = np.array([rec.r_hat for rec in records])
    p_hats = np.array([rec.p_hat for rec in records])
    achieved = float(r_hats.mean())
    eps_f = (r_m_upper - achieved + bound) / B

    bfs_w = reduce_support_bfs(r_hats, p_hats, problem.threshold, slack)
    bfs_mixture = None
    if bfs_w is not None and bfs_w.sum() > 0:
        exec_w = bfs_w / bfs_w.sum()  # executable distribution; raw LP weights kept
        support = np.nonzero(exec_w)[0]
        bfs_mixture = MixedPolicy([policies[i] for i in support], exec_w[support])

    return EGResult(records=records, mixture=mixture, lam_bar=lam_bar, bound=bound,
                    r_m_upper=r_m_upper, eps_f=eps_f, threshold=problem.threshold,
                    B=B, K=K, eta=eta, slack=slack, bfs_weights=bfs_w,
                    bfs_mixture=bfs_mixture,
                    timings={"t_solve_s": t_solve, "t_simu_s": t_simu})


TRACE_COLUMNS = ("k", "lambda", "r_hat", "p_hat", "r_se", "p_se", "converged", "gap")


def trace_rows(result: EGResult) -> list[dict]:
    """One row per iteration, keyed by TRACE_COLUMNS: the records of
    result.json's trace and the rows of trace.csv."""
    return [dict(zip(TRACE_COLUMNS, (rec.k, rec.lam, rec.r_hat, rec.p_hat, rec.r_se, rec.p_se,
                                     rec.converged, rec.gap)))
            for rec in result.records]


# --------------------------------------------------------------------------
# Result files
# --------------------------------------------------------------------------

def result_to_dict(result: EGResult) -> dict:
    """The run report of result.json: regret bound, achieved estimates, the
    upper bound on sup R with the satisfaction bound eps_f it gives, the
    per-iteration trace (with each iterate's gap at b0) behind the
    multiplier/reward/satisfaction plot, and the mixture weights."""
    return {
        "bound": result.bound,
        "B": result.B,
        "K": result.K,
        "eta": result.eta,
        "lam_bar": result.lam_bar,
        "r_hat_mixture": result.mean_r_hat(),
        "p_hat_mixture": result.mean_p_hat(),
        "threshold": result.threshold,
        "r_m_upper_bound": result.r_m_upper,
        "eps_f_surrogate": result.eps_f,
        "trace": trace_rows(result),
        "slack": result.slack,
        "bfs_weights": None if result.bfs_weights is None else result.bfs_weights.tolist(),
        "mixture_weights": result.mixture.weights.tolist(),
    }


def export_trace_csv(result: EGResult, path) -> None:
    write_csv(path, TRACE_COLUMNS, trace_rows(result))


def save_result(result: EGResult, path) -> None:
    write_json(path, result_to_dict(result))
