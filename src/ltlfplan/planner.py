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
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .pbvi import SolverConfig, solve_discounted, solve_finite_horizon, start_value
from .pomdp import _categorical, derive_seed, make_rng
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
        if self.B <= 0:
            raise ValueError("B must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.simu < 1:
            raise ValueError("simu must be >= 1")
        if self.eta != "auto" and float(self.eta) <= 0:
            raise ValueError("eta must be positive or 'auto'")

    @property
    def delta(self) -> float:
        return 1.0 - self.threshold

    def resolved_eta(self) -> float:
        return auto_eta(self.K, self.B) if self.eta == "auto" else float(self.eta)


class MixedPolicy:
    """Finite-support distribution over alpha policies, sampled once per run."""

    def __init__(self, policies, weights):
        self.policies = list(policies)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape != (len(self.policies),):
            raise ValueError("one weight per policy required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, expected 1")


@dataclass
class IterationRecord:
    k: int
    lam: float
    p_hat: float
    r_hat: float
    p_se: float                 # standard errors of p_hat and r_hat
    r_se: float
    converged: bool


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
    r_m_estimate: float          # solver value at lam = 0; a lower bound on sup R
    eps_f: float                 # surrogate using achieved reward in place of R*
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

    Geometric stopping: returns (reward map, offset) with
    reward = r_step + lam*(1-gamma)/gamma * r_final and
    offset = -lam*(1-gamma)/gamma * r_final(x0) - lam*(1-delta), so the
    Lagrangian equals the gamma-discounted value of the map plus the offset.

    Fixed stopping: returns (stage reward, terminal reward, offset) where the
    terminal channel lam*r_final applies after the last action and
    offset = -lam*(1-delta).
    """
    stopping = prod.stopping
    if stopping.kind == "geometric":
        gamma = stopping.gamma
        coef = lam * (1.0 - gamma) / gamma
        reward = prod.rewards + coef * prod.r_final[:, None]
        q0_accepting = prod.dfa.initial in prod.dfa.accepting
        offset = -coef * (1.0 if q0_accepting else 0.0) - lam * (1.0 - delta)
        return reward, offset
    if stopping.kind == "fixed":
        terminal = lam * prod.r_final
        offset = -lam * (1.0 - delta)
        return prod.rewards.copy(), terminal, offset
    raise ValueError(f"unsupported stopping kind {stopping.kind!r}")


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


def rollout_policy(policy, seed: int, i: int):
    """The pure policy that rollout i of ``mc_evaluate(policy, prod, n, seed)``
    executes; a MixedPolicy draws it from the selection stream (seed, i)."""
    if not isinstance(policy, MixedPolicy):
        return policy
    select_rng = make_rng(derive_seed(seed, i, _SELECT_STREAM))
    return policy.policies[_categorical(select_rng, policy.weights)]


def mc_evaluate(policy, prod: ProductPomdp, n: int, seed: int) -> EvalResult:
    """Estimate cumulative step reward and satisfaction probability.

    Each rollout i draws from an independent stream keyed by (seed, i), so
    estimates do not depend on execution order.  For a MixedPolicy the pure
    policy is sampled first, from a stream separate from the trajectory's, so
    a degenerate mixture reproduces its support policy's rollouts exactly.
    """
    if n < 1:
        raise ValueError("need at least one rollout")
    totals = np.empty(n)
    finals = np.empty(n)
    for i in range(n):
        traj = prod.simulate(rollout_policy(policy, seed, i), derive_seed(seed, i))
        totals[i] = traj.rewards.sum()
        finals[i] = 1.0 if traj.final_dfa_state in prod.dfa.accepting else 0.0
    r_se = float(totals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    p_se = float(finals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
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

def eg_solve(problem: ConstrainedProblem, cfg: SolverConfig | None = None,
             slack: float | None = None) -> EGResult:
    """Run K exponentiated-gradient iterations and assemble the mixture.

    Inner solves are warm-started from the previous iteration's alpha set,
    shifted down by the value-change bound |d lam| / gamma so every vector
    stays a valid lower bound under the new scalarization.
    """
    cfg = cfg or SolverConfig()
    prod = problem.product
    B, K, delta = problem.B, problem.K, problem.delta
    eta = problem.resolved_eta()
    if slack is None:
        slack = 2.0 * math.sqrt(2.0 * math.log(2.0) / K)
    stopping = prod.stopping
    lam = B / 2.0
    records: list[IterationRecord] = []
    policies = []
    prev = None  # the previous iteration's policy, warm-starting discounted solves
    prev_lam = None
    t_solve = 0.0
    t_simu = 0.0

    def inner_solve(multiplier, warm_start):
        if stopping.kind == "geometric":
            reward, _ = scalarize(prod, multiplier, delta)
            return solve_discounted(prod, reward, stopping.gamma, cfg, warm_start=warm_start)
        reward, terminal, _ = scalarize(prod, multiplier, delta)
        return solve_finite_horizon(prod, reward, stopping.T, cfg, terminal=terminal)

    for k in range(1, K + 1):
        if not 0.0 < lam < B:
            raise RuntimeError(f"multiplier left (0, B): {lam}")
        if prev is not None and stopping.kind == "geometric":
            shift = abs(lam - prev_lam) / stopping.gamma
            warm_start = (prev.alphas - shift, prev.actions)
        else:
            warm_start = None
        tic = time.perf_counter()
        policy = inner_solve(lam, warm_start)
        t_solve += time.perf_counter() - tic
        tic = time.perf_counter()
        est = mc_evaluate(policy, prod, problem.simu, derive_seed(problem.base_seed, k))
        t_simu += time.perf_counter() - tic
        records.append(IterationRecord(k, lam, est.p_hat, est.r_hat, est.p_se, est.r_se,
                                       policy.converged))
        policies.append(policy)
        prev, prev_lam = policy, lam
        lam = eg_update_lambda(lam, est.p_hat, eta, B, delta)

    mixture = MixedPolicy(policies, np.full(K, 1.0 / K))
    lam_bar = float(np.mean([rec.lam for rec in records]))

    tic = time.perf_counter()
    unconstrained = inner_solve(0.0, None)
    t_solve += time.perf_counter() - tic
    r_m_estimate = start_value(unconstrained, prod)

    bound = regret_bound(K, B)
    r_hats = np.array([rec.r_hat for rec in records])
    p_hats = np.array([rec.p_hat for rec in records])
    achieved = float(r_hats.mean())
    eps_f = (r_m_estimate - achieved + bound) / B

    bfs_w = reduce_support_bfs(r_hats, p_hats, problem.threshold, slack)
    bfs_mixture = None
    if bfs_w is not None and bfs_w.sum() > 0:
        exec_w = bfs_w / bfs_w.sum()  # executable distribution; raw LP weights kept
        support = np.nonzero(exec_w)[0]
        bfs_mixture = MixedPolicy([policies[i] for i in support], exec_w[support])

    return EGResult(records=records, mixture=mixture, lam_bar=lam_bar, bound=bound,
                    r_m_estimate=r_m_estimate, eps_f=eps_f, threshold=problem.threshold,
                    B=B, K=K, eta=eta, slack=slack, bfs_weights=bfs_w,
                    bfs_mixture=bfs_mixture,
                    timings={"t_solve_s": t_solve, "t_simu_s": t_simu})


TRACE_COLUMNS = ("k", "lambda", "r_hat", "p_hat", "r_se", "p_se", "converged")


def trace_rows(result: EGResult) -> list[dict]:
    """One row per iteration, keyed by TRACE_COLUMNS: the records of
    result.json's trace and the rows of trace.csv."""
    return [dict(zip(TRACE_COLUMNS, (rec.k, rec.lam, rec.r_hat, rec.p_hat, rec.r_se, rec.p_se,
                                     rec.converged)))
            for rec in result.records]


def theorem2_report(result: EGResult) -> dict:
    """Bound value, achieved estimates, the eps_f surrogate, and the
    per-iteration trace behind the multiplier/reward/satisfaction plot."""
    return {
        "bound": result.bound,
        "B": result.B,
        "K": result.K,
        "eta": result.eta,
        "lam_bar": result.lam_bar,
        "r_hat_mixture": result.mean_r_hat(),
        "p_hat_mixture": result.mean_p_hat(),
        "threshold": result.threshold,
        "r_m_estimate_lower_bound": result.r_m_estimate,
        "eps_f_surrogate": result.eps_f,
        "trace": trace_rows(result),
    }


# --------------------------------------------------------------------------
# Result files
# --------------------------------------------------------------------------

def export_trace_csv(result: EGResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRACE_COLUMNS)
        writer.writeheader()
        writer.writerows(trace_rows(result))


def result_to_dict(result: EGResult) -> dict:
    doc = theorem2_report(result)
    doc["slack"] = result.slack
    doc["bfs_weights"] = None if result.bfs_weights is None else result.bfs_weights.tolist()
    doc["mixture_weights"] = result.mixture.weights.tolist()
    return doc


def save_result(result: EGResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=1)
        fh.write("\n")
