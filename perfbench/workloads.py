"""The benchmark's ops, their correctness checks and their output digests.

One op is one full constrained-planning row, composed from public library
calls in the order and with the seeds ``run_experiment`` uses: model ->
``parse_formula`` -> ``compile_dfa`` -> ``minimize_dfa`` -> ``build_product``
-> ``prune_unreachable`` -> ``ConstrainedProblem`` + ``eg_solve`` ->
``mc_evaluate`` of the returned uniform mixture.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ltlfplan import benchmarks, dfa, ltlf, planner, product
from ltlfplan.pbvi import SolverConfig
from ltlfplan.pomdp import derive_seed

from tracer import null_span

_FINAL_EVAL_STREAM = 0xE7A1   # run_experiment's seed for the final mixture evaluation


@dataclass(frozen=True)
class Workload:
    row: str | None           # preset row M1..M9, or None for the two-state instance
    K: int
    eval_rollouts: int
    # belief-expansion seed; None uses the op seed, as run_experiment does
    expansion_seed: int | None


# Why these three: README.md in this directory.  m7_row fixes its expansion
# seed: with the op seed there, the cold solves' round counts follow the op
# seed and op times ranged from 7 s to 20 s, too wide for the few ops a run
# holds.
WORKLOADS = {
    "twostate_eg": Workload(None, 12, 10_000, 1),   # rollout-bound
    "m1_row": Workload("M1", 4, 1000, None),        # mixed: backups and rollouts
    "m7_row": Workload("M7", 4, 200, 1),            # backup-bound, largest automaton
}


def build(name: str, op_seed: int, span=null_span):
    """Pruned product, constrained problem and solver config of one op."""
    work = WORKLOADS[name]
    if work.row is None:
        # acceptance criterion 6's instance at a smaller K; all 4 product
        # states are reachable, so pruning returns the unpruned product
        with span("benchmarks.make_model"):
            model, spec_text = benchmarks.twostate_constrained(0.9)
        spec_name, threshold, B, eta, simu = "", 0.75, 4.0, "auto", 2000
        cfg = SolverConfig(n_beliefs=12, max_backup_rounds=500, bellman_tolerance=1e-8,
                           expansion_seed=work.expansion_seed)
    else:
        preset = benchmarks.PRESETS[work.row]
        with span("benchmarks.make_model"):
            model = benchmarks.make_model(preset.model)
        spec_name, spec_text = preset.spec, benchmarks.make_spec(preset.spec)
        threshold, B, eta, simu = preset.threshold, preset.B, preset.eta, preset.simu
        # run_experiment's default solver config
        cfg = SolverConfig(n_beliefs=100, max_backup_rounds=400, bellman_tolerance=1e-3,
                           expansion_seed=op_seed if work.expansion_seed is None
                           else work.expansion_seed)
    with span("ltlf.parse_formula"):
        formula = ltlf.parse_formula(spec_text, atoms=model.atoms)
    with span("dfa.compile_dfa"):
        automaton = dfa.compile_dfa(formula, atoms=model.atoms, name=spec_name)
    with span("dfa.minimize_dfa"):
        automaton = dfa.minimize_dfa(automaton)
    with span("product.build_product"):
        prod = product.build_product(model, automaton)
    with span("product.prune_unreachable"):
        prod = product.prune_unreachable(prod)
    problem = planner.ConstrainedProblem(prod, threshold=threshold, B=B, K=work.K, eta=eta,
                                         simu=simu, base_seed=op_seed)
    return prod, problem, cfg


@dataclass
class OpResult:
    prod: product.ProductPomdp
    problem: planner.ConstrainedProblem
    result: planner.EGResult
    final: planner.EvalResult
    op_s: float
    eval_rollouts: int    # rollouts of every mc_evaluate call: K iterates + final mixture
    eval_s: float


def run_op(name: str, op_seed: int, span=null_span) -> OpResult:
    """One timed row.  Library calls go through module attributes so that a
    tracer's patched wrappers see them."""
    t0 = perf_counter()
    prod, problem, cfg = build(name, op_seed, span)
    with span("planner.eg_solve"):
        result = planner.eg_solve(problem, cfg)
    t1 = perf_counter()
    with span("planner.final_eval"):
        final = planner.mc_evaluate(result.mixture, prod, WORKLOADS[name].eval_rollouts,
                                    seed=derive_seed(op_seed, _FINAL_EVAL_STREAM))
    t2 = perf_counter()
    return OpResult(prod, problem, result, final, t2 - t0, problem.K * problem.simu + final.n,
                    result.timings["t_simu_s"] + t2 - t1)


def digest(op: OpResult) -> str:
    """Exact fingerprint of every lambda_k, p_k, r_k and the final p, r."""
    values = [v for rec in op.result.records for v in (rec.lam, rec.p_hat, rec.r_hat)]
    values += [op.final.p_hat, op.final.r_hat]
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Correctness checks (run outside the timed interval)
# --------------------------------------------------------------------------

def exact_mixture_optimum(prod, threshold: float) -> float:
    """Best reward of a mixture of two deterministic stationary product
    policies that meets the threshold in expectation.  Every policy is
    evaluated exactly by resolvent algebra, then the two-point LP is solved
    by enumerating its vertices."""
    X, gamma = prod.n_states, prod.stopping.gamma
    idx = np.arange(X)
    rewards, sats = [], []
    for actions in itertools.product(range(prod.n_actions), repeat=X):
        Ppi = prod.P[idx, list(actions), :]
        resolvent = np.linalg.inv(np.eye(X) - gamma * Ppi)
        rewards.append(prod.varpi @ resolvent @ prod.rewards[idx, list(actions)])
        sats.append((1.0 - gamma) * prod.varpi @ Ppi @ resolvent @ prod.r_final)
    r, p = np.array(rewards), np.array(sats)
    best = max((r[k] for k in range(len(r)) if p[k] >= threshold - 1e-12), default=-np.inf)
    for k, l in itertools.permutations(range(len(r)), 2):
        if p[k] > threshold > p[l]:
            w = (threshold - p[l]) / (p[k] - p[l])
            best = max(best, w * r[k] + (1.0 - w) * r[l])
    return float(best)


def check(name: str, op: OpResult, oracle: float | None = None) -> list[str]:
    """Failed checks of one op, empty when it is correct."""
    result, final, threshold = op.result, op.final, op.problem.threshold
    failures = []
    estimates = [(rec.p_hat, rec.r_hat) for rec in result.records] + [(final.p_hat, final.r_hat)]
    if not all(0.0 <= p <= 1.0 and math.isfinite(r) for p, r in estimates):
        failures.append("an estimate is non-finite or p_hat lies outside [0, 1]")
    # acceptance 8: every multiplier update moves against the violation sign
    for rec, nxt in zip(result.records, result.records[1:]):
        if (rec.p_hat > threshold and not nxt.lam < rec.lam) or \
                (rec.p_hat < threshold and not nxt.lam > rec.lam):
            failures.append(f"multiplier moved with the violation sign at k={rec.k}")
    # acceptance 9: a support-2 mixture dominates the uniform one
    w = result.bfs_weights
    r_hats = np.array([rec.r_hat for rec in result.records])
    p_hats = np.array([rec.p_hat for rec in result.records])
    if w is None or np.count_nonzero(w) > 2 or w @ r_hats < r_hats.mean() - 1e-9 \
            or w @ p_hats < threshold - result.slack - 1e-12:
        failures.append("two-support reduction failed")
    if name == "twostate_eg":
        # acceptance 6 at this K's regret bound
        if final.r_hat < oracle - result.bound - 3 * final.r_se:
            failures.append(f"r_hat {final.r_hat} below oracle {oracle} - bound - 3se")
        if final.p_hat < threshold - result.eps_f - 3 * final.p_se:
            failures.append(f"p_hat {final.p_hat} below threshold - eps_f - 3se")
    elif name == "m1_row":
        # acceptance 7's soft targets
        if final.p_hat < 0.70 or final.r_hat < 1.3:
            failures.append(f"M1 row p_hat {final.p_hat} / r_hat {final.r_hat} below 0.70 / 1.3")
    return failures
