"""Constrained product POMDP: base model states paired with DFA states.

The automaton consumes the label of the *source* state during the transition
out of time t, so x_t = (s_t, q_t) carries the automaton state after
L(s_0)..L(s_{t-1}), and a run that stops at x_T satisfies the spec iff
delta(q_T, L(s_T)) in F: the product's ``accepts_at_stop`` vector.  Runs are
plain POMDP trajectories.  The product exposes two reward channels: the step
reward inherited from the base model and the {0,1} final reward marking
accepting automaton states.
"""

from __future__ import annotations

import json

import numpy as np

from .dfa import Dfa, compile_minimal_dfa, dfa_from_dict, dfa_to_dict
from .ltlf import parse_formula
from .pomdp import (
    LOAD_ATOL, LabeledPomdp, ModelError, Trajectory, model_from_dict, model_to_dict,
    sample_trajectory,
)


class ProductPomdp(LabeledPomdp):
    """Product over X = S x Q with dense index x = s*|Q| + q (before pruning).

    An ordinary LabeledPomdp over the pair states, labeled by their base
    component, so beliefs, the trajectory simulator and the solvers apply
    unchanged; ``r_final`` is the extra accepting-state channel and
    ``accepts_at_stop`` the spec verdict of a run that stops at each state.
    """

    def __init__(self, base: LabeledPomdp, dfa: Dfa, pairs, P, Z, varpi, rewards,
                 r_final, name: str = ""):
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)  # (X, 2) of (s, q)
        super().__init__(name or f"{base.name}*{dfa.name}",
                         [f"{base.states[s]}|q{q}" for s, q in pairs.tolist()],
                         base.actions, base.observations, P, Z, varpi, base.atoms,
                         base.labels[pairs[:, 0]], rewards, base.stopping)
        self.base = base
        self.dfa = dfa
        self.pairs = pairs
        self.r_final = np.ascontiguousarray(r_final, dtype=np.float64)
        # delta(q, L(s)) in F: a run stopping at x = (s, q) still reads L(s)
        self.accepts_at_stop = dfa.accepts_mask()[dfa.delta[pairs[:, 1], self.labels]]
        for arr in (self.pairs, self.r_final, self.accepts_at_stop):
            arr.setflags(write=False)

    def final_satisfied(self, traj: Trajectory) -> bool:
        """Whether a run on this product satisfies the spec."""
        return bool(self.accepts_at_stop[traj.states[-1]])

    def simulate(self, policy, seed: int) -> Trajectory:
        """Sample one run on this product: a plain ``sample_trajectory`` run."""
        return sample_trajectory(self, policy, seed)

    def base_run(self, traj: Trajectory) -> np.ndarray:
        """Base-model state sequence embedded in a product trajectory."""
        return self.pairs[traj.states, 0]


def constrained_product(model: LabeledPomdp, spec_text: str) -> ProductPomdp:
    """Model + LTLf spec text -> minimal DFA (named by the text) -> pruned product."""
    formula = parse_formula(spec_text, atoms=model.atoms)
    dfa = compile_minimal_dfa(formula, atoms=model.atoms, name=spec_text)
    return prune_unreachable(build_product(model, dfa))


def build_product(model: LabeledPomdp, dfa: Dfa, name: str = "") -> ProductPomdp:
    """Dense product construction; no pruning (see prune_unreachable)."""
    if tuple(model.atoms) != tuple(dfa.atoms):
        raise ModelError(f"model atoms {model.atoms} do not match DFA atoms {dfa.atoms}")
    S, A, Q = model.n_states, model.n_actions, dfa.n_states
    X = S * Q
    pairs = np.stack(np.divmod(np.arange(X), Q), axis=1)  # x = s*Q + q

    # q' = delta(q, L(s)) depends only on the source pair, so each product row
    # is the base row placed at columns s'*Q + q'
    qnext = dfa.delta[:, model.labels].T  # (S, Q): successor automaton state per source pair
    P = np.zeros((X, A, X))
    for s in range(S):
        for q in range(Q):
            x = s * Q + q
            cols = np.arange(S) * Q + qnext[s, q]
            P[x, :, cols] = model.P[s].T  # (A, S) transposed into column slots

    Z = model.Z[pairs[:, 0]]
    varpi = np.zeros(X)
    varpi[np.arange(S) * Q + dfa.initial] = model.varpi
    rewards = model.rewards[pairs[:, 0]]
    accepting = dfa.accepts_mask()
    r_final = accepting[pairs[:, 1]].astype(np.float64)
    prod = ProductPomdp(model, dfa, pairs, P, Z, varpi, rewards, r_final, name=name)
    prod.validate(atol=LOAD_ATOL)  # product rows are the base's rows
    return prod


def prune_unreachable(prod: ProductPomdp) -> ProductPomdp:
    """Drop product states unreachable from the initial belief support.

    Purely a solver-cost optimization; dynamics, rewards, and channels are
    restricted, never altered.
    """
    X = prod.n_states
    reach = np.zeros(X, dtype=bool)
    frontier = np.nonzero(prod.varpi > 0)[0]
    reach[frontier] = True
    support = prod.P.sum(axis=1) > 0  # reachable via any action
    while frontier.size:
        nxt = np.nonzero(support[frontier].any(axis=0) & ~reach)[0]
        reach[nxt] = True
        frontier = nxt
    keep = np.nonzero(reach)[0]
    if keep.size == X:
        return prod
    P = prod.P[np.ix_(keep, np.arange(prod.n_actions), keep)]
    pruned = ProductPomdp(prod.base, prod.dfa, prod.pairs[keep], P,
                          prod.Z[keep], prod.varpi[keep], prod.rewards[keep],
                          prod.r_final[keep], name=prod.name)
    pruned.validate(atol=LOAD_ATOL)
    return pruned


# --------------------------------------------------------------------------
# Serialization: model file format plus final_reward and provenance fields
# --------------------------------------------------------------------------

def product_to_dict(prod: ProductPomdp) -> dict:
    doc = model_to_dict(prod)
    doc["final_reward"] = {prod.states[x]: int(prod.r_final[x]) for x in range(prod.n_states)}
    doc["provenance"] = {
        "model": prod.base.name,
        "dfa": prod.dfa.name,
        "pairs": prod.pairs.tolist(),
        "base_model": model_to_dict(prod.base),
        "dfa_doc": dfa_to_dict(prod.dfa),
    }
    return doc


def product_from_dict(doc: dict) -> ProductPomdp:
    prov = doc.get("provenance")
    if prov is None:
        raise ModelError("product document missing provenance")
    base = model_from_dict(prov["base_model"])
    dfa = dfa_from_dict(prov["dfa_doc"])
    view = model_from_dict({k: v for k, v in doc.items() if k not in ("final_reward", "provenance")})
    pairs = np.asarray(prov["pairs"], dtype=np.int64)
    r_final = np.array([float(doc["final_reward"][name]) for name in view.states])
    return ProductPomdp(base, dfa, pairs, view.P, view.Z, view.varpi, view.rewards,
                        r_final, name=view.name)


def save_product(prod: ProductPomdp, path) -> None:
    with open(path, "w") as fh:
        json.dump(product_to_dict(prod), fh, indent=1)
        fh.write("\n")


def load_product(path) -> ProductPomdp:
    with open(path) as fh:
        return product_from_dict(json.load(fh))
