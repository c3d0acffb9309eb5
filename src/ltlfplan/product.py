"""Constrained product POMDP: base model states paired with DFA states.

The automaton consumes the label of the *source* state during the transition
out of time t, so x_t = (s_t, q_t) carries the automaton state after
L(s_0)..L(s_{t-1}), and a run that stops at x_T satisfies the spec iff
delta(q_T, L(s_T)) in F: the product's ``accepts_at_stop`` vector.  Runs are
plain POMDP trajectories with two reward channels: the base step reward and the
{0,1} final reward marking accepting automaton states.  A product is fixed by
(base model, DFA, pairs): ``ProductPomdp`` derives every table from the kept
(s, q) pairs, so building, pruning and loading only choose pairs.
"""

from __future__ import annotations

import numpy as np

from . import pomdp
from .dfa import Dfa, compile_minimal_dfa, dfa_from_dict, dfa_to_dict
from .files import json_list, read_json, write_json
from .ltlf import parse_formula
from .pomdp import (
    LOAD_ATOL, LabeledPomdp, ModelError, Trajectory, _typed, model_from_dict, model_to_dict,
)

# Product runs are plain POMDP runs.  planner.rollouts samples each one
# through this module attribute, so patching it here (as perfbench's tracer
# does to count rollouts and steps) sees every rollout of an evaluation.
sample_trajectory = pomdp.sample_trajectory


class ProductPomdp(LabeledPomdp):
    """The product over ``pairs``, an (X, 2) array of distinct (s, q) states.

    With qnext[x] = delta(q_x, L(s_x)), every table follows from the pairs:
    P[x, a, y] = base.P[s_x, a, s_y] if q_y == qnext[x] else 0; Z, rewards and
    labels are the base rows of s_x; varpi[x] = base.varpi[s_x] if q_x is the
    initial automaton state else 0; the extra channel ``r_final`` = [q_x in F];
    ``accepts_at_stop`` = [qnext[x] in F], the verdict of a run stopping at x.
    An ordinary LabeledPomdp, so beliefs, the simulator and the solvers apply
    unchanged.  Pairs that drop a reachable successor fail validation.
    """

    def __init__(self, base: LabeledPomdp, dfa: Dfa, pairs, name: str = ""):
        if tuple(base.atoms) != tuple(dfa.atoms):
            raise ModelError(f"model atoms {base.atoms} do not match DFA atoms {dfa.atoms}")
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
        S, Q, X = base.n_states, dfa.n_states, len(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or np.any((pairs < 0) | (pairs >= (S, Q))):
            raise ModelError(f"product pairs must be (s, q) with 0 <= s < {S}, 0 <= q < {Q}")
        s, q = pairs.T
        column = np.full((S, Q), -1)
        column[s, q] = np.arange(X)  # product index of each kept pair
        if np.count_nonzero(column >= 0) != X:
            raise ModelError("duplicate product pair")
        labels = base.labels[s]
        qnext = dfa.delta[q, labels]  # automaton state after reading L(s_x)
        successor = column[:, qnext].T  # (X, S): index of (s', qnext[x]), -1 if not kept
        x, s2 = np.nonzero(successor >= 0)
        P = np.zeros((X, base.n_actions, X))
        P[x, :, successor[x, s2]] = base.P[s[x], :, s2]
        varpi = np.where(q == dfa.initial, base.varpi[s], 0.0)
        super().__init__(name or f"{base.name}*{dfa.name}",
                         [f"{base.states[i]}|q{j}" for i, j in pairs.tolist()],
                         base.actions, base.observations, P, base.Z[s], varpi, base.atoms,
                         labels, base.rewards[s], base.stopping,
                         atol=LOAD_ATOL)  # product rows are the base's rows
        self.base, self.dfa, self.pairs = base, dfa, pairs
        accepting = dfa.accepts_mask()
        self.r_final = accepting[q].astype(np.float64)
        self.accepts_at_stop = accepting[qnext]
        for arr in (self.pairs, self.r_final, self.accepts_at_stop):
            arr.setflags(write=False)

    def base_run(self, traj: Trajectory) -> np.ndarray:
        """Base-model state sequence embedded in a product trajectory."""
        return self.pairs[traj.states, 0]


def constrained_product(model: LabeledPomdp, spec_text: str) -> ProductPomdp:
    """Model + LTLf spec text -> minimal DFA (named by the text) -> pruned product."""
    formula = parse_formula(spec_text, atoms=model.atoms)
    dfa = compile_minimal_dfa(formula, atoms=model.atoms, name=spec_text)
    return prune_unreachable(build_product(model, dfa))


def build_product(model: LabeledPomdp, dfa: Dfa) -> ProductPomdp:
    """Dense product over all S*Q pairs, x = s*Q + q; no pruning (see prune_unreachable)."""
    X = model.n_states * dfa.n_states
    pairs = np.stack(np.divmod(np.arange(X), dfa.n_states), axis=1)
    return ProductPomdp(model, dfa, pairs)


def prune_unreachable(prod: ProductPomdp) -> ProductPomdp:
    """Drop product states unreachable from the initial belief support.

    Purely a solver-cost optimization: the kept pairs' dynamics, rewards, and
    channels are those of the full product, never altered.
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
    if reach.all():
        return prod
    return ProductPomdp(prod.base, prod.dfa, prod.pairs[reach], name=prod.name)


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
    """The product fixed by the document's provenance (base model, DFA, pairs);
    ModelError unless the document's own tables and final_reward are that product's."""
    prov = _typed(_typed(doc, dict, "a product document").get("provenance"), dict,
                  "product provenance")
    for fieldname in ("base_model", "dfa_doc", "pairs"):
        if fieldname not in prov:
            raise ModelError(f"product provenance missing field {fieldname!r}")
    pairs = prov["pairs"]
    if not (json_list(pairs, (list,)) and all(len(p) == 2 and json_list(p, (int,)) for p in pairs)):
        raise ModelError("provenance pairs must be a list of [s, q] integer pairs")
    view = model_from_dict({k: v for k, v in doc.items() if k not in ("final_reward", "provenance")})
    base = model_from_dict(prov["base_model"])
    dfa = dfa_from_dict(_typed(prov["dfa_doc"], dict, "provenance dfa_doc"))
    prod = ProductPomdp(base, dfa, np.array(pairs, dtype=np.int64), name=view.name)
    if not view.equals(prod) or doc.get("final_reward") != dict(zip(prod.states, prod.r_final)):
        raise ModelError("product document tables or final_reward disagree with its provenance")
    return prod


def save_product(prod: ProductPomdp, path) -> None:
    write_json(path, product_to_dict(prod))


def load_product(path) -> ProductPomdp:
    return product_from_dict(read_json(path, ModelError, "product"))
