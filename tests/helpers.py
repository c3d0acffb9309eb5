"""Shared test fixtures: random formula corpus and independent exact oracles.

Everything here is deliberately separate from the library's solution paths:
value iteration works on explicit matrices, policy evaluation uses closed-form
linear algebra, and the mixture LP is solved by direct vertex enumeration.
"""

import math

import numpy as np

from ltlfplan.ltlf import (
    FALSE, TRUE, Always, And, Atom, Eventually, Implies, Next, Not, Or, Release,
    Until, WeakNext,
)
from ltlfplan.planner import _SELECT_STREAM
from ltlfplan.pomdp import (
    ImpossibleObservationError, LabeledPomdp, StoppingModel, Trajectory, derive_seed, make_rng,
)

_LEAVES = ("atom", "true", "false")
_NODES = _LEAVES + ("not", "and", "or", "implies", "next", "wnext", "until",
                    "release", "ev", "alw")
_BINARY = {"and": And, "or": Or, "implies": Implies, "until": Until, "release": Release}
_UNARY = {"not": Not, "next": Next, "wnext": WeakNext, "ev": Eventually, "alw": Always}


def random_formula(rng, depth, atoms=("a", "b")):
    kind = _LEAVES[int(rng.integers(3))] if depth == 0 else _NODES[int(rng.integers(len(_NODES)))]
    if kind == "atom":
        return Atom(atoms[int(rng.integers(len(atoms)))])
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind in _UNARY:
        return _UNARY[kind](random_formula(rng, depth - 1, atoms))
    return _BINARY[kind](random_formula(rng, depth - 1, atoms),
                         random_formula(rng, depth - 1, atoms))


def formula_corpus(n, seed, depth=4, atoms=("a", "b")):
    rng = make_rng(seed)
    return [random_formula(rng, depth, atoms) for _ in range(n)]


# --------------------------------------------------------------------------
# Exact MDP references
# --------------------------------------------------------------------------

def mdp_value_iteration_discounted(P, R, gamma, tol=1e-13, max_iters=200_000):
    """Optimal state values of the fully observable MDP (P (S,A,S), R (S,A))."""
    V = np.zeros(P.shape[0])
    for _ in range(max_iters):
        Q = R + gamma * np.einsum("sat,t->sa", P, V)
        V_next = Q.max(axis=1)
        if np.abs(V_next - V).max() < tol:
            return V_next
        V = V_next
    return V


def mdp_value_iteration_finite(P, R, T, terminal=None):
    """Optimal undiscounted values for stages t = 0..T plus a terminal vector."""
    S = P.shape[0]
    V = np.zeros(S) if terminal is None else np.asarray(terminal, dtype=float)
    for t in range(T, -1, -1):
        Q = R + np.einsum("sat,t->sa", P, V)
        V = Q.max(axis=1)
    return V


def eval_stationary_product_policy(prod, actions, gamma):
    """Exact (reward, satisfaction) of a product-state-stationary policy under
    geometric stopping, by resolvent linear algebra."""
    X = prod.n_states
    idx = np.arange(X)
    Ppi = prod.P[idx, actions, :]
    rpi = prod.rewards[idx, actions]
    resolvent = np.linalg.inv(np.eye(X) - gamma * Ppi)
    reward = float(prod.varpi @ resolvent @ rpi)
    sat = float((1.0 - gamma) * prod.varpi @ Ppi @ resolvent @ prod.r_final)
    return reward, sat


def lp_mixture_optimum(rewards, sats, threshold):
    """max sum w_k r_k  s.t.  sum w_k p_k >= threshold, sum w_k = 1, w >= 0,
    by direct vertex enumeration (singletons and constraint-crossing pairs)."""
    r = np.asarray(rewards, dtype=float)
    p = np.asarray(sats, dtype=float)
    best = -np.inf
    for k in range(len(r)):
        if p[k] >= threshold - 1e-12:
            best = max(best, r[k])
    for k in range(len(r)):
        for l in range(len(r)):
            if p[k] > threshold > p[l]:
                w = (threshold - p[l]) / (p[k] - p[l])
                best = max(best, w * r[k] + (1 - w) * r[l])
    return best


# --------------------------------------------------------------------------
# Tiny hand models
# --------------------------------------------------------------------------

def deterministic_chain(n=3, reward_on=None, stopping=None, atoms=("a",), label_last=True):
    """Single-action chain s0 -> s1 -> ... with an absorbing last state."""
    P = np.zeros((n, 1, n))
    for s in range(n - 1):
        P[s, 0, s + 1] = 1.0
    P[n - 1, 0, n - 1] = 1.0
    Z = np.ones((n, 1))
    varpi = np.zeros(n)
    varpi[0] = 1.0
    labels = np.zeros(n, dtype=np.int64)
    if label_last:
        labels[n - 1] = 1
    rewards = np.zeros((n, 1))
    for s, value in (reward_on or {}).items():
        rewards[s, 0] = value
    return LabeledPomdp("chain", [f"s{i}" for i in range(n)], ["go"], ["tick"],
                        P, Z, varpi, atoms, labels, rewards,
                        stopping or StoppingModel.fixed(2))


def uninformative_two_state(p_stay=0.9, rewards=((1.0, 0.0), (0.0, 2.0)),
                            stopping=None):
    """Two states, two actions, single uninformative observation."""
    P = np.zeros((2, 2, 2))
    P[0, 0] = (p_stay, 1 - p_stay)
    P[0, 1] = (1 - p_stay, p_stay)
    P[1, 0] = (1 - p_stay, p_stay)
    P[1, 1] = (p_stay, 1 - p_stay)
    Z = np.ones((2, 1))
    return LabeledPomdp("blind2", ["s0", "s1"], ["a0", "a1"], ["tick"], P, Z,
                        np.array([0.5, 0.5]), ("a",), np.array([0, 1]),
                        np.array(rewards, dtype=float),
                        stopping or StoppingModel.fixed(2))


def fully_observable(P, rewards, gamma=0.9, labels=None, atoms=("a",), stopping=None):
    """Wrap explicit MDP matrices as a POMDP with an identity observation
    channel; geometric stopping at gamma unless ``stopping`` is given."""
    P = np.asarray(P, dtype=float)
    S = P.shape[0]
    names = [f"s{i}" for i in range(S)]
    return LabeledPomdp("fo", names, [f"a{i}" for i in range(P.shape[1])], names,
                        P, np.eye(S), np.full(S, 1.0 / S), atoms,
                        np.zeros(S, dtype=np.int64) if labels is None else np.asarray(labels),
                        np.asarray(rewards, dtype=float),
                        stopping or StoppingModel.geometric(gamma))


# --------------------------------------------------------------------------
# Reference simulator (the library's simulator must match it bit for bit)
# --------------------------------------------------------------------------

def reference_categorical(rng, probs):
    """Categorical draw by a fresh cumsum and searchsorted per call."""
    cumulative = np.cumsum(probs)
    u = rng.random() * cumulative[-1]
    return int(min(np.searchsorted(cumulative, u, side="right"), len(probs) - 1))


def _reference_condition(model, predicted, o):
    post = predicted * model.Z[:, o]
    total = post.sum()
    if total <= 0.0:
        raise ImpossibleObservationError(f"observation {o} has zero probability")
    return post / total


class ReferenceAlphaAction:
    """An alpha policy's action by np.argmax over the public alpha matrix of
    the stage acting at t (ties to the lowest vector index), without the
    policy's own action method."""

    def __init__(self, policy):
        self.policy = policy

    def action(self, belief, t):
        stage = self.policy[t] if self.policy.kind == "time_indexed" else self.policy
        return int(stage.actions[int(np.argmax(stage.alphas @ belief))])


class ReferenceUniforms:
    """Rollout i of key ``seed``'s uniforms, read one at a time from the
    documented layout with plain numpy: its head, doubles 64i .. 64i + 63 of
    make_rng(seed) (the generator advanced 16i Philox blocks of 4 doubles),
    then its tail, the Philox counter line (0, i + 1, 0, 0) of the same key
    from its start."""

    def __init__(self, seed, i=0):
        head = make_rng(seed)
        head.bit_generator.advance(16 * i)
        self.head = head.random(64).tolist()
        key = int(seed) % 2**128
        self.tail = np.random.Generator(np.random.Philox(key=key, counter=[0, i + 1, 0, 0]))

    def random(self):
        return self.head.pop(0) if self.head else self.tail.random()


def reference_sample_trajectory(model, policy, seed, i=0):
    """Rollout i of ``seed`` with one scalar random() per draw, in the
    simulator's draw order: s0, o0, then per step the stop flag (geometric
    only), the action, the transition and the observation."""
    rng = ReferenceUniforms(seed, i)
    stopping = model.stopping

    s = reference_categorical(rng, model.varpi)
    o = reference_categorical(rng, model.Z[s])
    belief = _reference_condition(model, model.varpi, o)

    states, actions, observations, rewards = [], [], [], []
    t = 0
    while True:
        if stopping.kind == "geometric":
            stop = rng.random() < (1.0 - stopping.gamma)
        else:
            stop = t == stopping.T
        a = int(policy.action(belief, t))
        states.append(s)
        actions.append(a)
        observations.append(o)
        rewards.append(model.rewards[s, a])
        if stop:
            break
        s_next = reference_categorical(rng, model.P[s, a])
        o_next = reference_categorical(rng, model.Z[s_next])
        belief = _reference_condition(model, belief @ model.P[:, a, :], o_next)
        s, o = s_next, o_next
        t += 1
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        actions=np.array(actions, dtype=np.int64),
        observations=np.array(observations, dtype=np.int64),
        rewards=np.array(rewards, dtype=np.float64),
    )


def dfa_accepts_run(prod, traj):
    """Independent verdict: Dfa.run over the base labels of the run."""
    return prod.dfa.run(prod.base.labels[prod.base_run(traj)]) in prod.dfa.accepting


def reference_mc_evaluate(policy, prod, n, seed):
    """(r_hat, p_hat, r_se, p_se) of a MixedPolicy from reference runs:
    rollout i picks its pure policy with double i of the selection stream,
    and the run and the verdict are each computed independently."""
    select = make_rng(derive_seed(seed, _SELECT_STREAM))  # read in order: double i for rollout i
    totals, finals = np.empty(n), np.empty(n)
    for i in range(n):
        pure = policy.policies[reference_categorical(select, policy.weights)]
        traj = reference_sample_trajectory(prod, ReferenceAlphaAction(pure), seed, i)
        totals[i] = traj.rewards.sum()
        finals[i] = 1.0 if dfa_accepts_run(prod, traj) else 0.0
    return (float(totals.mean()), float(finals.mean()),
            float(totals.std(ddof=1) / math.sqrt(n)), float(finals.std(ddof=1) / math.sqrt(n)))
