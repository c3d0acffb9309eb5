"""Labeled POMDPs: model container, file format, beliefs, trajectory simulation.

Models are immutable once constructed.  All simulation randomness comes from
counter-based Philox generators keyed by an explicit seed, so identical
(model, policy, seed) triples reproduce bit-identical trajectories and
rollouts can run in any order.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ltlf import _IDENT_RE

ROW_SUM_ATOL = 1e-9
LOAD_ATOL = 1e-6


class ModelError(ValueError):
    """Schema or validation error in a model document."""


class ImpossibleObservationError(RuntimeError):
    """Belief update conditioned on a zero-probability observation."""


@dataclass(frozen=True)
class StoppingModel:
    """Horizon model: fixed constant T or geometric with continue-prob gamma.

    Both have finite expected stopping time for every policy (T, resp.
    gamma/(1-gamma)), so total expected reward is always well defined.
    """
    kind: str
    T: int | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind == "fixed":
            if self.T is None or self.T < 0:
                raise ModelError("fixed stopping needs T >= 0")
        elif self.kind == "geometric":
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise ModelError("geometric stopping needs 0 < gamma < 1")
        else:
            raise ModelError(f"unknown stopping kind {self.kind!r}")

    @classmethod
    def fixed(cls, T: int) -> "StoppingModel":
        return cls("fixed", T=int(T))

    @classmethod
    def geometric(cls, gamma: float) -> "StoppingModel":
        return cls("geometric", gamma=float(gamma))

    def expected_horizon(self) -> float:
        if self.kind == "fixed":
            return float(self.T)
        return self.gamma / (1.0 - self.gamma)


class LabeledPomdp:
    """The labeled POMDP tuple (S, A, P, varpi, O, Z, AP, L, r) plus stopping.

    Arrays: P is (S, A, S), Z is (S, O), varpi is (S,), rewards is (S, A),
    labels is (S,) of letter bitmasks over the atom ordering.
    """

    def __init__(self, name, states, actions, observations, P, Z, varpi,
                 atoms, labels, rewards, stopping: StoppingModel):
        self.name = str(name)
        self.states = list(states)
        self.actions = list(actions)
        self.observations = list(observations)
        self.P = np.ascontiguousarray(P, dtype=np.float64)
        self.Z = np.ascontiguousarray(Z, dtype=np.float64)
        self.varpi = np.ascontiguousarray(varpi, dtype=np.float64)
        self.atoms = tuple(atoms)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.rewards = np.ascontiguousarray(rewards, dtype=np.float64)
        self.stopping = stopping
        for arr in (self.P, self.Z, self.varpi, self.labels, self.rewards):
            arr.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    def validate(self, atol: float = ROW_SUM_ATOL) -> None:
        S, A, O = self.n_states, self.n_actions, self.n_observations
        if self.P.shape != (S, A, S):
            raise ModelError(f"transition table shape {self.P.shape}, expected {(S, A, S)}")
        if self.Z.shape != (S, O):
            raise ModelError(f"observation table shape {self.Z.shape}, expected {(S, O)}")
        if self.varpi.shape != (S,):
            raise ModelError("initial distribution has wrong length")
        if self.rewards.shape != (S, A):
            raise ModelError("reward table has wrong shape")
        if self.labels.shape != (S,):
            raise ModelError("label table has wrong length")
        if np.any(self.P < 0) or np.any(self.Z < 0) or np.any(self.varpi < 0):
            raise ModelError("negative probability entry")
        bad = np.argwhere(np.abs(self.P.sum(axis=2) - 1.0) > atol)
        if bad.size:
            s, a = bad[0]
            raise ModelError(
                f"transition row for (state={self.states[s]!r}, action={self.actions[a]!r}) "
                f"sums to {self.P[s, a].sum():.9f}")
        bad = np.argwhere(np.abs(self.Z.sum(axis=1) - 1.0) > atol)
        if bad.size:
            s = bad[0][0]
            raise ModelError(f"observation row for state {self.states[s]!r} sums to {self.Z[s].sum():.9f}")
        if abs(self.varpi.sum() - 1.0) > atol:
            raise ModelError(f"initial distribution sums to {self.varpi.sum():.9f}")
        limit = 1 << len(self.atoms)
        if np.any(self.labels < 0) or np.any(self.labels >= limit):
            raise ModelError("label bitmask out of range for atom set")

    @cached_property
    def sampling(self) -> "SamplingTables":
        """Lookup tables of the simulator and the Bayes step, built on first use."""
        return SamplingTables(self)

    def label_sets(self) -> list[frozenset]:
        return [frozenset(a for i, a in enumerate(self.atoms) if m >> i & 1)
                for m in self.labels.tolist()]

    def equals(self, other: "LabeledPomdp") -> bool:
        return (self.name == other.name and self.states == other.states
                and self.actions == other.actions and self.observations == other.observations
                and self.atoms == other.atoms and self.stopping == other.stopping
                and np.array_equal(self.P, other.P) and np.array_equal(self.Z, other.Z)
                and np.array_equal(self.varpi, other.varpi)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.rewards, other.rewards))


# --------------------------------------------------------------------------
# Beliefs
# --------------------------------------------------------------------------

def condition(model, predicted: np.ndarray, o: int) -> np.ndarray:
    """Bayes step: the posterior ~ predicted * Z(.;o) after observing o."""
    post = predicted * model.sampling.z_by_obs[o]
    total = np.add.reduce(post)
    if total <= 0.0:
        raise ImpossibleObservationError(f"observation {o} has zero probability")
    return post / total


def belief_init(model, o0: int) -> np.ndarray:
    """Posterior over states after the time-0 observation: b0 ~ varpi * Z(.;o0)."""
    return condition(model, model.varpi, o0)


def belief_update(model, belief: np.ndarray, action: int, obs: int) -> np.ndarray:
    """Bayes filter step: b'(s') ~ Z(s';o) * sum_s P(s,a;s') b(s)."""
    return condition(model, belief @ model.sampling.p_by_action[action], obs)


def initial_beliefs(model) -> list[tuple[float, int, np.ndarray]]:
    """All (probability, o0, posterior) triples with positive probability."""
    out = []
    probs = model.varpi @ model.Z
    for o0, p in enumerate(probs):
        if p > 0.0:
            out.append((float(p), o0, belief_init(model, o0)))
    return out


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

@dataclass
class Trajectory:
    """One run: aligned (state, action, observation, reward) per t = 0..T."""
    states: np.ndarray
    actions: np.ndarray
    observations: np.ndarray
    rewards: np.ndarray
    final_dfa_state: int | None = None

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    def total_reward(self) -> float:
        return float(self.rewards.sum())

    def __len__(self) -> int:
        return len(self.states)


class FixedActionPolicy:
    """Always plays the same action; needs no belief tracking."""
    needs_belief = False

    def __init__(self, action: int):
        self.action_index = int(action)

    def action(self, belief, t):
        return self.action_index


class RandomPolicy:
    """Uniform random actions from an internal counter-based stream."""
    needs_belief = False

    def __init__(self, n_actions: int, seed: int):
        self.n_actions = int(n_actions)
        self._rng = make_rng(seed)

    def action(self, belief, t):
        return int(self._rng.integers(self.n_actions))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed directly by the (<=128-bit) seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & ((1 << 128) - 1)))


def derive_seed(*parts: int) -> int:
    """Stable 128-bit seed from a tuple of integers (order-sensitive)."""
    digest = hashlib.blake2b(repr(tuple(int(p) for p in parts)).encode(), digest_size=16)
    return int.from_bytes(digest.digest(), "little")


def _inverse_cdfs(rows: np.ndarray) -> list[tuple[float, list[float], list[int]]]:
    """Compact inverse CDFs of the nonnegative rows of a 2-d array.

    Each row p becomes (total, cum, picks): total = cumsum(p)[-1], cum lists
    the cumsum values at the indices where the cumsum rises, picks lists those
    indices followed by the clamp len(p)-1.  Only a rising index can be the
    first with cumsum > v, so ``_pick`` equals
    min(searchsorted(cumsum(p), v, "right"), len(p)-1) for every v >= 0.
    """
    cum = np.cumsum(rows, axis=-1)
    below = np.zeros_like(cum)
    below[:, 1:] = cum[:, :-1]
    rises = cum > below
    last = [rows.shape[-1] - 1]
    return [(total, c[r].tolist(), np.flatnonzero(r).tolist() + last)
            for total, c, r in zip(cum[:, -1].tolist(), cum, rises)]


def _pick(table: tuple[float, list[float], list[int]], u: float) -> int:
    """Inverse-CDF draw for a uniform u in [0, 1): the one categorical rule."""
    total, cum, picks = table
    return picks[bisect_right(cum, u * total)]


def _categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    """One draw from an uncached row; its full cumsum is a valid (uncompacted)
    ``_pick`` table.  Robust to rows that sum to 1 only within the load tolerance."""
    cum = np.cumsum(probs).tolist()
    n = len(cum)
    return _pick((cum[-1], cum, [*range(n), n - 1]), rng.random())


class SamplingTables:
    """A model's simulator tables: the compact inverse CDFs (``_inverse_cdfs``)
    of varpi and of every Z[s] and P[s, a] row, contiguous P[:, a, :] and
    Z[:, o] copies for the Bayes step, and the rewards as nested lists."""

    def __init__(self, model: LabeledPomdp):
        self.initial = _inverse_cdfs(model.varpi[None, :])[0]
        self.observe = _inverse_cdfs(model.Z)
        S, A = model.n_states, model.n_actions
        flat = _inverse_cdfs(model.P.reshape(S * A, S))
        self.transition = [flat[s * A:(s + 1) * A] for s in range(S)]
        self.p_by_action = [np.ascontiguousarray(model.P[:, a, :]) for a in range(A)]
        self.z_by_obs = [np.ascontiguousarray(model.Z[:, o]) for o in range(model.n_observations)]
        self.rewards = model.rewards.tolist()


_CHUNK = 64


def _uniforms(rng: np.random.Generator):
    """The stream of rng.random() values, drawn in chunks (same doubles)."""
    while True:
        yield from rng.random(_CHUNK).tolist()


def sample_trajectory(model, policy, seed: int) -> Trajectory:
    """Simulate one run under the model's stopping rule.

    Draw order per step t is fixed for reproducibility: stop flag (geometric
    only), action, then the transition and observation draws.  The run always
    includes (s_T, a_T); under geometric stopping T is the first t whose
    Bernoulli(1-gamma) flag fires, so a run may consist of a single step.
    All draws are uniforms of the run's own Philox stream, read in chunks,
    which yields the same doubles as one rng.random() call per draw.
    """
    tables = model.sampling
    draw = _uniforms(make_rng(seed)).__next__
    observe, transition, step_reward = tables.observe, tables.transition, tables.rewards
    stopping = model.stopping
    geometric = stopping.kind == "geometric"
    stop_prob = 1.0 - stopping.gamma if geometric else None
    track_belief = getattr(policy, "needs_belief", True)

    s = _pick(tables.initial, draw())
    o = _pick(observe[s], draw())
    belief = belief_init(model, o) if track_belief else None

    states, actions, observations, rewards = [], [], [], []
    t = 0
    while True:
        stop = draw() < stop_prob if geometric else t == stopping.T
        a = int(policy.action(belief, t))
        states.append(s)
        actions.append(a)
        observations.append(o)
        rewards.append(step_reward[s][a])
        if stop:
            break
        s = _pick(transition[s][a], draw())
        o = _pick(observe[s], draw())
        if track_belief:
            belief = belief_update(model, belief, a, o)
        t += 1
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        actions=np.array(actions, dtype=np.int64),
        observations=np.array(observations, dtype=np.int64),
        rewards=np.array(rewards, dtype=np.float64),
    )


# --------------------------------------------------------------------------
# Model file format (JSON document; probabilities as floats or decimal strings)
# --------------------------------------------------------------------------

def _prob(value, where: str) -> float:
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"bad probability {value!r} in {where}") from None
    if p < 0.0:
        raise ModelError(f"negative probability in {where}")
    return p


def model_from_dict(doc: dict) -> LabeledPomdp:
    for fieldname in ("name", "states", "actions", "observations", "initial",
                      "transitions", "observe", "stopping"):
        if fieldname not in doc:
            raise ModelError(f"model document missing field {fieldname!r}")
    states = list(doc["states"])
    actions = list(doc["actions"])
    observations = list(doc["observations"])
    atoms = tuple(doc.get("atoms", []))
    for a in atoms:
        if not _IDENT_RE.match(a):
            raise ModelError(f"invalid atom name {a!r}")
    s_index = {s: i for i, s in enumerate(states)}
    a_index = {a: i for i, a in enumerate(actions)}
    o_index = {o: i for i, o in enumerate(observations)}
    atom_index = {a: i for i, a in enumerate(atoms)}
    S, A, O = len(states), len(actions), len(observations)

    varpi = np.zeros(S)
    for s, p in doc["initial"].items():
        if s not in s_index:
            raise ModelError(f"initial distribution references unknown state {s!r}")
        varpi[s_index[s]] = _prob(p, "initial")

    labels = np.zeros(S, dtype=np.int64)
    for s, names in doc.get("labels", {}).items():
        if s not in s_index:
            raise ModelError(f"labels reference unknown state {s!r}")
        mask = 0
        for name in names:
            if name not in atom_index:
                raise ModelError(f"label {name!r} on state {s!r} not in atom set")
            mask |= 1 << atom_index[name]
        labels[s_index[s]] = mask

    P = np.zeros((S, A, S))
    seen_rows = set()
    for row in doc["transitions"]:
        s, a = row.get("state"), row.get("action")
        if s not in s_index:
            raise ModelError(f"transition row references unknown state {s!r}")
        if a not in a_index:
            raise ModelError(f"transition row references unknown action {a!r}")
        key = (s_index[s], a_index[a])
        if key in seen_rows:
            raise ModelError(f"duplicate transition row for (state={s!r}, action={a!r})")
        seen_rows.add(key)
        for s2, p in row.get("next", {}).items():
            if s2 not in s_index:
                raise ModelError(f"transition row ({s!r}, {a!r}) references unknown state {s2!r}")
            P[key[0], key[1], s_index[s2]] = _prob(p, f"transition ({s!r}, {a!r})")
    missing = [(states[s], actions[a]) for s in range(S) for a in range(A) if (s, a) not in seen_rows]
    if missing:
        raise ModelError(f"missing transition rows for {missing[:3]}{'...' if len(missing) > 3 else ''}")

    Z = np.zeros((S, O))
    for s, dist in doc["observe"].items():
        if s not in s_index:
            raise ModelError(f"observe table references unknown state {s!r}")
        for o, p in dist.items():
            if o not in o_index:
                raise ModelError(f"observe table for state {s!r} references unknown observation {o!r}")
            Z[s_index[s], o_index[o]] = _prob(p, f"observe[{s!r}]")

    rewards = np.zeros((S, A))
    for row in doc.get("rewards", []):
        s, a = row.get("state"), row.get("action")
        if s not in s_index:
            raise ModelError(f"reward row references unknown state {s!r}")
        if a not in a_index:
            raise ModelError(f"reward row references unknown action {a!r}")
        rewards[s_index[s], a_index[a]] = float(row.get("value", 0.0))

    stop_doc = doc["stopping"]
    kind = stop_doc.get("kind")
    needed = {"fixed": "T", "geometric": "gamma"}
    if kind not in needed:
        raise ModelError(f"unknown stopping kind {kind!r}")
    if needed[kind] not in stop_doc:
        raise ModelError(f"{kind} stopping needs field {needed[kind]!r}")
    if kind == "fixed":
        stopping = StoppingModel.fixed(int(stop_doc["T"]))
    else:
        stopping = StoppingModel.geometric(_prob(stop_doc["gamma"], "stopping"))

    model = LabeledPomdp(doc["name"], states, actions, observations, P, Z, varpi,
                         atoms, labels, rewards, stopping)
    model.validate(atol=LOAD_ATOL)
    return model


def model_to_dict(model: LabeledPomdp) -> dict:
    transitions = []
    for s in range(model.n_states):
        for a in range(model.n_actions):
            nxt = {model.states[s2]: model.P[s, a, s2]
                   for s2 in np.nonzero(model.P[s, a])[0].tolist()}
            transitions.append({"state": model.states[s], "action": model.actions[a], "next": nxt})
    rewards = [{"state": model.states[s], "action": model.actions[a], "value": model.rewards[s, a]}
               for s in range(model.n_states) for a in range(model.n_actions)
               if model.rewards[s, a] != 0.0]
    label_sets = model.label_sets()
    stopping = ({"kind": "fixed", "T": model.stopping.T} if model.stopping.kind == "fixed"
                else {"kind": "geometric", "gamma": model.stopping.gamma})
    return {
        "name": model.name,
        "atoms": list(model.atoms),
        "states": list(model.states),
        "actions": list(model.actions),
        "observations": list(model.observations),
        "initial": {model.states[s]: model.varpi[s] for s in np.nonzero(model.varpi)[0].tolist()},
        "labels": {model.states[s]: sorted(label_sets[s]) for s in range(model.n_states) if label_sets[s]},
        "transitions": transitions,
        "observe": {model.states[s]: {model.observations[o]: model.Z[s, o]
                                      for o in np.nonzero(model.Z[s])[0].tolist()}
                    for s in range(model.n_states)},
        "rewards": rewards,
        "stopping": stopping,
    }


def load_model(path) -> LabeledPomdp:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(model: LabeledPomdp, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")
