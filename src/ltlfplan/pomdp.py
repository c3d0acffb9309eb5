"""Labeled POMDPs: model container, file format, beliefs, trajectory simulation.

Models are immutable once constructed.  All simulation randomness comes from
counter-based Philox generators keyed by an explicit seed and addressed by
counter, so rollout i of a seed reproduces a bit-identical trajectory for a
given model and policy, and rollouts can run in any order.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .files import read_json, write_json
from .ltlf import LtlfError, check_atoms

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
            T = self.T
            if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 0:
                raise ModelError(f"fixed stopping needs an integer T >= 0, got {T!r}")
            object.__setattr__(self, "T", int(T))  # a numpy integer becomes a JSON one
        elif self.kind == "geometric":
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise ModelError("geometric stopping needs 0 < gamma < 1")
        else:
            raise ModelError(f"unknown stopping kind {self.kind!r}")

    @classmethod
    def fixed(cls, T: int) -> "StoppingModel":
        return cls("fixed", T=T)

    @classmethod
    def geometric(cls, gamma: float) -> "StoppingModel":
        return cls("geometric", gamma=float(gamma))


class LabeledPomdp:
    """The labeled POMDP tuple (S, A, P, varpi, O, Z, AP, L, r) plus stopping.

    Arrays: P is (S, A, S), Z is (S, O), varpi is (S,), rewards is (S, A),
    labels is (S,) of letter bitmasks over the atom ordering.  A model checks
    itself on construction (``validate``), its probability rows summing to 1
    within ``atol``.
    """

    def __init__(self, name, states, actions, observations, P, Z, varpi,
                 atoms, labels, rewards, stopping: StoppingModel, atol: float = ROW_SUM_ATOL):
        self.name = str(name)
        self.states = list(states)
        self.actions = list(actions)
        self.observations = list(observations)
        self.P = np.ascontiguousarray(P, dtype=np.float64)
        self.Z = np.ascontiguousarray(Z, dtype=np.float64)
        self.varpi = np.ascontiguousarray(varpi, dtype=np.float64)
        try:
            self.atoms = check_atoms(atoms)
        except LtlfError as exc:
            raise ModelError(str(exc)) from None
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        self.rewards = np.ascontiguousarray(rewards, dtype=np.float64)
        self.stopping = stopping
        for arr in (self.P, self.Z, self.varpi, self.labels, self.rewards):
            arr.setflags(write=False)
        self.validate(atol)

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
        for table, arr in (("transition", self.P), ("observation", self.Z),
                           ("initial", self.varpi), ("reward", self.rewards)):
            if not np.isfinite(arr).all():
                raise ModelError(f"non-finite entry in the {table} table")
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


def predict(model, belief: np.ndarray, action: int) -> np.ndarray:
    """Predictive step: sum_s P(s,a;s') b(s), the state distribution after the action."""
    return belief @ model.sampling.p_by_action[action]


def belief_update(model, belief: np.ndarray, action: int, obs: int) -> np.ndarray:
    """Bayes filter step: b'(s') ~ Z(s';o) * sum_s P(s,a;s') b(s)."""
    return condition(model, predict(model, belief, action), obs)


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

def _array_of(name: str, dtype) -> cached_property:
    """A run's per-step list ``name`` as an array of ``dtype``, built on first read."""
    return cached_property(lambda run: np.array(getattr(run, name), dtype=dtype))


class Trajectory:
    """One run of any model: aligned (state, action, observation, reward)
    per t = 0..T, states indexing the model's own state list.  A run keeps the
    per-step lists it was recorded as (``state_list`` .. ``reward_list``) and
    builds each array only when it is first read."""

    def __init__(self, states, actions, observations, rewards):
        self.state_list, self.action_list = states, actions
        self.observation_list, self.reward_list = observations, rewards

    states = _array_of("state_list", np.int64)
    actions = _array_of("action_list", np.int64)
    observations = _array_of("observation_list", np.int64)
    rewards = _array_of("reward_list", np.float64)

    def __len__(self) -> int:
        return len(self.state_list)


class RandomPolicy:
    """Uniform random actions from an internal counter-based stream."""

    def __init__(self, n_actions: int, seed: int):
        self.n_actions = int(n_actions)
        self._rng = make_rng(seed)

    def action(self, belief, t):
        return int(self._rng.integers(self.n_actions))


_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed directly by the (<=128-bit) seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))


def derive_seed(*parts: int) -> int:
    """Stable 128-bit seed from a tuple of integers (order-sensitive): the
    blake2b digest of the tuple's repr."""
    digest = hashlib.blake2b(repr(tuple(map(int, parts))).encode(), digest_size=16)
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


_CHUNK = 64  # uniforms in a rollout's head row, and in each later read of its tail


CACHE_FLOATS = 1 << 17  # belief floats (1 MiB) above which a rollout clears its cache


class RolloutCache:
    """What earlier rollouts on one model computed, for later ones to reuse,
    and the one generator that addresses every rollout's uniforms.

    Beliefs are interned by their bits and named by ids: one start posterior
    per o0 and one successor per (belief, a, o), so a repeated Bayes step is a
    lookup.  Each interned belief remembers the action every policy of
    ``kind == "stationary"`` took there; every other policy is asked at each
    step, at the interned belief.  Each cached value is the one the
    computation it replaces returns, bit for bit, so sharing a cache changes
    no output.  A rollout that starts on another model, or while the cache
    holds more than ``CACHE_FLOATS`` belief floats, clears it first.

    Uniforms are addressed by Philox counter under one key (``draw``,
    ``tail``): rollout i of key ``seed`` reads row i of make_rng(seed)'s
    doubles, ``_CHUNK`` to a row, then the counter line i + 1 of that key.
    """

    def __init__(self):
        self._rng = make_rng(0)
        # a fresh Philox's state, key 0, its arrays as the lists the setter reads faster
        state = self._rng.bit_generator.state
        self._state = {**state, "buffer": state["buffer"].tolist(),
                       "state": {name: words.tolist() for name, words in state["state"].items()}}
        self._key = self._state["state"]["key"]
        self._counter = self._state["state"]["counter"]
        self.model = None
        self._ids: dict[bytes, int] = {}
        self._start: dict[int, int] = {}                  # o0 -> id
        self._bits: list[bytes] = []                      # id -> the belief's float64 bits
        self.successors: list[dict[int, int]] = []        # id -> {a * O + o: id}
        self.actions: list[dict[object, int]] = []        # id -> {stationary policy: action}

    def clear(self) -> None:
        self.model = None
        for table in (self._ids, self._start, self._bits, self.successors, self.actions):
            table.clear()

    @property
    def n_beliefs(self) -> int:
        return len(self._bits)

    def belief(self, b: int) -> np.ndarray:
        """The interned belief with id b, as a read-only view of its bits."""
        return np.frombuffer(self._bits[b])

    def draw(self, key: int, i: int, rows: int, width: int = _CHUNK) -> np.ndarray:
        """Rows i .. i + rows - 1 of make_rng(key)'s doubles laid ``width`` to a
        row: doubles width*i .. width*(i + rows) - 1, as a (rows, width) array
        from one call.  The generator is positioned there by counter (a Philox
        block holds 4 doubles), whatever earlier draws left buffered."""
        first = width * i
        rng = self._seek(key, first >> 2, 0)
        if first & 3:
            rng.random(first & 3)
        return rng.random((rows, width))

    def tail(self, key: int, i: int) -> np.random.Generator:
        """The generator at the start of rollout i's uniforms past its head
        row: key ``key``'s counter line i + 1, counter words (0, i + 1, 0, 0)."""
        return self._seek(key, 0, i + 1)

    def _seek(self, key: int, block: int, line: int) -> np.random.Generator:
        """The cache's generator keyed by ``key``, its buffer empty, next
        producing block block + 1 of counter line ``line``."""
        key = int(key) & _KEY_MASK
        self._key[0], self._key[1] = key & _WORD_MASK, key >> 64
        self._counter[0], self._counter[1] = block, line
        self._rng.bit_generator.state = self._state
        return self._rng

    def begin(self, model) -> None:
        """Start a rollout on ``model``."""
        if self.model is not model or self.n_beliefs * model.n_states > CACHE_FLOATS:
            self.clear()
            self.model = model

    def start(self, o0: int) -> int:
        b = self._start.get(o0)
        if b is None:
            b = self._start[o0] = self._intern(belief_init(self.model, o0))
        return b

    def add_successor(self, b: int, a: int, o: int) -> int:
        """Intern the Bayes successor of belief b after (a, o), which
        ``successors[b]`` does not yet hold, and record it there."""
        # looked up on the module, so a patched (e.g. traced) update is the one called
        nxt = self._intern(belief_update(self.model, self.belief(b), a, o))
        self.successors[b][a * self.model.n_observations + o] = nxt
        return nxt

    def _intern(self, vector: np.ndarray) -> int:
        bits = vector.tobytes()
        b = self._ids.get(bits)
        if b is None:
            b = self._ids[bits] = len(self._bits)
            self._bits.append(bits)
            self.successors.append({})
            self.actions.append({})
        return b


def sample_trajectory(model, policy, seed: int, cache: RolloutCache | None = None,
                      i: int = 0, head: list[float] | None = None) -> Trajectory:
    """Simulate rollout i of key ``seed`` under the model's stopping rule.

    Draw order per step t is fixed for reproducibility: stop flag (geometric
    only), action, then the transition and observation draws.  The run always
    includes (s_T, a_T); under geometric stopping T is the first t whose
    Bernoulli(1-gamma) flag fires, so a run may consist of a single step.
    Every draw reads the next uniform of the rollout: first its head, doubles
    64i .. 64i + 63 of make_rng(seed) (``head``, the row ``planner.rollouts``
    drew in bulk, else ``cache.draw`` reads it alone), then its tail, the counter
    line i + 1 of the same key (``cache.tail``), 64 doubles at a time.  Each
    uniform picks with ``_pick`` on the model's ``sampling`` tables.  Beliefs,
    stationary actions and the generator come from ``cache``, a fresh one
    when None; the run is the same with any cache.  The run keeps the step
    loop's lists, and past its head row the loop calls numpy only for the tail.
    """
    if cache is None:
        cache = RolloutCache()
    cache.begin(model)
    tables = model.sampling
    u = cache.draw(seed, i, 1)[0].tolist() if head is None else head
    random = None  # the tail's draw, once the head runs short
    last = _CHUNK - 3  # the last index at which a step finds its (at most) 3 uniforms
    observe, transition, step_reward = tables.observe, tables.transition, tables.rewards
    stopping = model.stopping
    geometric = stopping.kind == "geometric"
    stop_prob = 1.0 - stopping.gamma if geometric else None
    memo = getattr(policy, "kind", None) == "stationary"

    successors, known = cache.successors, cache.actions
    n_obs = model.n_observations

    s = _pick(tables.initial, u[0])
    o = _pick(observe[s], u[1])
    k = 2  # index of the next unread uniform
    b = cache.start(o)  # the belief's id

    states, actions, observations, rewards = [], [], [], []
    t = 0
    while True:
        if k > last:
            if random is None:
                random = cache.tail(seed, i).random
            u = u[k:] + random(_CHUNK).tolist()
            k, last = 0, len(u) - 3
        if geometric:
            stop = u[k] < stop_prob
            k += 1
        else:
            stop = t == stopping.T
        if memo:
            a = known[b].get(policy)
            if a is None:
                a = known[b][policy] = int(policy.action(cache.belief(b), t))
        else:
            a = int(policy.action(cache.belief(b), t))
        states.append(s)
        actions.append(a)
        observations.append(o)
        rewards.append(step_reward[s][a])
        if stop:
            break
        s = _pick(transition[s][a], u[k])
        o = _pick(observe[s], u[k + 1])
        k += 2
        nxt = successors[b].get(a * n_obs + o)
        b = cache.add_successor(b, a, o) if nxt is None else nxt
        t += 1
    return Trajectory(states, actions, observations, rewards)


# --------------------------------------------------------------------------
# Model file format (JSON document; probabilities as floats or decimal strings)
# --------------------------------------------------------------------------

_JSON_KIND = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, where: str):
    """``value`` if it is of JSON kind ``kind``, else a ModelError."""
    if not isinstance(value, kind):
        raise ModelError(f"{where} must be {_JSON_KIND[kind]}, got {type(value).__name__}")
    return value


def _names(value, where: str) -> list[str]:
    for name in _typed(value, list, where):
        _typed(name, str, f"each entry of {where}")
    return value


def _ref(index: dict, name, what: str, where: str):
    """index[name] for a name the document declares, else a ModelError."""
    if not isinstance(name, str) or name not in index:
        raise ModelError(f"unknown {what} {name!r} in {where}")
    return index[name]


def _number(value, where: str) -> float:
    if isinstance(value, bool):
        raise ModelError(f"bad number {value!r} in {where}")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"bad number {value!r} in {where}") from None
    if not np.isfinite(x):
        raise ModelError(f"non-finite number {value!r} in {where}")
    return x


def _prob(value, where: str) -> float:
    p = _number(value, where)
    if p < 0.0:
        raise ModelError(f"negative probability in {where}")
    return p


def model_from_dict(doc: dict) -> LabeledPomdp:
    _typed(doc, dict, "a model document")
    for fieldname in ("name", "states", "actions", "observations", "initial",
                      "transitions", "observe", "stopping"):
        if fieldname not in doc:
            raise ModelError(f"model document missing field {fieldname!r}")
    model_name = _typed(doc["name"], str, "name")
    states = _names(doc["states"], "states")
    actions = _names(doc["actions"], "actions")
    observations = _names(doc["observations"], "observations")
    atoms = _names(doc.get("atoms", []), "atoms")  # checked by LabeledPomdp
    s_index = {s: i for i, s in enumerate(states)}
    a_index = {a: i for i, a in enumerate(actions)}
    o_index = {o: i for i, o in enumerate(observations)}
    atom_index = {a: i for i, a in enumerate(atoms)}
    S, A, O = len(states), len(actions), len(observations)

    varpi = np.zeros(S)
    for s, p in _typed(doc["initial"], dict, "initial").items():
        varpi[_ref(s_index, s, "state", "initial")] = _prob(p, "initial")

    labels = np.zeros(S, dtype=np.int64)
    for s, names in _typed(doc.get("labels", {}), dict, "labels").items():
        x = _ref(s_index, s, "state", "labels")
        for name in _names(names, f"labels[{s!r}]"):
            labels[x] |= 1 << _ref(atom_index, name, "atom", f"labels[{s!r}]")

    P = np.zeros((S, A, S))
    seen_rows = set()
    for row in _typed(doc["transitions"], list, "transitions"):
        s, a = _typed(row, dict, "each transition row").get("state"), row.get("action")
        key = (_ref(s_index, s, "state", "a transition row"),
               _ref(a_index, a, "action", "a transition row"))
        if key in seen_rows:
            raise ModelError(f"duplicate transition row for (state={s!r}, action={a!r})")
        seen_rows.add(key)
        where = f"transition ({s!r}, {a!r})"
        for s2, p in _typed(row.get("next", {}), dict, where).items():
            P[key[0], key[1], _ref(s_index, s2, "state", where)] = _prob(p, where)
    missing = [(states[s], actions[a]) for s in range(S) for a in range(A) if (s, a) not in seen_rows]
    if missing:
        raise ModelError(f"missing transition rows for {missing[:3]}{'...' if len(missing) > 3 else ''}")

    Z = np.zeros((S, O))
    for s, dist in _typed(doc["observe"], dict, "observe").items():
        x = _ref(s_index, s, "state", "observe")
        for o, p in _typed(dist, dict, f"observe[{s!r}]").items():
            Z[x, _ref(o_index, o, "observation", f"observe[{s!r}]")] = _prob(p, f"observe[{s!r}]")

    rewards = np.zeros((S, A))
    seen_rewards = set()
    for row in _typed(doc.get("rewards", []), list, "rewards"):
        s, a = _typed(row, dict, "each reward row").get("state"), row.get("action")
        where = f"reward ({s!r}, {a!r})"
        key = (_ref(s_index, s, "state", where), _ref(a_index, a, "action", where))
        if key in seen_rewards:
            raise ModelError(f"duplicate reward row for (state={s!r}, action={a!r})")
        seen_rewards.add(key)
        rewards[key] = _number(row.get("value", 0.0), where)

    stop_doc = _typed(doc["stopping"], dict, "stopping")
    kind = stop_doc.get("kind")
    needed = _ref({"fixed": "T", "geometric": "gamma"}, kind, "kind", "stopping")
    if needed not in stop_doc:
        raise ModelError(f"{kind} stopping needs field {needed!r}")
    if kind == "fixed":
        stopping = StoppingModel.fixed(stop_doc["T"])
    else:
        stopping = StoppingModel.geometric(_prob(stop_doc["gamma"], "stopping"))

    return LabeledPomdp(model_name, states, actions, observations, P, Z, varpi,
                        atoms, labels, rewards, stopping, atol=LOAD_ATOL)


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
    return model_from_dict(read_json(path, ModelError, "model"))


def save_model(model: LabeledPomdp, path) -> None:
    write_json(path, model_to_dict(model))
