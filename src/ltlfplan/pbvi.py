"""Point-based value iteration over product-POMDP beliefs.

The discounted solver runs lower-bound PBVI: a belief set is grown by a
seeded random walk, every belief's value starts at the uniform floor
min(reward)/(1-gamma), and each round performs the standard point-based
backup at every belief.  Alpha sets are unions of previous vectors and fresh
backups pruned to the winners at the belief points, so point values are
nondecreasing round over round and every vector stays a valid lower bound on
some executable policy's value.

The finite-horizon solver does backward induction with per-stage belief sets
expanded forward from the initial posteriors; with exhaustive expansion it is
exact at the start beliefs.  ``exact_value_oracle`` enumerates the full
action/observation history tree instead and is the independent reference for
tiny instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .pomdp import _categorical, condition, derive_seed, initial_beliefs, make_rng

BELIEF_GAP = 1e-2  # L1 distance below which a sampled belief is not admitted


@dataclass
class SolverConfig:
    n_beliefs: int = 100
    max_backup_rounds: int = 400
    bellman_tolerance: float = 1e-3
    expansion_seed: int = 0
    exhaustive: bool = False        # finite horizon: enumerate all reachable beliefs

    def __post_init__(self):
        if self.n_beliefs < 1:
            raise ValueError("n_beliefs must be >= 1")
        if self.bellman_tolerance <= 0:
            raise ValueError("bellman_tolerance must be positive")


class AlphaPolicy:
    """Stationary alpha-vector policy: the solver's own (n, X) vector matrix
    and (n,) action array.

    The action at belief b is actions[argmax(alphas @ b)], ties broken by
    lowest vector index.  The time argument is accepted and ignored, so the
    policy runs under either stopping rule.
    """

    kind = "stationary"
    needs_belief = True

    def __init__(self, alphas, actions, gamma: float | None = None, converged: bool = True,
                 stats: dict | None = None):
        self.alphas = np.asarray(alphas, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.int64)
        if self.alphas.ndim != 2 or len(self.alphas) == 0:
            raise ValueError(f"need a nonempty (n, X) alpha matrix, got shape {self.alphas.shape}")
        if self.actions.shape != (len(self.alphas),):
            raise ValueError(f"{self.actions.shape} actions for {len(self.alphas)} alpha vectors")
        if not np.all(np.isfinite(self.alphas)):
            raise ValueError("alpha vector has non-finite entries")
        self.n_states = self.alphas.shape[1]
        self.gamma = gamma
        self.converged = bool(converged)
        self.stats = stats or {}

    def action(self, belief, t: int = 0) -> int:
        belief = np.asarray(belief)
        if belief.shape != (self.n_states,):
            raise ValueError(f"belief length {belief.shape} does not match {self.n_states} states")
        return self.actions.item((self.alphas @ belief).argmax())

    def value_at(self, belief, t: int = 0) -> float:
        return float(np.max(self.alphas @ np.asarray(belief)))


class TimeIndexedPolicy(list):
    """Finite-horizon policy: the list of its stages' AlphaPolicy, stage t
    acting at time t = 0..horizon."""

    kind = "time_indexed"
    needs_belief = True

    def __init__(self, stages, converged: bool = True):
        super().__init__(stages)
        if not self:
            raise ValueError("time-indexed policy needs at least one stage")
        if len({stage.n_states for stage in self}) != 1:
            raise ValueError("stages of a time-indexed policy differ in state count")
        self.converged = bool(converged)

    @property
    def horizon(self) -> int:
        return len(self) - 1

    @property
    def n_states(self) -> int:
        return self[0].n_states

    def action(self, belief, t: int = 0) -> int:
        return self[t].action(belief)  # IndexError past the horizon

    def value_at(self, belief, t: int = 0) -> float:
        return self[t].value_at(belief)


def start_value(policy, prod) -> float:
    """Expected value before the time-0 observation: E_o0[ V(b0(o0)) ]."""
    return sum(p * policy.value_at(b, 0) for p, _, b in initial_beliefs(prod))


# --------------------------------------------------------------------------
# Belief-set expansion
# --------------------------------------------------------------------------

def _add_belief(beliefs: list, b: np.ndarray, gap: float) -> bool:
    for existing in beliefs:
        if np.abs(existing - b).sum() <= gap:
            return False
    beliefs.append(b)
    return True


def _predictive_step(prod, rng, b):
    a = int(rng.integers(prod.n_actions))
    predicted = b @ prod.P[:, a, :]
    return condition(prod, predicted, _categorical(rng, predicted @ prod.Z))


def expand_beliefs_random_walk(prod, cfg: SolverConfig, gamma: float | None) -> np.ndarray:
    """Seeded random walk through belief space from the initial posteriors.

    Restarts mimic episode ends (probability 1-gamma per step under geometric
    stopping).  A step's belief is admitted unless it lies within BELIEF_GAP
    (L1) of one already held.  The walk stops once cfg.n_beliefs are held or
    after 200 * cfg.n_beliefs steps, whichever comes first; it does not stop
    when it finds nothing new, so a model with fewer reachable beliefs than
    n_beliefs always walks the full 200 * n_beliefs steps.
    """
    rng = make_rng(derive_seed(cfg.expansion_seed, 0xB))
    seeds = [b for _, _, b in initial_beliefs(prod)]
    beliefs: list[np.ndarray] = []
    for b in seeds:
        _add_belief(beliefs, b, 0.0)
    restart_prob = (1.0 - gamma) if gamma is not None else 0.0
    b = seeds[0]
    for _ in range(200 * cfg.n_beliefs):
        if len(beliefs) >= cfg.n_beliefs:
            break
        if restart_prob and rng.random() < restart_prob:
            b = seeds[int(rng.integers(len(seeds)))]
            continue
        b = _predictive_step(prod, rng, b)
        _add_belief(beliefs, b, BELIEF_GAP)
    return np.vstack(beliefs)


def expand_stage_beliefs(prod, T: int, cfg: SolverConfig) -> list[np.ndarray]:
    """Per-stage belief sets for horizons 0..T, expanded forward from b0."""
    seeds = [b for _, _, b in initial_beliefs(prod)]
    if cfg.exhaustive:
        stages = [seeds]
        for _ in range(T):
            nxt: list[np.ndarray] = []
            for b in stages[-1]:
                for a in range(prod.n_actions):
                    predicted = b @ prod.P[:, a, :]
                    obs_probs = predicted @ prod.Z
                    for o in np.nonzero(obs_probs > 0)[0]:
                        _add_belief(nxt, condition(prod, predicted, o), 1e-12)
                        if len(nxt) > 20_000:
                            raise RuntimeError("exhaustive belief expansion too large")
            stages.append(nxt)
        return [np.vstack(stage) for stage in stages]
    rng = make_rng(derive_seed(cfg.expansion_seed, 0xF))
    stages = [list(seeds)] + [[] for _ in range(T)]
    for _ in range(100 * cfg.n_beliefs):
        if all(len(stage) >= cfg.n_beliefs for stage in stages[1:]):
            break
        b = seeds[int(rng.integers(len(seeds)))]
        for t in range(1, T + 1):
            b = _predictive_step(prod, rng, b)
            _add_belief(stages[t], b, BELIEF_GAP)
    return [np.vstack(stage) for stage in stages]


# --------------------------------------------------------------------------
# Backups
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _BackupTables:
    """The product's P and Z laid out for `_point_backup`; built once per solve."""
    P_flat: np.ndarray   # (X, A*X): P_flat[x, a*X + y] = P[x, a, y]
    P_T: np.ndarray      # (A, X, X): P_T[a, y, x] = P[x, a, y]
    obs: list            # (states y with Z[y, o] > 0, Z[those, o]) per observation with any


def _backup_tables(prod) -> _BackupTables:
    X, A = prod.n_states, prod.n_actions
    obs = []
    for o in range(prod.n_observations):
        support = np.nonzero(prod.Z[:, o] > 0)[0]
        if support.size:
            obs.append((support, prod.Z[support, o]))
    return _BackupTables(P_flat=prod.P.reshape(X, A * X),
                         P_T=np.ascontiguousarray(prod.P.transpose(1, 2, 0)), obs=obs)


def _point_backup(tables: _BackupTables, reward, gamma, beliefs, mat):
    """One point-based backup at every belief against the alpha set ``mat``.

    Returns (new_mat, new_acts, values) where row b is the backed-up vector
    chosen for beliefs[b] and values[b] its value there.

    For each (belief b, action a, observation o) the best alpha maximizes
    sum_y pred_a(b)[y] Z[y, o] alpha[y], with pred_a(b) = b P_a; only the
    states y with Z[y, o] > 0 enter, and ties (zero-mass pairs included) go
    to the lowest alpha index.  The chosen alphas fold into
    H_a[b, y] = sum_o Z[y, o] alpha_best(b, a, o)[y], and the backed-up
    vector is reward[:, a] + gamma * P_a H_a[b].  A round costs
    O(A nb (X^2 + nnz(Z) n)) for nb beliefs and n alphas.
    """
    X = mat.shape[1]
    A = tables.P_T.shape[0]
    nb = beliefs.shape[0]
    pred = (beliefs @ tables.P_flat).reshape(nb * A, X)  # row b*A + a is pred_a(b)
    H = np.zeros((nb * A, X))
    for support, z in tables.obs:
        alphas = mat[:, support]
        best = ((pred[:, support] * z) @ alphas.T).argmax(axis=1)  # ties -> lowest index
        H[:, support] += alphas[best] * z
    H = H.reshape(nb, A, X).transpose(1, 0, 2)
    vecs = reward.T[:, None, :] + gamma * (H @ tables.P_T)  # (A, nb, X)
    value_per_action = (vecs * beliefs).sum(axis=2)
    choice = value_per_action.argmax(axis=0)  # (nb,), ties -> lowest action
    rows = np.arange(nb)
    return vecs[choice, rows], choice.astype(np.int64), value_per_action[choice, rows]


def _winners(beliefs, mat, acts):
    """Keep exactly the vectors that attain the max at some belief point.

    Returns (mat, acts, values) with values[b] the max at beliefs[b]; ties
    go to the lowest vector index.
    """
    vals = beliefs @ mat.T
    winners = vals.argmax(axis=1)
    keep = np.unique(winners)
    return mat[keep], acts[keep], vals[np.arange(len(beliefs)), winners]


def solve_discounted(prod, reward, gamma: float, cfg: SolverConfig,
                     warm_start: tuple[np.ndarray, np.ndarray] | None = None) -> AlphaPolicy:
    """Discounted-infinite-horizon PBVI; returns a stationary alpha policy.

    On hitting the round budget before the tolerance, returns the
    best-so-far policy flagged converged=False rather than raising.
    ``warm_start`` may carry (matrix, actions) of valid lower-bound vectors
    from a related solve; the uniform floor vector is always included.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("discounted solver needs 0 < gamma < 1")
    reward = np.asarray(reward, dtype=np.float64)
    if reward.shape != (prod.n_states, prod.n_actions):
        raise ValueError(f"reward map shape {reward.shape}, expected {(prod.n_states, prod.n_actions)}")
    beliefs = expand_beliefs_random_walk(prod, cfg, gamma)
    floor = reward.min() / (1.0 - gamma)
    mat = np.full((1, prod.n_states), floor)
    acts = np.zeros(1, dtype=np.int64)
    if warm_start is not None:
        mat = np.vstack([mat, warm_start[0]])
        acts = np.concatenate([acts, np.asarray(warm_start[1], dtype=np.int64)])
    mat, acts, point_values = _winners(beliefs, mat, acts)
    tables = _backup_tables(prod)
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_backup_rounds + 1):
        new_mat, new_acts, _ = _point_backup(tables, reward, gamma, beliefs, mat)
        mat, acts, new_values = _winners(beliefs, np.vstack([mat, new_mat]),
                                         np.concatenate([acts, new_acts]))
        delta = float(np.max(new_values - point_values))
        point_values = new_values
        if delta < cfg.bellman_tolerance:
            converged = True
            break
    return AlphaPolicy(mat, acts, gamma=gamma, converged=converged,
                       stats={"rounds": rounds, "beliefs": beliefs})


def solve_finite_horizon(prod, reward, T: int, cfg: SolverConfig,
                         terminal: np.ndarray | None = None) -> TimeIndexedPolicy:
    """Backward induction with point-based per-stage belief sets.

    Stage-T vectors are reward(.,a) plus the expected terminal channel; the
    returned policy holds one stage per t = 0..T.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    reward = np.asarray(reward, dtype=np.float64)
    X, A = prod.n_states, prod.n_actions
    if reward.shape != (X, A):
        raise ValueError(f"reward map shape {reward.shape}, expected {(X, A)}")
    terminal = np.zeros(X) if terminal is None else np.asarray(terminal, dtype=np.float64)
    stages = expand_stage_beliefs(prod, T, cfg)

    policy = [None] * (T + 1)
    policy[T] = AlphaPolicy(np.stack([reward[:, a] + prod.P[:, a, :] @ terminal for a in range(A)]),
                            np.arange(A))
    tables = _backup_tables(prod)
    for t in range(T - 1, -1, -1):
        new_mat, new_acts, _ = _point_backup(tables, reward, 1.0, stages[t], policy[t + 1].alphas)
        mat, acts, _ = _winners(stages[t], new_mat, new_acts)
        policy[t] = AlphaPolicy(mat, acts)
    return TimeIndexedPolicy(policy)


def exact_value_oracle(prod, reward, T: int, terminal: np.ndarray | None = None,
                       max_tree: int = 200_000) -> float:
    """Exact optimal expected total reward by full history-tree recursion.

    Guarded against instances whose (|A| * |O|)^T tree would be too large.
    Independent of the alpha-vector machinery above.
    """
    X, A, O = prod.n_states, prod.n_actions, prod.n_observations
    if (A * O) ** T > max_tree:
        raise RuntimeError(f"history tree of size ({A}*{O})^{T} exceeds the oracle guard")
    reward = np.asarray(reward, dtype=np.float64)
    terminal = np.zeros(X) if terminal is None else np.asarray(terminal, dtype=np.float64)

    def value(b: np.ndarray, t: int) -> float:
        best = -np.inf
        for a in range(A):
            q = float(b @ reward[:, a])
            predicted = b @ prod.P[:, a, :]
            if t == T:
                q += float(predicted @ terminal)
            else:
                obs_mass = predicted * prod.Z.T  # (O, X) unnormalized posteriors
                masses = obs_mass.sum(axis=1)
                for o in np.nonzero(masses > 0)[0]:
                    q += masses[o] * value(obs_mass[o] / masses[o], t + 1)
            best = max(best, q)
        return best

    return sum(p * value(b, 0) for p, _, b in initial_beliefs(prod))


# --------------------------------------------------------------------------
# Policy files
# --------------------------------------------------------------------------

def _vectors_to_list(policy: AlphaPolicy) -> list:
    return [{"action": int(a), "values": v.tolist()} for a, v in zip(policy.actions, policy.alphas)]


def _vectors_from_list(vectors: list, **kwargs) -> AlphaPolicy:
    return AlphaPolicy(np.array([v["values"] for v in vectors], dtype=np.float64),
                       [int(v["action"]) for v in vectors], **kwargs)


def policy_to_dict(policy) -> dict:
    doc = {"kind": policy.kind, "n_states": policy.n_states, "converged": policy.converged}
    if policy.kind == "stationary":
        doc["gamma"] = policy.gamma
        doc["alphas"] = _vectors_to_list(policy)
    else:
        doc["horizon"] = policy.horizon
        doc["alphas"] = [_vectors_to_list(stage) for stage in policy]
    return doc


def policy_from_dict(doc: dict):
    """The policy a policy file holds; ValueError when the file is inconsistent."""
    kind = doc["kind"]
    converged = doc.get("converged", True)
    if kind == "stationary":
        policy = _vectors_from_list(doc["alphas"], gamma=doc.get("gamma"), converged=converged)
    elif kind == "time_indexed":
        policy = TimeIndexedPolicy([_vectors_from_list(stage) for stage in doc["alphas"]],
                                   converged=converged)
        if doc.get("horizon") != policy.horizon:
            raise ValueError(f"horizon {doc.get('horizon')!r} but {len(policy)} stages")
    else:
        raise ValueError(f"unknown policy kind {kind!r}")
    if doc["n_states"] != policy.n_states:
        raise ValueError(f"n_states {doc['n_states']!r} but alpha vectors of length {policy.n_states}")
    return policy


def check_policy(policy, prod) -> None:
    """ValueError unless the policy can run on the product: it acts on the
    product's states with its actions, and a time-indexed policy runs only
    under a fixed horizon it covers."""
    if policy.n_states != prod.n_states:
        raise ValueError(f"policy is over {policy.n_states} states, product has {prod.n_states}")
    stages = policy if isinstance(policy, TimeIndexedPolicy) else [policy]
    if not all(0 <= a < prod.n_actions for stage in stages for a in stage.actions.tolist()):
        raise ValueError(f"policy uses an action outside 0..{prod.n_actions - 1}")
    stopping = prod.stopping
    if isinstance(policy, TimeIndexedPolicy) and \
            not (stopping.kind == "fixed" and policy.horizon >= stopping.T):
        raise ValueError(f"time-indexed policy of horizon {policy.horizon} does not "
                         f"cover the product's stopping rule")


def save_policy(policy, path) -> None:
    with open(path, "w") as fh:
        json.dump(policy_to_dict(policy), fh)
        fh.write("\n")


def load_policy(path):
    with open(path) as fh:
        return policy_from_dict(json.load(fh))
