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

from .pomdp import derive_seed, initial_beliefs, make_rng


@dataclass
class AlphaVector:
    action: int
    values: np.ndarray


@dataclass
class SolverConfig:
    n_beliefs: int = 80
    max_backup_rounds: int = 500
    bellman_tolerance: float = 1e-3
    expansion_seed: int = 0
    belief_gap: float = 1e-2        # L1 threshold for admitting a new belief
    exhaustive: bool = False        # finite horizon: enumerate all reachable beliefs
    max_expansion_steps: int | None = None

    def __post_init__(self):
        if self.n_beliefs < 1:
            raise ValueError("n_beliefs must be >= 1")
        if self.bellman_tolerance <= 0:
            raise ValueError("bellman_tolerance must be positive")


class AlphaPolicy:
    """Alpha-vector policy; stationary (discounted) or time-indexed (fixed T).

    Action selection is the argmax of alpha . belief over the relevant set,
    ties broken by lowest vector index.
    """

    needs_belief = True

    def __init__(self, kind: str, alphas, n_states: int, gamma: float | None = None,
                 horizon: int | None = None, converged: bool = True, stats: dict | None = None):
        if kind not in ("stationary", "time_indexed"):
            raise ValueError(f"unknown policy kind {kind!r}")
        self.kind = kind
        self.n_states = int(n_states)
        self.gamma = gamma
        self.horizon = horizon
        self.converged = bool(converged)
        self.stats = stats or {}
        if kind == "stationary":
            self.alphas = list(alphas)
            self._mats = [np.vstack([a.values for a in self.alphas])]
            self._acts = [np.array([a.action for a in self.alphas], dtype=np.int64)]
        else:
            self.alphas = [list(stage) for stage in alphas]
            if horizon is None or len(self.alphas) != horizon + 1:
                raise ValueError("time-indexed policy needs one alpha set per stage 0..T")
            self._mats = [np.vstack([a.values for a in stage]) for stage in self.alphas]
            self._acts = [np.array([a.action for a in stage], dtype=np.int64) for stage in self.alphas]
        for mat in self._mats:
            if mat.shape[1] != self.n_states:
                raise ValueError("alpha vector length does not match state count")
            if not np.all(np.isfinite(mat)):
                raise ValueError("alpha vector has non-finite entries")

    def _stage(self, t: int) -> int:
        if self.kind == "stationary":
            return 0
        if not 0 <= t <= self.horizon:
            raise IndexError(f"time {t} outside horizon 0..{self.horizon}")
        return t

    def action(self, belief, t: int = 0) -> int:
        g = self._stage(t)
        belief = np.asarray(belief)
        if belief.shape != (self.n_states,):
            raise ValueError(f"belief length {belief.shape} does not match {self.n_states} states")
        return int(self._acts[g][int(np.argmax(self._mats[g] @ belief))])

    def value_at(self, belief, t: int = 0) -> float:
        g = self._stage(t)
        return float(np.max(self._mats[g] @ np.asarray(belief)))


def policy_action(policy: AlphaPolicy, belief, t: int = 0) -> int:
    return policy.action(belief, t)


def start_value(policy: AlphaPolicy, prod) -> float:
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
    obs_probs = predicted @ prod.Z
    total = obs_probs.sum()
    cumulative = np.cumsum(obs_probs)
    o = int(min(np.searchsorted(cumulative, rng.random() * total, side="right"),
                len(obs_probs) - 1))
    post = predicted * prod.Z[:, o]
    return post / post.sum()


def expand_beliefs_random_walk(prod, cfg: SolverConfig, gamma: float | None) -> np.ndarray:
    """Seeded random walk through belief space from the initial posteriors.

    Restarts mimic episode ends (probability 1-gamma per step under geometric
    stopping).  Stops early if the walk stops discovering new beliefs.
    """
    rng = make_rng(derive_seed(cfg.expansion_seed, 0xB))
    seeds = [b for _, _, b in initial_beliefs(prod)]
    beliefs: list[np.ndarray] = []
    for b in seeds:
        _add_belief(beliefs, b, 0.0)
    cap = cfg.max_expansion_steps if cfg.max_expansion_steps is not None else 200 * cfg.n_beliefs
    restart_prob = (1.0 - gamma) if gamma is not None else 0.0
    b = seeds[0]
    for _ in range(cap):
        if len(beliefs) >= cfg.n_beliefs:
            break
        if restart_prob and rng.random() < restart_prob:
            b = seeds[int(rng.integers(len(seeds)))]
            continue
        b = _predictive_step(prod, rng, b)
        _add_belief(beliefs, b, cfg.belief_gap)
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
                        post = predicted * prod.Z[:, o]
                        _add_belief(nxt, post / post.sum(), 1e-12)
                        if len(nxt) > 20_000:
                            raise RuntimeError("exhaustive belief expansion too large")
            stages.append(nxt)
        return [np.vstack(stage) for stage in stages]
    rng = make_rng(derive_seed(cfg.expansion_seed, 0xF))
    stages = [list(seeds)] + [[] for _ in range(T)]
    cap = cfg.max_expansion_steps if cfg.max_expansion_steps is not None else 100 * cfg.n_beliefs
    for _ in range(cap):
        if all(len(stage) >= cfg.n_beliefs for stage in stages[1:]):
            break
        b = seeds[int(rng.integers(len(seeds)))]
        for t in range(1, T + 1):
            b = _predictive_step(prod, rng, b)
            _add_belief(stages[t], b, cfg.belief_gap)
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


def _prune_to_winners(beliefs, mat, acts):
    """Keep exactly the vectors that attain the max at some belief point."""
    winners = (beliefs @ mat.T).argmax(axis=1)
    keep = np.unique(winners)
    return mat[keep], acts[keep]


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
        mat, acts = _prune_to_winners(beliefs, mat, acts)
    tables = _backup_tables(prod)
    point_values = (beliefs @ mat.T).max(axis=1)
    history = [point_values]
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_backup_rounds + 1):
        new_mat, new_acts, _ = _point_backup(tables, reward, gamma, beliefs, mat)
        combined = np.vstack([mat, new_mat])
        combined_acts = np.concatenate([acts, new_acts])
        vals = beliefs @ combined.T
        winners = vals.argmax(axis=1)
        keep = np.unique(winners)
        mat, acts = combined[keep], combined_acts[keep]
        new_values = vals[np.arange(len(beliefs)), winners]
        delta = float(np.max(new_values - point_values))
        point_values = new_values
        history.append(point_values)
        if delta < cfg.bellman_tolerance:
            converged = True
            break
    alphas = [AlphaVector(int(a), v) for a, v in zip(acts, mat)]
    policy = AlphaPolicy("stationary", alphas, prod.n_states, gamma=gamma, converged=converged,
                         stats={"rounds": rounds, "beliefs": beliefs,
                                "point_value_history": history})
    policy.stats["start_value"] = start_value(policy, prod)
    return policy


def solve_finite_horizon(prod, reward, T: int, cfg: SolverConfig,
                         terminal: np.ndarray | None = None) -> AlphaPolicy:
    """Backward induction with point-based per-stage belief sets.

    Stage-T vectors are reward(.,a) plus the expected terminal channel; the
    returned policy is time-indexed over t = 0..T.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    reward = np.asarray(reward, dtype=np.float64)
    X, A = prod.n_states, prod.n_actions
    if reward.shape != (X, A):
        raise ValueError(f"reward map shape {reward.shape}, expected {(X, A)}")
    terminal = np.zeros(X) if terminal is None else np.asarray(terminal, dtype=np.float64)
    stages = expand_stage_beliefs(prod, T, cfg)

    last_mat = np.stack([reward[:, a] + prod.P[:, a, :] @ terminal for a in range(A)])
    last_acts = np.arange(A, dtype=np.int64)
    mats = [None] * (T + 1)
    acts = [None] * (T + 1)
    mats[T], acts[T] = last_mat, last_acts
    tables = _backup_tables(prod)
    for t in range(T - 1, -1, -1):
        new_mat, new_acts, _ = _point_backup(tables, reward, 1.0, stages[t], mats[t + 1])
        keep = np.unique((stages[t] @ new_mat.T).argmax(axis=1))
        mats[t], acts[t] = new_mat[keep], new_acts[keep]
    alphas = [[AlphaVector(int(a), v) for a, v in zip(acts[t], mats[t])] for t in range(T + 1)]
    policy = AlphaPolicy("time_indexed", alphas, X, horizon=T, converged=True,
                         stats={"stage_beliefs": stages})
    policy.stats["start_value"] = start_value(policy, prod)
    return policy


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

def policy_to_dict(policy: AlphaPolicy) -> dict:
    doc = {"kind": policy.kind, "n_states": policy.n_states, "converged": policy.converged}
    if policy.kind == "stationary":
        doc["gamma"] = policy.gamma
        doc["alphas"] = [{"action": a.action, "values": a.values.tolist()} for a in policy.alphas]
    else:
        doc["horizon"] = policy.horizon
        doc["alphas"] = [[{"action": a.action, "values": a.values.tolist()} for a in stage]
                         for stage in policy.alphas]
    return doc


def policy_from_dict(doc: dict) -> AlphaPolicy:
    kind = doc["kind"]
    if kind == "stationary":
        alphas = [AlphaVector(int(a["action"]), np.array(a["values"])) for a in doc["alphas"]]
        return AlphaPolicy(kind, alphas, doc["n_states"], gamma=doc.get("gamma"),
                           converged=doc.get("converged", True))
    alphas = [[AlphaVector(int(a["action"]), np.array(a["values"])) for a in stage]
              for stage in doc["alphas"]]
    return AlphaPolicy(kind, alphas, doc["n_states"], horizon=doc.get("horizon"),
                       converged=doc.get("converged", True))


def save_policy(policy: AlphaPolicy, path) -> None:
    with open(path, "w") as fh:
        json.dump(policy_to_dict(policy), fh)
        fh.write("\n")


def load_policy(path) -> AlphaPolicy:
    with open(path) as fh:
        return policy_from_dict(json.load(fh))
