"""Point-based value iteration over product-POMDP beliefs.

The discounted solver runs lower-bound PBVI at the belief set it is handed
(``planner.solve_at`` grows one per multiplier loop by the seeded random
walk ``expand_beliefs_random_walk``): every belief's value starts at the
uniform floor min(reward)/(1-gamma), and each round performs the standard
point-based backup at every belief.  Alpha sets are unions of previous
vectors and fresh backups pruned to the winners at the belief points, so
point values are nondecreasing round over round and every vector stays a
valid lower bound on some executable policy's value.  The work that depends only on the belief
set (predictions, and per observation the (belief, action) rows with mass)
is laid out once per solve by ``_backup_plan``; a round scores only those
rows.

The finite-horizon solver does backward induction with per-stage belief sets
expanded breadth-first from the initial posteriors: stage t+1 holds every
distinct Bayes successor of stage t, capped at n_beliefs by a seeded draw.
A solve none of whose backed-up stages was capped is exact at the start
beliefs and flagged converged; a capped one is flagged unconverged.
``exact_value_oracle`` enumerates the full action/observation history tree
instead and is the independent reference for tiny instances.

``mdp_upper_bound`` is the matching upper bound at the start beliefs: the
value of the product MDP, which sees the state, read through b0
(``start_bound`` of ``mdp_q_table``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .files import json_list, read_json, write_json
from .pomdp import _categorical, condition, derive_seed, initial_beliefs, make_rng, predict

BELIEF_GAP = 1e-2  # L1 distance below which a sampled belief is not admitted
UPPER_SLACK = 1e-3  # mdp_q_table's error bound at its stop, as a share of the value span
ORACLE_MAX_TREE = 200_000  # largest history tree exact_value_oracle will recurse through


@dataclass
class SolverConfig:
    n_beliefs: int = 100
    max_backup_rounds: int = 400
    bellman_tolerance: float = 1e-3
    expansion_seed: int = 0

    def __post_init__(self):
        if self.n_beliefs < 1:
            raise ValueError("n_beliefs must be >= 1")
        if self.max_backup_rounds < 0:
            raise ValueError("max_backup_rounds must be >= 0")
        if not 0 < self.bellman_tolerance < np.inf:
            raise ValueError("bellman_tolerance must be positive and finite")


class AlphaPolicy:
    """Stationary alpha-vector policy: the solver's own (n, X) vector matrix
    and (n,) action array.

    The action at belief b is actions[argmax(alphas @ b)], ties broken by
    lowest vector index.  The time argument is accepted and ignored, so the
    policy runs under either stopping rule.
    """

    kind = "stationary"

    def __init__(self, alphas, actions, converged: bool = True, stats: dict | None = None):
        self.alphas = np.asarray(alphas, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.int64)
        if self.alphas.ndim != 2 or len(self.alphas) == 0:
            raise ValueError(f"need a nonempty (n, X) alpha matrix, got shape {self.alphas.shape}")
        if self.actions.shape != (len(self.alphas),):
            raise ValueError(f"{self.actions.shape} actions for {len(self.alphas)} alpha vectors")
        if not np.all(np.isfinite(self.alphas)):
            raise ValueError("alpha vector has non-finite entries")
        self.n_states = self.alphas.shape[1]
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
    acting at time t = 0..horizon.  ``stats`` of a solved one holds
    "points", the belief points its backups ran at, summed over its stages."""

    kind = "time_indexed"

    def __init__(self, stages, converged: bool = True, stats: dict | None = None):
        super().__init__(stages)
        if not self:
            raise ValueError("time-indexed policy needs at least one stage")
        if len({stage.n_states for stage in self}) != 1:
            raise ValueError("stages of a time-indexed policy differ in state count")
        self.converged = bool(converged)
        self.stats = stats or {}

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


def _reward_map(prod, reward) -> np.ndarray:
    """``reward`` as a float64 (X, A) map with finite entries; ValueError otherwise."""
    reward = np.asarray(reward, dtype=np.float64)
    if reward.shape != (prod.n_states, prod.n_actions):
        raise ValueError(f"reward map shape {reward.shape}, expected "
                         f"{(prod.n_states, prod.n_actions)}")
    if not np.all(np.isfinite(reward)):
        raise ValueError("reward map has non-finite entries")
    return reward


def mdp_q_table(prod, reward, terminal: np.ndarray | None = None) -> np.ndarray:
    """Q-table of the product MDP, which sees the state: >= its optimal
    Q-table Q* entrywise, and equal to it under fixed stopping.

    Geometric stopping: value iteration from the constant
    max(reward)/(1-gamma), which is >= V*, so every sweep falls (no value
    rises) and stays >= V*; the returned table is >= Q* however early it
    stops.  It stops once its own error bound, gamma/(1-gamma) times the
    largest fall in the last sweep, is at most UPPER_SLACK times the value
    span (max - min reward)/(1 - gamma): the table then exceeds Q* by at
    most that much.  Fixed stopping: T+1 steps of backward induction onto
    ``terminal``, the stage rule of solve_finite_horizon.
    """
    reward = _reward_map(prod, reward)  # finite, so value iteration stops
    X, A = prod.n_states, prod.n_actions
    P = prod.P.reshape(X * A, X)  # row x*A + a is P[x, a, :]
    stopping = prod.stopping
    if stopping.kind == "geometric":
        gamma = stopping.gamma
        slack = UPPER_SLACK * (reward.max() - reward.min()) / (1.0 - gamma)
        V = np.full(X, reward.max() / (1.0 - gamma))
        while True:
            Q = reward + gamma * (P @ V).reshape(X, A)
            V_next = Q.max(axis=1)
            if gamma / (1.0 - gamma) * np.max(V - V_next) <= slack:
                break
            V = V_next
    else:
        V = np.zeros(X) if terminal is None else np.asarray(terminal, dtype=np.float64)
        for _ in range(stopping.T + 1):
            Q = reward + (P @ V).reshape(X, A)
            V = Q.max(axis=1)
    return Q


def start_bound(q_table: np.ndarray, prod) -> float:
    """E_o0[ max_a b0(o0) . Q[:, a] ]: for a Q-table >= Q*, an upper bound on
    the optimal start value (the QMDP/FIB bound, Hauskrecht 2000)."""
    return sum(p * float((b @ q_table).max()) for p, _, b in initial_beliefs(prod))


def mdp_upper_bound(prod, reward, terminal: np.ndarray | None = None) -> float:
    """Upper bound on the optimal start value: ``start_bound`` of
    ``mdp_q_table``, within UPPER_SLACK times the value span of the exact
    product-MDP bound under geometric stopping and equal to it under fixed."""
    return start_bound(mdp_q_table(prod, reward, terminal), prod)


# --------------------------------------------------------------------------
# Belief-set expansion
# --------------------------------------------------------------------------

def _successors(prod, b: np.ndarray):
    """Every Bayes successor of b: each action in turn, then each
    observation with mass under it, by ``predict`` and ``condition``."""
    for a in range(prod.n_actions):
        predicted = predict(prod, b, a)
        for o in np.nonzero(predicted @ prod.Z > 0)[0]:
            yield condition(prod, predicted, o)


def expand_beliefs_random_walk(prod, cfg: SolverConfig, gamma: float) -> np.ndarray:
    """Seeded random walk through belief space from the initial posteriors.

    Restarts mimic episode ends (probability 1-gamma per step).  The held
    beliefs are the first rows of one preallocated array, the initial
    posteriors first (each unless it equals one already held); a step's
    belief b is admitted when ``np.abs(held - b).sum(axis=1)`` exceeds
    BELIEF_GAP on every held row.  The walk stops once cfg.n_beliefs are
    held, after 200 * cfg.n_beliefs steps, or once the held set is closed,
    whichever comes first.  The set is closed when every Bayes successor of
    every held belief (``_successors``) is held bit for bit.  Then the
    walk's current belief is held too, and no later step can admit one: a
    restart lands on an initial posterior, which is held or equals one that
    is, and a step from a held belief lands on one of its successors, so by
    induction every belief the walk reaches is held, and the walk returns
    what it would have returned after all its steps.  Closure is checked
    once per cfg.n_beliefs steps in a row that admit nothing, and each held
    belief's successors are computed once, so a walk that keeps admitting
    pays next to nothing for it.
    """
    rng = make_rng(derive_seed(cfg.expansion_seed, 0xB))
    seeds = [b for _, _, b in initial_beliefs(prod)]
    held = np.empty((max(cfg.n_beliefs, len(seeds)), prod.n_states))
    n = 0
    stall = 0  # steps since the last admission

    def admit(b, gap):
        """Hold b as row n when it lies more than ``gap`` (L1) from every held row."""
        nonlocal n, stall
        if (np.abs(held[:n] - b).sum(axis=1) > gap).all():
            held[n] = b
            n += 1
            stall = 0

    for b in seeds:
        admit(b, 0.0)
    successors = set()  # bits of the Bayes successors of held[:expanded]
    expanded = 0
    b = seeds[0]
    for _ in range(200 * cfg.n_beliefs):
        if n >= cfg.n_beliefs:
            break
        if stall and stall % cfg.n_beliefs == 0:
            for kept in held[expanded:n]:
                successors.update(post.tobytes() for post in _successors(prod, kept))
            expanded = n
            if successors <= {row.tobytes() for row in held[:n]}:
                break
        stall += 1
        if rng.random() < 1.0 - gamma:
            b = seeds[int(rng.integers(len(seeds)))]
            continue
        predicted = predict(prod, b, int(rng.integers(prod.n_actions)))
        b = condition(prod, predicted, _categorical(rng, predicted @ prod.Z))
        admit(b, BELIEF_GAP)
    return held[:n]


def expand_stage_beliefs(prod, T: int, cfg: SolverConfig) -> tuple[list[np.ndarray], bool]:
    """Per-stage belief sets for times 0..T, expanded breadth-first from b0,
    and whether any stage was capped.

    Stage 0 holds the initial posteriors.  Stage t+1 holds every distinct
    Bayes successor (``_successors``) of stage t, in enumeration order and
    deduplicated by their float64 bits.  A stage with more than
    cfg.n_beliefs successors keeps a draw of n_beliefs of them, in
    enumeration order, from the stream of cfg.expansion_seed.
    """
    rng = make_rng(derive_seed(cfg.expansion_seed, 0xF))
    stages = [np.vstack([b for _, _, b in initial_beliefs(prod)])]
    capped = False
    for _ in range(T):
        successors: dict[bytes, np.ndarray] = {}
        for b in stages[-1]:
            for post in _successors(prod, b):
                successors.setdefault(post.tobytes(), post)
        stage = np.vstack(list(successors.values()))
        if len(stage) > cfg.n_beliefs:
            capped = True
            stage = stage[np.sort(rng.choice(len(stage), cfg.n_beliefs, replace=False))]
        stages.append(stage)
    return stages, capped


# --------------------------------------------------------------------------
# Backups
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _BackupPlan:
    """What every point backup at one belief set reuses; built once per solve
    (once per stage for the finite horizon, whose stages share one P_T)."""
    beliefs: np.ndarray  # (nb, X)
    P_T: np.ndarray      # (A, X, X): P_T[a, y, x] = P[x, a, y]
    obs: list            # (support, z, live, weighted) per observation with any support


def _backup_plan(prod, beliefs, P_T: np.ndarray | None = None) -> _BackupPlan:
    """Lay out the predictions pred_a(b) = b P_a once.  Per observation o,
    ``support`` holds the states y with Z[y, o] > 0, ``z`` is Z there,
    ``live`` the rows b*A + a whose weighted prediction pred_a(b)[y] Z[y, o]
    has any mass and ``weighted`` those rows, Fortran-ordered as the product
    ``pred[:, support] * z`` comes out: BLAS rounds a matmul by its operands'
    layout, and a C-ordered copy moves scores by an ulp and flips ties."""
    X, A = prod.n_states, prod.n_actions
    pred = (beliefs @ prod.P.reshape(X, A * X)).reshape(-1, X)  # row b*A + a is pred_a(b)
    obs = []
    for o in range(prod.n_observations):
        support = np.nonzero(prod.Z[:, o] > 0)[0]
        if support.size:
            z = prod.Z[support, o]
            weighted = pred[:, support] * z
            live = np.nonzero(weighted.any(axis=1))[0]
            obs.append((support, z, live, np.asfortranarray(weighted[live])))
    if P_T is None:
        P_T = np.ascontiguousarray(prod.P.transpose(1, 2, 0))
    return _BackupPlan(beliefs, P_T, obs)


def _point_backup(plan: _BackupPlan, reward, gamma, mat):
    """One point-based backup at every belief of the plan against the alpha
    set ``mat``.

    Returns (new_mat, new_acts) where row b is the backed-up vector chosen
    for beliefs[b], the one of highest value there.

    For each (belief b, action a, observation o) the best alpha maximizes
    sum_y pred_a(b)[y] Z[y, o] alpha[y], with pred_a(b) = b P_a; only the
    states y with Z[y, o] > 0 enter, and ties go to the lowest alpha index,
    so a triple without mass takes alpha 0 unscored.  The chosen alphas fold
    into H_a[b, y] = sum_o Z[y, o] alpha_best(b, a, o)[y], and the backed-up
    vector is reward[:, a] + gamma * P_a H_a[b].  The plan costs
    O(A nb X^2) once for nb beliefs.  A round against n alphas costs
    O(live n) to score, with live the support sizes summed over the (b, a, o)
    triples with mass, plus O(A nb X^2) for H @ P_T.
    """
    beliefs = plan.beliefs
    nb, X = beliefs.shape
    A = plan.P_T.shape[0]
    HT = np.zeros((X, nb * A))  # HT[y, b*A + a] = H_a[b, y]
    for support, z, live, weighted in plan.obs:
        alphas = mat[:, support]
        best = np.zeros(nb * A, dtype=np.intp)
        best[live] = (weighted @ alphas.T).argmax(axis=1)  # ties -> lowest index
        HT[support] += (alphas.T * z[:, None]).take(best, axis=1)
    H = np.ascontiguousarray(HT.T).reshape(nb, A, X).transpose(1, 0, 2)
    vecs = H @ plan.P_T  # (A, nb, X)
    vecs *= gamma
    vecs += reward.T[:, None, :]
    value_per_action = (vecs * beliefs).sum(axis=2)
    choice = value_per_action.argmax(axis=0)  # (nb,), ties -> lowest action
    rows = np.arange(nb)
    return vecs[choice, rows], choice.astype(np.int64)


def _winners(beliefs, mat, acts):
    """Keep exactly the vectors that attain the max at some belief point.

    Returns (mat, acts, values) with values[b] the max at beliefs[b]; ties
    go to the lowest vector index.
    """
    vals = beliefs @ mat.T
    winners = vals.argmax(axis=1)
    keep = np.unique(winners)
    return mat[keep], acts[keep], vals[np.arange(len(beliefs)), winners]


def solve_discounted(prod, reward, gamma: float, cfg: SolverConfig, beliefs: np.ndarray,
                     warm_start: tuple[np.ndarray, np.ndarray] | None = None) -> AlphaPolicy:
    """Discounted-infinite-horizon PBVI at the (nb, X) belief set
    ``beliefs``; returns a stationary alpha policy.

    On hitting the round budget before the tolerance, returns the
    best-so-far policy flagged converged=False rather than raising.
    ``warm_start`` may carry (matrix, actions) of valid lower-bound vectors
    from a related solve; the uniform floor vector is always included.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("discounted solver needs 0 < gamma < 1")
    reward = _reward_map(prod, reward)
    floor = reward.min() / (1.0 - gamma)
    mat = np.full((1, prod.n_states), floor)
    acts = np.zeros(1, dtype=np.int64)
    if warm_start is not None:
        mat = np.vstack([mat, warm_start[0]])
        acts = np.concatenate([acts, np.asarray(warm_start[1], dtype=np.int64)])
    mat, acts, point_values = _winners(beliefs, mat, acts)
    plan = _backup_plan(prod, beliefs)
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_backup_rounds + 1):
        new_mat, new_acts = _point_backup(plan, reward, gamma, mat)
        mat, acts, new_values = _winners(beliefs, np.vstack([mat, new_mat]),
                                         np.concatenate([acts, new_acts]))
        delta = float(np.max(new_values - point_values))
        point_values = new_values
        if delta < cfg.bellman_tolerance:
            converged = True
            break
    return AlphaPolicy(mat, acts, converged=converged, stats={"rounds": rounds, "beliefs": beliefs})


def solve_finite_horizon(prod, reward, T: int, cfg: SolverConfig,
                         terminal: np.ndarray | None = None) -> TimeIndexedPolicy:
    """Backward induction with point-based per-stage belief sets.

    Stage-T vectors are reward(.,a) plus the expected terminal channel; the
    returned policy holds one stage per t = 0..T.  Backups run at the belief
    sets of times 0..T-1 only, so those are the ones expanded, and the policy
    is flagged converged unless one of them was capped.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    reward = _reward_map(prod, reward)
    X, A = prod.n_states, prod.n_actions
    terminal = np.zeros(X) if terminal is None else np.asarray(terminal, dtype=np.float64)
    stages, capped = expand_stage_beliefs(prod, max(T - 1, 0), cfg)

    policy = [None] * (T + 1)
    policy[T] = AlphaPolicy(np.stack([reward[:, a] + prod.P[:, a, :] @ terminal for a in range(A)]),
                            np.arange(A))
    plan = None
    for t in range(T - 1, -1, -1):
        plan = _backup_plan(prod, stages[t], None if plan is None else plan.P_T)
        new_mat, new_acts = _point_backup(plan, reward, 1.0, policy[t + 1].alphas)
        mat, acts, _ = _winners(stages[t], new_mat, new_acts)
        policy[t] = AlphaPolicy(mat, acts)
    return TimeIndexedPolicy(policy, not capped, {"points": sum(map(len, stages[:T]))})


def exact_value_oracle(prod, reward, T: int, terminal: np.ndarray | None = None) -> float:
    """Exact optimal expected total reward by full history-tree recursion.

    Guarded against instances whose (|A| * |O|)^T tree exceeds ORACLE_MAX_TREE.
    Independent of the alpha-vector machinery above.
    """
    X, A, O = prod.n_states, prod.n_actions, prod.n_observations
    if (A * O) ** T > ORACLE_MAX_TREE:
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


def _integer(value, where: str) -> int:
    """A JSON integer (not a bool or a float), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _vectors_from_list(vectors: list, **kwargs) -> AlphaPolicy:
    values = [v["values"] for v in vectors]
    if not all(json_list(row, (int, float)) for row in values):
        raise ValueError("alpha vector values must be lists of JSON numbers")
    return AlphaPolicy(np.array(values, dtype=np.float64),
                       [_integer(v["action"], "an alpha vector's action") for v in vectors],
                       **kwargs)


def policy_to_dict(policy) -> dict:
    doc = {"kind": policy.kind, "n_states": policy.n_states, "converged": policy.converged}
    if policy.kind == "stationary":
        doc["alphas"] = _vectors_to_list(policy)
    else:
        doc["horizon"] = policy.horizon
        doc["alphas"] = [_vectors_to_list(stage) for stage in policy]
    return doc


def policy_from_dict(doc: dict):
    """The policy a policy file holds; ValueError when the file is inconsistent."""
    kind = doc["kind"]
    converged = doc.get("converged", True)
    if type(converged) is not bool:
        raise ValueError(f"converged must be true or false, got {converged!r}")
    n_states = _integer(doc["n_states"], "n_states")
    if kind == "stationary":
        policy = _vectors_from_list(doc["alphas"], converged=converged)
    elif kind == "time_indexed":
        policy = TimeIndexedPolicy([_vectors_from_list(stage) for stage in doc["alphas"]],
                                   converged=converged)
        if _integer(doc.get("horizon"), "horizon") != policy.horizon:
            raise ValueError(f"horizon {doc.get('horizon')!r} but {len(policy)} stages")
    else:
        raise ValueError(f"unknown policy kind {kind!r}")
    if n_states != policy.n_states:
        raise ValueError(f"n_states {n_states} but alpha vectors of length {policy.n_states}")
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
    write_json(path, policy_to_dict(policy), indent=None)


def load_policy(path):
    return policy_from_dict(read_json(path, ValueError, "policy"))
