"""Gridworld benchmark models M1-M9, task specs phi1-phi6, and experiment presets.

A grid is a six-field table entry (``GridSpec``) and one builder
(``build_grid_model``) makes every model from it.  Coordinates are (col, row)
with (0,0) at the bottom-left; the agent starts at ``START`` = (0,0) in every
model.  A grid without hidden objects has stochastic motion: the intended
move with probability ``P_INTEND`` = 0.95, otherwise uniformly over the three
directions not opposite to it (the intended one included); off-grid moves
stay in place, and the dedicated stay action is exact.  Its noisy location
channel reports a uniform in-grid orthogonal neighbor of the true cell.  A
grid with hidden objects (M8, M9) has deterministic motion and one hypothesis
per candidate cell, with a uniform prior; the object carries the atom
``OBJECT_ATOM`` = 'b', and a far/close sensor reports 'F' with probability 1
beyond Manhattan distance 1 of the hypothesised cell, else 'C' with that
candidate's detection probability.

Per-step cell rewards are the tabulated values scaled by (1 - ``GAMMA``),
``GAMMA`` = 0.99 being the geometric stopping discount, so that cumulative
returns under geometric stopping land on the tabulated scale; without the
scaling no bounded multiplier could trade reward against constraint
satisfaction.  Letter-cell positions not fixed by the model descriptions are
``GRIDS`` entries; a variant grid is ``dataclasses.replace`` of one.

The module also bundles the small verification instances used by the test
suite (a 3-state chain, a fully observable 2-state constrained MDP, and
seeded random tiny POMDPs).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np

from .pbvi import SolverConfig
from .planner import ConstrainedProblem, eg_solve, mc_evaluate
from .pomdp import LabeledPomdp, StoppingModel, derive_seed, make_rng
from .product import ProductPomdp, constrained_product

SPEC_STRINGS = {
    "phi1": "F a & G !b",
    "phi2": "F (a & F b)",
    "phi3": "F (a & F (b & F c))",
    "phi4": "!b U (a & F b)",
    # eventually reach a or b; visiting b commits to reaching c while avoiding d
    "phi5": "F (a | b) & G (b -> (!d U c))",
    # the paper's aXb shorthand is read as a & X b (documented choice)
    "phi6": "F a & G ((a & X b -> F c) & (a & X !b -> F d))",
}

GAMMA = 0.99
P_INTEND = 0.95
START = (0, 0)
OBJECT_ATOM = "b"

ACTIONS = ("north", "south", "east", "west", "stay")
_MOVES = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}
_LATERAL = {
    "north": ("north", "east", "west"),
    "south": ("south", "east", "west"),
    "east": ("east", "north", "south"),
    "west": ("west", "north", "south"),
}


def make_spec(name: str) -> str:
    if name not in SPEC_STRINGS:
        raise KeyError(f"unknown spec {name!r}; choose from {sorted(SPEC_STRINGS)}")
    return SPEC_STRINGS[name]


@dataclass(frozen=True)
class GridSpec:
    name: str
    width: int
    height: int
    labels: dict                # (x, y) -> tuple of atom names
    rewards: dict               # (x, y) -> tabulated per-step value
    objects: tuple = ()         # ((x, y), P('C' | adjacent)) per hidden-object candidate


def _motion(cells, index, p_intend: float) -> np.ndarray:
    """(C, A, C) cell motion; p_intend = 1 is deterministic."""
    slip = (1.0 - p_intend) / 3.0
    M = np.zeros((len(cells), len(ACTIONS), len(cells)))
    for c, (x, y) in enumerate(cells):
        M[c, ACTIONS.index("stay"), c] = 1.0
        for a, action in enumerate(ACTIONS[:-1]):
            for direction in _LATERAL[action]:
                dx, dy = _MOVES[direction]
                M[c, a, index.get((x + dx, y + dy), c)] += \
                    p_intend + slip if direction == action else slip
    return M


def build_grid_model(spec: GridSpec) -> LabeledPomdp:
    """States are cells x hypotheses (one hypothesis per object candidate, one
    when there are none); only Z and the state names depend on the channel."""
    cells = [(x, y) for y in range(spec.height) for x in range(spec.width)]
    index = {cell: i for i, cell in enumerate(cells)}
    object_cells = [cell for cell, _ in spec.objects]
    for cell in [*spec.labels, *spec.rewards, *object_cells, START]:
        if cell not in index:
            raise ValueError(f"cell {cell} outside the {spec.width}x{spec.height} grid of {spec.name}")
    C, H = len(cells), max(1, len(spec.objects))
    atoms = tuple(sorted({name for names in spec.labels.values() for name in names}
                         | ({OBJECT_ATOM} if spec.objects else set())))
    bit = {name: 1 << i for i, name in enumerate(atoms)}

    # per-cell rows, repeated over hypotheses
    cell_labels = np.array([sum(bit[n] for n in set(spec.labels.get(cell, ()))) for cell in cells])
    cell_rewards = np.zeros(C)
    for cell, value in spec.rewards.items():
        cell_rewards[index[cell]] = value * (1.0 - GAMMA)
    at_start = np.zeros(C)
    at_start[index[START]] = 1.0
    labels = np.repeat(cell_labels, H)
    for h, cell in enumerate(object_cells):
        labels[index[cell] * H + h] |= bit[OBJECT_ATOM]
    rewards = np.repeat(cell_rewards, H)[:, None] * np.ones(len(ACTIONS))
    varpi = np.repeat(at_start, H) / H
    M = _motion(cells, index, 1.0 if spec.objects else P_INTEND)
    P = np.einsum("cat,hk->chatk", M, np.eye(H)).reshape(C * H, len(ACTIONS), C * H)

    if spec.objects:
        states = [f"({x},{y})|obj{h}" for x, y in cells for h in range(H)]
        observations = ["F", "C"]
        Z = np.zeros((C * H, 2))
        for c, (x, y) in enumerate(cells):
            for h, ((ox, oy), p_close) in enumerate(spec.objects):
                close = p_close if abs(x - ox) + abs(y - oy) <= 1 else 0.0
                Z[c * H + h] = (1.0 - close, close)
    else:
        states = [f"({x},{y})" for x, y in cells]
        observations = list(states)
        Z = np.zeros((C, C))
        for c, (x, y) in enumerate(cells):
            near = [index[n] for n in ((x, y + 1), (x, y - 1), (x + 1, y), (x - 1, y)) if n in index]
            Z[c, near] = 1.0 / len(near)

    return LabeledPomdp(spec.name, states, list(ACTIONS), observations, P, Z, varpi,
                        atoms, labels, rewards, StoppingModel.geometric(GAMMA))


# M8 and M9 hide the object at one of two corners, detected from an adjacent cell
# with probability 0.9 at (3, 0) and 0.1 at (0, 3)
_PROXIMITY = (((3, 0), 0.9), ((0, 3), 0.1))
GRIDS = {
    "M1": GridSpec("M1", 4, 4, {(1, 2): ("b",), (3, 3): ("a",)}, {(0, 3): 2.0, (3, 3): 1.0}),
    "M2": GridSpec("M2", 8, 8, {(7, 7): ("a",), (4, 4): ("b",), (2, 6): ("b",)},
                   {(1, 6): 3.0, (4, 3): 3.0, (7, 7): 1.0}),
    "M3": GridSpec("M3", 4, 4, {(3, 0): ("a",), (3, 3): ("b",)}, {(3, 3): 1.0}),
    "M4": GridSpec("M4", 4, 4, {(3, 0): ("a",), (0, 3): ("b",), (3, 3): ("c",)}, {(3, 3): 1.0}),
    "M5": GridSpec("M5", 4, 4, {(3, 0): ("a",), (3, 3): ("b",)}, {(3, 3): 1.0}),
    "M6": GridSpec("M6", 4, 4, {(3, 0): ("a",), (3, 3): ("b",), (0, 3): ("c",), (2, 3): ("d",)},
                   {(3, 0): 1.0, (3, 3): 2.0}),
    "M7": GridSpec("M7", 4, 4, {(2, 0): ("a",), (2, 1): ("b",), (3, 0): ("c",), (0, 3): ("d",)},
                   {(3, 0): 5.0, (0, 3): 2.0}),
    "M8": GridSpec("M8", 4, 4, {(3, 3): ("a",)}, {(3, 0): 2.0, (0, 3): 4.0}, _PROXIMITY),
    "M9": GridSpec("M9", 4, 4, {(3, 3): ("a",)}, {(0, 0): 2.0}, _PROXIMITY),
}
MODEL_NAMES = tuple(GRIDS)


def make_model(name: str) -> LabeledPomdp:
    """Build one of M1-M9; a variant is build_grid_model(replace(GRIDS[name], ...))."""
    if name not in GRIDS:
        raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    return build_grid_model(GRIDS[name])


# --------------------------------------------------------------------------
# Experiment presets (hyper-parameters of the reported runs)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    model: str
    spec: str
    threshold: float
    B: float
    eta: float
    K: int
    simu: int


PRESETS = {
    "M1": Preset("M1", "phi1", 0.75, 5.0, 2.0, 100, 200),
    "M2": Preset("M2", "phi1", 0.70, 8.0, 2.0, 50, 100),
    "M3": Preset("M3", "phi2", 0.75, 5.0, 2.0, 100, 200),
    "M4": Preset("M4", "phi3", 0.70, 6.0, 2.0, 100, 200),
    "M5": Preset("M5", "phi4", 0.70, 6.0, 2.0, 100, 200),
    "M6": Preset("M6", "phi5", 0.80, 10.0, 2.0, 100, 200),
    "M7": Preset("M7", "phi6", 0.80, 25.0, 2.0, 50, 100),
    "M8": Preset("M8", "phi1", 0.85, 20.0, 0.02, 100, 200),
    "M9": Preset("M9", "phi4", 0.75, 10.0, 0.2, 100, 200),
}

CSV_COLUMNS = ["model", "spec", "S", "Q", "r_hat", "p_hat", "threshold", "B", "eta",
               "K", "simu", "seed", "t_solve_s", "t_simu_s", "t_total_s", "error"]


def build_instance(model_name: str) -> ProductPomdp:
    """The pruned product of a preset row; its model and DFA are ``base`` and ``dfa``."""
    return constrained_product(make_model(model_name), make_spec(PRESETS[model_name].spec))


def run_experiment(model_name: str, *, K: int | None = None, simu: int | None = None,
                   seed: int = 0, cfg: SolverConfig | None = None, eval_rollouts: int = 200):
    """One benchmark row: compile, build product, EG-solve, evaluate the mixture.

    Returns (row dict in CSV_COLUMNS layout, EGResult, product).
    """
    preset = PRESETS[model_name]
    t0 = time.perf_counter()
    prod = build_instance(model_name)
    problem = ConstrainedProblem(
        product=prod,
        threshold=preset.threshold,
        B=preset.B,
        K=preset.K if K is None else K,
        eta=preset.eta,
        simu=preset.simu if simu is None else simu,
        base_seed=seed,
    )
    cfg = cfg or SolverConfig(expansion_seed=seed)
    result = eg_solve(problem, cfg)
    tic = time.perf_counter()
    final = mc_evaluate(result.mixture, prod, eval_rollouts,
                        seed=derive_seed(problem.base_seed, 0xE7A1))
    t_eval = time.perf_counter() - tic
    row = {
        "model": model_name, "spec": preset.spec,
        "S": prod.base.n_states, "Q": prod.dfa.n_states,
        "r_hat": final.r_hat, "p_hat": final.p_hat,
        "threshold": problem.threshold, "B": problem.B, "eta": result.eta,
        "K": problem.K, "simu": problem.simu, "seed": seed,
        "t_solve_s": result.timings["t_solve_s"],
        "t_simu_s": result.timings["t_simu_s"] + t_eval,
        "t_total_s": time.perf_counter() - t0,
        "error": "",
    }
    return row, result, prod


# --------------------------------------------------------------------------
# Trajectory dumps
# --------------------------------------------------------------------------

def trajectory_table(prod: ProductPomdp, traj) -> list[dict]:
    """Rows (t, s, q, a, o, r) for a trajectory simulated on the product;
    s and q are the components of the product state at t."""
    rows = []
    for t, (s, q) in enumerate(prod.pairs[traj.states].tolist()):
        rows.append({
            "t": t,
            "s": prod.base.states[s],
            "q": q,
            "a": prod.actions[int(traj.actions[t])],
            "o": prod.observations[int(traj.observations[t])],
            "r": float(traj.rewards[t]),
        })
    return rows


def render_trajectory_ascii(prod: ProductPomdp, traj) -> str:
    """ASCII grid frames for gridworld state names of the form "(x,y)...".

    Letter cells are shown lowercase, the agent as '@' (uppercase letter when
    on a labeled cell); non-grid models fall back to the tabular dump.
    """
    coords = []
    for name in prod.base.states:
        m = re.match(r"\((\d+),(\d+)\)", name)
        if not m:
            coords = None
            break
        coords.append((int(m.group(1)), int(m.group(2))))
    rows = trajectory_table(prod, traj)
    if coords is None:
        return "\n".join(f"t={r['t']} s={r['s']} q={r['q']} a={r['a']} o={r['o']} r={r['r']:g}"
                         for r in rows)
    width = max(x for x, _ in coords) + 1
    height = max(y for _, y in coords) + 1
    labels = prod.base.label_sets()
    cell_letter = {cell: min(labels[idx]) for idx, cell in enumerate(coords) if labels[idx]}
    frames = []
    for r, s in zip(rows, prod.base_run(traj)):
        ax, ay = coords[int(s)]
        lines = [f"t={r['t']} q={r['q']} a={r['a']} r={r['r']:g}"]
        for y in range(height - 1, -1, -1):
            line = [cell_letter.get((x, y), ".") for x in range(width)]
            if y == ay:
                line[ax] = line[ax].upper() if line[ax] != "." else "@"
            lines.append(" ".join(line))
        frames.append("\n".join(lines))
    return "\n\n".join(frames)


# --------------------------------------------------------------------------
# Bundled tiny verification instances
# --------------------------------------------------------------------------

def chain3(gamma: float = 0.9):
    """Drifting 3-state chain with an absorbing labeled end state; spec F a."""
    P = np.zeros((3, 1, 3))
    P[0, 0] = (0.5, 0.5, 0.0)
    P[1, 0] = (0.0, 0.5, 0.5)
    P[2, 0] = (0.0, 0.0, 1.0)
    Z = np.ones((3, 1))
    model = LabeledPomdp("chain3", ["c0", "c1", "c2"], ["go"], ["tick"],
                         P, Z, np.array([1.0, 0.0, 0.0]), ("a",),
                         np.array([0, 0, 1]), np.zeros((3, 1)),
                         StoppingModel.geometric(gamma))
    return model, "F a"


def twostate_constrained(gamma: float = 0.9):
    """Fully observable 2-state/2-action constrained MDP; spec F g.

    Staying home farms reward but never satisfies F g; going visits the goal
    at the price of the travel steps.  Small enough for exact pure-policy
    evaluation and LP mixing in tests.
    """
    states = ["home", "goal"]
    P = np.zeros((2, 2, 2))
    P[0, 0] = (1.0, 0.0)   # stay
    P[1, 0] = (0.0, 1.0)
    P[0, 1] = (0.0, 1.0)   # go
    P[1, 1] = (1.0, 0.0)
    Z = np.eye(2)
    rewards = np.zeros((2, 2))
    rewards[0, 0] = 0.3
    model = LabeledPomdp("twostate", states, ["stay", "go"], states, P, Z,
                         np.array([1.0, 0.0]), ("g",), np.array([0, 1]), rewards,
                         StoppingModel.geometric(gamma))
    return model, "F g"


def accepting_sink_instance(gamma: float = 0.5):
    """Two-state drift into an absorbing cell whose label accepts immediately;
    closed-form check for the scalarization identity (value equals lam)."""
    P = np.zeros((2, 1, 2))
    P[0, 0] = (0.0, 1.0)
    P[1, 0] = (0.0, 1.0)
    Z = np.ones((2, 1))
    model = LabeledPomdp("sink", ["s0", "s1"], ["go"], ["tick"], P, Z,
                         np.array([1.0, 0.0]), ("a",), np.array([1, 1]),
                         np.zeros((2, 1)), StoppingModel.geometric(gamma))
    return model, "F a"


def random_tiny_model(seed: int, n_states: int = 2, n_actions: int = 2, n_obs: int = 2,
                      horizon: int = 2, n_atoms: int = 1) -> LabeledPomdp:
    """Seeded dense random POMDP with fixed-horizon stopping (test fodder)."""
    rng = make_rng(seed)

    def rows(*shape):
        raw = rng.random(shape) + 0.05
        return raw / raw.sum(axis=-1, keepdims=True)

    atoms = tuple("ab"[:n_atoms])
    return LabeledPomdp(
        f"tiny{seed}",
        [f"s{i}" for i in range(n_states)],
        [f"a{i}" for i in range(n_actions)],
        [f"o{i}" for i in range(n_obs)],
        rows(n_states, n_actions, n_states),
        rows(n_states, n_obs),
        rows(n_states),
        atoms,
        rng.integers(0, 1 << n_atoms, size=n_states),
        np.round(rng.random((n_states, n_actions)), 3),
        StoppingModel.fixed(horizon),
    )


def coupling_suite():
    """Five bundled (model, spec) pairs for pathwise product-coupling checks."""
    suite = [
        (make_model("M1"), make_spec("phi1")),
        (make_model("M8"), make_spec("phi1")),
        chain3(0.9),
        twostate_constrained(0.9),
    ]
    tiny = random_tiny_model(12345, n_states=3, n_actions=2, n_obs=2, horizon=6, n_atoms=2)
    suite.append((tiny, "a U b"))
    return suite
