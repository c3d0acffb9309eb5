"""Gridworld benchmark models M1-M9, task specs phi1-phi6, and experiment presets.

Coordinates are (col, row) with (0,0) at the bottom-left; the agent starts at
(0,0) in every model.  Stochastic motion moves in the intended direction with
probability 0.95 and otherwise uniformly over the three directions not
opposite to it (the intended one included); off-grid moves stay in place; the
dedicated stay action is exact.  The noisy location channel reports a uniform
in-grid orthogonal neighbor of the true cell.  Proximity models (M8, M9) have
deterministic motion, a hidden object at one of two candidate cells with a
uniform prior, and a far/close sensor: 'F' with probability 1 beyond
Manhattan distance 1, else 'C' with the candidate's detection probability.

Per-step cell rewards are the tabulated values scaled by (1 - gamma) so that
cumulative returns under geometric stopping land on the tabulated scale;
without the scaling no bounded multiplier could trade reward against
constraint satisfaction.  Letter-cell positions not fixed by the model
descriptions are module defaults and can be overridden per call.

The module also bundles the small verification instances used by the test
suite (a 3-state chain, a fully observable 2-state constrained MDP, and
seeded random tiny POMDPs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

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

MODEL_NAMES = tuple(f"M{i}" for i in range(1, 10))

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


@dataclass
class GridSpec:
    name: str
    width: int
    height: int
    labels: dict = field(default_factory=dict)       # (x, y) -> tuple of atom names
    rewards: dict = field(default_factory=dict)      # (x, y) -> tabulated per-step value
    motion: str = "stochastic"
    p_intend: float = 0.95
    observation: str = "noisy_location"
    object_atom: str = "b"
    object_cells: tuple = ()                          # proximity candidates
    close_probs: tuple = ()                           # P('C' | adjacent) per candidate
    start: tuple = (0, 0)
    gamma: float = 0.99

    def cells(self):
        return [(x, y) for y in range(self.height) for x in range(self.width)]

    def cell_index(self, cell) -> int:
        x, y = cell
        return y * self.width + x

    def in_grid(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height


def _check_cells(spec: GridSpec):
    for cell in list(spec.labels) + list(spec.rewards) + list(spec.object_cells) + [spec.start]:
        if not spec.in_grid(cell):
            raise ValueError(f"cell {cell} outside the {spec.width}x{spec.height} grid of {spec.name}")


def _motion_row(spec: GridSpec, cell, action: str, index) -> np.ndarray:
    row = np.zeros(len(index))

    def land(target, mass):
        row[index[target if spec.in_grid(target) else cell]] += mass

    if action == "stay":
        row[index[cell]] = 1.0
        return row
    x, y = cell
    if spec.motion == "deterministic":
        dx, dy = _MOVES[action]
        land((x + dx, y + dy), 1.0)
        return row
    slip = (1.0 - spec.p_intend) / 3.0
    for direction in _LATERAL[action]:
        dx, dy = _MOVES[direction]
        land((x + dx, y + dy), spec.p_intend + slip if direction == action else slip)
    return row


def _neighbor_obs_row(spec: GridSpec, cell, index) -> np.ndarray:
    x, y = cell
    neighbors = [c for c in ((x, y + 1), (x, y - 1), (x + 1, y), (x - 1, y)) if spec.in_grid(c)]
    row = np.zeros(len(index))
    for c in neighbors:
        row[index[c]] = 1.0 / len(neighbors)
    return row


def build_grid_model(spec: GridSpec) -> LabeledPomdp:
    _check_cells(spec)
    unit = 1.0 - spec.gamma
    cells = spec.cells()
    cell_index = {c: i for i, c in enumerate(cells)}
    atom_set = {spec.object_atom} if spec.observation == "proximity" else set()
    for names in spec.labels.values():
        atom_set.update(names)
    atoms = tuple(sorted(atom_set))
    atom_bit = {a: i for i, a in enumerate(atoms)}

    if spec.observation == "proximity":
        if len(spec.object_cells) != len(spec.close_probs) or not spec.object_cells:
            raise ValueError("proximity models need matching object_cells and close_probs")
        n_h = len(spec.object_cells)
        states = [f"({x},{y})|obj{h}" for (x, y) in cells for h in range(n_h)]
        observations = ["F", "C"]

        def state_id(cell, h):
            return cell_index[cell] * n_h + h

        S = len(states)
        P = np.zeros((S, len(ACTIONS), S))
        for cell in cells:
            for ai, action in enumerate(ACTIONS):
                base_row = _motion_row(spec, cell, action, cell_index)
                for h in range(n_h):
                    for tgt, mass in zip(cells, base_row):
                        if mass:
                            P[state_id(cell, h), ai, state_id(tgt, h)] += mass
        Z = np.zeros((S, 2))
        for cell in cells:
            for h, (obj, close_p) in enumerate(zip(spec.object_cells, spec.close_probs)):
                dist = abs(cell[0] - obj[0]) + abs(cell[1] - obj[1])
                p_close = close_p if dist <= 1 else 0.0
                Z[state_id(cell, h)] = (1.0 - p_close, p_close)
        varpi = np.zeros(S)
        for h in range(n_h):
            varpi[state_id(spec.start, h)] = 1.0 / n_h
        labels = np.zeros(S, dtype=np.int64)
        for cell in cells:
            for h in range(n_h):
                mask = 0
                for name in spec.labels.get(cell, ()):
                    mask |= 1 << atom_bit[name]
                if cell == spec.object_cells[h]:
                    mask |= 1 << atom_bit[spec.object_atom]
                labels[state_id(cell, h)] = mask
        rewards = np.zeros((S, len(ACTIONS)))
        for cell, value in spec.rewards.items():
            for h in range(n_h):
                rewards[state_id(cell, h), :] = value * unit
    else:
        states = [f"({x},{y})" for (x, y) in cells]
        observations = list(states)
        S = len(states)
        P = np.zeros((S, len(ACTIONS), S))
        for cell in cells:
            for ai, action in enumerate(ACTIONS):
                P[cell_index[cell], ai] = _motion_row(spec, cell, action, cell_index)
        Z = np.vstack([_neighbor_obs_row(spec, cell, cell_index) for cell in cells])
        varpi = np.zeros(S)
        varpi[cell_index[spec.start]] = 1.0
        labels = np.zeros(S, dtype=np.int64)
        for cell, names in spec.labels.items():
            mask = 0
            for name in names:
                mask |= 1 << atom_bit[name]
            labels[cell_index[cell]] = mask
        rewards = np.zeros((S, len(ACTIONS)))
        for cell, value in spec.rewards.items():
            rewards[cell_index[cell], :] = value * unit

    model = LabeledPomdp(spec.name, states, list(ACTIONS), observations, P, Z, varpi,
                         atoms, labels, rewards, StoppingModel.geometric(spec.gamma))
    model.validate()
    return model


def grid_spec(name: str) -> GridSpec:
    if name == "M1":
        return GridSpec("M1", 4, 4, labels={(1, 2): ("b",), (3, 3): ("a",)},
                        rewards={(0, 3): 2.0, (3, 3): 1.0})
    if name == "M2":
        return GridSpec("M2", 8, 8,
                        labels={(7, 7): ("a",), (4, 4): ("b",), (2, 6): ("b",)},
                        rewards={(1, 6): 3.0, (4, 3): 3.0, (7, 7): 1.0})
    if name == "M3":
        return GridSpec("M3", 4, 4, labels={(3, 0): ("a",), (3, 3): ("b",)},
                        rewards={(3, 3): 1.0})
    if name == "M4":
        return GridSpec("M4", 4, 4,
                        labels={(3, 0): ("a",), (0, 3): ("b",), (3, 3): ("c",)},
                        rewards={(3, 3): 1.0})
    if name == "M5":
        return GridSpec("M5", 4, 4, labels={(3, 0): ("a",), (3, 3): ("b",)},
                        rewards={(3, 3): 1.0})
    if name == "M6":
        return GridSpec("M6", 4, 4,
                        labels={(3, 0): ("a",), (3, 3): ("b",), (0, 3): ("c",), (2, 3): ("d",)},
                        rewards={(3, 0): 1.0, (3, 3): 2.0})
    if name == "M7":
        return GridSpec("M7", 4, 4,
                        labels={(2, 0): ("a",), (2, 1): ("b",), (3, 0): ("c",), (0, 3): ("d",)},
                        rewards={(3, 0): 5.0, (0, 3): 2.0})
    if name == "M8":
        return GridSpec("M8", 4, 4, labels={(3, 3): ("a",)},
                        rewards={(3, 0): 2.0, (0, 3): 4.0},
                        motion="deterministic", observation="proximity",
                        object_cells=((3, 0), (0, 3)), close_probs=(0.9, 0.1))
    if name == "M9":
        return GridSpec("M9", 4, 4, labels={(3, 3): ("a",)},
                        rewards={(0, 0): 2.0},
                        motion="deterministic", observation="proximity",
                        object_cells=((3, 0), (0, 3)), close_probs=(0.9, 0.1))
    raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def make_model(name: str, **overrides) -> LabeledPomdp:
    """Build one of M1-M9; keyword overrides replace GridSpec fields."""
    spec = grid_spec(name)
    if overrides:
        spec = replace(spec, **overrides)
    return build_grid_model(spec)


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


def build_instance(model_name: str, spec_name: str | None = None):
    """Model + compiled DFA + pruned product for a preset row."""
    model = make_model(model_name)
    prod = constrained_product(model, make_spec(spec_name or PRESETS[model_name].spec))
    return model, prod.dfa, prod


def run_experiment(model_name: str, spec_name: str | None = None, *, K: int | None = None,
                   simu: int | None = None, threshold: float | None = None,
                   B: float | None = None, eta: float | str | None = None,
                   seed: int = 0, cfg: SolverConfig | None = None,
                   eval_rollouts: int = 200):
    """One benchmark row: compile, build product, EG-solve, evaluate the mixture.

    Returns (row dict in CSV_COLUMNS layout, EGResult, product).
    """
    preset = PRESETS[model_name]
    spec_name = spec_name or preset.spec
    t0 = time.perf_counter()
    model, dfa, prod = build_instance(model_name, spec_name)
    problem = ConstrainedProblem(
        product=prod,
        threshold=preset.threshold if threshold is None else threshold,
        B=preset.B if B is None else B,
        K=preset.K if K is None else K,
        eta=preset.eta if eta is None else eta,
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
        "model": model_name, "spec": spec_name,
        "S": model.n_states, "Q": dfa.n_states,
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
    import re

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
    cell_letter = {}
    for idx, (x, y) in enumerate(coords):
        if labels[idx]:
            cell_letter[(x, y)] = sorted(labels[idx])[0]
    frames = []
    for r, s in zip(rows, prod.base_run(traj)):
        ax, ay = coords[int(s)]
        lines = [f"t={r['t']} q={r['q']} a={r['a']} r={r['r']:g}"]
        for y in range(height - 1, -1, -1):
            line = []
            for x in range(width):
                ch = cell_letter.get((x, y), ".")
                if (x, y) == (ax, ay):
                    ch = ch.upper() if ch != "." else "@"
                line.append(ch)
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
    model.validate()
    return model, "F a"


def twostate_constrained(gamma: float = 0.9, home_reward: float = 0.3):
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
    rewards[0, 0] = home_reward
    model = LabeledPomdp("twostate", states, ["stay", "go"], states, P, Z,
                         np.array([1.0, 0.0]), ("g",), np.array([0, 1]), rewards,
                         StoppingModel.geometric(gamma))
    model.validate()
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
    model.validate()
    return model, "F a"


def random_tiny_model(seed: int, n_states: int = 2, n_actions: int = 2, n_obs: int = 2,
                      horizon: int = 2, n_atoms: int = 1) -> LabeledPomdp:
    """Seeded dense random POMDP with fixed-horizon stopping (test fodder)."""
    rng = make_rng(seed)

    def rows(*shape):
        raw = rng.random(shape) + 0.05
        return raw / raw.sum(axis=-1, keepdims=True)

    atoms = tuple("ab"[:n_atoms])
    model = LabeledPomdp(
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
    model.validate()
    return model


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
