import numpy as np
import pytest

from ltlfplan.benchmarks import (
    CSV_COLUMNS, PRESETS, SPEC_STRINGS, build_instance, chain3, grid_spec, make_model,
    make_spec, random_tiny_model, render_trajectory_ascii, run_experiment, trajectory_table,
    twostate_constrained,
)
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import parse_formula
from ltlfplan.pbvi import SolverConfig
from ltlfplan.pomdp import RandomPolicy, derive_seed, sample_trajectory
from ltlfplan.product import build_product, constrained_product


def test_make_spec_strings():
    assert make_spec("phi1") == "F a & G !b"
    assert make_spec("phi4") == "!b U (a & F b)"
    with pytest.raises(KeyError):
        make_spec("phi7")


@pytest.mark.parametrize("name,size", [("phi1", 3), ("phi3", 4), ("phi6", 10)])
def test_spec_dfa_sizes(name, size):
    d = compile_minimal_dfa(parse_formula(make_spec(name)))
    assert d.n_states == size


def test_m1_structure():
    m = make_model("M1")
    assert m.n_states == 16
    assert m.n_actions == 5
    labels = m.label_sets()
    assert labels[m.states.index("(1,2)")] == frozenset({"b"})
    assert labels[m.states.index("(3,3)")] == frozenset({"a"})
    assert sum(1 for l in labels if l) == 2
    # per-step rewards carry the (1 - gamma) unit
    assert m.rewards[m.states.index("(0,3)"), 0] == pytest.approx(2.0 * 0.01)
    assert m.rewards[m.states.index("(3,3)"), 0] == pytest.approx(1.0 * 0.01)
    assert m.stopping.gamma == 0.99


def test_m2_and_m8_sizes():
    assert make_model("M2").n_states == 64
    assert make_model("M8").n_states == 32
    assert make_model("M9").n_states == 32


def test_all_models_validate():
    for name in PRESETS:
        model = make_model(name)
        model.validate()
        assert np.allclose(model.P.sum(axis=2), 1.0, atol=1e-12)
        assert np.allclose(model.Z.sum(axis=1), 1.0, atol=1e-12)


def test_stochastic_motion_interior_masses():
    m = make_model("M1")
    idx = m.states.index("(1,1)")
    north = m.actions.index("north")
    row = m.P[idx, north]
    assert row[m.states.index("(1,2)")] == pytest.approx(0.95 + 0.05 / 3)
    assert row[m.states.index("(2,1)")] == pytest.approx(0.05 / 3)
    assert row[m.states.index("(0,1)")] == pytest.approx(0.05 / 3)
    assert row[m.states.index("(1,0)")] == 0.0  # never the opposite direction
    stay = m.actions.index("stay")
    assert m.P[idx, stay, idx] == 1.0


def test_stochastic_motion_boundary_stays_in_grid():
    m = make_model("M1")
    corner = m.states.index("(0,0)")
    west = m.actions.index("west")
    row = m.P[corner, west]
    assert row.sum() == pytest.approx(1.0)
    # intended west and lateral south both fall off and stay in place
    assert row[corner] == pytest.approx(0.95 + 2 * 0.05 / 3)
    assert row[m.states.index("(0,1)")] == pytest.approx(0.05 / 3)


def test_noisy_location_channel_excludes_self():
    m = make_model("M1")
    corner = m.states.index("(0,0)")
    row = m.Z[corner]
    assert row[corner] == 0.0
    assert row[m.states.index("(1,0)")] == pytest.approx(0.5)
    assert row[m.states.index("(0,1)")] == pytest.approx(0.5)
    interior = m.states.index("(2,2)")
    assert np.count_nonzero(m.Z[interior]) == 4
    assert m.Z[interior].max() == pytest.approx(0.25)


def test_proximity_observation_channel():
    m = make_model("M8")
    spec = grid_spec("M8")
    close = m.observations.index("C")
    far = m.observations.index("F")
    for x in range(4):
        for y in range(4):
            for h, (obj, p_close) in enumerate(zip(spec.object_cells, spec.close_probs)):
                s = m.states.index(f"({x},{y})|obj{h}")
                dist = abs(x - obj[0]) + abs(y - obj[1])
                if dist > 1:
                    assert m.Z[s, far] == 1.0
                else:
                    assert m.Z[s, close] == pytest.approx(p_close)


def test_proximity_labels_track_hypothesis():
    m = make_model("M9")
    labels = m.label_sets()
    assert labels[m.states.index("(3,0)|obj0")] == frozenset({"b"})
    assert labels[m.states.index("(3,0)|obj1")] == frozenset()
    assert labels[m.states.index("(3,3)|obj0")] == frozenset({"a"})
    # deterministic motion
    north = m.actions.index("north")
    s = m.states.index("(1,1)|obj0")
    assert m.P[s, north, m.states.index("(1,2)|obj0")] == 1.0


def test_model_overrides():
    m = make_model("M1", rewards={(0, 3): 4.0})
    assert m.rewards[m.states.index("(0,3)"), 0] == pytest.approx(0.04)
    with pytest.raises(ValueError):
        make_model("M1", labels={(9, 9): ("a",)})


def test_presets_match_reported_hyperparameters():
    p = PRESETS["M1"]
    assert (p.spec, p.threshold, p.B, p.K, p.simu) == ("phi1", 0.75, 5.0, 100, 200)
    p7 = PRESETS["M7"]
    assert (p7.B, p7.K, p7.simu) == (25.0, 50, 100)
    assert PRESETS["M8"].eta == 0.02
    assert PRESETS["M9"].eta == 0.2
    assert set(PRESETS) == set(f"M{i}" for i in range(1, 10))


def test_build_instance_prunes():
    model, dfa, prod = build_instance("M1")
    assert model.n_states * dfa.n_states >= prod.n_states
    assert prod.n_states > 0


def test_trajectory_table_and_ascii():
    model, dfa, prod = build_instance("M1")
    traj = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=2), seed=derive_seed(8))
    rows = trajectory_table(prod, traj)
    assert [r["t"] for r in rows] == list(range(len(traj)))
    assert rows[0]["q"] == dfa.initial
    assert rows[0]["s"] == "(0,0)"
    art = render_trajectory_ascii(prod, traj)
    assert "t=0" in art and ("@" in art or "A" in art or "B" in art)


TABLE_PRODUCTS = {
    # pruning renumbers the product states of M7/phi6
    "m7_phi6": lambda: build_instance("M7")[2],
    "tiny_fixed_horizon": lambda: constrained_product(
        random_tiny_model(5, n_states=3, n_actions=2, n_obs=2, horizon=12, n_atoms=2), "a U b"),
}


@pytest.mark.parametrize("name", sorted(TABLE_PRODUCTS))
def test_trajectory_table_q_is_the_dfa_run_of_each_prefix(name):
    prod = TABLE_PRODUCTS[name]()
    base, dfa = prod.base, prod.dfa
    if name == "m7_phi6":
        assert prod.n_states < base.n_states * dfa.n_states
    for i in range(20):
        traj = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=i), seed=derive_seed(9, i))
        rows = trajectory_table(prod, traj)
        base_states = [base.states.index(r["s"]) for r in rows]
        assert [r["q"] for r in rows] == [dfa.run(base.labels[base_states[:t]])
                                          for t in range(len(rows))]


def test_run_experiment_smoke():
    cfg = SolverConfig(n_beliefs=40, max_backup_rounds=60, bellman_tolerance=5e-3)
    row, result, prod = run_experiment("M1", K=2, simu=40, seed=1, cfg=cfg, eval_rollouts=60)
    assert [c for c in CSV_COLUMNS if c not in row] == []
    assert row["S"] == 16 and row["Q"] == 3
    assert row["K"] == 2 and row["simu"] == 40
    assert 0.0 <= row["p_hat"] <= 1.0
    assert row["t_total_s"] > 0
    assert len(result.records) == 2


def test_bundled_instances_validate():
    for model, spec in (chain3(), twostate_constrained()):
        model.validate()
        dfa = compile_minimal_dfa(parse_formula(spec), atoms=model.atoms)
        build_product(model, dfa).validate()
