import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from ltlfplan.benchmarks import (
    CSV_COLUMNS, GRIDS, MODEL_NAMES, PRESETS, build_grid_model, build_instance, chain3, make_model,
    make_spec, random_tiny_model, render_trajectory_ascii, run_experiment, trajectory_table,
    twostate_constrained,
)
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import parse_formula
from ltlfplan.pbvi import SolverConfig
from ltlfplan.pomdp import RandomPolicy, derive_seed, model_to_dict, sample_trajectory
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
    close = m.observations.index("C")
    far = m.observations.index("F")
    for x in range(4):
        for y in range(4):
            for h, (obj, p_close) in enumerate(GRIDS["M8"].objects):
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
    m = build_grid_model(replace(GRIDS["M1"], rewards={(0, 3): 4.0}))
    assert m.rewards[m.states.index("(0,3)"), 0] == pytest.approx(0.04)
    with pytest.raises(ValueError):
        build_grid_model(replace(GRIDS["M1"], labels={(9, 9): ("a",)}))


def test_objects_choose_the_channel():
    """Objects, not the grid's name, pick motion and sensor."""
    m8 = build_grid_model(replace(GRIDS["M8"], objects=()))
    assert m8.n_states == 16
    assert m8.observations == m8.states == make_model("M1").states
    assert m8.atoms == ("a",)
    interior = m8.states.index("(2,2)")
    assert np.count_nonzero(m8.Z[interior]) == 4
    north = m8.actions.index("north")
    assert m8.P[interior, north, m8.states.index("(2,3)")] == pytest.approx(0.95 + 0.05 / 3)
    m1 = build_grid_model(replace(GRIDS["M1"], objects=(((2, 0), 0.8),)))
    assert m1.n_states == 16 and m1.observations == ["F", "C"]
    assert m1.states[0] == "(0,0)|obj0"
    s = m1.states.index("(1,0)|obj0")
    assert m1.Z[s, 1] == 0.8 and m1.Z[m1.states.index("(0,3)|obj0"), 0] == 1.0
    assert m1.P[s, m1.actions.index("north"), m1.states.index("(1,1)|obj0")] == 1.0
    assert m1.label_sets()[m1.states.index("(2,0)|obj0")] == frozenset({"b"})
    with pytest.raises(ValueError):
        build_grid_model(replace(GRIDS["M8"], objects=(((4, 0), 0.9),)))


# sha256 of each preset model's sorted-key JSON: any change to a grid entry, a
# module constant or the builder's arithmetic changes a model's bits
MODEL_DIGESTS = {
    "M1": "ff630d7b68ef19248f75ffaffd94cd705cd55eb99843c8528cc2c52ed77add16",
    "M2": "2fdf00bb8590618f9dca8d12de737f98728404e92df16006aea9d4293e3858ac",
    "M3": "36de08d21fa6dec79b179adec264526c0913e19e60be1c17a869d4a958b3d0d1",
    "M4": "0460f0b440c4a1b434ecc7b6bc612c63e89ffe5a91eae2460a75096bfb2b2b7e",
    "M5": "fbc5f324bfd15ea77336dd2d03c20c9548cd598187e0cc6f2ec371174a4e3e47",
    "M6": "002d0a2479c0f82a90bb7fa3f7cb5555d347db9e3107a0c7990e726e3a0f8e87",
    "M7": "16de1a19d68f704f9cf016945adde3e4c40938fff9ef7b50fba7fddf87ca074a",
    "M8": "0bfe4485a1de22aced099fe36c270db3d28ad6374d1998e053147edca28540f0",
    "M9": "9e5328593bfebe9d7b6b0823b80ceaa2084fbb7ea8d09481d521719e4da095e6",
}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_preset_models_are_the_recorded_bits(name):
    doc = json.dumps(model_to_dict(make_model(name)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == MODEL_DIGESTS[name]


def test_presets_match_reported_hyperparameters():
    p = PRESETS["M1"]
    assert (p.spec, p.threshold, p.B, p.K, p.simu) == ("phi1", 0.75, 5.0, 100, 200)
    p7 = PRESETS["M7"]
    assert (p7.B, p7.K, p7.simu) == (25.0, 50, 100)
    assert PRESETS["M8"].eta == 0.02
    assert PRESETS["M9"].eta == 0.2
    assert set(PRESETS) == set(f"M{i}" for i in range(1, 10))


def test_build_instance_prunes():
    prod = build_instance("M1")
    assert prod.base.n_states * prod.dfa.n_states >= prod.n_states
    assert prod.n_states > 0


def test_trajectory_table_and_ascii():
    prod = build_instance("M1")
    traj = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=2), seed=derive_seed(8))
    rows = trajectory_table(prod, traj)
    assert [r["t"] for r in rows] == list(range(len(traj)))
    assert rows[0]["q"] == prod.dfa.initial
    assert rows[0]["s"] == "(0,0)"
    art = render_trajectory_ascii(prod, traj)
    assert "t=0" in art and ("@" in art or "A" in art or "B" in art)


TABLE_PRODUCTS = {
    # pruning renumbers the product states of M7/phi6
    "m7_phi6": lambda: build_instance("M7"),
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
