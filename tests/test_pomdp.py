import json

import numpy as np
import pytest

from ltlfplan.benchmarks import make_model
from ltlfplan.pbvi import AlphaPolicy
from ltlfplan.pomdp import (
    ImpossibleObservationError, LabeledPomdp, ModelError,
    RandomPolicy, StoppingModel, belief_init, belief_update, derive_seed, load_model,
    make_rng, model_from_dict, model_to_dict, sample_trajectory, save_model,
)

from helpers import deterministic_chain, fully_observable, uninformative_two_state


def two_state_doc(**overrides):
    doc = {
        "name": "pair",
        "atoms": ["a"],
        "states": ["s0", "s1"],
        "actions": ["go"],
        "observations": ["o0", "o1"],
        "initial": {"s0": 1.0},
        "labels": {"s1": ["a"]},
        "transitions": [
            {"state": "s0", "action": "go", "next": {"s1": 1.0}},
            {"state": "s1", "action": "go", "next": {"s1": "1.0"}},
        ],
        "observe": {"s0": {"o0": 1.0}, "s1": {"o1": 1.0}},
        "rewards": [{"state": "s0", "action": "go", "value": 0.5}],
        "stopping": {"kind": "fixed", "T": 2},
    }
    doc.update(overrides)
    return doc


# --------------------------------------------------------------------------
# Stopping models
# --------------------------------------------------------------------------

@pytest.mark.parametrize("T", [2.5, True, "3", None])
def test_fixed_horizon_must_be_an_integer(T):
    with pytest.raises(ModelError, match=f"integer T >= 0, got {T!r}"):
        StoppingModel("fixed", T=T)
    with pytest.raises(ModelError, match=f"integer T >= 0, got {T!r}"):
        StoppingModel.fixed(T)


def test_fixed_horizon_takes_numpy_integers():
    assert type(StoppingModel.fixed(np.int64(3)).T) is int
    assert StoppingModel.fixed(np.int64(3)) == StoppingModel.fixed(3)


def test_stopping_model_validation():
    with pytest.raises(ModelError):
        StoppingModel.fixed(-1)
    with pytest.raises(ModelError):
        StoppingModel.geometric(1.0)
    with pytest.raises(ModelError):
        StoppingModel("sometimes")


# --------------------------------------------------------------------------
# Model document loading
# --------------------------------------------------------------------------

def test_load_two_state_chain_document():
    m = model_from_dict(two_state_doc())
    assert m.P[0, 0].tolist() == [0.0, 1.0]
    assert m.rewards[0, 0] == 0.5
    assert m.labels.tolist() == [0, 1]
    assert m.stopping == StoppingModel.fixed(2)


def test_load_rejects_unnormalized_row():
    doc = two_state_doc()
    doc["transitions"][0]["next"] = {"s1": 0.9}
    with pytest.raises(ModelError) as err:
        model_from_dict(doc)
    assert "s0" in str(err.value) and "go" in str(err.value)


def test_load_rejects_dangling_references():
    doc = two_state_doc()
    doc["transitions"][0]["next"] = {"ghost": 1.0}
    with pytest.raises(ModelError):
        model_from_dict(doc)
    doc = two_state_doc(labels={"s1": ["zz"]})
    with pytest.raises(ModelError):
        model_from_dict(doc)
    doc = two_state_doc(initial={"ghost": 1.0})
    with pytest.raises(ModelError):
        model_from_dict(doc)


@pytest.mark.parametrize("name", [7, ["x"], None])
def test_load_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(ModelError, match=f"name must be a string, got {type(name).__name__}"):
        model_from_dict(two_state_doc(name=name))


def test_load_rejects_missing_transition_row():
    doc = two_state_doc()
    doc["transitions"] = doc["transitions"][:1]
    with pytest.raises(ModelError) as err:
        model_from_dict(doc)
    assert "missing" in str(err.value)


def test_load_rejects_duplicate_reward_row():
    """A second reward row for the same (state, action) is refused, not
    silently preferred, as a second transition row is."""
    doc = two_state_doc()
    doc["rewards"].append({"state": "s0", "action": "go", "value": 5.0})
    with pytest.raises(ModelError, match=r"duplicate reward row for \(state='s0', action='go'\)"):
        model_from_dict(doc)


@pytest.mark.parametrize("table", ["P", "Z", "varpi", "rewards"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite_entries(table, value):
    base = uninformative_two_state()
    arrays = {name: getattr(base, name).copy() for name in ("P", "Z", "varpi", "rewards")}
    arrays[table].flat[0] = value
    with pytest.raises(ModelError, match="non-finite entry"):
        LabeledPomdp("bad", base.states, base.actions, base.observations, arrays["P"],
                     arrays["Z"], arrays["varpi"], base.atoms, base.labels,
                     arrays["rewards"], base.stopping)


def test_load_accepts_decimal_strings():
    doc = two_state_doc()
    doc["observe"]["s0"] = {"o0": "0.25", "o1": "0.75"}
    m = model_from_dict(doc)
    assert m.Z[0].tolist() == [0.25, 0.75]


def test_model_file_roundtrip(tmp_path):
    m1 = make_model("M1")
    path = tmp_path / "m1.json"
    save_model(m1, path)
    again = load_model(path)
    assert m1.equals(again)
    # and the document really is plain JSON
    with open(path) as fh:
        assert json.load(fh)["name"] == "M1"


# --------------------------------------------------------------------------
# Beliefs
# --------------------------------------------------------------------------

def test_belief_init_point_mass_under_identity_obs():
    m = fully_observable(np.ones((2, 1, 2)) * 0.5, np.zeros((2, 1)))
    assert belief_init(m, 0).tolist() == [1.0, 0.0]


def test_belief_init_uninformative_returns_prior():
    m = uninformative_two_state()
    b0 = belief_init(m, 0)
    assert np.allclose(b0, m.varpi)


def test_belief_init_bayes_arithmetic():
    Z = np.array([[0.8, 0.2], [0.4, 0.6]])
    m2 = LabeledPomdp("bayes", ["s0", "s1"], ["a0"], ["o0", "o1"],
                      np.ones((2, 1, 2)) * 0.5, Z, np.array([0.5, 0.5]),
                      ("a",), np.zeros(2, dtype=np.int64), np.zeros((2, 1)),
                      StoppingModel.fixed(1))
    b0 = belief_init(m2, 0)
    assert np.allclose(b0, [2 / 3, 1 / 3])


def test_belief_update_transports_point_mass():
    chain = deterministic_chain(3)
    b = np.array([1.0, 0.0, 0.0])
    b1 = belief_update(chain, b, 0, 0)
    assert np.allclose(b1, [0.0, 1.0, 0.0])


def test_belief_update_identity_observation_collapses():
    m = fully_observable(np.ones((2, 2, 2)) * 0.5, np.zeros((2, 2)))
    b = np.array([0.5, 0.5])
    assert np.allclose(belief_update(m, b, 0, 0), [1.0, 0.0])


def test_belief_update_hand_bayes():
    P = np.zeros((2, 1, 2))
    P[0, 0] = (0.9, 0.1)
    P[1, 0] = (0.2, 0.8)
    Z = np.array([[0.7, 0.3], [0.3, 0.7]])
    m = LabeledPomdp("hb", ["s0", "s1"], ["a"], ["o0", "o1"], P, Z,
                     np.array([0.5, 0.5]), ("a",), np.zeros(2, dtype=np.int64),
                     np.zeros((2, 1)), StoppingModel.fixed(1))
    b1 = belief_update(m, np.array([0.5, 0.5]), 0, 0)
    assert np.allclose(b1, np.array([0.385, 0.135]) / 0.52)


def test_impossible_observation_raises():
    m = LabeledPomdp("imp", ["s0", "s1"], ["a"], ["o0", "o1"],
                     np.eye(2)[:, None, :], np.eye(2), np.array([1.0, 0.0]),
                     ("a",), np.zeros(2, dtype=np.int64), np.zeros((2, 1)),
                     StoppingModel.fixed(1))
    with pytest.raises(ImpossibleObservationError):
        belief_init(m, 1)
    with pytest.raises(ImpossibleObservationError):
        belief_update(m, np.array([1.0, 0.0]), 0, 1)


# --------------------------------------------------------------------------
# Trajectory simulation
# --------------------------------------------------------------------------

def test_fixed_zero_horizon_single_step():
    chain = deterministic_chain(3, stopping=StoppingModel.fixed(0))
    traj = sample_trajectory(chain, AlphaPolicy(np.zeros((1, 3)), [0]), seed=1)
    assert len(traj) == 1


def test_deterministic_chain_unique_run():
    chain = deterministic_chain(3, reward_on={0: 1.0, 1: 0.25, 2: 7.0},
                                stopping=StoppingModel.fixed(2))
    traj = sample_trajectory(chain, AlphaPolicy(np.zeros((1, 3)), [0]), seed=42)
    assert traj.states.tolist() == [0, 1, 2]
    assert traj.rewards.sum() == pytest.approx(1.0 + 0.25 + 7.0)
    assert traj.rewards.tolist() == [1.0, 0.25, 7.0]


def test_trajectory_arrays_are_its_lists():
    """A run keeps its step lists; each array, built on first read, has the
    dtype and values of the list."""
    m = make_model("M1")
    traj = sample_trajectory(m, RandomPolicy(m.n_actions, seed=3), seed=77)
    assert len(traj) > 1 and not any(isinstance(v, np.ndarray) for v in vars(traj).values())
    for field, dtype in (("states", np.int64), ("actions", np.int64),
                         ("observations", np.int64), ("rewards", np.float64)):
        steps = getattr(traj, field[:-1] + "_list")
        arr = getattr(traj, field)
        assert arr.dtype == dtype and arr.shape == (len(traj),) and arr.tolist() == steps
        assert getattr(traj, field) is arr  # built once
    assert len(traj) == len(traj.state_list)


def test_seed_determinism_bit_identical():
    m = make_model("M1")
    a = sample_trajectory(m, RandomPolicy(m.n_actions, seed=5), seed=123)
    b = sample_trajectory(m, RandomPolicy(m.n_actions, seed=5), seed=123)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.rewards, b.rewards)
    c = sample_trajectory(m, RandomPolicy(m.n_actions, seed=5), seed=124)
    assert not (np.array_equal(a.states, c.states) and np.array_equal(a.actions, c.actions)
                and np.array_equal(a.observations, c.observations))


def test_geometric_horizon_mean_and_pmf():
    gamma = 0.5
    chain = deterministic_chain(2, stopping=StoppingModel.geometric(gamma))
    n = 100_000
    horizons = np.empty(n)
    always_go = AlphaPolicy(np.zeros((1, 2)), [0])
    for i in range(n):
        horizons[i] = len(sample_trajectory(chain, always_go, seed=derive_seed(9, i))) - 1
    mean = horizons.mean()
    se = horizons.std(ddof=1) / np.sqrt(n)
    assert abs(mean - gamma / (1 - gamma)) <= 3 * se
    for t in range(6):
        freq = float(np.mean(horizons == t))
        p = (1 - gamma) * gamma ** t
        se_t = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se_t


def test_fully_observable_belief_tracks_true_state():
    P = np.zeros((3, 2, 3))
    rng = make_rng(3)
    for s in range(3):
        for a in range(2):
            row = rng.random(3) + 0.1
            P[s, a] = row / row.sum()
    m = fully_observable(P, np.zeros((3, 2)))

    class Probe:
        def __init__(self):
            self.ok = True
            self._rng = make_rng(11)

        def action(self, belief, t):
            # belief must be a point mass; the simulator draws the observation
            # from the true state, so the mass must sit on it
            self.ok = self.ok and np.isclose(belief.max(), 1.0)
            return int(self._rng.integers(2))

    probe = Probe()
    traj = sample_trajectory(m, probe, seed=8)
    assert probe.ok and len(traj) >= 1


def test_belief_normalized_along_trajectories():
    m = make_model("M8")

    class Probe:
        def __init__(self):
            self.sums = []
            self._rng = make_rng(12)

        def action(self, belief, t):
            self.sums.append(belief.sum())
            assert np.all(belief >= 0)
            return int(self._rng.integers(m.n_actions))

    probe = Probe()
    sample_trajectory(m, probe, seed=77)
    assert np.allclose(probe.sums, 1.0, atol=1e-9)


def test_model_to_dict_roundtrip_via_dict():
    m = uninformative_two_state()
    again = model_from_dict(model_to_dict(m))
    assert m.equals(again)
