"""A RolloutCache changes no run, and rollout i depends only on (seed, i).

Runs through one shared cache equal fresh runs (each with its own cache) and
the reference simulator in ``helpers`` field by field; the cache's positioned
draws reproduce the pinned Philox streams; and rollout i of an evaluation,
which ``planner.rollouts`` yields as an Outcome, has the rewards and the last
state of the lone ``sample_trajectory(prod, pure, seed, i=i)`` of the pure
policy it picked, whatever the evaluation's size.
"""

import hashlib

import numpy as np
import pytest

import ltlfplan.product
from ltlfplan import pomdp
from ltlfplan.benchmarks import make_model, make_spec, twostate_constrained
from ltlfplan.pbvi import (
    AlphaPolicy, SolverConfig, expand_beliefs_random_walk, solve_discounted, solve_finite_horizon,
)
from ltlfplan.planner import MixedPolicy, mc_evaluate, scalarize
from ltlfplan.pomdp import (
    _CHUNK, LabeledPomdp, Outcome, RandomPolicy, RolloutCache, StoppingModel, derive_seed,
    make_rng, sample_trajectory,
)
from ltlfplan.product import constrained_product

from helpers import ReferenceAlphaAction, reference_mc_evaluate, reference_sample_trajectory

# --------------------------------------------------------------------------
# Reproducibility pins: derive_seed names evaluation and selection keys, and
# rollout i of key s reads row i of make_rng(s)'s doubles, 64 to a row
# --------------------------------------------------------------------------

DERIVED = {
    (0,): 0x180ceb0edce751d9c29f4eb487973e3a,
    (1, 2): 0xd9f6d62d188b891ce7ae79ab3ea6d7e7,
    (2**64 + 5, 0): 0xc12cf82ab6bdfa8ab31cff34128c8f5,
    (2**128 - 1, 7): 0xe69d920d511849024dd7e97ee978659,
    (-1, 3): 0x5521c4253f5f37f063258189ea72f4e5,
    (1000, 4, 0x5E1EC7): 0xc2c5aaa42d3881dad1461be1f488a351,
    (42, 0): 0xee4c00f1568a55c81193d23cd7e8934f,
    (-(2**70), 9): 0x8e2dc9ea3b071dd80812d5cb9cb122df,
    (-1, 2**64): 0x2efac840b859ee643b9977ddb718addc,
    (0, -4): 0x2b0b47c5e6204c8a491254d3fce8effe,
    (1, 0x5E1EC7): 0x7234b1720a93fca6d3141316606dff12,
    (2**64 + 5, 11, 0x5E1EC7): 0x7150e31c024920ebcf59d89ef9668e6d,
    (2**128 - 1, 7, 0x5E1EC7): 0x5dbb9a8a0e17bb184789af197b0d1b1f,
    (-1, 3, 0x5E1EC7): 0x4e925499bcff5aaff7899b936cd7ed30,
}

# sha256 of the first 130 doubles (more than two 64-double chunks) of the
# stream of make_rng(derive_seed(*parts)), or of make_rng(key) for one part
STREAMS = {
    (0, 0): "abdfd14b610d912cf2b7fcd6c5ceb13a30cc54c5920f8e1eec9a479452664385",
    (0, 1): "caf09e2a0b40c6cc68add84ccdd6646eeaedfe01ce056fec0d722e583fecd28d",
    (0,): "0b1b43fd35c9c1df7f091f355cfb17347ce6e4f2bbd79f7d44b1cd6ffc44b666",
    (2**64 + 5, 0): "c3ec10ad964f2c431eba253fc4d743a434003019bd62fcac126e0a875938f6b3",
    (2**64 + 5, 1): "0c33a3df64daa1eca1d86108df40b52f85f71d35f497e0e254a4dfe1cfb8519a",
    (2**64 + 5,): "3bed9070d4b651f3e7a8b319511fee70ef3dbed8a24ac70965b4907d2ae0b234",
    (2**128 - 1, 0): "cd3ed6f11e1e1ff21e046012b9d220c9ad904bd3db75444f4832cdd98078e530",
    (2**128 - 1, 1): "179e25756985b6d3778eb7e60ca7ebf6f6a23af148d11639dfc764578d665190",
    (2**128 - 1,): "4d6f1b88ff60aa6c67a979af904c5e997fff96f23de84e0b65dcbcdc2c5ea302",
}


def stream_key(parts):
    return parts[0] if len(parts) == 1 else derive_seed(*parts)


def digest(doubles) -> str:
    return hashlib.sha256(np.asarray(doubles, dtype=np.float64).tobytes()).hexdigest()


def test_derive_seed_is_pinned():
    for parts, seed in DERIVED.items():
        assert derive_seed(*parts) == seed, parts


@pytest.mark.parametrize("parts", sorted(STREAMS))
def test_rekeyed_generator_gives_the_pinned_stream(parts):
    key = stream_key(parts)
    assert digest(make_rng(key).random(130)) == STREAMS[parts]
    cache = RolloutCache()
    assert digest(cache.draw(key, 0, 130, 1)) == STREAMS[parts]
    # the previous rollout stopped inside a Philox block of a tail line and
    # left a buffered uint32 from integers()
    rng = cache.tail(derive_seed(7, 7), 3)
    rng.random(30)
    rng.integers(5)
    state = rng.bit_generator.state
    assert state["buffer_pos"] % 4 and state["has_uint32"] == 1
    # head rows of _CHUNK doubles, then single doubles at offsets inside a block
    rows = cache.draw(key, 0, 2)
    assert rows.shape == (2, _CHUNK)
    singles = [cache.draw(key, j, 1, 1) for j in (128, 129)]
    assert digest(np.concatenate([rows.ravel(), *map(np.ravel, singles)])) == STREAMS[parts]
    # rows of a width that is no multiple of a block, the second read first
    second, first = cache.draw(key, 1, 1, 65), cache.draw(key, 0, 1, 65)
    assert digest(np.concatenate([first, second], axis=1)) == STREAMS[parts]


@pytest.mark.parametrize("i", [0, 1, 255, 2**40])
def test_rollout_rows_and_tails_are_counter_addressed(i):
    """Row i is make_rng(key) advanced 16i blocks; the tail of rollout i is
    the Philox counter line (0, i + 1, 0, 0) of the same key, from its start."""
    key = derive_seed(3, 4)
    cache = RolloutCache()
    rng = make_rng(key)
    rng.bit_generator.advance(16 * i)
    assert np.array_equal(cache.draw(key, i, 1)[0], rng.random(_CHUNK))
    want = np.random.Generator(np.random.Philox(key=key, counter=[0, i + 1, 0, 0])).random(130)
    tail = cache.tail(key, i)
    assert np.array_equal(np.concatenate([tail.random(_CHUNK) for _ in range(3)])[:130], want)


# --------------------------------------------------------------------------
# Shared cache == fresh runs == reference runs, on pruned M7/phi6
# --------------------------------------------------------------------------

CFG = SolverConfig(n_beliefs=20, max_backup_rounds=30)


@pytest.fixture(scope="module")
def m7():
    prod = constrained_product(make_model("M7"), make_spec("phi6"))
    gamma = prod.stopping.gamma
    beliefs = expand_beliefs_random_walk(prod, CFG, gamma)

    def solved(lam):
        return solve_discounted(prod, scalarize(prod, lam, 0.2)[0], gamma, CFG, beliefs)

    rng = make_rng(5)
    arbitrary = AlphaPolicy(rng.random((6, prod.n_states)), np.arange(6) % prod.n_actions)
    return prod, [solved(1.0), solved(25.0), arbitrary]


@pytest.fixture(scope="module")
def m7_fixed():
    """M7/phi6 stopped at T = 10, with a solved time-indexed policy."""
    m = make_model("M7")
    base = LabeledPomdp(m.name, m.states, m.actions, m.observations, m.P, m.Z, m.varpi,
                        m.atoms, m.labels, m.rewards, StoppingModel.fixed(10))
    prod = constrained_product(base, make_spec("phi6"))
    reward, terminal, _ = scalarize(prod, 5.0, 0.2)
    cfg = SolverConfig(n_beliefs=4, max_backup_rounds=30)
    return prod, solve_finite_horizon(prod, reward, 10, cfg, terminal=terminal)


@pytest.fixture
def counted(monkeypatch):
    """Calls of the Bayes step and of AlphaPolicy.action, the two things the
    cache saves; it must call both through their module/class attributes."""
    calls = {"belief_update": 0, "action": 0}
    update, action = pomdp.belief_update, AlphaPolicy.action

    def counting_update(*args):
        calls["belief_update"] += 1
        return update(*args)

    def counting_action(self, *args):
        calls["action"] += 1
        return action(self, *args)

    monkeypatch.setattr(pomdp, "belief_update", counting_update)
    monkeypatch.setattr(AlphaPolicy, "action", counting_action)
    return calls


def alpha_triple(policy):
    return policy, policy, ReferenceAlphaAction(policy)


def assert_cache_changes_nothing(prod, triples, cache, n=60, seed=31):
    """triples(i) gives rollout i's (shared-cache, fresh, reference) policies;
    returns the total number of steps."""
    steps = 0
    for i in range(n):
        shared, fresh, ref = triples(i)
        got = sample_trajectory(prod, shared, seed, cache, i)
        for want in (sample_trajectory(prod, fresh, seed, i=i),
                     reference_sample_trajectory(prod, ref, seed, i)):
            for field in ("states", "actions", "observations", "rewards"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (i, field)
        steps += len(got)
    return steps


def test_solved_policy_through_one_cache(m7, counted):
    prod, (policy, *_) = m7
    cache = RolloutCache()
    steps = assert_cache_changes_nothing(prod, lambda i: alpha_triple(policy), cache)
    # each fresh run asks for every action and makes every update; the
    # reference runs make neither call
    shared_updates = counted["belief_update"] - (steps - 60)
    shared_actions = counted["action"] - steps
    assert 0 < cache.n_beliefs <= shared_updates + prod.n_observations
    assert shared_updates < steps - 60 and shared_actions < steps


def test_two_stationary_policies_share_one_cache(m7):
    prod, (solved, other, arbitrary) = m7
    cache = RolloutCache()
    pair = [alpha_triple(solved), alpha_triple(arbitrary)]
    assert_cache_changes_nothing(prod, lambda i: pair[i % 2], cache)
    pair = [alpha_triple(solved), alpha_triple(other)]
    assert_cache_changes_nothing(prod, lambda i: pair[i % 2], cache, seed=32)


def test_mixture_through_mc_evaluate(m7, counted):
    prod, policies = m7
    mixture = MixedPolicy(policies, [0.5, 0.3, 0.2])
    est = mc_evaluate(mixture, prod, 120, seed=23)
    assert 0 < counted["action"] < counted["belief_update"]  # actions at interned beliefs
    assert (est.r_hat, est.p_hat, est.r_se, est.p_se) == \
        reference_mc_evaluate(mixture, prod, 120, seed=23)


def test_time_indexed_policy_is_asked_every_step(m7_fixed, counted):
    prod, policy = m7_fixed
    assert policy.kind == "time_indexed"
    steps = assert_cache_changes_nothing(prod, lambda i: alpha_triple(policy), RolloutCache(),
                                         n=40)
    assert steps == 40 * 11
    assert counted["action"] == steps * 2  # the shared and the fresh runs


def test_random_policy_is_never_memoized(m7):
    prod, _ = m7
    A = prod.n_actions
    assert_cache_changes_nothing(
        prod, lambda i: (RandomPolicy(A, i), RandomPolicy(A, i), RandomPolicy(A, i)),
        RolloutCache())
    # one policy object whose stream runs on across rollouts
    mine, fresh, ref = (RandomPolicy(A, 9) for _ in range(3))
    assert_cache_changes_nothing(prod, lambda i: (mine, fresh, ref), RolloutCache(), seed=33)


def test_a_run_that_crosses_the_budget(m7, monkeypatch):
    prod, (policy, *_) = m7
    monkeypatch.setattr(pomdp, "CACHE_FLOATS", 40 * prod.n_states)
    cache = RolloutCache()
    held = []

    def triples(i):
        held.append(cache.n_beliefs)
        return alpha_triple(policy)

    assert_cache_changes_nothing(prod, triples, cache)
    starts = held[1:]
    assert max(starts) > 40  # the budget was crossed ...
    assert any(after < before for before, after in zip(starts, starts[1:]))  # ... and cleared


def test_a_cache_moved_to_another_model_starts_over(m7):
    prod, (policy, *_) = m7
    cache = RolloutCache()
    assert_cache_changes_nothing(prod, lambda i: alpha_triple(policy), cache, n=5)
    other = constrained_product(*twostate_constrained(0.9))
    stay = AlphaPolicy(np.zeros((1, other.n_states)), [0])
    assert_cache_changes_nothing(other, lambda i: alpha_triple(stay), cache, n=20)
    assert cache.model is other


def test_mc_evaluate_makes_one_simulator_call_per_rollout(m7, monkeypatch):
    prod, policies = m7
    calls = []
    simulate = ltlfplan.product.sample_trajectory

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(ltlfplan.product, "sample_trajectory", counting)
    for policy in (policies[0], MixedPolicy(policies, [0.2, 0.3, 0.5])):
        calls.clear()
        mc_evaluate(policy, prod, 37, seed=4)
        assert len(calls) == 37


# --------------------------------------------------------------------------
# Rollout i depends only on (seed, i)
# --------------------------------------------------------------------------

@pytest.fixture
def recorded(monkeypatch):
    """(policy, run) of every product.sample_trajectory call, in call order."""
    runs = []
    simulate = ltlfplan.product.sample_trajectory

    def recording(model, policy, *args, **kwargs):
        run = simulate(model, policy, *args, **kwargs)
        runs.append((policy, run))
        return run

    monkeypatch.setattr(ltlfplan.product, "sample_trajectory", recording)
    return runs


def same_outcome(full, outcome) -> bool:
    """Whether an evaluation's Outcome has the rewards and the last state of
    the full run ``full``."""
    return type(outcome) is Outcome and outcome.reward_list == full.reward_list \
        and outcome.last_state == full.state_list[-1]


@pytest.mark.parametrize("kind", ["pure", "mixture"])
def test_a_lone_rollout_is_rollout_i_of_an_evaluation(m7, recorded, kind):
    """At the edges of the 256-rollout windows of ``rollouts`` and at n - 1,
    on M7, where most runs read past their 64-uniform head."""
    prod, policies = m7
    policy = policies[0] if kind == "pure" else MixedPolicy(policies, [0.5, 0.3, 0.2])
    n = 300
    mc_evaluate(policy, prod, n, seed=41)
    inside = list(recorded)
    assert len(inside) == n
    assert sum(len(traj) >= 22 for _, traj in inside) > n // 2  # 3 uniforms a step past s0, o0
    for i in (0, 255, 256, 257, n - 1):
        picked, run = inside[i]
        assert same_outcome(sample_trajectory(prod, picked, 41, i=i), run), i


@pytest.mark.parametrize("kind", ["pure", "mixture"])
def test_mc_evaluate_builds_no_trajectory_array(m7, recorded, kind):
    """Runs are Outcomes, a reward list and a last state, and the
    length-grouped totals are each run's own ``rewards.sum()``: r_hat is
    their mean, bit for bit."""
    prod, policies = m7
    policy = policies[0] if kind == "pure" else MixedPolicy(policies, [0.5, 0.3, 0.2])
    n = 300
    est = mc_evaluate(policy, prod, n, seed=43)
    runs = [run for _, run in recorded]
    assert len(runs) == n and len({len(run) for run in runs}) > 20
    assert not [i for i, run in enumerate(runs)
                if type(run) is not Outcome or type(run.reward_list) is not list]
    assert est.r_hat == float(np.array([np.array(run.reward_list).sum() for run in runs]).mean())
    assert est.p_hat == float(np.mean([prod.accepts_at_stop[run.last_state] for run in runs]))


def test_evaluations_of_different_sizes_share_their_runs(m7, recorded):
    prod, policies = m7
    mixture = MixedPolicy(policies, [0.5, 0.3, 0.2])
    mc_evaluate(mixture, prod, 270, seed=42)
    larger = list(recorded)
    recorded.clear()
    mc_evaluate(mixture, prod, 40, seed=42)
    assert len(recorded) == 40
    assert all(p is q and a.reward_list == b.reward_list and a.last_state == b.last_state
               for (p, a), (q, b) in zip(recorded, larger))


def test_head_rows_and_picks_come_in_bounded_windows(monkeypatch):
    """mc_evaluate draws at most 256 head rows (128 KiB) or picks at a time,
    and no rollout draws its head alone."""
    prod = constrained_product(*twostate_constrained(0.9))
    stay = AlphaPolicy(np.zeros((1, prod.n_states)), [0])
    draws = []
    draw = RolloutCache.draw

    def recording(self, key, i, rows, width=_CHUNK):
        draws.append((i, rows, width))
        return draw(self, key, i, rows, width)

    monkeypatch.setattr(RolloutCache, "draw", recording)
    mc_evaluate(MixedPolicy([stay, stay], [0.5, 0.5]), prod, 600, seed=43)
    windows = [(0, 256), (256, 256), (512, 88)]
    assert draws == [(i, rows, width) for i, rows in windows for width in (_CHUNK, 1)]
