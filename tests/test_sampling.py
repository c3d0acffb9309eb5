"""The simulator's cached inverse-CDF tables and chunked uniforms reproduce
the scalar reference simulator in ``helpers`` bit for bit."""

import numpy as np
import pytest

from ltlfplan.benchmarks import make_model, make_spec, random_tiny_model, twostate_constrained
from ltlfplan.pbvi import (
    AlphaPolicy, SolverConfig, expand_beliefs_random_walk, solve_discounted, solve_finite_horizon,
)
from ltlfplan.planner import MixedPolicy, mc_evaluate, scalarize
from ltlfplan.pomdp import (
    LOAD_ATOL, LabeledPomdp, RandomPolicy, StoppingModel, _categorical,
    _inverse_cdfs, _pick, derive_seed, make_rng, sample_trajectory,
)
from ltlfplan.product import constrained_product

from helpers import (
    ReferenceAlphaAction, dfa_accepts_run, reference_categorical, reference_mc_evaluate,
    reference_sample_trajectory,
)

CFG = SolverConfig(n_beliefs=20, max_backup_rounds=30, bellman_tolerance=1e-6)


def zero_column_model():
    """Random 3-state model whose observations 0 and 2 are never emitted."""
    base = random_tiny_model(21, n_states=3, n_actions=2, n_obs=2, n_atoms=2)
    Z = np.zeros((3, 4))
    Z[:, [1, 3]] = base.Z
    return LabeledPomdp("zerocol", base.states, base.actions, ["o0", "o1", "o2", "o3"],
                        base.P, Z, base.varpi, base.atoms, base.labels, base.rewards,
                        StoppingModel.geometric(0.95))


def tie_policy(prod):
    """Stationary policy whose first two vectors tie at every belief."""
    rng = make_rng(3)
    v = rng.random(prod.n_states)
    return AlphaPolicy([v, v, rng.random(prod.n_states)], [1, 0, 0])


def stationary_policy(prod, lam):
    reward, _, _ = scalarize(prod, lam, 0.2)
    gamma = prod.stopping.gamma
    return solve_discounted(prod, reward, gamma, CFG, expand_beliefs_random_walk(prod, CFG, gamma))


GEOMETRIC = {
    "twostate": lambda: constrained_product(*twostate_constrained(0.9)),
    "twostate_long": lambda: constrained_product(*twostate_constrained(0.99)),
    "m1": lambda: constrained_product(make_model("M1"), make_spec("phi1")),
    "zero_z_column": lambda: constrained_product(zero_column_model(), "F (a & b)"),
}


@pytest.fixture(scope="module", params=sorted(GEOMETRIC))
def geometric_case(request):
    prod = GEOMETRIC[request.param]()
    return request.param, prod, stationary_policy(prod, 1.0)


@pytest.fixture(scope="module")
def fixed_case():
    # 2 + 2 * 40 uniforms per run: more than one 64-uniform chunk
    model = random_tiny_model(7, n_states=3, n_actions=2, n_obs=3, horizon=40, n_atoms=2)
    prod = constrained_product(model, "a U b")
    reward, terminal, _ = scalarize(prod, 2.0, 0.2)
    cfg = SolverConfig(n_beliefs=3, max_backup_rounds=30)
    return prod, solve_finite_horizon(prod, reward, 40, cfg, terminal=terminal)


def assert_same_runs(prod, policies, n=40, seed=17):
    """policies() returns a fresh (library policy, reference policy) pair.
    The full run equals the reference run field by field, and the Outcome of
    the same rollout (a fresh library policy's) has its rewards and last state."""
    lengths = []
    for i in range(n):
        mine, ref = policies()
        got = sample_trajectory(prod, mine, derive_seed(seed, i))
        want = reference_sample_trajectory(prod, ref, derive_seed(seed, i))
        for field in ("states", "actions", "observations", "rewards"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (i, field)
        outcome = sample_trajectory(prod, policies()[0], derive_seed(seed, i), full=False)
        assert outcome.reward_list == want.rewards.tolist(), i
        assert outcome.last_state == want.states[-1] and len(outcome) == len(want), i
        assert prod.accepts_at_stop[got.state_list[-1]] == dfa_accepts_run(prod, want)
        lengths.append(len(got))
    return lengths


def test_geometric_runs_match_reference(geometric_case):
    name, prod, policy = geometric_case
    A = prod.n_actions
    always_last = AlphaPolicy(np.zeros((1, prod.n_states)), [A - 1])
    lengths = assert_same_runs(prod, lambda: (always_last,) * 2)
    lengths += assert_same_runs(prod, lambda: (RandomPolicy(A, 5), RandomPolicy(A, 5)))
    lengths += assert_same_runs(prod, lambda: (policy, ReferenceAlphaAction(policy)))
    ties = tie_policy(prod)
    lengths += assert_same_runs(prod, lambda: (ties, ReferenceAlphaAction(ties)))
    if name == "twostate_long":
        # 3 uniforms per step: many runs read several chunks
        assert sum(3 * n > 64 for n in lengths) > len(lengths) // 2


def test_zero_column_product_never_emits_the_column():
    prod = GEOMETRIC["zero_z_column"]()
    assert not prod.Z[:, 0].any() and not prod.Z[:, 2].any()
    for i in range(50):
        traj = sample_trajectory(prod, RandomPolicy(prod.n_actions, i), derive_seed(4, i))
        assert not np.isin(traj.observations, [0, 2]).any()


def test_fixed_horizon_runs_match_reference(fixed_case):
    prod, policy = fixed_case
    assert policy.kind == "time_indexed"
    A = prod.n_actions
    always_1 = AlphaPolicy(np.zeros((1, prod.n_states)), [1])
    for lengths in (assert_same_runs(prod, lambda: (always_1,) * 2),
                    assert_same_runs(prod, lambda: (RandomPolicy(A, 9), RandomPolicy(A, 9))),
                    assert_same_runs(prod, lambda: (policy, ReferenceAlphaAction(policy)))):
        assert set(lengths) == {41}


def test_mixture_evaluation_matches_reference(geometric_case):
    _, prod, policy = geometric_case
    mixture = MixedPolicy([policy, stationary_policy(prod, 8.0), tie_policy(prod)],
                          [0.5, 0.3, 0.2])
    est = mc_evaluate(mixture, prod, 150, seed=23)
    assert (est.r_hat, est.p_hat, est.r_se, est.p_se) == \
        reference_mc_evaluate(mixture, prod, 150, seed=23)


# --------------------------------------------------------------------------
# The inverse-CDF rule
# --------------------------------------------------------------------------

EDGE_ROWS = [
    [1.0],
    [0.0, 0.0, 0.5, 0.5],                    # leading zeros
    [0.5, 0.5, 0.0, 0.0],                    # trailing zeros
    [0.0, 0.25, 0.0, 0.75, 0.0],
    [0.5, 1e-20, 0.5, 1e-300],               # entries too small to move the cumsum
    [1.0, 1e-17, 0.0],
    [0.3, 0.3, 0.4 + 1e-7],                  # sums inside the load tolerance
    [0.3, 0.3 - 1e-7, 0.4],
    [1.0 - 1e-7, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
]
EDGE_U = [0.0, 0.5, 1.0 - 2.0 ** -53]


def expected_pick(p, u):
    cum = np.cumsum(p)
    return int(min(np.searchsorted(cum, u * cum[-1], "right"), len(p) - 1))


class FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def random_rows(rng, n):
    rows = []
    for _ in range(n):
        p = rng.random(int(rng.integers(1, 12)))
        p[rng.random(len(p)) < 0.5] = 0.0
        p = p / p.sum() if p.sum() > 0 else p
        rows.append(p * (1.0 + rng.uniform(-1e-7, 1e-7)))
    return rows


def test_inverse_cdf_pick_equals_clamped_searchsorted():
    rng = make_rng(99)
    rows = [np.array(r) for r in EDGE_ROWS] + random_rows(rng, 200)
    for p in rows[:9]:
        assert abs(p.sum() - 1.0) <= LOAD_ATOL
    uniforms = EDGE_U + rng.random(40).tolist()
    for p in rows:
        table = _inverse_cdfs(p[None, :])[0]
        # a 2-d build (as for Z and P) gives the same table for the row
        assert _inverse_cdfs(np.vstack([p, p]))[1] == table
        for u in uniforms:
            want = expected_pick(p, u)
            assert _pick(table, u) == want, (p.tolist(), u)
            assert _categorical(FixedUniform(u), p) == want
            assert reference_categorical(FixedUniform(u), p) == want


def test_inverse_cdf_tables_are_compact():
    total, cum, picks = _inverse_cdfs(np.array([[0.0, 0.5, 0.0, 1e-20, 0.5, 0.0]]))[0]
    assert total == 1.0
    assert cum == [0.5, 1.0]
    assert picks == [1, 4, 5]
