"""LTLf-constrained POMDP planning toolkit.

Pipeline: parse an LTLf task spec, compile it to a DFA by formula
progression, build the constrained product POMDP, and solve it with an
exponentiated-gradient Lagrangian loop around a point-based value iteration
solver.  Gridworld benchmark models and a batch CLI are included.
"""

__version__ = "0.1.0"

from .ltlf import (
    Always, And, Atom, Eventually, FALSE, FalseConst, Formula, Implies, LtlfError,
    LtlfSyntaxError, Next, Not, Or, Release, TRUE, TrueConst, UnknownAtomError, Until,
    WeakNext, Word, evaluate_trace, format_formula, formula_atoms, parse_formula,
    satisfaction_table,
)
from .dfa import (
    Dfa, DfaBudgetError, compile_dfa, compile_minimal_dfa, empty_accept, load_dfa,
    minimize_dfa, progress, save_dfa,
)
from .pomdp import (
    ImpossibleObservationError, LabeledPomdp, ModelError, RolloutCache, StoppingModel,
    Trajectory, belief_init, belief_update, derive_seed, load_model, make_rng, predict,
    sample_trajectory, save_model,
)
from .product import (
    ProductPomdp, build_product, constrained_product, load_product, prune_unreachable,
    save_product,
)
from .pbvi import (
    AlphaPolicy, SolverConfig, TimeIndexedPolicy, exact_value_oracle, load_policy,
    save_policy, solve_discounted, solve_finite_horizon, start_value,
)
from .planner import (
    ConstrainedProblem, EGResult, MixedPolicy, auto_eta, eg_solve, eg_update_lambda,
    mc_evaluate, reduce_support_bfs, regret_bound, result_to_dict, scalarize,
)
from .benchmarks import PRESETS, make_model, make_spec, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
