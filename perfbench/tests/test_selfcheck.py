"""Self-checks of the benchmark itself (about a minute):

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import ltlfplan  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ltlfplan.benchmarks import run_experiment  # noqa: E402
from ltlfplan.pbvi import SolverConfig  # noqa: E402

SEED = 1000


@pytest.mark.parametrize("name", ["m1_row", "m7_row"])
def test_row_op_is_the_real_row(name):
    """The composed op returns exactly what run_experiment returns."""
    work = workloads.WORKLOADS[name]
    cfg = None if work.expansion_seed is None else SolverConfig(
        n_beliefs=100, max_backup_rounds=400, bellman_tolerance=1e-3,
        expansion_seed=work.expansion_seed)
    op = workloads.run_op(name, SEED)
    row, result, _ = run_experiment(work.row, K=work.K, seed=SEED, cfg=cfg,
                                    eval_rollouts=work.eval_rollouts)
    assert (op.final.p_hat, op.final.r_hat) == (row["p_hat"], row["r_hat"])
    assert [(r.lam, r.p_hat, r.r_hat) for r in op.result.records] == \
        [(r.lam, r.p_hat, r.r_hat) for r in result.records]
    assert workloads.check(name, op) == []


def test_tracing_keeps_outputs_and_reports_every_layer():
    plain = workloads.run_op("m7_row", SEED)
    trc = tracer.Tracer()
    with trc.installed():
        traced = workloads.run_op("m7_row", SEED, trc.span)
    assert workloads.digest(traced) == workloads.digest(plain)
    layers = tracer.layer_metrics(trc, traced.op_s, traced.prod)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(layers) | {"trace.overhead"} == {m["name"] for m in spec["per_layer"]}
    assert layers["pomdp.rollouts"] == 4 * 100 + 200      # K * simu + final rollouts
    assert layers["planner.iterations"] == 4
    # the patched attributes are restored
    assert ltlfplan.planner.solve_discounted is ltlfplan.pbvi.solve_discounted
    assert ltlfplan.product.sample_trajectory is ltlfplan.pomdp.sample_trajectory
