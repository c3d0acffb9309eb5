import csv
import json
from pathlib import Path

import numpy as np
import pytest

import ltlfplan.cli
from ltlfplan.benchmarks import trajectory_table, twostate_constrained
from ltlfplan.cli import main
from ltlfplan.pbvi import AlphaPolicy, load_policy, save_policy
from ltlfplan.planner import auto_eta
from ltlfplan.pomdp import save_model
from ltlfplan.product import ProductPomdp


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "twostate.json"
    model, _ = twostate_constrained(0.9)
    save_model(model, path)
    return str(path)


def run(*argv):
    return main(list(argv))


def test_compile_reach_avoid(tmp_path, capsys):
    out = tmp_path / "c"
    assert run("compile", "--spec", "F a & G !b", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "states: 3" in printed
    doc = json.loads((out / "dfa.json").read_text())
    assert doc["n_states"] == 3
    assert (out / "manifest.json").exists()


def test_compile_trivial_spec(tmp_path):
    out = tmp_path / "c"
    assert run("compile", "--spec", "true", "--out", str(out), "--quiet") == 0
    doc = json.loads((out / "dfa.json").read_text())
    assert doc["n_states"] == 1
    assert doc["accepting"] == [0]


def test_compile_syntax_error_exit_code(tmp_path, capsys):
    assert run("compile", "--spec", "a U", "--out", str(tmp_path / "c")) == 3
    assert "error" in capsys.readouterr().err


def test_compile_dot_output(tmp_path):
    out = tmp_path / "c"
    assert run("compile", "--spec", "F a", "--dot", "--out", str(out), "--quiet") == 0
    assert "digraph" in (out / "dfa.dot").read_text()


def test_product_command(tmp_path, model_file, capsys):
    out = tmp_path / "p"
    assert run("product", "--model", model_file, "--spec", "F g", "--out", str(out)) == 0
    assert "product states" in capsys.readouterr().out
    assert (out / "product.json").exists()


def test_product_accepts_rows_within_the_load_tolerance(tmp_path, model_file):
    doc = json.loads(Path(model_file).read_text())
    row = next(r for r in doc["transitions"] if (r["state"], r["action"]) == ("home", "stay"))
    row["next"] = {"home": "0.6666666", "goal": "0.3333333"}  # sums to 1 - 1e-7
    path = tmp_path / "rounded.json"
    path.write_text(json.dumps(doc))
    assert run("product", "--model", str(path), "--spec", "F g",
               "--out", str(tmp_path / "p"), "--quiet") == 0


def test_solve_validation_errors(tmp_path, model_file):
    base = ["solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
            "--B", "4", "--simu", "5", "--out", str(tmp_path / "s")]
    assert run(*base, "--K", "0") == 3
    assert run(*base[:-4], "--threshold", "1.5", "--B", "4", "--K", "2",
               "--out", str(tmp_path / "s2")) == 3


def test_solve_writes_artifacts_and_manifest(tmp_path, model_file):
    out = tmp_path / "s"
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
               "--B", "4", "--K", "3", "--simu", "10", "--n-beliefs", "8",
               "--max-rounds", "80", "--seed", "7", "--out", str(out), "--quiet") == 0
    for name in ("product.json", "mixture.json", "result.json", "trace.csv",
                 "timings.json", "manifest.json"):
        assert (out / name).exists(), name
    mixture = json.loads((out / "mixture.json").read_text())
    assert len(mixture["policies"]) == 3
    assert (out / mixture["policies"][0]).exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "k,lambda,r_hat,p_hat,r_se,p_se,converged"
    assert len(trace) == 4
    result = json.loads((out / "result.json").read_text())
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{k: str(v) for k, v in rec.items()} for rec in result["trace"]]


def test_solve_manifest_records_auto_eta(tmp_path, model_file):
    out = tmp_path / "eta"
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.5",
               "--B", "5", "--K", "100", "--eta", "auto", "--simu", "2",
               "--n-beliefs", "4", "--max-rounds", "25", "--tol", "1e-2",
               "--out", str(out), "--quiet") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["eta"] == pytest.approx(auto_eta(100, 5.0))
    assert manifest["config"]["eta"] == pytest.approx(0.011774, abs=1e-6)


def test_solve_rerun_reproduces_outputs(tmp_path, model_file):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
                   "--B", "4", "--K", "2", "--simu", "8", "--n-beliefs", "6",
                   "--max-rounds", "40", "--seed", "3", "--out", str(out), "--quiet") == 0
        outs.append(out)
    for name in ("result.json", "trace.csv", "mixture.json", "product.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_evaluate_and_trace_roundtrip(tmp_path, model_file, capsys):
    out = tmp_path / "s"
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
               "--B", "4", "--K", "2", "--simu", "8", "--n-beliefs", "6",
               "--max-rounds", "40", "--out", str(out), "--quiet") == 0
    capsys.readouterr()
    assert run("evaluate", "--model", model_file, "--spec", "F g",
               "--policy", str(out / "mixture.json"), "--rollouts", "50") == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["p_hat"] <= 1.0
    assert report["rollouts"] == 50

    tout = tmp_path / "t"
    assert run("trace", "--model", model_file, "--spec", "F g",
               "--policy", str(out / "mixture.json"), "--out", str(tout), "--quiet") == 0
    lines = (tout / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,s,q,a,o,r"
    assert len(lines) >= 2
    assert (tout / "trace.txt").exists()


def test_trace_replays_rollout_zero_of_evaluate(tmp_path, model_file, monkeypatch):
    out = tmp_path / "s"
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
               "--B", "4", "--K", "1", "--simu", "8", "--n-beliefs", "6",
               "--max-rounds", "40", "--out", str(out), "--quiet") == 0
    # an even mixture of "always action 0" and "always action 1": the action
    # column shows which policy the selection draw picked
    n = load_policy(out / "policies" / "policy_0001.json").n_states
    for a in (0, 1):
        save_policy(AlphaPolicy(np.zeros((1, n)), [a], gamma=0.9),
                    out / f"always_{a}.json")
    (out / "mixture.json").write_text(json.dumps(
        {"weights": [0.5, 0.5], "policies": ["always_0.json", "always_1.json"]}))
    simulated = []
    simulate = ProductPomdp.simulate

    def recording(prod, policy, seed):
        traj = simulate(prod, policy, seed)
        simulated.append((prod, traj))
        return traj

    monkeypatch.setattr(ProductPomdp, "simulate", recording)
    for seed in range(8):
        simulated.clear()
        common = ["--model", model_file, "--spec", "F g", "--policy", str(out / "mixture.json"),
                  "--seed", str(seed)]
        assert run("evaluate", *common, "--rollouts", "1") == 0
        prod, rollout0 = simulated[0]
        tout = tmp_path / f"t{seed}"
        assert run("trace", *common, "--out", str(tout), "--quiet") == 0
        with open(tout / "trace.csv", newline="") as fh:
            traced = list(csv.DictReader(fh))
        assert traced == [{k: str(v) for k, v in row.items()}
                          for row in trajectory_table(prod, rollout0)]


def test_evaluate_rejects_mismatched_policy(tmp_path, model_file):
    out = tmp_path / "s"
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
               "--B", "4", "--K", "1", "--simu", "5", "--n-beliefs", "6",
               "--max-rounds", "30", "--out", str(out), "--quiet") == 0
    # different spec -> different product size -> validation failure
    assert run("evaluate", "--model", model_file, "--spec", "F g & X g",
               "--policy", str(out / "mixture.json"), "--rollouts", "5") == 3


def test_bench_dry_run(tmp_path, capsys):
    out = tmp_path / "b"
    assert run("bench", "--rows", "M1", "--dry-run", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "threshold=0.75" in printed and "B=5.0" in printed
    assert run("bench", "--rows", "all", "--dry-run", "--out", str(out), "--quiet") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rows"] == [f"M{i}" for i in range(1, 10)]
    assert not (out / "bench.csv").exists()


def test_bench_unknown_row(tmp_path):
    assert run("bench", "--rows", "M42", "--out", str(tmp_path / "b")) == 3


def test_unknown_model_name(tmp_path, capsys):
    assert run("product", "--model", "M42", "--spec", "F a",
               "--out", str(tmp_path / "p")) == 3
    assert "unknown model 'M42'" in capsys.readouterr().err


def test_internal_key_error_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(ltlfplan.cli, "compile_minimal_dfa", broken)
    assert run("compile", "--spec", "F a", "--out", str(tmp_path / "c")) == 4
    assert "runtime error (KeyError)" in capsys.readouterr().err


def test_malformed_input_files_are_validation_errors(tmp_path, model_file):
    doc = json.loads(Path(model_file).read_text())
    doc["stopping"] = {"kind": "fixed"}
    bad_model = tmp_path / "no_horizon.json"
    bad_model.write_text(json.dumps(doc))
    assert run("product", "--model", str(bad_model), "--spec", "F g",
               "--out", str(tmp_path / "p")) == 3
    bad_policy = tmp_path / "policy.json"
    bad_policy.write_text(json.dumps({"n_states": 4, "alphas": []}))
    assert run("evaluate", "--model", model_file, "--spec", "F g",
               "--policy", str(bad_policy), "--rollouts", "1") == 3


def _vectors(n, actions=(0, 1)):
    return [{"action": a, "values": [float(a)] * n} for a in actions]


# each writes a policy file that cannot run on the 4-state, 2-action "F g"
# product of the two-state model; n is the product's state count
MALFORMED_POLICIES = {
    "short_vector": lambda n: {"kind": "stationary", "n_states": n, "gamma": 0.9,
                               "alphas": _vectors(n) + [{"action": 0, "values": [0.0] * (n - 1)}]},
    "nan_entry": lambda n: {"kind": "stationary", "n_states": n, "gamma": 0.9,
                            "alphas": _vectors(n) + [{"action": 0, "values": [float("nan")] * n}]},
    "unknown_kind": lambda n: {"kind": "tabular", "n_states": n, "alphas": _vectors(n)},
    "empty_alphas": lambda n: {"kind": "stationary", "n_states": n, "gamma": 0.9, "alphas": []},
    "action_out_of_range": lambda n: {"kind": "stationary", "n_states": n, "gamma": 0.9,
                                      "alphas": _vectors(n, (0, 2))},
    "wrong_state_count": lambda n: {"kind": "stationary", "n_states": n + 1, "gamma": 0.9,
                                    "alphas": _vectors(n + 1)},
    "time_indexed_on_geometric": lambda n: {"kind": "time_indexed", "n_states": n, "horizon": 1,
                                            "alphas": [_vectors(n), _vectors(n)]},
}


@pytest.mark.parametrize("command", ["evaluate", "trace"])
@pytest.mark.parametrize("case", sorted(MALFORMED_POLICIES) + ["weights_sum_1.1",
                                                              "second_member_wrong_states"])
def test_malformed_policy_files_exit_3(tmp_path, model_file, command, case):
    n = 4
    good = {"kind": "stationary", "n_states": n, "gamma": 0.9, "alphas": _vectors(n)}
    (tmp_path / "good.json").write_text(json.dumps(good))
    if case == "weights_sum_1.1":
        doc = {"weights": [0.6, 0.5], "policies": ["good.json", "good.json"]}
    elif case == "second_member_wrong_states":
        (tmp_path / "bad.json").write_text(json.dumps(MALFORMED_POLICIES["wrong_state_count"](n)))
        doc = {"weights": [0.5, 0.5], "policies": ["good.json", "bad.json"]}
    else:
        doc = MALFORMED_POLICIES[case](n)
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    args = ["--model", model_file, "--spec", "F g", "--policy", str(path), "--quiet"]
    args += ["--rollouts", "20"] if command == "evaluate" else ["--out", str(tmp_path / "t")]
    assert run(command, *args) == 3


def test_missing_model_file(tmp_path):
    assert run("product", "--model", "nope.json", "--spec", "F a",
               "--out", str(tmp_path / "p")) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["solve"])  # missing required arguments
    assert err.value.code == 2
