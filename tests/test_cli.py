import csv
import json
from pathlib import Path

import numpy as np
import pytest

import ltlfplan.cli
import ltlfplan.product
from ltlfplan.benchmarks import random_tiny_model, trajectory_table, twostate_constrained
from ltlfplan.cli import main
from ltlfplan.pbvi import AlphaPolicy, load_policy, save_policy
from ltlfplan.planner import auto_eta
from ltlfplan.pomdp import save_model


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


def test_manifest_records_the_blas_thread_count(tmp_path, monkeypatch):
    """Same-seed solves replay bit for bit only at the same BLAS thread count."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "c"
    assert run("compile", "--spec", "F a", "--out", str(out), "--quiet") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                        "MKL_NUM_THREADS": "2"}


def test_compile_trivial_spec(tmp_path):
    out = tmp_path / "c"
    assert run("compile", "--spec", "true", "--out", str(out), "--quiet") == 0
    doc = json.loads((out / "dfa.json").read_text())
    assert doc["n_states"] == 1
    assert doc["accepting"] == [0]


def test_compile_syntax_error_exit_code(tmp_path, capsys):
    assert run("compile", "--spec", "a U", "--out", str(tmp_path / "c")) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("atoms", ["a,,b", "a,a", "a,B", "a,true"])
def test_compile_bad_atom_list_is_an_input_error(atoms, tmp_path, capsys):
    out = tmp_path / "c"
    assert run("compile", "--spec", "F a", "--atoms", atoms, "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "dfa.json").exists()


def test_compile_dot_output(tmp_path):
    out = tmp_path / "c"
    assert run("compile", "--spec", "F a", "--dot", "--out", str(out), "--quiet") == 0
    assert "digraph" in (out / "dfa.dot").read_text()


def test_product_command(tmp_path, model_file, capsys):
    out = tmp_path / "p"
    assert run("product", "--model", model_file, "--spec", "F g", "--out", str(out)) == 0
    assert "product states" in capsys.readouterr().out
    assert (out / "product.json").exists()


def test_product_model_with_repeated_atoms_is_an_input_error(tmp_path, model_file, capsys):
    doc = json.loads(Path(model_file).read_text())
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({**doc, "atoms": doc["atoms"] * 2}))
    assert run("product", "--model", str(path), "--spec", "F g", "--out", str(tmp_path / "p")) == 3
    assert "duplicate atom names" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", [
    ("--n-beliefs", "0"), ("--tol", "0"), ("--tol", "-1"), ("--eta", "abc"), ("--eta", "-1"),
    ("--B", "nan"), ("--B", "inf"), ("--eta", "nan"), ("--eta", "inf"), ("--max-rounds", "-5"),
], ids=lambda flag: "".join(flag).lstrip("-"))
def test_bad_solver_flag_is_an_input_error(flag, tmp_path, model_file, capsys):
    # the bad flag comes last, so it overrides the valid --B 4 (argparse keeps the last value)
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
               "--B", "4", "--K", "2", "--simu", "5", "--out", str(tmp_path / "s"), *flag) == 3
    assert capsys.readouterr().err.startswith("error: ")


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
    assert trace[0] == "k,lambda,r_hat,p_hat,r_se,p_se,converged,gap,rounds,alphas,beliefs"
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


def test_solve_summary_reports_unconverged_solves_and_gap(tmp_path, model_file, capsys):
    out = tmp_path / "summary"
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
               "--B", "4", "--K", "2", "--simu", "4", "--n-beliefs", "4",
               "--max-rounds", "1", "--seed", "1", "--out", str(out)) == 0
    trace = json.loads((out / "result.json").read_text())["trace"]
    assert [row["converged"] for row in trace] == [False, False]
    assert f"2 unconverged, largest gap at b0 {max(row['gap'] for row in trace):.3g}" \
        in capsys.readouterr().out


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


def test_fixed_horizon_solve_evaluate_and_trace(tmp_path, capsys):
    model_path = tmp_path / "tiny.json"
    save_model(random_tiny_model(7, n_states=3, n_actions=2, n_obs=2, horizon=3, n_atoms=2),
               model_path)
    out = tmp_path / "s"
    common = ["--model", str(model_path), "--spec", "F a"]
    assert run("solve", *common, "--threshold", "0.6", "--B", "4", "--K", "2", "--simu", "10",
               "--n-beliefs", "6", "--out", str(out), "--quiet") == 0
    mixture = json.loads((out / "mixture.json").read_text())
    for rel in mixture["policies"]:
        policy = json.loads((out / rel).read_text())
        assert policy["kind"] == "time_indexed" and policy["horizon"] == 3
    capsys.readouterr()
    assert run("evaluate", *common, "--policy", str(out / "mixture.json"),
               "--rollouts", "20") == 0
    assert json.loads(capsys.readouterr().out)["rollouts"] == 20
    tout = tmp_path / "t"
    assert run("trace", *common, "--policy", str(out / "mixture.json"), "--out", str(tout),
               "--quiet") == 0
    assert len((tout / "trace.csv").read_text().splitlines()) == 1 + 4  # header, t = 0..3


def test_trace_replays_rollout_zero_of_evaluate(tmp_path, model_file, monkeypatch):
    """``trace`` writes the full run of rollout 0 of ``evaluate --seed``,
    whose own run records only rewards and the last state."""
    out = tmp_path / "s"
    assert run("solve", "--model", model_file, "--spec", "F g", "--threshold", "0.75",
               "--B", "4", "--K", "1", "--simu", "8", "--n-beliefs", "6",
               "--max-rounds", "40", "--out", str(out), "--quiet") == 0
    # an even mixture of "always action 0" and "always action 1": the action
    # column shows which policy the selection draw picked
    n = load_policy(out / "policies" / "policy_0001.json").n_states
    for a in (0, 1):
        save_policy(AlphaPolicy(np.zeros((1, n)), [a]), out / f"always_{a}.json")
    (out / "mixture.json").write_text(json.dumps(
        {"weights": [0.5, 0.5], "policies": ["always_0.json", "always_1.json"]}))
    simulated = []
    simulate = ltlfplan.product.sample_trajectory

    def recording(prod, policy, *args, **kwargs):
        run_ = simulate(prod, policy, *args, **kwargs)
        simulated.append((prod, policy, run_))
        return run_

    monkeypatch.setattr(ltlfplan.product, "sample_trajectory", recording)
    picked = set()
    for seed in range(8):
        simulated.clear()
        common = ["--model", model_file, "--spec", "F g", "--policy", str(out / "mixture.json"),
                  "--seed", str(seed)]
        assert run("evaluate", *common, "--rollouts", "1") == 0
        (prod, policy, rollout0), = simulated
        tout = tmp_path / f"t{seed}"
        assert run("trace", *common, "--out", str(tout), "--quiet") == 0
        (_, traced_policy, traced), = simulated[1:]
        with open(tout / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{k: str(v) for k, v in row.items()}
                        for row in trajectory_table(prod, traced)]
        action = prod.actions[policy.actions.item(0)]
        picked.add(action)
        assert traced_policy.actions.tolist() == policy.actions.tolist()
        assert {row["a"] for row in rows} == {action}
        assert [float(row["r"]) for row in rows] == rollout0.reward_list
        assert traced.state_list[-1] == rollout0.last_state
    assert picked == set(prod.actions)  # both pure policies were picked


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


def test_bench_unknown_row(tmp_path, capsys):
    assert run("bench", "--rows", "M42", "--out", str(tmp_path / "b")) == 3
    # a row list that names no row is an input error too, dry run or not
    for rows in (",", ""):
        for dry_run in ((), ("--dry-run",)):
            capsys.readouterr()
            assert run("bench", "--rows", rows, *dry_run, "--out", str(tmp_path / "b")) == 3
            assert capsys.readouterr().err.startswith("error: --rows")
    assert not (tmp_path / "b" / "bench.csv").exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_bench_bad_k_scale_is_an_input_error(scale, tmp_path, capsys):
    # rejected before the dry-run branch, so no row is planned or run
    assert run("bench", "--rows", "M1", "--K-scale", scale, "--dry-run",
               "--out", str(tmp_path / "b")) == 3
    assert capsys.readouterr().err.startswith("error: --K-scale")


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
    "short_vector": lambda n: {"kind": "stationary", "n_states": n,
                               "alphas": _vectors(n) + [{"action": 0, "values": [0.0] * (n - 1)}]},
    "nan_entry": lambda n: {"kind": "stationary", "n_states": n,
                            "alphas": _vectors(n) + [{"action": 0, "values": [float("nan")] * n}]},
    "unknown_kind": lambda n: {"kind": "tabular", "n_states": n, "alphas": _vectors(n)},
    "empty_alphas": lambda n: {"kind": "stationary", "n_states": n, "alphas": []},
    "action_out_of_range": lambda n: {"kind": "stationary", "n_states": n,
                                      "alphas": _vectors(n, (0, 2))},
    "wrong_state_count": lambda n: {"kind": "stationary", "n_states": n + 1,
                                    "alphas": _vectors(n + 1)},
    "time_indexed_on_geometric": lambda n: {"kind": "time_indexed", "n_states": n, "horizon": 1,
                                            "alphas": [_vectors(n), _vectors(n)]},
    # JSON numbers of the wrong kind are refused, not coerced
    "action_fraction": lambda n: {"kind": "stationary", "n_states": n,
                                  "alphas": [{"action": 0.7, "values": [0.0] * n}]},
    "action_true": lambda n: {"kind": "stationary", "n_states": n,
                              "alphas": [{"action": True, "values": [0.0] * n}]},
    "n_states_float": lambda n: {"kind": "stationary", "n_states": float(n),
                                 "alphas": _vectors(n)},
    "converged_int": lambda n: {"kind": "stationary", "n_states": n, "converged": 1,
                                "alphas": _vectors(n)},
    "values_strings": lambda n: {"kind": "stationary", "n_states": n,
                                 "alphas": [{"action": 0, "values": ["1.5"] + ["2"] * (n - 1)}]},
    "values_bools": lambda n: {"kind": "stationary", "n_states": n,
                               "alphas": [{"action": 0, "values": [True] + [False] * (n - 1)}]},
}


# mixture weights that are not finite JSON numbers
MALFORMED_WEIGHTS = {"weights_nan": [float("nan"), 1.0], "weights_inf": [float("inf"), 0.0],
                     "weights_string": ["0.5", "0.5"], "weights_bool": [True, False]}


@pytest.mark.parametrize("command", ["evaluate", "trace"])
@pytest.mark.parametrize("case", sorted(MALFORMED_POLICIES) + sorted(MALFORMED_WEIGHTS)
                         + ["weights_sum_1.1", "second_member_wrong_states", "policies_string"])
def test_malformed_policy_files_exit_3(tmp_path, model_file, command, case):
    n = 4
    good = {"kind": "stationary", "n_states": n, "alphas": _vectors(n)}
    (tmp_path / "good.json").write_text(json.dumps(good))
    if case == "weights_sum_1.1":
        doc = {"weights": [0.6, 0.5], "policies": ["good.json", "good.json"]}
    elif case in MALFORMED_WEIGHTS:
        doc = {"weights": MALFORMED_WEIGHTS[case], "policies": ["good.json", "good.json"]}
    elif case == "second_member_wrong_states":
        (tmp_path / "bad.json").write_text(json.dumps(MALFORMED_POLICIES["wrong_state_count"](n)))
        doc = {"weights": [0.5, 0.5], "policies": ["good.json", "bad.json"]}
    elif case == "policies_string":  # not read as the files "a" and "b"
        for name in "ab":
            (tmp_path / name).write_text(json.dumps(good))
        doc = {"weights": [0.5, 0.5], "policies": "ab"}
    else:
        doc = MALFORMED_POLICIES[case](n)
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    args = ["--model", model_file, "--spec", "F g", "--policy", str(path), "--quiet"]
    args += ["--rollouts", "20"] if command == "evaluate" else ["--out", str(tmp_path / "t")]
    assert run(command, *args) == 3


def _set(path, value):
    """Edit that sets doc[path[0]]...[path[-1]] = value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# each edit of the two-state model file makes it malformed; the second entry
# is a fragment of the error line that names the fault
MALFORMED_MODELS = {
    "nan_initial": (_set(["initial", "home"], float("nan")), "non-finite number nan in initial"),
    "nan_next": (_set(["transitions", 0, "next", "home"], float("nan")),
                 "non-finite number nan in transition ('home', 'stay')"),
    "nan_observe": (_set(["observe", "home", "home"], float("nan")),
                    "non-finite number nan in observe['home']"),
    "T_2.5": (_set(["stopping"], {"kind": "fixed", "T": 2.5}), "integer T >= 0, got 2.5"),
    "T_true": (_set(["stopping"], {"kind": "fixed", "T": True}), "integer T >= 0, got True"),
    "T_abc": (_set(["stopping"], {"kind": "fixed", "T": "abc"}), "integer T >= 0, got 'abc'"),
    "reward_x": (_set(["rewards", 0, "value"], "x"), "bad number 'x' in reward ('home', 'stay')"),
    "reward_nan": (_set(["rewards", 0, "value"], float("nan")),
                   "non-finite number nan in reward ('home', 'stay')"),
    "initial_list": (_set(["initial"], [1.0, 0.0]), "initial must be an object, got list"),
    "labels_list": (_set(["labels"], [["g"]]), "labels must be an object, got list"),
    "observe_row_list": (_set(["observe", "home"], [1.0, 0.0]),
                         "observe['home'] must be an object, got list"),
    "transitions_object": (_set(["transitions"], {"home": {"home": 1.0}}),
                           "transitions must be a list, got dict"),
    "row_state_list": (_set(["transitions", 0, "state"], ["home"]),
                       "unknown state ['home'] in a transition row"),
    "stopping_kind_list": (_set(["stopping"], {"kind": ["fixed"], "T": 3}),
                           "unknown kind ['fixed'] in stopping"),
    "probability_true": (_set(["initial", "home"], True), "bad number True in initial"),
    "name_number": (_set(["name"], 7), "name must be a string, got int"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_files_exit_3(tmp_path, model_file, capsys, case):
    edit, fault = MALFORMED_MODELS[case]
    doc = json.loads(Path(model_file).read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run("product", "--model", str(path), "--spec", "F g",
               "--out", str(tmp_path / "p"), "--quiet") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fault in err


def test_model_file_that_is_not_json_exits_3(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"name": "cut off",')
    assert run("product", "--model", str(path), "--spec", "F g",
               "--out", str(tmp_path / "p")) == 3
    assert capsys.readouterr().err.startswith("error: model file")


def test_model_file_with_a_repeated_key_exits_3(tmp_path, model_file, capsys):
    """A key named twice in one JSON object is refused, not resolved to its
    last value: here ``observe`` lists "home" twice."""
    text = json.dumps(json.loads(Path(model_file).read_text()))
    home = '"observe": {"home": {"home": 1.0}'
    assert home in text
    path = tmp_path / "model.json"
    path.write_text(text.replace(home, home + ', "home": {"goal": 1.0}'))
    assert run("product", "--model", str(path), "--spec", "F g",
               "--out", str(tmp_path / "p"), "--quiet") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: model file {path}") and "repeats key 'home'" in err


def test_missing_model_file(tmp_path):
    assert run("product", "--model", "nope.json", "--spec", "F a",
               "--out", str(tmp_path / "p")) == 3


@pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file", "policies_is_a_file",
                                  "result_is_a_directory", "spec_file_is_a_directory",
                                  "spec_file_not_utf8", "model_not_utf8", "policy_is_a_directory",
                                  "policy_not_utf8"])
def test_unusable_user_paths_exit_3(tmp_path, model_file, capsys, case):
    """An --out that cannot be made a directory, an output path inside it
    that cannot be written, and an input file that is a directory or not
    UTF-8, are input errors naming the path."""
    a_file = tmp_path / "a_file"
    a_file.write_text("F g\n")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}\n')
    spec, out = ["--spec", "F g"], ["--out", str(tmp_path / "out")]
    solve = ["solve", "--model", model_file, *spec, "--threshold", "0.75", "--B", "4", "--K", "1",
             "--simu", "5", "--n-beliefs", "6", "--max-rounds", "30", *out]
    if case == "policies_is_a_file":
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "policies").write_text("")
    elif case == "result_is_a_directory":
        (tmp_path / "out" / "result.json").mkdir(parents=True)
    argv, named = {
        "out_is_a_file": (["compile", *spec, "--out", str(a_file)], a_file),
        "out_under_a_file": (["compile", *spec, "--out", str(a_file / "c")], a_file / "c"),
        "policies_is_a_file": (solve, tmp_path / "out" / "policies"),
        "result_is_a_directory": (solve, tmp_path / "out" / "result.json"),
        "spec_file_is_a_directory": (["compile", "--spec-file", str(tmp_path), *out], tmp_path),
        "spec_file_not_utf8": (["compile", "--spec-file", str(latin1), *out], latin1),
        "model_not_utf8": (["product", "--model", str(latin1), *spec, *out], latin1),
        "policy_is_a_directory": (["evaluate", "--model", model_file, *spec,
                                   "--policy", str(tmp_path)], tmp_path),
        "policy_not_utf8": (["evaluate", "--model", model_file, *spec,
                             "--policy", str(latin1)], latin1),
    }[case]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["solve"])  # missing required arguments
    assert err.value.code == 2
