"""Batch command-line front end.

Commands: compile, product, solve, evaluate, bench, trace.  Every command
that writes files also writes a manifest.json with the fully resolved
configuration; re-running a manifest's command line reproduces the outputs
bit-identically apart from timing fields, which live in separate files or
columns.  Exit codes: 0 success, 2 usage, 3 input validation, 4 runtime.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import (
    CSV_COLUMNS, MODEL_NAMES, PRESETS, make_model, render_trajectory_ascii, run_experiment,
    trajectory_table,
)
from .dfa import compile_minimal_dfa, dfa_to_dot, save_dfa
from .files import json_list, read_json, read_text, write_csv, write_json
from .ltlf import LtlfError, parse_formula
from .pbvi import SolverConfig, check_policy, load_policy, policy_from_dict, save_policy
from .planner import (
    ConstrainedProblem, MixedPolicy, eg_solve, export_trace_csv, mc_evaluate, rollouts, save_result,
)
from .pomdp import ModelError, load_model
from .product import constrained_product, save_product

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

# same-seed solves replay bit for bit only at the same BLAS thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ValidationFailure(Exception):
    pass


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationFailure(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _write_manifest(out: Path, command: str, args, resolved: dict) -> None:
    doc = {
        "command": command,
        "inputs": {k: v for k, v in resolved.items() if k.endswith("_path")},
        "config": {k: v for k, v in resolved.items() if not k.endswith("_path")},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }
    write_json(out / "manifest.json", doc, sort_keys=True)


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _load_spec_text(args) -> str:
    if args.spec is not None:
        return args.spec
    if args.spec_file is not None:
        return read_text(args.spec_file, ValidationFailure, "spec").strip()
    raise ValidationFailure("one of --spec or --spec-file is required")


def _product(args):
    """(spec text, pruned product) of --model, a builtin name or a model file,
    and --spec or --spec-file."""
    if args.model in MODEL_NAMES:
        model = make_model(args.model)
    elif Path(args.model).is_file():
        model = load_model(args.model)
    else:
        raise ValidationFailure(f"unknown model {args.model!r}: neither a model file "
                                f"nor a builtin name ({', '.join(MODEL_NAMES)})")
    text = _load_spec_text(args)
    return text, constrained_product(model, text)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_compile(args) -> int:
    text = _load_spec_text(args)
    atoms = args.atoms.split(",") if args.atoms else None
    formula = parse_formula(text, atoms=atoms if atoms else "infer")
    dfa = compile_minimal_dfa(formula, atoms=atoms, name=args.name or text)
    out = _out_dir(args)
    save_dfa(dfa, out / "dfa.json")
    if args.dot:
        (out / "dfa.dot").write_text(dfa_to_dot(dfa) + "\n")
    _write_manifest(out, "compile", args,
                    {"spec": text, "atoms": list(dfa.atoms), "dot": args.dot})
    _say(args, f"states: {dfa.n_states}  accepting: {len(dfa.accepting)}  atoms: {','.join(dfa.atoms)}")
    return EXIT_OK


def cmd_product(args) -> int:
    text, prod = _product(args)
    out = _out_dir(args)
    save_product(prod, out / "product.json")
    _write_manifest(out, "product", args, {"model_path": args.model, "spec": text})
    _say(args, f"product states: {prod.n_states} (dense {prod.base.n_states * prod.dfa.n_states})  "
               f"|Q|: {prod.dfa.n_states}")
    return EXIT_OK


def cmd_solve(args) -> int:
    text, prod = _product(args)
    try:
        eta = "auto" if args.eta == "auto" else float(args.eta)
        problem = ConstrainedProblem(product=prod, threshold=args.threshold, B=args.B,
                                     K=args.K, eta=eta, simu=args.simu, base_seed=args.seed)
        cfg = SolverConfig(n_beliefs=args.n_beliefs, max_backup_rounds=args.max_rounds,
                           bellman_tolerance=args.tol, expansion_seed=args.seed)
    except ValueError as exc:
        raise ValidationFailure(f"invalid solve option: {exc}") from exc
    result = eg_solve(problem, cfg)

    out = _out_dir(args)
    save_product(prod, out / "product.json")
    policy_dir = out / "policies"
    policy_dir.mkdir(exist_ok=True)
    policy_files = []
    for i, policy in enumerate(result.mixture.policies):
        rel = f"policies/policy_{i + 1:04d}.json"
        save_policy(policy, out / rel)
        policy_files.append(rel)
    write_json(out / "mixture.json",
               {"weights": result.mixture.weights.tolist(), "policies": policy_files})
    if result.bfs_mixture is not None:
        support = np.nonzero(result.bfs_weights)[0]
        write_json(out / "bfs_mixture.json", {"weights": result.bfs_mixture.weights.tolist(),
                                              "policies": [policy_files[i] for i in support],
                                              "lp_weights": result.bfs_weights.tolist()})
    save_result(result, out / "result.json")
    export_trace_csv(result, out / "trace.csv")
    write_json(out / "timings.json", result.timings)
    _write_manifest(out, "solve", args, {
        "model_path": args.model, "spec": text, "threshold": args.threshold,
        "B": args.B, "K": args.K, "eta": result.eta, "simu": args.simu,
        "n_beliefs": args.n_beliefs, "max_rounds": args.max_rounds, "tol": args.tol,
    })
    unconverged = sum(not rec.converged for rec in result.records)
    _say(args, f"mixture over {args.K} policies: mean p_hat {result.mean_p_hat():.3f} "
               f"(threshold {args.threshold}), mean r_hat {result.mean_r_hat():.3f}; "
               f"{unconverged} unconverged, largest gap at b0 "
               f"{max(rec.gap for rec in result.records):.3g}")
    return EXIT_OK


def _load_policy_for(path: Path, prod):
    """The policy or mixture in a file, every member checked to run on the
    product (pbvi.check_policy)."""
    doc = read_json(path, ValidationFailure, "policy")
    try:
        if "policies" in doc and "weights" in doc:
            weights, files = doc["weights"], doc["policies"]
            if not (json_list(weights, (int, float)) and json_list(files, (str,))):
                raise ValueError(f"weights must be a list of JSON numbers and policies one of "
                                 f"file names, got {weights!r} and {files!r}")
            policy = MixedPolicy([load_policy(path.parent / rel) for rel in files], weights)
        else:
            policy = policy_from_dict(doc)
        for member in policy.policies if isinstance(policy, MixedPolicy) else [policy]:
            check_policy(member, prod)
    except KeyError as exc:
        raise ValidationFailure(f"malformed policy file {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed policy file {path}: {exc}") from exc
    return policy


def cmd_evaluate(args) -> int:
    if args.rollouts < 1:
        raise ValidationFailure(f"--rollouts must be >= 1, got {args.rollouts}")
    text, prod = _product(args)
    policy = _load_policy_for(Path(args.policy), prod)
    est = mc_evaluate(policy, prod, args.rollouts, args.seed)
    report = {"r_hat": est.r_hat, "p_hat": est.p_hat, "r_se": est.r_se, "p_se": est.p_se,
              "rollouts": est.n}
    print(json.dumps(report, indent=1))
    if args.out:
        out = _out_dir(args)
        write_json(out / "evaluation.json", report)
        _write_manifest(out, "evaluate", args,
                        {"model_path": args.model, "policy_path": args.policy,
                         "spec": text, "rollouts": args.rollouts})
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.rows == "all":
        rows = list(MODEL_NAMES)
    else:
        rows = [r.strip() for r in args.rows.split(",") if r.strip()]
    if not rows:
        raise ValidationFailure(f"--rows names no benchmark row; choose from {MODEL_NAMES} or 'all'")
    unknown = [r for r in rows if r not in PRESETS]
    if unknown:
        raise ValidationFailure(f"unknown benchmark rows {unknown}; choose from {MODEL_NAMES}")
    if args.K_scale is not None and not 0.0 < args.K_scale < np.inf:
        raise ValidationFailure(f"--K-scale must be a positive finite number, got {args.K_scale}")
    out = _out_dir(args)
    if args.dry_run:
        for name in rows:
            p = PRESETS[name]
            _say(args, f"{name}: spec={p.spec} threshold={p.threshold} B={p.B} eta={p.eta} "
                       f"K={p.K} simu={p.simu}")
        _write_manifest(out, "bench", args, {"rows": rows, "dry_run": True})
        return EXIT_OK
    failures = 0
    table = []
    for name in rows:
        try:
            K = None if args.K_scale is None else max(1, round(PRESETS[name].K * args.K_scale))
            row, result, _ = run_experiment(name, K=K, seed=args.seed)
            export_trace_csv(result, out / f"trace_{name}.csv")
        except Exception as exc:  # per-row failures land in the error column
            row = {c: "" for c in CSV_COLUMNS}
            row.update({"model": name, "spec": PRESETS[name].spec, "seed": args.seed,
                        "error": f"{type(exc).__name__}: {exc}"})
            failures += 1
        table.append(row)
        _say(args, f"{name}: r_hat={row['r_hat']} p_hat={row['p_hat']} error={row['error'] or '-'}")
    write_csv(out / "bench.csv", CSV_COLUMNS, table)
    _write_manifest(out, "bench", args, {"rows": rows, "K_scale": args.K_scale, "dry_run": False})
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_trace(args) -> int:
    text, prod = _product(args)
    policy = _load_policy_for(Path(args.policy), prod)
    traj = next(rollouts(policy, prod, args.seed, 1))  # rollout 0 of `evaluate --seed`
    out = _out_dir(args)
    write_csv(out / "trace.csv", ["t", "s", "q", "a", "o", "r"], trajectory_table(prod, traj))
    frames = render_trajectory_ascii(prod, traj)
    (out / "trace.txt").write_text(frames + "\n")
    _write_manifest(out, "trace", args,
                    {"model_path": args.model, "policy_path": args.policy, "spec": text})
    _say(args, frames)
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

def _add_common(p, out_default=None):
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--out", default=out_default, help="output directory")
    p.add_argument("--quiet", action="store_true")


def _add_spec(p):
    p.add_argument("--spec", help="formula text, e.g. 'F a & G !b'")
    p.add_argument("--spec-file", help="file containing the formula")


def _add_solver_knobs(p):
    p.add_argument("--n-beliefs", type=int, default=SolverConfig.n_beliefs)
    p.add_argument("--max-rounds", type=int, default=SolverConfig.max_backup_rounds)
    p.add_argument("--tol", type=float, default=SolverConfig.bellman_tolerance)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltlfplan", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a formula to a minimized DFA")
    _add_spec(p)
    p.add_argument("--atoms", help="comma-separated atom list (default: inferred)")
    p.add_argument("--name", help="name recorded in the DFA file")
    p.add_argument("--dot", action="store_true", help="also write Graphviz dfa.dot")
    _add_common(p, out_default="out_compile")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("product", help="build the constrained product POMDP")
    p.add_argument("--model", required=True, help="model file or builtin name M1..M9")
    _add_spec(p)
    _add_common(p, out_default="out_product")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("solve", help="run the exponentiated-gradient constrained planner")
    p.add_argument("--model", required=True, help="model file or builtin name M1..M9")
    _add_spec(p)
    p.add_argument("--threshold", type=float, required=True, help="required satisfaction probability")
    p.add_argument("--B", type=float, required=True, help="multiplier cap")
    p.add_argument("--K", type=int, required=True, help="iterations")
    p.add_argument("--eta", default="auto", help="learning rate or 'auto'")
    p.add_argument("--simu", type=int, default=200, help="rollouts per constraint evaluation")
    _add_solver_knobs(p)
    _add_common(p, out_default="out_solve")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="Monte-Carlo evaluation of a saved (mixed) policy")
    p.add_argument("--model", required=True)
    _add_spec(p)
    p.add_argument("--policy", required=True, help="policy or mixture file")
    p.add_argument("--rollouts", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="run benchmark preset rows, write bench.csv")
    p.add_argument("--rows", required=True, help="comma-separated model names or 'all'")
    p.add_argument("--K-scale", type=float, default=None,
                   help="scale preset iteration counts (e.g. 0.3 for desk scale)")
    p.add_argument("--dry-run", action="store_true", help="plan rows without solving")
    _add_common(p, out_default="out_bench")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("trace", help="simulate one trajectory; ASCII frames + CSV")
    p.add_argument("--model", required=True)
    _add_spec(p)
    p.add_argument("--policy", required=True)
    _add_common(p, out_default="out_trace")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationFailure, LtlfError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"runtime error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
