"""Time the planner on one workload, end to end or per layer.

    python3 perfbench/run.py --workload m1_row --seed 1 --seconds 56 --trace 0

Run from the repository root.  The run first starts several fresh processes
that each time set-up (``import ltlfplan`` through the ready product and
problem), then runs ops back to back, closed loop with one client, until the
next op would take the whole run, set-up included, past ``--seconds``.  Every op is checked after its timed
interval.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
each op seed once untraced and once traced and prints the per-layer metrics.
The last line of standard output is the JSON result; the full record
(environment, per-op samples, digests, spans) goes to ``.bench_out/``.
"""

import os

# BLAS pinned to one thread before numpy loads, here and in the set-up children
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("twostate_eg", "m1_row", "m7_row")
SETUP_PROBES = 15
OPS_PER_SEED = 1000          # op i of seed n uses seed OPS_PER_SEED * n + i
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_samples(workload: str, seed: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    samples = []
    for j in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(OPS_PER_SEED * seed + j)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (SRC / "ltlfplan" / "__init__.py").is_file():
        print(f"error: no ltlfplan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    setup = setup_samples(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    reference = json.loads((HERE / "reference_digests.json").read_text())
    known = reference["digests"].get(args.workload, {})
    oracle = None
    if args.workload == "twostate_eg":
        prod, problem, _ = workloads.build(args.workload, 0)
        oracle = workloads.exact_mixture_optimum(prod, problem.threshold)

    ops, layer_rows, spans = [], [], []

    def attempt(op_seed, traced):
        record = {"op_seed": op_seed, "traced": traced}
        trc = tracer.Tracer() if traced else None
        try:
            if traced:
                with trc.installed():
                    op = workloads.run_op(args.workload, op_seed, trc.span)
            else:
                op = workloads.run_op(args.workload, op_seed)
        except Exception:  # one broken op is reported, the run goes on
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
            ops.append(record)
            return None
        record.update(op_s=op.op_s, eval_s=op.eval_s, eval_rollouts=op.eval_rollouts,
                      p_hat=op.final.p_hat, r_hat=op.final.r_hat, digest=workloads.digest(op))
        record["reference"] = ("none" if str(op_seed) not in known else
                               "same" if known[str(op_seed)] == record["digest"] else "changed")
        record["failures"] = workloads.check(args.workload, op, oracle)
        if traced:
            layer_rows.append(tracer.layer_metrics(trc, op.op_s, op.prod))
            spans.extend(trc.to_records(op_seed))
        ops.append(record)
        return record

    # closed loop: the next op starts when the previous one has finished
    unit_s = []
    for i in range(OPS_PER_SEED):
        op_seed = OPS_PER_SEED * args.seed + i
        tic = perf_counter()
        plain = attempt(op_seed, traced=False)
        if args.trace:
            traced = attempt(op_seed, traced=True)
            if plain and traced:
                traced["overhead"] = traced["op_s"] / plain["op_s"]
                if traced["digest"] != plain["digest"]:
                    traced["failures"].append("tracing changed the outputs")
        unit_s.append(perf_counter() - tic)
        if perf_counter() - started + statistics.median(unit_s) > args.seconds:
            break

    done = [op for op in ops if "error" not in op]
    failed = sum(1 for op in ops if "error" in op or op["failures"])
    if args.trace:
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in (layer_rows[0] if layer_rows else ())}
        overheads = [op["overhead"] for op in done if "overhead" in op]
        if overheads:
            metrics["trace.overhead"] = statistics.median(overheads)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": (len(ops) - failed) / len(ops),
        }
        if done:
            metrics["row_s"] = statistics.median(op["op_s"] for op in done)
            metrics["eval_rollouts_per_s"] = (sum(op["eval_rollouts"] for op in done)
                                              / sum(op["eval_s"] for op in done))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # a metric the run could not measure reads 0 and makes the run incorrect
    report = {"correct": failed == 0 and metrics.keys() >= units.keys(), "attempted": len(ops),
              "failed": failed,
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in units.items()}}

    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "setup_samples_s": setup, "ops": ops,
         "result": report}, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# {args.workload} seed {args.seed}: nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, BLAS threads 1, commit {env['commit']}, "
          f"source {env['source_sha256'][:12]}")
    for op in ops:
        print(f"# op {op['op_seed']}{' traced' if op['traced'] else ''}: "
              + ("ERROR" if "error" in op else
                 f"{op['op_s']:.3f} s, digest {op['digest']} ({op['reference']} vs reference)"
                 + (f", FAILED {op['failures']}" if op["failures"] else "")))
    verdicts = [op["reference"] for op in done]
    print(f"# digests vs reference: {verdicts.count('same')} same, "
          f"{verdicts.count('changed')} changed, {verdicts.count('none')} not recorded")
    for name, entry in report["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
